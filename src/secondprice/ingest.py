"""Bid-level CSV ingestion (online-auction log schema) and the canonical
dataset file format.

The bid log carries one row per placed bid with columns auctionid, bid,
bidtime, bidder, bidderrate, openbid, price.  Cleaning keeps only the
latest bid of each bidder within an auction, adds small uniform noise to
the retained bids to remove ties, and replays the stream through the
standing-price mechanics.  The canonical format is a lossless dump of an
ObservedDataset that round-trips exactly.

Every CSV file the package makes is written by `write_csv`: ``#``
comment lines, a header row, unquoted fields and a newline after every
line.  `read_numeric_csv` reads a curves or band file back as checked
floats and names a bad line.  `read_dataset` parses all the rows of a
canonical dataset file at once with numpy's C reader, after the same
rule drops comments and blank lines.  It walks the rows one by one only
when that parse refuses them: to name a bad line, or to read a valid
row that numpy's reader would not read as Python does, such as one
written in Arabic-Indic or fullwidth digits.  Only the bid-log reader
uses the csv module, since an external log may quote its fields.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, groupby
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import ObservedDataset, break_ties
from .simulate import replay_streams

_COLUMNS = ("auctionid", "bid", "bidtime", "bidder", "bidderrate",
            "openbid", "price")
_DATASET_COLUMNS = ("kind", "auction", "reserve_or_price", "duration_or_wait", "sold")
# a canonical row as numpy's reader parses it: a kind or a sold flag one
# character longer than the longest legal one is kept whole, so it cannot
# be cut down to a legal one
_ROW = np.dtype([("kind", "U8"), ("k", np.int64), ("a", float), ("b", float),
                 ("sold", "U2")])
# the characters numpy's reader and Python read alike: numpy drops a
# string's trailing NULs, reads \x1c-\x1f as blanks around a number, and
# misreads or crashes on some non-ASCII characters in an integer field,
# so rows holding any other character are walked one by one instead
_PLAIN = bytes(range(32, 127)) + b"\n"


@dataclass(frozen=True)
class BidRow:
    """One placed bid from the log."""

    auctionid: str
    bid: float
    bidtime: float
    bidder: str
    bidderrate: int
    openbid: float
    price: float

    def __post_init__(self):
        violations = [f"{name} is empty" for name, value in
                      (("auctionid", self.auctionid), ("bidder", self.bidder))
                      if not value.strip()]
        violations += [f"{name} {value} is not finite" for name, value in
                       (("bid", self.bid), ("bidtime", self.bidtime),
                        ("openbid", self.openbid), ("price", self.price))
                       if not math.isfinite(value)]
        if self.bid <= 0:
            violations.append(f"bid {self.bid} must be positive")
        if self.bidtime < 0:
            violations.append(f"bidtime {self.bidtime} is negative")
        if self.openbid < 0:
            violations.append(f"openbid {self.openbid} is negative")
        if violations:
            raise ValidationError(violations)


@dataclass(frozen=True)
class CleaningReport:
    """What the cleaning pass did, for audit."""

    n_auctions: int
    n_rows: int                   # accepted rows
    n_bidders: int                # distinct bidder ids in the whole log
    multi_bid_bidders: int        # (auction, bidder) pairs with several rows
    removed_rows: int             # accepted rows less the kept ones
    close_pairs: int              # retained bid pairs closer than the noise scale
    replay_mismatches: tuple      # auctions where not every retained bid
    reserve_jitter: bool          # caused a standing-price jump

    def lines(self):
        return [
            f"auctions: {self.n_auctions}",
            f"bid rows: {self.n_rows}",
            f"distinct bidders: {self.n_bidders}",
            f"multi-bid bidders: {self.multi_bid_bidders}",
            f"rows removed by last-bid dedup: {self.removed_rows}",
            f"retained bid pairs closer than the noise scale: {self.close_pairs}",
            f"auctions where a retained bid did not move the standing price: "
            f"{len(self.replay_mismatches)}",
            f"reserve tie jitter applied: {self.reserve_jitter}",
        ]


def _sort_key(auction_id: str):
    try:
        value = float(auction_id)
    except ValueError:
        value = math.nan
    # text ids sort after numbers, and so does NaN, which compares with no number
    return (1, 0.0, auction_id) if math.isnan(value) else (0, value, auction_id)


def ingest_bid_csv(path, duration_days: float, noise_seed: int,
                   noise_scale: float = 0.01):
    """Parse a bid log into (ObservedDataset, CleaningReport).

    Auctions come in `_sort_key` order of their ids.  Per auction: rows
    are ordered by bidtime, equal times in file order; each bidder's
    latest row is kept, and kept rows with equal bidtimes follow their
    bidders' first rows; Uniform(0, noise_scale) noise is added to every
    kept bid; the standing-price sequence is rebuilt by replaying the
    noisy bids from the first row's openbid.  ``noise_scale=0`` disables
    the bid noise (useful for synthetic logs that are already tie-free).
    Prices that still tie get `break_ties` reserve jitter at scale
    ``max(noise_scale, 0.01)``.  An auction the replay refuses (say, two
    kept bids at one bidtime that both move the standing price) is named
    by its id.  A negative or non-finite ``noise_scale``, a
    ``duration_days`` that is not finite and positive, and a
    ``noise_seed`` that is not an integer >= 0 are rejected.  The
    report's counts are defined on its fields.
    """
    if not 0.0 <= noise_scale < math.inf:
        raise ValidationError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    if not 0.0 < duration_days < math.inf:
        raise ValidationError(f"duration_days must be finite and > 0, got {duration_days}")
    if not (isinstance(noise_seed, Integral) and noise_seed >= 0):
        raise ValidationError(f"noise_seed must be an integer >= 0, got {noise_seed!r}")
    path = Path(path)
    errors = []
    rows = []
    seen = set()
    with open_input(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in _COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValidationError([f"missing column {c!r}" for c in missing])
            for rec in reader:
                lineno = reader.line_num   # DictReader skips blank lines
                short = [c for c in _COLUMNS if rec[c] is None]
                if short:
                    errors.append(f"row {lineno}: no value for {', '.join(short)}")
                    continue
                if None in rec:  # DictReader files fields beyond the header here
                    errors.append(f"row {lineno}: {len(rec[None])} field(s) beyond "
                                  f"the {len(reader.fieldnames)}-column header")
                    continue
                try:
                    row = BidRow(auctionid=rec["auctionid"].strip(),
                                 bid=float(rec["bid"]),
                                 bidtime=float(rec["bidtime"]),
                                 bidder=rec["bidder"].strip(),
                                 bidderrate=int(float(rec["bidderrate"])),
                                 openbid=float(rec["openbid"]),
                                 price=float(rec["price"]))
                except (ValueError, OverflowError, ValidationError) as exc:
                    errors.append(f"row {lineno}: {exc}")
                    continue
                if row.bidtime > duration_days:
                    errors.append(f"row {lineno}: bidtime {row.bidtime} exceeds "
                                  f"duration {duration_days}")
                    continue
                key = (row.auctionid, row.bidder, row.bidtime)
                if key in seen:
                    errors.append(f"row {lineno}: duplicate (auctionid, bidder, "
                                  f"bidtime) {key}")
                    continue
                seen.add(key)
                rows.append(row)
        except csv.Error as exc:   # e.g. a field beyond the csv module's size limit
            # DictReader counts a line once it parses, the csv reader on reading it
            raise ValidationError(f"{path} line {reader.reader.line_num}: {exc}") from None
    if errors:
        raise ValidationError(errors)
    if not rows:
        raise ValidationError("bid log contains no usable rows")

    # a stable sort: rows with equal keys keep file order
    rows.sort(key=lambda r: (_sort_key(r.auctionid), r.bidtime))
    rng = np.random.default_rng(np.random.SeedSequence(noise_seed))
    aids, streams, above = [], [], []
    close_pairs = 0
    for aid, group in groupby(rows, key=lambda r: r.auctionid):
        group = list(group)
        # keep the latest row per bidder (proxy bidding: the last bid is
        # the closest to the bidder's true valuation)
        kept = sorted({r.bidder: r for r in group}.values(), key=lambda r: r.bidtime)
        raw = np.array([r.bid for r in kept], dtype=float)
        close_pairs += int(np.sum(np.diff(np.sort(raw)) < max(noise_scale, 1e-12)))
        noisy = raw + (rng.uniform(0.0, noise_scale, len(raw))
                       if noise_scale > 0 else 0.0)
        aids.append(aid)
        streams.append((group[0].openbid, np.array([r.bidtime for r in kept]), noisy))
        above.append(int(np.sum(noisy > group[0].openbid)))

    try:
        dataset = replay_streams(streams, duration_days)
    except ValidationError as exc:   # name each refused auction by its id
        raise ValidationError([f"auction {aids[k]}: {text}" for k, text in exc.broken]
                              or exc.violations) from None
    mismatches = [aid for aid, m, n in zip(aids, dataset.m.tolist(), above)
                  if m != max(0, n - 1)]
    tie_free = break_ties(dataset, rng, scale=max(noise_scale, 0.01))
    pairs = Counter((r.auctionid, r.bidder) for r in rows)   # one kept row each
    return tie_free, CleaningReport(
        n_auctions=dataset.K, n_rows=len(rows), n_bidders=len({b for _, b in pairs}),
        multi_bid_bidders=sum(c > 1 for c in pairs.values()),
        removed_rows=len(rows) - len(pairs), close_pairs=close_pairs,
        replay_mismatches=tuple(mismatches), reserve_jitter=tie_free is not dataset)


@contextmanager
def open_input(path, newline=None):
    """Open a text file for reading as UTF-8, skipping one leading
    byte-order mark.  A byte that does not decode, met while the file is
    read, raises ValidationError naming the file and its line."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:      # find the line, on this path only
        for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path} line {lineno}: not UTF-8 text "
                                      f"({exc.reason})") from None
        raise


@contextmanager
def open_output(path, header_lines=()):
    """Open an output file for writing UTF-8 text as given (``newline=""``),
    making its parent directory first, and write each line of each of
    ``header_lines`` as a ``# line`` comment before the caller's own
    content, so a value holding a line break stays a comment."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.writelines(f"# {part}\n" for part in line.splitlines())
        yield fh


def _field(value) -> str:
    # numpy's float64 is a float, and repr(float(v)) drops its type name
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv(path, names, rows, header_lines=()) -> None:
    """Write the ``# line`` comments, the header row and one comma-joined
    line per row, each ended by a newline.  A float is written as
    ``repr(float(v))``, so it reads back bit-for-bit; nothing is quoted,
    since every field the package writes is a number or a fixed word."""
    with open_output(path, header_lines) as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(_field, row)) + "\n" for row in rows)


def _data_lines(fh):
    """The numbers and the text of the lines of a text file that are
    neither blank nor a ``#`` comment, as two lists."""
    lines = fh.readlines()
    keep = [line[0] not in "#\n" for line in lines]
    return list(compress(range(1, len(lines) + 1), keep)), list(compress(lines, keep))


def read_numeric_csv(path, width=None):
    """Header names and the float rows of a file that `write_csv` wrote.
    A ``#`` line is a comment and a blank line is skipped; CRLF and LF
    line endings read alike.  The first ``width`` fields of every row
    (default: one per header name) are read and must be finite numbers; a
    row that is short, longer than the header or malformed raises
    ValidationError naming its line."""
    with open_input(path) as fh:
        numbers, lines = _data_lines(fh)
    if len(lines) < 2:
        raise ValidationError(f"{path} needs a header row and at least one data row")
    names = lines[0].rstrip("\n").split(",")
    width = width or len(names)
    data = []
    for lineno, line in zip(numbers[1:], lines[1:]):
        fields = line.rstrip("\n").split(",")
        try:
            if len(fields) > len(names):
                raise ValueError(f"{len(fields)} fields, more than the "
                                 f"{len(names)}-column header")
            if len(fields) < width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            row = [float(v) for v in fields[:width]]
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"non-finite value in {fields[:width]}")
        except ValueError as exc:
            raise ValidationError(f"{path} line {lineno}: {exc}") from None
        data.append(row)
    return names, np.array(data)


def export_bid_log(path, traces, duration_days: float) -> None:
    """Write simulated traces as a bid log.

    ``traces`` is an iterable of (reserve, times, bids) triples; one
    synthetic bidder id per row (so dedup is a no-op) and the final
    selling price column computed by replay.
    """
    traces = list(traces)
    finals = replay_streams(traces, duration_days).final_price.tolist()
    write_csv(path, _COLUMNS, (
        [k + 1, float(b), float(t), f"bidder{k + 1}_{j}", 0, float(reserve), final]
        for k, ((reserve, times, bids), final) in enumerate(zip(traces, finals))
        for j, (t, b) in enumerate(zip(times, bids))))


def export_dataset(dataset: ObservedDataset, path,
                   header_lines=()) -> None:
    """Canonical dump: an auction header row followed by one row per
    standing-price jump; floats written with repr so the read side
    recovers them bit-for-bit."""
    tau = float(dataset.tau)
    reserve, sold, offsets, price, wait = (
        a.tolist() for a in (dataset.reserve, dataset.sold, dataset.offsets,
                             dataset.price, dataset.wait))
    rows = ([("auction", k, reserve[k], tau, int(sold[k]))]
            + [("jump", k, x, t, "") for x, t in zip(price[lo:hi], wait[lo:hi])]
            for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])))
    write_csv(path, _DATASET_COLUMNS, chain.from_iterable(rows), header_lines)


def read_dataset(path) -> ObservedDataset:
    """Read a canonical dump back into an ObservedDataset.

    The first row must be `export_dataset`'s header.  Each jump row must
    follow the row of its own auction, and every auction must have the
    first one's duration.  numpy's reader parses all the rows at once and
    the row rules are checked over them together; only when that fails
    are the rows walked one by one, so a malformed row raises
    :class:`ValidationError` naming the first bad line, and an invalid
    auction one naming its auction's line, counting every line of the
    file.
    """
    path = Path(path)
    with open_input(path) as fh:
        numbers, rows = _data_lines(fh)
    if not rows:
        raise ValidationError(f"{path} is not a canonical dataset file")
    if rows[0].rstrip("\n").split(",") != list(_DATASET_COLUMNS):
        raise ValidationError(f"{path} line {numbers[0]}: not a canonical dataset file; "
                              f"expected the header {','.join(_DATASET_COLUMNS)}")
    del numbers[0], rows[0]
    if not rows:
        raise ValidationError(f"{path} contains no auctions")
    table = _parse_rows(rows)
    if table is None:
        table = _walk_rows(path, zip(numbers, rows))
    auction = table["kind"] == "auction"
    starts = np.flatnonzero(auction)    # each auction row's index among the rows
    reserve, duration, price, wait = (table["a"][auction], table["b"][auction],
                                      table["a"][~auction], table["b"][~auction])
    sold = table["sold"][auction] == "1"
    m = np.diff(starts, append=len(table)) - 1
    tau = float(duration[0])
    violations = [(k, f"duration {float(duration[k])} != common tau {tau}")
                  for k in np.flatnonzero(duration != tau).tolist()]
    if not violations:
        try:
            return ObservedDataset.from_arrays(reserve, sold, m, price, wait, tau)
        except ValidationError as exc:
            violations = exc.broken
    raise ValidationError([f"{path} line {numbers[starts[k]]}: {text}" for k, text in violations])


def _parse_rows(rows):
    """The rows as numpy's reader parses them, or None if a row holds a
    character outside `_PLAIN`, numpy refuses or warns about a row, or a
    row breaks a rule of `_walk_rows`."""
    if "".join(rows).encode().translate(None, _PLAIN):
        return None
    # numpy releases that still read an integer field written as a float
    # (``0.7``, ``1e0``) only warn before casting it, where Python's
    # `int` refuses it, so a warning counts as a refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            table = np.loadtxt(rows, dtype=_ROW, delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    auction = table["kind"] == "auction"
    count = np.cumsum(auction)      # auctions so far, this row's included
    flag = table["sold"][auction]
    ok = (len(table) == len(rows) and count[0] > 0
          and np.all(auction | (table["kind"] == "jump"))
          and np.all(table["k"] == count - 1)
          and np.all(np.isfinite(table["a"]) & np.isfinite(table["b"]))
          and np.all((flag == "0") | (flag == "1")))
    return table if ok else None


def _walk_rows(path, numbered_rows):
    """The ``(line number, row)`` pairs checked one at a time: the table
    `_parse_rows` would give, or a ValidationError naming the first line
    that breaks a rule."""
    table = []
    n_auctions = 0
    for lineno, line in numbered_rows:
        r = line.rstrip("\n").split(",")
        try:
            if len(r) != 5:
                raise ValueError(f"expected 5 fields, got {len(r)}")
            kind, k, a, b = r[0], int(r[1]), float(r[2]), float(r[3])
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"non-finite value in {r[2:4]}")
            if kind == "auction":
                if k != n_auctions:
                    raise ValueError(f"auction rows out of order at index {k}")
                if r[4] not in ("0", "1"):
                    raise ValueError(f"sold must be 0 or 1, got {r[4]!r}")
                n_auctions += 1
            elif kind == "jump":
                if not n_auctions or k != n_auctions - 1:
                    raise ValueError(f"jump row for auction {k} does not "
                                     f"follow that auction's row")
            else:
                raise ValueError(f"unknown row kind {kind!r}")
        except ValueError as exc:
            raise ValidationError(f"{path} line {lineno}: {exc}") from None
        table.append((kind, k, a, b, r[4]))
    return np.array(table, dtype=_ROW)
