"""Bid-level CSV ingestion (online-auction log schema) and the canonical
dataset file format.

The bid log carries one row per placed bid with columns auctionid, bid,
bidtime, bidder, bidderrate, openbid, price.  Cleaning keeps only the
latest bid of each bidder within an auction, adds small uniform noise to
the retained bids to remove ties, and replays the stream through the
standing-price mechanics.  The canonical format is a lossless dump of an
ObservedDataset that round-trips exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import AuctionRecord, ObservedDataset, break_ties, has_ties
from .simulate import replay_bids

_COLUMNS = ("auctionid", "bid", "bidtime", "bidder", "bidderrate",
            "openbid", "price")


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
        violations = [f"{name} {value} is not finite" for name, value in
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
    n_rows: int
    n_bidders: int
    multi_bid_bidders: int
    removed_rows: int
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
        return (0, float(auction_id), auction_id)
    except ValueError:
        return (1, 0.0, auction_id)


def ingest_bid_csv(path, duration_days: float, noise_seed: int,
                   noise_scale: float = 0.01):
    """Parse a bid log into (ObservedDataset, CleaningReport).

    Per auction: rows are ordered by bidtime; for bidders with several
    rows only the latest one is kept; Uniform(0, noise_scale) noise is
    added to every retained bid; the standing-price sequence is rebuilt
    by replaying the noisy bids from the opening bid.  ``noise_scale=0``
    disables the jitter (useful for synthetic logs that are already
    tie-free).
    """
    path = Path(path)
    errors = []
    rows_by_auction: dict = {}
    seen = set()
    n_rows = 0
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError([f"missing column {c!r}" for c in missing])
        for lineno, rec in enumerate(reader, start=2):
            try:
                row = BidRow(auctionid=rec["auctionid"].strip(),
                             bid=float(rec["bid"]),
                             bidtime=float(rec["bidtime"]),
                             bidder=rec["bidder"].strip(),
                             bidderrate=int(float(rec["bidderrate"])),
                             openbid=float(rec["openbid"]),
                             price=float(rec["price"]))
            except (ValueError, ValidationError) as exc:
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
            rows_by_auction.setdefault(row.auctionid, []).append(row)
            n_rows += 1
    if errors:
        raise ValidationError(errors)
    if not rows_by_auction:
        raise ValidationError("bid log contains no usable rows")

    rng = np.random.default_rng(np.random.SeedSequence(noise_seed))
    auctions = []
    bidders = set()
    multi = 0
    removed = 0
    close_pairs = 0
    mismatches = []
    for aid in sorted(rows_by_auction, key=_sort_key):
        rows = sorted(rows_by_auction[aid], key=lambda r: r.bidtime)
        openbid = rows[0].openbid
        # keep the latest row per bidder (proxy bidding: the last bid is
        # the closest to the bidder's true valuation)
        last = {}
        for r in rows:
            if r.bidder in last:
                removed += 1
            last[r.bidder] = r
        counts = {}
        for r in rows:
            counts[r.bidder] = counts.get(r.bidder, 0) + 1
        multi += sum(1 for c in counts.values() if c > 1)
        kept = sorted(last.values(), key=lambda r: r.bidtime)
        bidders.update(last)

        raw = np.array([r.bid for r in kept], dtype=float)
        if len(raw) > 1:
            gaps = np.abs(np.diff(np.sort(raw)))
            close_pairs += int(np.sum(gaps < max(noise_scale, 1e-12)))
        noisy = raw + (rng.uniform(0.0, noise_scale, len(raw))
                       if noise_scale > 0 else 0.0)
        times = [r.bidtime for r in kept]
        record = replay_bids(openbid, duration_days, times, noisy)
        above = int(np.sum(noisy > openbid))
        if record.m != max(0, above - 1):
            mismatches.append(aid)
        auctions.append(record)

    dataset = ObservedDataset(tuple(auctions), duration_days)
    jitter = has_ties(dataset)
    if jitter:
        dataset = break_ties(dataset, rng, scale=max(noise_scale, 0.01))
    report = CleaningReport(n_auctions=len(auctions), n_rows=n_rows,
                            n_bidders=len(bidders),
                            multi_bid_bidders=multi,
                            removed_rows=removed, close_pairs=close_pairs,
                            replay_mismatches=tuple(mismatches),
                            reserve_jitter=jitter)
    return dataset, report


def export_bid_log(path, traces, duration_days: float) -> None:
    """Write simulated traces as a bid log.

    ``traces`` is an iterable of (reserve, times, bids) triples; one
    synthetic bidder id per row (so dedup is a no-op) and the final
    selling price column computed by replay.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for k, (reserve, times, bids) in enumerate(traces):
            record = replay_bids(reserve, duration_days, times, bids)
            for j, (t, b) in enumerate(zip(times, bids)):
                writer.writerow([k + 1, repr(float(b)), repr(float(t)),
                                 f"bidder{k + 1}_{j}", 0,
                                 repr(float(reserve)),
                                 repr(float(record.final_price))])


def export_dataset(dataset: ObservedDataset, path,
                   header_lines=()) -> None:
    """Canonical dump: an auction header row followed by one row per
    standing-price jump; floats written with repr so the read side
    recovers them bit-for-bit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["kind", "auction", "reserve_or_price",
                         "duration_or_wait", "sold"])
        for k, a in enumerate(dataset.auctions):
            writer.writerow(["auction", k, repr(float(a.reserve)),
                             repr(float(a.duration)), int(a.sold)])
            for x, t in a.jumps:
                writer.writerow(["jump", k, repr(x), repr(t), ""])


def read_dataset(path) -> ObservedDataset:
    """Read a canonical dump back into an ObservedDataset.

    Each jump row must follow the row of its own auction.  A malformed
    row raises :class:`ValidationError` naming its line.
    """
    path = Path(path)
    headers = []  # (line, reserve, duration, sold)
    jumps = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = (r for r in reader if r and not r[0].startswith("#"))
        if next(rows, [""])[0] != "kind":
            raise ValidationError(f"{path} is not a canonical dataset file")
        for r in rows:
            try:
                if len(r) != 5:
                    raise ValueError(f"expected 5 fields, got {len(r)}")
                kind, k, a, b = r[0], int(r[1]), float(r[2]), float(r[3])
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise ValueError(f"non-finite value in {r[2:4]}")
                if kind == "auction":
                    if k != len(headers):
                        raise ValueError(f"auction rows out of order at index {k}")
                    if r[4] not in ("0", "1"):
                        raise ValueError(f"sold must be 0 or 1, got {r[4]!r}")
                    headers.append((reader.line_num, a, b, r[4] == "1"))
                    jumps.append([])
                elif kind == "jump":
                    if not headers or k != len(headers) - 1:
                        raise ValueError(f"jump row for auction {k} does not "
                                         f"follow that auction's row")
                    jumps[k].append((a, b))
                else:
                    raise ValueError(f"unknown row kind {kind!r}")
            except ValueError as exc:
                raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None
    if not headers:
        raise ValidationError(f"{path} contains no auctions")
    auctions = []
    for (line, res, dur, sold), j in zip(headers, jumps):
        try:
            auctions.append(AuctionRecord(res, dur, tuple(j), sold))
        except ValidationError as exc:
            raise ValidationError([f"{path} line {line}: {v}"
                                   for v in exc.violations]) from None
    return ObservedDataset(tuple(auctions), headers[0][2])
