"""Spans and counts for the traced run.

The traced run swaps public functions of ``secondprice`` for timing
wrappers, in the module where each caller looks the name up.  A span
records its name ("layer/module.function"), start, end and parent;
spans stay in memory and are written out when the run ends.  A layer's
self time is the time of its spans minus the time of their child
spans.  A name that is missing (for
instance because a later version of the program removed it) is skipped,
so its metrics read 0.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict


def _one(args, kwargs, result):
    return 1


# (module, name, layer or None for count-only, [(counter, fn(args, kwargs, result))])
WRAPS = [
    ("secondprice", "fit", "pipeline", [("pipeline.fits", _one)]),
    ("secondprice.cli", "fit", "pipeline", [("pipeline.fits", _one)]),
    ("secondprice.bands", "fit", "pipeline", [("pipeline.fits", _one)]),
    ("secondprice.pipeline", "fit_initial", "pipeline", []),
    ("secondprice.cli", "fit_initial", "pipeline", []),
    ("secondprice.bands", "fit_initial", "pipeline", []),
    ("secondprice.pipeline", "estimate_lambda", "arrival", []),
    ("secondprice.arrival", "build_g_table", None,
     [("arrival.grid_points", lambda a, k, r: len(a[0]))]),
    ("secondprice.pipeline", "build_g_table", None,
     [("arrival.grid_points", lambda a, k, r: len(a[0]))]),
    ("secondprice.pipeline", "pool", "model.pool",
     [("model.coords", lambda a, k, r: r.n)]),
    ("secondprice.pipeline", "select_low_reserve", "initial", []),
    ("secondprice.pipeline", "estimate_f_sp", "initial", []),
    ("secondprice.pipeline", "estimate_f_fp", "initial", []),
    ("secondprice.pipeline", "compute_splice_anchors", "initial", []),
    ("secondprice.pipeline", "combine_initial", "initial", []),
    ("secondprice.pipeline", "initial_theta", "initial", []),
    ("secondprice.pipeline", "coordinate_ascent", "mle",
     [("mle.sweeps", lambda a, k, r: r.sweeps),
      ("mle.coord_sweeps", lambda a, k, r: r.sweeps * len(r.theta))]),
    ("secondprice", "read_dataset", "ingest.read", []),
    ("secondprice.cli", "read_dataset", "ingest.read", []),
    ("secondprice.cli", "ingest_bid_csv", "ingest.bidlog",
     [("ingest.rows", lambda a, k, r: r[1].n_rows)]),
    ("secondprice.bands", "run_auction", "simulate", [("simulate.auctions", _one)]),
    ("secondprice.cli", "ks_distance", "metrics", []),
    ("secondprice.cli", "tv_distance", "metrics", []),
    ("secondprice.cli", "estimate_median_bias", "bands.bias", []),
    ("secondprice.cli", "hulc_band", "bands.band", []),
]


class Tracer:
    """In-memory span and count recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, span, counters):
        def wrapped(*args, **kwargs):
            sid = self.begin(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if sid is not None:
                    self.end(sid)
            for name, count in counters:
                try:
                    self.counts[name] += count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result
        return wrapped

    def install(self) -> list[str]:
        """Wrap every name of WRAPS that exists; return the missing ones."""
        missing = []
        for mod_name, attr, layer, counters in WRAPS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            span = f"{layer}/{mod_name}.{attr}" if layer else None
            setattr(mod, attr, self._wrapper(fn, span, counters))
            self._undo.append((mod, attr, fn))
        return missing

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def self_times(self) -> dict:
        """Self time per layer (the span name up to its first "/")."""
        dur = [s[4] - s[3] for s in self.spans]
        own = list(dur)
        for sid, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= dur[sid]
        out = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[2].split("/")[0]] += t
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in self.spans:
                w.writerow([sid, parent, name, repr(start), repr(end)])


UNITS = {
    "arrival.s": "s", "arrival.grid_points": "count",
    "simulate.s": "s", "simulate.auctions": "count",
    "mle.s": "s", "mle.sweeps": "count", "mle.us_per_coord_sweep": "us",
    "model.pool_s": "s", "model.coords": "count",
    "initial.s": "s", "pipeline.self_s": "s", "pipeline.fits": "count",
    "ingest.read_s": "s", "ingest.bidlog_s": "s", "ingest.rows": "count",
    "metrics.s": "s", "bands.bias_s": "s", "bands.band_s": "s",
    "cli.import_s": "s", "cli.ingest_s": "s", "cli.estimate_s": "s",
    "cli.bands_s": "s", "cli.metrics_s": "s",
}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer metrics from the spans and counts of ``ops`` traced
    ops (all but the ``cli.*`` ones, which come from process timings)."""
    st = tracer.self_times()
    c = tracer.counts
    values = {
        "arrival.s": st["arrival"],
        "arrival.grid_points": c["arrival.grid_points"],
        "simulate.s": st["simulate"],
        "simulate.auctions": c["simulate.auctions"],
        "mle.s": st["mle"],
        "mle.sweeps": c["mle.sweeps"],
        "model.pool_s": st["model.pool"],
        "model.coords": c["model.coords"],
        "initial.s": st["initial"],
        "pipeline.self_s": st["pipeline"],
        "pipeline.fits": c["pipeline.fits"],
        "ingest.read_s": st["ingest.read"],
        "ingest.bidlog_s": st["ingest.bidlog"],
        "ingest.rows": c["ingest.rows"],
        "metrics.s": st["metrics"],
        "bands.bias_s": st["bands.bias"],
        "bands.band_s": st["bands.band"],
    }
    out = {k: v / ops for k, v in values.items()}
    coord_sweeps = c["mle.coord_sweeps"]
    out["mle.us_per_coord_sweep"] = st["mle"] * 1e6 / coord_sweeps if coord_sweeps else 0.0
    return out
