"""Command-line surface: simulate, estimate, bands, metrics, replicate,
ingest, and plot-data export.

Every command accepts ``--config FILE`` pointing at a flat key=value
text file whose keys are the command's flag names (without ``--``) or
their destinations; explicit flags win over config entries, which win
over built-in defaults, and an unknown key is a validation error.  The
resolved configuration is echoed into every output file for provenance.
Exit codes: 0 success, 2 usage error, 3 input validation failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bands import estimate_median_bias, hulc_band, write_band_csv
from .errors import NumericalError, SecondPriceError, ValidationError
from .ingest import export_dataset, ingest_bid_csv, read_dataset
from .metrics import ks_distance, replicate_table, tv_distance, write_report_csv
from .model import MonotoneCurve
from .pipeline import fit, fit_initial
from .simulate import SimConfig, ValuationDistribution, run_study

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def parse_dist(spec: str) -> ValuationDistribution:
    """Parse 'kind:params', e.g. uniform:1,20 gamma:10,2 pareto:3,100
    beta:2,2 piecewise:1,2,0.5;3,4,0.5 (pareto is scale,shape; gamma is
    shape,rate)."""
    try:
        kind, _, rest = spec.partition(":")
        if kind == "piecewise":
            pieces = [tuple(float(v) for v in chunk.split(","))
                      for chunk in rest.split(";")]
            return ValuationDistribution.piecewise_uniform(pieces)
        params = [float(v) for v in rest.split(",")]
        ctor = {"uniform": ValuationDistribution.uniform,
                "pareto": ValuationDistribution.pareto,
                "gamma": ValuationDistribution.gamma,
                "beta": ValuationDistribution.beta}[kind]
        return ctor(*params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot parse distribution spec {spec!r}: {exc}")


def load_config(path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Resolver:
    """flag > config file > default, with the resolved values recorded.

    Config keys are mapped to argument destinations through the
    command's ``config_keys`` table, so ``lambda`` sets ``lam``.
    """

    def __init__(self, args):
        self.args = args
        self.config = {}
        if getattr(args, "config", None):
            for key, val in load_config(args.config).items():
                if key not in args.config_keys:
                    raise ValidationError(
                        f"{args.config}: unknown key {key!r} for "
                        f"{args.command}; known: {sorted(args.config_keys)}")
                self.config[args.config_keys[key]] = val
        self.resolved = {}

    def get(self, key, cast=str, default=None, required=False):
        val = getattr(self.args, key, None)
        if val is None and key in self.config:
            raw = self.config[key]
            if cast is bool:
                val = raw.strip().lower() in ("1", "true", "yes", "on")
            else:
                val = cast(raw)
        if val is None:
            val = default
        if val is None and required:
            raise ValidationError(f"missing required parameter {key!r}")
        self.resolved[key] = val
        return val

    def header_lines(self):
        return [f"{k}={v}" for k, v in sorted(self.resolved.items())
                if v is not None]


def _write_curves_csv(path, header_lines, knots, series):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x," + ",".join(name for name, _ in series) + "\n")
        cols = [np.asarray(curve(knots)) for _, curve in series]
        for i, x in enumerate(knots):
            fh.write(",".join([repr(float(x))] + [repr(float(c[i])) for c in cols])
                     + "\n")


def _read_numeric_csv(path, width=None):
    """Header names and the float rows of a CSV whose '#' lines are
    comments.  The first ``width`` fields of every row (default: one per
    header name) are read and must be finite numbers; a short or
    malformed row raises ValidationError naming its line."""
    lines = [(n, r) for n, r in enumerate(Path(path).read_text().splitlines(), 1)
             if r and not r.startswith("#")]
    if len(lines) < 2:
        raise ValidationError(f"{path} needs a header row and at least one data row")
    names = lines[0][1].split(",")
    width = width or len(names)
    data = []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) < width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            row = [float(v) for v in fields[:width]]
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"non-finite value in {fields[:width]}")
        except ValueError as exc:
            raise ValidationError(f"{path} line {lineno}: {exc}") from None
        data.append(row)
    return names, np.array(data)


def _read_curves_csv(path):
    """Read a curves CSV back into {column: piecewise-linear curve}."""
    names, data = _read_numeric_csv(path)
    x = data[:, 0]
    return {name: MonotoneCurve(x, np.clip(data[:, j], 0.0, 1.0), kind="pl")
            for j, name in enumerate(names) if j > 0}


# -- commands -----------------------------------------------------------

def cmd_simulate(args) -> int:
    res = _Resolver(args)
    dist = parse_dist(res.get("dist", str, required=True))
    config = SimConfig(lam=res.get("lam", float, 1.0),
                       tau=res.get("tau", float, 100.0),
                       K=res.get("K", int, required=True),
                       seed=res.get("seed", int, 0),
                       reserve_policy=res.get("reserve", float, 0.0))
    out = res.get("out", str, required=True)
    dataset = run_study(config, dist)
    export_dataset(dataset, out, header_lines=res.header_lines())
    print(f"wrote {dataset.K} auctions to {out}")
    return EXIT_OK


def _write_trace_csv(path, history) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "loglik"])
        for s, v in enumerate(history):
            writer.writerow([s, repr(float(v))])


def cmd_estimate(args) -> int:
    res = _Resolver(args)
    dataset = read_dataset(res.get("data", str, required=True))
    result = fit(dataset,
                 q=res.get("q", float, 0.25),
                 epsilon=res.get("epsilon", float),
                 tol=res.get("tol", float, 1e-8),
                 max_sweeps=res.get("max_sweeps", int, 10000),
                 constrained=not res.get("unconstrained", bool, False))
    trace = res.get("trace", str)
    if trace is not None:
        _write_trace_csv(trace, result.ascent.history)
    out_curves = res.get("out_curves", str, required=True)
    out_json = res.get("out_json", str)
    knots = np.unique(np.concatenate((result.f_init.knots, result.cdf.knots)))
    _write_curves_csv(out_curves, res.header_lines(), knots,
                      [("f_init", result.f_init), ("f_mle", result.cdf)])
    diagnostics = {
        "lambda_hat": result.lambda_hat,
        "r_min": result.selection.r_min,
        "v_size": len(result.selection.V),
        "sweeps": result.ascent.sweeps,
        "final_objective": result.ascent.loglik,
        "converged": result.ascent.converged,
        "constrained": result.constrained,
        "config": {k: v for k, v in res.resolved.items() if v is not None},
    }
    blob = json.dumps(diagnostics, indent=2, sort_keys=True)
    if out_json:
        Path(out_json).write_text(blob + "\n")
    print(blob)
    return EXIT_OK


def cmd_bands(args) -> int:
    res = _Resolver(args)
    dataset = read_dataset(res.get("data", str, required=True))
    kind = res.get("kind", str, "mle")
    alpha = res.get("alpha", float, 0.10)
    seed = res.get("seed", int, 0)
    q = res.get("q", float, 0.25)
    epsilon = res.get("epsilon", float)
    delta = res.get("delta", float, 0.0)
    if res.get("auto_delta", bool, False):
        lam_hat, selection, _, f_init = fit_initial(dataset, q=q,
                                                    epsilon=epsilon)
        reserves = np.array([0.0 if k in selection.V
                             else min(float(f_init(a.reserve)), 1.0 - 1e-9)
                             for k, a in enumerate(dataset.auctions)])
        bias = estimate_median_bias(kind, dataset.K, lam_hat, dataset.tau,
                                    reserves, res.get("bias_reps", int, 100),
                                    np.random.default_rng(seed), q=q)
        delta = bias.delta
    band = hulc_band(dataset, kind, alpha, delta,
                     np.random.default_rng(seed), q=q, epsilon=epsilon)
    if kind == "init":
        estimate = fit_initial(dataset, q=q, epsilon=epsilon)[3]
    else:
        estimate = fit(dataset, q=q, epsilon=epsilon).cdf
    out = res.get("out", str, required=True)
    res.resolved["delta"] = delta
    write_band_csv(band, estimate, out, header_lines=res.header_lines())
    print(f"B={band.batches} batches, average width {band.average_width:.4f}, "
          f"wrote {out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    res = _Resolver(args)
    curves_path = res.get("curves", str, required=True)
    curves = _read_curves_csv(curves_path)
    a = res.get("series_a", str, "f_init")
    b = res.get("series_b", str, "f_mle")
    if a not in curves or b not in curves:
        raise ValidationError(f"series {a!r}/{b!r} not found in {curves_path}; "
                              f"available: {sorted(curves)}")
    out = {"ks": ks_distance(curves[a], curves[b]),
           "tv": tv_distance(curves[a], curves[b])}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_replicate(args) -> int:
    res = _Resolver(args)
    specs = getattr(args, "setting", None)
    if not specs and "setting" in res.config:
        specs = [s for s in res.config["setting"].split(";") if s]
    if not specs:
        raise ValidationError("missing required parameter 'setting'")
    res.resolved["setting"] = ";".join(specs)
    settings = []
    for spec in specs:
        dist_spec, _, k = spec.rpartition(":")
        settings.append((parse_dist(dist_spec), int(k)))
    reports = replicate_table(settings,
                              replicates=res.get("reps", int, 100),
                              base_seed=res.get("seed", int, 0),
                              lam=res.get("lam", float, 1.0),
                              tau=res.get("tau", float, 100.0),
                              q=res.get("q", float, 0.25))
    out = res.get("out", str)
    if out:
        write_report_csv(reports, out, header_lines=res.header_lines())
    for r in reports:
        print(f"{r.label}: ks_mle={r.mean_ks_mle:.4f} ks_init={r.mean_ks_init:.4f} "
              f"tv_mle={r.mean_tv_mle:.4f} tv_init={r.mean_tv_init:.4f} "
              f"({r.replicates} replicates, {r.failures} failed)")
    return EXIT_OK


def cmd_ingest(args) -> int:
    res = _Resolver(args)
    dataset, report = ingest_bid_csv(res.get("data", str, required=True),
                                     duration_days=res.get("duration", float,
                                                           required=True),
                                     noise_seed=res.get("noise_seed", int, 0),
                                     noise_scale=res.get("noise_scale", float,
                                                         0.01))
    out = res.get("out", str, required=True)
    export_dataset(dataset, out, header_lines=res.header_lines())
    report_out = res.get("report_out", str)
    lines = report.lines()
    if report_out:
        Path(report_out).write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {dataset.K} auctions to {out}")
    return EXIT_OK


def export_plot_data(curves: dict, band, path, svg_path=None) -> None:
    """Long-format CSV (x, series, value) over the union knot grid, with
    an optional minimal static SVG line chart."""
    series = dict(curves)
    knot_sets = [np.asarray(c.knots, dtype=float) for c in series.values()]
    if band is not None:
        knot_sets.append(np.asarray(band.knots, dtype=float))
    xs = np.unique(np.concatenate(knot_sets))
    rows = []
    for name, curve in series.items():
        for x, v in zip(xs, np.asarray(curve(xs))):
            rows.append((float(x), name, float(v)))
    if band is not None:
        lo = np.interp(xs, band.knots, band.lower)
        hi = np.interp(xs, band.knots, band.upper)
        for x, v in zip(xs, lo):
            rows.append((float(x), "band_lower", float(v)))
        for x, v in zip(xs, hi):
            rows.append((float(x), "band_upper", float(v)))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write("x,series,value\n")
        for x, name, v in rows:
            fh.write(f"{x!r},{name},{v!r}\n")
    if svg_path is not None:
        _write_svg(svg_path, xs, rows)


def _write_svg(svg_path, xs, rows) -> None:
    width, height, margin = 640, 480, 50
    x0, x1 = float(xs.min()), float(xs.max())
    span = (x1 - x0) or 1.0

    def sx(x):
        return margin + (x - x0) / span * (width - 2 * margin)

    def sy(v):
        return height - margin - min(max(v, 0.0), 1.0) * (height - 2 * margin)

    palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"]
    by_series: dict = {}
    for x, name, v in rows:
        by_series.setdefault(name, []).append((x, v))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for idx, (name, pts) in enumerate(sorted(by_series.items())):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in sorted(pts))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - margin - 130}" y="{margin + 16 * idx}" '
                     f'fill="{color}" font-size="12">{name}</text>')
    parts.append("</svg>")
    svg_path = Path(svg_path)
    svg_path.parent.mkdir(parents=True, exist_ok=True)
    svg_path.write_text("\n".join(parts) + "\n")


def cmd_plot(args) -> int:
    res = _Resolver(args)
    curves = _read_curves_csv(res.get("curves", str, required=True))
    band = None
    bands_path = res.get("bands", str)
    if bands_path:
        from .bands import ConfidenceBand
        _, data = _read_numeric_csv(bands_path, width=3)
        band = ConfidenceBand(data[:, 0], data[:, 1], data[:, 2],
                              alpha=0.0 + res.get("alpha", float, 0.10),
                              batches=1)
    out_csv = res.get("out_csv", str, required=True)
    export_plot_data(curves, band, out_csv, svg_path=res.get("out_svg", str))
    print(f"wrote {out_csv}")
    return EXIT_OK


# -- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secondprice",
        description="Estimate a valuation distribution from second-price "
                    "auction standing-price data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config")
        config_keys = {}
        for flag, kwargs in flags:
            dest = p.add_argument(flag, **kwargs).dest
            config_keys[flag[2:].replace("-", "_")] = dest
            config_keys[dest] = dest
        p.set_defaults(func=func, config_keys=config_keys)
        return p

    add("simulate", cmd_simulate, [
        ("--dist", {}), ("--K", {"type": int}), ("--lambda", {"type": float,
                                                              "dest": "lam"}),
        ("--tau", {"type": float}), ("--seed", {"type": int}),
        ("--reserve", {"type": float}), ("--out", {})])
    add("estimate", cmd_estimate, [
        ("--data", {}), ("--q", {"type": float}), ("--epsilon", {"type": float}),
        ("--tol", {"type": float}), ("--max-sweeps", {"type": int}),
        ("--unconstrained", {"action": "store_true", "default": None}),
        ("--trace", {}), ("--out-curves", {}), ("--out-json", {})])
    add("bands", cmd_bands, [
        ("--data", {}), ("--kind", {"choices": ["init", "mle"]}),
        ("--alpha", {"type": float}), ("--delta", {"type": float}),
        ("--auto-delta", {"action": "store_true", "default": None}),
        ("--bias-reps", {"type": int}), ("--seed", {"type": int}),
        ("--q", {"type": float}), ("--epsilon", {"type": float}),
        ("--out", {})])
    add("metrics", cmd_metrics, [
        ("--curves", {}), ("--series-a", {}), ("--series-b", {})])
    add("replicate", cmd_replicate, [
        ("--setting", {"action": "append"}), ("--reps", {"type": int}),
        ("--seed", {"type": int}), ("--lambda", {"type": float, "dest": "lam"}),
        ("--tau", {"type": float}), ("--q", {"type": float}),
        ("--out", {})])
    add("ingest", cmd_ingest, [
        ("--data", {}), ("--duration", {"type": float}),
        ("--noise-seed", {"type": int}), ("--noise-scale", {"type": float}),
        ("--out", {}), ("--report-out", {})])
    add("plot", cmd_plot, [
        ("--curves", {}), ("--bands", {}), ("--alpha", {"type": float}),
        ("--out-csv", {}), ("--out-svg", {})])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SecondPriceError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
