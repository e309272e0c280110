"""Command-line surface: simulate, estimate, bands, metrics, replicate,
ingest, and plot-data export.

`build_parser` is the one place that declares an option: its flag, its
type and its default.  Every command accepts ``--config FILE``, a flat
key=value text file whose keys are the command's flag names (without
``--``) or their destinations.  Each value is parsed by its option's own
type (a switch such as ``--unconstrained`` takes 1/0, true/false, yes/no
or on/off) and becomes the command's default, so explicit flags win over
config entries, which win over built-in defaults.  An unknown key, a key
set twice and a value that does not parse are validation errors.  For
provenance, the command's parsed options are echoed as ``# key=value``
lines at the top of the dataset, curves, band and report CSVs, and as
the ``config`` key of ``estimate --out-json``.
Exit codes: 0 success, 2 usage error, 3 input validation failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import (export_dataset, ingest_bid_csv, open_input, open_output,
                     read_dataset, read_numeric_csv, write_csv)
from .initial import DEFAULT_Q
from .model import MonotoneCurve, union_grid

# bands, metrics, pipeline and simulate are imported by the commands that
# run them, so a process loads only the modules its command needs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def _config_value(action, raw: str):
    """Parse a config value as the option's own flag would parse it."""
    if isinstance(action, argparse._StoreTrueAction):
        if raw.lower() not in _SWITCH:
            raise ValueError(f"expected one of {'/'.join(_SWITCH)}")
        return _SWITCH[raw.lower()]
    if isinstance(action, argparse._AppendAction):
        # setting=a;b stands for --setting a --setting b
        return [v for v in raw.split(";") if v]
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {'/'.join(action.choices)}")
    return value


def load_config(path, options) -> dict:
    """{dest: value} from a flat key=value file; '#' starts a comment.  A
    key is an option's flag name without '--' ('-' and '_' alike) or its
    destination; an unknown key, a second value for one option, or a
    value its option cannot parse is a ValidationError."""
    by_key = {}
    for action in options:
        by_key[action.option_strings[0][2:].replace("-", "_")] = action
        by_key[action.dest] = action
    out = {}
    with open_input(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in by_key:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}; "
                                  f"known: {sorted(by_key)}")
        dest = by_key[key].dest
        if dest in out:
            raise ValidationError(f"{path}:{lineno}: key {key!r} sets {dest!r} "
                                  "a second time")
        try:
            out[dest] = _config_value(by_key[key], raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad value {raw!r} for key "
                                  f"{key!r}: {exc}") from None
    return out


def _provenance(args) -> dict:
    """The command's option values, None dropped, as echoed into its
    output files."""
    values = {a.dest: getattr(args, a.dest) for a in args.options}
    return {k: ";".join(v) if isinstance(v, list) else v
            for k, v in values.items() if v is not None}


def _header_lines(config: dict) -> list:
    return [f"{k}={v}" for k, v in sorted(config.items())]


def _read_curves_csv(path):
    """Read a curves CSV back into {column: piecewise-linear curve}."""
    names, data = read_numeric_csv(path)
    if len(names) < 2:
        raise ValidationError(f"{path} has no curve column after x")
    x = data[:, 0]
    return {name: MonotoneCurve(x, np.clip(data[:, j], 0.0, 1.0))
            for j, name in enumerate(names) if j > 0}


# -- commands -----------------------------------------------------------

def cmd_simulate(args) -> int:
    from .simulate import SimConfig, parse_dist, run_study
    dist = parse_dist(args.dist)
    config = SimConfig(lam=args.lam, tau=args.tau, K=args.K, seed=args.seed,
                       reserve_policy=args.reserve)
    dataset = run_study(config, dist)
    export_dataset(dataset, args.out,
                   header_lines=_header_lines(_provenance(args)))
    print(f"wrote {dataset.K} auctions to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .pipeline import fit
    dataset = read_dataset(args.data)
    result = fit(dataset, q=args.q, epsilon=args.epsilon, tol=args.tol,
                 max_sweeps=args.max_sweeps, constrained=not args.unconstrained)
    if args.trace is not None:
        write_csv(args.trace, ("sweep", "loglik"),
                  enumerate(map(float, result.ascent.history)))
    config = _provenance(args)
    knots = union_grid((result.f_init.knots, result.cdf.knots))
    write_csv(args.out_curves, ("x", "f_init", "f_mle"),
              zip(knots, result.f_init(knots), result.cdf(knots)), _header_lines(config))
    diagnostics = {
        "lambda_hat": result.lambda_hat,
        "r_min": result.selection.r_min,
        "v_size": len(result.selection.V),
        "sweeps": result.ascent.sweeps,
        "final_objective": result.ascent.loglik,
        "converged": result.ascent.converged,
        "constrained": result.constrained,
        "config": config,
    }
    blob = json.dumps(diagnostics, indent=2, sort_keys=True)
    if args.out_json:
        with open_output(args.out_json) as fh:
            fh.write(blob + "\n")
    print(blob)
    return EXIT_OK


def cmd_bands(args) -> int:
    from .bands import _fit_kind, estimate_median_bias, hulc_band, write_band_csv
    dataset = read_dataset(args.data)
    delta = args.delta
    if args.auto_delta:
        delta = estimate_median_bias(dataset, args.kind, args.bias_reps,
                                     np.random.default_rng(args.seed),
                                     q=args.q, epsilon=args.epsilon)
    band = hulc_band(dataset, args.kind, args.alpha, delta,
                     np.random.default_rng(args.seed), q=args.q,
                     epsilon=args.epsilon)
    estimate = _fit_kind(dataset, args.kind, args.q, args.epsilon)
    config = dict(_provenance(args), delta=delta)
    write_band_csv(band, estimate, args.out, header_lines=_header_lines(config))
    print(f"B={band.batches} batches, average width {band.average_width:.4f}, "
          f"wrote {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    from .metrics import ks_distance, tv_distance
    curves = _read_curves_csv(args.curves)
    a, b = args.series_a, args.series_b
    if a not in curves or b not in curves:
        raise ValidationError(f"series {a!r}/{b!r} not found in {args.curves}; "
                              f"available: {sorted(curves)}")
    out = {"ks": ks_distance(curves[a], curves[b]),
           "tv": tv_distance(curves[a], curves[b])}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_replicate(args) -> int:
    from .metrics import replicate_table, write_report_csv
    from .pipeline import failure_reasons
    from .simulate import parse_dist
    settings = []
    for spec in args.setting:
        dist_spec, _, k = spec.rpartition(":")
        if not k.strip().isdecimal():
            raise ValidationError(f"setting {spec!r}: K must be a whole number, got {k!r}")
        settings.append((parse_dist(dist_spec), int(k)))
    reports = replicate_table(settings, replicates=args.reps,
                              base_seed=args.seed, lam=args.lam, tau=args.tau,
                              q=args.q)
    if args.out:
        write_report_csv(reports, args.out,
                         header_lines=_header_lines(_provenance(args)))
    for r in reports:
        print(f"{r.label}: ks_mle={r.mean_ks_mle:.4f} ks_init={r.mean_ks_init:.4f} "
              f"tv_mle={r.mean_tv_mle:.4f} tv_init={r.mean_tv_init:.4f} "
              f"({r.replicates} replicates, {r.failures} failed)")
        if r.reasons:
            print(f"  failed: {failure_reasons(r.reasons)}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    dataset, report = ingest_bid_csv(args.data, duration_days=args.duration,
                                     noise_seed=args.noise_seed,
                                     noise_scale=args.noise_scale)
    export_dataset(dataset, args.out,
                   header_lines=_header_lines(_provenance(args)))
    lines = report.lines()
    if args.report_out:
        with open_output(args.report_out) as fh:
            fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {dataset.K} auctions to {args.out}")
    return EXIT_OK


def export_plot_data(curves: dict, path, svg_path=None) -> None:
    """Long-format CSV (x, series, value) of every curve over their union
    knot grid, with an optional minimal static SVG line chart.  With the
    chart, a series name that XML cannot hold is refused before either
    file is written."""
    if svg_path is not None:
        # a character XML 1.0 forbids, even escaped: C0 controls bar tab,
        # LF and CR; surrogates; U+FFFE and U+FFFF
        not_xml = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
        for name in curves:
            if not_xml.search(name):
                raise ValidationError(f"column {name!r} holds a character XML 1.0 "
                                      "forbids, so the SVG legend cannot show it")
    xs = union_grid([c.knots for c in curves.values()])
    columns = [(name, curve(xs)) for name, curve in curves.items()]
    write_csv(path, ("x", "series", "value"),
              ((x, name, v) for name, vs in columns for x, v in zip(xs, vs)))
    if svg_path is not None:
        _write_svg(svg_path, xs, columns)


def _write_svg(svg_path, xs, columns) -> None:
    """Draw each (name, values) column over the ascending ``xs``."""
    from html import escape     # here: html loads an entity table no other command needs
    width, height, margin = 640, 480, 50
    x0, x1 = xs[0], xs[-1]
    span = (x1 - x0) or 1.0

    def sx(x):
        return margin + (x - x0) / span * (width - 2 * margin)

    def sy(v):
        return height - margin - min(max(v, 0.0), 1.0) * (height - 2 * margin)

    palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for idx, (name, vs) in enumerate(sorted(columns, key=lambda c: c[0])):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, vs))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - margin - 130}" y="{margin + 16 * idx}" '
                     f'fill="{color}" font-size="12">{escape(name, quote=False)}</text>')
    parts.append("</svg>")
    with open_output(svg_path) as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_plot(args) -> int:
    curves = _read_curves_csv(args.curves)
    if args.bands:
        from .bands import envelope_curves
        # --alpha is accepted but unused: a band file holds its envelopes
        _, data = read_numeric_csv(args.bands, width=3)
        curves["band_lower"], curves["band_upper"] = envelope_curves(*data.T)
    export_plot_data(curves, args.out_csv, svg_path=args.out_svg)
    print(f"wrote {args.out_csv}")
    return EXIT_OK


# -- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every command's options: flag, type and
    default.  ``required`` options are checked after ``--config`` is read,
    since the file may set them, and a missing one exits 3, not 2."""
    parser = argparse.ArgumentParser(
        prog="secondprice",
        description="Estimate a valuation distribution from second-price "
                    "auction standing-price data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config")
        options, required = [], []
        for flag, kwargs in flags:
            need = kwargs.pop("required", False)
            options.append(p.add_argument(flag, **kwargs))
            if need:
                required.append(options[-1].dest)
        p.set_defaults(func=func, subparser=p, options=options,
                       required=required)

    add("simulate", cmd_simulate, [
        ("--dist", {"required": True}),
        ("--K", {"type": int, "required": True}),
        ("--lambda", {"type": float, "default": 1.0, "dest": "lam"}),
        ("--tau", {"type": float, "default": 100.0}),
        ("--seed", {"type": int, "default": 0}),
        ("--reserve", {"type": float, "default": 0.0}),
        ("--out", {"required": True})])
    add("estimate", cmd_estimate, [
        ("--data", {"required": True}),
        ("--q", {"type": float, "default": DEFAULT_Q}),
        ("--epsilon", {"type": float}),
        ("--tol", {"type": float, "default": 1e-8}),
        ("--max-sweeps", {"type": int, "default": 10000}),
        ("--unconstrained", {"action": "store_true"}), ("--trace", {}),
        ("--out-curves", {"required": True}), ("--out-json", {})])
    add("bands", cmd_bands, [
        ("--data", {"required": True}),
        ("--kind", {"choices": ["init", "mle"], "default": "mle"}),
        ("--alpha", {"type": float, "default": 0.10}),
        ("--delta", {"type": float, "default": 0.0}),
        ("--auto-delta", {"action": "store_true"}),
        ("--bias-reps", {"type": int, "default": 100}),
        ("--seed", {"type": int, "default": 0}),
        ("--q", {"type": float, "default": DEFAULT_Q}),
        ("--epsilon", {"type": float}), ("--out", {"required": True})])
    add("metrics", cmd_metrics, [
        ("--curves", {"required": True}), ("--series-a", {"default": "f_init"}),
        ("--series-b", {"default": "f_mle"})])
    add("replicate", cmd_replicate, [
        ("--setting", {"action": "append", "required": True}),
        ("--reps", {"type": int, "default": 100}),
        ("--seed", {"type": int, "default": 0}),
        ("--lambda", {"type": float, "default": 1.0, "dest": "lam"}),
        ("--tau", {"type": float, "default": 100.0}),
        ("--q", {"type": float, "default": DEFAULT_Q}), ("--out", {})])
    add("ingest", cmd_ingest, [
        ("--data", {"required": True}),
        ("--duration", {"type": float, "required": True}),
        ("--noise-seed", {"type": int, "default": 0}),
        ("--noise-scale", {"type": float, "default": 0.01}),
        ("--out", {"required": True}), ("--report-out", {})])
    add("plot", cmd_plot, [
        ("--curves", {"required": True}), ("--bands", {}),
        ("--alpha", {"type": float, "default": 0.10}),
        ("--out-csv", {"required": True}), ("--out-svg", {})])
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv; with ``--config``, parse it again with the file's values
    as the command's defaults, so a flag beats the file and the file beats
    the declared default."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        config = load_config(args.config, args.options)
        # an append flag extends its default, so a --setting given as a
        # flag must drop the config's list rather than add to it
        args.subparser.set_defaults(**{
            dest: value for dest, value in config.items()
            if not isinstance(getattr(args, dest), list)})
        args = parser.parse_args(argv)
    missing = [d for d in args.required if getattr(args, d) in (None, [])]
    if missing:
        raise ValidationError(f"missing required parameter {missing[0]!r}")
    for dest in ("seed", "noise_seed"):     # numpy's seeding takes no negative
        if getattr(args, dest, 0) < 0:
            raise ValidationError(f"--{dest.replace('_', '-')} must be non-negative, "
                                  f"got {getattr(args, dest)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage error or --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
