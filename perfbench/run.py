"""Benchmark of ``secondprice`` measured from outside the program.

    python3 perfbench/run.py --workload paper_fit --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is taken from
``src`` without installing it, and the command line is run as
``python -m secondprice.cli``.  Workloads:

* ``paper_fit``    - ``read_dataset`` of one canonical file, then ``fit``,
                     in the paper's setting (lambda=1, tau=100, K=1000).
* ``cli_session``  - a seller's session of four CLI processes: ingest of
                     a 7-day bid log, estimate, bands --auto-delta, metrics.

Each run does whole ops until it has done the workload's minimum count
and ``--seconds`` have passed, checks every op, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced run.  See README.md beside this file.
"""

import os
import sys

# pinned before numpy is imported, here and in every child process
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
from spans import UNITS, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_ENV = dict(os.environ, **THREADS,
                 PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

SETUP_PROBES = 2      # fresh processes whose set-up time gives setup_s
IMPORT_PROBES = 3     # fresh processes whose import time gives cli.import_s
REL_TOL_LAMBDA = 1e-2
OBJECTIVE_SLACK = 1e-9
CHILD_TIMEOUT_S = 150  # a child still running then is killed, so a run ends in time

PAPER = dict(K=1000, lam=1.0, tau=100.0)
PAPER_WARMUP = dict(K=100, lam=0.03, tau=100.0)
CLI = dict(K=1000, lam_per_day=0.5, days=7.0)
CLI_WARMUP = dict(K=50, lam_per_day=0.5, days=7.0)


def seed_of(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sp():
    """The program under test, imported on first use."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import secondprice
    return secondprice


class OpFailed(Exception):
    """An op whose output fails a correctness check."""


def require(problems: list) -> None:
    if problems:
        raise OpFailed("; ".join(problems))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- library workload -----------------------------------------------------

def check_fit(result, auctions, low_reserve, tau, ks_tol=None) -> list:
    """Checks of one library fit; returns the problems found."""
    bad = []
    if sorted(result.selection.V) != sorted(low_reserve):
        bad.append(f"low-reserve set has {len(result.selection.V)} auctions, "
                   f"expected {len(low_reserve)}")
    ref = oracles.lambda_ref(auctions, low_reserve, tau)
    if not close(result.lambda_hat, ref, REL_TOL_LAMBDA):
        bad.append(f"lambda_hat {result.lambda_hat} vs series inversion {ref}")
    prices = np.sort(np.concatenate([[a.reserve] for a in auctions]
                                    + [a.prices for a in auctions]))
    bad += oracles.check_curve(result.cdf(prices))
    l_fit = oracles.objective(auctions, result.lambda_hat, result.cdf)
    l_init = oracles.objective(auctions, result.lambda_hat, result.f_init)
    if not l_fit >= l_init - OBJECTIVE_SLACK * (1.0 + abs(l_fit)):
        bad.append(f"objective of the fit {l_fit} is below the initial curve's {l_init}")
    if ks_tol is not None:
        ks = oracles.ks_to_truth(result.cdf, prices)
        if not ks <= ks_tol:
            bad.append(f"KS to the true CDF {ks:.4f} exceeds {ks_tol:.4f}")
    return bad


class PaperFit:
    """read_dataset + fit in the paper's setting; inputs written at setup."""

    min_ops = 1

    def setup(self, work: Path, seed: int):
        sp()
        self.auctions = inputs.paper_auctions(
            np.random.default_rng(seed_of(seed, 1)), PAPER["K"], PAPER["lam"], PAPER["tau"])
        self.path = work / "paper.csv"
        inputs.write_dataset(self.path, self.auctions)
        warm = inputs.paper_auctions(np.random.default_rng(seed_of(seed, 2)),
                                     PAPER_WARMUP["K"], PAPER_WARMUP["lam"], PAPER_WARMUP["tau"])
        inputs.write_dataset(work / "warmup.csv", warm)
        self._op(work / "warmup.csv", warm, PAPER_WARMUP["tau"], None)

    def _op(self, path, auctions, tau, ks_tol):
        lib = sp()
        t0 = time.perf_counter()
        dataset = lib.read_dataset(path)
        t1 = time.perf_counter()
        result = lib.fit(dataset)
        t2 = time.perf_counter()
        require(check_fit(result, auctions, range(len(auctions)), tau, ks_tol))
        return {"op": t2 - t0, "fit": t2 - t1}

    def op(self, inprocess=True):  # the library op always runs in this process
        return self._op(self.path, self.auctions, PAPER["tau"], oracles.KS_TOL)


# -- command-line workload ------------------------------------------------

def cli_child(argv, work: Path):
    """Run one CLI command in a fresh process.

    Returns (exit code, stdout, seconds, peak RSS in MB); the peak comes
    from wait4 on that child alone."""
    t0 = time.perf_counter()
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        proc = subprocess.Popen([sys.executable, "-m", "secondprice.cli", *argv], cwd=ROOT,
                                env=CHILD_ENV, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text, errors = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        print(f"# {argv[0]} exited {proc.returncode}: {errors[-800:]}")
    return proc.returncode, text, seconds, usage.ru_maxrss / 1024.0


def cli_inprocess(argv):
    """Run one CLI command through ``secondprice.cli.main`` in this process."""
    sp()
    import secondprice.cli as cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue(), time.perf_counter() - t0, 0.0


def read_canonical(path) -> list:
    """The benchmark's own reader of the canonical dataset file."""
    heads, jumps = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("kind,"):
                continue
            kind, k, a, b, sold = line.rstrip("\n").split(",")
            if kind == "auction":
                heads.append((float(a), float(b), sold == "1"))
                jumps.append([])
            else:
                jumps[int(k)].append((float(a), float(b)))
    return [inputs.Auction(r, d, np.array([x for x, _ in j]), np.array([t for _, t in j]), s)
            for (r, d, s), j in zip(heads, jumps)]


def compare_datasets(got, want) -> list:
    if len(got) != len(want):
        return [f"ingested {len(got)} auctions, expected {len(want)}"]
    for k, (g, w) in enumerate(zip(got, want)):
        if (g.reserve != w.reserve or g.duration != w.duration or g.sold != w.sold
                or not np.array_equal(g.prices, w.prices)
                or not np.allclose(g.waits, w.waits, rtol=0.0, atol=1e-9)):
            return [f"ingested auction {k} differs from the replay of the last bids"]
    return []


def read_curves(path):
    rows = [line.strip().split(",") for line in Path(path).read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    cols = {name: np.array([float(r[j]) for r in rows[1:]]) for j, name in enumerate(rows[0])}
    return cols["x"], cols["f_init"], cols["f_mle"]


def read_band(path):
    header, rows = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].strip().partition("=")
            header[key] = val
        elif line.strip() and not line.startswith("x,"):
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


class CliSession:
    """ingest -> estimate -> bands --auto-delta -> metrics, one process each."""

    min_ops = 4

    def setup(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.log = inputs.bid_log(np.random.default_rng(seed_of(seed, 5)), **CLI)
        inputs.write_bid_log(work / "bidlog.csv", self.log)
        warm = inputs.bid_log(np.random.default_rng(seed_of(seed, 6)), **CLI_WARMUP)
        inputs.write_bid_log(work / "warmup_bidlog.csv", warm)
        code, _, _, _ = cli_child(self._ingest_argv("warmup_bidlog.csv", "warmup_dataset.csv"),
                                  work)
        require([] if code == 0 else [f"warm-up ingest exited {code}"])
        require(compare_datasets(read_canonical(work / "warmup_dataset.csv"), warm.expected))

    def _ingest_argv(self, log, out):
        return ["ingest", "--data", str(self.work / log), "--duration", repr(self.log.duration),
                "--noise-seed", str(self.seed), "--noise-scale", "0",
                "--out", str(self.work / out)]

    def commands(self):
        w = self.work
        return [
            ("ingest", self._ingest_argv("bidlog.csv", "dataset.csv")),
            ("estimate", ["estimate", "--data", str(w / "dataset.csv"),
                          "--out-curves", str(w / "curves.csv"), "--out-json", str(w / "est.json")]),
            ("bands", ["bands", "--data", str(w / "dataset.csv"), "--auto-delta",
                       "--seed", str(self.seed), "--out", str(w / "band.csv")]),
            ("metrics", ["metrics", "--curves", str(w / "curves.csv")]),
        ]

    def op(self, inprocess=False):
        """One session, each command in a fresh process or, for the traced
        run, through ``secondprice.cli.main`` in this process."""
        for name in ("dataset.csv", "curves.csv", "est.json", "band.csv"):
            (self.work / name).unlink(missing_ok=True)
        seconds, stdout, rss = {}, {}, 0.0
        for name, argv in self.commands():
            if inprocess:
                code, out, secs, mb = cli_inprocess(argv)
            else:
                code, out, secs, mb = cli_child(argv, self.work)
            require([] if code == 0 else [f"{name} exited {code}"])
            seconds[name], stdout[name], rss = secs, out, max(rss, mb)
        require(self.check(stdout))
        return {"op": sum(seconds.values()), "fit": seconds["estimate"], "rss_mb": rss,
                "commands": seconds}

    def check(self, stdout) -> list:
        w, log = self.work, self.log
        bad = compare_datasets(read_canonical(w / "dataset.csv"), log.expected)
        est = json.loads((w / "est.json").read_text())
        if est["v_size"] != len(log.low_reserve):
            bad.append(f"low-reserve set has {est['v_size']} auctions, "
                       f"expected {len(log.low_reserve)}")
        ref = oracles.lambda_ref(log.expected, log.low_reserve, log.duration)
        if not close(est["lambda_hat"], ref, REL_TOL_LAMBDA):
            bad.append(f"lambda_hat {est['lambda_hat']} vs series inversion {ref}")
        x, f_init, f_mle = read_curves(w / "curves.csv")
        bad += oracles.check_curve(f_mle)
        lam = est["lambda_hat"]
        l_fit = oracles.objective(log.expected, lam, lambda z: np.interp(z, x, f_mle))
        l_init = oracles.objective(log.expected, lam, lambda z: np.interp(z, x, f_init))
        if not l_fit >= l_init - OBJECTIVE_SLACK * (1.0 + abs(l_fit)):
            bad.append(f"objective of the estimate {l_fit} is below the initial curve's {l_init}")
        header, band = read_band(w / "band.csv")
        lower, upper = band[:, 1], band[:, 2]
        if np.any(lower > upper + 1e-12):
            bad.append("band lower envelope exceeds the upper one")
        if np.any(np.diff(lower) < -1e-12) or np.any(np.diff(upper) < -1e-12):
            bad.append("band envelope decreases")
        B = oracles.batch_count(float(header["alpha"]), float(header["delta"]))
        if f"B={B} batches" not in stdout["bands"]:
            bad.append(f"bands did not report B={B}: {stdout['bands'].strip()}")
        scores = json.loads(stdout["metrics"])
        ks = float(np.max(np.abs(np.clip(f_init, 0, 1) - np.clip(f_mle, 0, 1))))
        if abs(scores["ks"] - ks) > 1e-9:
            bad.append(f"metrics KS {scores['ks']} vs max |f_init - f_mle| {ks}")
        if not scores["ks"] - 1e-9 <= scores["tv"] <= 1.0 + 1e-12:
            bad.append(f"metrics TV {scores['tv']} outside [KS, 1]")
        return bad


WORKLOADS = {"paper_fit": PaperFit, "cli_session": CliSession}


# -- runs -----------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = ("ingest", "estimate", "bands", "metrics")


def run_ops(workload, seconds, min_ops, count=None, inprocess=False, tracer=None,
            label="untraced"):
    """Whole ops until ``count`` are done or, without a count, until
    ``min_ops`` are done and ``seconds`` have passed."""
    done, failed = [], 0
    start = time.perf_counter()
    while True:
        n = len(done) + failed
        if count is not None and n >= count:
            break
        if count is None and n >= min_ops and time.perf_counter() - start >= seconds:
            break
        sid = tracer.begin("op") if tracer else None
        try:
            done.append(workload.op(inprocess=inprocess))
            print(f"# op {n} ({label}): op {done[-1]['op']:.4f} s, fit {done[-1]['fit']:.4f} s")
        except Exception as exc:  # every failure of an op is counted and reported
            failed += 1
            print(f"# op {n} failed: {type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.end(sid)
    return done, failed


def child_seconds(argv) -> float:
    """Wall time of a fresh Python process, from start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=CHILD_ENV,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise OpFailed(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.decode()[-800:]}")
    return seconds


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def environment() -> dict:
    try:
        import numba  # noqa: F401
        backend = "numba"
    except ImportError:
        backend = "interpreted"
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "ascent_backend": backend}


def end_to_end(args, workload, done) -> dict:
    setup = [child_seconds([__file__, "--workload", args.workload, "--seed", str(args.seed),
                            "--setup-probe"]) for _ in range(SETUP_PROBES)]
    if "rss_mb" in done[0]:
        rss = max(r["rss_mb"] for r in done)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": statistics.median(setup), "op_s": median_of(done, "op"),
            "fit_s": median_of(done, "fit"), "peak_rss_mb": rss}


def per_layer(args, workload, done):
    """The traced run: per-layer metrics plus the ops it attempted."""
    cli = isinstance(workload, CliSession)
    n = len(done)
    if cli:  # the traced ops run in-process, so the baseline must too
        base, base_failed = run_ops(workload, 0, 1, count=n, inprocess=True,
                                    label="untraced, in-process")
    else:
        base, base_failed = done, 0
    tracer = Tracer()
    missing = tracer.install()
    if missing:
        print(f"# not traced (absent from the program): {', '.join(missing)}")
    try:
        traced, traced_failed = run_ops(workload, 0, 1, count=n, inprocess=True,
                                        tracer=tracer, label="traced")
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
    if not traced or not base:
        raise OpFailed("no op of the traced run succeeded")
    metrics = layer_metrics(tracer, len(traced))
    for name in CLI_COMMANDS:
        metrics[f"cli.{name}_s"] = (statistics.median(r["commands"][name] for r in done)
                                    if cli else 0.0)
    metrics["cli.import_s"] = statistics.median(
        child_seconds(["-c", "import secondprice.cli"]) for _ in range(IMPORT_PROBES))
    overhead = median_of(traced, "op") - median_of(base, "op")
    print(f"# tracing overhead: {overhead:+.4f} s per op "
          f"(traced {median_of(traced, 'op'):.4f} s, untraced {median_of(base, 'op'):.4f} s)")
    extra = len(base) + base_failed if cli else 0
    return metrics, extra + len(traced) + traced_failed, base_failed + traced_failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "secondprice" / "__init__.py").is_file():
        print(f"no secondprice package under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(work, args.seed)
        if args.setup_probe:
            return 0
        # the traced run needs no repeats for steadiness: one op is enough
        done, failed = run_ops(workload, args.seconds, 1 if args.trace else workload.min_ops)
        if not done:
            print("# every op failed", file=sys.stderr)
            return 1
        attempted = len(done) + failed
        if args.trace:
            metrics, more, more_failed = per_layer(args, workload, done)
            attempted, failed = attempted + more, failed + more_failed
        else:
            metrics = end_to_end(args, workload, done)
    except OpFailed as exc:
        print(f"# run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# env {json.dumps(environment())}")
    units = UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
