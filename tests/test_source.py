"""Static checks on the package source."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secondprice

SRC = Path(secondprice.__file__).parent


def _src_on_path() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


def test_no_assert_invariants():
    # `python -O` strips assert statements, so invariants are enforced by
    # raising the package's own exceptions instead
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_scipy_stats_or_optimize_import():
    # each costs a fresh CLI process a large share of its start-up
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"])
                   for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_cli_import_and_a_fit_leave_scipy_stats_and_optimize_unloaded():
    code = (
        "import sys\n"
        "import secondprice.cli\n"
        "from secondprice import SimConfig, ValuationDistribution, fit, run_study\n"
        "ds = run_study(SimConfig(lam=1.0, tau=30.0, K=60, seed=3),\n"
        "               ValuationDistribution.gamma(10.0, 2.0))\n"
        "fit(ds)\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize')\n"
        "             if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_on_path(),
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_ingest_and_metrics_commands_load_no_scipy(tmp_path):
    # neither command computes anything from scipy, and importing it was
    # most of each process's start-up
    log, curves = tmp_path / "log.csv", tmp_path / "curves.csv"
    log.write_text("auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
                   "1,5.0,1.0,alice,0,0.5,6.0\n1,6.0,2.0,bob,0,0.5,6.0\n")
    curves.write_text("x,f_init,f_mle\n0,0,0\n1,1,0.5\n")
    commands = [["ingest", "--data", str(log), "--duration", "7",
                 "--out", str(tmp_path / "ds.csv")],
                ["metrics", "--curves", str(curves)]]
    code = (
        "import sys\n"
        "from secondprice.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_on_path(),
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[0, 0] []"


def _fresh(code: str) -> str:
    """Last line that ``code`` prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], env=_src_on_path(),
                         check=True, capture_output=True, text=True, timeout=120)
    return out.stdout.splitlines()[-1]


_SMALL_DATASET = (
    "from secondprice import SimConfig, ValuationDistribution, run_study\n"
    "ds = run_study(SimConfig(lam=1.0, tau=30.0, K=60, seed=3),\n"
    "               ValuationDistribution.uniform(1.0, 8.0))\n")


def test_estimate_and_bands_skip_scipy_linalg_and_special_imports(tmp_path):
    # a fit needs LAPACK's dgtsv and E1, not the packages around them,
    # whose imports were about half of each of these processes
    data = tmp_path / "ds.csv"
    commands = [["estimate", "--data", str(data), "--out-curves", str(tmp_path / "c.csv")],
                ["bands", "--data", str(data), "--auto-delta", "--out", str(tmp_path / "b.csv")]]
    code = (
        "import sys\n"
        "from secondprice.cli import main\n"
        "from secondprice.ingest import export_dataset\n"
        + _SMALL_DATASET +
        f"export_dataset(ds, {str(data)!r})\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, [m for m in ('scipy.linalg', 'scipy.special', 'scipy._lib._array_api')\n"
        "              if m in sys.modules])\n")
    assert _fresh(code) == "[0, 0] []"


# the package's public names: its ten modules and what it re-exports from them
PUBLIC = [
    "AscentResult", "AuctionRecord", "BidRow", "CleaningReport", "ConfidenceBand",
    "FitResult", "LikelihoodContext", "LowReserveSelection", "MonotoneCurve",
    "NumericalError", "ObservedDataset", "PooledData", "SecondPriceError", "SimConfig",
    "SpliceAnchors", "StudyReport", "ThetaVector", "TieError", "TrainTestReport",
    "ValidationError", "ValuationDistribution", "arrival", "bands", "break_ties",
    "cdf_to_theta", "clip_theta0", "combine_initial", "compute_splice_anchors",
    "conditional_mean_jumps", "coordinate_ascent", "default_epsilon", "envelope_curves",
    "errors", "estimate_f_fp", "estimate_lambda", "estimate_median_bias", "export_bid_log",
    "export_dataset", "fit", "fit_initial", "g_eval", "g_inverse", "g_lambda_cdf",
    "has_ties", "hulc_band", "hulc_batches", "ingest", "ingest_bid_csv", "initial",
    "initial_theta", "ks_distance", "log_lik", "metrics", "mle", "model", "pipeline",
    "pool", "projected_newton", "read_dataset", "reconstruct_cdf", "replay_bids",
    "replicate_table", "run_auction", "run_study", "select_low_reserve", "simulate",
    "train_test_eval", "tv_distance", "write_band_csv", "write_report_csv"]
MODULES = ["arrival", "bands", "errors", "ingest", "initial", "metrics", "mle", "model",
           "pipeline", "simulate"]


class TestPackageSurface:
    def test_all_names_the_public_names(self):
        assert secondprice.__all__ == PUBLIC
        assert len(PUBLIC) == 70

    def test_each_name_is_its_defining_modules_object(self):
        assert secondprice.fit is secondprice.pipeline.fit
        for name in PUBLIC:
            obj = getattr(secondprice, name)
            if name in MODULES:
                assert obj is importlib.import_module(f"secondprice.{name}")
            else:
                assert obj.__module__.startswith("secondprice."), name
                assert obj is getattr(importlib.import_module(obj.__module__), name)

    def test_star_import_and_dir_give_every_name(self):
        namespace = {}
        exec("from secondprice import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert namespace["hulc_band"] is secondprice.bands.hulc_band
        assert set(PUBLIC) <= set(dir(secondprice))

    def test_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            secondprice.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from secondprice import no_such_name", {})

    def test_a_set_name_is_what_the_package_returns(self, monkeypatch):
        # a tracer wraps secondprice.fit and secondprice.read_dataset this way
        def wrapped(*args, **kwargs):
            return secondprice.pipeline.fit(*args, **kwargs)
        monkeypatch.setattr(secondprice, "fit", wrapped)
        assert secondprice.fit is wrapped
        assert secondprice.pipeline.fit is not wrapped
        code = ("import secondprice\n"
                "secondprice.read_dataset = len\n"
                "print(secondprice.read_dataset is len,\n"
                "      secondprice.ingest.read_dataset is not len)\n")
        assert _fresh(code) == "True True"


# modules each command must leave unloaded: a fresh process pays for
# every module it imports, and these compute nothing the command prints
_UNLOADED = {
    "ingest": ("secondprice.pipeline", "secondprice.mle", "secondprice.arrival",
               "secondprice.bands", "secondprice.metrics"),
    # no bid noise and no tie: nothing is drawn, so no generator is seeded
    "ingest --noise-scale 0": ("secondprice.pipeline", "secondprice.mle",
                               "secondprice.arrival", "secondprice.bands",
                               "secondprice.metrics", "numpy.random"),
    "estimate": ("secondprice.bands", "secondprice.metrics", "secondprice.simulate",
                 "numpy.random", "numpy.ma"),
    "metrics": ("secondprice.pipeline", "secondprice.mle", "secondprice.arrival",
                "secondprice.bands", "secondprice.simulate", "numpy.random", "numpy.ma"),
}


@pytest.mark.parametrize("command", ["import", *_UNLOADED])
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    if command == "import":
        code = ("import sys\n"
                "import secondprice\n"
                "print(sorted(m for m in sys.modules if m.startswith('secondprice.')))\n")
        assert _fresh(code) == "[]"
        return
    log, data, curves = tmp_path / "log.csv", tmp_path / "ds.csv", tmp_path / "c.csv"
    log.write_text("auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
                   "1,5.0,1.0,alice,0,0.5,6.0\n1,6.0,2.0,bob,0,0.5,6.0\n")
    secondprice.export_dataset(secondprice.run_study(
        secondprice.SimConfig(lam=1.0, tau=30.0, K=60, seed=3),
        secondprice.ValuationDistribution.uniform(1.0, 8.0)), data)
    curves.write_text("x,f_init,f_mle\n0,0,0\n1,1,0.5\n")
    ingest = ["ingest", "--data", str(log), "--duration", "7", "--out", str(tmp_path / "out.csv")]
    argv = {"ingest": ingest,
            "ingest --noise-scale 0": [*ingest, "--noise-scale", "0"],
            "estimate": ["estimate", "--data", str(data), "--out-curves", str(curves)],
            "metrics": ["metrics", "--curves", str(curves)]}[command]
    code = ("import sys\n"
            "from secondprice.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, [m for m in {_UNLOADED[command]!r} if m in sys.modules])\n")
    assert _fresh(code) == "0 []"


@pytest.mark.parametrize("error", ["ImportError", "OSError"])
def test_dgtsv_fallback_fits_bit_for_bit(error):
    # when scipy's LAPACK extension cannot be loaded from its file, the
    # solver takes dgtsv from scipy.linalg.lapack and fits the same
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from secondprice import fit, mle\n"
        + _SMALL_DATASET +
        "def run():\n"
        "    r = fit(ds)\n"
        "    return [np.asarray(a).tobytes() for a in (r.lambda_hat, r.ascent.theta.theta,\n"
        "                                             r.ascent.history, r.cdf.values)]\n"
        "direct = run()\n"
        "loaded = 'scipy.linalg.lapack' in sys.modules\n"
        "def fail():\n"
        f"    raise {error}('no extension')\n"
        "mle._flapack = fail\n"
        "mle._dgtsv.cache_clear()\n"
        "same = run() == direct\n"
        "print(loaded, 'scipy.linalg.lapack' in sys.modules, same)\n")
    assert _fresh(code) == "False True True"


def test_scipy_linalg_imports_after_a_fit_with_the_same_dgtsv():
    code = (
        "import numpy as np\n"
        "from secondprice import fit, mle\n"
        + _SMALL_DATASET +
        "fit(ds)\n"
        "import scipy.linalg\n"
        "rng = np.random.default_rng(0)\n"
        "same = []\n"
        "for n in (2, 3, 17, 500):\n"
        "    dl, d, du, b = (rng.standard_normal(k) for k in (n - 1, n, n - 1, n))\n"
        "    d += 4.0\n"
        "    ours = mle._dgtsv()(dl, d, du, b)\n"
        "    theirs = scipy.linalg.lapack.dgtsv(dl, d, du, b)\n"
        "    same.append(all(np.array_equal(a, c) for a, c in zip(ours, theirs)))\n"
        "print(same)\n")
    assert _fresh(code) == "[True, True, True, True]"


def test_bid_log_analysis_script_starts():
    # the script imports the library at start-up, so a renamed or removed
    # name fails here before any data is needed
    script = SRC.parents[1] / "scripts" / "run_bid_log_analysis.py"
    out = subprocess.run([sys.executable, str(script), "--help"],
                         env=_src_on_path(), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


def test_dataset_layout_stays_in_model_and_ingest():
    # only the model (which turns records into arrays and back) decodes
    # auction records; everything else reads the dataset's arrays
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path.parent == SRC and path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("auctions", "jumps"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_csv_dialect_stays_in_ingest():
    # ingest.py writes and splits every CSV file the package makes, so
    # there is one dialect; the other modules call write_csv and read_numeric_csv
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path.parent == SRC and path.name == "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "csv" in (n.split(".")[0] for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_valuation_families_stay_in_simulate():
    # simulate.py names the valuation families and parses their specs, so
    # no other module spells a family out
    scripts = SRC.parents[1] / "scripts"
    families = {"uniform", "piecewise", "piecewise_uniform", "pareto", "gamma", "beta"}
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path == SRC / "simulate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and node.value in families:
                found.append(f"{path.name}:{node.lineno} {node.value}")
    assert not found, found


def test_tie_check_stays_in_model():
    # break_ties decides whether a dataset needs reserve jitter, so no
    # other module asks has_ties first
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path == SRC / "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "has_ties" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_audit_and_replay_stay_in_their_modules():
    # a refused dataset names its broken auctions, so no reader audits
    # the auctions again or replays a stream alone to find them
    scripts = SRC.parents[1] / "scripts"
    home = {"audit_auctions": SRC / "model.py", "replay_bids": SRC / "simulate.py"}
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in home and path != home[name]:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_files_are_opened_in_ingest():
    # open_input decodes every input the same way (UTF-8, one leading
    # byte-order mark skipped), so no other module opens a file itself
    scripts = SRC.parents[1] / "scripts"
    calls = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path == SRC / "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in calls:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_curves_evaluate_in_model():
    # MonotoneCurve.__call__ in model.py is the one evaluation of a curve;
    # every other module builds a curve and calls it
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path == SRC / "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "interp"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_unused_imports():
    # every name a module imports is read in it; __init__.py imports
    # only to re-export
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path == SRC / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert not found, found


def test_private_names_are_used():
    # a module-level _name no code of its own module reads is left over
    # from a change that dropped its last use
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in defined
                      if name.startswith("_") and not name.startswith("__")
                      and name not in read]
    assert not found, found
