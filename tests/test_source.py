"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_bid_log_analysis_script_starts():
    # the script imports the library at start-up, so a renamed or removed
    # name fails here before any data is needed
    script = SRC.parents[1] / "scripts" / "run_bid_log_analysis.py"
    out = subprocess.run([sys.executable, str(script), "--help"],
                         env=_src_on_path(), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


def test_dataset_layout_stays_in_model_and_ingest():
    # only the model (which lays the records out as arrays) and ingest
    # (which reads and writes them) decode auction records; everything
    # else reads the dataset's arrays
    scripts = SRC.parents[1] / "scripts"
    found = []
    for path in sorted([*SRC.glob("*.py"), *scripts.glob("*.py")]):
        if path.parent == SRC and path.name in ("model.py", "ingest.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("auctions", "jumps"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
