"""Dense runs load no scipy module; sparse storage loads scipy.sparse alone;
the start path loads nothing beyond the standard library, numpy and the
package.

Each case runs in a fresh interpreter with src/ on PYTHONPATH and reports
the modules it left in sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signed_balance.graph import write_edge_list
from signed_balance.graphon import builtin_spec, sample_network

ROOT = Path(__file__).resolve().parent.parent


def _modules(code):
    """The modules loaded after `code` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_modules(code):
    """The scipy modules loaded after `code` runs in a fresh interpreter."""
    return [m for m in _modules(code) if m.startswith("scipy")]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    write_edge_list(sample_network(builtin_spec("const-cos"), 40, seed=2), root / "net.edges")
    (root / "spec.json").write_text(json.dumps({"name": "const-cos", "params": {}, "n": 30}))
    (root / "mc.json").write_text(json.dumps({
        "study": "coverage", "graphon": {"name": "const-cos"}, "n_grid": [12], "replications": 3,
        "methods": ["normal", "edgeworth"], "targets": ["balanced"], "truth_budget": 2000,
        "seed": 8}))
    return root


def _cli(*args):
    return f"from signed_balance.cli import main\nassert main({list(map(str, args))!r}) == 0"


DENSE_CASES = {
    "import": lambda d: "import signed_balance",
    "library": lambda d: (
        "import signed_balance as sb\n"
        "adj = sb.sample_network(sb.builtin_spec('const-cos'), 40, seed=1)\n"
        "sb.confidence_interval(adj)\nsb.balance_test(adj, 0.5)"),
    "ci-edgeworth": lambda d: _cli("ci", "--in", d / "net.edges"),
    # the file read in chunks of a line or two
    "ci-chunked": lambda d: "import signed_balance.graph as g\ng._CHUNK_BYTES = 16\n" + _cli(
        "ci", "--in", d / "net.edges"),
    "ci-bootstrap": lambda d: _cli("ci", "--in", d / "net.edges", "--method", "bootstrap",
                                   "--replicates", 100, "--draws-out", d / "draws.csv"),
    "simulate": lambda d: _cli("simulate", "--spec", d / "spec.json", "--out", d / "sim.edges"),
    "mc-coverage": lambda d: _cli("mc", "--config", d / "mc.json", "--out", d / "mc"),
}


@pytest.mark.parametrize("case", DENSE_CASES)
def test_dense_run_loads_no_scipy(case, files):
    assert _scipy_modules(DENSE_CASES[case](files)) == []


def test_sparse_run_loads_scipy_sparse_only(files):
    code = "import signed_balance.graph as g\ng.DENSE_THRESHOLD = 10\n" + _cli(
        "ci", "--in", files / "net.edges")
    loaded = _scipy_modules(code)
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith("scipy.special")]


START_CASES = {
    "version": lambda d: _cli("version"),
    "ci-dense": DENSE_CASES["ci-edgeworth"],
}


@pytest.mark.parametrize("case", START_CASES)
def test_start_path_loads_stdlib_numpy_and_the_package_only(case, files):
    # every module loaded beyond a bare interpreter's (which, like the case,
    # then imports sys and json) is standard library, numpy or signed_balance
    extra = set(_modules(START_CASES[case](files))) - set(_modules(""))
    allowed = {*sys.stdlib_module_names, "numpy", "signed_balance"}
    assert "signed_balance.cli" in extra
    assert sorted(m for m in extra if m.split(".")[0] not in allowed) == []
