"""What importing csflow and running its commands loads from SciPy.

Each command is a fresh process, so a module-level SciPy import costs every
invocation its start-up time whether or not the command needs it. Only the
implicit solve (scipy.linalg) and the analytic ellipse of the identity suite
and the ellipse generator (scipy.special, scipy.optimize) use SciPy. The test
modules import SciPy themselves, so each check runs in its own interpreter.

The benchmark's tracer and workloads name csflow functions from outside the
package; the last tests load them as the benchmark does, so a function
deleted from csflow fails here rather than in the benchmark.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import csflow

SRC = str(Path(csflow.__file__).resolve().parent.parent)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# prints the sorted names of the loaded scipy modules after the statements
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules(body: str, *args: str, cwd=None) -> set[str]:
    """The scipy modules a fresh interpreter holds after running ``body``."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), SRC, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


_MAIN = """
import contextlib, io
from csflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[2:])
if status != 0:
    sys.exit(f"csflow exited with status {status}")
"""


def test_import_loads_no_scipy():
    assert scipy_modules("import csflow.cli") == set()


def test_profile_loads_no_scipy(tmp_path):
    body = (
        "from csflow.geometry import save_curve\n"
        "from csflow.harness import gen_fourier\n"
        "save_curve(gen_fourier(1, 6, 64), 'curve.json')\n" + _MAIN
    )
    loaded = scipy_modules(body, "profile", "curve.json", "--out", "t.csv", cwd=tmp_path)
    assert loaded == set()
    assert (tmp_path / "t.csv").stat().st_size > 0


def test_run_loads_scipy_linalg_only():
    argv = ("run", "--n", "64", "--t-end", "0.01", "--no-persist")
    loaded = scipy_modules(_MAIN, *argv)
    assert "scipy.linalg" in loaded
    for name in ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse"):
        assert name not in loaded


# -- the benchmark's view of the package ----------------------------------------


def _load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py as a module of its own, without writing bytecode
    beside it or registering it under its name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    targets = _load_perfbench("spans", monkeypatch).TARGETS
    assert targets
    for module, name, _, _ in targets:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_benchmark_workloads_import(monkeypatch):
    workloads = _load_perfbench("workloads", monkeypatch)
    names = {"flagship-dumbbell", "flow-n1024", "profile-table"}
    assert set(workloads.WORKLOADS) == names
