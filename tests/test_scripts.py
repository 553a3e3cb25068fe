"""The scripts under scripts/ run end to end at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("flagship_run", ["--n", "64", "--t-end", "0.1", "--outdir-root", "{tmp}"]),
        ("mesh_refinement", ["--sizes", "64", "--t-end", "0.1"]),
        ("shrinking_circle", ["--n", "64", "--tau-end", "0.1", "--dts", "1e-3,5e-4"]),
    ],
)
def test_script_main_exits_zero(name, argv, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
