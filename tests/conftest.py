"""Shared fixtures: the two flagship runs reused across test modules, and a
seeded fault in the barrier.

Both runs are full default-config runs (N = 512, semi-implicit, t_end = 6)
with every check enabled, persisted into the pytest tmp tree so the harness
and acceptance tests can inspect the on-disk layout.
"""

import re
import time

import pytest

from csflow import FlowConfig, RunSpec, comparison, execute


@pytest.fixture
def seed_barrier_fault(monkeypatch):
    """``seed(fault)`` adds fault(x) to every value comparison.f_eval returns,
    for the rest of the test: a fault the identity checks must catch."""

    def seed(fault):
        f = comparison.f_eval
        monkeypatch.setattr(comparison, "f_eval", lambda x, t: f(x, t) + fault(x))

    return seed


def _timed_execute(spec):
    start = time.perf_counter()
    result = execute(spec)
    result.wall_seconds = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def flagship_ellipse(tmp_path_factory):
    spec = RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(),
        outdir=str(tmp_path_factory.mktemp("flagship-ellipse")),
    )
    return _timed_execute(spec)


@pytest.fixture(scope="session")
def flagship_dumbbell(tmp_path_factory):
    spec = RunSpec(
        generator="dumbbell",
        params={"neck": 0.2},
        flow=FlowConfig(),
        outdir=str(tmp_path_factory.mktemp("flagship-dumbbell")),
    )
    return _timed_execute(spec)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed after the run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _CRITERION.search(getattr(rep, "nodeid", "") or "")
            if m is not None and getattr(rep, "when", "call") == "call":
                rows[int(m.group(1))] = (m.group(2), outcome == "passed")
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(rows):
        label, ok = rows[num]
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d} [{word}] {label.replace('_', ' ')}"
        )
