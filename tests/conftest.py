"""Shared fixtures: the two flagship runs reused across test modules, a
seeded fault in the barrier, a coarse grid for the identity suite, the
forked workers forced on or refused, and faults seeded in the ratio
table's blocks and in a worker.

Both runs are full default-config runs (N = 512, semi-implicit, t_end = 6)
with every check enabled, persisted into the pytest tmp tree so the harness
and acceptance tests can inspect the on-disk layout.
"""

import os
import re
import signal
import time

import numpy as np
import pytest

from csflow import FlowConfig, RunSpec, comparison, diagnostics, execute


@pytest.fixture
def seed_barrier_fault(monkeypatch):
    """``seed(fault)`` adds fault(x) to every value comparison.f_eval returns,
    for the rest of the test: a fault the identity checks must catch."""

    def seed(fault):
        f = comparison.f_eval
        monkeypatch.setattr(comparison, "f_eval", lambda x, t: f(x, t) + fault(x))

    return seed


@pytest.fixture
def coarse_identity_grid(monkeypatch):
    """The operator sweeps on an 80 x 21 grid in place of 400 x 101: the
    same checks at a fifth of the points each way, for tests that do not
    pin the suite's output."""
    monkeypatch.setattr(comparison, "_GRID_X", 80)
    monkeypatch.setattr(comparison, "_GRID_T", 21)


@pytest.fixture
def pool_starts(monkeypatch):
    """Send any input with two or more tasks through the forked workers,
    with two workers even on one core; the list records each start's
    worker count."""
    real = comparison._fork_map
    starts = []

    def counting(fn, tasks, workers):
        starts.append(workers)
        return real(fn, tasks, workers)

    monkeypatch.setattr(diagnostics, "POOL_MIN_PAIRS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for mod in (comparison, diagnostics):
        monkeypatch.setattr(mod, "_fork_map", counting)
    return starts


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("forked workers were started")

    for mod in (comparison, diagnostics):
        monkeypatch.setattr(mod, "_fork_map", refuse)


@pytest.fixture
def die_in_worker():
    """A fault that ends a forked worker with exit code 3, as a crash would;
    run in the calling process, it fails the test instead."""
    parent = os.getpid()

    def die():
        if os.getpid() == parent:
            pytest.fail("the fault ran in the calling process")
        os._exit(3)

    return die


@pytest.fixture
def fault_on_blocks(monkeypatch):
    """``seed(frame, {b: fault})`` makes the ratio table's solve
    (comparison._a_values) call fault() on row block b of frame's ratio
    table, found by its chords."""

    def seed(frame, faults):
        rows = comparison._block_rows(frame.n)
        chords = {b: comparison._pair_block(frame, *rows[b])[2] for b in faults}
        solve = comparison._a_values

        def faulty(d, u):
            for b, d_b in chords.items():
                if d.shape == d_b.shape and np.array_equal(d, d_b):
                    faults[b]()
            return solve(d, u)

        monkeypatch.setattr(comparison, "_a_values", faulty)

    return seed


@pytest.fixture
def deadline():
    """Fail the test, rather than hang the suite, after 60 s."""

    def expire(signum, frame):
        pytest.fail("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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
