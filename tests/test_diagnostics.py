"""Bound checks and convergence metrics along normalized runs."""

import json
import logging
import math
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from csflow import cli, diagnostics
from csflow.comparison import profile
from csflow.diagnostics import (
    BoundReport,
    check_curvature_bound,
    check_distance_comparison,
    check_l2_bound,
    geometric_tolerance,
    identity_holds,
    measure,
    snapshot_profiles,
)
from csflow.dynamics import (
    KIND_NORMALIZED,
    KIND_UNNORMALIZED,
    TERM_END,
    FlowConfig,
    Snapshot,
    Trajectory,
)
from csflow.errors import CsflowError, DomainError, WrongRunKind
from csflow.geometry import canonical_scale
from csflow.harness import ALL_CHECKS, RunSpec, execute, gen_circle, gen_ellipse

TWO_PI = 2.0 * math.pi

# every stock non-circular initial curve, at desk resolution
STOCK_CURVES = [
    ("ellipse", {"a": 2.0, "b": 1.0}),
    ("ellipse", {"a": 3.0, "b": 1.0}),
    ("dumbbell", {"neck": 0.2}),
    ("fourier", {"seed": 1}),
    ("fourier", {"seed": 2}),
    ("fourier", {"seed": 3}),
    ("fourier", {"seed": 4}),
    ("fourier", {"seed": 5}),
]


def _ids(param):
    gen, params = param
    return gen + "-" + "-".join(str(v) for v in params.values())


@pytest.fixture(scope="module", params=STOCK_CURVES, ids=_ids)
def checked_run(request):
    gen, params = request.param
    spec = RunSpec(
        generator=gen, params=params, flow=FlowConfig(n=128, t_end=4.0)
    )
    return execute(spec, persist=False)


@pytest.fixture(scope="module")
def circle_run():
    spec = RunSpec(generator="circle", flow=FlowConfig(n=64, t_end=2.0))
    return execute(spec, persist=False)


def test_every_stock_curve_passes_all_checks(checked_run):
    res = checked_run
    assert res.trajectory.termination == TERM_END
    assert res.passed
    dist = res.reports["distance-comparison"]
    abar = res.reports["abar-decay"]
    curv = res.reports["curvature-bound"]
    l2 = res.reports["l2-curvature-bound"]
    assert dist.passed and abar.passed and curv.passed and l2.passed
    # the bounds hold outright; the tolerances are never what saves them
    assert dist.worst_margin >= -1e-12
    assert abar.worst_margin >= -1e-12
    assert curv.worst_margin >= -1e-9
    assert l2.worst_margin >= 0.5


def test_quadrature_identity_every_snapshot(checked_run):
    met = checked_run.measures
    assert identity_holds(met)
    assert float(np.max(met.identity_residual)) <= 1e-10


def test_circle_reports_are_degenerate_but_clean(circle_run):
    res = circle_run
    assert res.passed
    assert res.measures.profiles[0].a_bar == 0.0

    dist = res.reports["distance-comparison"]
    assert dist.passed and dist.worst_margin >= -1e-9

    # sup a = 0 on every snapshot: nothing to bound, vacuous pass
    abar = res.reports["abar-decay"]
    assert abar.passed
    assert abar.time.size == 0
    assert abar.worst_margin == math.inf

    curv = res.reports["curvature-bound"]
    assert curv.passed
    assert np.all(curv.bound == 1.0)
    assert curv.worst_margin >= -1e-9


def test_circle_deviations_at_rounding_level(circle_run):
    met = circle_run.measures
    for name in ("l2_dev", "sup_dev", "circle_dist", "sup_dk"):
        assert float(np.max(getattr(met, name))) < 1e-9, name
    assert identity_holds(met)
    # the L2 bound underflows to zero; the floored margin must still clear
    rep = check_l2_bound(met)
    assert np.all(rep.bound == 0.0)
    assert rep.passed and abs(rep.worst_margin) < 1e-9


def test_report_json_shape(circle_run):
    doc = circle_run.reports["curvature-bound"].to_json_dict()
    assert set(doc) == {"name", "pass", "worst_margin", "series"}
    assert doc["name"] == "curvature-bound"
    assert doc["pass"] is True
    assert isinstance(doc["worst_margin"], float)
    for row in doc["series"]:
        assert set(row) == {"time", "measured", "bound", "margin"}
        assert all(isinstance(v, float) for v in row.values())

    # non-finite values must serialize as nulls, not as nan literals
    abar_doc = circle_run.reports["abar-decay"].to_json_dict()
    assert abar_doc["worst_margin"] is None
    assert abar_doc["series"] == []


def test_report_passes_when_worst_margin_is_within_tolerance():
    def report(*margin):
        m = np.array(margin, dtype=float)
        return BoundReport("check", m, m, np.zeros_like(m), m, tolerance=0.125)

    assert report().passed  # an empty series holds trivially
    assert report(1.0, -0.125).passed
    assert not report(1.0, -0.25).passed
    assert not report(1.0, math.nan).passed
    assert report(1.0, -0.125).to_json_dict()["pass"] is True


def test_measured_column_is_per_snapshot_min_z(circle_run):
    m = measure(circle_run.trajectory, ("distance-comparison",))
    rep = check_distance_comparison(m)
    assert rep.measured == pytest.approx([p.min_z for p in m.profiles], abs=0.0)


def test_execute_profiles_each_snapshot_once(monkeypatch):
    # count guard, no timing: one profile per snapshot, the first included
    calls = []

    def counting(frame, *args, **kwargs):
        calls.append(frame)
        return profile(frame, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "profile", counting)
    spec = RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(n=64, t_end=0.1),
    )
    res = execute(spec, persist=False)
    snaps = res.trajectory.snapshots
    assert len(calls) == len(snaps) == len(res.measures.profiles)
    assert [id(f) for f in calls] == [id(s.frame) for s in snaps]


# -- the forked profile pool -------------------------------------------------------


def _flow(gen, params, n=64, t_end=0.3) -> Trajectory:
    spec = RunSpec(
        generator=gen, params=params, flow=FlowConfig(n=n, t_end=t_end), checks=()
    )
    return execute(spec, persist=False).trajectory


POOL_CURVES = {
    "dumbbell": ("dumbbell", {"neck": 0.2}),
    "ellipse": ("ellipse", {"a": 2.0, "b": 1.0}),
    "fourier": ("fourier", {"seed": 3}),
    "circle": ("circle", {}),
}


@pytest.mark.parametrize("curve", list(POOL_CURVES))
def test_pool_profiles_equal_serial_profiles(curve, monkeypatch, pool_starts):
    traj = _flow(*POOL_CURVES[curve])
    with monkeypatch.context() as serial:
        serial.setattr(diagnostics, "POOL_MIN_PAIRS", math.inf)
        oracle = snapshot_profiles(traj)
    assert pool_starts == []
    pooled = snapshot_profiles(traj)
    assert pool_starts == [2]
    assert pooled == oracle
    assert len(pooled) == len(traj.snapshots)
    if curve == "circle":
        assert all(p.a_bar == 0.0 and p.t_bar == -math.inf for p in pooled)
    assert multiprocessing.active_children() == []


def test_pool_raises_the_earliest_failing_snapshot(monkeypatch, pool_starts):
    traj = _flow("ellipse", {"a": 2.0, "b": 1.0})
    times = traj.times
    slow, fast = times[3], times[10]  # tasks 2 and 9: one on each worker

    def failing(frame, *args, t, **kwargs):
        if t == slow:
            time.sleep(0.3)  # lets the later failure finish first
        if t in (slow, fast):
            raise DomainError("seeded profile failure", time=t, pair=(1, 2))
        return profile(frame, *args, t=t, **kwargs)

    monkeypatch.setattr(diagnostics, "profile", failing)
    with monkeypatch.context() as serial:
        serial.setattr(diagnostics, "POOL_MIN_PAIRS", math.inf)
        with pytest.raises(DomainError) as serial_exc:
            snapshot_profiles(traj)
    with pytest.raises(DomainError) as pool_exc:
        snapshot_profiles(traj)
    assert pool_starts == [2]
    want, got = serial_exc.value, pool_exc.value
    assert type(got) is type(want)
    assert (got.kind, got.message, got.context) == (want.kind, want.message, want.context)
    assert got.context == {"time": slow, "pair": (1, 2)}
    assert multiprocessing.active_children() == []


def _fault_at(monkeypatch, t_fault, fault):
    """Make diagnostics.profile call fault() on the snapshot at time t_fault."""

    def faulty(frame, *args, t, **kwargs):
        if t == t_fault:
            fault()
        return profile(frame, *args, t=t, **kwargs)

    monkeypatch.setattr(diagnostics, "profile", faulty)


def test_dead_profile_worker_raises(monkeypatch, pool_starts, deadline, die_in_worker):
    traj = _flow("ellipse", {"a": 2.0, "b": 1.0})
    _fault_at(monkeypatch, traj.times[4], die_in_worker)  # task 3, on the last worker
    with pytest.raises(CsflowError) as exc:
        snapshot_profiles(traj)
    assert pool_starts == [2]
    assert exc.value.message == "profile worker exited without a result"
    assert exc.value.context == {"task": 3, "exitcode": 3}
    assert multiprocessing.active_children() == []


def test_cli_run_exits_2_on_a_dead_profile_worker(
    monkeypatch, pool_starts, deadline, die_in_worker, capsys
):
    traj = _flow("ellipse", {"a": 2.0, "b": 1.0})
    _fault_at(monkeypatch, traj.times[4], die_in_worker)
    argv = ["run", "--generator", "ellipse", "--n", "64", "--t-end", "0.3"]
    assert cli.main(argv + ["--no-persist"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "kind": "Error",
        "message": "profile worker exited without a result",
        "context": {"task": 3, "exitcode": 3},
    }
    assert multiprocessing.active_children() == []


def test_one_usable_core_profiles_serially(monkeypatch, no_pool):
    traj = _flow("dumbbell", {"neck": 0.2})
    oracle = snapshot_profiles(traj)
    monkeypatch.setattr(diagnostics, "POOL_MIN_PAIRS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert snapshot_profiles(traj) == oracle


def test_other_threads_keep_the_profiles_serial(monkeypatch, no_pool):
    traj = _flow("dumbbell", {"neck": 0.2})
    oracle = snapshot_profiles(traj)
    monkeypatch.setattr(diagnostics, "POOL_MIN_PAIRS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60.0,))
    other.start()
    try:
        assert snapshot_profiles(traj) == oracle
    finally:
        release.set()
        other.join(timeout=60.0)
    assert not other.is_alive()


def test_work_below_the_cutoff_profiles_serially(monkeypatch, no_pool):
    traj = _flow("dumbbell", {"neck": 0.2})
    rest = traj.snapshots[1:]
    assert sum(s.curve.n * (s.curve.n - 1) // 2 for s in rest) < diagnostics.POOL_MIN_PAIRS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert len(snapshot_profiles(traj)) == len(traj.snapshots)


def test_geometric_tolerance_tracks_mesh(circle_run):
    assert geometric_tolerance(circle_run.measures.n) == pytest.approx(
        10.0 * (TWO_PI / 64) ** 2
    )


def test_curvature_bound_tight_at_start_on_ellipse():
    # when the diagonal family attains sup a, the t = 0 bound is an identity:
    # 1 + 2 a_bar^2 = k_max^2, so the first margin vanishes to rounding
    spec = RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(n=128, t_end=0.2),
    )
    res = execute(spec, persist=False)
    i, j = res.measures.profiles[0].attained
    assert i == j
    rep = check_curvature_bound(res.measures)
    assert abs(rep.margin[0]) < 1e-12
    assert rep.margin[1] > 1e-3


def test_ellipse_settles_onto_unit_circle_by_t8():
    spec = RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(n=128, t_end=8.0, snapshot_every=100),
    )
    res = execute(spec, persist=False)
    met = res.measures
    assert res.passed
    assert met.circle_dist[-1] < 1e-3
    assert abs(met.radius[-1] - 1.0) < 1e-3


# -- the empirical monotone-margin flag ----------------------------------------


def _handmade_trajectory(timed_curves) -> Trajectory:
    snaps = [Snapshot(t, i, c) for i, (t, c) in enumerate(timed_curves)]
    return Trajectory(kind=KIND_NORMALIZED, snapshots=snaps, termination=TERM_END)


def _stub_measures(traj: Trajectory):
    # the frame columns of a handmade trajectory, with the offset t_bar = 0
    return replace(measure(traj), t_bar=np.zeros(len(traj.snapshots)))


def test_margin_decrease_is_flagged_not_failed(caplog):
    circ = canonical_scale(gen_circle(1.0, 64))
    bump = canonical_scale(gen_ellipse(1.005, 1.0, 64))
    traj = _handmade_trajectory([(1.0, circ), (2.0, bump), (3.0, circ)])
    with caplog.at_level(logging.INFO, logger="csflow.diagnostics"):
        rep = check_curvature_bound(_stub_measures(traj))
    assert any("not monotone" in r.message for r in caplog.records)
    assert rep.passed


def test_margin_flag_quiet_when_headroom_grows(caplog):
    circ = canonical_scale(gen_circle(1.0, 64))
    bump = canonical_scale(gen_ellipse(1.005, 1.0, 64))
    traj = _handmade_trajectory([(0.5, circ), (1.0, bump), (1.01, circ)])
    with caplog.at_level(logging.INFO, logger="csflow.diagnostics"):
        rep = check_curvature_bound(_stub_measures(traj))
    assert not any("not monotone" in r.message for r in caplog.records)
    assert rep.passed


# -- the quadrature identity in the verdict ------------------------------------

SMALL_ELLIPSE = ["run", "--generator", "ellipse", "--n", "64", "--t-end", "0.1"]


@pytest.fixture
def nan_residual(monkeypatch):
    # the second snapshot's quadrature residual comes out NaN
    original = diagnostics.convergence_metrics
    frames = []

    def faulty(frame):
        frames.append(frame)
        metrics = original(frame)
        if len(frames) == 2:
            metrics["identity_residual"] = math.nan
        return metrics

    monkeypatch.setattr(diagnostics, "convergence_metrics", faulty)


def _small_ellipse_spec(**kwargs) -> RunSpec:
    return RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(n=64, t_end=0.1),
        **kwargs,
    )


def test_nan_identity_residual_fails_the_run(nan_residual):
    res = execute(_small_ellipse_spec(), persist=False)
    assert int(np.isnan(res.measures.identity_residual).sum()) == 1
    assert all(r.passed for r in res.reports.values())
    assert not res.passed


def test_cli_prints_a_nan_identity_residual_as_fail(nan_residual, capsys):
    rc = cli.main([*SMALL_ELLIPSE, "--no-persist"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "quadrature-identity: FAIL" in out


def test_unmeasured_identity_column_does_not_reach_the_verdict(capsys):
    res = execute(
        _small_ellipse_spec(checks=("abar-decay", "curvature-bound")), persist=False
    )
    assert np.isnan(res.measures.identity_residual).all()
    assert res.passed

    rc = cli.main([*SMALL_ELLIPSE, "--check", "curvature-bound", "--no-persist"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "curvature-bound: pass" in out
    assert "quadrature-identity" not in out


# -- flagship-run behavior ------------------------------------------------------


def test_dumbbell_becomes_convex_and_logs_threshold(flagship_dumbbell, caplog):
    traj = flagship_dumbbell.trajectory
    k_min = np.array([float(np.min(s.frame.curvature)) for s in traj.snapshots])
    assert k_min[0] < 0.0
    crossing = np.flatnonzero(k_min > 0.0)
    assert crossing.size > 0
    t_cross = float(traj.times[crossing[0]])
    assert 0.0 < t_cross < 6.0
    assert k_min[-1] > 0.0

    with caplog.at_level(logging.INFO, logger="csflow.diagnostics"):
        check_l2_bound(flagship_dumbbell.measures)
    marks = [r for r in caplog.records if "curvature positive" in r.message]
    assert len(marks) == 1


def test_dumbbell_sup_ratio_collapses(flagship_dumbbell):
    traj = flagship_dumbbell.trajectory
    profiles = flagship_dumbbell.measures.profiles
    a_bar = np.array([p.a_bar for p in profiles])
    at_4 = int(np.argmin(np.abs(traj.times - 4.0)))
    assert a_bar[at_4] < 0.05 * a_bar[0]


def test_dumbbell_minimum_z_sits_on_the_neck(flagship_dumbbell, caplog):
    traj = flagship_dumbbell.trajectory
    profiles = flagship_dumbbell.measures.profiles
    with caplog.at_level(logging.INFO, logger="csflow.diagnostics"):
        rep = check_distance_comparison(flagship_dumbbell.measures)
    assert rep.passed
    assert any("pair" in r.message for r in caplog.records)

    worst = int(np.argmin(rep.measured))
    assert traj.times[worst] == 0.0
    i, j = profiles[worst].min_z_pair
    v = traj.snapshots[worst].frame.vertices
    # the binding pair spans the waist: on the y axis, opposite lobes
    assert abs(v[i, 0]) < 0.1 and abs(v[j, 0]) < 0.1
    assert v[i, 1] * v[j, 1] < 0.0


def test_dumbbell_derivative_quotients_collapse(flagship_dumbbell):
    met = flagship_dumbbell.measures
    t = met.time
    at_1 = int(np.argmin(np.abs(t - 1.0)))
    assert met.sup_dk[-1] < 0.01 * met.sup_dk[at_1]


def test_ellipse_derivative_decay_rate(flagship_ellipse):
    # log-linear fit of sup|dk/ds| over t >= 1: decay rate at least 0.8
    met = flagship_ellipse.measures
    tail = met.time >= 1.0
    slope = np.polyfit(met.time[tail], np.log(met.sup_dk[tail]), 1)[0]
    assert -slope >= 0.8


# -- guards ----------------------------------------------------------------------


def test_checks_reject_unnormalized_runs():
    snap = Snapshot(0.0, 0, gen_circle(2.0, 64))
    traj = Trajectory(kind=KIND_UNNORMALIZED, snapshots=[snap], termination=TERM_END)
    with pytest.raises(WrongRunKind):
        snapshot_profiles(traj)
    for check in ALL_CHECKS:
        with pytest.raises(WrongRunKind):
            measure(traj, (check,))
    # the frame columns need no normalization
    assert measure(traj).profiles is None


def test_metrics_reject_negative_values():
    circle = canonical_scale(gen_circle(1.0, 64))
    good = measure(_handmade_trajectory([(0.0, circle)]), ("l2-curvature-bound",))
    with pytest.raises(DomainError):
        replace(good, l2_dev=-np.ones(1))
    with pytest.raises(DomainError):
        replace(good, radius=np.zeros(1))
    # NaN marks a column that was not measured, never a domain error
    assert np.isnan(measure(_handmade_trajectory([(0.0, circle)])).radius).all()
