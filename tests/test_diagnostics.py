"""Bound checks and convergence metrics along normalized runs."""

import logging
import math

import numpy as np
import pytest

from csflow import diagnostics
from csflow.comparison import ProfileSummary, profile
from csflow.diagnostics import (
    BoundReport,
    ConvergenceMetrics,
    check_abar_decay,
    check_curvature_bound,
    check_distance_comparison,
    convergence_metrics,
    geometric_tolerance,
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
from csflow.errors import DomainError, WrongRunKind
from csflow.geometry import canonical_scale
from csflow.harness import RunSpec, execute, gen_circle, gen_ellipse

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
    met = checked_run.metrics
    assert met.identity_pass
    assert float(np.max(met.identity_residual)) <= 1e-10


def test_circle_reports_are_degenerate_but_clean(circle_run):
    res = circle_run
    assert res.passed
    assert res.profiles[0].round_circle

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
    met = circle_run.metrics
    for name in ("l2_dev", "sup_dev", "circle_dist", "sup_dk"):
        assert float(np.max(getattr(met, name))) < 1e-9, name
    assert met.identity_pass
    # the L2 bound underflows to zero; the floored margin must still clear
    assert np.all(met.l2_bound == 0.0)
    rep = met.l2_report()
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
    traj = circle_run.trajectory
    profiles = snapshot_profiles(traj)
    rep = check_distance_comparison(traj, profiles)
    assert rep.measured == pytest.approx([p.min_z for p in profiles], abs=0.0)


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
    assert len(calls) == len(snaps) == len(res.profiles)
    assert [id(f) for f in calls] == [id(s.frame) for s in snaps]


def test_geometric_tolerance_tracks_mesh(circle_run):
    assert geometric_tolerance(circle_run.trajectory) == pytest.approx(
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
    i, j = res.profiles[0].attained
    assert i == j
    rep = check_curvature_bound(res.trajectory, res.profiles)
    assert abs(rep.margin[0]) < 1e-12
    assert rep.margin[1] > 1e-3


def test_ellipse_settles_onto_unit_circle_by_t8():
    spec = RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(n=128, t_end=8.0, snapshot_every=100),
    )
    res = execute(spec, persist=False)
    met = res.metrics
    assert res.passed
    assert met.circle_dist[-1] < 1e-3
    assert abs(met.radius[-1] - 1.0) < 1e-3


# -- the empirical monotone-margin flag ----------------------------------------


def _stub_profile() -> ProfileSummary:
    return ProfileSummary(
        a_bar=1.0,
        t_bar=0.0,
        round_circle=False,
        attained=(0, 0),
        diagonal_max=1.0,
        offdiagonal_max=0.0,
        n_active=0,
        saturated=False,
    )


def _handmade_trajectory(timed_curves) -> Trajectory:
    snaps = [Snapshot(t, i, c) for i, (t, c) in enumerate(timed_curves)]
    return Trajectory(kind=KIND_NORMALIZED, snapshots=snaps, termination=TERM_END)


def test_margin_decrease_is_flagged_not_failed(caplog):
    circ = canonical_scale(gen_circle(1.0, 64))
    bump = canonical_scale(gen_ellipse(1.005, 1.0, 64))
    traj = _handmade_trajectory([(1.0, circ), (2.0, bump), (3.0, circ)])
    with caplog.at_level(logging.WARNING, logger="csflow.diagnostics"):
        rep = check_curvature_bound(traj, [_stub_profile()] * 3)
    assert any("not monotone" in r.message for r in caplog.records)
    assert rep.passed


def test_margin_flag_quiet_when_headroom_grows(caplog):
    circ = canonical_scale(gen_circle(1.0, 64))
    bump = canonical_scale(gen_ellipse(1.005, 1.0, 64))
    traj = _handmade_trajectory([(0.5, circ), (1.0, bump), (1.01, circ)])
    with caplog.at_level(logging.WARNING, logger="csflow.diagnostics"):
        rep = check_curvature_bound(traj, [_stub_profile()] * 3)
    assert not any("not monotone" in r.message for r in caplog.records)
    assert rep.passed


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
        convergence_metrics(traj, flagship_dumbbell.profiles)
    marks = [r for r in caplog.records if "curvature positive" in r.message]
    assert len(marks) == 1


def test_dumbbell_sup_ratio_collapses(flagship_dumbbell):
    traj = flagship_dumbbell.trajectory
    profiles = flagship_dumbbell.profiles
    a_bar = np.array([p.a_bar for p in profiles])
    at_4 = int(np.argmin(np.abs(traj.times - 4.0)))
    assert a_bar[at_4] < 0.05 * a_bar[0]


def test_dumbbell_minimum_z_sits_on_the_neck(flagship_dumbbell, caplog):
    traj = flagship_dumbbell.trajectory
    profiles = flagship_dumbbell.profiles
    with caplog.at_level(logging.INFO, logger="csflow.diagnostics"):
        rep = check_distance_comparison(traj, profiles)
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
    met = flagship_dumbbell.metrics
    t = met.time
    at_1 = int(np.argmin(np.abs(t - 1.0)))
    assert met.sup_dk[-1] < 0.01 * met.sup_dk[at_1]


def test_ellipse_derivative_decay_rate(flagship_ellipse):
    # log-linear fit of sup|dk/ds| over t >= 1: decay rate at least 0.8
    met = flagship_ellipse.metrics
    tail = met.time >= 1.0
    slope = np.polyfit(met.time[tail], np.log(met.sup_dk[tail]), 1)[0]
    assert -slope >= 0.8


# -- guards ----------------------------------------------------------------------


def test_checks_reject_unnormalized_runs():
    snap = Snapshot(0.0, 0, gen_circle(2.0, 64))
    traj = Trajectory(kind=KIND_UNNORMALIZED, snapshots=[snap], termination=TERM_END)
    with pytest.raises(WrongRunKind):
        snapshot_profiles(traj)
    for op in (
        check_distance_comparison,
        check_abar_decay,
        check_curvature_bound,
        convergence_metrics,
    ):
        with pytest.raises(WrongRunKind):
            op(traj, [_stub_profile()])


def test_metrics_reject_negative_values():
    one = np.ones(1)
    good = dict(
        time=np.zeros(1),
        l2_dev=one,
        sup_dev=one,
        center=np.zeros((1, 2)),
        radius=one,
        circle_dist=one,
        sup_dk=one,
        identity_residual=one,
        l2_bound=one,
        identity_pass=True,
    )
    ConvergenceMetrics(**good)
    with pytest.raises(DomainError):
        ConvergenceMetrics(**{**good, "l2_dev": -one})
    with pytest.raises(DomainError):
        ConvergenceMetrics(**{**good, "radius": np.zeros(1)})
