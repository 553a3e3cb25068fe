"""End-to-end acceptance checks, one test per numbered criterion.

Each test restates its criterion directly against public entry points and
boxes the stated runtime budget. The two flagship runs (N = 512, t_end = 6)
are session fixtures shared with the other modules; their wall time is
recorded at fixture build time and asserted here.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from csflow.comparison import AnalyticEllipse, check_small_sep_taylor, profile
from csflow.dynamics import (
    KIND_UNNORMALIZED,
    TERM_END,
    DenseSeries,
    FlowConfig,
    Snapshot,
    Trajectory,
    normalize_trajectory,
    recover_unnormalized,
)
from csflow.geometry import DiscreteCurve, build_frame, canonical_scale
from csflow.harness import RunSpec, execute, gen_ellipse, verify_identities

TWO_PI = 2.0 * math.pi


def _regular_polygon(radius: float, n: int) -> DiscreteCurve:
    u = TWO_PI * np.arange(n) / n
    return DiscreteCurve(
        np.column_stack([radius * np.cos(u), radius * np.sin(u)]), name="circle"
    )


def _circumradius(length: np.ndarray, n: int) -> np.ndarray:
    return length / (2.0 * n * math.sin(math.pi / n))


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    reports = {r.name: r for r in verify_identities()}
    wall = time.perf_counter() - start

    assert all(r.passed for r in reports.values())
    assert reports["L-tilde annihilates f"].max_residual < 1e-9
    assert reports["L dominates L-tilde"].max_violation <= 1e-10
    shape = reports["f shape (monotone/concave/symmetric)"]
    assert shape.max_residual < 1e-12 and shape.max_violation <= 1e-12
    assert reports["g positivity"].max_violation <= 0.0
    assert reports["h convexity"].max_violation <= 0.0
    assert wall < 5.0


def test_criterion_02_circle_fixed_point():
    start = time.perf_counter()
    spec = RunSpec(
        generator="circle", flow=FlowConfig(n=256, dt=1e-3, t_end=2.0)
    )
    res = execute(spec, persist=False)
    wall = time.perf_counter() - start

    snaps = res.trajectory.snapshots
    displacement = float(
        np.max(np.abs(snaps[-1].curve.vertices - snaps[0].curve.vertices))
    )
    assert displacement < 1e-6
    assert res.passed and all(r.passed for r in res.reports.values())
    assert res.reports["abar-decay"].time.size == 0
    met = res.measures
    for name in ("l2_dev", "sup_dev", "circle_dist", "sup_dk"):
        assert float(np.max(getattr(met, name))) < 1e-9, name
    assert wall < 10.0


def test_criterion_03_shrinking_circle_oracle():
    start = time.perf_counter()

    # radius against sqrt(1 - 2 tau), both schemes, to just short of extinction
    for scheme, dt, adaptive in (
        ("explicit", 2e-4, True),
        ("semi-implicit", 1e-4, False),
    ):
        spec = RunSpec(
            generator="circle",
            flow=FlowConfig(
                kind=KIND_UNNORMALIZED,
                n=256,
                scheme=scheme,
                dt=dt,
                adaptive=adaptive,
                t_end=0.45,
                snapshot_every=2000,
            ),
            checks=(),
        )
        res = execute(spec, persist=False)
        assert res.trajectory.termination == TERM_END
        dense = res.trajectory.dense
        radius = _circumradius(dense.length, 256)
        err = float(np.max(np.abs(radius - np.sqrt(1.0 - 2.0 * dense.time))))
        assert err < 1e-3, scheme

    # time map on data that satisfies dL/dtau = -<k^2> L identically, so the
    # only error left is the trapezoid rule's
    tau = np.linspace(0.0, 0.45, 4501)
    shrink = np.sqrt(1.0 - 2.0 * tau)
    dense = DenseSeries(
        time=tau, length=TWO_PI * shrink, k_max=1.0 / shrink, avg_k2=shrink**-2
    )
    edge = 2.0 * 256 * math.sin(math.pi / 256)
    snaps = [
        Snapshot(float(tau[k]), k, _regular_polygon(TWO_PI * shrink[k] / edge, 256))
        for k in range(0, tau.size, 500)
    ]
    synthetic = Trajectory(
        kind=KIND_UNNORMALIZED, snapshots=snaps, termination=TERM_END, dense=dense
    )
    _, clock = normalize_trajectory(synthetic)
    assert abs(clock.t_of_tau(0.375) - math.log(2.0)) < 1e-6
    exact_t = -0.5 * np.log1p(-2.0 * tau)
    assert float(np.max(np.abs(clock.t_of_tau(tau) - exact_t))) < 1e-6

    # full round trip through normalize/recover on a real run
    spec = RunSpec(
        generator="circle",
        flow=FlowConfig(
            kind=KIND_UNNORMALIZED,
            n=512,
            dt=1e-5,
            t_end=0.15,
            snapshot_every=200,
        ),
        checks=(),
    )
    res = execute(spec, persist=False)
    norm, clock = normalize_trajectory(res.trajectory)
    back, _ = recover_unnormalized(norm, clock.L0)
    for orig, rec in zip(res.trajectory.snapshots, back.snapshots):
        scale = math.sqrt(1.0 - 2.0 * orig.time)
        dev = float(np.max(np.abs(rec.curve.vertices - orig.curve.vertices)))
        assert dev / scale < 1e-5
        assert abs(rec.time - orig.time) < 1e-5

    assert time.perf_counter() - start < 30.0


def test_criterion_04_distance_comparison(flagship_ellipse, flagship_dumbbell):
    tol = 10.0 * (TWO_PI / 512) ** 2
    for res in (flagship_ellipse, flagship_dumbbell):
        rep = res.reports["distance-comparison"]
        assert rep.tolerance == pytest.approx(tol)
        assert rep.worst_margin >= -tol
        assert rep.passed
        assert res.wall_seconds < 180.0


def test_criterion_05_abar_decay(flagship_ellipse, flagship_dumbbell):
    for res in (flagship_ellipse, flagship_dumbbell):
        assert res.reports["abar-decay"].passed
        profiles = res.measures.profiles
        log_a0 = math.log(profiles[0].a_bar)
        for t, p in zip(res.trajectory.times, profiles):
            if p.a_bar > 0.0:
                assert math.log(p.a_bar) <= log_a0 - t + 0.05


def test_criterion_06_curvature_bound(flagship_ellipse, flagship_dumbbell):
    for res in (flagship_ellipse, flagship_dumbbell):
        rep = res.reports["curvature-bound"]
        assert rep.passed
        assert np.all(rep.measured <= rep.bound * 1.02)


def test_criterion_07_l2_convergence(flagship_ellipse, flagship_dumbbell):
    for res in (flagship_ellipse, flagship_dumbbell):
        rep = res.reports["l2-curvature-bound"]
        assert rep.passed
        assert np.all(rep.measured <= rep.bound * 1.05)

    met = flagship_ellipse.measures
    assert flagship_ellipse.trajectory.times[-1] >= 6.0
    assert met.circle_dist[-1] < 5e-3
    assert met.sup_dev[-1] < 1e-2


def test_criterion_08_nonconvex_rounds(flagship_dumbbell):
    traj = flagship_dumbbell.trajectory
    k_min = np.array([float(np.min(s.frame.curvature)) for s in traj.snapshots])
    assert k_min[0] < 0.0
    convex = np.flatnonzero(k_min > 0.0)
    assert convex.size > 0
    assert float(traj.times[convex[0]]) < 6.0

    met = flagship_dumbbell.measures
    assert met.circle_dist[-1] < 1e-2
    assert abs(met.radius[-1] - 1.0) < 1e-2


def test_criterion_09_taylor_diagonal_limit():
    ellipse = AnalyticEllipse(2.0, 1.0)
    assert ellipse.curvature(0.0) == pytest.approx(2.0)  # the pole maximizes k
    rep = check_small_sep_taylor(ellipse, 0.0)
    assert rep.passed
    assert rep.max_residual < 1e-2  # a_solve vs a_diagonal at eps ~ 1e-3
    assert rep.max_violation <= 0.0  # observed order >= 1


def test_criterion_10_mesh_refinement(flagship_ellipse, flagship_dumbbell):
    cases = (
        ("ellipse", {"a": 2.0, "b": 1.0}),
        ("dumbbell", {"neck": 0.2}),
    )
    for n in (128, 256):
        for gen, params in cases:
            spec = RunSpec(
                generator=gen, params=params, flow=FlowConfig(n=n, t_end=6.0)
            )
            res = execute(spec, persist=False)
            assert res.passed, (gen, n)
            rep = res.reports["distance-comparison"]
            assert rep.tolerance == pytest.approx(10.0 * (TWO_PI / n) ** 2)
            for name in ("abar-decay", "curvature-bound", "l2-curvature-bound"):
                assert res.reports[name].passed, (gen, n, name)

    for res in (flagship_ellipse, flagship_dumbbell):
        assert res.reports["distance-comparison"].tolerance == pytest.approx(
            10.0 * (TWO_PI / 512) ** 2
        )
        assert all(r.passed for r in res.reports.values())

    coarse = profile(build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 256))))
    fine = profile(build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 1024))))
    assert abs(coarse.a_bar - fine.a_bar) < 1e-2


# sha256 of each flagship run's series.csv, produced with numpy 2.4.6 and
# scipy 1.17.1. A change that alters the numerics on purpose updates these
# and says so; any other change must leave them as they are. Last changed
# when chords became sqrt(dx*dx + dy*dy) in place of hypot: min_Z moved by
# at most 1.8e-18 in 117 (ellipse) and 123 (dumbbell) of 601 rows, and no
# other column moved.
_FLAGSHIP_SERIES_SHA256 = {
    "ellipse": "e48a59ece95765e643328cf9cb6db3c18a8fad8ebe65cfea0a8d1a7a0e15f67a",
    "dumbbell": "d2d813151a34fc2fac12de5ab2681beba7f4d483de094f2a77ae64d0f0f568c6",
}


def test_flagship_series_bytes_are_pinned(flagship_ellipse, flagship_dumbbell):
    for name, res in (("ellipse", flagship_ellipse), ("dumbbell", flagship_dumbbell)):
        digest = hashlib.sha256((res.outdir / "series.csv").read_bytes()).hexdigest()
        assert digest == _FLAGSHIP_SERIES_SHA256[name], name


def test_criterion_11_determinism(flagship_ellipse, tmp_path):
    repeat = RunSpec(
        generator="ellipse",
        params={"a": 2.0, "b": 1.0},
        flow=FlowConfig(),
        outdir=str(tmp_path / "repeat"),
    )
    res = execute(repeat)
    first = (flagship_ellipse.outdir / "series.csv").read_bytes()
    second = (res.outdir / "series.csv").read_bytes()
    assert first == second
