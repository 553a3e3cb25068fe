"""Flow stepping, trajectories, and the normalized/un-normalized clock maps."""

import dataclasses
import math

import numpy as np
import pytest

import csflow.dynamics as dynamics
from csflow.dynamics import (
    KIND_NORMALIZED,
    KIND_UNNORMALIZED,
    TERM_BLOWUP,
    TERM_END,
    TERM_SELF_INTERSECT,
    TERM_STEP_FAILURE,
    ClockMap,
    DenseSeries,
    FlowConfig,
    Snapshot,
    Trajectory,
    _cumulative_trapezoid,
    _implicit_laplacian_solve,
    _solve_cyclic_tridiagonal,
    normalize_trajectory,
    recover_unnormalized,
    run,
    step_unnormalized,
)
from csflow.errors import (
    ConfigError,
    DegenerateCurve,
    DomainError,
    NotEmbedded,
    NumericalBlowup,
    WrongRunKind,
)
from csflow.geometry import DiscreteCurve
from csflow.harness import gen_circle, gen_ellipse

TWO_PI = 2.0 * math.pi


def figure_eight(n=64):
    th = TWO_PI * np.arange(n) / n
    return DiscreteCurve(np.column_stack([np.sin(2 * th), np.sin(th)]))


def regular_polygon(radius, n=256):
    th = TWO_PI * np.arange(n) / n
    return DiscreteCurve(radius * np.column_stack([np.cos(th), np.sin(th)]))


def exact_shrinking_circle(n=256, tau_end=0.45, h=1e-4):
    """Synthetic un-normalized circle run obeying dL/dtau = -<k^2> L exactly.

    The dense grid carries the smooth solution R = sqrt(1 - 2 tau); snapshot
    polygons are scaled so their polygon length equals the dense length.
    """
    tau = np.linspace(0.0, tau_end, int(round(tau_end / h)) + 1)
    R = np.sqrt(1.0 - 2.0 * tau)
    L = TWO_PI * R
    dense = DenseSeries(time=tau, length=L, k_max=1.0 / R, avg_k2=1.0 / R**2)
    sin_factor = 2.0 * n * math.sin(math.pi / n)
    snaps = [
        Snapshot(float(tau[k]), k, regular_polygon(L[k] / sin_factor, n))
        for k in range(0, tau.size, max(1, tau.size // 10))
    ]
    return Trajectory(
        kind=KIND_UNNORMALIZED, snapshots=snaps, termination=TERM_END, dense=dense
    )


# -- configuration and containers ----------------------------------------------


def test_flow_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(kind="sideways")
    with pytest.raises(ConfigError):
        FlowConfig(scheme="spectral")
    with pytest.raises(ConfigError):
        FlowConfig(n=4)
    with pytest.raises(ConfigError):
        FlowConfig(dt=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(safety=0.9)
    with pytest.raises(ConfigError):
        FlowConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(snapshot_every=0)
    FlowConfig(resample_every=0)  # 0 turns resampling off


@pytest.mark.parametrize(
    "bad",
    [
        {"t_end": math.nan},
        {"t_end": math.inf},
        {"t_end": 0.0},
        {"snapshot_every": 0},
        {"resample_every": -1},
    ],
)
def test_flow_config_rejects_nonfinite_end_and_negative_cadence(bad):
    with pytest.raises(ConfigError):
        FlowConfig(**bad)
    with pytest.raises(ConfigError):
        FlowConfig.from_json_dict({**FlowConfig().to_json_dict(), **bad})

@pytest.mark.parametrize(
    "bad",
    [
        {"n": 64.5},
        {"n": "64"},
        {"n": True},
        {"snapshot_every": 2.5},
        {"resample_every": None},
        {"snapshot_every": False},
        {"dt": "0.001"},
        {"safety": True},
        {"t_end": "6"},
        {"adaptive": "false"},
        {"adaptive": 1},
    ],
)
def test_flow_config_rejects_wrong_field_types(bad):
    with pytest.raises(ConfigError):
        FlowConfig(**bad)
    with pytest.raises(ConfigError):
        FlowConfig.from_json_dict({**FlowConfig().to_json_dict(), **bad})


def test_flow_config_json_round_trip():
    cfg = FlowConfig(kind="unnormalized", n=128, scheme="explicit", dt=5e-5,
                     adaptive=True, t_end=0.4)
    assert FlowConfig.from_json_dict(cfg.to_json_dict()) == cfg
    with pytest.raises(ConfigError):
        FlowConfig.from_json_dict({"n": 64, "warp": 9})


def test_trajectory_validation():
    circle = gen_circle(1.0, 64)
    with pytest.raises(DomainError):
        Trajectory(kind=KIND_NORMALIZED, snapshots=[], termination=TERM_END)
    decreasing = [Snapshot(0.0, 0, circle), Snapshot(-1.0, 1, circle)]
    with pytest.raises(DomainError):
        Trajectory(kind=KIND_UNNORMALIZED, snapshots=decreasing, termination=TERM_END)
    # normalized snapshots must sit at length 2*pi
    with pytest.raises(DomainError):
        Trajectory(
            kind=KIND_NORMALIZED,
            snapshots=[Snapshot(0.0, 0, circle)],
            termination=TERM_END,
        )


def test_clock_map_validation_and_interp():
    t = np.linspace(0.0, 2.0, 11)
    clock = ClockMap(tau=0.5 * (1 - np.exp(-2 * t)), t=t, lam=np.exp(-t), L0=TWO_PI)
    assert clock.t_of_tau(0.0) == 0.0
    assert clock.tau_of_t(2.0) == pytest.approx(0.5 * (1 - math.exp(-4.0)))
    assert clock.lam_of_t(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(DomainError):
        ClockMap(tau=np.array([0.0, 0.0]), t=np.array([0.0, 1.0]),
                 lam=np.ones(2), L0=1.0)


# -- the cyclic tridiagonal core -------------------------------------------------


@pytest.mark.parametrize("n", [8, 64, 257])
def test_cyclic_tridiagonal_against_dense_solve(n):
    rng = np.random.default_rng(n)
    lower = rng.uniform(0.5, 2.0, n)
    upper = rng.uniform(0.5, 2.0, n)
    diag = -(lower + upper) * rng.uniform(1.2, 3.0, n)  # diagonally dominant
    rhs = rng.standard_normal((n, 3))
    dense = np.zeros((n, n))
    idx = np.arange(n)
    dense[idx, idx] = diag
    dense[idx, (idx - 1) % n] = lower
    dense[idx, (idx + 1) % n] = upper
    expected = np.linalg.solve(dense, rhs)
    got = _solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)


def test_cyclic_tridiagonal_singular_system_raises():
    zero = np.zeros(8)
    diag = np.ones(8)
    diag[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _solve_cyclic_tridiagonal(zero, diag, zero, np.ones(8))


# -- normalized flow ---------------------------------------------------------------


def test_unit_circle_is_a_fixed_point():
    traj = run(FlowConfig(n=64, dt=1e-3, t_end=0.5), gen_circle(1.0, 64))
    assert traj.termination == TERM_END
    disp = np.abs(traj.final.curve.vertices - traj.snapshots[0].curve.vertices)
    assert float(disp.max()) < 1e-9


def test_off_center_circle_is_not_stationary():
    """The dilation term is origin-dependent: translation modes grow as e^t."""
    shifted = DiscreteCurve(gen_circle(1.0, 64).vertices + np.array([10.0, 0.0]))
    traj = run(FlowConfig(n=64, dt=1e-3, t_end=1.0, snapshot_every=100), shifted)
    centers = np.array([s.curve.vertices.mean(axis=0) for s in traj.snapshots])
    dist = np.hypot(centers[:, 0], centers[:, 1])
    assert dist[-1] > 2.0 * dist[0]  # decisively non-stationary
    growth = dist[-1] / dist[0]
    assert growth == pytest.approx(math.exp(traj.final.time), rel=0.02)


def test_normalized_snapshots_hold_length_invariant():
    traj = run(FlowConfig(n=128, t_end=2.0), gen_ellipse(2.0, 1.0, 128))
    for snap in traj.snapshots:
        assert abs(snap.frame.length - TWO_PI) / TWO_PI < 1e-9
    assert np.all(np.diff(traj.times) > 0.0)


def test_avg_k2_decreases_monotonically_to_one():
    traj = run(FlowConfig(n=256, t_end=6.0), gen_ellipse(2.0, 1.0, 256))
    avg_k2 = np.array([s.frame.avg_k2 for s in traj.snapshots])
    assert np.all(np.diff(avg_k2) <= 1e-11)
    assert abs(avg_k2[-1] - 1.0) < 1e-3
    # the per-step record agrees
    assert np.all(np.diff(traj.dense.avg_k2) <= 1e-11)


def test_rejects_immersed_input():
    with pytest.raises(NotEmbedded):
        run(FlowConfig(n=64, t_end=0.1), figure_eight())


def _failing_from_call(monkeypatch, k):
    """Patch the flow's embeddedness test to fail from its k-th call on."""
    calls = []

    def is_embedded(curve):
        calls.append(curve)
        return len(calls) < k

    monkeypatch.setattr(dynamics, "is_embedded", is_embedded)
    return calls


def test_self_intersection_ends_run_at_last_passing_state(monkeypatch):
    # records (and so checks) every 3 steps, resamples every 4: the check
    # after step 12 sees a resampled state
    cfg = FlowConfig(n=64, dt=1e-3, t_end=0.03, resample_every=4, snapshot_every=3)
    every = run(dataclasses.replace(cfg, snapshot_every=1), gen_ellipse(2.0, 1.0, 64))
    assert every.termination == TERM_END
    calls = _failing_from_call(monkeypatch, 5)  # the initial curve, then steps 3-12
    traj = run(cfg, gen_ellipse(2.0, 1.0, 64))
    assert len(calls) == 5
    # the last check saw step 12 after its resample
    assert np.array_equal(calls[-1].vertices, every.snapshots[12].curve.vertices)
    assert traj.termination == TERM_SELF_INTERSECT
    # the recorded states that passed, then the last state before the failure
    assert [s.step for s in traj.snapshots] == [0, 3, 6, 9, 11]
    for got in traj.snapshots:
        want = every.snapshots[got.step]
        assert got.time == want.time
        assert np.array_equal(got.curve.vertices, want.curve.vertices)
    # one dense entry per accepted step, the last one the final snapshot's
    assert np.array_equal(traj.dense.time, every.dense.time[:12])
    assert traj.dense.time[-1] == traj.final.time


def test_every_recorded_state_is_tested_for_embeddedness(monkeypatch):
    # 30 steps, recorded at 0, 7, 14, 21 and 28 and at the end time; step 28
    # is also resampled, and no step records untested
    tested, resampled = [], []
    is_embedded = dynamics.is_embedded
    resample_uniform = dynamics.resample_uniform

    def embed_spy(curve):
        tested.append(curve)
        return is_embedded(curve)

    def resample_spy(curve, n):
        resampled.append(resample_uniform(curve, n))
        return resampled[-1]

    monkeypatch.setattr(dynamics, "is_embedded", embed_spy)
    monkeypatch.setattr(dynamics, "resample_uniform", resample_spy)
    cfg = FlowConfig(kind=KIND_UNNORMALIZED, n=64, dt=1e-3, t_end=0.03,
                     resample_every=4, snapshot_every=7)
    traj = run(cfg, gen_ellipse(2.0, 1.0, 64))
    assert traj.termination == TERM_END
    assert [s.step for s in traj.snapshots] == [0, 7, 14, 21, 28, 30]
    assert [id(c) for c in tested] == [id(s.curve) for s in traj.snapshots]
    assert traj.snapshots[4].curve is resampled[-1]


def test_resampled_input_must_be_embedded(monkeypatch):
    calls = _failing_from_call(monkeypatch, 2)  # the raw input passes
    with pytest.raises(NotEmbedded) as info:
        run(FlowConfig(n=96, t_end=0.01), gen_circle(1.0, 64))
    assert [c.n for c in calls] == [64, 96]
    assert info.value.context == {"n": 96}


def _seed_solve_fault(monkeypatch, k, fault):
    """Apply ``fault`` in place to the raw vertices of the k-th implicit
    solve, that of step k, before the rescale; returns the solves' outputs."""
    solve = dynamics._implicit_laplacian_solve
    calls = []

    def seeded(h, dt, rhs):
        calls.append(solve(h, dt, rhs))
        if len(calls) == k:
            fault(calls[-1])
        return calls[-1]

    monkeypatch.setattr(dynamics, "_implicit_laplacian_solve", seeded)
    return calls


def _cusp(v):  # edge 10 exactly reverses edge 9
    v[11] = v[9]


def _duplicate(v):
    v[11] = v[10]


def _short_edge(v):  # a few ulps long, below 1e-12 of the mean edge of about 0.1
    v[11] = v[10]
    v[11, 0] += 1e-15


def _non_finite(v):
    v[10, 0] = np.nan


def _collapse(v):  # nothing left to rescale to length 2*pi
    v[:] = v[0]


_SEEDED_FAULTS = (
    (_cusp, TERM_STEP_FAILURE, "cusp"),
    (_duplicate, TERM_STEP_FAILURE, "duplicated consecutive vertices"),
    (_short_edge, TERM_STEP_FAILURE, "below 1e-12 of mean"),
    (_non_finite, TERM_BLOWUP, "non-finite coordinates"),
    (_collapse, TERM_STEP_FAILURE, "collapsed the curve to a point"),
)


def test_degenerate_frame_ends_run_as_step_failure(monkeypatch):
    # a fault in the state step k makes ends the run at state k - 1, with one
    # dense entry per state 0 .. k - 1; the first resample (step 20) comes later
    k = 5
    cfg = FlowConfig(n=64, dt=1e-3, t_end=0.05)
    for fault, termination, message in _SEEDED_FAULTS:
        calls = _seed_solve_fault(monkeypatch, k, fault)
        traj = run(cfg, gen_ellipse(2.0, 1.0, 64))
        assert len(calls) == k, message
        assert traj.termination == termination, message
        assert traj.final.step == k - 1
        assert traj.dense.time.size == k
        # the step itself raises the check the fault is for, with the step
        # and time of the state it starts from
        _seed_solve_fault(monkeypatch, 1, fault)
        with pytest.raises((DegenerateCurve, NumericalBlowup), match=message) as info:
            dynamics.step_normalized(traj.final, 1e-3)
        assert info.value.context["step"] == k - 1
        assert info.value.context["time"] == traj.final.time


def test_degenerate_state_raises_with_step_and_time():
    v = gen_ellipse(2.0, 1.0, 64).vertices.copy()
    for fault, message in ((_cusp, "cusp"), (_short_edge, "below 1e-12 of mean")):
        w = v.copy()
        fault(w)
        snap = Snapshot(0.25, 7, DiscreteCurve(w))
        with pytest.raises(DegenerateCurve, match=message) as info:
            dynamics.step_normalized(snap, 1e-3)
        assert info.value.context["step"] == 7
        assert info.value.context["time"] == 0.25


def test_step_builds_one_curve_and_frames_only_where_read(monkeypatch):
    initial = gen_ellipse(2.0, 1.0, 64)
    counts = dict.fromkeys(["curves", "checked", "frames", "measures", "resamples"], 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        DiscreteCurve, "__post_init__", counting("curves", DiscreteCurve.__post_init__)
    )
    for name, attr in (
        ("checked", "_checked_curve"),
        ("frames", "build_frame"),
        ("measures", "_curvature"),
        ("resamples", "resample_uniform"),
    ):
        monkeypatch.setattr(dynamics, attr, counting(name, getattr(dynamics, attr)))
    for scheme in ("semi-implicit", "explicit"):
        counts.update(dict.fromkeys(counts, 0))
        traj = run(FlowConfig(n=64, scheme=scheme, dt=1e-3, t_end=0.05), initial)
        steps = traj.final.step
        assert traj.termination == TERM_END and steps == 50
        assert counts["resamples"] == 2  # steps 20 and 40
        # one checked curve per step; two constructed per resample (resample,
        # rescale) and one for the initial rescale
        assert counts["checked"] == steps
        assert counts["curves"] == 2 * counts["resamples"] + 1
        if scheme == "semi-implicit":
            # no frame: one measure per kept state, and one of each state a
            # resample replaced
            assert counts["frames"] == 0
            assert counts["measures"] == traj.dense.time.size + counts["resamples"]
        else:
            # the explicit step moves along the normals: the frame of every
            # state it steps from, built once
            assert counts["frames"] == steps + counts["resamples"] + 1
            assert counts["measures"] == 1 + counts["resamples"]
        counts["frames"] = 0
        frames = [s.frame for s in traj.snapshots]
        assert len(frames) == 6
        assert counts["frames"] == (6 if scheme == "semi-implicit" else 0)


def test_snapshot_cadence_and_lazy_frames():
    traj = run(FlowConfig(n=64, dt=1e-3, t_end=0.1, snapshot_every=10),
               gen_circle(1.0, 64))
    # steps 0, 10, ..., 100 inclusive
    assert [s.step for s in traj.snapshots] == list(range(0, 101, 10))
    snap = traj.final
    assert snap.frame is snap.frame  # built once, cached


def test_input_resampled_to_configured_n():
    traj = run(FlowConfig(n=96, dt=1e-3, t_end=0.05), gen_circle(1.0, 64))
    assert all(s.curve.n == 96 for s in traj.snapshots)


# -- un-normalized flow --------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_shrinking_circle_radius(scheme):
    cfg = FlowConfig(kind=KIND_UNNORMALIZED, n=128, scheme=scheme, dt=1e-4,
                     t_end=0.3, snapshot_every=300)
    traj = run(cfg, gen_circle(1.0, 128))
    assert traj.termination == TERM_END
    for snap in traj.snapshots:
        radius = float(np.hypot(*snap.curve.vertices.T).mean())
        assert abs(radius - math.sqrt(1.0 - 2.0 * snap.time)) < 5e-4


def test_unnormalized_implicit_step_solves_on_the_vertices():
    # the steppers share one body: its right-hand side (1 + dt * 0.0) * v
    # must be v bit for bit
    snap = Snapshot(0.0, 0, gen_ellipse(2.0, 1.0, 64))
    nxt = step_unnormalized(snap, 1e-3, scheme="semi-implicit")
    want = _implicit_laplacian_solve(snap.curve.edge_lengths, 1e-3, snap.curve.vertices)
    assert np.array_equal(nxt.curve.vertices, want)


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_time_stepping_is_first_order(scheme):
    """Halving dt halves the radius error against a fine-dt reference."""

    def final_radius(dt):
        cfg = FlowConfig(kind=KIND_UNNORMALIZED, n=64, scheme=scheme, dt=dt,
                         t_end=0.3, snapshot_every=10**9, resample_every=0)
        traj = run(cfg, gen_circle(1.0, 64))
        assert traj.final.time == pytest.approx(0.3, abs=1e-12)
        return float(np.hypot(*traj.final.curve.vertices.T).mean())

    reference = final_radius(5e-5)
    err_coarse = abs(final_radius(8e-4) - reference)
    err_fine = abs(final_radius(4e-4) - reference)
    assert math.log2(err_coarse / err_fine) > 0.9


def test_area_decreases_at_rate_two_pi():
    cfg = FlowConfig(kind=KIND_UNNORMALIZED, n=256, dt=2e-4, t_end=0.15,
                     snapshot_every=10, resample_every=0)
    traj = run(cfg, gen_ellipse(2.0, 1.0, 256))
    areas = np.array([s.frame.area for s in traj.snapshots])
    assert np.all(np.diff(areas) < 0.0)
    rates = np.diff(areas) / np.diff(traj.times)
    products = np.array(
        [s.frame.k_max * s.frame.edge_lengths.mean() for s in traj.snapshots]
    )
    window = products[:-1] < 0.1
    assert window.all()  # N = 256 keeps the whole run inside the regime
    assert np.max(np.abs(rates / (-TWO_PI) - 1.0)) < 0.02


def test_blow_up_is_reported_not_raised():
    # integrating a shrinking circle past extinction at tau = 1/2
    cfg = FlowConfig(kind=KIND_UNNORMALIZED, n=64, dt=1e-3, t_end=2.0)
    traj = run(cfg, gen_circle(1.0, 64))
    assert traj.termination == TERM_BLOWUP
    assert traj.final.time < 0.55
    adaptive = FlowConfig(kind=KIND_UNNORMALIZED, n=64, scheme="explicit",
                          dt=1e-3, adaptive=True, t_end=2.0)
    traj2 = run(adaptive, gen_circle(1.0, 64))
    assert traj2.termination == TERM_BLOWUP
    assert traj2.final.time == pytest.approx(0.5, abs=5e-3)


# -- clock maps -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_cumulative_trapezoid_matches_scipy_bit_for_bit(n):
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(1e-3, 1.0, n))
    y = rng.normal(size=n) * np.exp(rng.uniform(-20.0, 20.0, n))
    got = _cumulative_trapezoid(y, x)
    want = cumulative_trapezoid(y, x, initial=0.0)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_normalize_time_map_matches_circle_integral():
    """t(tau) = -log(1 - 2 tau)/2 for the shrinking unit circle."""
    clock = normalize_trajectory(exact_shrinking_circle())[1]
    assert abs(float(clock.t_of_tau(0.375)) - math.log(2.0)) < 1e-6
    tau = np.linspace(0.0, 0.45, 101)
    exact = -0.5 * np.log(1.0 - 2.0 * tau)
    assert np.max(np.abs(clock.t_of_tau(tau) - exact)) < 1e-6
    assert clock.t_of_tau(0.0) == 0.0


def test_normalized_output_is_canonical():
    norm, _ = normalize_trajectory(exact_shrinking_circle())
    assert norm.kind == KIND_NORMALIZED
    assert np.all(np.diff(norm.times) > 0.0)
    for snap in norm.snapshots:
        assert abs(snap.frame.length - TWO_PI) < 1e-9 * TWO_PI


def test_recover_circle_extinction_time():
    """lam = e^{-t}, tau(t) = (1 - e^{-2t})/2 for the canonical circle."""
    t = np.linspace(0.0, 3.0, 30001)
    dense = DenseSeries(time=t, length=np.full_like(t, TWO_PI),
                        k_max=np.ones_like(t), avg_k2=np.ones_like(t))
    snaps = [Snapshot(float(tv), i, regular_polygon(TWO_PI / (2 * 256 * math.sin(math.pi / 256)), 256))
             for i, tv in enumerate(t[:: 10000])]
    norm = Trajectory(kind=KIND_NORMALIZED, snapshots=snaps,
                      termination=TERM_END, dense=dense)
    recovered, clock = recover_unnormalized(norm, L0=TWO_PI)
    assert clock.lam_of_t(0.0) == 1.0
    assert clock.tau_of_t(0.0) == 0.0
    assert float(clock.lam_of_t(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-7)
    expected_tau = 0.5 * (1.0 - math.exp(-6.0))
    assert float(clock.tau_of_t(3.0)) == pytest.approx(expected_tau, abs=1e-6)
    assert recovered.kind == KIND_UNNORMALIZED


def test_round_trip_on_consistent_data_is_quadrature_exact():
    original = exact_shrinking_circle()
    norm, _ = normalize_trajectory(original)
    back, _ = recover_unnormalized(norm, L0=float(original.dense.length[0]))
    for before, after in zip(original.snapshots, back.snapshots):
        scale = float(np.abs(before.curve.vertices).max())
        dv = float(np.abs(after.curve.vertices - before.curve.vertices).max())
        assert dv / scale < 1e-6
        assert abs(after.time - before.time) < 1e-6


def test_round_trip_on_real_run():
    """Scheme O(dt) bias plus the polygon length defect stay within 1e-4."""
    cfg = FlowConfig(kind=KIND_UNNORMALIZED, n=256, dt=5e-5, t_end=0.2,
                     snapshot_every=50)
    original = run(cfg, gen_circle(1.0, 256))
    norm, _ = normalize_trajectory(original)
    back, _ = recover_unnormalized(norm, L0=float(original.dense.length[0]))
    worst = 0.0
    for before, after in zip(original.snapshots, back.snapshots):
        scale = float(np.abs(before.curve.vertices).max())
        dv = float(np.abs(after.curve.vertices - before.curve.vertices).max())
        worst = max(worst, dv / scale)
    assert worst < 1e-4


def test_clock_direction_guards():
    with pytest.raises(WrongRunKind):
        normalize_trajectory(normalize_trajectory(exact_shrinking_circle())[0])
    with pytest.raises(WrongRunKind):
        recover_unnormalized(exact_shrinking_circle(), L0=TWO_PI)
    norm, _ = normalize_trajectory(exact_shrinking_circle())
    with pytest.raises(DomainError):
        recover_unnormalized(norm, L0=-1.0)
