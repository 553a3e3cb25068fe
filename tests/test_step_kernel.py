"""The flow step kernel against the step it replaced, kept here as an oracle.

The oracle is the step as it was before the kernel: build the whole frame
of the current state, solve implicitly or move explicitly, rescale, and
validate a new ``DiscreteCurve``; the run then builds the new state's whole
frame and records its scalars from it. Every trajectory the kernel makes
must equal the oracle's bit for bit.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csflow.dynamics as dynamics
from csflow.dynamics import (
    SCHEME_EXPLICIT,
    SCHEME_SEMI_IMPLICIT,
    FlowConfig,
    Snapshot,
    run,
    step_normalized,
)
from csflow.errors import ConfigError, DegenerateCurve, DomainError, NumericalBlowup
from csflow.geometry import (
    CurveFrame,
    DiscreteCurve,
    _has_cusp,
    build_frame,
    canonical_scale,
    cyclic_shift,
    signed_area,
)
from csflow.harness import gen_dumbbell, gen_ellipse, gen_fourier

TWO_PI = 2.0 * math.pi


# -- the oracle: the step path before the kernel --------------------------------


def oracle_frame(curve: DiscreteCurve) -> CurveFrame:
    v = curve.vertices
    h = curve.edge_lengths
    mean_h = float(np.mean(h))
    if np.any(h < 1e-12 * mean_h):
        raise DegenerateCurve("edge length below 1e-12 of mean", min_edge=float(h.min()))
    unit = (cyclic_shift(v, -1) - v) / h[:, None]
    unit_prev = cyclic_shift(unit, 1)

    bisector = unit_prev + unit
    norm = np.hypot(bisector[:, 0], bisector[:, 1])
    if np.any(norm < 1e-12):
        raise DegenerateCurve("adjacent edges reverse direction (cusp)")
    tangents = bisector / norm[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

    cross = unit_prev[:, 0] * unit[:, 1] - unit_prev[:, 1] * unit[:, 0]
    dot = unit_prev[:, 0] * unit[:, 0] + unit_prev[:, 1] * unit[:, 1]
    turning = np.arctan2(cross, dot)

    h_prev = cyclic_shift(h, 1)
    w = 0.5 * (h_prev + h)
    k = turning / w

    length = float(np.sum(h))
    s = np.concatenate([[0.0], np.cumsum(h[:-1])])
    avg_k2 = float(np.sum(k * k * w) / length)

    return CurveFrame(
        curve=curve,
        arclength=s,
        length=length,
        tangents=tangents,
        normals=normals,
        turning=turning,
        dual_weights=w,
        curvature=k,
        k_max=float(np.max(np.abs(k))),
        k_min=float(np.min(k)),
        avg_k2=avg_k2,
        area=signed_area(v),
    )


def oracle_cyclic_tridiagonal(lower, diag, upper, rhs):
    from scipy.linalg.lapack import dgtsv

    n = diag.size
    rhs2 = rhs if rhs.ndim == 2 else rhs[:, None]
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= lower[0] * upper[-1] / gamma

    u = np.zeros((n, 1))
    u[0, 0] = gamma
    u[-1, 0] = upper[-1]
    *_, sol, info = dgtsv(lower[1:], d, upper[:-1], np.hstack([rhs2, u]))
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    y, w = sol[:, :-1], sol[:, -1]
    vy = y[0] + (lower[0] / gamma) * y[-1]
    vw = w[0] + (lower[0] / gamma) * w[-1]
    x = y - np.outer(w, vy / (1.0 + vw))
    return x if rhs.ndim == 2 else x[:, 0]


def oracle_laplacian_solve(frame, dt, rhs):
    h = frame.edge_lengths
    h_prev = cyclic_shift(h, 1)
    a = 2.0 / (h_prev * (h_prev + h))
    c = 2.0 / (h * (h_prev + h))
    return oracle_cyclic_tridiagonal(-dt * a, 1.0 + dt * (a + c), -dt * c, rhs)


def oracle_step(snapshot, dt, scheme, normalized):
    frame = snapshot.frame
    k2 = 0.0
    if normalized:
        if abs(frame.length - TWO_PI) > 1e-6 * TWO_PI:
            raise DomainError("normalized step requires length 2*pi", length=frame.length)
        k2 = frame.avg_k2
    if scheme == SCHEME_SEMI_IMPLICIT:
        v = oracle_laplacian_solve(frame, dt, (1.0 + dt * k2) * frame.vertices)
    elif scheme == SCHEME_EXPLICIT and normalized:
        v = frame.vertices + dt * (
            k2 * frame.vertices - frame.curvature[:, None] * frame.normals
        )
    elif scheme == SCHEME_EXPLICIT:
        v = frame.vertices - dt * frame.curvature[:, None] * frame.normals
    else:
        raise ConfigError(f"unknown scheme: {scheme!r}")
    if not np.all(np.isfinite(v)):
        raise NumericalBlowup(
            "non-finite coordinates after step", step=snapshot.step, time=snapshot.time
        )
    if normalized:
        edges = cyclic_shift(v, -1) - v
        v = v * (TWO_PI / float(np.sum(np.hypot(edges[:, 0], edges[:, 1]))))
    curve = DiscreteCurve(v, name=snapshot.curve.name)
    return Snapshot(snapshot.time + dt, snapshot.step + 1, curve)


def oracle_run(config, initial):
    """``dynamics.run`` on the oracle: whole frames from the oracle for every
    state, scalars read off them, and the oracle step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "build_frame", oracle_frame)
        mp.setattr(
            Snapshot,
            "scalars",
            property(lambda s: (s.frame.length, s.frame.k_max, s.frame.avg_k2)),
        )
        mp.setattr(
            dynamics, "step_normalized",
            lambda s, dt, scheme: oracle_step(s, dt, scheme, normalized=True),
        )
        mp.setattr(
            dynamics, "step_unnormalized",
            lambda s, dt, scheme: oracle_step(s, dt, scheme, normalized=False),
        )
        return run(config, initial)


# -- bit for bit against the oracle ------------------------------------------------


@st.composite
def flow_cases(draw):
    n = draw(st.sampled_from([64, 97, 128]))
    shape = draw(st.sampled_from(["fourier", "ellipse", "dumbbell"]))
    if shape == "fourier":
        curve = gen_fourier(draw(st.integers(0, 40)), 6, n)
    elif shape == "ellipse":
        curve = gen_ellipse(2.0, 1.0, n)
    else:
        curve = gen_dumbbell(draw(st.floats(0.1, 0.5)), n)
    scheme = draw(st.sampled_from([SCHEME_SEMI_IMPLICIT, SCHEME_EXPLICIT]))
    dt = 1e-3 if scheme == SCHEME_SEMI_IMPLICIT else 1e-4
    config = FlowConfig(
        kind=draw(st.sampled_from(["normalized", "unnormalized"])),
        n=n,
        scheme=scheme,
        dt=dt,
        adaptive=draw(st.booleans()),
        t_end=40 * dt,
        resample_every=draw(st.sampled_from([0, 3, 20])),
        snapshot_every=draw(st.sampled_from([1, 7, 10])),
    )
    return config, curve


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=flow_cases())
def test_kernel_trajectory_equals_the_oracle_bit_for_bit(case):
    config, curve = case
    got = run(config, curve)
    want = oracle_run(config, curve)
    assert got.termination == want.termination
    assert [s.step for s in got.snapshots] == [s.step for s in want.snapshots]
    for g, w in zip(got.snapshots, want.snapshots):
        assert g.time == w.time
        assert _same_bits(g.curve.vertices, w.curve.vertices)
        assert _same_bits(g.curve.edge_lengths, w.curve.edge_lengths)
    for name in ("time", "length", "k_max", "avg_k2"):
        assert _same_bits(getattr(got.dense, name), getattr(want.dense, name)), name
    # every recorded state's scalars, measured by the kernel, are its frame's
    for s in got.snapshots:
        old = oracle_frame(s.curve)
        assert s.scalars == (s.frame.length, s.frame.k_max, s.frame.avg_k2)
        assert s.scalars == (old.length, old.k_max, old.avg_k2)


@pytest.mark.parametrize(
    "curve",
    [
        gen_ellipse(2.0, 1.0, 64),
        gen_dumbbell(0.1, 97),
        gen_fourier(3, 6, 128),
        canonical_scale(gen_dumbbell(0.3, 256)),
    ],
    ids=["ellipse", "dumbbell-0.1", "fourier-3", "dumbbell-0.3-canonical"],
)
def test_build_frame_equals_the_oracle_bit_for_bit(curve):
    got, want = build_frame(curve), oracle_frame(curve)
    for name in CurveFrame.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert _same_bits(a, b), name
        else:
            assert a == b, name


# -- the cusp screen -----------------------------------------------------------------


def test_cusp_screen_agrees_with_the_plain_test_at_its_boundary():
    """``_has_cusp`` takes the bisector norm only where dot < -0.5; around a
    norm of 1e-12 it must decide as the norm over every vertex does."""
    rng = np.random.default_rng(7)
    n = 64
    phi = rng.uniform(0.0, TWO_PI, n)
    px, py = np.cos(phi), np.sin(phi)
    turn = phi + rng.uniform(-2.0, 2.0, n)  # benign vertices, some with dot < -0.5
    outcomes = set()
    for scale in np.linspace(0.98, 1.02, 81):
        for vertex in (0, 17, n - 1):
            ux, uy = np.cos(turn), np.sin(turn)
            # the reversed edge, off by a vector of length about scale * 1e-12
            eps = scale * 1e-12
            ux[vertex] = -px[vertex] - eps * py[vertex]
            uy[vertex] = -py[vertex] + eps * px[vertex]
            dot = px * ux + py * uy
            plain = bool(np.any(np.hypot(px + ux, py + uy) < 1e-12))
            assert _has_cusp(np.array([px, py]), np.array([ux, uy]), dot) == plain
            outcomes.add(plain)
    assert outcomes == {True, False}  # the sweep straddles the boundary


def test_cusp_screen_finds_an_exact_reversal():
    v = gen_ellipse(2.0, 1.0, 64).vertices.copy()
    v[11] = v[9]
    with pytest.raises(DegenerateCurve, match="cusp"):
        build_frame(DiscreteCurve(v))


# -- the call-count guard ----------------------------------------------------------


# Python-level calls (function and builtin) per semi-implicit normalized step
# at N = 64: 154 before the kernel (96 function, 58 builtin), 42 with it
# (24 and 18), NumPy 2.4.6, SciPy 1.17.1.
_CALLS_PER_STEP = 42


def test_step_makes_few_python_calls():
    snap = step_normalized(Snapshot(0.0, 0, canonical_scale(gen_ellipse(2.0, 1.0, 64))), 1e-3)
    snap = step_normalized(snap, 1e-3)  # imports and caches settled
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    steps = 20
    sys.setprofile(count)
    try:
        for _ in range(steps):
            snap = step_normalized(snap, 1e-3)
    finally:
        sys.setprofile(None)
    # the count includes the call that removes the hook
    assert calls <= _CALLS_PER_STEP * steps + 1, calls / steps
