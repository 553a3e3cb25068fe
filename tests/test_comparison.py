"""Barrier function, ratio solver, profiles, and analytic identity sweeps."""

import collections
import functools
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csflow import comparison, geometry, harness
from csflow.comparison import (
    _BOUND_MARGIN,
    _DIAG_NOISE_FLOOR,
    A_CAP,
    AnalyticEllipse,
    ProfileSummary,
    _MinZ,
    _SupA,
    _a_root,
    _offset_chord_arc,
    _root_lower_bound,
    a_diagonal,
    a_solve,
    check_L_dominates,
    check_Ltilde,
    check_f_shape,
    check_g_positive,
    check_h_convex,
    check_small_sep_taylor,
    f_eval,
    f_t,
    f_x,
    f_xx,
    g_eval,
    h_second,
    profile,
    ratio_table,
)
from csflow.errors import CsflowError, DomainError
from csflow.geometry import all_pairs_chord_arc, build_frame, canonical_scale
from csflow.harness import gen_circle, gen_dumbbell, gen_ellipse, gen_fourier

# root of 2 arctan(a)/a = 1, i.e. a_solve(d=1, ell=pi); computed with an
# independent scipy.optimize.brentq solve of the defining relation
A_CHORD_ONE = 2.3311223704144224

# sup-ratio of the canonical (2,1) ellipse at N = 512, frozen from a
# brute-force sweep: per-pair brentq root of 2 arctan(a u)/a = d over all
# 130816 pairs plus the diagonal family sqrt((k^2-1)/2); attained on the
# diagonal at the max-curvature vertex
ELL512_ABAR = 2.0623351705740145

# same sweep for the canonical neck-0.2 dumbbell at N = 512; attained on the
# off-diagonal neck-spanning pair
DUMB512_ABAR = 5.4843378728311585


# -- closed-form anchor values ------------------------------------------------


def test_f_exact_values():
    assert f_eval(math.pi, 0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert f_eval(0.0, 1.3) == 0.0
    assert f_eval(2 * math.pi, -0.7) == pytest.approx(0.0, abs=1e-15)
    # t -> +inf limit is the round-circle chord, t -> -inf limit is 0
    x = np.linspace(0.3, 2 * math.pi - 0.3, 41)
    assert np.max(np.abs(f_eval(x, 20.0) - 2 * np.sin(x / 2))) < 1e-8
    assert np.max(f_eval(x, -20.0)) < 1.7e-8
    assert f_eval(x, -20.0).min() > 0.0


def test_g_exact_values():
    assert g_eval(1.0) == pytest.approx(math.pi / 4 - 0.5, rel=1e-15)
    assert g_eval(0.0) == 0.0
    assert g_eval(-2.0) == -g_eval(2.0)
    assert g_eval(np.inf) == pytest.approx(math.pi / 2)
    # series branch against mpmath-grade reference at the switch point
    z = 0.009999
    ref = math.atan(z) - z / (1 + z * z)
    assert g_eval(z) == pytest.approx(ref, rel=1e-10)


def _g_whole_array(z, atan_z):
    """_g as first written: the direct form and the series on every element,
    then np.where on |z| < 0.01."""
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = z * z
        direct = atan_z - z / (1.0 + z2)
        series = z * z2 * (
            2.0 / 3.0
            - z2
            * (4.0 / 5.0 - z2 * (6.0 / 7.0 - z2 * (8.0 / 9.0 - z2 * (10.0 / 11.0))))
        )
    return np.where(np.abs(z) < 0.01, series, direct)


def test_g_matches_the_whole_array_expression_bit_for_bit():
    # both sides of the switch at |z| = 0.01, over 16 decades and both signs
    rng = np.random.default_rng(5)
    switch = [0.01, np.nextafter(0.01, 0.0), np.nextafter(0.01, 1.0)]
    mag = np.concatenate([10.0 ** rng.uniform(-8.0, 8.0, 100_000), [0.0], switch])
    z = np.concatenate([mag, -mag])
    want = _g_whole_array(z, np.arctan(z))
    assert np.array_equal(comparison._g(z, np.arctan(z)), want)
    assert np.array_equal(g_eval(z), want)
    for v in (0.005, -0.005, 0.01, 0.02):
        assert g_eval(v) == _g_whole_array(np.asarray(v), np.arctan(v))


def test_arctan_ratio_matches_the_where_form_bit_for_bit():
    # arctan(z)/z with 1 at z <= 0, as np.where over a guarded divisor gave it
    rng = np.random.default_rng(6)
    z = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 100_000), [0.0, np.inf]])
    safe = np.where(z > 0.0, z, 1.0)
    want = np.where(z > 0.0, np.arctan(safe) / safe, 1.0)
    assert np.array_equal(comparison._arctan_ratio(z), want)
    assert comparison._arctan_ratio(np.asarray(0.0)) == 1.0


def test_h_exact_values():
    assert h_second(0.0) == pytest.approx(2.0, rel=1e-15)
    # v -> 1 limit of h'' is 2/3; closer than ~1e-5 the 1 - v^2 cancellation
    # dominates, so probe just outside it
    assert h_second(1.0 - 1e-4) == pytest.approx(2.0 / 3.0, rel=1e-4)


def test_f_t_is_g_in_disguise():
    # df/dt at (pi, 0) = 2 g(1) = pi/2 - 1
    assert f_t(math.pi, 0.0) == pytest.approx(math.pi / 2 - 1.0, rel=1e-14)


def test_domain_rejection():
    with pytest.raises(DomainError):
        f_eval(-0.5, 0.0)
    with pytest.raises(DomainError):
        f_eval(2 * math.pi + 1e-6, 0.0)
    with pytest.raises(DomainError):
        f_eval(1.0, math.nan)
    with pytest.raises(DomainError):
        a_solve(0.0, 1.0)
    with pytest.raises(DomainError):
        a_solve(1.0, 0.9)  # chord exceeds arc
    with pytest.raises(DomainError):
        a_solve(1.0, 3.5)  # arc beyond pi


# -- derivatives against finite differences -----------------------------------


def test_closed_form_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.1, 2 * math.pi - 0.1, size=20)
    t = rng.uniform(-2.0, 3.0, size=20)
    h = 1e-5
    fd_x = (f_eval(x + h, t) - f_eval(x - h, t)) / (2 * h)
    fd_xx = (f_eval(x + h, t) - 2 * f_eval(x, t) + f_eval(x - h, t)) / h**2
    fd_t = (f_eval(x, t + h) - f_eval(x, t - h)) / (2 * h)
    assert np.max(np.abs(fd_x - f_x(x, t)) / (1 + np.abs(f_x(x, t)))) < 1e-6
    assert np.max(np.abs(fd_xx - f_xx(x, t)) / (1 + np.abs(f_xx(x, t)))) < 1e-4
    assert np.max(np.abs(fd_t - f_t(x, t)) / (1 + np.abs(f_t(x, t)))) < 1e-6
    z = rng.uniform(0.02, 10.0, size=20)
    fd_g = (g_eval(z + h) - g_eval(z - h)) / (2 * h)
    g_prime = 2 * z * z / (1 + z * z) ** 2
    assert np.max(np.abs(fd_g - g_prime)) < 1e-9


def test_f_shape_properties_bulk():
    """Concave in x, increasing in t, symmetric about pi; 1000 grid points."""
    x = np.linspace(1e-3, 2 * math.pi - 1e-3, 1000)
    for t in (-3.0, -0.5, 0.0, 1.0, 10.0):
        assert np.all(f_xx(x, t) < 0.0)
        assert np.all(f_t(x, t) > 0.0)
        np.testing.assert_allclose(
            f_eval(x, t), f_eval(2 * math.pi - x, t), rtol=1e-13, atol=1e-15
        )
    # increasing on (0, pi): f_x > 0 strictly left of pi
    assert np.all(f_x(x[x < math.pi - 1e-6], 0.7) > 0.0)


@given(
    x=st.floats(1e-3, math.pi - 1e-3),
    y=st.floats(1e-3, math.pi - 1e-3),
    t=st.floats(-5.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_f_subadditive(x, y, t):
    # concave with f(0) = 0 forces subadditivity
    assert f_eval(x + y, t) <= f_eval(x, t) + f_eval(y, t) + 1e-12


# -- ratio solver --------------------------------------------------------------


def test_a_solve_frozen_oracle():
    assert a_solve(1.0, math.pi) == pytest.approx(A_CHORD_ONE, rel=1e-12)
    # f(pi, 0) = pi/2, so the ratio for that chord is exactly 1
    assert a_solve(math.pi / 2, math.pi) == pytest.approx(1.0, rel=1e-12)


def test_a_solve_round_circle_floor():
    # chords at or above 2 sin(l/2) profile as round
    assert a_solve(2.0, math.pi) == 0.0
    assert a_solve(1.9999, math.pi) > 0.0
    ell = 1.3
    assert a_solve(2 * math.sin(ell / 2) + 1e-12, ell) == 0.0


def test_a_solve_saturates_at_cap():
    # the root pi/d overflows the exp(700) cap for subnormal-scale chords
    assert a_solve(1e-305, math.pi) == A_CAP


@given(
    log_a=st.floats(math.log(1e-6), math.log(1e3)),
    ell=st.floats(0.01, math.pi),
)
@settings(max_examples=300, deadline=None)
def test_a_solve_round_trip_scalar(log_a, ell):
    a = math.exp(log_a)
    u = math.sin(ell / 2)
    d = 2.0 * math.atan(a * u) / a
    a_rec = a_solve(d, ell)
    # conditioning of the inversion: rel error in a amplifies rel error in d
    # by arctan(au)/g(au)
    kappa = math.atan(a * u) / g_eval(a * u)
    assert abs(a_rec - a) <= max(1e-9, 64 * 2.2e-16 * kappa) * a
    if a_rec > 0.0:  # a_rec == 0 means d rounded onto the round-circle chord
        assert abs(2.0 * math.atan(a_rec * u) / a_rec - d) <= 1e-11 * d


def test_a_solve_round_trip_bulk():
    """10^4 seeded pairs across eight decades of a."""
    rng = np.random.default_rng(3)
    a = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), size=10_000))
    ell = rng.uniform(0.01, math.pi, size=10_000)
    u = np.sin(ell / 2)
    d = 2.0 * np.arctan(a * u) / a
    a_rec = a_solve(d, ell)
    kappa = np.arctan(a * u) / g_eval(a * u)
    tol = np.maximum(1e-9, 64 * 2.2e-16 * kappa)
    assert np.all(np.abs(a_rec - a) <= tol * a)
    live = a_rec > 0.0  # zeros are chords that rounded onto the circle chord
    resid = np.abs(2.0 * np.arctan(a_rec[live] * u[live]) / a_rec[live] - d[live])
    assert np.max(resid / d[live]) < 1e-11


def test_a_solve_well_conditioned_range_is_tight():
    rng = np.random.default_rng(4)
    a = np.exp(rng.uniform(math.log(3e-3), math.log(1e3), size=5_000))
    ell = rng.uniform(0.5, math.pi, size=5_000)
    u = np.sin(ell / 2)
    d = 2.0 * np.arctan(a * u) / a
    assert np.max(np.abs(a_solve(d, ell) / a - 1.0)) < 1e-9


def _slow_roots(d, u):
    """The oracle of the root solver: 200 bisection steps in long double on
    2 arctan(a u)/a = d over (0, pi/d), from the float inputs d and u."""
    d = np.asarray(d, dtype=np.longdouble)
    u = np.asarray(u, dtype=np.longdouble)
    lo, hi = np.zeros_like(d), np.pi / d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = 2.0 * np.arctan(mid * u) / mid > d
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def test_a_solve_matches_a_long_double_oracle():
    """Per decade of z = a u from 1e-6 to 1e6, a_solve stays within the
    root's conditioning, about 1.5/z^2 times the rounding of phi, of the
    long double root of the same float inputs."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    for e in range(-6, 7):
        z = 10.0 ** rng.uniform(e - 0.5, e + 0.5, 400)
        ell = rng.uniform(1e-3, math.pi, z.size)
        u = np.sin(0.5 * ell)
        d = _pairs_from_roots(z / u, ell)
        live = d < 2.0 * u  # the smallest z can round onto the circle chord
        d, ell, u = d[live], ell[live], u[live]
        ref = _slow_roots(d, u)
        err = np.abs(a_solve(d, ell) / ref - 1.0).astype(float)
        z_ref = (ref * u).astype(float)
        assert np.all(err <= 3.0 * eps / z_ref**2 + 16.0 * eps), e


def test_a_root_evaluates_arctan_once_per_newton_step(monkeypatch):
    # a guard on the solver's length that reads no clock: five steps, one
    # arctan each, however many pairs share the call
    calls = []
    arctan = np.arctan

    def counting(x, *args, **kwargs):
        calls.append(np.size(x))
        return arctan(x, *args, **kwargs)

    monkeypatch.setattr(np, "arctan", counting)
    d = np.array([1.0, 0.5, 1.9, 1e-3])
    u = np.array([1.0, 0.3, 0.96, 0.5])
    roots = _a_root(d, u)
    assert calls == [d.size] * 5
    monkeypatch.undo()
    np.testing.assert_allclose(2.0 * np.arctan(roots * u) / roots, d, rtol=1e-13)


def test_a_solve_monotone_in_chord():
    # longer chord at fixed arc means rounder, so smaller a
    ell = 2.0
    d = np.linspace(0.2, 2 * math.sin(ell / 2) - 1e-9, 500)
    a = a_solve(d, ell)
    assert np.all(np.diff(a) < 0.0)


def test_a_diagonal_values():
    assert a_diagonal(1.0) == 0.0
    assert a_diagonal(0.3) == 0.0  # flat side of a convex curve
    assert a_diagonal(math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(
        a_diagonal(np.array([1.0, 3.0])), [0.0, 2.0], rtol=1e-15
    )


# -- offsets and the comparison functional -------------------------------------


def z_eval(d, ell, t, t_bar):
    """Oracle of the comparison functional Z = d - f(ell, t - t_bar); at the
    round circle's t_bar = -inf, f(ell, +inf) = 2 sin(ell/2)."""
    if t_bar == -math.inf:
        return d - 2.0 * np.sin(0.5 * ell)
    return d - f_eval(ell, t - t_bar)


def _diagonal_pairs(first):
    """The pair decoder of a block whose position k holds the pair
    (first + k, first + k), as the tests of the folds feed their pairs."""
    return lambda pos: (pos + first, pos + first)


def _min_z(d, ell, t, t_bar):
    """min Z and its pair (k, k) from the profile's fold, over one block."""
    fold = _MinZ(comparison._decay(t, t_bar))
    fold.add(d, np.sin(0.5 * ell), _diagonal_pairs(0))
    return fold.value, fold.pair


def test_z_eval_round_circle_branch():
    # at t_bar = -inf, Z = d - 2 sin(l/2), independent of t
    d, ell = np.array([1.0]), np.array([math.pi])
    assert z_eval(d, ell, 5.0, -math.inf)[0] == pytest.approx(1.0 - 2.0, rel=1e-15)
    for t in (-5.0, 0.0, 5.0):
        assert _min_z(d, ell, t, -math.inf) == (1.0 - 2.0, (0, 0))
    # t_bar = 0: Z = 1.5 - 2 arctan(1)
    d = np.array([1.5])
    assert z_eval(d, ell, 0.0, 0.0)[0] == pytest.approx(1.5 - math.pi / 2, rel=1e-14)
    assert _min_z(d, ell, 0.0, 0.0)[0] == pytest.approx(1.5 - math.pi / 2, rel=1e-14)


def test_profile_rejects_a_nan_or_plus_inf_offset():
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 64)))
    for t_bar, t in ((math.nan, 0.0), (math.inf, 0.0), (0.4, math.nan), (0.4, math.inf)):
        with pytest.raises(DomainError):
            profile(frame, t_bar=t_bar, t=t)
    assert math.isfinite(profile(frame, t_bar=-math.inf, t=0.0).min_z)


# -- whole-curve profiles -------------------------------------------------------


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_circle_profiles_to_exactly_zero(n):
    summary = profile(build_frame(canonical_scale(gen_circle(1.0, n))))
    assert summary.a_bar == 0.0
    assert summary.t_bar == -math.inf
    assert summary.n_active == 0


def test_ellipse_profile_matches_frozen_sweep():
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 512)))
    summary = profile(frame)
    assert summary.a_bar == pytest.approx(ELL512_ABAR, rel=1e-12)
    assert summary.attained[0] == summary.attained[1]  # diagonal family wins
    assert summary.t_bar == pytest.approx(math.log(ELL512_ABAR), rel=1e-12)
    assert summary.offdiagonal_max < summary.a_bar


def test_dumbbell_profile_attained_across_neck():
    frame = build_frame(canonical_scale(gen_dumbbell(0.2, 512)))
    summary = profile(frame)
    assert summary.a_bar == pytest.approx(DUMB512_ABAR, rel=1e-12)
    i, j = summary.attained
    assert i != j  # neck chord beats every diagonal value
    v = frame.vertices
    # the pair straddles the waist: tiny |x|, opposite y
    assert abs(v[i, 0]) < 0.05 and abs(v[j, 0]) < 0.05
    assert v[i, 1] * v[j, 1] < 0.0
    assert summary.offdiagonal_max > summary.diagonal_max


def test_profile_requires_canonical_length():
    with pytest.raises(DomainError):
        profile(build_frame(gen_ellipse(2.0, 1.0, 64)))
    with pytest.raises(DomainError):
        ratio_table(
            build_frame(gen_ellipse(2.0, 1.0, 64)), lambda *b: None, lambda r: None
        )


def test_profile_z_against_own_offset_is_nonnegative():
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 256)))
    base = profile(frame)
    again = profile(frame, t_bar=base.t_bar, t=0.0)
    assert again.min_z is not None and again.min_z_pair is not None
    # the offset was built from this very curve, so Z >= 0 with equality
    # approached at the attaining pair
    assert again.min_z >= -1e-13


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_circle(1.0, 128),
        lambda: gen_ellipse(2.0, 1.0, 256),
        lambda: gen_dumbbell(0.2, 256),
        lambda: gen_fourier(3, 6, 256),
    ],
)
def test_profile_without_offset_uses_own_offset(make):
    frame = build_frame(canonical_scale(make()))
    for t in (0.0, 0.7):
        base = profile(frame, t=t)
        again = profile(frame, t_bar=base.t_bar, t=t)
        assert again == base  # min_z and min_z_pair too, bit for bit


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_circle(1.0, 128),
        lambda: gen_ellipse(2.0, 1.0, 256),
        lambda: gen_dumbbell(0.2, 256),
        lambda: gen_fourier(3, 6, 256),
    ],
)
def test_ratio_table_matches_profile_and_a_solve(make, monkeypatch, pool_starts):
    frame = build_frame(canonical_scale(make()))
    # oracle: one whole-range sweep and a_solve over every pair
    _, _, d_all, ell_all = all_pairs_chord_arc(frame)
    ell_all = np.minimum(ell_all, math.pi)
    a_all = a_solve(d_all, ell_all)
    want = replace(profile(frame), min_z=None, min_z_pair=None)
    for block_pairs in (comparison._BLOCK_PAIRS, 1):  # 1: one row per block
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
        blocks = []
        summary = ratio_table(frame, lambda *b: b, blocks.append)
        if block_pairs == 1:
            assert len(blocks) == frame.n - 1
            assert pool_starts[-1] == 2  # the arrays came back from the workers
        ell, d, a = (np.concatenate(col) for col in zip(*blocks))
        assert np.array_equal(ell, ell_all)
        assert np.array_equal(d, d_all)
        assert np.array_equal(a, a_all)
        assert summary == want
        assert summary.offdiagonal_max == a_all.max()
        assert summary.n_active == np.count_nonzero(a_all)


def test_ratio_table_ties_go_to_the_first_pair(monkeypatch):
    # a fake ratio with wide ties, on a circle whose diagonal values are 0,
    # so the summary shows which of the tied pairs won
    # (12 at each of the 32 antipodal pairs, where u = 1)
    frame = build_frame(canonical_scale(gen_circle(1.0, 64)))
    monkeypatch.setattr(comparison, "_a_values", lambda d, u: np.floor(12.0 * u))
    i_idx, j_idx, _, ell = all_pairs_chord_arc(frame)
    a = np.floor(12.0 * np.sin(0.5 * np.minimum(ell, math.pi)))
    assert np.count_nonzero(a == 12.0) == 32
    im = int(np.argmax(a))
    for block_pairs in (comparison._BLOCK_PAIRS, 1):  # 1: one row per block
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
        summary = ratio_table(frame, lambda *b: None, lambda rendered: None)
        assert summary.attained == (i_idx[im], j_idx[im])
        assert summary.offdiagonal_max == a[im] == 12.0
        assert summary.n_active == np.count_nonzero(a)


def test_pooled_table_raises_the_earliest_failing_block(
    monkeypatch, pool_starts, fault_on_blocks
):
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 512)))  # 8 blocks

    def fail(b, delay=0.0):
        def fault():
            time.sleep(delay)  # lets the later failure finish first
            raise DomainError("seeded table failure", block=b, pair=(1, 2))

        return fault

    fault_on_blocks(frame, {2: fail(2, 0.3), 5: fail(5)})
    with monkeypatch.context() as serial:
        serial.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.raises(DomainError) as serial_exc:
            ratio_table(frame, lambda *b: None, lambda rendered: None)
    assert pool_starts == []
    with pytest.raises(DomainError) as pool_exc:
        ratio_table(frame, lambda *b: None, lambda rendered: None)
    assert pool_starts == [2]
    want, got = serial_exc.value, pool_exc.value
    assert type(got) is type(want)
    assert (got.kind, got.message, got.context) == (want.kind, want.message, want.context)
    assert got.context == {"block": 2, "pair": (1, 2)}
    assert multiprocessing.active_children() == []


def test_dead_table_worker_raises(
    pool_starts, deadline, fault_on_blocks, die_in_worker
):
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 512)))
    fault_on_blocks(frame, {3: die_in_worker})  # task 3, on the last worker
    written = []
    with pytest.raises(CsflowError) as exc:
        ratio_table(frame, lambda *b: None, written.append)
    assert pool_starts == [2]
    assert len(written) == 3  # the blocks before the dead one
    assert exc.value.message == "profile worker exited without a result"
    assert exc.value.context == {"task": 3, "exitcode": 3}
    assert multiprocessing.active_children() == []


def test_one_usable_core_keeps_the_table_serial(monkeypatch, no_pool):
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 512)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    blocks = []
    summary = ratio_table(frame, lambda *b: b, blocks.append)
    assert len(blocks) == len(comparison._block_rows(frame.n)) > 1
    assert summary == replace(profile(frame), min_z=None, min_z_pair=None)


def test_other_threads_keep_the_table_serial(monkeypatch, no_pool):
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 512)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60.0,))
    other.start()
    try:
        summary = ratio_table(frame, lambda *b: None, lambda rendered: None)
    finally:
        release.set()
        other.join(timeout=60.0)
    assert not other.is_alive()
    assert summary == replace(profile(frame), min_z=None, min_z_pair=None)


def test_one_block_table_stays_serial(monkeypatch, no_pool):
    frame = build_frame(canonical_scale(gen_fourier(1, 6, 128)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert len(comparison._block_rows(frame.n)) == 1
    blocks = []
    ratio_table(frame, lambda *b: b, blocks.append)
    assert len(blocks) == 1


def _ratio_table_peak(monkeypatch, render):
    """The summary and the tracemalloc peak of the N = 2048 ratio table,
    rendered by ``render`` and written nowhere. One usable core keeps the
    solve in this process, where tracemalloc sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    frame = build_frame(canonical_scale(gen_fourier(4, 6, 2048)))
    tracemalloc.start()
    try:
        summary = ratio_table(frame, render, lambda rendered: None)
        return summary, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ratio_table_memory_stays_bounded_at_n_2048(monkeypatch):
    # memory guard, no timing: the table is solved and handed out one row
    # block at a time, where one whole-range table peaked near 250 MiB
    summary, peak = _ratio_table_peak(monkeypatch, lambda ell, d, a: None)
    assert summary.n_active > 0
    assert peak < 16 * 2**20


def test_rendered_ratio_table_memory_stays_bounded_at_n_2048(monkeypatch):
    # the same guard with the CSV renderer: each block's text and the
    # encoder's sub-block temporaries add to one block's arrays
    summary, peak = _ratio_table_peak(monkeypatch, harness._table_text)
    assert summary.n_active > 0
    assert peak < 16 * 2**20


# -- the pruned, blocked sweep against the all-roots oracle -----------------------


def _sup_a_all_roots(d, ell):
    """The old supremum: a root for every pair, then argmax and count."""
    a = a_solve(d, ell)
    im = int(np.argmax(a))
    return im, float(a[im]), int(np.count_nonzero(a))


def _blocked_sup_a(d, ell, cuts=()):
    """_SupA fed pair k as (k, k), in the blocks that ``cuts`` marks off;
    its result with the pair read back as k."""
    sup = _SupA()
    bounds = [0, *cuts, d.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        sup.add(d[a:b], np.sin(0.5 * ell[a:b]), _diagonal_pairs(a))
    (i, j), a_max, n_active = sup.result()
    assert i == j
    return i, a_max, n_active


def _profile_all_roots(frame, t_bar=None, t=0.0, pairs=None):
    """The whole profile from one whole-range sweep (or from ``pairs``, its
    arrays): a_solve on every pair, argmax and count, the diagonal family,
    and z_eval with argmin, all in np.triu_indices order."""
    i_idx, j_idx, d, ell = all_pairs_chord_arc(frame) if pairs is None else pairs
    ell = np.minimum(ell, math.pi)
    im, off_max, n_active = _sup_a_all_roots(d, ell)
    k = frame.curvature
    a_diag = np.where(k * k - 1.0 <= _DIAG_NOISE_FLOOR, 0.0, a_diagonal(k))
    i_diag = int(np.argmax(a_diag))
    if a_diag[i_diag] >= off_max:
        a_bar, attained = float(a_diag[i_diag]), (i_diag, i_diag)
    else:
        a_bar, attained = off_max, (int(i_idx[im]), int(j_idx[im]))
    own = math.log(a_bar) if a_bar > 0.0 else -math.inf
    z = z_eval(d, ell, t, own if t_bar is None else t_bar)
    iz = int(np.argmin(z))
    return ProfileSummary(
        a_bar=a_bar,
        t_bar=own,
        attained=attained,
        diagonal_max=float(a_diag[i_diag]),
        offdiagonal_max=off_max,
        n_active=n_active,
        min_z=float(z[iz]),
        min_z_pair=(int(i_idx[iz]), int(j_idx[iz])),
    )


def _pairs_from_roots(a, ell):
    """Chords whose ratio is a at arc ell: d = phi(a) = 2 arctan(a u)/a."""
    u = np.sin(ell / 2)
    return 2.0 * np.arctan(a * u) / a


@st.composite
def chord_arc_arrays(draw):
    """Synthetic (d, ell) arrays: active pairs over 12 decades of a, some of
    them sharing one root across many arcs (near-ties), inactive pairs,
    exact duplicates (ties), and pairs that saturate at A_CAP."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_active = draw(st.integers(0, 300))
    # + 0.0 turns -0.0 into 0.0: sorted() keeps [0.0, -0.0] in that order,
    # and rng.uniform rejects a high below its low by sign
    bounds = draw(st.lists(st.floats(-7.0, 5.0), min_size=2, max_size=2))
    lo, hi = sorted(x + 0.0 for x in bounds)
    ell = rng.uniform(1e-3, math.pi, n_active)
    a = 10.0 ** rng.uniform(lo, hi, n_active)
    n_shared = draw(st.integers(0, n_active))
    if n_shared:
        a[:n_shared] = a[0]
    d = _pairs_from_roots(a, ell)
    n_inactive = draw(st.integers(0, 50))
    ell_in = rng.uniform(1e-3, math.pi, n_inactive)
    d_in = rng.uniform(2.0 * np.sin(ell_in / 2), ell_in)
    n_sat = draw(st.integers(0, 3))
    ell_sat = rng.uniform(0.1, math.pi, n_sat)
    d_sat = np.full(n_sat, 1e-305)
    d = np.concatenate([d, d_in, d_sat])
    ell = np.concatenate([ell, ell_in, ell_sat])
    n_dup = draw(st.integers(0, 20))
    if d.size and n_dup:
        src = rng.integers(0, d.size, n_dup)
        dst = rng.integers(0, d.size, n_dup)
        d[dst], ell[dst] = d[src], ell[src]
    order = rng.permutation(d.size)
    return d[order], ell[order]


@st.composite
def blocked_chord_arc_arrays(draw):
    """chord_arc_arrays cut into blocks at random boundaries, sometimes with
    a copy of the maximal pair just across a boundary (a straddling tie)."""
    d, ell = draw(chord_arc_arrays())
    if d.size < 2:
        return d, ell, []
    cuts = sorted(set(draw(st.lists(st.integers(1, d.size - 1), max_size=12))))
    if cuts and draw(st.booleans()):
        c = draw(st.sampled_from(cuts))
        top = int(np.argmax(a_solve(d, ell)))
        lo = draw(st.integers(0, c - 1))
        d[[lo, c]], ell[[lo, c]] = d[top], ell[top]
    return d, ell, cuts


@given(pairs=blocked_chord_arc_arrays())
@settings(max_examples=300, deadline=None)
def test_sup_a_matches_all_roots_bit_for_bit(pairs):
    d, ell, cuts = pairs
    if d.size == 0:
        return
    want = _sup_a_all_roots(d, ell)
    assert _blocked_sup_a(d, ell) == want
    assert _blocked_sup_a(d, ell, cuts) == want
    assert _blocked_sup_a(d, ell, range(1, d.size)) == want  # one pair per block


@given(pairs=blocked_chord_arc_arrays(), t=st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_blocked_min_z_matches_z_eval_bit_for_bit(pairs, t):
    d, ell, cuts = pairs
    if d.size == 0:
        return
    if cuts:  # a tie at the minimum on both sides of the first boundary
        low = int(np.argmin(z_eval(d, ell, t, 0.3)))
        d[[cuts[0] - 1, cuts[0]]], ell[[cuts[0] - 1, cuts[0]]] = d[low], ell[low]
    for t_bar in (0.3, -math.inf):
        z = z_eval(d, ell, t, t_bar)
        want = float(z.min()), (int(np.argmin(z)),) * 2
        fold = _MinZ(comparison._decay(t, t_bar))
        bounds = [0, *cuts, d.size]
        for a, b in zip(bounds[:-1], bounds[1:]):
            fold.add(d[a:b], np.sin(0.5 * ell[a:b]), _diagonal_pairs(a))
        assert (fold.value, fold.pair) == want


@pytest.mark.parametrize("n", [8, 9, 300])
def test_pair_blocks_tile_every_pair_in_order(n, monkeypatch):
    # the profile's offset blocks hold every pair once, offset by offset and
    # then by the vertex each pair starts from, with the chords and u of the
    # whole-range sweep, bit for bit
    frame = build_frame(canonical_scale(gen_fourier(n, 4, n)))
    i_idx, j_idx, d, ell = all_pairs_chord_arc(frame)
    u = np.sin(0.5 * np.minimum(ell, math.pi))
    flat = np.full((n, n), -1)
    flat[i_idx, j_idx] = np.arange(i_idx.size)
    for block_pairs in (comparison._BLOCK_PAIRS, 1, 7, 10**9):
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
        blocks = list(comparison._offset_blocks(frame))
        if block_pairs < n:
            assert len(blocks) == n // 2  # one offset per block
        seen = []
        for d_blk, u_blk, pairs in blocks:
            i, j = pairs(np.arange(d_blk.size))
            assert np.all(i < j)
            k = flat[i, j]
            assert np.array_equal(d_blk, d[k]) and np.array_equal(u_blk, u[k])
            seen.append(k)
        seen = np.concatenate(seen)
        assert np.array_equal(np.sort(seen), np.arange(i_idx.size))
        gap = (j_idx - i_idx)[seen]
        offset = np.minimum(gap, n - gap)
        start = np.where(gap == offset, i_idx[seen], j_idx[seen])
        assert np.array_equal(np.lexsort((start, offset)), np.arange(seen.size))


def test_sup_a_edge_cases_match_all_roots():
    def check(d, ell):
        want = _sup_a_all_roots(d, ell)
        for cuts in ((), range(1, d.size), (d.size // 2,)):
            assert _blocked_sup_a(d, ell, cuts) == want
        return want

    ell = np.linspace(0.5, math.pi, 7)
    round_chords = 2.0 * np.sin(ell / 2)
    assert _blocked_sup_a(round_chords, ell) == (0, 0.0, 0)  # all inactive
    d = round_chords.copy()
    d[4] *= 0.9  # a single active pair
    assert check(d, ell)[0] == 4
    tied = np.full(6, 1.0), np.full(6, math.pi)  # ties go to the first index
    assert check(*tied)[0] == 0
    sat = np.array([0.5, 1e-305, 1e-306, 1.0]), np.array([1.0, 2.0, 3.0, 3.0])
    assert check(*sat)[:2] == (1, A_CAP)  # both saturate; the first wins
    # the maximum sits in a late block, after a block with a lower maximum
    rising = _pairs_from_roots(np.array([1.0, 2.0, 4.0, 4.0]), np.full(4, 2.0))
    assert check(rising, np.full(4, 2.0))[0] == 2


def _with_bad_pair(d=None, ell=None):
    """A chord/arc kernel for the profile's sweep that corrupts the last
    pair of every block of offsets but the first, and records the
    arguments of each call."""

    def kernel(windows, length, k0, k1):
        kernel.calls.append((windows, length, k0, k1))
        d_blk, ell_blk = _offset_chord_arc(windows, length, k0, k1)
        if k0 > 1 and d_blk.size:
            if d is not None:
                d_blk[-1] = d(ell_blk[-1])
            if ell is not None:
                ell_blk[-1] = ell
        return d_blk, ell_blk

    kernel.calls = []
    return kernel


def test_sup_a_raises_the_domain_errors_of_a_solve(monkeypatch):
    # every block of the sweep is checked like a_solve's input
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, 256)))
    for bad, match in (
        (_with_bad_pair(d=lambda l: 0.0), "chord length must be positive"),
        (_with_bad_pair(d=lambda l: -1.0), "chord length must be positive"),
        (_with_bad_pair(ell=0.0), "arc length"),
    ):
        monkeypatch.setattr(comparison, "_offset_chord_arc", bad)
        with pytest.raises(DomainError, match=match):
            profile(frame)
    past = _with_bad_pair(d=lambda l: l * (1.0 + 2e-9))
    monkeypatch.setattr(comparison, "_offset_chord_arc", past)
    with pytest.raises(DomainError, match="chord exceeds arc") as got:
        profile(frame)
    assert len(past.calls) == 2  # the second block raised
    d, ell = past(*past.calls[-1])
    with pytest.raises(DomainError) as want:
        a_solve(d, np.minimum(ell, math.pi))
    assert got.value.to_json_dict() == want.value.to_json_dict()
    inside = _with_bad_pair(d=lambda l: l * (1.0 + 5e-10))  # within the slack
    monkeypatch.setattr(comparison, "_offset_chord_arc", inside)
    profile(frame)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_circle(1.0, 256),
        lambda: gen_ellipse(2.0, 1.0, 512),
        lambda: gen_dumbbell(0.1, 512),
        lambda: gen_dumbbell(0.2, 512),
        lambda: gen_dumbbell(0.3, 256),
        lambda: gen_dumbbell(0.5, 256),
        lambda: gen_fourier(1, 6, 256),
        lambda: gen_fourier(2, 6, 512),
        lambda: gen_fourier(7, 3, 256),
        lambda: gen_fourier(8, 4, 8),
        lambda: gen_fourier(9, 4, 9),
        lambda: gen_fourier(5, 4, 301),
    ],
)
def test_profile_matches_all_roots_oracle(make, monkeypatch):
    # odd and even N: at even N the offset n/2 holds half a row of pairs
    frame = build_frame(canonical_scale(make()))
    offsets = [(None, 0.0), (None, 0.7), (0.4, 0.3), (-math.inf, 0.0)]
    want = [_profile_all_roots(frame, t_bar, t) for t_bar, t in offsets]
    for block_pairs in (comparison._BLOCK_PAIRS, 1):  # 1: one offset per block
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
        got = [profile(frame, t_bar, t) for t_bar, t in offsets]
        assert got == want  # every field, min_z and min_z_pair too


def _with_tied_pairs(tied, n):
    """A chord/arc kernel for the profile's sweep that gives every pair of
    ``tied`` the arc of the first one swept and a hundredth of it as its
    chord, so that those pairs tie at the lowest Z and the highest a."""
    put = {}  # offset -> the vertices its tied pairs are reached from
    for i, j in tied:
        k = min(j - i, n - (j - i))
        put.setdefault(k, []).append(i if j - i == k else j)

    def kernel(windows, length, k0, k1):
        d, ell = _offset_chord_arc(windows, length, k0, k1)
        for k, starts in sorted(put.items()):
            if k0 <= k < k1:
                for start in starts:
                    pos = (k - k0) * n + start
                    kernel.values = kernel.values or (0.01 * ell[pos], ell[pos])
                    d[pos], ell[pos] = kernel.values
        return d, ell

    kernel.values = None
    return kernel


@pytest.mark.parametrize("block_pairs", [None, 1])
def test_ties_across_the_wrap_go_to_the_first_pair(monkeypatch, block_pairs):
    # at n = 64, pair (29, 63) is reached from vertex 63 at offset 30, after
    # (33, 62) at offset 29 and (31, 61) at offset 30 have been swept; all
    # three tie, and the first in triu order wins both the min of Z and the
    # sup of a. With one offset per block the tie straddles two blocks; at
    # the default size all the offsets share one block.
    n = 64
    frame = build_frame(canonical_scale(gen_ellipse(2.0, 1.0, n)))
    if block_pairs is not None:
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
    tied = [(33, 62), (31, 61), (29, 63)]
    kernel = _with_tied_pairs(tied, n)
    monkeypatch.setattr(comparison, "_offset_chord_arc", kernel)
    got = [profile(frame, t_bar, 0.3) for t_bar in (None, 0.4)]
    # the oracle: the whole-range sweep with the same values at the same pairs
    i_idx, j_idx, d, ell = all_pairs_chord_arc(frame)
    ell = np.minimum(ell, math.pi)
    for i, j in tied:
        k = int(np.flatnonzero((i_idx == i) & (j_idx == j))[0])
        d[k], ell[k] = kernel.values
    arrays = (i_idx, j_idx, d, ell)
    want = [_profile_all_roots(frame, t_bar, 0.3, arrays) for t_bar in (None, 0.4)]
    assert got == want
    for summary in got:
        assert summary.min_z_pair == summary.attained == (29, 63)


def test_profile_builds_no_pair_index_arrays(monkeypatch):
    # call-count guard, no timing: the sweep reads strided windows, so it
    # builds no ragged rows of pair indices and never calls the table's
    # row-block kernel, and it takes one sin per block of offsets
    frame = build_frame(canonical_scale(gen_dumbbell(0.2, 512)))
    calls = collections.Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(geometry, "_row_pairs", counting("rows", geometry._row_pairs))
    for mod in (geometry, comparison):
        monkeypatch.setattr(
            mod, "all_pairs_chord_arc", counting("table", all_pairs_chord_arc)
        )
    monkeypatch.setattr(np, "sin", counting("sin", np.sin))
    for block_pairs in (comparison._BLOCK_PAIRS, 1, 7 * 512):
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
        per = max(1, block_pairs // 512)
        blocks = -(-256 // per)
        for t_bar, sweeps in ((0.4, 1), (None, 2)):
            calls.clear()
            assert profile(frame, t_bar, 0.3).n_active > 0
            assert calls == {"sin": sweeps * blocks}


def test_profile_solves_roots_for_under_one_percent_of_active_pairs(monkeypatch):
    solved = []

    def counting(d, u):
        solved.append(d.size)
        return _a_root(d, u)

    frame = build_frame(canonical_scale(gen_dumbbell(0.2, 512)))
    monkeypatch.setattr(comparison, "_a_root", counting)
    summary = profile(frame)
    assert summary.a_bar == pytest.approx(DUMB512_ABAR, rel=1e-12)
    assert summary.n_active > 60_000
    assert sum(solved) < 0.01 * summary.n_active


@given(pairs=chord_arc_arrays())
@settings(max_examples=300, deadline=None)
def test_prune_level_lies_below_every_computed_root(pairs):
    d, ell = pairs
    u = np.sin(0.5 * ell)
    active = d < 2.0 * u
    d, u = d[active], u[active]
    level = np.minimum(_root_lower_bound(d, u), A_CAP) * (1.0 - _BOUND_MARGIN)
    assert np.all(level < _a_root(d, u))


def test_sup_a_keeps_a_maximum_shared_with_an_ill_conditioned_pair():
    # pair 1 has z = a u near 1e-6, where the computed root strays from the
    # exact root of the stored chord by up to about 1.5 eps/z^2: of the 64
    # chords nearest the one of root 0.5, take the one whose computed root
    # lies furthest above its oracle root
    ell_m = 4e-6
    u_m = float(np.sin(0.5 * ell_m))
    chords = _pairs_from_roots(np.array([0.5]), np.array([ell_m]))
    chords = chords * (1.0 + 2.0**-52 * np.arange(-32, 32))
    computed = _a_root(chords, np.full(chords.size, u_m))
    exact = _slow_roots(chords, np.full(chords.size, u_m)).astype(float)
    k = int(np.argmax(computed / exact))
    assert computed[k] > exact[k] * (1.0 + 1e-6)
    # pair 0, at z = 1e-3, has its root halfway between the two; its bound,
    # within about 0.008 z^2 of that root, puts the prune level above the
    # exact root of pair 1, where phi is flat to about z^2 = 1e-12, so pair
    # 1 reads phi(level) below its chord by no more than rounding
    a_0 = 0.5 * (exact[k] + computed[k])
    ell = np.array([2.0 * math.asin(1e-3 / a_0), ell_m])
    d = np.array([_pairs_from_roots(np.array([a_0]), ell[:1])[0], chords[k]])
    u = np.sin(0.5 * ell)
    level = np.max(_root_lower_bound(d, u)) * (1.0 - _BOUND_MARGIN)
    assert exact[k] < level < _a_root(d, u)[0] < computed[k]
    want = _sup_a_all_roots(d, ell)
    assert want[0] == 1
    assert _blocked_sup_a(d, ell) == want
    assert _blocked_sup_a(d[::-1], ell[::-1]) == (0, *want[1:])


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_ellipse(2.0, 1.0, 256),
        lambda: gen_dumbbell(0.2, 512),
        lambda: gen_fourier(4, 6, 256),
    ],
)
def test_profile_solves_roots_in_one_call(make, monkeypatch):
    calls = []

    def counting(d, u):
        calls.append(d.size)
        return _a_root(d, u)

    frame = build_frame(canonical_scale(make()))
    monkeypatch.setattr(comparison, "_a_root", counting)
    for block_pairs in (comparison._BLOCK_PAIRS, 1):  # 1: one offset per block
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
        for t_bar in (None, 0.4):
            calls.clear()
            assert profile(frame, t_bar, 0.3).n_active > 0
            assert len(calls) == 1


def test_profile_memory_stays_bounded_at_n_2048():
    # memory guard, no timing: the sweep holds one block of offsets at a
    # time, where whole-range arrays of 2,096,128 pairs peaked near 150 MiB
    frame = build_frame(canonical_scale(gen_dumbbell(0.2, 2048)))
    tracemalloc.start()
    try:
        summary = profile(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n_active > 0
    assert peak < 16 * 2**20


# -- identity and inequality sweeps ---------------------------------------------


def test_ltilde_annihilates_f():
    report = check_Ltilde()
    assert report.passed
    assert report.max_residual < 1e-9


def test_ltilde_detects_perturbation(seed_barrier_fault):
    seed_barrier_fault(lambda x: 1e-6 * x)
    broken = check_Ltilde()
    assert not broken.passed
    assert broken.max_residual > 1e-7


def test_l_dominates_ltilde():
    report = check_L_dominates()
    assert report.passed
    assert report.max_violation <= 1e-10


def test_f_shape_report(seed_barrier_fault):
    assert check_f_shape().passed
    seed_barrier_fault(lambda x: 1e-4 * x * x)
    assert not check_f_shape().passed


def test_g_positive_and_h_convex_reports():
    g_rep = check_g_positive()
    h_rep = check_h_convex()
    assert g_rep.passed and h_rep.passed
    assert g_rep.max_violation <= 0.0  # min g(z) over z > 0 never dips below 0
    assert h_rep.max_violation <= 0.0
    payload = g_rep.to_json_dict()
    assert set(payload) == {
        "name", "grid", "max_residual", "max_violation", "tolerance", "pass",
    }


def test_identity_verdict_follows_the_measured_values():
    report = check_g_positive()
    assert report.passed and report.to_json_dict()["pass"] is True
    for field in ("max_residual", "max_violation"):
        worse = replace(report, **{field: 2.0 * report.tolerance})
        assert not worse.passed and worse.to_json_dict()["pass"] is False
        assert not replace(report, **{field: math.nan}).passed


def test_taylor_small_separation_limits():
    circle_rep = check_small_sep_taylor(AnalyticEllipse(1.0, 1.0), 0.0)
    assert circle_rep.passed  # a == a_diagonal == 0 identically on a circle
    pole = check_small_sep_taylor(AnalyticEllipse(2.0, 1.0), 0.0)
    assert pole.passed
    assert pole.max_residual < 1e-4  # a_solve -> a_diagonal(k) at the pole
    assert pole.max_violation <= -0.8  # fitted order ~2, far above the floor
    flat = check_small_sep_taylor(AnalyticEllipse(2.0, 1.0), math.pi / 2)
    assert flat.passed


# -- the analytic ellipse helper --------------------------------------------------


def test_analytic_ellipse_geometry():
    ell = AnalyticEllipse(2.0, 1.0)
    assert ell.perimeter == pytest.approx(9.688448220547675, rel=1e-14)
    assert ell.curvature(0.0) == pytest.approx(2.0, rel=1e-14)
    assert ell.curvature(math.pi / 2) == pytest.approx(0.25, rel=1e-14)
    assert ell.arclength(0.0, 2 * math.pi) == pytest.approx(
        ell.perimeter, rel=1e-12
    )
    # param_at_arc inverts arclength
    phi = ell.param_at_arc(0.3, 1.7)
    assert ell.arclength(0.3, phi) == pytest.approx(1.7, abs=1e-12)
    assert ell.param_at_arc(0.3, 0.0) == 0.3
