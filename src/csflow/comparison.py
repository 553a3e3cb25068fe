"""The chord-comparison machinery: the barrier f, the ratio a, and Z.

The normalized flow keeps total length 2*pi, and chords of an embedded curve
are controlled from below by the barrier

    f(x, t) = 2 e^t arctan(e^{-t} sin(x/2)),

where x is the (shorter) arc separation of the two points. The implicit
ratio a >= 0 of a chord/arc pair (d, l) is defined by d = f(l, -log a); it
vanishes exactly when the chord is at least the round-circle chord
2 sin(l/2), and its supremum over all pairs of a curve (including the
diagonal limit sqrt(max(k^2 - 1, 0) / 2)) gives the time offset
t_bar = log a_bar. The comparison functional is Z = d - f(l, t - t_bar).
The round circle, a_bar = 0, is not a separate case: its t_bar = -inf, and
the same Z reads d - f(l, +inf) = d - 2 sin(l/2).

The check_* functions sweep the closed-form identities and inequalities this
construction rests on (the linearized operator annihilating f, convexity of
arccos^2, shape properties of f, and the small-separation Taylor limits) and
return IdentityReports with measured residuals.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import CsflowError, DomainError
from .geometry import CurveFrame, _row_blocks, all_pairs_chord_arc

TWO_PI = 2.0 * math.pi

# Ratios are capped at exp(LOG_A_CAP); beyond this the root of d = f(l, -log a)
# is numerically indistinguishable from infinity.
LOG_A_CAP = 700.0
A_CAP = math.exp(LOG_A_CAP)

# Curvature measurement floor for the diagonal ratio family (see profile).
_DIAG_NOISE_FLOOR = 1e-10


def _json_float(x: float):
    """x as a JSON number, or None (null) when it is not finite."""
    return float(x) if math.isfinite(x) else None


def _maybe_scalar(arr: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(arr[()]) if scalar else arr


def _validate_x(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError("arc separation must be finite")
    if np.any(x < -1e-12) or np.any(x > TWO_PI + 1e-12):
        bad = x[(x < -1e-12) | (x > TWO_PI + 1e-12)]
        raise DomainError(
            "arc separation outside [0, 2*pi]", value=float(np.ravel(bad)[0])
        )


def _uz(x, t):
    """Common pieces sin(x/2) and z = e^{-t} sin(x/2), overflow-hardened."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    _validate_x(x)
    if not np.all(np.isfinite(t)):
        raise DomainError("time argument must be finite")
    u = np.sin(0.5 * x)
    with np.errstate(over="ignore"):
        z = np.exp(-t) * u
    # e^{-t} may overflow where u == 0; the product is 0 there
    z = np.where(u == 0.0, 0.0, z)
    return u, z


def f_eval(x, t):
    """Barrier value f(x, t) = 2 e^t arctan(e^{-t} sin(x/2)).

    Evaluated as 2 sin(x/2) * arctan(z)/z with z = e^{-t} sin(x/2), which is
    finite for every real t (the limits t -> +-inf are 2 sin(x/2) and 0).

    Parameters
    ----------
    x : float or array
        Arc separation in [0, 2*pi].
    t : float or array
        Time offset, any real; broadcast against x.

    Returns
    -------
    float or ndarray
    """
    scalar = np.isscalar(x) and np.isscalar(t)
    u, z = _uz(x, t)
    return _maybe_scalar(np.asarray(2.0 * u * _arctan_ratio(z)), scalar)


def _arctan_ratio(z):
    """arctan(z)/z for z >= 0, with its limit 1 at z = 0."""
    safe = np.where(z > 0.0, z, 1.0)
    return np.where(z > 0.0, np.arctan(safe) / safe, 1.0)


def f_x(x, t):
    """Closed-form df/dx = cos(x/2) / (1 + e^{-2t} sin^2(x/2))."""
    scalar = np.isscalar(x) and np.isscalar(t)
    _, z = _uz(x, t)
    c = np.cos(0.5 * np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        out = c / (1.0 + z * z)
    return _maybe_scalar(np.asarray(out), scalar)


def f_xx(x, t):
    """Closed-form d2f/dx2; strictly negative on (0, 2*pi).

    Accurate for |t| <= 350 (beyond that e^{-2t} over/underflows; no caller
    needs such offsets for a second derivative).
    """
    scalar = np.isscalar(x) and np.isscalar(t)
    u, z = _uz(x, t)
    c = np.cos(0.5 * np.asarray(x, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = np.exp(-2.0 * np.asarray(t, dtype=float))
        d = 1.0 + z * z
        out = -u * (1.0 + e2 * (1.0 + c * c)) / (2.0 * d * d)
    out = np.where(u == 0.0, 0.0, out)
    return _maybe_scalar(np.asarray(out), scalar)


def f_t(x, t):
    """Closed-form df/dt = 2 e^t g(e^{-t} sin(x/2)); positive on (0, 2*pi)."""
    scalar = np.isscalar(x) and np.isscalar(t)
    _, z = _uz(x, t)
    gz = g_eval(z)
    with np.errstate(over="ignore", invalid="ignore"):
        out = 2.0 * np.exp(np.asarray(t, dtype=float)) * gz
    # e^t may overflow only where g underflowed to 0; the product is 0
    out = np.where(gz == 0.0, 0.0, out)
    return _maybe_scalar(np.asarray(out), scalar)


def g_eval(z):
    """g(z) = arctan(z) - z/(1 + z^2), the monotonicity kernel of f.

    Positive for z > 0 and odd. The direct difference cancels badly for
    small z, so |z| < 0.01 switches to the alternating series
    (2/3)z^3 - (4/5)z^5 + ..., exact to double precision there.
    """
    scalar = np.isscalar(z)
    z = np.asarray(z, dtype=float)
    out = _g(z, np.arctan(z))
    out = np.where(np.isinf(z), np.sign(z) * (0.5 * math.pi), out)
    return _maybe_scalar(out, scalar)


def _g(z: np.ndarray, atan_z: np.ndarray) -> np.ndarray:
    """g(z) for finite z, from z and its precomputed arctan(z) (see g_eval)."""
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = z * z
        direct = atan_z - z / (1.0 + z2)
        series = z * z2 * (
            2.0 / 3.0
            - z2
            * (4.0 / 5.0 - z2 * (6.0 / 7.0 - z2 * (8.0 / 9.0 - z2 * (10.0 / 11.0))))
        )
    return np.where(np.abs(z) < 0.01, series, direct)


def h_second(v):
    """h''(v) = 2/(1-v^2) - 2 v arccos(v)/(1-v^2)^{3/2}, for v in [0, 1)."""
    scalar = np.isscalar(v)
    v = np.asarray(v, dtype=float)
    s = 1.0 - v * v
    out = 2.0 / s - 2.0 * v * np.arccos(v) / s**1.5
    return _maybe_scalar(out, scalar)


# -- the implicit ratio a ----------------------------------------------------

def _phi(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """phi(a) = f(l, log(1/a)) = 2 arctan(a u)/a, strictly decreasing in a."""
    return 2.0 * np.arctan(a * u) / a


def _root_lower_bound(d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Closed-form lower bound on the root of phi(a, u) = d, for d < 2u.

    Shafer's inequality arctan z > 3z / (1 + 2 sqrt(1 + z^2)), z > 0, at
    the root z = a u, where arctan(z)/z = d/2u, solves to
    a > sqrt(3 (2u - d)(6u + d)) / (2 d u). The bound is tight as z -> 0
    and within a factor 3/pi of the root as z -> inf.
    """
    return np.sqrt(3.0 * (2.0 * u - d) * (6.0 * u + d)) / (2.0 * d * u)


def _a_root(d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve phi(a) = d for a > 0, elementwise; requires d < 2u.

    Five Newton steps in theta = log a, theta += (arctan z - d a/2) / g(z)
    with z = a u, from the Shafer bound b (_root_lower_bound), which lies
    within log(pi/3) of the root, each clipped to [log b, log min(pi/d,
    A_CAP)] (phi(pi/d) < d). Every pair takes the same steps in any call.
    The relative error is the root's conditioning, arctan(z)/g(z), about
    1.5/z^2, times an ulp or so: 1e-15 for z >= 1, 3e-4 at z = 1e-6.
    """
    with np.errstate(divide="ignore", over="ignore"):
        hi = np.log(np.minimum(np.pi / d, A_CAP))
        lo = np.minimum(np.log(_root_lower_bound(d, u)), hi)
    th = lo
    for _ in range(5):
        a = np.exp(th)
        z = a * u
        atan_z = np.arctan(z)
        th = np.clip(th + (atan_z - 0.5 * d * a) / _g(z, atan_z), lo, hi)
    return np.exp(th)


def _validate_pairs(d: np.ndarray, ell: np.ndarray) -> None:
    """The chord/arc domain of a_solve: 0 < d <= ell*(1 + 1e-9), ell in (0, pi]."""
    if np.any(d <= 0.0):
        raise DomainError("chord length must be positive")
    if np.any(ell <= 0.0) or np.any(ell > math.pi * (1.0 + 1e-9)):
        raise DomainError("arc length must lie in (0, pi]")
    if np.any(d > ell * (1.0 + 1e-9)):
        i = int(np.argmax(d - ell))
        raise DomainError(
            "chord exceeds arc", d=float(d.flat[i]), ell=float(ell.flat[i])
        )


def a_solve(d, ell):
    """Ratio a >= 0 solving d = f(ell, -log a) for a chord/arc pair.

    Returns 0 when d >= 2 sin(ell/2) (the chord already clears the
    round-circle chord, so the infimum defining a is attained at its floor).
    Otherwise the unique positive root, capped at exp(700), to the accuracy
    its conditioning allows: with z = a sin(ell/2) and eps = 2.2e-16, the
    relative error is about 1.5 eps/z^2 plus a few eps, so about 1e-15 for
    z >= 1, 3e-12 at z = 1e-2 and 3e-4 at z = 1e-6 (see _a_root).

    Parameters
    ----------
    d : float or array
        Chord length, 0 < d <= ell (a hair of slack for rounding).
    ell : float or array
        Arc length in (0, pi].

    Raises
    ------
    DomainError
        If d <= 0, d > ell*(1 + 1e-9), or ell outside (0, pi].
    """
    scalar = np.isscalar(d) and np.isscalar(ell)
    d_arr, ell_arr = np.broadcast_arrays(
        np.asarray(d, dtype=float), np.asarray(ell, dtype=float)
    )
    _validate_pairs(d_arr, ell_arr)
    return _maybe_scalar(_a_values(d_arr, np.sin(0.5 * ell_arr)), scalar)


def _a_values(d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a_solve past its domain check, from the chords d and u = sin(ell/2):
    0 where d >= 2u, the root elsewhere."""
    out = np.zeros_like(d)
    active = d < 2.0 * u
    if np.any(active):
        out[active] = _a_root(d[active], u[active])
    return out


# Relative slack of the prune test phi(A, u) >= d. Rounding in phi is a few
# ulp, so a pair whose root lies at or above A may read phi(A, u) below d by
# about 1e-15 d; this slack keeps such a pair.
_PRUNE_SLACK = 1e-13

# Relative margin that puts the prune level under the closed-form bound,
# and so under every computed root: the solver returns no less than the
# bound, up to the rounding of exp(log b), under 1e-13 (see profile).
_BOUND_MARGIN = 1e-7


class _SupA:
    """Running off-diagonal supremum of a over blocks of pairs fed in order.

    :meth:`result` is bit for bit the pair at np.argmax, the max and
    np.count_nonzero of a_solve over every pair fed, but roots are solved,
    in one call, only for the pairs that survive the prune (see profile).
    """

    def __init__(self):
        self.n_active = 0
        self.floor = 0.0  # running prune level A
        self.first = None  # the first pair fed, the argmax when none is active
        self.kept = []  # (i, j, d, u) of the pairs that passed the prune

    def add(self, i, j, d: np.ndarray, u: np.ndarray) -> None:
        """Fold in checked pairs (i, j), in order, with u = sin(ell/2)."""
        if self.first is None:
            self.first = int(i[0]), int(j[0])
        active = np.flatnonzero(d < 2.0 * u)
        if active.size == 0:
            return
        self.n_active += active.size
        # a pair that fails at the level can neither raise it nor be kept
        active = active[self._passes(d[active], u[active])]
        if active.size == 0:
            return
        d_act, u_act = d[active], u[active]
        bound = min(float(np.max(_root_lower_bound(d_act, u_act))), A_CAP)
        self.floor = max(self.floor, bound * (1.0 - _BOUND_MARGIN))
        keep = active[self._passes(d_act, u_act)]
        self.kept.append((i[keep], j[keep], d[keep], u[keep]))

    def _passes(self, d: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.floor <= 0.0:  # no level yet: every pair passes
            return np.ones(d.shape, dtype=bool)
        return _phi(self.floor, u) >= d * (1.0 - _PRUNE_SLACK)

    def result(self) -> tuple[tuple[int, int], float, int]:
        """First maximal pair, maximum and active count over every pair fed."""
        if self.n_active == 0:
            return self.first, 0.0, 0
        i, j, d, u = (np.concatenate(parts) for parts in zip(*self.kept))
        keep = self._passes(d, u)  # again, at the final floor
        roots = _a_root(d[keep], u[keep])
        k = int(np.argmax(roots))
        return (int(i[keep][k]), int(j[keep][k])), float(roots[k]), self.n_active


def a_diagonal(k):
    """Diagonal (coincident-point) limit of the ratio: sqrt(max(k^2-1, 0)/2)."""
    scalar = np.isscalar(k)
    k = np.asarray(k, dtype=float)
    out = np.sqrt(np.maximum(k * k - 1.0, 0.0) / 2.0)
    return _maybe_scalar(out, scalar)


@dataclass(frozen=True)
class ProfileSummary:
    """Supremal ratio of one curve and where it is attained.

    ``t_bar`` is log(a_bar), and -inf for the round circle's a_bar = 0.
    ``attained`` is a vertex pair (i, j), with i == j when the diagonal
    family wins. ``min_z`` and ``min_z_pair`` are left unset by
    :func:`ratio_table`, which does not evaluate Z.
    """

    a_bar: float
    t_bar: float
    attained: tuple[int, int]
    diagonal_max: float
    offdiagonal_max: float
    n_active: int
    min_z: float | None = None
    min_z_pair: tuple[int, int] | None = None


# Pairs per row block of the profile sweep: small enough that a block's
# temporaries stay in cache, large enough to amortize the per-block calls.
_BLOCK_PAIRS = 2**14


def _require_canonical(frame: CurveFrame) -> None:
    if abs(frame.length - TWO_PI) > 1e-6 * TWO_PI:
        raise DomainError(
            "profile requires a curve of length 2*pi", length=frame.length
        )


def _block_rows(n: int) -> list[tuple[int, int]]:
    """The row blocks ``(i0, i1)`` of the pairs of an n-gon: rows [i0, i1)
    holding at least _BLOCK_PAIRS pairs (or the rest), tiling [0, n - 1) in
    order (row n - 1 holds no pairs)."""
    return _row_blocks(np.arange(n - 1, 0, -1), _BLOCK_PAIRS)


def _pair_block(frame: CurveFrame, i0: int, i1: int):
    """The pairs of rows [i0, i1) of a canonical frame as
    ``(i_idx, j_idx, d, ell, u)``: the pairs, the chords, the shorter arcs
    clipped to pi (the L/2 rounding hair) and u = sin(ell/2), past the
    domain check of a_solve."""
    i_idx, j_idx, d, ell = all_pairs_chord_arc(frame, i0, i1)
    ell = np.minimum(ell, math.pi)
    _validate_pairs(d, ell)
    return i_idx, j_idx, d, ell, np.sin(0.5 * ell)


def _pair_blocks(frame: CurveFrame):
    """Every vertex pair of a canonical frame, one :func:`_pair_block` per
    row block of :func:`_block_rows`, in np.triu_indices order."""
    return (_pair_block(frame, *rows) for rows in _block_rows(frame.n))


def _decay(t: float, t_bar: float):
    """e^{-(t - t_bar)}, the factor that turns each pair's u = sin(l/2) into
    the z of its Z; 0 at t_bar = -inf."""
    if not math.isfinite(t) or math.isnan(t_bar) or t_bar == math.inf:
        raise DomainError(
            "Z needs a finite time and an offset t_bar below +inf", t=t, t_bar=t_bar
        )
    with np.errstate(over="ignore"):
        return np.exp(-np.asarray(t - t_bar))


def _fold_min_z(best, block, e):
    """Running (min Z, pair) after one block; ties go to the first pair.

    Z = d - f(l, t - t_bar) = d - 2u arctan(z)/z, z = e u, from the block's
    own u; e = 0 gives the round circle's Z = d - 2u, bit for bit.
    """
    i_idx, j_idx, d, _, u = block
    z_cmp = d - 2.0 * u * _arctan_ratio(e * u)
    k = int(np.argmin(z_cmp))
    if z_cmp[k] < best[0]:
        return float(z_cmp[k]), (int(i_idx[k]), int(j_idx[k]))
    return best


def _summary(frame, pair_off, off_max, n_active) -> ProfileSummary:
    """Combine the off-diagonal supremum (its pair, maximum and active
    count) with the diagonal family into a ProfileSummary without Z."""
    # Discrete curvature carries rounding noise of order 1e-12 around k = 1,
    # which sqrt(k^2 - 1) would inflate to ~1e-6; values of k^2 - 1 below the
    # measurement floor read as exactly round (a circle must profile to 0).
    k = frame.curvature
    a_diag = np.where(k * k - 1.0 <= _DIAG_NOISE_FLOOR, 0.0, a_diagonal(k))

    im_diag = int(np.argmax(a_diag))
    diag_max = float(a_diag[im_diag])
    if diag_max >= off_max:
        a_bar, attained = diag_max, (im_diag, im_diag)
    else:
        a_bar, attained = off_max, pair_off

    return ProfileSummary(
        a_bar=a_bar,
        t_bar=math.log(a_bar) if a_bar > 0.0 else -math.inf,
        attained=attained,
        diagonal_max=diag_max,
        offdiagonal_max=off_max,
        n_active=n_active,
    )


def profile(
    frame: CurveFrame,
    t_bar: float | None = None,
    t: float = 0.0,
) -> ProfileSummary:
    """Supremum of the ratio a over all vertex pairs and diagonal values, and
    the minimum of Z over all pairs at time ``t``.

    The frame must come from an embedded curve scaled to length 2*pi. Z is
    evaluated against the offset ``t_bar``, a real number or -inf, or
    against the curve's own offset when none is given. ``t`` must be finite.

    The pairs are swept once, in row blocks of about _BLOCK_PAIRS pairs, so
    memory stays O(N + block) and each block's arrays stay in cache. With an
    explicit offset, min Z is reduced in the same sweep; the curve's own
    offset needs a_bar first, so that case sweeps a second time for Z.

    The off-diagonal supremum solves roots in one call, for a few of the
    pairs. A pair is active when d < 2u, u = sin(l/2); the others have
    a = 0. Because phi(a, u) = 2 arctan(a u)/a is strictly decreasing in a,
    a pair's root lies at or above A exactly when phi(A, u) >= d, so one
    evaluation of phi tells whether a pair can reach A. Each block drops
    its active pairs that fail at the running level A (their roots, and so
    their bounds, lie below it), raises the level to
    A = max(A, min(b, A_CAP) (1 - 1e-7)), b the largest closed-form lower
    bound on a remaining pair's root (Shafer's inequality, see
    _root_lower_bound), and keeps the pairs that pass at the new level. At
    the end the kept pairs are tested again at the final A and get their
    roots, in ascending pair order with the same elementwise solver as
    a_solve, so ties still go to the first pair.

    Why no pair that holds the maximum M is dropped. First, the solver
    never returns less than its lower clip, the Shafer bound b (or A_CAP),
    up to the rounding of exp(log b), under 1e-13 relative. So A = min(b,
    A_CAP) (1 - 1e-7) lies below the computed root of the pair whose bound
    set it, which is at most M. Second, phi is strictly decreasing, so at
    the maximal pair phi(A, u) > phi(M, u), which is d up to a few ulp
    (or above d, where M is the cap).
    Where z = a u is small the computed M may lie above the exact root of
    the stored (d, u) by about 1.5/z^2 ulp (3e-4 relative at z = 1e-6), but
    there phi is flat: its relative slope in log a, g(z)/arctan(z), is
    about z^2/1.5, so over that distance phi moves by a few ulp of d only.
    So the computed phi(A, u) reads at least d up to a few ulp, which the
    test's 1e-13 relative slack absorbs. Every pair takes the same solver
    steps in any call, so the result equals a_solve over all pairs followed
    by argmax and count, bit for bit.

    Returns
    -------
    ProfileSummary
    """
    _require_canonical(frame)
    e = None if t_bar is None else _decay(t, t_bar)
    sup = _SupA()
    best_z = (math.inf, None)
    for block in _pair_blocks(frame):
        i_idx, j_idx, d, _, u = block
        sup.add(i_idx, j_idx, d, u)
        if e is not None:
            best_z = _fold_min_z(best_z, block, e)
    summary = _summary(frame, *sup.result())
    if e is None:
        e = _decay(t, summary.t_bar)
        for block in _pair_blocks(frame):
            best_z = _fold_min_z(best_z, block, e)
    return replace(summary, min_z=best_z[0], min_z_pair=best_z[1])


# -- forked workers ----------------------------------------------------------

def _pool_size(tasks: int) -> int:
    """Workers to run ``tasks`` independent tasks with; below 2 means in this
    process.

    A forked child holds only the forking thread, so a lock that another
    thread held stays held in the child: with other threads running, stay
    serial.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), tasks)


def _fork_worker(conn, fn, tasks) -> None:
    """Send ``(True, fn(task))`` for each task in order, or ``(False, error)``
    for the first task that raises, and stop there."""
    try:
        for task in tasks:
            conn.send((True, fn(task)))
    except Exception as exc:
        conn.send((False, exc))


def _fork_map(fn, tasks, workers: int):
    """Yield ``fn(task)`` for each of the sequence ``tasks``, in order,
    computed in ``workers`` forked processes.

    Worker w runs ``tasks[w::workers]`` and sends each result down its own
    one-way pipe; this thread receives task b from pipe b % workers, so the
    results come in task order and a pipe's buffer bounds how far a worker
    runs ahead. ``fn`` and the tasks reach the workers as Process arguments,
    which fork hands over without pickling. (Not multiprocessing.Pool: its
    result-handler thread unpickles each result into a malloc arena of its
    own, which raised peak RSS by about 10% on 1 MB results.)

    A failing task raises its error here, so the error raised is the
    earliest failing task's; a worker that exits without a result raises
    CsflowError with the task and its exit code. The workers are terminated
    and joined when the generator finishes or is closed.
    """
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(workers):
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_fork_worker, args=(send_end, fn, tasks[w::workers]), daemon=True
            )
            proc.start()
            # a worker forked later must not hold this pipe's write end, or a
            # dead worker's pipe would never read as closed
            send_end.close()
            procs.append(proc)
            conns.append(recv_end)
        for b in range(len(tasks)):
            w = b % workers
            try:
                ok, value = conns[w].recv()
            except EOFError:
                procs[w].join()
                raise CsflowError(
                    "profile worker exited without a result",
                    task=b,
                    exitcode=procs[w].exitcode,
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


# -- the ratio table ---------------------------------------------------------

def _table_block(frame: CurveFrame, render, rows):
    """One row block of the ratio table: ``render(ell, d, a)`` of the block,
    and its first pair with the maximal a, that maximum and its nonzero
    count."""
    i_idx, j_idx, d, ell, u = _pair_block(frame, *rows)
    a = _a_values(d, u)
    k = int(np.argmax(a))
    pair = int(i_idx[k]), int(j_idx[k])
    return render(ell, d, a), (pair, float(a[k]), int(np.count_nonzero(a)))


def ratio_table(frame: CurveFrame, render, write) -> ProfileSummary:
    """The profile without Z, with the ratio a of every vertex pair, one row
    block at a time: ``render(ell, d, a)`` turns a block into what ``write``
    takes, and ``write`` gets the rendered blocks in np.triu_indices order.

    The blocks are those of the profile sweep, ell clipped to pi, and a is
    a_solve over each block, bit for bit, from the chords and the u that
    the sweep has already checked and computed, so memory stays
    O(N + block). With more than one block and several usable cores (see
    _pool_size), the blocks are solved and rendered in forked workers, which
    send back what ``render`` returns, and only ``write`` runs in this
    process; otherwise, and as the oracle of the pool, one after another
    here. Either way an error is that of the earliest failing block. The
    off-diagonal supremum is the first argmax, maximum and count of the
    same values that :func:`profile` prunes to.
    """
    _require_canonical(frame)
    rows = _block_rows(frame.n)
    unit = functools.partial(_table_block, frame, render)
    workers = _pool_size(len(rows))
    if workers > 1:
        blocks = _fork_map(unit, rows, workers)
    else:
        blocks = (unit(r) for r in rows)
    pair_off, off_max, n_active = (0, 1), 0.0, 0  # (0, 1): the first pair
    with contextlib.closing(blocks):  # a failing write stops the workers too
        for rendered, (pair, a_max, active) in blocks:
            write(rendered)
            if a_max > off_max:  # strict: ties go to the earlier block
                pair_off, off_max = pair, a_max
            n_active += active
    return _summary(frame, pair_off, off_max, n_active)


# -- identity and inequality sweeps ------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one analytic check on a grid.

    ``max_residual`` measures equalities (should be ~0), ``max_violation``
    measures inequalities (positive means violated). A check passes iff both
    are at or below ``tolerance``.
    """

    name: str
    grid: str
    max_residual: float
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        tol = self.tolerance
        return self.max_residual <= tol and self.max_violation <= tol

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "max_residual": _json_float(self.max_residual),
            "max_violation": _json_float(self.max_violation),
            "tolerance": _json_float(self.tolerance),
            "pass": self.passed,
        }


def _report(name, grid, residual, violation, tol) -> IdentityReport:
    return IdentityReport(
        name=name,
        grid=grid,
        max_residual=float(residual),
        max_violation=float(violation),
        tolerance=float(tol),
    )


def _ltilde(x, t):
    """Residual of the linearized operator that f annihilates:

        4 f'' + f - (4 f'/sin(x/2)) (f' - cos(x/2)) - df/dt.
    """
    u = np.sin(0.5 * x)
    c = np.cos(0.5 * x)
    fv = f_eval(x, t)
    fp = f_x(x, t)
    return 4.0 * f_xx(x, t) + fv - (4.0 * fp / u) * (fp - c) - f_t(x, t)


def _l_full(x, t):
    """The full comparison operator 4 f'' + f - f' x + 4 (f'/x) arccos(f')^2
    - df/dt, defined where f' in [0, 1] (x in (0, pi])."""
    fv = f_eval(x, t)
    fp = f_x(x, t)
    acos2 = np.arccos(np.clip(fp, -1.0, 1.0)) ** 2
    return 4.0 * f_xx(x, t) + fv - fp * x + 4.0 * (fp / x) * acos2 - f_t(x, t)


# The time offsets the operator sweeps cover, and the band that keeps the
# x grids off the removable 1/sin(x/2) factor at 0 and 2*pi.
_T_SPAN = (-5.0, 5.0)
_T_TEXT = f"t in [{_T_SPAN[0]:g}, {_T_SPAN[1]:g}]"
_X_MARGIN = 0.01

# Points of the one-dimensional g and h'' sweeps, and of the operator
# sweeps' x by t grid.
_LINE_POINTS = 10_000
_GRID_X = 400
_GRID_T = 101


def _grid(x_lo, x_hi, x_text):
    """The operator sweeps' x by t grid, and its description."""
    x = np.linspace(x_lo, x_hi, _GRID_X)
    t = np.linspace(_T_SPAN[0], _T_SPAN[1], _GRID_T)
    X, T = np.meshgrid(x, t, indexing="ij")
    return X, T, f"{x_text} x {_GRID_X}, {_T_TEXT} x {_GRID_T}"


def check_Ltilde() -> IdentityReport:
    """Sweep |L-tilde f| over x in (0, 2*pi), t in [-5, 5].

    The operator has a removable 1/sin(x/2) factor at both ends, so the grid
    keeps a band of _X_MARGIN away from 0 and 2*pi. Closed-form derivatives
    throughout; tolerance 1e-9.
    """
    x_text = f"x in [{_X_MARGIN:.3g}, 2*pi - {_X_MARGIN:.3g}]"
    X, T, grid = _grid(_X_MARGIN, TWO_PI - _X_MARGIN, x_text)
    resid = np.max(np.abs(_ltilde(X, T)))
    return _report("L-tilde annihilates f", grid, resid, 0.0, 1e-9)


def check_L_dominates() -> IdentityReport:
    """Verify L f >= L-tilde f (hence L f >= 0) on x in (0, pi], t in [-5, 5].

    The gap is the tangent-line estimate of the convex h(v) = arccos(v)^2 at
    v = cos(x/2); the sweep also checks h'' >= 0 on [0, 1 - 1e-6] directly.
    """
    X, T, grid = _grid(_X_MARGIN, math.pi, "x in (0, pi]")
    lf = _l_full(X, T)
    gap = lf - _ltilde(X, T)
    hv = h_second(np.linspace(0.0, 1.0 - 1e-6, _LINE_POINTS))
    violation = max(-float(np.min(gap)), -float(np.min(lf)), -float(np.min(hv)))
    return _report("L dominates L-tilde", grid, 0.0, violation, 1e-10)


def check_f_shape() -> IdentityReport:
    """Shape of the barrier: increasing in t, concave in x, symmetric about
    pi, and vanishing as t -> -inf (max f(x, -20) < 1.6e-8)."""
    X, T, grid = _grid(_X_MARGIN, TWO_PI - _X_MARGIN, "x in (0, 2*pi)")
    x_line = X[:, 0]
    fv = f_eval(X, T)
    mirror = f_eval(TWO_PI - X, T)
    sym = np.max(np.abs(fv - mirror))
    violation = max(
        -float(np.min(f_t(X, T))),  # df/dt must be > 0
        float(np.max(f_xx(X, T))),  # f'' must be < 0
        float(np.max(f_eval(x_line, -20.0))) - 1.6e-8,
    )
    return _report("f shape (monotone/concave/symmetric)", grid, sym, violation, 1e-12)


def check_g_positive() -> IdentityReport:
    """g(z) > 0 for z > 0, anchored by the exact value g(1) = pi/4 - 1/2.

    Sweeps a log-spaced grid spanning the series branch, the direct branch,
    and the saturation regime.
    """
    z = np.logspace(-8.0, 3.0, _LINE_POINTS)
    residual = abs(g_eval(1.0) - (math.pi / 4.0 - 0.5))
    violation = -float(np.min(g_eval(z)))
    grid = f"z in [1e-8, 1e3] log x {_LINE_POINTS}"
    return _report("g positivity", grid, residual, violation, 1e-12)


def check_h_convex() -> IdentityReport:
    """h(v) = arccos(v)^2 is convex on [0, 1): h'' >= 0, with h''(0) = 2.

    Near v = 1 the closed form cancels to its finite limit 2/3; the sweep
    stops at 1 - 1e-6 where roundoff still leaves a positive value.
    """
    v = np.linspace(0.0, 1.0 - 1e-6, _LINE_POINTS)
    residual = abs(h_second(0.0) - 2.0)
    violation = -float(np.min(h_second(v)))
    grid = f"v in [0, 1-1e-6] x {_LINE_POINTS}"
    return _report("h convexity", grid, residual, violation, 1e-12)


# -- analytic test curves and the small-separation limit ---------------------

class AnalyticEllipse:
    """Axis-aligned ellipse (a cos phi, b sin phi) with exact arclength.

    Arclength comes from the incomplete elliptic integral of the second
    kind, so chords and arcs of nearby points carry full double precision;
    that is what the small-separation Taylor checks need. Requires a >= b.
    Its methods import the SciPy functions they call, so that only the
    identity suite and the ellipse generator load scipy.special and
    scipy.optimize.
    """

    def __init__(self, a: float, b: float):
        if not (a >= b > 0.0):
            raise DomainError("AnalyticEllipse needs a >= b > 0", a=a, b=b)
        self.a = float(a)
        self.b = float(b)
        self.m = 1.0 - (b / a) ** 2  # elliptic modulus

    def point(self, phi: float) -> np.ndarray:
        return np.array([self.a * math.cos(phi), self.b * math.sin(phi)])

    def curvature(self, phi: float) -> float:
        w = (self.a * math.sin(phi)) ** 2 + (self.b * math.cos(phi)) ** 2
        return self.a * self.b / w**1.5

    def arclength(self, phi0: float, phi1: float) -> float:
        from scipy.special import ellipeinc

        # d s/d phi = a sqrt(1 - m cos^2 phi) = a sqrt(1 - m sin^2(pi/2 - phi))
        s = lambda p: -self.a * float(ellipeinc(0.5 * math.pi - p, self.m))
        return s(phi1) - s(phi0)

    @property
    def perimeter(self) -> float:
        return self.arclength(0.0, TWO_PI)

    def param_at_arc(self, phi0: float, ds: float) -> float:
        """Parameter phi with arclength(phi0, phi) = ds (signed)."""
        from scipy.optimize import brentq

        if ds == 0.0:
            return phi0
        lo, hi = sorted((phi0 + ds / self.a, phi0 + ds / self.b))
        pad = 1e-9 * (1.0 + abs(ds))
        return brentq(
            lambda p: self.arclength(phi0, p) - ds,
            lo - pad,
            hi + pad,
            xtol=1e-14,
            rtol=4 * np.finfo(float).eps,
        )


# Arc windows of the small-separation check: eps = 2^-3 ... 2^-10.
_TAYLOR_EPS = 2.0 ** -np.arange(3, 11)


def check_small_sep_taylor(curve: AnalyticEllipse, center: float) -> IdentityReport:
    """Small-separation limits at one point of an analytic curve.

    For arc windows of length eps centered (in arclength) at ``center``,
    the chord d and arc l = eps must satisfy (l - d)/l^3 -> k^2/24 with
    observed order >= 1 in eps, and a_solve(d, l) -> a_diagonal(k), over
    the windows _TAYLOR_EPS. Points whose Taylor gap sits below the
    double-precision floor of the chord computation are excluded from the
    order fit.
    """
    k0 = curve.curvature(center)
    target = k0 * k0 / 24.0

    gaps = []
    a_vals = []
    for eps in _TAYLOR_EPS:
        p = curve.point(curve.param_at_arc(center, +0.5 * eps))
        q = curve.point(curve.param_at_arc(center, -0.5 * eps))
        d = float(np.hypot(*(p - q)))
        gaps.append(abs((eps - d) / eps**3 - target))
        a_vals.append(a_solve(d, eps))
    gaps = np.asarray(gaps)

    a_err = abs(a_vals[-1] - a_diagonal(k0))
    floor = 100.0 * 1e-15 / _TAYLOR_EPS**3  # chord roundoff over l^3
    usable = gaps > floor
    if np.count_nonzero(usable) >= 3:
        slope = np.polyfit(np.log(_TAYLOR_EPS[usable]), np.log(gaps[usable]), 1)[0]
        order = float(slope)
    else:
        order = math.inf  # gap already at roundoff: converged faster than fit
    grid = (
        f"eps in [{_TAYLOR_EPS.min():.3g}, {_TAYLOR_EPS.max():.3g}] x "
        f"{_TAYLOR_EPS.size}, center={center:.4g}, k={k0:.6g}"
    )
    return _report(
        "small-separation Taylor limit", grid, a_err, 1.0 - order, 1e-2
    )
