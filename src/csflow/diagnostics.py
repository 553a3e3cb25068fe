"""Per-snapshot measures of a normalized run, and the bound checks over them.

One pass, :func:`measure`, walks a trajectory once and keeps what each
snapshot measured in one columnar record, :class:`Measures`: the frame
scalars, the pair profile (a_bar, t_bar, min Z, with the pair profiles
themselves, which dominate the cost) and the distances from the unit
circle. ``series.csv``, the bound reports and a run's verdict are all read
from that record.

Four checks reduce it, one per theorem-level statement: the chord
comparison Z = d - f(l, t - t_bar) >= 0 for every pair at every time, the
decay sup a(t) <= e^{t_bar - t}, the curvature bound
k_max(t)^2 <= 1 + 2 e^{-2(t - t_bar)}, and the L2 convergence
int (k-1)^2 ds <= 2 e^{-2(t - t_bar)}. The offset t_bar is measured once,
on the first snapshot; everything later must ride below the barrier it
sets.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .comparison import ProfileSummary, _fork_map, _json_float, _pool_size, profile
from .dynamics import KIND_NORMALIZED, Snapshot, Trajectory
from .errors import DomainError, WrongRunKind
from .geometry import CurveFrame, cyclic_shift

TWO_PI = 2.0 * math.pi

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundReport:
    """Per-snapshot record of one inequality check.

    ``margin`` is oriented so that positive means satisfied: bound minus
    measured for upper bounds, measured minus bound for lower bounds (the
    curvature check stores it relative to the bound). The check passes when
    the worst margin stays at or above ``-tolerance``: always on an empty
    series, never when a margin is NaN.
    """

    name: str
    time: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    tolerance: float

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margin)) if self.margin.size else math.inf

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance

    def to_json_dict(self) -> dict:
        series = [
            {
                "time": _json_float(t),
                "measured": _json_float(m),
                "bound": _json_float(b),
                "margin": _json_float(g),
            }
            for t, m, b, g in zip(self.time, self.measured, self.bound, self.margin)
        ]
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_margin": _json_float(self.worst_margin),
            "series": series,
        }


# the columns that a snapshot's frame, pair profile and circle fit fill
FRAME_COLUMNS = ("length", "k_max", "k_min", "avg_k2", "area")
PROFILE_COLUMNS = ("a_bar", "t_bar", "min_z")
CIRCLE_COLUMNS = (
    "l2_dev", "sup_dev", "radius", "circle_dist", "sup_dk", "identity_residual"
)

# absolute tolerance of the quadrature identity at every snapshot
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class Measures:
    """What :func:`measure` found at each snapshot, one entry per snapshot.

    The frame columns are ``FRAME_COLUMNS``; ``a_bar``, ``t_bar`` and
    ``min_z`` come from the snapshot's pair profile, kept whole in
    ``profiles``; the circle columns are those of
    :func:`convergence_metrics`. A column that was not measured is NaN, and
    ``profiles`` is then None. ``n`` is the first snapshot's vertex count.
    """

    n: int
    step: np.ndarray
    time: np.ndarray
    length: np.ndarray
    k_max: np.ndarray
    k_min: np.ndarray
    avg_k2: np.ndarray
    area: np.ndarray
    a_bar: np.ndarray
    t_bar: np.ndarray
    min_z: np.ndarray
    l2_dev: np.ndarray
    sup_dev: np.ndarray
    radius: np.ndarray
    circle_dist: np.ndarray
    sup_dk: np.ndarray
    identity_residual: np.ndarray
    profiles: list[ProfileSummary] | None = None

    def __post_init__(self):
        for name in ("l2_dev", "sup_dev", "circle_dist", "sup_dk"):
            if np.any(getattr(self, name) < 0.0):
                raise DomainError(f"negative convergence metric: {name}")
        if np.any(self.radius <= 0.0):
            raise DomainError("non-positive fitted radius")


# Later snapshots holding fewer pairs than this in total are profiled in
# this process. On the N = 512 dumbbell's snapshots, 2-core host, a pool of
# two took as long as the serial loop at 2^19 pairs (40 ms) and 55 ms
# against 73 ms at 2^20, so the pool pays from here on.
POOL_MIN_PAIRS = 1 << 20


def snapshot_profiles(traj: Trajectory) -> list[ProfileSummary]:
    """Pair profiles of every snapshot, one profile each, with Z evaluated
    against the offset frozen at the first snapshot (the first snapshot's
    own). The dominant cost of all bound checks.

    The later snapshots are profiled in forked workers across the usable
    cores (see comparison._fork_map), when there are several, no other
    thread runs and the snapshots hold enough pairs to repay the workers'
    start; otherwise, and as the oracle of the pool, one after another.
    Either way the results come in snapshot order, and an error is that of
    the earliest failing snapshot.
    """
    if traj.kind != KIND_NORMALIZED:
        raise WrongRunKind("profiles need a normalized trajectory", kind=traj.kind)
    first, *rest = traj.snapshots
    head = profile(first.frame, t=first.time)

    def later(s: Snapshot) -> ProfileSummary:
        return profile(s.frame, t_bar=head.t_bar, t=s.time)

    pairs = sum(s.curve.n * (s.curve.n - 1) // 2 for s in rest)
    workers = _pool_size(len(rest)) if pairs >= POOL_MIN_PAIRS else 1
    if workers < 2:
        return [head] + [later(s) for s in rest]
    return [head] + list(_fork_map(later, rest, workers))


def convergence_metrics(frame: CurveFrame) -> dict[str, float]:
    """Distances of one frame from the unit circle, keyed by ``CIRCLE_COLUMNS``.

    ``l2_dev`` is the integral of (k-1)^2 against arclength, ``sup_dev`` is
    max|k-1|, the circle fit is the dual-weighted centroid with its mean
    ``radius``, ``circle_dist`` the largest vertex deviation from that
    circle, and ``sup_dk`` the largest first difference quotient of
    curvature. ``identity_residual`` measures the rewriting of the L2
    deviation as int k^2 ds - 4*pi + L, exact up to the discrete
    total-turning error.
    """
    k, w = frame.curvature, frame.dual_weights
    l2_dev = float(np.sum((k - 1.0) ** 2 * w))
    c = np.sum(frame.vertices * w[:, None], axis=0) / frame.length
    rho = np.hypot(*(frame.vertices - c).T)
    r = float(np.sum(rho * w) / frame.length)
    return {
        "l2_dev": l2_dev,
        "sup_dev": float(np.max(np.abs(k - 1.0))),
        "radius": r,
        "circle_dist": float(np.max(np.abs(rho - r))),
        "sup_dk": float(np.max(np.abs(cyclic_shift(k, -1) - k) / frame.edge_lengths)),
        "identity_residual": abs(
            l2_dev - (float(np.sum(k * k * w)) - 4.0 * math.pi + frame.length)
        ),
    }


def measure(traj: Trajectory, checks: Collection[str] = ()) -> Measures:
    """The one pass over a trajectory that every report reads.

    The frame columns are always measured. Any check needs the pair
    profiles, which need a normalized trajectory (WrongRunKind otherwise);
    the "l2-curvature-bound" check also needs the circle columns.
    """
    snaps = traj.snapshots
    frames = [s.frame for s in snaps]
    profiles = snapshot_profiles(traj) if checks else None
    circle = "l2-curvature-bound" in checks
    fits = [convergence_metrics(f) for f in frames] if circle else None
    unmeasured = [math.nan] * len(snaps)
    cols = {k: np.array([getattr(f, k) for f in frames]) for k in FRAME_COLUMNS}
    for k in PROFILE_COLUMNS:
        rows = [getattr(p, k) for p in profiles] if profiles else unmeasured
        cols[k] = np.array(rows)
    for k in CIRCLE_COLUMNS:
        rows = [fit[k] for fit in fits] if fits else unmeasured
        cols[k] = np.array(rows)
    return Measures(
        n=snaps[0].curve.n,
        step=np.array([s.step for s in snaps]),
        time=traj.times,
        profiles=profiles,
        **cols,
    )


def identity_holds(m: Measures) -> bool:
    """Whether the quadrature identity holds within IDENTITY_TOL at every
    snapshot; a NaN residual fails."""
    return bool(m.identity_residual.max() <= IDENTITY_TOL)


def geometric_tolerance(n: int) -> float:
    """Discretization credit 10 (2*pi/N)^2 for pointwise chord bounds."""
    return 10.0 * (TWO_PI / n) ** 2


def check_distance_comparison(m: Measures) -> BoundReport:
    """Chord comparison d >= f(l, t - t_bar) over all pairs and snapshots.

    t_bar comes from the first snapshot only; the report's measured value is
    the per-snapshot minimum of Z = d - f(l, t - t_bar), checked against 0
    with the mesh credit of :func:`geometric_tolerance` as tolerance.
    """
    worst = int(np.argmin(m.min_z))
    log.info(
        "distance comparison: min Z = %.3e at t = %.3f, pair %s",
        m.min_z[worst],
        m.time[worst],
        m.profiles[worst].min_z_pair,
    )
    return BoundReport(
        name="distance-comparison",
        time=m.time,
        measured=m.min_z,
        bound=np.zeros_like(m.min_z),
        margin=m.min_z,
        tolerance=geometric_tolerance(m.n),
    )


def check_abar_decay(m: Measures) -> BoundReport:
    """Exponential decay of the supremal ratio: log sup a(t) <= t_bar - t.

    Snapshots where sup a = 0 satisfy the bound trivially and are left out
    of the series; the additive slack covers root-solve and mesh error.
    """
    keep = m.a_bar > 0.0
    time = m.time[keep]
    measured = np.array([math.log(a) for a in m.a_bar[keep]])
    bound = m.t_bar[0] - time
    return BoundReport(
        name="abar-decay",
        time=time,
        measured=measured,
        bound=bound,
        margin=bound - measured,
        tolerance=0.05,
    )


def check_curvature_bound(m: Measures) -> BoundReport:
    """Supremal curvature against k_max(t)^2 <= 1 + 2 e^{-2(t - t_bar)}.

    The margin is relative to the bound, so the 2% tolerance is
    multiplicative; with a round-circle offset the bound degenerates to
    k_max^2 <= 1.
    """
    time = m.time
    measured = m.k_max**2
    with np.errstate(over="ignore"):
        bound = 1.0 + 2.0 * np.exp(-2.0 * (time - m.t_bar[0]))
    # monotone headroom is an empirical observation, not a theorem: once the
    # curve is round, bound - measured tends to 0 from above, so long runs
    # are expected to trip this. Logged only, never a failure.
    late = (bound - measured)[time >= 1.0]
    if late.size >= 2 and np.any(np.diff(late) < -1e-9):
        log.info("curvature-bound margin not monotone after t = 1")
    return BoundReport(
        name="curvature-bound",
        time=time,
        measured=measured,
        bound=bound,
        margin=(bound - measured) / bound,
        tolerance=0.02,
    )


def check_l2_bound(m: Measures) -> BoundReport:
    """L2 convergence int (k-1)^2 ds <= 2 e^{-2(t - t_bar)} at 5% relative
    slack. Also logs the time from which the curvature is positive, when
    the first snapshot is not convex."""
    if m.k_min[0] <= 0.0 and np.any(m.k_min > 0.0):
        cross = int(np.argmax(m.k_min > 0.0))
        log.info("curvature positive from t = %.4f on", m.time[cross])
    with np.errstate(over="ignore"):
        bound = 2.0 * np.exp(-2.0 * (m.time - m.t_bar[0]))
    # the bound underflows to 0 on round-circle runs; floor the scale
    return BoundReport(
        name="l2-curvature-bound",
        time=m.time,
        measured=m.l2_dev,
        bound=bound,
        margin=(bound - m.l2_dev) / np.maximum(bound, 1e-12),
        tolerance=0.05,
    )
