"""Bound checks and convergence metrics along normalized trajectories.

Three inequality checks, one per theorem-level statement: the chord
comparison Z = d - f(l, t - t_bar) >= 0 for every pair at every time, the
decay sup a(t) <= e^{t_bar - t}, and the curvature bound
k_max(t)^2 <= 1 + 2 e^{-2(t - t_bar)}. The offset t_bar is measured once,
on the first snapshot; everything later must ride below the barrier it
sets. Convergence metrics quantify the approach to the unit circle.

All checks read the per-snapshot pair profiles, which dominate the cost.
Every check and :func:`convergence_metrics` requires them as an argument:
compute them once per trajectory with :func:`snapshot_profiles`, one
profile per snapshot, and pass the same list to each.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .comparison import ProfileSummary, profile
from .dynamics import KIND_NORMALIZED, Trajectory
from .errors import DomainError, WrongRunKind
from .geometry import cyclic_shift

TWO_PI = 2.0 * math.pi

log = logging.getLogger(__name__)


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


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


@dataclass(frozen=True)
class ConvergenceMetrics:
    """Per-snapshot distances from the unit circle.

    ``l2_dev`` is the integral of (k-1)^2 against arclength, ``sup_dev`` is
    max|k-1|, the circle fit is the dual-weighted centroid with its mean
    radius, ``circle_dist`` the largest vertex deviation from that circle,
    and ``sup_dk`` the largest first difference quotient of curvature.
    ``identity_residual`` measures the rewriting of the L2 deviation as
    int k^2 ds - 4*pi + L, exact up to the discrete total-turning error.
    """

    time: np.ndarray
    l2_dev: np.ndarray
    sup_dev: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    circle_dist: np.ndarray
    sup_dk: np.ndarray
    identity_residual: np.ndarray
    l2_bound: np.ndarray
    identity_pass: bool

    def __post_init__(self):
        for name in ("l2_dev", "sup_dev", "circle_dist", "sup_dk"):
            if np.any(getattr(self, name) < 0.0):
                raise DomainError(f"negative convergence metric: {name}")
        if np.any(self.radius <= 0.0):
            raise DomainError("non-positive fitted radius")

    def l2_report(self, tol_rel: float = 0.05) -> BoundReport:
        # the bound underflows to 0 on round-circle runs; floor the scale
        margin = (self.l2_bound - self.l2_dev) / np.maximum(self.l2_bound, 1e-12)
        return BoundReport(
            name="l2-curvature-bound",
            time=self.time,
            measured=self.l2_dev,
            bound=self.l2_bound,
            margin=margin,
            tolerance=tol_rel,
        )


def _require_normalized(traj: Trajectory, op: str) -> None:
    if traj.kind != KIND_NORMALIZED:
        raise WrongRunKind(f"{op} needs a normalized trajectory", kind=traj.kind)


def snapshot_profiles(traj: Trajectory) -> list[ProfileSummary]:
    """Pair profiles of every snapshot, one profile each, with Z evaluated
    against the offset frozen at the first snapshot (the first snapshot's
    own). The dominant cost of all bound checks."""
    _require_normalized(traj, "snapshot_profiles")
    first, *rest = traj.snapshots
    head = profile(first.frame, t=first.time)
    return [head] + [profile(s.frame, offset=head.offset, t=s.time) for s in rest]


def geometric_tolerance(traj: Trajectory) -> float:
    """Discretization credit 10 (2*pi/N)^2 for pointwise chord bounds."""
    return 10.0 * (TWO_PI / traj.snapshots[0].curve.n) ** 2


def check_distance_comparison(
    traj: Trajectory, profiles: list[ProfileSummary]
) -> BoundReport:
    """Chord comparison d >= f(l, t - t_bar) over all pairs and snapshots.

    t_bar comes from the first snapshot only; the report's measured value is
    the per-snapshot minimum of Z = d - f(l, t - t_bar), checked against 0
    with the mesh credit of :func:`geometric_tolerance` as tolerance.
    """
    _require_normalized(traj, "check_distance_comparison")
    time = traj.times
    min_z = np.array([p.min_z for p in profiles])
    tol = geometric_tolerance(traj)

    worst = int(np.argmin(min_z))
    log.info(
        "distance comparison: min Z = %.3e at t = %.3f, pair %s",
        min_z[worst],
        time[worst],
        profiles[worst].min_z_pair,
    )
    return BoundReport(
        name="distance-comparison",
        time=time,
        measured=min_z,
        bound=np.zeros_like(min_z),
        margin=min_z,
        tolerance=tol,
    )


def check_abar_decay(
    traj: Trajectory, profiles: list[ProfileSummary]
) -> BoundReport:
    """Exponential decay of the supremal ratio: log sup a(t) <= t_bar - t.

    Snapshots where sup a = 0 satisfy the bound trivially and are left out
    of the series; the additive slack covers root-solve and mesh error.
    """
    _require_normalized(traj, "check_abar_decay")
    t_bar = profiles[0].t_bar
    time = traj.times
    keep = np.array([p.a_bar > 0.0 for p in profiles])
    time = time[keep]
    measured = np.array([math.log(p.a_bar) for p, k in zip(profiles, keep) if k])
    bound = t_bar - time
    margin = bound - measured
    tol = 0.05
    return BoundReport(
        name="abar-decay",
        time=time,
        measured=measured,
        bound=bound,
        margin=margin,
        tolerance=tol,
    )


def check_curvature_bound(
    traj: Trajectory, profiles: list[ProfileSummary]
) -> BoundReport:
    """Supremal curvature against k_max(t)^2 <= 1 + 2 e^{-2(t - t_bar)}.

    The margin is relative to the bound, so the 2% tolerance is
    multiplicative; with a round-circle offset the bound degenerates to
    k_max^2 <= 1.
    """
    _require_normalized(traj, "check_curvature_bound")
    t_bar = profiles[0].t_bar
    time = traj.times
    k_max = np.array([s.frame.k_max for s in traj.snapshots])
    measured = k_max**2
    with np.errstate(over="ignore"):
        bound = 1.0 + 2.0 * np.exp(-2.0 * (time - t_bar))
    margin = (bound - measured) / bound
    tol = 0.02
    # monotone headroom is an empirical observation, not a theorem: once the
    # curve is round, bound - measured tends to 0 from above, so long runs
    # are expected to trip this. Logged only, never a failure.
    late = (bound - measured)[time >= 1.0]
    if late.size >= 2 and np.any(np.diff(late) < -1e-9):
        log.warning("curvature-bound margin not monotone after t = 1")
    return BoundReport(
        name="curvature-bound",
        time=time,
        measured=measured,
        bound=bound,
        margin=margin,
        tolerance=tol,
    )


def convergence_metrics(
    traj: Trajectory, profiles: list[ProfileSummary]
) -> ConvergenceMetrics:
    """Distance-to-circle metrics per snapshot, with the L2 decay bound.

    Also evaluates the quadrature identity int (k-1)^2 ds = int k^2 ds
    - 4*pi + L on every snapshot (tolerance 1e-8) and the bound
    int (k-1)^2 ds <= 2 e^{-2(t - t_bar)} at 5% relative slack.
    """
    _require_normalized(traj, "convergence_metrics")
    t_bar = profiles[0].t_bar
    n_snap = len(traj.snapshots)

    time = traj.times
    l2_dev = np.empty(n_snap)
    sup_dev = np.empty(n_snap)
    center = np.empty((n_snap, 2))
    radius = np.empty(n_snap)
    circle_dist = np.empty(n_snap)
    sup_dk = np.empty(n_snap)
    identity_residual = np.empty(n_snap)

    for i, snap in enumerate(traj.snapshots):
        fr = snap.frame
        k, w = fr.curvature, fr.dual_weights
        l2_dev[i] = float(np.sum((k - 1.0) ** 2 * w))
        sup_dev[i] = float(np.max(np.abs(k - 1.0)))
        identity_residual[i] = abs(
            l2_dev[i] - (float(np.sum(k * k * w)) - 4.0 * math.pi + fr.length)
        )
        c = np.sum(fr.vertices * w[:, None], axis=0) / fr.length
        rho = np.hypot(*(fr.vertices - c).T)
        r = float(np.sum(rho * w) / fr.length)
        center[i] = c
        radius[i] = r
        circle_dist[i] = float(np.max(np.abs(rho - r)))
        sup_dk[i] = float(np.max(np.abs(cyclic_shift(k, -1) - k) / fr.edge_lengths))

    k_min = np.array([s.frame.k_min for s in traj.snapshots])
    if k_min[0] <= 0.0 and np.any(k_min > 0.0):
        cross = int(np.argmax(k_min > 0.0))
        log.info("curvature positive from t = %.4f on", time[cross])

    with np.errstate(over="ignore"):
        l2_bound = 2.0 * np.exp(-2.0 * (time - t_bar))
    return ConvergenceMetrics(
        time=time,
        l2_dev=l2_dev,
        sup_dev=sup_dev,
        center=center,
        radius=radius,
        circle_dist=circle_dist,
        sup_dk=sup_dk,
        identity_residual=identity_residual,
        l2_bound=l2_bound,
        identity_pass=bool(np.all(identity_residual <= 1e-8)),
    )

