"""Time integration of the shortening flow and its normalized companion.

Two evolutions share one state representation. The un-normalized flow moves
each vertex by -k nu (curvature times outward normal); the normalized flow
adds the dilation <k^2> F and is followed by an exact rescale to length
2*pi, so normalized trajectories hold L = 2*pi to rounding. Both support an
explicit Euler step and a semi-implicit step that treats the arclength
Laplacian implicitly (cyclic tridiagonal solve), which lifts the dt ~ N^-2
stability restriction.

A run records full snapshots at a configurable cadence plus a dense
per-step scalar series (time, length, k_max, <k^2>); the change-of-variables
maps between the two flows integrate over the dense series, which every
trajectory they take must carry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateCurve,
    DomainError,
    NotEmbedded,
    NumericalBlowup,
    WrongRunKind,
)
from .geometry import (
    DiscreteCurve,
    CurveFrame,
    _edge_lengths,
    build_frame,
    canonical_scale,
    cyclic_shift,
    is_embedded,
    polygon_length,
    resample_uniform,
)

TWO_PI = 2.0 * math.pi

KIND_NORMALIZED = "normalized"
KIND_UNNORMALIZED = "unnormalized"
SCHEME_EXPLICIT = "explicit"
SCHEME_SEMI_IMPLICIT = "semi-implicit"

TERM_END = "reached-end-time"
TERM_SELF_INTERSECT = "self-intersection"
TERM_BLOWUP = "curvature-blow-up"
TERM_STEP_FAILURE = "step-failure"

_MAX_STEPS = 2_000_000
_CURVATURE_CEILING = 1e7


@dataclass(frozen=True)
class FlowConfig:
    """Everything a run needs besides the initial curve.

    ``dt`` is the fixed step, or the cap when ``adaptive`` is set; adaptive
    steps obey dt <= safety / k_max^2 (and the explicit scheme additionally
    dt <= safety * min_edge^2). ``t_end`` is normalized time t or
    un-normalized time tau according to ``kind``.
    """

    kind: str = KIND_NORMALIZED
    n: int = 512
    scheme: str = SCHEME_SEMI_IMPLICIT
    dt: float = 1e-3
    adaptive: bool = False
    safety: float = 0.25
    t_end: float = 6.0
    resample_every: int = 20
    snapshot_every: int = 10

    def __post_init__(self):
        # bool is an int subclass, and a JSON spec may carry any type
        for name in ("n", "resample_every", "snapshot_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("dt", "safety", "t_end"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.adaptive, bool):
            raise ConfigError(f"adaptive must be true or false, got {self.adaptive!r}")
        if self.kind not in (KIND_NORMALIZED, KIND_UNNORMALIZED):
            raise ConfigError(f"unknown run kind: {self.kind!r}")
        if self.scheme not in (SCHEME_EXPLICIT, SCHEME_SEMI_IMPLICIT):
            raise ConfigError(f"unknown scheme: {self.scheme!r}")
        if self.n < 8:
            raise ConfigError(f"vertex count must be at least 8, got {self.n}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"time step must be positive, got {self.dt}")
        if not (0.0 < self.safety <= 0.5):
            raise ConfigError(f"safety factor must lie in (0, 0.5], got {self.safety}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ConfigError(f"end time must be positive and finite, got {self.t_end}")
        if self.resample_every < 0 or self.snapshot_every < 1:
            raise ConfigError(
                "cadence fields must be non-negative (snapshot_every at least 1)"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FlowConfig":
        known = set(cls.__dataclass_fields__)
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown flow config fields: {sorted(extra)}")
        return cls(**data)


class Snapshot:
    """One recorded flow state.

    The geometric frame is derived from the curve on first access and
    cached; snapshots must be treated as immutable once recorded.
    """

    __slots__ = ("time", "step", "curve", "_frame")

    def __init__(self, time: float, step: int, curve: DiscreteCurve):
        self.time = float(time)
        self.step = int(step)
        self.curve = curve
        self._frame = None

    @property
    def frame(self) -> CurveFrame:
        if self._frame is None:
            self._frame = build_frame(self.curve)
        return self._frame

    def __repr__(self) -> str:
        return f"Snapshot(step={self.step}, time={self.time:.6g}, n={self.curve.n})"


@dataclass(frozen=True)
class DenseSeries:
    """Per-step scalars of a run, the quadrature grid for the clock maps."""

    time: np.ndarray
    length: np.ndarray
    k_max: np.ndarray
    avg_k2: np.ndarray


@dataclass
class Trajectory:
    """An ordered family of snapshots of one run."""

    kind: str
    snapshots: list[Snapshot]
    termination: str
    dense: DenseSeries | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (KIND_NORMALIZED, KIND_UNNORMALIZED):
            raise ConfigError(f"unknown trajectory kind: {self.kind!r}")
        if not self.snapshots:
            raise DomainError("trajectory needs at least one snapshot")
        times = np.array([s.time for s in self.snapshots])
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("snapshot times must increase strictly")
        if self.kind == KIND_NORMALIZED:
            for s in self.snapshots:
                drift = abs(polygon_length(s.curve) - TWO_PI) / TWO_PI
                if drift > 1e-9:
                    raise DomainError(
                        "normalized snapshot drifted off length 2*pi",
                        step=s.step,
                        relative_drift=drift,
                    )

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]


@dataclass(frozen=True)
class ClockMap:
    """Sampled change of variables between the two flows.

    Holds matched samples of un-normalized time tau, normalized time t, and
    the scale factor lam = L/(2*pi), with t(0) = 0; query by interpolation.
    """

    tau: np.ndarray
    t: np.ndarray
    lam: np.ndarray
    L0: float

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0) or np.any(np.diff(self.tau) <= 0.0):
            raise DomainError("clock samples must increase strictly")
        if np.any(self.lam <= 0.0):
            raise DomainError("scale factor must stay positive")

    def t_of_tau(self, tau) -> np.ndarray | float:
        return np.interp(tau, self.tau, self.t)

    def tau_of_t(self, t) -> np.ndarray | float:
        return np.interp(t, self.t, self.tau)

    def lam_of_t(self, t) -> np.ndarray | float:
        return np.interp(t, self.t, self.lam)


# -- stepping -----------------------------------------------------------------

def _solve_cyclic_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a cyclic tridiagonal system for one or more right-hand sides.

    Row i couples lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] with
    wrap-around; the corner entries are folded in by a rank-one
    (Sherman-Morrison) correction around LAPACK's tridiagonal solve gtsv.
    """
    # imported here: a process that never solves implicitly loads no SciPy
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
    # v = (1, 0, ..., lower[0]/gamma)
    vy = y[0] + (lower[0] / gamma) * y[-1]
    vw = w[0] + (lower[0] / gamma) * w[-1]
    x = y - np.outer(w, vy / (1.0 + vw))
    return x if rhs.ndim == 2 else x[:, 0]


def _implicit_laplacian_solve(frame: CurveFrame, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt * D_ss) x = rhs on the frame's arclength mesh."""
    h = frame.edge_lengths
    h_prev = cyclic_shift(h, 1)
    a = 2.0 / (h_prev * (h_prev + h))  # weight of x[i-1]
    c = 2.0 / (h * (h_prev + h))  # weight of x[i+1]
    return _solve_cyclic_tridiagonal(-dt * a, 1.0 + dt * (a + c), -dt * c, rhs)


def _step(snapshot: Snapshot, dt: float, scheme: str, normalized: bool) -> Snapshot:
    """The body of both steppers; the normalized flow adds the dilation
    <k^2> F and the rescale to length 2*pi."""
    frame = snapshot.frame
    k2 = 0.0
    if normalized:
        if abs(frame.length - TWO_PI) > 1e-6 * TWO_PI:
            raise DomainError(
                "normalized step requires length 2*pi", length=frame.length
            )
        k2 = frame.avg_k2
    if scheme == SCHEME_SEMI_IMPLICIT:
        # 1 + dt * 0.0 is exactly 1: the un-normalized right-hand side is v
        v = _implicit_laplacian_solve(frame, dt, (1.0 + dt * k2) * frame.vertices)
    elif scheme == SCHEME_EXPLICIT and normalized:  # each flow keeps its rounding
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
    if normalized:  # canonical_scale's factor, read off the raw vertices
        v = v * (TWO_PI / float(np.sum(_edge_lengths(v))))
    curve = DiscreteCurve(v, name=snapshot.curve.name)
    return Snapshot(snapshot.time + dt, snapshot.step + 1, curve)


def step_unnormalized(
    snapshot: Snapshot, dt: float, scheme: str = SCHEME_EXPLICIT
) -> Snapshot:
    """Advance the plain shortening flow by one step of size dt.

    Explicit: each vertex moves by -k nu dt. Semi-implicit: the arclength
    Laplacian (whose action on the embedding is the same normal motion) is
    treated implicitly with coefficients frozen at the current mesh.
    """
    return _step(snapshot, dt, scheme, normalized=False)


def step_normalized(
    snapshot: Snapshot, dt: float, scheme: str = SCHEME_SEMI_IMPLICIT
) -> Snapshot:
    """Advance the length-preserving flow dF/dt = <k^2> F - k nu by dt.

    The dilation coefficient <k^2> is frozen at the current frame; after the
    update the curve is rescaled about the origin to length exactly 2*pi,
    which removes the O(dt^2) secular drift of the dilation term.
    """
    return _step(snapshot, dt, scheme, normalized=True)


def run(config: FlowConfig, initial: DiscreteCurve) -> Trajectory:
    """Integrate the configured flow from an embedded initial curve.

    Resamples to uniform arclength every ``resample_every`` steps, records a
    snapshot every ``snapshot_every`` steps and at ``t_end``, and stops at
    ``t_end`` or on the first failure. Every recorded state, after any
    resample of its step, must pass the embeddedness test. A failure ends
    the trajectory at the state before it, with a termination reason,
    instead of raising; that last state is kept even when it was not
    recorded, and so not tested. This is the only embeddedness test of a
    flow: the initial curve, and its resample to ``config.n``, must pass it
    or the run raises NotEmbedded.
    """
    if not is_embedded(initial):
        raise NotEmbedded("initial curve self-intersects")
    curve = initial
    if curve.n != config.n:
        curve = resample_uniform(curve, config.n)
        if not is_embedded(curve):
            raise NotEmbedded(
                "initial curve self-intersects once resampled", n=config.n
            )
    normalized = config.kind == KIND_NORMALIZED
    if normalized:
        curve = canonical_scale(curve)
    snap = Snapshot(0.0, 0, curve)
    snapshots = [snap]
    dense_time = [snap.time]
    dense_len = [snap.frame.length]
    dense_kmax = [snap.frame.k_max]
    dense_k2 = [snap.frame.avg_k2]
    stepper = step_normalized if normalized else step_unnormalized

    termination = TERM_END
    while snap.time < config.t_end - 1e-12:
        frame = snap.frame
        if frame.k_max > _CURVATURE_CEILING:
            termination = TERM_BLOWUP
            break
        dt = config.dt
        if config.adaptive:
            dt = min(dt, config.safety / frame.k_max**2)
            if config.scheme == SCHEME_EXPLICIT:
                dt = min(dt, config.safety * float(np.min(frame.edge_lengths)) ** 2)
        dt = min(dt, config.t_end - snap.time)
        if dt < 1e-14:
            termination = TERM_BLOWUP if config.adaptive else TERM_STEP_FAILURE
            break
        try:
            nxt = stepper(snap, dt, scheme=config.scheme)
            if (
                config.resample_every > 0
                and nxt.step % config.resample_every == 0
                and nxt.time < config.t_end - 1e-12
            ):
                resampled = resample_uniform(nxt.curve, config.n)
                if normalized:
                    resampled = canonical_scale(resampled)
                nxt = Snapshot(nxt.time, nxt.step, resampled)
            nxt.frame  # built here, so a degenerate frame is a step failure
        except NumericalBlowup:
            termination = TERM_BLOWUP
            break
        except DegenerateCurve:
            termination = TERM_STEP_FAILURE
            break
        recorded = (
            nxt.step % config.snapshot_every == 0
            or nxt.time >= config.t_end - 1e-12
        )
        if recorded and not is_embedded(nxt.curve):
            termination = TERM_SELF_INTERSECT
            break
        snap = nxt
        dense_time.append(snap.time)
        dense_len.append(snap.frame.length)
        dense_kmax.append(snap.frame.k_max)
        dense_k2.append(snap.frame.avg_k2)
        if recorded:
            snapshots.append(snap)
        if len(dense_time) > _MAX_STEPS:
            termination = TERM_STEP_FAILURE
            break
    if snapshots[-1] is not snap:  # an early stop's last state, not tested
        snapshots.append(snap)

    dense = DenseSeries(
        time=np.array(dense_time),
        length=np.array(dense_len),
        k_max=np.array(dense_kmax),
        avg_k2=np.array(dense_k2),
    )
    return Trajectory(
        kind=config.kind,
        snapshots=snapshots,
        termination=termination,
        dense=dense,
    )


# -- change of variables between the flows ------------------------------------

def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of y over x, starting at 0: the same
    operations, in the same order, as SciPy's 1-D
    ``cumulative_trapezoid(y, x, initial=0)``."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def normalize_trajectory(unnorm: Trajectory) -> tuple[Trajectory, ClockMap]:
    """Rescale an un-normalized run to length 2*pi and reparametrize time.

    Applies F = (2*pi/L) F-tilde snapshot-wise and t(tau) as the trapezoidal
    integral of (2*pi/L)^2 over the run's dense series; returns the
    normalized trajectory together with the sampled clock map.
    """
    if unnorm.kind != KIND_UNNORMALIZED:
        raise WrongRunKind("normalize_trajectory needs an un-normalized run")
    d = unnorm.dense
    tau, length, k_max, avg_k2 = d.time, d.length, d.k_max, d.avg_k2
    integrand = (TWO_PI / length) ** 2
    t = _cumulative_trapezoid(integrand, tau)
    lam = length / TWO_PI
    clock = ClockMap(tau=tau, t=t, lam=lam, L0=float(length[0]))

    snap_t = np.interp([s.time for s in unnorm.snapshots], tau, t)
    snapshots = [
        Snapshot(float(ti), s.step, canonical_scale(s.curve))
        for ti, s in zip(snap_t, unnorm.snapshots)
    ]
    dense = DenseSeries(
        time=t, length=np.full_like(t, TWO_PI), k_max=k_max * lam, avg_k2=avg_k2 * lam**2
    )
    traj = Trajectory(
        kind=KIND_NORMALIZED,
        snapshots=snapshots,
        termination=unnorm.termination,
        dense=dense,
    )
    return traj, clock


def recover_unnormalized(norm: Trajectory, L0: float) -> tuple[Trajectory, ClockMap]:
    """Invert the normalization: rebuild the shrinking flow from a
    normalized run and its initial length.

    Uses lam(t) = (L0/2*pi) exp(-int <k^2> dt') and tau = int lam^2 dt'
    (trapezoidal, on the run's dense series), then scales each snapshot
    by lam at its time stamp.
    """
    if norm.kind != KIND_NORMALIZED:
        raise WrongRunKind("recover_unnormalized needs a normalized run")
    if L0 <= 0.0:
        raise DomainError(f"initial length must be positive, got {L0}")
    d = norm.dense
    t, k_max, avg_k2 = d.time, d.k_max, d.avg_k2
    integral = _cumulative_trapezoid(avg_k2, t)
    lam = (L0 / TWO_PI) * np.exp(-integral)
    tau = _cumulative_trapezoid(lam**2, t)
    clock = ClockMap(tau=tau, t=t, lam=lam, L0=float(L0))

    snapshots = []
    for s in norm.snapshots:
        lam_s = float(np.interp(s.time, t, lam))
        tau_s = float(np.interp(s.time, t, tau))
        curve = DiscreteCurve(s.curve.vertices * lam_s, name=s.curve.name)
        snapshots.append(Snapshot(tau_s, s.step, curve))
    dense = DenseSeries(
        time=tau, length=TWO_PI * lam, k_max=k_max / lam, avg_k2=avg_k2 / lam**2
    )
    traj = Trajectory(
        kind=KIND_UNNORMALIZED,
        snapshots=snapshots,
        termination=norm.termination,
        dense=dense,
    )
    return traj, clock
