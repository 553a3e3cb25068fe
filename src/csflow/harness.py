"""Run orchestration: test-curve generators, run directories, identities.

The CLI in :mod:`csflow.cli` is a thin argument layer over this module.
A run is described by a :class:`RunSpec` (initial curve, flow settings,
requested bound checks, output directory), executed by :func:`execute`,
and persisted as a directory holding ``config.json`` (spec echo, the
checks that ran, initial curve hash, code version),
``snapshots/curve_NNNNNN.json``, ``series.csv`` (one row per snapshot), and
one JSON report per bound check.

:func:`execute` measures every snapshot once into a
:class:`~csflow.diagnostics.Measures` record; the reports, ``series.csv``
and the verdict are all read from it. Bound checks apply to normalized
runs; an un-normalized run records the flow columns of the series and
skips them.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .comparison import (
    AnalyticEllipse,
    IdentityReport,
    check_f_shape,
    check_g_positive,
    check_h_convex,
    check_L_dominates,
    check_Ltilde,
    check_small_sep_taylor,
    ratio_table,
)
from . import diagnostics
from .diagnostics import FRAME_COLUMNS, PROFILE_COLUMNS, BoundReport, Measures
from .diagnostics import identity_holds, measure
from .dynamics import KIND_NORMALIZED, TERM_END, FlowConfig, Trajectory, run
from .errors import (
    ConfigError,
    DegenerateCurve,
    GenerationFailure,
    NotEmbedded,
)
from .geometry import (
    DiscreteCurve,
    _fmt,
    _fmt_rows,
    build_frame,
    canonical_scale,
    is_embedded,
    load_curve,
    resample_uniform,
    save_curve,
)

TWO_PI = 2.0 * math.pi

# check name -> its report, reduced from a run's measures. Each check is
# looked up on the diagnostics module when called, so a wrapper installed
# there (a tracer, a test's monkeypatch) sees every call.
_CHECKS = {
    "distance-comparison": lambda m: diagnostics.check_distance_comparison(m),
    "abar-decay": lambda m: diagnostics.check_abar_decay(m),
    "curvature-bound": lambda m: diagnostics.check_curvature_bound(m),
    "l2-curvature-bound": lambda m: diagnostics.check_l2_bound(m),
}
ALL_CHECKS = tuple(_CHECKS)

_SNAPSHOT_NAME = re.compile(r"curve_\d{6,}\.json")

_FOURIER_AMPLITUDE = 0.15
_FOURIER_ATTEMPTS = 100


def _code_version() -> str:
    from csflow import __version__

    return __version__


# -- generators ---------------------------------------------------------------

def gen_circle(r: float = 1.0, n: int = 512) -> DiscreteCurve:
    """Regular n-gon on the radius-r circle."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ConfigError(f"circle radius must be positive, got {r}")
    u = TWO_PI * np.arange(n) / n
    return DiscreteCurve.from_vertices(
        np.column_stack([r * np.cos(u), r * np.sin(u)]), name="circle"
    )


def gen_ellipse(a: float = 2.0, b: float = 1.0, n: int = 512) -> DiscreteCurve:
    """Axis-aligned ellipse with semi-axes a (x) and b (y), vertices equally
    spaced in arclength (by exact elliptic-integral inversion, so two
    samplings of the same ellipse describe the same curve to rounding)."""
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"ellipse axes must be positive, got a={a}, b={b}")
    swap = b > a
    ell = AnalyticEllipse(b, a) if swap else AnalyticEllipse(a, b)
    targets = ell.perimeter * np.arange(n) / n
    phi = np.array([ell.param_at_arc(0.0, s) for s in targets])
    x = ell.a * np.cos(phi)
    y = ell.b * np.sin(phi)
    vertices = np.column_stack([-y, x]) if swap else np.column_stack([x, y])
    return DiscreteCurve.from_vertices(vertices, name="ellipse")


def gen_dumbbell(neck: float = 0.2, n: int = 512) -> DiscreteCurve:
    """Two-lobed embedded curve with a waist; non-convex for small necks.

    Single-valued polar profile r(theta)^2 = c^2 cos(2 theta)
    + sqrt(1 - c^4 sin^2(2 theta)) (a Cassini oval), with c chosen so the
    waist half-width is ``neck`` times the lobe half-length; resampled to
    uniform arclength. A neck too thin for the dense sampling (about 1e-8
    and below, where c rounds to 1 and the waist collapses onto the origin)
    raises GenerationFailure.
    """
    if not (0.0 < neck < 1.0):
        raise ConfigError(f"neck must lie in (0, 1), got {neck}")
    c2 = (1.0 - neck**2) / (1.0 + neck**2)
    theta = TWO_PI * np.arange(8192) / 8192
    # rounding can leave the radicand a hair below 0 where the waist pinches
    r = np.sqrt(
        np.maximum(
            c2 * np.cos(2.0 * theta)
            + np.sqrt(np.maximum(1.0 - c2**2 * np.sin(2.0 * theta) ** 2, 0.0)),
            0.0,
        )
    )
    try:
        dense = DiscreteCurve(
            np.column_stack([r * np.cos(theta), r * np.sin(theta)]), name="dumbbell"
        )
        return resample_uniform(dense, n)
    except DegenerateCurve as exc:
        raise GenerationFailure(
            f"dumbbell sampling failed: {exc}", neck=neck, n=n
        ) from exc


def gen_fourier(seed: int = 1, modes: int = 6, n: int = 512) -> DiscreteCurve:
    """Random smooth perturbation of the unit circle, rejection-sampled
    until embedded.

    Coordinate Fourier coefficients for wavenumbers 2..modes+1 are drawn
    independently with standard deviation 0.15 m^-2; the same seed
    reproduces the same vertices bit for bit.
    """
    if modes < 1:
        raise ConfigError(f"need at least one mode, got {modes}")
    # NumPy's generators take only non-negative integer seeds
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    u = TWO_PI * np.arange(n) / n
    m = np.arange(2, modes + 2)
    basis_c = np.cos(np.outer(m, u))
    basis_s = np.sin(np.outer(m, u))
    for _ in range(_FOURIER_ATTEMPTS):
        coef = rng.normal(0.0, 1.0, size=(4, modes)) * (_FOURIER_AMPLITUDE / m**2)
        x = np.cos(u) + coef[0] @ basis_c + coef[1] @ basis_s
        y = np.sin(u) + coef[2] @ basis_c + coef[3] @ basis_s
        curve = DiscreteCurve.from_vertices(
            np.column_stack([x, y]), name=f"fourier-{seed}"
        )
        if is_embedded(curve):
            return curve
    raise GenerationFailure(
        "no embedded curve found", seed=seed, modes=modes, attempts=_FOURIER_ATTEMPTS
    )


_GENERATORS = {
    "circle": gen_circle,
    "ellipse": gen_ellipse,
    "dumbbell": gen_dumbbell,
    "fourier": gen_fourier,
}


def generate(name: str, params: dict | None = None) -> DiscreteCurve:
    """Dispatch to a named generator; unknown names or parameters, and a
    vertex count ``n`` that a flow would reject, are configuration errors."""
    if name not in _GENERATORS:
        raise ConfigError(
            f"unknown generator {name!r}", known=sorted(_GENERATORS)
        )
    params = params or {}
    if "n" in params:
        FlowConfig(n=params["n"])  # the flow's vertex-count rule, one owner
    try:
        return _GENERATORS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for generator {name!r}: {exc}") from exc


# -- run specification and execution ------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One reproducible run: initial curve source, flow, checks, output.

    Exactly one of ``generator``/``input_path`` must be set. ``seed`` feeds
    the fourier generator and is echoed for provenance either way.
    """

    generator: str | None = "circle"
    params: dict = field(default_factory=dict)
    input_path: str | None = None
    flow: FlowConfig = field(default_factory=FlowConfig)
    checks: tuple[str, ...] = ALL_CHECKS
    outdir: str | None = None
    seed: int = 1

    def __post_init__(self):
        if (self.generator is None) == (self.input_path is None):
            raise ConfigError("exactly one of generator/input_path must be set")
        if self.generator is not None and self.generator not in _GENERATORS:
            raise ConfigError(
                f"unknown generator {self.generator!r}", known=sorted(_GENERATORS)
            )
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}", known=ALL_CHECKS)

    def to_json_dict(self) -> dict:
        return {
            "generator": self.generator,
            "params": dict(self.params),
            "input_path": self.input_path,
            "flow": self.flow.to_json_dict(),
            "checks": list(self.checks),
            "outdir": self.outdir,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunSpec":
        known = set(cls.__dataclass_fields__)
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown run spec fields: {sorted(extra)}")
        data = dict(data)
        if "flow" in data:
            data["flow"] = FlowConfig.from_json_dict(data["flow"])
        if "checks" in data:
            data["checks"] = tuple(data["checks"])
        return cls(**data)


def materialize_curve(spec: RunSpec) -> DiscreteCurve:
    """Load or generate the initial curve of a spec (not yet rescaled)."""
    if spec.input_path is not None:
        return load_curve(spec.input_path)
    params = dict(spec.params)
    params.setdefault("n", spec.flow.n)
    if spec.generator == "fourier":
        params.setdefault("seed", spec.seed)
    return generate(spec.generator, params)


@dataclass
class RunResult:
    """Everything a finished run produced, before/after persistence.

    ``checks`` are the checks that ran: the spec's on a normalized run,
    none on an un-normalized one.
    """

    spec: RunSpec
    initial: DiscreteCurve
    trajectory: Trajectory
    checks: tuple[str, ...]
    measures: Measures
    reports: dict[str, BoundReport]
    passed: bool
    outdir: Path | None = None


def execute(spec: RunSpec, persist: bool = True) -> RunResult:
    """Run a spec end to end: curve, flow, measures, checks, persistence.

    ``passed`` requires the flow to reach its end time, every check that
    ran to hold, and, when the L2 check ran, the quadrature identity to
    hold at every snapshot.
    """
    initial = materialize_curve(spec)
    traj = run(spec.flow, initial)
    checks = spec.checks if traj.kind == KIND_NORMALIZED else ()
    measures = measure(traj, checks)
    reports = {r.name: r for r in (_CHECKS[c](measures) for c in checks)}
    # the identity is judged only where it was measured
    passed = (
        traj.termination == TERM_END
        and all(r.passed for r in reports.values())
        and ("l2-curvature-bound" not in checks or identity_holds(measures))
    )

    result = RunResult(
        spec=spec,
        initial=initial,
        trajectory=traj,
        checks=checks,
        measures=measures,
        reports=reports,
        passed=passed,
    )
    if persist:
        result.outdir = persist_run(result)
    return result


def run_directory(spec: RunSpec) -> Path:
    """Deterministic run directory: explicit outdir, or a slug under the
    output root ($CSFLOW_OUTPUT_ROOT or ./runs) keyed by the spec hash."""
    if spec.outdir is not None:
        return Path(spec.outdir)
    root = Path(os.environ.get("CSFLOW_OUTPUT_ROOT", "runs"))
    blob = json.dumps(spec.to_json_dict(), sort_keys=True).encode()
    stem = spec.generator or Path(spec.input_path).stem
    return root / f"{stem}-{hashlib.sha256(blob).hexdigest()[:8]}"


SERIES_HEADER = "step,time,L,k_max,k_min,avg_k2,area,a_bar,t_bar,min_Z,l2_dev"
# the Measures columns after step, in SERIES_HEADER order
_SERIES_COLUMNS = ("time", *FRAME_COLUMNS, *PROFILE_COLUMNS, "l2_dev")


def write_series_csv(result: RunResult, path: Path) -> None:
    """One row per snapshot of the run's measures; unmeasured columns read nan."""
    m = result.measures
    cols = [getattr(m, c) for c in _SERIES_COLUMNS]
    lines = [SERIES_HEADER]
    for i, step in enumerate(m.step):
        lines.append(",".join([str(step)] + [_fmt(c[i]) for c in cols]))
    path.write_text("\n".join(lines) + "\n")


def persist_run(result: RunResult) -> Path:
    """Write config echo, snapshot curves, series.csv, and check reports.
    Snapshot curves and reports of known checks that this run did not write
    are removed from a reused directory; no other file is touched."""
    outdir = run_directory(result.spec)
    outdir.mkdir(parents=True, exist_ok=True)

    curve_hash = hashlib.sha256(
        np.ascontiguousarray(result.initial.vertices).tobytes()
    ).hexdigest()
    config = {
        "run_spec": result.spec.to_json_dict(),
        "checks_run": list(result.checks),
        "initial_curve_sha256": curve_hash,
        "version": _code_version(),
        "termination": result.trajectory.termination,
        "passed": result.passed,
    }
    (outdir / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )

    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    curves = {f"curve_{s.step:06d}.json": s.curve for s in result.trajectory.snapshots}
    for path in snapdir.iterdir():
        if _SNAPSHOT_NAME.fullmatch(path.name) and path.name not in curves:
            path.unlink()
    for name, curve in curves.items():
        save_curve(curve, snapdir / name)

    write_series_csv(result, outdir / "series.csv")

    reportdir = outdir / "reports"
    reportdir.mkdir(exist_ok=True)
    for name in ALL_CHECKS:
        path = reportdir / f"{name}.json"
        if name in result.reports:
            doc = result.reports[name].to_json_dict()
            path.write_text(json.dumps(doc, indent=2) + "\n")
        else:
            path.unlink(missing_ok=True)
    return outdir


# -- identity suite, static profiling -----------------------------------------

def verify_identities() -> list[IdentityReport]:
    """The full closed-form check suite on analytic inputs."""
    circle = AnalyticEllipse(1.0, 1.0)
    ellipse = AnalyticEllipse(2.0, 1.0)
    return [
        check_Ltilde(),
        check_L_dominates(),
        check_f_shape(),
        check_g_positive(),
        check_h_convex(),
        replace(
            check_small_sep_taylor(circle, 0.0),
            name="small-separation Taylor limit (circle)",
        ),
        replace(
            check_small_sep_taylor(ellipse, 0.0),
            name="small-separation Taylor limit (ellipse pole, k=2)",
        ),
        replace(
            check_small_sep_taylor(ellipse, 0.5 * math.pi),
            name="small-separation Taylor limit (ellipse flat, k=1/4)",
        ),
    ]


def _table_text(ell, d, a) -> bytes:
    """CSV rows "l,d,a" of one block of the ratio table, as the bytes
    :func:`~csflow.geometry._fmt_rows` gives: each float exactly as _fmt
    formats it."""
    return _fmt_rows((ell, d, a))


def profile_curve(path: str | Path, out_csv: str | Path | None = None):
    """Profile a curve file: summary plus the per-pair (l, d, a) table.

    The curve is rescaled to length 2*pi first. Each row block of the table
    is rendered to bytes by :func:`_table_text` where it was solved, and
    written through a binary handle as
    :func:`~csflow.comparison.ratio_table` hands it over, so the table is
    never held whole. A failure deletes the partial table
    when it is a regular file, and never a device or FIFO such as
    /dev/null. Returns the summary and the CSV path written.
    """
    curve = load_curve(path)
    if not is_embedded(curve):
        raise NotEmbedded("cannot profile a self-intersecting curve", path=str(path))
    frame = build_frame(canonical_scale(curve))
    out_csv = (
        Path(out_csv)
        if out_csv is not None
        else Path(path).with_suffix(".profile.csv")
    )
    fh = open(out_csv, "wb")
    try:
        with fh:
            fh.write(b"l,d,a\n")
            summary = ratio_table(frame, _table_text, fh.write)
    except BaseException:
        if out_csv.is_file():  # a truncated table is not a result
            out_csv.unlink()
        raise
    return summary, out_csv
