"""Command line entry point.

Subcommands: ``run`` (integrate a flow and check the bounds along it),
``verify-identities`` (the closed-form check suite), ``profile`` (static
chord/arc profile of a curve file).

Failures surface as a single-line JSON object {kind, message, context} on
standard error with exit status 2; checks that ran but did not hold exit 1.
A file that cannot be read or written is such a failure: its kind is the
OSError's class name and its context holds the path.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .dynamics import (
    KIND_NORMALIZED,
    KIND_UNNORMALIZED,
    SCHEME_EXPLICIT,
    SCHEME_SEMI_IMPLICIT,
    FlowConfig,
)
from .diagnostics import identity_holds
from .errors import CsflowError
from .harness import (
    _GENERATORS,
    ALL_CHECKS,
    RunResult,
    RunSpec,
    execute,
    profile_curve,
    verify_identities,
)


# each generator's shape flags with their help; a flag's default is the
# generator's own keyword default
_SHAPE_FLAGS = {
    "circle": {"r": "circle radius"},
    "ellipse": {"a": "ellipse x semi-axis", "b": "ellipse y semi-axis"},
    "dumbbell": {"neck": "dumbbell waist ratio"},
    "fourier": {"modes": "fourier mode count"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csflow",
        description="Shortening-flow laboratory: runs, bound checks, identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = FlowConfig()

    p_run = sub.add_parser("run", help="integrate a flow and check bounds")
    src = p_run.add_mutually_exclusive_group()
    src.add_argument(
        "--generator",
        choices=list(_GENERATORS),
        default=None,
        help="initial curve family (default: circle)",
    )
    src.add_argument("--input", default=None, help="curve file (.json or .csv)")
    for generator, flags in _SHAPE_FLAGS.items():
        params = inspect.signature(_GENERATORS[generator]).parameters
        for name, text in flags.items():
            value = params[name].default
            p_run.add_argument(f"--{name}", type=type(value), default=value, help=text)
    p_run.add_argument(
        "--seed", type=int, default=RunSpec.seed, help="generator RNG seed"
    )
    p_run.add_argument("--n", type=int, default=defaults.n, help="vertex count")
    p_run.add_argument(
        "--kind", choices=[KIND_NORMALIZED, KIND_UNNORMALIZED], default=defaults.kind
    )
    p_run.add_argument(
        "--scheme",
        choices=[SCHEME_EXPLICIT, SCHEME_SEMI_IMPLICIT],
        default=defaults.scheme,
    )
    p_run.add_argument(
        "--dt", type=float, default=defaults.dt, help="step (or adaptive cap)"
    )
    p_run.add_argument("--adaptive", action="store_true", help="adapt dt to k_max")
    p_run.add_argument(
        "--safety", type=float, default=defaults.safety, help="adaptive factor"
    )
    p_run.add_argument("--t-end", type=float, default=defaults.t_end, help="end time")
    p_run.add_argument(
        "--resample-every", type=int, default=defaults.resample_every, metavar="STEPS"
    )
    p_run.add_argument(
        "--snapshot-every", type=int, default=defaults.snapshot_every, metavar="STEPS"
    )
    p_run.add_argument(
        "--embed-check-every",
        type=int,
        default=defaults.embed_check_every,
        metavar="STEPS",
    )
    p_run.add_argument(
        "--check",
        action="append",
        choices=list(ALL_CHECKS) + ["all", "none"],
        default=None,
        help="bound check to run (repeatable; default all)",
    )
    p_run.add_argument("--outdir", default=None, help="run directory (default: slug)")
    p_run.add_argument(
        "--no-persist", action="store_true", help="skip writing the run directory"
    )
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-identities", help="closed-form check suite")
    p_ver.add_argument("--grid-x", type=int, default=400, help="x resolution")
    p_ver.add_argument("--grid-t", type=int, default=101, help="t resolution")
    p_ver.set_defaults(func=_cmd_verify)

    p_prof = sub.add_parser("profile", help="chord/arc profile of a curve file")
    p_prof.add_argument("input", help="curve file (.json or .csv)")
    p_prof.add_argument("--out", default=None, help="pair table CSV path")
    p_prof.set_defaults(func=_cmd_profile)
    return parser


def _resolve_checks(raw: list[str] | None) -> tuple[str, ...]:
    if raw is None or "all" in raw:
        return ALL_CHECKS
    if "none" in raw:
        return ()
    # keep canonical order, drop duplicates
    return tuple(c for c in ALL_CHECKS if c in raw)


def _cmd_run(args) -> int:
    generator = args.generator
    if generator is None and args.input is None:
        generator = RunSpec.generator
    params = {}
    if generator is not None:
        params = {k: getattr(args, k) for k in _SHAPE_FLAGS[generator]}
    # every FlowConfig field has a flag of the same name
    flow = FlowConfig(**{k: getattr(args, k) for k in FlowConfig.__dataclass_fields__})
    spec = RunSpec(
        generator=generator,
        params=params,
        input_path=args.input,
        flow=flow,
        checks=_resolve_checks(args.check),
        outdir=args.outdir,
        seed=args.seed,
    )
    result = execute(spec, persist=not args.no_persist)
    print_run(result)
    return 0 if result.passed else 1


def print_run(result: RunResult) -> None:
    """The lines ``csflow run`` prints for a finished run: how it ended,
    the requested checks it skipped, each report's verdict, the quadrature
    identity when the L2 check ran, and the run directory when one was
    written."""
    print(f"termination: {result.trajectory.termination}")
    final = result.trajectory.final
    print(f"final: t = {final.time:.6g}, steps = {final.step}")
    if result.spec.checks and not result.checks:
        skipped = ", ".join(result.spec.checks)
        print(f"checks skipped (they need a normalized run): {skipped}")
    for name, report in result.reports.items():
        status = "pass" if report.passed else "FAIL"
        print(f"{name}: {status} (worst margin {report.worst_margin:.3e})")
    if "l2-curvature-bound" in result.checks:
        status = "pass" if identity_holds(result.measures) else "FAIL"
        worst = float(result.measures.identity_residual.max())
        print(f"quadrature-identity: {status} (worst residual {worst:.3e})")
    if result.outdir is not None:
        print(f"run directory: {result.outdir}")


def _cmd_verify(args) -> int:
    reports = verify_identities(args.grid_x, args.grid_t)
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  residual {r.max_residual:9.3e}  "
            f"violation {r.max_violation:9.3e}  tol {r.tolerance:7.1e}  {status}"
        )
    print(json.dumps([r.to_json_dict() for r in reports]))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_profile(args) -> int:
    summary, out_csv = profile_curve(args.input, args.out)
    if summary.a_bar == 0.0:
        print("a_bar = 0 (round-circle: every chord at or above 2 sin(l/2))")
        print("t_bar = -inf")
    else:
        print(f"a_bar = {summary.a_bar:.12g}")
        print(f"t_bar = {summary.t_bar:.12g}")
    print(f"attained at pair {summary.attained}")
    print(f"diagonal max = {summary.diagonal_max:.12g}")
    print(f"off-diagonal max = {summary.offdiagonal_max:.12g}")
    print(f"active pairs: {summary.n_active}")
    print(f"pair table: {out_csv}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CsflowError as exc:
        error = exc.to_json_dict()
    except OSError as exc:
        # a file the command reads or writes: not a failed check
        error = {
            "kind": type(exc).__name__,
            "message": exc.strerror or str(exc),
            "context": {"path": exc.filename},
        }
    print(json.dumps(error), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
