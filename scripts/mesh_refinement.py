"""Bound-check margins across mesh resolutions.

Runs the flagship curves at several vertex counts and tabulates the worst
margin of each check next to the N-dependent chord tolerance 10 (2 pi / N)^2,
then compares the initial supremal ratio across resolutions. Margins should
hold at every N while the tolerance shrinks quadratically; a_bar(0) should
settle at the same rate.
"""

import argparse
import inspect
import sys

from csflow.diagnostics import geometric_tolerance
from csflow.dynamics import FlowConfig
from csflow.geometry import build_frame, canonical_scale
from csflow.harness import (
    ALL_CHECKS,
    RunSpec,
    execute,
    gen_dumbbell,
    gen_ellipse,
    generate,
)
from csflow.comparison import profile


def _defaults(generator, *names):
    """The generator's own keyword defaults for the named shape parameters."""
    params = inspect.signature(generator).parameters
    return {name: params[name].default for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="128,256,512")
    parser.add_argument("--t-end", type=float, default=FlowConfig().t_end)
    parser.add_argument(
        "--curves", default="ellipse,dumbbell", help="generators to sweep"
    )
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    params = {
        "ellipse": _defaults(gen_ellipse, "a", "b"),
        "dumbbell": _defaults(gen_dumbbell, "neck"),
    }

    ok = True
    for gen in args.curves.split(","):
        print(f"== {gen} {params.get(gen, {})}")
        print("     N   tol_geom   " + "  ".join(f"{c:>20}" for c in ALL_CHECKS))
        for n in sizes:
            spec = RunSpec(
                generator=gen,
                params=params.get(gen, {}),
                flow=FlowConfig(n=n, t_end=args.t_end),
            )
            res = execute(spec, persist=False)
            ok = ok and res.passed
            margins = "  ".join(
                f"{res.reports[c].worst_margin:+20.3e}" for c in res.checks
            )
            print(f"  {n:4d}   {geometric_tolerance(n):8.2e}   {margins}")
        print()

    print("a_bar(0) of the canonical ellipse across resolutions:")
    for n in sizes + [2 * sizes[-1]]:
        frame = build_frame(canonical_scale(generate("ellipse", {"n": n})))
        print(f"  N = {n:4d}: a_bar = {profile(frame).a_bar:.10f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
