"""Run the two flagship configurations and print what ``csflow run`` prints.

Both runs use the default flow settings of ``FlowConfig`` and the
generators' default shapes, with every check enabled, and persist full run
directories under the output root, so this doubles as the quickest way to
regenerate the reference data set.
"""

import argparse
import inspect
import sys

from csflow.cli import print_run
from csflow.dynamics import FlowConfig
from csflow.harness import RunSpec, execute, gen_dumbbell, gen_ellipse


def _defaults(generator, *names):
    """The generator's own keyword defaults for the named shape parameters."""
    params = inspect.signature(generator).parameters
    return {name: params[name].default for name in names}


FLAGSHIPS = [
    ("ellipse", _defaults(gen_ellipse, "a", "b")),
    ("dumbbell", _defaults(gen_dumbbell, "neck")),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = FlowConfig()
    parser.add_argument("--n", type=int, default=defaults.n, help="vertex count")
    parser.add_argument(
        "--t-end", type=float, default=defaults.t_end, help="end time"
    )
    parser.add_argument("--outdir-root", default=None, help="run directory root")
    args = parser.parse_args(argv)

    all_ok = True
    for gen, params in FLAGSHIPS:
        spec = RunSpec(
            generator=gen,
            params=params,
            flow=FlowConfig(n=args.n, t_end=args.t_end),
            outdir=None if args.outdir_root is None else f"{args.outdir_root}/{gen}",
        )
        res = execute(spec)
        print(f"== {gen} {params}")
        print_run(res)
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
