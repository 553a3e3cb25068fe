"""Run the two flagship configurations and print what ``csflow run`` prints.

Both runs use the default flow settings (N = 512, semi-implicit, dt = 1e-3,
t_end = 6) with every check enabled, and persist full run directories under
the output root, so this doubles as the quickest way to regenerate the
reference data set.
"""

import argparse
import sys

from csflow.cli import print_run
from csflow.dynamics import FlowConfig
from csflow.harness import RunSpec, execute

FLAGSHIPS = [
    ("ellipse", {"a": 2.0, "b": 1.0}),
    ("dumbbell", {"neck": 0.2}),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=512, help="vertex count")
    parser.add_argument("--t-end", type=float, default=6.0, help="end time")
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
