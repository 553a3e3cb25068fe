"""Shrinking-circle convergence study: radius error and observed order vs dt.

The un-normalized unit circle has the exact solution R(tau) = sqrt(1 - 2 tau),
which makes it the one flow where the time-stepping error can be measured
outright. Prints one table per scheme; the last column is the step-halving
order against the next-finer dt.
"""

import argparse
import math
import sys

import numpy as np

from csflow.dynamics import KIND_UNNORMALIZED, FlowConfig
from csflow.harness import RunSpec, execute


def radius_error(scheme: str, dt: float, n: int, tau_end: float) -> float:
    spec = RunSpec(
        generator="circle",
        flow=FlowConfig(
            kind=KIND_UNNORMALIZED,
            n=n,
            scheme=scheme,
            dt=dt,
            t_end=tau_end,
            snapshot_every=10000,
        ),
        checks=(),
    )
    dense = execute(spec, persist=False).trajectory.dense
    radius = dense.length / (2.0 * n * math.sin(math.pi / n))
    return float(np.max(np.abs(radius - np.sqrt(1.0 - 2.0 * dense.time))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--tau-end", type=float, default=0.45)
    parser.add_argument(
        "--dts",
        default="4e-4,2e-4,1e-4,5e-5",
        help="comma-separated steps, coarse to fine",
    )
    args = parser.parse_args(argv)
    dts = [float(s) for s in args.dts.split(",")]

    for scheme in ("explicit", "semi-implicit"):
        print(f"scheme: {scheme} (n = {args.n}, tau_end = {args.tau_end})")
        print("        dt     max |R - sqrt(1-2 tau)|   order")
        errs = [radius_error(scheme, dt, args.n, args.tau_end) for dt in dts]
        for i, (dt, err) in enumerate(zip(dts, errs)):
            if i == 0:
                order = "    -"
            else:
                order = f"{math.log(errs[i - 1] / err) / math.log(dts[i - 1] / dt):5.2f}"
            print(f"  {dt:8.1e}   {err:22.3e}   {order}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
