#!/usr/bin/env python3
"""Print the discretization-error tables behind the convergence claims.

Spatial study: pure-diffusion mode with a known decay, dt tied to h^2
so the O(h^2) part dominates.  Temporal study: self-convergence of the
full reaction-diffusion solver under time-step halving.
"""

import argparse

from cardioct import convergence_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3,
                    help="spatial levels (>= 2); the temporal study runs one more, "
                         "so both give levels - 1 orders")
    args = ap.parse_args()

    rep = convergence_study(spatial_levels=args.levels, temporal_levels=args.levels + 1)

    print("spatial (exact solution, expecting order 2)")
    print(f"  {'level':<7}{'error':<14}order")
    for i, e in enumerate(rep.spatial_errors):
        order = f"{rep.spatial_orders[i - 1]:.3f}" if i else "-"
        print(f"  {i:<7}{e:<14.4e}{order}")

    print("temporal (self-convergence, expecting order 1)")
    print(f"  {'level':<7}{'error':<14}order")
    for i, e in enumerate(rep.temporal_errors):
        order = f"{rep.temporal_orders[i - 1]:.3f}" if i else "-"
        print(f"  {i:<7}{e:<14.4e}{order}")

    verdict = "PASS" if (rep.spatial_ok and rep.temporal_ok) else "FAIL"
    print(f"orders within bands [1.7, 2.3] and [0.8, 1.3]: {verdict}")


if __name__ == "__main__":
    main()
