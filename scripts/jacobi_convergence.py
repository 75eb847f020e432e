"""Convergence study of the translational Jacobi identity on shot curves.

Shoots a constant-H_f curve at a sequence of step sizes and reports the
max residual of L_f<e_x, N> = 2c <e_x, N> together with the halving
ratio; order-h^2 integration and differencing give ratios near 4.
"""

import argparse

from isoflow import Density, ZeroWeight, cmc_shoot, jacobi_residual


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c", type=float, default=0.5)
    parser.add_argument("--target-hf", type=float, default=0.0)
    parser.add_argument("--start", type=float, nargs=2, default=(1.0, 0.0), metavar=("X", "T"))
    parser.add_argument("--angle", type=float, default=1.0, help="launch angle in radians")
    parser.add_argument("--max-length", type=float, default=2.0)
    parser.add_argument(
        "--steps", type=float, nargs="+", default=(4e-3, 2e-3, 1e-3), help="descending step sizes"
    )
    args = parser.parse_args()

    density = Density(ZeroWeight(), args.c, 2, (-float("inf"), float("inf")))
    print(f"{'h':>10s} {'max residual':>14s} {'ratio':>8s} {'nodes':>7s}")
    previous = None
    for h in sorted(args.steps, reverse=True):
        curve = cmc_shoot(
            density, args.target_hf, tuple(args.start), args.angle,
            step=h, max_length=args.max_length,
        )
        residual = jacobi_residual(density, curve)
        ratio = "" if previous is None else f"{previous / residual:8.3f}"
        print(f"{h:10.4g} {residual:14.4e} {ratio:>8s} {curve.n_nodes:7d}")
        previous = residual


if __name__ == "__main__":
    main()
