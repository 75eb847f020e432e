"""Minimize weighted chord length at fixed enclosed weighted area.

Starts from a randomized graph spline chord in a slab, runs the modified
Newton-KKT descent, and prints the first and last iterations of its
trace plus the stationarity report.  The final length is compared
against the closed-form length of the vertical chord enclosing the same
area (the perpendicular profile value).
"""

import argparse

import numpy as np

from isoflow import (
    ChordSpline,
    Density,
    OptimizerConfig,
    QuadraticWeight,
    ZeroWeight,
    minimize,
    total_weighted_volume,
    vertical_chord_length,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c", type=float, default=0.5)
    parser.add_argument("--kappa", type=float, default=0.0,
                        help="concavity of the weight omega(t) = -kappa t^2")
    parser.add_argument("--slab", type=float, nargs=2, default=(-1.0, 1.0), metavar=("A", "B"))
    parser.add_argument("--fraction", type=float, default=0.5, help="target area / total mass")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--controls", type=int, default=12)
    parser.add_argument("--noise", type=float, default=0.2, help="initial chord roughness")
    args = parser.parse_args()

    weight = ZeroWeight() if args.kappa == 0.0 else QuadraticWeight(args.kappa, 0.0, 0.0)
    density = Density(weight, args.c, 2, tuple(args.slab))
    v_total = total_weighted_volume(density)
    target = args.fraction * v_total

    rng = np.random.default_rng(args.seed)
    ends = rng.uniform(-0.5, 0.5, 2)
    control_x = np.linspace(ends[0], ends[1], args.controls)
    control_x[1:-1] += rng.normal(0.0, args.noise, args.controls - 2)
    chord = ChordSpline(
        control_x, np.linspace(args.slab[0], args.slab[1], args.controls), tuple(args.slab)
    )

    final, trace = minimize(density, OptimizerConfig(target_area=target), chord)
    print(f"status {trace.status} after {len(trace.iterations)} iterations")
    for i in sorted({*trace.iterations[:3], *trace.iterations[-3:]}):
        print(
            f"  iter {i:4d}  length {trace.lengths[i]:.12f}  "
            f"grad {trace.gradient_norms[i]:.3e}  area err {trace.area_errors[i]:.2e}"
        )
    report = trace.final
    print(f"stationary={report.stationary}  H_f mean {report.hf_mean:+.6f} "
          f"spread {report.hf_spread:.2e}  wall angles "
          f"{report.angle_bottom_deg:.3f} / {report.angle_top_deg:.3f} deg")

    benchmark = vertical_chord_length(density, args.fraction)
    gap = (report.length - benchmark) / benchmark
    print(f"final length {report.length:.12f}  vertical chord {benchmark:.12f}  "
          f"relative gap {gap:+.2e}")


if __name__ == "__main__":
    main()
