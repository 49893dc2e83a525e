#!/usr/bin/env python3
"""Compare the three oscillator heat routes on random mode data.

For each requested time the same initial data is propagated by direct
kernel quadrature, by the damped-Fourier factorization, and by conjugation
with the frequency-side substitution operator; the table lists the pairwise
relative L2 gaps.  The routes share no numerics beyond the FFT, so small
gaps are evidence, not tautology.
"""

import argparse
import csv
import warnings

import numpy as np

from oscwave import (
    OscillatorParams,
    SpectralCoefficients,
    heat_ho_kernel_route,
    heat_ho_spectral_route,
    heat_via_intertwining,
    make_grid,
    reconstruct,
    rel_l2_error,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=1.0, help="oscillator coupling")
    ap.add_argument("--times", default="0.1,0.4,1.0",
                    help="comma-separated evolution times")
    ap.add_argument("--modes", type=int, default=8,
                    help="number of random eigenmodes in the initial data")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--output", help="optional CSV destination for the table")
    args = ap.parse_args()

    times = [float(s) for s in args.times.split(",")]
    g = make_grid(-12.0, 12.0, 2048)
    rng = np.random.default_rng(args.seed)
    u0 = reconstruct(
        SpectralCoefficients(args.a, rng.standard_normal(args.modes)), g)

    rows = []
    print(f"a = {args.a}, {args.modes} random modes, grid [-12, 12) n=2048")
    print(f"{'t':>6}  {'kernel vs spectral':>20}  {'kernel vs conjugation':>22}  "
          f"{'spectral vs conjugation':>24}")
    for t in times:
        p = OscillatorParams(args.a, t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            uk = heat_ho_kernel_route(u0, p)
        us = heat_ho_spectral_route(u0, p)
        ui = heat_via_intertwining(u0, p)
        gaps = (rel_l2_error(uk, us), rel_l2_error(uk, ui), rel_l2_error(us, ui))
        rows.append((t,) + gaps)
        print(f"{t:6.3f}  {gaps[0]:20.3e}  {gaps[1]:22.3e}  {gaps[2]:24.3e}")

    if args.output:
        with open(args.output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "kernel_vs_spectral", "kernel_vs_conjugation",
                        "spectral_vs_conjugation"])
            w.writerows(rows)
        print(f"table written to {args.output}")


if __name__ == "__main__":
    main()
