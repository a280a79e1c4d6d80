#!/usr/bin/env python3
"""Count PGL_2(Q) points of bounded adjoint height over a doubling grid,
fit the growth law, and calibrate the count-vs-volume constant.

Usage:
    python scripts/run_counting_experiment.py [--tmax 16384]
"""

import argparse
import json
import math

from heightcount.enumeration import scan_pgl2_adjoint
from heightcount.zeta import (
    calibrate_archimedean_scale,
    residue_estimate,
    tauberian_fit,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--tmax", type=int, default=2**14)
    ap.add_argument("--cutoff", type=int, default=2000)
    args = ap.parse_args()

    grid = []
    t = 64
    while t <= args.tmax:
        grid.append(t)
        t *= 2
    if len(grid) < 5:
        raise SystemExit("need tmax >= 1024 for a fittable grid")

    print(f"scanning adjoint heights < {args.tmax} ...")
    scan = scan_pgl2_adjoint(args.tmax)
    counts = [(t, scan.spectrum(t).total) for t in grid]
    for t, n in counts:
        print(f"  T = {t:6d}   N = {n:14d}   N/T^2 = {n / t**2:.6f}")

    fit = tauberian_fit(counts, 2, 1)
    print(f"free exponent fit: a_hat = {fit.a_hat:.5f}")
    print(f"leading constant:  c_hat = {fit.c_hat:.5f} (1 + {fit.d_hat:.4f}/log T)")

    t_cal = grid[len(grid) // 2]
    empirical_c = dict(counts)[t_cal] / t_cal**2
    samples = [2 + 0.4 / 2**j for j in range(6)]
    base = residue_estimate(args.cutoff, samples)
    conv = calibrate_archimedean_scale(empirical_c, base.value)
    print(
        f"residue at unit scale {base.value:.6f} (err {base.error:.2e}); "
        f"calibrated archimedean scale {conv.archimedean_scale:.5f} at T = {t_cal}"
    )
    pred = residue_estimate(args.cutoff, samples, convention=conv).value / 2
    for t, n in counts:
        print(f"  T = {t:6d}   predicted/observed = {pred / (n / t**2):.4f}")

    print(json.dumps({"a_hat": fit.a_hat, "c_hat": fit.c_hat, "scale": conv.archimedean_scale}))


if __name__ == "__main__":
    main()
