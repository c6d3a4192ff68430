#!/usr/bin/env python3
"""Tabulate the persistence exponent phi(x, b) over an (x, b) grid.

Writes one CSV row per grid point with phi, kappa and psi_bar, prints a
small landmark table, and round-trips every row through invert_phi as a
consistency check.  The surface is cheap (closed form), so the default
grid is already fairly dense.
"""

import argparse
import os

import numpy as np

from persistwalk.exponent import invert_phi, model
from persistwalk.montecarlo import provenance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x-points", type=int, default=81)
    ap.add_argument("--b-points", type=int, default=61)
    ap.add_argument("--b-lo", type=float, default=0.1)
    ap.add_argument("--b-hi", type=float, default=10.0)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    xs = np.linspace(0.0, 0.99, args.x_points)
    bs = np.geomspace(args.b_lo, args.b_hi, args.b_points)

    os.makedirs(args.outdir, exist_ok=True)
    out = os.path.join(args.outdir, "exponent_surface.csv")
    worst = 0.0
    with open(out, "w") as fh:
        for line in provenance(vars(args)):
            fh.write(f"# {line}\n")
        fh.write("x,b,phi,kappa,psi_bar\n")
        for x in xs:
            for b in bs:
                m = model(float(x), float(b))
                fh.write(f"{x:.6g},{b:.6g},{m.phi:.12g},"
                         f"{m.kappa:.12g},{m.psi_bar:.12g}\n")
                worst = max(worst, abs(invert_phi(m.phi, float(x)) - b) / b)
    print(f"wrote {out} ({args.x_points * args.b_points} points)")
    print(f"max relative invert_phi round-trip error: {worst:.3g}")

    print("\nphi(x, b) landmarks:")
    print(f"{'x':>6} {'b':>6} {'phi':>10}")
    for x, b in ((0.0, 1.0), (0.5, 1.0), (0.6, 1.0), (0.0, 2.0),
                 (0.5, 2.0), (0.9, 1.0), (0.0, 0.5)):
        print(f"{x:6.2f} {b:6.2f} {model(x, b).phi:10.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
