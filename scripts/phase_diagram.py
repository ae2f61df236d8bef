#!/usr/bin/env python3
"""Phase diagram of the rate plane at fixed emergence rate.

Draws a CSV that `mosqdyn sweep --out` wrote for one alpha as an ASCII
phase plane, beta rising to the right and mu to the top: S where the
orbit survives, E where it dies out, '=' on cells the validator rejects
(equal rates), '!' where the simulated verdict and the spectral
classification disagree (should never happen).  Exits 1 on any '!'.

    mosqdyn sweep --alpha-range 0.6 0.6 1 --beta-range 0.05 1.0 21 \\
        --mu-range 0.05 1.0 21 --out out/phase.csv
    python3 scripts/phase_diagram.py out/phase.csv
"""

import argparse
import csv
import sys


def cell_symbol(row):
    if row["in_condition"] != "true":
        return "="
    return row["verdict"][0].upper() if row["agree"] == "true" else "!"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("csv", type=argparse.FileType("r", encoding="utf-8"), help="sweep CSV for a single alpha")
    args = ap.parse_args(argv)
    with args.csv as fh:
        rows = list(csv.DictReader(fh))
    alphas = {float(r["alpha"]) for r in rows}
    if len(alphas) != 1:
        ap.error(f"expected one alpha in {fh.name}, found {len(alphas)}")
    plane = {(float(r["beta"]), float(r["mu"])): cell_symbol(r) for r in rows}
    betas = sorted({b for b, _ in plane})
    mus = sorted({m for _, m in plane})
    disagree = sum(s == "!" for s in plane.values())

    print(f"alpha={alphas.pop():g}  beta left {betas[0]:g} to {betas[-1]:g} right, "
          f"mu bottom {mus[0]:g} to {mus[-1]:g} top")
    for m in reversed(mus):
        print("".join(plane[b, m] for b in betas))
    print(f"cells={len(rows)} disagreements={disagree}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
