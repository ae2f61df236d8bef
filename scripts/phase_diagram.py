#!/usr/bin/env python3
"""Phase diagram of the rate plane at fixed emergence rate.

Runs the sweep behind `mosqdyn sweep` over a beta x mu grid and prints it
as an ASCII phase plane, beta rising to the right and mu to the top:
S where the orbit survives, E where it dies out, '=' on cells the
validator rejects (equal rates), '!' where the simulated verdict and the
spectral classification disagree (should never happen).  The grid lands
in a CSV in the format of `mosqdyn sweep`, byte for byte what that
command writes for the same grid.

    python3 scripts/phase_diagram.py --alpha 0.6 --n 21 --out out/phase.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from mosqdyn import SWEEP_CSV_HEADER, OrbitConfig, State, sweep
from mosqdyn.ioutil import atomic_write_lines


def cell_symbol(cell):
    if not cell.in_condition:
        return "="
    return cell.verdict[0].upper() if cell.agree else "!"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--alpha", type=float, default=0.6)
    ap.add_argument("--beta-lo", type=float, default=0.05)
    ap.add_argument("--beta-hi", type=float, default=1.0)
    ap.add_argument("--mu-lo", type=float, default=0.05)
    ap.add_argument("--mu-hi", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=21, help="grid points per axis")
    ap.add_argument("--x0", type=float, default=1.0)
    ap.add_argument("--y0", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=1_000_000)
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--out", type=Path, default=Path("out/phase.csv"))
    args = ap.parse_args(argv)

    n = args.n
    betas = np.linspace(args.beta_lo, args.beta_hi, n)
    mus = np.linspace(args.mu_lo, args.mu_hi, n)
    # the recording stride of `mosqdyn sweep`, which sets the survival
    # confirmation window and so n_steps
    cfg = OrbitConfig(max_iters=args.steps, record_every=16)
    cells = sweep([args.alpha], betas, mus, State(args.x0, args.y0), cfg, tol=args.tol)
    disagree = sum(c.agree is False for c in cells)

    print(f"alpha={args.alpha}  beta left {args.beta_lo} to {args.beta_hi} right, "
          f"mu bottom {args.mu_lo} to {args.mu_hi} top")
    # cells run mu fastest within each beta
    for j in reversed(range(n)):
        print("".join(cell_symbol(cells[i * n + j]) for i in range(n)))
    print(f"cells={len(cells)} disagreements={disagree}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_lines(args.out, [SWEEP_CSV_HEADER] + [c.csv_row() for c in cells])
    print(f"wrote {args.out}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
