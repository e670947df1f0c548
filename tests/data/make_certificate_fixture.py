"""Regenerate certificate_2311.csv, the frozen certificate grid for the
reference case (p=2, n=3, a=1, lam=1).

Run from the repository root:  python3 tests/data/make_certificate_fixture.py

The script builds the certificate twice -- once from the model solve at
its one step setting (model1d._RTOL = 1e-13, model1d._ATOL = 1e-14) and
once with those two module constants tightened to 2.5e-14 and 2.5e-15
(scipy floors rtol at 100 machine epsilons) and restored afterwards --
and refuses to write the fixture if the two grids disagree beyond the
advertised tolerance, so the frozen file is self-oracled.
"""

import csv
import pathlib
import sys

import numpy as np

from pspectral import ModelProblem, PParams, model1d, solve_model
from pspectral.comparison import build_certificate

TOL = 1e-8
COLS = ["t", "X", "f", "eta_of_f", "beta_of_f", "y1", "y2", "kappa",
        "slack1", "slack2", "a3_residual"]


def build():
    sol = solve_model(ModelProblem(PParams(2.0, 3, 1.0), 1.0))
    return build_certificate(sol)


def build_tightened():
    saved = model1d._RTOL, model1d._ATOL
    model1d._RTOL, model1d._ATOL = 2.5e-14, 2.5e-15
    try:
        return build()
    finally:
        model1d._RTOL, model1d._ATOL = saved


def main():
    cert = build()
    fine = build_tightened()
    worst = 0.0
    for c in ("X", "f", "kappa", "slack1", "slack2"):
        dev = np.max(np.abs(cert.grid[c] - fine.grid[c])
                     / np.maximum(1.0, np.abs(fine.grid[c])))
        worst = max(worst, float(dev))
        print(f"  tightened-tolerance dev[{c}] = {dev:.2e}")
    if worst > TOL:
        sys.exit(f"refusing to freeze: tightened-tolerance deviation "
                 f"{worst:.2e} > {TOL}")
    out = pathlib.Path(__file__).with_name("certificate_2311.csv")
    with out.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(COLS)
        for i in range(len(cert.grid["t"])):
            wr.writerow([f"{cert.grid[c][i]:.12e}" for c in COLS])
    print(f"wrote {out} ({len(cert.grid['t'])} rows), worst dev {worst:.2e}")


if __name__ == "__main__":
    main()
