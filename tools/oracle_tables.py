"""Write the oracle tables of one grid, every value in full precision.

    python3 tools/oracle_tables.py GRID OUT

GRID is a JSON object with the lists `channels`, `rho` and `r` (the
`coupling_oracle` grid, separations in units of lambda) and `kinds`,
`correlator_rho` and `tau` (the `field_correlator` grid, at the default
squeezing).  OUT receives `couplings.csv`, one row per (rho, r) with a column
per channel, and `correlators.csv`, one row per (rho, tau) with a column per
kind.  `magsqueeze` is imported from the PYTHONPATH; `tools/csvset.py run`
calls this with the benchmark's grid.
"""

import json
import os
import sys

from magsqueeze.bath import bath_from_params, field_correlator
from magsqueeze.couplings import coupling_oracle
from magsqueeze.params import PhysicalParams


def cell(value):
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return f"{value:.17g}"


def write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


def main(grid, out):
    params = PhysicalParams()
    os.makedirs(out, exist_ok=True)
    rows = []
    for r in grid["r"]:
        bath = bath_from_params(params, r_override=r)
        for rho in grid["rho"]:
            rows.append([rho, r] + [coupling_oracle(channel, rho, params, bath)
                                    for channel in grid["channels"]])
    write(os.path.join(out, "couplings.csv"), ["rho", "r", *grid["channels"]], rows)
    bath = bath_from_params(params)
    rows = []
    for rho in grid["correlator_rho"]:
        for tau in grid["tau"]:
            rows.append([rho, tau] + [field_correlator(kind, rho * bath.lam, tau, 0.0, params, bath)
                                      for kind in grid["kinds"]])
    write(os.path.join(out, "correlators.csv"), ["rho", "tau", *grid["kinds"]], rows)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2])
