"""Free-format MPS export for MilpProblem.

Column names follow the model builder's scheme (`u_<unit>_<t>`, ...), so an
exported file can be read by an external solver.
"""

from __future__ import annotations

import math

from .milp import EQ, GE, LE, MilpProblem

__all__ = ["export_mps"]

_SENSE_TO_TAG = {LE: "L", GE: "G", EQ: "E"}


def export_mps(p: MilpProblem, path: str) -> None:
    """Write `p` as free-format MPS (minimization, objective row COST)."""
    lines = [f"NAME {p.name}", "ROWS", " N COST"]
    for row in p.rows:
        lines.append(f" {_SENSE_TO_TAG[row.sense]} {row.name}")

    lines.append("COLUMNS")
    marker = 0
    in_int = False
    for j, v in enumerate(p.variables):
        if v.binary != in_int:
            kind = "INTORG" if v.binary else "INTEND"
            lines.append(f"    MARKER{marker} 'MARKER' '{kind}'")
            marker += 1
            in_int = v.binary
        if v.cost != 0.0:
            lines.append(f"    {v.name} COST {v.cost:.17g}")
        for row in p.rows:
            c = row.coeffs.get(j)
            if c is not None and c != 0.0:
                lines.append(f"    {v.name} {row.name} {c:.17g}")
    if in_int:
        lines.append(f"    MARKER{marker} 'MARKER' 'INTEND'")

    lines.append("RHS")
    for row in p.rows:
        if row.rhs != 0.0:
            lines.append(f"    RHS {row.name} {row.rhs:.17g}")

    lines.append("BOUNDS")
    for v in p.variables:
        if v.binary:
            lines.append(f" BV BND {v.name}")
            continue
        if v.lb != 0.0:
            lines.append(f" LO BND {v.name} {v.lb:.17g}")
        if math.isfinite(v.ub):
            lines.append(f" UP BND {v.name} {v.ub:.17g}")
    lines.append("ENDATA")

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
