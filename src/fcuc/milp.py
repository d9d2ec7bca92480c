"""Abstract mixed-integer linear program container.

Holds variables (with bounds and integrality), a linear objective, and
constraint rows; independent of any particular solver. Column naming is
stable (`u_<unit>_<t>` etc.) and shared with the MPS writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Variable", "Row", "MilpProblem", "LE", "GE", "EQ"]

LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = np.inf
    binary: bool = False
    cost: float = 0.0


@dataclass
class Row:
    name: str
    coeffs: dict[int, float]
    sense: str
    rhs: float


class MilpProblem:
    """min c'x subject to rows and bounds; binaries are bounded [0, 1]."""

    def __init__(self, name: str = "milp"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self._col: dict[str, int] = {}
        self._row_names: set[str] = set()

    # -- construction --

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = np.inf,
        binary: bool = False,
        cost: float = 0.0,
    ) -> int:
        if name in self._col:
            raise ValueError(f"duplicate column {name!r}")
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        for v in (lb, ub, cost):
            if v != v:  # NaN
                raise ValueError(f"NaN in column {name!r}")
        idx = len(self.variables)
        self.variables.append(Variable(name, lb, ub, binary, cost))
        self._col[name] = idx
        return idx

    def add_row(self, name: str, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        if name in self._row_names:
            raise ValueError(f"duplicate row {name!r}")
        for j, c in coeffs.items():
            if not 0 <= j < len(self.variables):
                raise ValueError(f"row {name!r} references unknown column {j}")
            if not math.isfinite(c):
                raise ValueError(f"row {name!r} has non-finite coefficient on column {j}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r} has non-finite rhs")
        self.rows.append(Row(name, dict(coeffs), sense, rhs))
        self._row_names.add(name)

    def has_row(self, name: str) -> bool:
        return name in self._row_names

    def col(self, name: str) -> int:
        return self._col[name]

    # -- views --

    @property
    def ncols(self) -> int:
        return len(self.variables)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def objective(self) -> np.ndarray:
        return np.array([v.cost for v in self.variables])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([v.lb for v in self.variables]),
            np.array([v.ub for v in self.variables]),
        )

    def binary_columns(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.binary]

    def split_rows(self):
        """(A_ub, b_ub, A_eq, b_eq) with >= rows negated into <= form; the
        matrices are scipy CSR matrices, the right-hand sides numpy arrays."""
        from scipy.sparse import csr_matrix

        ub_data, ub_i, ub_j, b_ub = [], [], [], []
        eq_data, eq_i, eq_j, b_eq = [], [], [], []
        for row in self.rows:
            if row.sense == EQ:
                k = len(b_eq)
                for j, c in row.coeffs.items():
                    eq_i.append(k)
                    eq_j.append(j)
                    eq_data.append(c)
                b_eq.append(row.rhs)
            else:
                sign = 1.0 if row.sense == LE else -1.0
                k = len(b_ub)
                for j, c in row.coeffs.items():
                    ub_i.append(k)
                    ub_j.append(j)
                    ub_data.append(sign * c)
                b_ub.append(sign * row.rhs)
        a_ub = csr_matrix((ub_data, (ub_i, ub_j)), shape=(len(b_ub), self.ncols))
        a_eq = csr_matrix((eq_data, (eq_i, eq_j)), shape=(len(b_eq), self.ncols))
        return a_ub, np.array(b_ub), a_eq, np.array(b_eq)

    def value(self, x: np.ndarray, name: str) -> float:
        return float(x[self._col[name]])
