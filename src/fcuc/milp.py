"""Abstract mixed-integer linear program container.

Holds variables (with bounds and integrality), a linear objective, and
constraint rows; independent of any particular solver. Column naming is
stable (`u_<unit>_<t>` etc.) and shared with the MPS writer.

The rows are the problem's only form. `SolverArrays` is the form HiGHS
takes: `<=` rows with `>=` rows negated, then `==` rows, each block in the
order added, as one column-wise (CSC) matrix with row bounds.
`solver_arrays()` builds it from the rows at each call, in about 1 ms for a
day's MILP, so a problem edited between solves keeps nothing else in step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

__all__ = ["Variable", "Row", "SolverArrays", "MilpProblem", "LE", "GE", "EQ"]

LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float = np.inf
    binary: bool = False
    cost: float = 0.0


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[int, float]
    sense: str
    rhs: float


@dataclass
class SolverArrays:
    """A problem as HiGHS takes it: min cost'x subject to
    row_lower <= A x <= row_upper and col_lower <= x <= col_upper, with A
    column-wise (start, index, value) and row indices ascending within each
    column. The first n_ub rows are the `<=` and negated `>=` rows, the rest
    the `==` rows, each block in the order the rows were added."""

    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    integrality: np.ndarray  # int32, 1 on binary columns
    start: np.ndarray  # int32, ncols + 1
    index: np.ndarray  # int32
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_ub: int

    @classmethod
    def of(cls, variables: list[Variable], rows: list[Row]) -> SolverArrays:
        """The arrays of these columns and rows."""
        eq = np.array([r.sense == EQ for r in rows], dtype=bool)
        order = np.argsort(eq, kind="stable")  # the rows in solver order
        at = np.empty(len(rows), dtype=np.int64)  # each row's place in it
        at[order] = np.arange(len(rows))
        sign = np.array([-1.0 if r.sense == GE else 1.0 for r in rows])
        counts = [len(r.coeffs) for r in rows]
        nnz = sum(counts)
        entry_rows = np.repeat(at, counts)
        entry_cols = np.fromiter(chain.from_iterable(r.coeffs for r in rows), np.int64, nnz)
        entry_values = np.repeat(sign, counts) * np.fromiter(
            chain.from_iterable(r.coeffs.values() for r in rows), float, nnz)
        by_column = np.lexsort((entry_rows, entry_cols))
        upper = (sign * np.array([r.rhs for r in rows]))[order]
        return cls(
            cost=np.array([v.cost for v in variables], dtype=float),
            col_lower=np.array([v.lb for v in variables], dtype=float),
            col_upper=np.array([v.ub for v in variables], dtype=float),
            integrality=np.array([v.binary for v in variables], dtype=np.int32),
            start=np.concatenate(
                ([0], np.cumsum(np.bincount(entry_cols, minlength=len(variables))))
            ).astype(np.int32),
            index=entry_rows[by_column].astype(np.int32),
            value=entry_values[by_column],
            row_lower=np.where(eq[order], upper, -np.inf),
            row_upper=upper,
            n_ub=len(rows) - int(eq.sum()),
        )


class MilpProblem:
    """min c'x subject to rows and bounds; binaries are bounded [0, 1]."""

    def __init__(self, name: str = "milp"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self._col: dict[str, int] = {}
        self._row: dict[str, int] = {}

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
        if not math.isfinite(cost):
            raise ValueError(f"column {name!r} has a non-finite cost")
        idx = len(self.variables)
        self.variables.append(Variable(name, lb, ub, binary, cost))
        self._col[name] = idx
        return idx

    def add_row(self, name: str, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        if name in self._row:
            raise ValueError(f"duplicate row {name!r}")
        for j, c in coeffs.items():
            if not 0 <= j < len(self.variables):
                raise ValueError(f"row {name!r} references unknown column {j}")
            if not math.isfinite(c):
                raise ValueError(f"row {name!r} has non-finite coefficient on column {j}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r} has non-finite rhs")
        self._row[name] = len(self.rows)
        self.rows.append(Row(name, dict(coeffs), sense, rhs))

    def set_rhs(self, name: str, rhs: float) -> None:
        """Give the row `name` a new right-hand side."""
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r} has non-finite rhs")
        i = self._row[name]
        self.rows[i] = replace(self.rows[i], rhs=rhs)

    def has_row(self, name: str) -> bool:
        return name in self._row

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

    def solver_arrays(self) -> SolverArrays:
        """The problem's solver form, built from its rows at each call."""
        return SolverArrays.of(self.variables, self.rows)

    def split_rows(self):
        """(A_ub, b_ub, A_eq, b_eq) with >= rows negated into <= form; the
        matrices are scipy CSR matrices, the right-hand sides numpy arrays."""
        from scipy.sparse import csc_matrix

        a = self.solver_arrays()
        full = csc_matrix((a.value, a.index, a.start), shape=(self.nrows, self.ncols))
        return (full[: a.n_ub].tocsr(), a.row_upper[: a.n_ub],
                full[a.n_ub:].tocsr(), a.row_upper[a.n_ub:])
