"""Abstract mixed-integer linear program container.

Holds variables (with bounds and integrality), a linear objective, and
constraint rows; independent of any particular solver. Column naming is
stable (`u_<unit>_<t>` etc.) and shared with the MPS writer.

Beside the rows it keeps their solver form (`SolverArrays`): `<=` rows with
`>=` rows negated, then `==` rows, each block in the order added, as one
column-wise (CSC) matrix with row bounds. It is built on first request and
then kept up to date: rows added since are merged into it and `set_rhs`
patches it, so a problem edited between solves is never rebuilt.
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
    the `==` rows; row `i` of the problem is row `position[i]` here."""

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
    position: np.ndarray

    @classmethod
    def of_columns(cls, variables: list[Variable]) -> SolverArrays:
        """The arrays of these columns and no rows."""
        return cls(
            cost=np.array([v.cost for v in variables], dtype=float),
            col_lower=np.array([v.lb for v in variables], dtype=float),
            col_upper=np.array([v.ub for v in variables], dtype=float),
            integrality=np.array([v.binary for v in variables], dtype=np.int32),
            start=np.zeros(len(variables) + 1, dtype=np.int32),
            index=np.zeros(0, dtype=np.int32),
            value=np.zeros(0),
            row_lower=np.zeros(0),
            row_upper=np.zeros(0),
            n_ub=0,
            position=np.zeros(0, dtype=np.int64),
        )

    def merge(self, rows: list[Row]) -> None:
        """Append rows: each `<=`/`>=` row after the last such row, each
        `==` row at the end, and every entry into its column in row order."""
        ub = [r.sense != EQ for r in rows]
        n_new_ub = sum(ub)
        m_ub, m = self.n_ub, len(self.row_upper)
        total = m + len(rows)
        next_ub, next_eq = iter(range(m_ub, m_ub + n_new_ub)), iter(range(m + n_new_ub, total))
        at = np.array([next(next_ub) if u else next(next_eq) for u in ub], dtype=np.int64)
        sign = np.array([-1.0 if r.sense == GE else 1.0 for r in rows])
        counts = [len(r.coeffs) for r in rows]
        nnz = sum(counts)
        new_rows = np.repeat(at, counts)
        new_cols = np.fromiter(chain.from_iterable(r.coeffs for r in rows), np.int64, nnz)
        new_vals = np.repeat(sign, counts) * np.fromiter(
            chain.from_iterable(r.coeffs.values() for r in rows), float, nnz)

        index = self.index.astype(np.int64)
        index[index >= m_ub] += n_new_ub  # the == rows move down past the new <= rows
        ncols = len(self.start) - 1
        cols = np.repeat(np.arange(ncols), np.diff(self.start))
        new_keys = new_cols * total + new_rows
        order = np.argsort(new_keys)
        slots = np.searchsorted(cols * total + index, new_keys[order])
        self.index = np.insert(index, slots, new_rows[order]).astype(np.int32)
        self.value = np.insert(self.value, slots, new_vals[order])
        self.start = self.start + np.concatenate(
            ([0], np.cumsum(np.bincount(new_cols, minlength=ncols)))).astype(np.int32)

        upper = sign * np.array([r.rhs for r in rows])
        is_ub = np.array(ub, dtype=bool)
        self.row_lower = np.concatenate((
            self.row_lower[:m_ub], np.full(n_new_ub, -np.inf), self.row_lower[m_ub:],
            upper[~is_ub]))
        self.row_upper = np.concatenate((
            self.row_upper[:m_ub], upper[is_ub], self.row_upper[m_ub:], upper[~is_ub]))
        position = self.position.copy()
        position[position >= m_ub] += n_new_ub
        self.position = np.concatenate((position, at))
        self.n_ub = m_ub + n_new_ub

    def set_rhs(self, i: int, sense: str, rhs: float) -> None:
        """Patch the bounds of the problem's row i to a new right-hand side."""
        k = self.position[i]
        if sense == EQ:
            self.row_lower[k] = self.row_upper[k] = rhs
        else:
            self.row_upper[k] = -rhs if sense == GE else rhs


class MilpProblem:
    """min c'x subject to rows and bounds; binaries are bounded [0, 1]."""

    def __init__(self, name: str = "milp"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self._col: dict[str, int] = {}
        self._row: dict[str, int] = {}
        self._arrays: SolverArrays | None = None

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
        self._arrays = None  # a new column: the solver form is built afresh
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
        row = self.rows[i] = replace(self.rows[i], rhs=rhs)
        if self._arrays is not None and i < len(self._arrays.position):
            self._arrays.set_rhs(i, row.sense, rhs)

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
        """The problem's solver form, up to date with every row; the solver
        reads it and nothing may write it."""
        if self._arrays is None:
            self._arrays = SolverArrays.of_columns(self.variables)
        merged = len(self._arrays.position)
        if merged < self.nrows:
            self._arrays.merge(self.rows[merged:])
        return self._arrays

    def split_rows(self):
        """(A_ub, b_ub, A_eq, b_eq) with >= rows negated into <= form; the
        matrices are scipy CSR matrices, the right-hand sides numpy arrays,
        all copies of the solver form."""
        from scipy.sparse import csc_matrix

        a = self.solver_arrays()
        full = csc_matrix((a.value, a.index, a.start), shape=(self.nrows, self.ncols), copy=True)
        return (full[: a.n_ub].tocsr(), a.row_upper[: a.n_ub].copy(),
                full[a.n_ub:].tocsr(), a.row_upper[a.n_ub:].copy())
