"""The noncontextual-fraction program, its float simplex and its exact
certificate.

The decomposition question "how much of this empirical model is explained by
a global distribution" is a small dense LP: maximize the total weight b >= 0
over deterministic global assignments subject to incidence * b <= table
probabilities, row by row. Every row is an upper bound with a nonnegative
right-hand side, so the slack basis is feasible and the solver needs one
phase only. The program has few rows and very many columns, so the solver
is a float64 revised simplex with Bland's rule that takes and returns
plain arrays: A is made float once, and each pivot updates only the m x m
basis inverse, the basic solution and the reduced costs, the last by a
multiple of B^-1's leaving row times [A | I], read over the few rows of A
where that row is nonzero; y A prices all columns only at the start and
when the updated costs claim optimality.

For exact tables one integer routine takes the float-optimal basis B to
the exact optimum on d B^-1 [P | I], P the scaled probabilities and d = 1
at the start, which is read off the float B^-1: rounded, it is accepted
when B times it is exactly I, so |det B| = 1. If it is not, or B is not
exactly dual feasible, a basis that always is, with B^-1 = 2I - B, replaces
it; exact dual-simplex pivots with Bland's rule then run while the primal
is infeasible, int64 while every entry is below 2**31 and Python ints
otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scenario import ContextKey, EmpiricalModel, Scenario, no_disturbance

MAX_INCIDENCE_COLUMNS = 2**20
# rows x columns: the simplex's float copy of A takes 8 bytes an entry, 640
# MiB here; the binary 20-cycle (80 rows x 2**20 columns) is just admitted
MAX_INCIDENCE_ENTRIES = 80 * 2**20
EPS_LP = 1e-9
EPS_ND_PRECONDITION = 1e-6

__all__ = [
    "MAX_INCIDENCE_COLUMNS",
    "MAX_INCIDENCE_ENTRIES",
    "EPS_LP",
    "SignallingModelError",
    "IncidenceMatrix",
    "FractionResult",
    "incidence",
    "simplex",
    "contextual_fraction",
]


class SignallingModelError(ValueError):
    """The model violates no-disturbance beyond tolerance; the
    noncontextual-fraction program is not meaningful for it."""


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 matrix pairing event rows with deterministic assignments.

    Rows: (context, joint outcome tuple), contexts in declared order, tuples
    in declared-outcome lexicographic order. Columns: global assignments in
    the same lexicographic order over scenario observables, outcomes[i]
    holding observable i's outcomes. Entry 1 iff the assignment restricts to
    the row's tuple.
    """

    rows: tuple[tuple[ContextKey, tuple[str, ...]], ...]
    outcomes: tuple[tuple[str, ...], ...]
    matrix: np.ndarray

    def assignment(self, col: int) -> tuple[str, ...]:
        """The assignment of column col: its mixed-radix digits, last
        observable least significant, are the outcome indices."""
        values = []
        for outs in reversed(self.outcomes):
            col, digit = divmod(col, len(outs))
            values.append(outs[digit])
        return tuple(reversed(values))

    @functools.cached_property
    def assignments(self) -> tuple[tuple[str, ...], ...]:
        """Every column's assignment, built on first use only."""
        return tuple(itertools.product(*self.outcomes))


def incidence(sc: Scenario) -> IncidenceMatrix:
    """Column c is the mixed-radix number whose digits (one np.indices
    array), first observable most significant, are the outcome indices of
    assignment c; its rows in a context are one comparison of the same
    number read off the context's observables with the row indices, written
    into a bool matrix exposed as a read-only int8 view."""
    ncols = sc.assignment_space()
    if ncols > MAX_INCIDENCE_COLUMNS:
        raise ValueError(
            f"assignment space {ncols} exceeds the 2**20 incidence guard"
        )
    rows = [(ctx, tup) for ctx in sc.contexts for tup in sc.joint_outcomes(ctx)]
    if len(rows) * ncols > MAX_INCIDENCE_ENTRIES:
        raise ValueError(
            f"incidence matrix of {len(rows)} rows x {ncols} columns exceeds "
            f"the 80 * 2**20 entry guard"
        )
    outcomes = tuple(o.outcomes for o in sc.observables)
    size = {o.label: len(o.outcomes) for o in sc.observables}
    digits = np.indices(tuple(size.values()), np.min_scalar_type(max(size.values()) - 1))
    digit = dict(zip(size, digits.reshape(len(size), ncols)))
    mat = np.empty((len(rows), ncols), dtype=bool)
    start = 0
    for ctx in sc.contexts:
        k = math.prod(size[l] for l in ctx)
        local = digit[ctx[0]].astype(np.min_scalar_type(k - 1))
        for l in ctx[1:]:
            local *= size[l]
            local += digit[l]
        block = mat[start : start + k]
        np.equal(local, np.arange(k, dtype=local.dtype)[:, None], out=block)
        start += k
    view = mat.view(np.int8)
    view.setflags(write=False)
    return IncidenceMatrix(tuple(rows), outcomes, view)


def simplex(
    c: np.ndarray, A: np.ndarray, rhs: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray] | None:
    """maximize c . x  subject to  A x <= rhs, x >= 0, for rhs >= 0, by a
    floating-point revised simplex with Bland's rule from the slack basis.
    Returns (value, x, basis, B^-1), basis the standard-form column of each
    row, or None when the program is unbounded.

    A is made float once and never pivoted; column n + i is the slack of
    row i, and the slack basis B = I is feasible since rhs >= 0.
    aug = B^-1 [rhs | I] holds the basic solution x_B and B^-1. The first
    column with reduced cost above EPS_LP enters, the row r with the least
    ratio leaves, ties within EPS_LP to the least basic column, and the
    pivot is a rank-one update of aug. The duals y = c_B B^-1 price the
    columns of A in one product y A and the slacks as -y; a pivot on entry
    d_r of the entering column q adds theta B^-1[r] to y, theta =
    reduced_q / d_r before the update, so it subtracts theta B^-1[r] [A | I]
    from the reduced costs, read over the rows where B^-1[r] is nonzero.
    When the updated costs leave no column above EPS_LP, all are priced
    again, so optimality is declared on a full pricing only."""
    A = np.asarray(A)
    rhs = np.asarray(rhs, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if len(A) != len(rhs):
        raise ValueError("matrix and rhs must have equal length")
    if A.shape[1] != len(c):
        raise ValueError("matrix width must match the objective")
    if (rhs < 0).any():
        raise ValueError("rhs must be nonnegative")
    m, n = A.shape
    # row-major, as y A reads it; a transposed copy takes longer to make
    Af = np.ascontiguousarray(A, dtype=float)
    basis = np.arange(n, n + m)
    aug = np.column_stack((rhs, np.eye(m)))
    inverse = aug[:, 1:]
    c = np.concatenate((np.asarray(c, dtype=float), np.zeros(m)))
    c_B = c[basis]
    reduced = np.empty(n + m)
    priced, slack = reduced[:n], reduced[n:]
    c_A = c[:n]
    updated = False
    while True:
        if not updated:
            y = c_B @ inverse
            np.subtract(c_A, np.matmul(y, Af, out=priced), out=priced)
            np.negative(y, out=slack)
            reduced[basis] = 0
        positive = reduced > EPS_LP
        enter = int(positive.argmax())
        if not positive[enter]:
            if not updated:
                break
            updated = False
            continue
        d = inverse @ Af[:, enter] if enter < n else inverse[:, enter - n]
        cand = (d > EPS_LP).nonzero()[0]
        best, least, leave = math.inf, -1, -1
        for i, ratio, b in zip(
            cand.tolist(),
            (aug[cand, 0] / d[cand]).tolist(),
            basis[cand].tolist(),
        ):
            if ratio < best - EPS_LP or (abs(ratio - best) <= EPS_LP and b < least):
                best, least, leave = ratio, b, i
        if leave < 0:
            return None
        row = inverse[leave] * (reduced.item(enter) / d.item(leave))
        nz = row.nonzero()[0]
        # gathering most rows of A would copy most of it
        priced -= np.dot(row[nz], Af.take(nz, 0)) if 2 * len(nz) < m else row @ Af
        slack -= row
        updated = True
        pr = aug[leave] / d[leave]
        aug -= d[:, None] * pr
        aug[leave] = pr
        basis[leave] = enter
        c_B[leave] = c[enter]
    x = np.zeros(n + m)
    x[basis] = aug[:, 0]
    # c_B . x_B, summed in column order
    cols = np.sort(basis)
    return sum((c[cols] * x[cols]).tolist(), 0.0), x[:n], basis, inverse


# --------------------------------------------------- noncontextual fraction


@dataclass(frozen=True)
class FractionResult:
    """Noncontextual/contextual split of an empirical model.

    witness maps global assignments (value tuples in observable order) to
    their weights in the maximal noncontextual part; weights sum to ncf.
    Exact fields are filled when the model carries exact tables."""

    ncf: float
    cf: float
    witness: dict[tuple[str, ...], float]
    ncf_exact: Fraction | None = None
    witness_exact: dict[tuple[str, ...], Fraction] | None = None

    def __post_init__(self) -> None:
        if not (-EPS_LP <= self.ncf <= 1 + EPS_LP):
            raise ValueError(f"ncf out of range: {self.ncf!r}")
        if abs(self.ncf + self.cf - 1.0) > EPS_LP:
            raise ValueError("cf must equal 1 - ncf")
        if abs(sum(self.witness.values()) - self.ncf) > EPS_LP:
            raise ValueError("witness weights must sum to ncf")


def _validate_witness(
    inc: IncidenceMatrix, rhs: np.ndarray, x: np.ndarray, ncf: float
) -> None:
    """Recheck the float solution x against the optimum and the tables, on
    all of its positive entries: weights below EPS_LP, which the float
    witness leaves out, still count towards the sum."""
    if (x < -EPS_LP).any():
        raise RuntimeError("negative witness weight")
    cols = np.flatnonzero(x > 0)
    weights = x[cols]
    if abs(sum(weights.tolist()) - ncf) > EPS_LP:
        raise RuntimeError("witness weights do not sum to the optimum")
    used = inc.matrix[:, cols] @ weights
    over = np.flatnonzero(used > rhs + EPS_LP)
    if over.size:
        ctx, tup = inc.rows[over[0]]
        raise RuntimeError(f"witness exceeds probability at {ctx} {tup}")


# int64 arithmetic is exact while every operand's magnitude stays below this:
# a pivot forms pv * a - f * w, two products below 2**62
_INT64_SAFE = 2**31


def _widen(aug: np.ndarray) -> np.ndarray:
    """aug as Python ints once an entry reaches _INT64_SAFE."""
    if aug.dtype != object and aug.size and np.abs(aug).max() >= _INT64_SAFE:
        return aug.astype(object)
    return aug


def _pivot(
    aug: np.ndarray, col: np.ndarray, r: int, d: int
) -> tuple[int, np.ndarray]:
    """One fraction-free pivot on col[r] of an integer system aug scaled by
    d > 0, col the pivot column in the same scale: aug becomes
    (col[r] aug - outer(col, aug[r])) // d, every division exact, with row r
    kept, and is negated when col[r] < 0. Returns the new scale |col[r]| and
    the new array, promoted once to Python ints when an entry reaches
    _INT64_SAFE. The caller keeps every operand below it in int64."""
    pr = aug[r].copy()
    piv = int(col[r])
    f = col[:, None] * pr
    # in place, without the multiply or the division by a pivot of 1, the
    # usual one on 0/1 bases
    if piv != 1:
        aug *= piv
    aug -= f
    if d != 1:
        aug //= d
    aug[r] = pr
    if piv < 0:
        piv, aug = -piv, -aug
    return piv, _widen(aug)


def _scaled(p: Sequence[Fraction]) -> tuple[int, np.ndarray]:
    """(scale, P) with P = p * scale integral, scale the lcm of the
    denominators; P is int64 while its entries are below _INT64_SAFE."""
    scale = math.lcm(*(v.denominator for v in p))
    P = [v.numerator * (scale // v.denominator) for v in p]
    small = all(-_INT64_SAFE < v < _INT64_SAFE for v in P)
    return scale, np.array(P, dtype=np.int64 if small else object)


def _context_basis(inc: IncidenceMatrix) -> list[int]:
    """A basis that is always dual feasible: for each row of the first
    context the first assignment column hitting it, and the slacks of every
    other row. Every assignment hits exactly one row of a context, so the
    duals are 1 on the first context and 0 elsewhere, and every reduced cost
    is 0 or -1. B = I + N with N nonzero only on the first context's columns
    and the other rows, so N N = 0 and B^-1 = 2I - B exactly."""
    A = inc.matrix
    nrows, n = A.shape
    first = sum(1 for ctx, _ in inc.rows if ctx == inc.rows[0][0])
    heads = [int(A[r].argmax()) for r in range(first)]
    return heads + list(range(n + first, n + nrows))


def _basis_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """B = [A | I][:, basis] as a float 0/1 matrix."""
    n = A.shape[1]
    B = np.zeros((len(A), len(basis)))
    at_A = basis < n
    B[:, at_A] = A[:, basis[at_A]]
    B[basis[~at_A] - n, (~at_A).nonzero()[0]] = 1
    return B


def _basis_system(
    A: np.ndarray, P: np.ndarray, basis: np.ndarray, inverse: np.ndarray
) -> np.ndarray | None:
    """B^-1 [P | I] for B = [A | I][:, basis], rows in basis order, read off
    the float inverse: its rounding R is B^-1 when B R = I exactly, which
    needs |det B| = 1. None otherwise, so also when B is singular. With
    |R| < 2**31 every partial sum of B R is below m 2**31 < 2**53, so the
    float64 product is exact; a NaN fails the bound."""
    if not np.abs(inverse).max(initial=0.0) < _INT64_SAFE:
        return None
    R = np.rint(inverse)
    if not np.array_equal(_basis_matrix(A, basis) @ R, np.eye(len(R))):
        return None
    R = R.astype(np.int64)
    bound = len(R) * int(np.abs(R).max(initial=0)) * int(np.abs(P).max(initial=0))
    # int64 while no sum of products can overflow, else Python ints
    RP = R @ (P if bound < 2**63 else P.astype(object))
    return _widen(np.column_stack((RP, R)))


def _priced(d: int, v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """d c - v [A | I] for an integer row v, c = 1 on the assignment
    columns and 0 on the slacks, so d times the reduced costs when v is the
    scaled dual. Float64 while d + sum |v| < 2**53, which bounds every
    partial sum over a 0/1 column, so exactly; Python ints otherwise."""
    v = v.astype(float if d + int(np.abs(v).sum()) < 2**53 else object)
    nz = v.nonzero()[0]
    return np.concatenate((d - v[nz] @ A[nz], -v))


def _exact_optimum(
    inc: IncidenceMatrix, p: Sequence[Fraction], basis: np.ndarray, inverse: np.ndarray
) -> tuple[Fraction, dict[tuple[str, ...], Fraction]]:
    """The exact optimum and witness for the exact probabilities p, from
    the float-optimal basis and its float B^-1, or from _context_basis when
    that B^-1 does not round to the exact one or the basis is not exactly
    dual feasible. Dual-simplex pivots with Bland's rule run while the
    primal (column 0 of aug = d B^-1 [P | I], d = 1 at the start) is
    infeasible: the leaving row is the negative basic value with the least
    basic column; the entering column has the least ratio of reduced cost
    to pivot-row entry among the entries below 0, ties to the least column.
    Each pivot keeps the dual feasible, so the first primal feasible basis
    is optimal."""
    A = inc.matrix
    n = A.shape[1]
    scale, P = _scaled(p)
    basis = np.array(basis)
    aug = _basis_system(A, P, basis, inverse)
    # the dual is the sum of the rows of B^-1 at basic assignments
    if aug is None or (_priced(1, aug[basis < n, 1:].sum(axis=0), A) > 0).any():
        basis = np.array(_context_basis(inc))
        aug = _basis_system(A, P, basis, 2 * np.eye(len(A)) - _basis_matrix(A, basis))
    d = 1
    while (aug[:, 0] < 0).any():
        neg = np.flatnonzero(aug[:, 0] < 0)
        r = int(neg[basis[neg].argmin()])
        red = _priced(d, aug[basis < n, 1:].sum(axis=0), A)
        # row r of d B^-1 [A | I]: some entry is below 0, as x = 0 is feasible
        alpha = -_priced(0, aug[r, 1:], A)
        cand = np.flatnonzero(alpha < 0)
        # the exact least ratios are among those whose float is within a few
        # ulps of the float minimum
        ratio = red[cand].astype(float) / alpha[cand].astype(float)
        near = cand[ratio <= ratio.min() * (1 + 1e-9)].tolist()
        enter = min(near, key=lambda j: (Fraction(int(red[j]), int(alpha[j])), j))
        col = aug[:, 1:] @ A[:, enter] if enter < n else aug[:, 1 + enter - n]
        if np.abs(col).max() >= _INT64_SAFE:
            aug, col = aug.astype(object), col.astype(object)
        d, aug = _pivot(aug, col, r, d)
        basis[r] = enter
    denom = d * scale
    assigned = basis < n
    values = sorted(zip(basis[assigned].tolist(), aug[assigned, 0].tolist()))
    witness = {inc.assignment(j): Fraction(v, denom) for j, v in values if v}
    return Fraction(sum(v for _, v in values), denom), witness


def contextual_fraction(m: EmpiricalModel) -> FractionResult:
    """Solve the decomposition LP. Precondition: the model passes
    no-disturbance within 1e-6 (raises SignallingModelError otherwise).

    ncf is the LP optimum (clamped into [0, 1]); cf = 1 - ncf; the witness is
    revalidated against the tables after solving. One incidence matrix
    serves the float LP, the witness check and the exact path. When exact
    tables are available the float-optimal basis is certified, or repaired
    by exact pivots, in integers; the exact optimum must agree with the
    float one within 1e-9."""
    worst, _ = no_disturbance(m)
    if worst > EPS_ND_PRECONDITION:
        raise SignallingModelError(
            f"no-disturbance violated by {worst!r}; the fraction program "
            f"needs a non-signalling model"
        )
    inc = incidence(m.scenario)
    # the float program takes its right-hand side from the exact tables when
    # there are any, so that it poses the same model as the exact routine
    # even where snapping moved a probability
    if m.exact_available:
        p = [m.tables[ctx].exact[tup] for ctx, tup in inc.rows]
        rhs = np.array([q.numerator / q.denominator for q in p])  # float(q)
    else:
        p = [m.tables[ctx][tup] for ctx, tup in inc.rows]
        rhs = np.array(p, dtype=float)
    # b = 0 is feasible, and the rows of any one context bound sum(b) by 1,
    # so the program is never unbounded: a None, like a non-finite answer,
    # is a failure of the float arithmetic
    solved = simplex(np.ones(inc.matrix.shape[1]), inc.matrix, rhs)
    if solved is None or not (math.isfinite(solved[0]) and np.isfinite(solved[1]).all()):
        rows, cols = inc.matrix.shape
        raise RuntimeError(
            f"the float simplex failed on the {rows} x {cols} fraction program"
        )
    value, x, basis, inverse = solved
    ncf = min(max(value, 0.0), 1.0)
    _validate_witness(inc, rhs, x, ncf)
    if not m.exact_available:
        cols = np.flatnonzero(x > EPS_LP)
        witness = {inc.assignment(j): float(x[j]) for j in cols.tolist()}
        return FractionResult(ncf, 1.0 - ncf, witness)
    ncf_exact, witness_exact = _exact_optimum(inc, p, basis, inverse)
    if abs(float(ncf_exact) - ncf) > EPS_LP:
        raise RuntimeError(
            f"exact optimum {ncf_exact} drifts from float optimum {ncf!r}"
        )
    ncf = float(ncf_exact)
    witness = {a: float(w) for a, w in witness_exact.items()}
    return FractionResult(ncf, 1.0 - ncf, witness, ncf_exact, witness_exact)
