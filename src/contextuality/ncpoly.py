"""Noncontextual-fraction programs and a self-contained simplex solver.

The decomposition question "how much of this empirical model is explained by
a global distribution" is a small dense LP: maximize the total weight b >= 0
over deterministic global assignments subject to incidence * b <= table
probabilities, row by row. Every row is an upper bound with a nonnegative
right-hand side, so the slack basis is feasible and the solver needs one
phase only. The program has few rows and very many columns, so the solver
is a float64 revised simplex with Bland's rule: the matrix [A | I] is built
once, one product with the duals prices every column, and each pivot
updates only the m x m basis inverse.

For exact tables the float-optimal basis is certified in integers. One
fraction-free (Bareiss) Gauss-Jordan elimination of [K | P | I], K the square
0/1 core of the basis and P the scaled probabilities, gives d = |det K|, the
primal d K^-1 P and the adjugate d K^-1, whose column sums are the dual
d y. The array is int64 while every entry is below 2**31, so that no step
can overflow, and is otherwise promoted once to Python ints. The
certificate checks primal feasibility, dual feasibility and, through the
basis, complementary slackness. A basis that fails it (after a tie below
the float tolerance) is repaired by exact dual-simplex pivots with Bland's
rule on the integer system d B^-1 [P | I] of the whole basis B, each pivot
the same fraction-free step as the elimination; Fractions appear only in
the final witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scenario import ContextKey, EmpiricalModel, Scenario, no_disturbance

MAX_INCIDENCE_COLUMNS = 2**20
EPS_LP = 1e-9
EPS_ND_PRECONDITION = 1e-6

__all__ = [
    "MAX_INCIDENCE_COLUMNS",
    "EPS_LP",
    "SignallingModelError",
    "IncidenceMatrix",
    "LinearProgram",
    "SimplexResult",
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

    labels: tuple[str, ...]
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
    """Column c is the mixed-radix number whose digits, first observable
    most significant, are the outcome indices of assignment c; its row in a
    context is the same number read off the context's observables."""
    ncols = sc.assignment_space()
    if ncols > MAX_INCIDENCE_COLUMNS:
        raise ValueError(
            f"assignment space {ncols} exceeds the 2**20 incidence guard"
        )
    labels = tuple(o.label for o in sc.observables)
    outcomes = tuple(o.outcomes for o in sc.observables)
    cols = np.arange(ncols)
    digits: dict[str, np.ndarray] = {}
    stride = ncols
    for o in sc.observables:
        stride //= len(o.outcomes)
        digits[o.label] = cols // stride % len(o.outcomes)
    rows: list[tuple[ContextKey, tuple[str, ...]]] = []
    hits: list[np.ndarray] = []
    for ctx in sc.contexts:
        local = np.zeros(ncols, dtype=np.intp)
        for l in ctx:
            local = local * len(sc.observable(l).outcomes) + digits[l]
        hits.append(len(rows) + local)
        rows.extend((ctx, tup) for tup in sc.joint_outcomes(ctx))
    mat = np.zeros((len(rows), ncols), dtype=np.int8)
    for hit in hits:
        mat[hit, cols] = 1
    mat.setflags(write=False)
    return IncidenceMatrix(labels, tuple(rows), outcomes, mat)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x  subject to  matrix x <= rhs, x >= 0, with
    rhs >= 0.

    The matrix is stored as a two-dimensional ndarray of shape
    (len(rhs), len(objective)); an ndarray is kept as it is. Programs
    compare by identity, since an ndarray has no single truth value."""

    objective: tuple
    matrix: np.ndarray
    rhs: tuple

    def __post_init__(self) -> None:
        objective = tuple(self.objective)
        rhs = tuple(self.rhs)
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if len(matrix) != len(rhs):
            raise ValueError("matrix and rhs must have equal length")
        if matrix.shape[1] != len(objective):
            raise ValueError("matrix width must match the objective")
        if any(b < 0 for b in rhs):
            raise ValueError("rhs must be nonnegative")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # Optimal | Unbounded
    value: float | None
    x: tuple[float, ...] | None
    basis: tuple[int, ...] | None  # standard-form column indices, one per row


def simplex(lp: LinearProgram) -> SimplexResult:
    """Floating-point revised simplex with Bland's rule from the slack basis.

    The matrix M = [A | I] is built once and never pivoted; column n + i is
    the slack of row i, and the slack basis B = I is feasible since
    rhs >= 0. The duals y = c_B B^-1 price every column in one product; the
    first column with reduced cost above EPS_LP enters, the row with the
    least ratio leaves, ties within EPS_LP to the least basic column, and
    the pivot is a rank-one update of B^-1 and of the basic solution x_B."""
    m, n = lp.matrix.shape
    # M takes lp.matrix as it is, without an intermediate float copy
    M = np.zeros((m, n + m))
    M[:, :n] = lp.matrix
    basis = np.arange(n, n + m)
    M[np.arange(m), basis] = 1.0
    Binv = np.eye(m)
    x_B = np.array(lp.rhs, dtype=float)
    c = np.concatenate((np.array(lp.objective, dtype=float), np.zeros(m)))
    c_B = c[basis]
    while True:
        reduced = c - (c_B @ Binv) @ M
        reduced[basis] = 0
        positive = reduced > EPS_LP
        enter = int(positive.argmax())
        if not positive[enter]:
            break
        d = Binv @ M[:, enter]
        cand = np.flatnonzero(d > EPS_LP)
        leave = -1
        best = least = None
        for i, ratio, b in zip(
            cand.tolist(),
            (x_B[cand] / d[cand]).tolist(),
            basis[cand].tolist(),
        ):
            if (
                best is None
                or ratio < best - EPS_LP
                or (abs(ratio - best) <= EPS_LP and b < least)
            ):
                best, least, leave = ratio, b, i
        if leave < 0:
            return SimplexResult("Unbounded", None, None, None)
        pr = Binv[leave] / d[leave]
        xr = x_B[leave] / d[leave]
        Binv -= d[:, None] * pr
        x_B -= d * xr
        Binv[leave] = pr
        x_B[leave] = xr
        basis[leave] = enter
        c_B[leave] = c[enter]
    x = np.zeros(n + m)
    x[basis] = x_B
    # c_B . x_B, summed in column order
    cols = np.sort(basis)
    value = sum((c[cols] * x[cols]).tolist(), 0.0)
    return SimplexResult(
        "Optimal", value, tuple(x[:n].tolist()), tuple(basis.tolist())
    )


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


def _program(inc: IncidenceMatrix, m: EmpiricalModel) -> LinearProgram:
    """The decomposition LP: maximize the total assignment weight under the
    incidence upper bounds. A model with exact tables takes its right-hand
    side from them, so that the float program poses the same model as the
    exact certificate even where snapping moved a probability."""
    rhs = [
        float(m.tables[ctx].exact[tup] if m.exact_available else m.tables[ctx][tup])
        for ctx, tup in inc.rows
    ]
    return LinearProgram((1.0,) * inc.matrix.shape[1], inc.matrix, rhs)


def _validate_witness(
    inc: IncidenceMatrix, rhs: tuple[float, ...], x: np.ndarray, ncf: float
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
    over = np.flatnonzero(used > np.array(rhs, dtype=float) + EPS_LP)
    if over.size:
        ctx, tup = inc.rows[over[0]]
        raise RuntimeError(f"witness exceeds probability at {ctx} {tup}")


# int64 arithmetic is exact while every operand's magnitude stays below this:
# an elimination step forms pv * a - f * w, two products below 2**62
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


def _adjugate_solve(
    K: np.ndarray, b: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [K | b | I] for a
    square integer K, one _pivot per column. Returns (d, X, adj) with
    d = |det K| > 0, K X = d b and K adj = d I, so adj is the adjugate of K
    up to its sign; None when K is singular."""
    k = len(K)
    aug = _widen(np.hstack((K, b.reshape(k, 1), np.eye(k, dtype=np.int64))))
    d = 1
    for c in range(k):
        nonzero = aug[c:, c].nonzero()[0]
        if not nonzero.size:
            return None
        piv = c + int(nonzero[0])
        if piv != c:
            aug[[c, piv]] = aug[[piv, c]]
        d, aug = _pivot(aug, aug[:, c], c, d)
    return d, aug[:, k], aug[:, k + 1 :]


def _scaled(p: tuple[Fraction, ...]) -> tuple[int, np.ndarray]:
    """(scale, P) with P = p * scale integral, scale the lcm of the
    denominators; P is int64 while its entries are below _INT64_SAFE."""
    scale = math.lcm(*(v.denominator for v in p))
    P = [v.numerator * (scale // v.denominator) for v in p]
    small = all(-_INT64_SAFE < v < _INT64_SAFE for v in P)
    return scale, np.array(P, dtype=np.int64 if small else object)


def _optimum(
    inc: IncidenceMatrix, values: list[tuple[int, int]], denom: int
) -> tuple[Fraction, dict[tuple[str, ...], Fraction]]:
    """The exact optimum and witness from the basic assignment columns'
    (column, value * denom) pairs, in column order."""
    witness = {inc.assignment(j): Fraction(v, denom) for j, v in values if v}
    return Fraction(sum(v for _, v in values), denom), witness


def _certify(
    inc: IncidenceMatrix, p: tuple[Fraction, ...], basis: tuple[int, ...]
) -> tuple[Fraction, dict[tuple[str, ...], Fraction]] | None:
    """Certify the float-optimal basis of the decomposition LP exactly.

    Columns n.. of the standard form are the row slacks. With S the basic
    assignment columns, T the rows whose slack is basic and N the others,
    the basis system reduces to the square 0/1 core K = A[N, S]:
    K x_S = p_N and K^T y_N = 1, with s_T = p_T - A[T, S] x_S and y_T = 0.
    One fraction-free elimination of [K | P_N | I], with P = p *
    lcm(denominators), gives d = |det K|, X = d x_S (scaled by the lcm) and
    adj = d K^-1; the dual Y_N = d y_N is the column sums of adj. Entries
    stay int64 while they are below 2**31 and become Python ints
    otherwise. The basis is optimal iff X >= 0, A[T, S] X <= d P_T,
    Y >= 0 and every assignment column has Y summed over its rows >= d.
    Returns the exact optimum and witness, or None when the certificate
    fails."""
    A = inc.matrix
    nrows, n = A.shape
    if len(basis) != nrows:
        return None
    S = sorted(b for b in basis if b < n)
    slack_rows = {b - n for b in basis if b >= n}
    N = [r for r in range(nrows) if r not in slack_rows]
    T = sorted(slack_rows)
    scale, P = _scaled(p)
    solved = _adjugate_solve(A[np.ix_(N, S)], P[N])
    if solved is None:
        return None
    d, X, adj = solved
    if (X < 0).any():
        return None
    # d * P_T stays in int64 only when d and P_T are both below 2**31
    P_T = P[T] if P.dtype == X.dtype else P[T].astype(object)
    if (A[np.ix_(T, S)] @ X > d * P_T).any():
        return None
    Y_N = adj.sum(axis=0)
    if (Y_N < 0).any():
        return None
    # A^T Y sums nonnegative integers up to sum(Y_N) (y_T = 0), exactly in
    # float64 unless the cofactors are huge
    small = max(sum(Y_N.tolist()), d) < 2**53
    if (Y_N.astype(float if small else object) @ A[N] < d).any():
        return None
    return _optimum(inc, list(zip(S, X.tolist())), d * scale)


def _context_basis(inc: IncidenceMatrix) -> list[int]:
    """A basis that is always dual feasible: for each row of the first
    context the first assignment column hitting it, and the slacks of every
    other row. Every assignment hits exactly one row of a context, so the
    duals are 1 on the first context and 0 elsewhere, every reduced cost is
    0 or -1, and the core is the identity."""
    A = inc.matrix
    nrows, n = A.shape
    first = sum(1 for ctx, _ in inc.rows if ctx == inc.rows[0][0])
    heads = [int(A[r].argmax()) for r in range(first)]
    return heads + list(range(n + first, n + nrows))


def _repair(
    inc: IncidenceMatrix, p: tuple[Fraction, ...], basis: tuple[int, ...]
) -> tuple[Fraction, dict[tuple[str, ...], Fraction]]:
    """The exact optimum and witness by dual-simplex pivots with Bland's
    rule, from basis when it is exactly dual feasible and from
    _context_basis otherwise.

    aug = d B^-1 [P | I], B = [A | I][:, basis] and d = |det B|, stays in
    integers: column 0 is the scaled primal, and the rows of the rest at
    basic assignment columns sum to the scaled dual. The leaving row is the
    negative basic value with the least basic column; the entering column
    has the least ratio of reduced cost to pivot-row entry among the entries
    below 0, ties to the least column. Each pivot keeps the dual feasible,
    so the first primal feasible basis is optimal."""
    A = inc.matrix
    nrows, n = A.shape
    M = np.hstack((A, np.eye(nrows, dtype=A.dtype)))
    scale, P = _scaled(p)

    def reduced(d, adj, basis):
        """d times the reduced cost of every column."""
        red = -(adj[[i for i, b in enumerate(basis) if b < n]].sum(axis=0) @ M)
        red[:n] += d
        return red

    basis = list(basis)
    solved = _adjugate_solve(M[:, basis], P)
    if solved is None or (reduced(solved[0], solved[2], basis) > 0).any():
        basis = _context_basis(inc)
        solved = _adjugate_solve(M[:, basis], P)
    d, X, adj = solved
    aug = np.column_stack((X, adj))
    while (aug[:, 0] < 0).any():
        r = min(np.flatnonzero(aug[:, 0] < 0).tolist(), key=basis.__getitem__)
        red = reduced(d, aug[:, 1:], basis)
        # some entry is below 0, since x = 0 is feasible
        alpha = aug[r, 1:] @ M
        cand = np.flatnonzero(alpha < 0)
        # the exact least ratios are among those whose float is within a few
        # ulps of the float minimum
        ratio = red[cand].astype(float) / alpha[cand].astype(float)
        near = cand[ratio <= ratio.min() * (1 + 1e-9)].tolist()
        enter = min(near, key=lambda j: (Fraction(int(red[j]), int(alpha[j])), j))
        col = aug[:, 1:] @ M[:, enter]
        if np.abs(col).max() >= _INT64_SAFE:
            aug, col = aug.astype(object), col.astype(object)
        d, aug = _pivot(aug, col, r, d)
        basis[r] = enter
    values = sorted((b, int(aug[i, 0])) for i, b in enumerate(basis) if b < n)
    return _optimum(inc, values, d * scale)


def contextual_fraction(m: EmpiricalModel) -> FractionResult:
    """Solve the decomposition LP. Precondition: the model passes
    no-disturbance within 1e-6 (raises SignallingModelError otherwise).

    ncf is the LP optimum (clamped into [0, 1]); cf = 1 - ncf; the witness is
    revalidated against the tables after solving. One incidence matrix
    serves the float LP, the witness check and the exact path. When exact
    tables are available the float-optimal basis is certified in integers,
    and repaired by exact pivots if the certificate fails; the exact optimum
    must agree with the float one within 1e-9."""
    worst, _ = no_disturbance(m)
    if worst > EPS_ND_PRECONDITION:
        raise SignallingModelError(
            f"no-disturbance violated by {worst!r}; the fraction program "
            f"needs a non-signalling model"
        )
    inc = incidence(m.scenario)
    lp = _program(inc, m)
    res = simplex(lp)
    # b = 0 is feasible, and the rows of any one context bound sum(b) by 1
    if res.status != "Optimal":  # pragma: no cover
        raise RuntimeError(f"decomposition LP ended {res.status}")
    ncf = min(max(float(res.value), 0.0), 1.0)
    x = np.array(res.x, dtype=float)
    _validate_witness(inc, lp.rhs, x, ncf)
    cols = np.flatnonzero(x > EPS_LP)
    witness = {inc.assignment(j): float(x[j]) for j in cols.tolist()}

    ncf_exact = None
    witness_exact = None
    if m.exact_available:
        p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
        ncf_exact, witness_exact = _certify(inc, p, res.basis) or _repair(
            inc, p, res.basis
        )
        if abs(float(ncf_exact) - ncf) > EPS_LP:
            raise RuntimeError(
                f"exact optimum {ncf_exact} drifts from float optimum {ncf!r}"
            )
        ncf = float(ncf_exact)
        witness = {a: float(w) for a, w in witness_exact.items()}
    return FractionResult(ncf, 1.0 - ncf, witness, ncf_exact, witness_exact)
