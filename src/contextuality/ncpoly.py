"""Noncontextual-fraction programs and a self-contained simplex solver.

The decomposition question "how much of this empirical model is explained by
a global distribution" is a small dense LP: maximize the total weight b >= 0
over deterministic global assignments subject to incidence * b <= table
probabilities, row by row. Every row is an upper bound with a nonnegative
right-hand side, so the slack basis is feasible and the solver needs one
phase only. The program has few rows and very many columns, so the solver
is a revised simplex with Bland's rule: the matrix [A | I] is built once, one
product with the duals prices every column, and each pivot updates only the
m x m basis inverse. Float64 and exact Fraction (object dtype, zero
tolerance) arithmetic share the same pivoting code.

For exact tables the float-optimal basis is certified in integers. One
fraction-free (Bareiss) Gauss-Jordan elimination of [K | P | I], K the square
0/1 core of the basis and P the scaled probabilities, gives d = |det K|, the
primal d K^-1 P and the adjugate d K^-1, whose column sums are the dual
d y. The array is int64 while every entry is below 2**31, so that no step
can overflow, and is otherwise promoted once to Python ints. The
certificate checks primal feasibility, dual feasibility and, through the
basis, complementary slackness. Only when that check fails does the exact
simplex run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scenario import (
    ContextKey,
    EmpiricalModel,
    Scenario,
    no_disturbance,
)

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
    "simplex_exact",
    "ncf_program",
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

    @property
    def nvars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # Optimal | Unbounded
    value: object | None
    x: tuple | None
    basis: tuple[int, ...] | None  # standard-form column indices, one per row


def _update(
    Binv: np.ndarray, x_B: np.ndarray, d: np.ndarray, row: int
) -> None:
    """Pivot on d[row] in place, d = B^-1 M_j the entering column: the
    rank-one update of the basis inverse and of the basic solution."""
    pr = Binv[row] / d[row]
    xr = x_B[row] / d[row]
    Binv -= d[:, None] * pr
    x_B -= d * xr
    Binv[row] = pr
    x_B[row] = xr


def _bland_iterate(
    M: np.ndarray,
    c: np.ndarray,
    Binv: np.ndarray,
    x_B: np.ndarray,
    basis: np.ndarray,
    eps,
) -> str:
    """Run Bland-rule pivots to optimality or unboundedness, updating Binv,
    x_B and basis in place. The duals y = c_B B^-1 price every column of M
    in one product; the first column with reduced cost above eps enters, the
    row with the least ratio leaves, ties within eps to the least basic
    column."""
    c_B = c[basis]
    while True:
        reduced = c - (c_B @ Binv) @ M
        reduced[basis] = 0
        positive = reduced > eps
        enter = int(positive.argmax())
        if not positive[enter]:
            return "Optimal"
        d = Binv @ M[:, enter]
        cand = np.flatnonzero(d > eps)
        leave = -1
        best = least = None
        for i, ratio, b in zip(
            cand.tolist(),
            (x_B[cand] / d[cand]).tolist(),
            basis[cand].tolist(),
        ):
            if (
                best is None
                or ratio < best - eps
                or (abs(ratio - best) <= eps and b < least)
            ):
                best, least, leave = ratio, b, i
        if leave < 0:
            return "Unbounded"
        _update(Binv, x_B, d, leave)
        basis[leave] = enter
        c_B[leave] = c[enter]


_to_fractions = np.frompyfunc(Fraction, 1, 1)


def _array(values, exact: bool) -> np.ndarray:
    """Float64 array, or object array of Fractions when exact."""
    if not exact:
        return np.array(values, dtype=float)
    return _to_fractions(np.array(values, dtype=object))


def _solve(lp: LinearProgram, exact: bool, eps) -> SimplexResult:
    """Revised simplex with Bland's rule from the slack basis. The matrix
    M = [A | I] is built once and never pivoted; each pivot updates the
    m x m basis inverse B^-1 and the basic solution x_B. Column n + i is the
    slack of row i, and the slack basis B = I is feasible since rhs >= 0."""
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    dtype = object if exact else float
    m, n = lp.matrix.shape
    # the float matrix takes lp.matrix as it is, without an intermediate
    # float copy
    M = np.full((m, n + m), zero, dtype=dtype)
    M[:, :n] = _array(lp.matrix, exact) if exact else lp.matrix
    basis = np.arange(n, n + m)
    M[np.arange(m), basis] = one
    Binv = M[:, n:].copy()
    x_B = _array(lp.rhs, exact)
    c = np.concatenate(
        (_array(lp.objective, exact), np.full(m, zero, dtype=dtype))
    )
    status = _bland_iterate(M, c, Binv, x_B, basis, eps)
    if status != "Optimal":
        return SimplexResult(status, None, None, None)
    x = np.full(n + m, zero, dtype=dtype)
    x[basis] = x_B
    # c_B . x_B, summed in column order
    cols = np.sort(basis)
    value = sum((c[cols] * x[cols]).tolist(), zero)
    return SimplexResult(
        "Optimal", value, tuple(x[:n].tolist()), tuple(basis.tolist())
    )


def simplex(lp: LinearProgram) -> SimplexResult:
    """Floating-point revised simplex with Bland's rule from the slack
    basis, ratio-test and optimality tolerances at EPS_LP."""
    return _solve(lp, False, EPS_LP)


def simplex_exact(lp: LinearProgram) -> SimplexResult:
    """The same slack-basis revised simplex and pivot rule over exact
    Fractions (zero tolerance)."""
    return _solve(lp, True, Fraction(0))


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


def _program(
    inc: IncidenceMatrix, m: EmpiricalModel, exact: bool
) -> LinearProgram:
    """The float program of a model with exact tables takes its right-hand
    side from them, so that it poses the same model as the exact one even
    where snapping moved a probability."""
    from_exact = exact or m.exact_available
    rhs = []
    for ctx, tup in inc.rows:
        dist = m.tables[ctx]
        p = dist.exact[tup] if from_exact else dist[tup]
        rhs.append(p if exact else float(p))
    one = Fraction(1) if exact else 1.0
    return LinearProgram((one,) * inc.matrix.shape[1], inc.matrix, rhs)


def ncf_program(m: EmpiricalModel, exact: bool = False) -> LinearProgram:
    """The decomposition LP for a model: maximize total assignment weight
    under the incidence upper bounds. Its matrix is the incidence ndarray."""
    return _program(incidence(m.scenario), m, exact)


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


def _adjugate_solve(
    K: np.ndarray, b: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [K | b | I] for a
    square integer K. Returns (d, X, adj) with d = |det K| > 0, K X = d b
    and K adj = d I, so adj is the adjugate of K up to its sign; None when K
    is singular.

    Each step updates the whole array at once, every division exact; the
    array stays int64 while its entries are below _INT64_SAFE, checked
    before each step and after the last, and is otherwise promoted once to
    Python ints."""
    k = len(K)
    aug = np.hstack((K, b.reshape(k, 1), np.eye(k, dtype=np.int64)))
    prev = 1
    for col in range(k):
        aug = _widen(aug)
        nonzero = aug[col:, col].nonzero()[0]
        if not nonzero.size:
            return None
        piv = col + int(nonzero[0])
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        pr = aug[col].copy()
        pv = int(pr[col])
        # aug = (pv * aug - outer(aug[:, col], pr)) // prev in place, without
        # the multiply or the division by a pivot of 1, the usual one on 0/1
        # cores
        f = aug[:, col, None] * pr
        if pv != 1:
            aug *= pv
        aug -= f
        if prev != 1:
            aug //= prev
        aug[col] = pr
        prev = pv
    aug = _widen(aug)
    if prev < 0:
        prev, aug = -prev, -aug
    return prev, aug[:, k], aug[:, k + 1 :]


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
    scale = math.lcm(*(v.denominator for v in p))
    P = [v.numerator * (scale // v.denominator) for v in p]
    small = all(-_INT64_SAFE < v < _INT64_SAFE for v in P)
    P = np.array(P, dtype=np.int64 if small else object)
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
    denom = d * scale
    witness = {
        inc.assignment(j): Fraction(v, denom)
        for j, v in zip(S, X.tolist())
        if v
    }
    return Fraction(sum(X.tolist()), denom), witness


def contextual_fraction(m: EmpiricalModel) -> FractionResult:
    """Solve the decomposition LP. Precondition: the model passes
    no-disturbance within 1e-6 (raises SignallingModelError otherwise).

    ncf is the LP optimum (clamped into [0, 1]); cf = 1 - ncf; the witness is
    revalidated against the tables after solving. One incidence matrix
    serves the float LP, the witness check and the exact path. When exact
    tables are available the float-optimal basis is certified in integers
    (the exact simplex runs only if the certificate fails), and the exact
    optimum must agree with the float one within 1e-9."""
    worst, _ = no_disturbance(m)
    if worst > EPS_ND_PRECONDITION:
        raise SignallingModelError(
            f"no-disturbance violated by {worst!r}; the fraction program "
            f"needs a non-signalling model"
        )
    inc = incidence(m.scenario)
    lp = _program(inc, m, exact=False)
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
        lp_x = _program(inc, m, exact=True)
        certified = _certify(inc, lp_x.rhs, res.basis)
        if certified is None:
            exact_res = simplex_exact(lp_x)
            if exact_res.status != "Optimal":
                raise RuntimeError(
                    f"exact decomposition LP ended {exact_res.status}"
                )
            value = exact_res.value
            witness_exact = {
                inc.assignment(j): w for j, w in enumerate(exact_res.x) if w != 0
            }
        else:
            value, witness_exact = certified
        if abs(float(value) - ncf) > EPS_LP:
            raise RuntimeError(
                f"exact optimum {value} drifts from float optimum {ncf!r}"
            )
        ncf_exact = Fraction(value)
        ncf = float(value)
        witness = {a: float(w) for a, w in witness_exact.items()}
    return FractionResult(
        ncf, 1.0 - ncf, witness, ncf_exact, witness_exact
    )
