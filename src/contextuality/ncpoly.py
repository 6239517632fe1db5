"""The noncontextual-fraction program, its float simplex and its exact
certificate.

The decomposition question "how much of this empirical model is explained by
a global distribution" is a small dense LP: maximize the total weight b >= 0
over deterministic global assignments subject to incidence * b <= table
probabilities, row by row. An assignment that hits a row of probability
exactly 0 is forced to weight 0, so the program is built on the support's
global sections alone, listed layer by layer, and on the rows they hit;
with none, the fraction is 0 with no LP. Every row is an upper bound with a
nonnegative right-hand side, so the slack basis is feasible, and `simplex`,
a float64 revised simplex with Bland's rule for few rows and very many
columns, needs one phase only.

For exact tables the float optimum is verified, not inverted: x = B^-1 P and
the duals y = c_B B^-1, P the scaled probabilities, are read off the float
B^-1, rounded, and accepted when weak duality proves them optimal in
integers. Only if not do exact dual-simplex pivots repair the float basis,
or the first-context basis, in fraction-free integers, starting from the
d B^-1, d = |det B|, that the same pivots build up from the slack basis.
The routine returns weights by column of the program's matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Sequence

import numpy as np

from .scenario import ContextKey, EmpiricalModel, Scenario, no_disturbance

# rows x columns: the simplex's float copy of A takes 8 bytes an entry, 640
# MiB here; the binary 20-cycle (80 rows x 2**20 columns) is just admitted
MAX_INCIDENCE_ENTRIES = 80 * 2**20
EPS_LP = 1e-9
EPS_ND_PRECONDITION = 1e-6

__all__ = [
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
    """0/1 matrix: entry 1 iff the column's assignment restricts to the row's
    (context, joint outcome tuple) event. Columns: the assignments that hit
    no forbidden row, in lexicographic order, digits[i, j] indexing column
    j's outcome in outcomes[i]; rows: the events some column restricts to,
    in declared context and lexicographic order."""

    rows: tuple[tuple[ContextKey, tuple[str, ...]], ...]
    outcomes: tuple[tuple[str, ...], ...]
    matrix: np.ndarray
    digits: np.ndarray

    def decode(self, cols) -> list[tuple[str, ...]]:
        """The assignments of the columns cols, a list or a slice."""
        return [tuple(map(getitem, self.outcomes, d)) for d in self.digits.T[cols].tolist()]

    def assignment(self, col: int) -> tuple[str, ...]:
        return self.decode([col])[0]

    @functools.cached_property
    def assignments(self) -> tuple[tuple[str, ...], ...]:
        """Every column's assignment, built on first use only."""
        return tuple(self.decode(slice(None)))


def _shape(sc: Scenario) -> tuple[list[int], list[list[int]], list[int]]:
    """Outcome counts, and each context's observable positions and rows."""
    sizes = [len(o.outcomes) for o in sc.observables]
    position = {o.label: i for i, o in enumerate(sc.observables)}
    ats = [[position[l] for l in ctx] for ctx in sc.contexts]
    return sizes, ats, [math.prod(map(sizes.__getitem__, at)) for at in ats]


def _local(digits: np.ndarray, at: list[int], sizes: list[int], k: int) -> np.ndarray:
    """Each column's row in the context at `at`, of k rows: its digits there."""
    local = digits[at[0]].astype(np.min_scalar_type(k - 1))
    for i in at[1:]:
        local *= sizes[i]
        local += digits[i]
    return local


def _sections(
    sizes: list[int], ats: list[list[int]], ks: list[int], allowed: Sequence[bool] | None
) -> np.ndarray:
    """The digits (a row per observable) of the assignments every context of
    the _shape (sizes, ats, ks) allows, allowed masking their rows or None,
    in lexicographic order. The observables up to the next context that
    forbids a row are expanded at once, unless past the entry guard, and the
    columns it forbids dropped: a support that forbids nothing is one product."""
    checks: dict[int, list] = {}
    if allowed is not None:
        allowed = np.asarray(allowed)
        for at, k, end in zip(ats, ks, itertools.accumulate(ks)):
            if not (mask := allowed[end - k : end]).all():
                checks.setdefault(max(at), []).append((at, k, mask))
    nrows, n, dtype = sum(ks), len(sizes), np.min_scalar_type(max(sizes) - 1)
    digits, done = np.empty((0, 1), dtype), 0
    for stop in sorted(checks) + ([] if n - 1 in checks else [n - 1]):
        width = math.prod(sizes[done : stop + 1])
        ncols = digits.shape[1] * width
        if nrows * ncols > MAX_INCIDENCE_ENTRIES:
            raise ValueError(
                f"incidence matrix of {nrows} rows x {ncols} columns exceeds "
                f"the 80 * 2**20 entry guard"
            )
        grown = np.empty((stop + 1, ncols), dtype)
        grown[:done].reshape(done, digits.shape[1], width)[...] = digits[:, :, None]
        inner = width
        for i, size in enumerate(sizes[done : stop + 1], done):
            inner //= size
            grown[i].reshape(-1, size, inner)[...] = np.arange(size, dtype=dtype)[:, None]
        for at, k, mask in checks.get(stop, ()):
            grown = grown[:, mask[_local(grown, at, sizes, k)]]
        digits, done = grown, stop + 1
    return digits


def incidence(sc: Scenario, allowed: np.ndarray | None = None) -> IncidenceMatrix:
    """The incidence on the assignments that hit no row forbidden by allowed
    (a mask of the full matrix's rows, or None) and on the rows they hit: per
    context, one comparison of each column's row with the kept rows' indices."""
    sizes, ats, ks = _shape(sc)
    digits = _sections(sizes, ats, ks, allowed)
    rows, blocks = [], [np.empty((0, digits.shape[1]), dtype=bool)]
    # no row is hit when no column is left
    for ctx, at, k in zip(sc.contexts, ats, ks) if digits.shape[1] else ():
        local = _local(digits, at, sizes, k)
        if allowed is None:  # then every row is hit
            hit = np.arange(k, dtype=local.dtype)
        else:
            hit = np.flatnonzero(np.bincount(local, minlength=k))
        tups = sc.joint_outcomes(ctx)
        rows += [(ctx, tups[i]) for i in hit.tolist()]
        blocks.append(local == hit[:, None])
    view = np.concatenate(blocks).view(np.int8)
    view.setflags(write=False)
    outcomes = tuple(o.outcomes for o in sc.observables)
    return IncidenceMatrix(tuple(rows), outcomes, view, digits)


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
    """Recheck the float solution x, x[j] the weight of the incidence's
    column j, against the optimum and every row of the tables, on all of
    its positive entries: weights below EPS_LP, which the float witness
    leaves out, still count towards the sum."""
    if (x < -EPS_LP).any():
        raise RuntimeError("negative witness weight")
    positive = np.flatnonzero(x > 0)
    weights = x[positive]
    if abs(sum(weights.tolist()) - ncf) > EPS_LP:
        raise RuntimeError("witness weights do not sum to the optimum")
    used = inc.matrix[:, positive] @ weights
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
    _INT64_SAFE, and before the pivot when an entry of col does, so that
    every int64 operand stays below it."""
    if col.dtype != object and np.abs(col).max() >= _INT64_SAFE:
        aug, col = aug.astype(object), col.astype(object)
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
    ratios = [v.as_integer_ratio() for v in p]
    scale = math.lcm(*{d for _, d in ratios})
    P = [a * (scale // d) for a, d in ratios]
    small = -_INT64_SAFE < min(P, default=0) and max(P, default=0) < _INT64_SAFE
    return scale, np.array(P, dtype=np.int64 if small else object)


def _context_basis(A: np.ndarray, first: int) -> list[int]:
    """A basis of the program A that is always dual feasible, A's first
    `first` rows being the first context's: for each of them the first
    assignment column hitting it, and the slacks of every other row. Every
    assignment hits exactly one row of a context, so the duals are 1 on the
    first context and 0 elsewhere, and every reduced cost is 0 or -1.
    B = I + N with N nonzero only on the first context's columns and the
    other rows, so det B = 1. Raises RuntimeError when some row of the first
    context is hit by no column, since no such basis exists then."""
    nrows, n = A.shape
    if not A[:first].any(axis=1).all():
        raise RuntimeError(
            f"a first-context row of the {nrows} x {n} fraction program is "
            f"hit by no assignment column"
        )
    heads = A[:first].argmax(axis=1).tolist()
    return heads + list(range(n + first, n + nrows))


def _start(
    A: np.ndarray, P: np.ndarray, basis: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(d, d B^-1 [P | I], heads) for B = [A | I][:, basis], d = |det B|,
    heads[i] the basic column of row i; None when B is singular. From the
    slack basis (B^-1 = I, d = 1) each assignment column of basis enters, in
    ascending order, by one _pivot on d B^-1 at the first row whose slack is
    not in basis; when no such row has a nonzero entry in the column, B is
    singular, as when an assignment column repeats (no slack may repeat).
    R P, R = d B^-1, is int64 while no sum of its products can overflow,
    else Python ints."""
    m, n = A.shape
    heads = np.arange(n, n + m)
    leaving = ~np.isin(heads, basis)
    R, d = np.eye(m, dtype=np.int64), 1
    for j in np.sort(basis[basis < n]).tolist():
        col = R @ A[:, j]
        rows = np.flatnonzero(leaving & (col != 0))
        if not len(rows):
            return None
        r = int(rows[0])
        d, R = _pivot(R, col, r, d)
        heads[r], leaving[r] = j, False
    bound = m * int(np.abs(R).max()) * int(np.abs(P).max(initial=0))
    RP = R @ (P if bound < 2**63 else P.astype(object))
    return d, _widen(np.column_stack((RP, R))), heads


def _priced(d: int, v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """d c - v [A | I] for an integer row v, c = 1 on the assignment
    columns and 0 on the slacks, so d times the reduced costs when v is the
    scaled dual. Float64 while d + sum |v| < 2**53, which bounds every
    partial sum over a column of -1, 0 and 1, so exactly; else Python ints."""
    v = v.astype(float if d + int(np.abs(v).sum()) < 2**53 else object)
    nz = v.nonzero()[0]
    return np.concatenate((d - v[nz] @ A[nz], -v))


def _optimal(
    A: np.ndarray, P: np.ndarray, basis: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> bool:
    """Whether weak duality proves X, the basic values of basis, optimal in
    integers, A's entries being -1, 0 or 1: X >= 0, B X = P, the duals Y
    price every column at most 0 (Y >= 0 and Y A >= 1), and X sums to Y P
    over the assignments."""
    n, at = A.shape[1], basis < A.shape[1]
    if (X < 0).any() or (_priced(1, Y, A) > 0).any():
        return False
    used = A.take(basis[at], 1) @ X[at]
    used[basis[~at] - n] += X[~at]
    if not (used == P).all():
        return False
    return sum(X[at].tolist()) == sum(y * q for y, q in zip(Y.tolist(), P.tolist()) if y)


def _certificate(
    A: np.ndarray, P: np.ndarray, basis: np.ndarray, inverse: np.ndarray
) -> np.ndarray | None:
    """X when _optimal proves X = B^-1 P and Y = c_B B^-1 optimal, both
    read off the float B^-1 and rounded, else None. Only an integral B^-1 P
    and c_B B^-1, as |det B| = 1 gives, can pass."""
    m, at = len(basis), basis < A.shape[1]
    # past 2**53 a float resolves no integer (past 2**1024 a P has no float
    # at all), and a NaN fails too
    if P.dtype == object and np.abs(P).max() >= 2**53:
        return None
    xy = np.rint(np.concatenate((inverse @ P.astype(float), at @ inverse)))
    if not (big := np.abs(xy).max()) < 2**53:
        return None
    XY = xy.astype(np.int64) if big < _INT64_SAFE else xy.astype(np.int64).astype(object)
    return XY[:m] if _optimal(A, P, basis, XY[:m], XY[m:]) else None


def _exact_optimum(
    A: np.ndarray, first: int, p: Sequence[Fraction], basis: np.ndarray, inverse: np.ndarray
) -> tuple[Fraction, dict[int, Fraction]]:
    """The exact optimum of the program A for the exact probabilities p of
    its rows, and the optimal positive weights as {column of A: weight},
    columns ascending; A's first `first` rows are the first context's.
    When _certificate fails, dual-simplex pivots with Bland's rule run on
    aug = d B^-1 [P | I] from _start of the float basis, or of
    _context_basis when the float basis is singular or not exactly dual
    feasible, while column 0 of aug has an entry below 0: that of least
    basic column leaves, and the entering column has the least ratio of
    reduced cost to pivot-row entry below 0, ties to the least column. Each
    pivot keeps the dual feasible, so the first primal feasible basis is
    optimal. Raises RuntimeError when the first-context basis is singular."""
    n = A.shape[1]
    scale, P = _scaled(p)
    basis = np.array(basis)
    d, X = 1, _certificate(A, P, basis, inverse)
    if X is None:
        start = _start(A, P, basis)
        # the dual is the sum of the rows of B^-1 at basic assignments
        if start is None or (
            _priced(start[0], start[1][start[2] < n, 1:].sum(axis=0), A) > 0
        ).any():
            start = _start(A, P, np.array(_context_basis(A, first)))
            if start is None:
                raise RuntimeError(
                    f"the first-context basis of the {len(A)} x {n} fraction "
                    f"program is singular"
                )
        d, aug, basis = start
        while (aug[:, 0] < 0).any():
            neg = np.flatnonzero(aug[:, 0] < 0)
            r = int(neg[basis[neg].argmin()])
            red = _priced(d, aug[basis < n, 1:].sum(axis=0), A)
            # row r of d B^-1 [A | I]: some entry is below 0, as x = 0 is feasible
            alpha = -_priced(0, aug[r, 1:], A)
            cand = np.flatnonzero(alpha < 0)
            # the exact least ratios have floats within a few ulps of the least
            ratio = red[cand].astype(float) / alpha[cand].astype(float)
            near = cand[ratio <= ratio.min() * (1 + 1e-9)].tolist()
            if ratio.min():  # else all tie at a reduced cost of exactly 0
                near = [min(near, key=lambda j: (Fraction(int(red[j]), int(alpha[j])), j))]
            enter = near[0]
            col = aug[:, 1:] @ A[:, enter] if enter < n else aug[:, 1 + enter - n]
            d, aug = _pivot(aug, col, r, d)
            basis[r] = enter
        X = aug[:, 0]
    assigned = basis < n
    values = sorted(zip(basis[assigned].tolist(), X[assigned].tolist()))
    weights = {j: Fraction(v, d * scale) for j, v in values if v}
    return Fraction(sum(v for _, v in values), d * scale), weights


def contextual_fraction(m: EmpiricalModel) -> FractionResult:
    """Solve the decomposition LP. Precondition: the model passes
    no-disturbance within 1e-6 (raises SignallingModelError otherwise).

    ncf is the LP optimum (clamped into [0, 1]); cf = 1 - ncf. The float LP
    and the exact routine run on the program the support poses. The witness
    of float tables is checked against every row of them. A model with no
    global section is strongly contextual: ncf is 0 (exactly, when it has
    exact tables) with an empty witness, and no LP runs. An exact optimum,
    proven by the exact routine, replaces the float witness and must agree
    with the float optimum within 1e-9. Both witnesses are decoded here."""
    worst, _ = no_disturbance(m)
    if worst > EPS_ND_PRECONDITION:
        raise SignallingModelError(
            f"no-disturbance violated by {worst!r}; the fraction program "
            f"needs a non-signalling model"
        )
    sc, exact = m.scenario, m.exact_available
    # the float program takes its right-hand side from the exact tables when
    # there are any, so that it poses the same model as the exact routine
    # even where snapping moved a probability; q.numerator / q.denominator is float(q)
    tables = {ctx: d.exact if exact else d.probs for ctx, d in m.tables.items()}
    def as_floats(p: list) -> np.ndarray:
        return np.array([q.numerator / q.denominator for q in p] if exact else p, float)
    p = [q for ctx in sc.contexts for q in tables[ctx].values()]
    rhs = as_floats(p)
    # a float 0 of an exact probability may be an underflow, so p decides
    allowed = np.ones(len(p), dtype=bool)
    allowed[[r for r in np.flatnonzero(rhs == 0).tolist() if p[r] == 0]] = False
    inc = incidence(sc, None if allowed.all() else allowed)
    if len(inc.rows) < len(p):
        p = [tables[ctx][tup] for ctx, tup in inc.rows]
        rhs = as_floats(p)
    A = inc.matrix
    if not A.shape[1]:
        if exact:
            return FractionResult(0.0, 1.0, {}, Fraction(0), {})
        return FractionResult(0.0, 1.0, {})
    # b = 0 is feasible, and the rows of any one context bound sum(b) by 1,
    # so the program is never unbounded: a None, like a non-finite answer or
    # an overflow, is a failure of the float arithmetic
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            solved = simplex(np.ones(A.shape[1]), A, rhs)
    except FloatingPointError:
        solved = None
    if solved is None or not (math.isfinite(solved[0]) and np.isfinite(solved[1]).all()):
        raise RuntimeError(
            f"the float simplex failed on the {A.shape[0]} x {A.shape[1]} fraction program"
        )
    value, x, basis, inverse = solved
    ncf = min(max(value, 0.0), 1.0)
    if exact:
        first = sum(ctx == sc.contexts[0] for ctx, _ in inc.rows)
        ncf_exact, weights = _exact_optimum(A, first, p, basis, inverse)
        if abs(float(ncf_exact) - ncf) > EPS_LP:
            raise RuntimeError(
                f"exact optimum {ncf_exact} drifts from float optimum {ncf!r}"
            )
        ncf = float(ncf_exact)
    else:
        _validate_witness(inc, rhs, x, ncf)
        weights = {j: float(x[j]) for j in np.flatnonzero(x > EPS_LP).tolist()}
    # the one decode, of the weighted columns' digits
    witness = dict(zip(inc.decode(list(weights)), weights.values()))
    if not exact:
        return FractionResult(ncf, 1.0 - ncf, witness)
    floats = {a: float(w) for a, w in witness.items()}
    return FractionResult(ncf, 1.0 - ncf, floats, ncf_exact, witness)
