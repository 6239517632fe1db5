"""Independent oracles used across the suite.

Everything here recomputes expected values through deliberately different
algorithms than the package uses: flat product enumeration instead of
backtracking for sections, and exact Fraction vertex enumeration instead of
simplex pivoting for the linear programs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from contextuality.scenario import NoDisturbanceRecord, marginal


def sections_bruteforce(p) -> list[tuple[str, ...]]:
    """All global sections by checking every assignment against every
    context, observables in scenario order."""
    sc = p.scenario
    labels = [o.label for o in sc.observables]
    out = []
    for combo in itertools.product(*[o.outcomes for o in sc.observables]):
        a = dict(zip(labels, combo))
        if all(
            tuple(a[l] for l in ctx) in p.supports[ctx] for ctx in sc.contexts
        ):
            out.append(tuple(combo))
    return out


def classification_bruteforce(p) -> str:
    """Classification from the full section list: StronglyContextual when it
    is empty, LogicallyContextual when some support tuple is the restriction
    of no section, else GloballyExtendable."""
    sections = sections_bruteforce(p)
    if not sections:
        return "StronglyContextual"
    covered = covered_events(p, sections)
    if any(p.supports[ctx] - covered[ctx] for ctx in p.scenario.contexts):
        return "LogicallyContextual"
    return "GloballyExtendable"


def covered_events(p, sections) -> dict:
    """Per context, the tuples that some of the given sections restrict to."""
    labels = [o.label for o in p.scenario.observables]
    return {
        ctx: {tuple(s[labels.index(l)] for l in ctx) for s in sections}
        for ctx in p.scenario.contexts
    }


def _solve_square(rows: list[list[Fraction]], rhs: list):
    """Exact Gauss-Jordan elimination; None when singular. rhs holds one
    Fraction per row, or one list of them per row for several right-hand
    sides, and the solution has the same shape."""
    k = len(rows)
    many = bool(rhs) and isinstance(rhs[0], list)
    aug = [list(r) + (list(b) if many else [b]) for r, b in zip(rows, rhs)]
    for col in range(k):
        pivot = next(
            (r for r in range(col, k) if aug[r][col] != 0), None
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        if pv != 1:
            aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                # zeros of the pivot row leave an entry as it is
                aug[r] = [x - f * y if y else x for x, y in zip(aug[r], aug[col])]
    return [aug[r][k:] if many else aug[r][k] for r in range(k)]


def ncf_vertex_enumeration(model) -> tuple[Fraction, dict]:
    """Exact optimum of  max sum(b)  s.t.  M b <= p, b >= 0  over the
    noncontextual-decomposition polytope, by brute-force enumeration of basic
    feasible points. Requires exact tables on the model.

    Variables hit by a zero-probability row are pinned to zero first (b_g <= 0
    and b_g >= 0), which keeps the enumeration tiny for the models at hand.
    """
    sc = model.scenario
    assignments = list(
        itertools.product(*[o.outcomes for o in sc.observables])
    )
    labels = [o.label for o in sc.observables]
    rows: list[tuple[list[int], Fraction]] = []
    for ctx in sc.contexts:
        dist = model.tables[ctx]
        assert dist.exact is not None, "oracle needs exact tables"
        positions = [labels.index(l) for l in ctx]
        for tup in sc.joint_outcomes(ctx):
            coeffs = [
                1 if tuple(a[i] for i in positions) == tup else 0
                for a in assignments
            ]
            rows.append((coeffs, Fraction(dist.exact[tup])))
    forced_zero = {
        j
        for coeffs, rhs in rows
        if rhs == 0
        for j, c in enumerate(coeffs)
        if c
    }
    keep = [j for j in range(len(assignments)) if j not in forced_zero]
    if not keep:
        return Fraction(0), {}
    k = len(keep)
    # reduced inequality system over the surviving variables
    reduced = []
    for coeffs, rhs in rows:
        sub = [Fraction(coeffs[j]) for j in keep]
        if any(sub):
            reduced.append((sub, rhs))
    # candidate vertices: every choice of k active constraints among the
    # reduced rows and the k nonnegativity planes
    planes = [(r, b) for r, b in reduced]
    for i in range(k):
        e = [Fraction(0)] * k
        e[i] = Fraction(1)
        planes.append((e, Fraction(0)))
    best: Fraction | None = None
    best_x: list[Fraction] | None = None
    for combo in itertools.combinations(range(len(planes)), k):
        rows_k = [planes[i][0] for i in combo]
        rhs_k = [planes[i][1] for i in combo]
        x = _solve_square(rows_k, rhs_k)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(
            sum(c * v for c, v in zip(coeffs, x)) > rhs
            for coeffs, rhs in reduced
        ):
            continue
        val = sum(x)
        if best is None or val > best:
            best, best_x = val, x
    assert best is not None, "polytope contains 0, a vertex must exist"
    witness = {
        assignments[j]: v for j, v in zip(keep, best_x) if v != 0
    }
    return best, witness


def born_by_projectors(qr, ctx) -> dict:
    """A context's Born table by explicit operators: the density matrix of
    the measured sites, the unmeasured ones traced out, against the
    Kronecker product of one rank-one projector per recipe, keyed by the
    recipes' mapped outcome labels."""
    import numpy as np

    state = qr.state
    recipes = [qr.recipes[label] for label in ctx]
    measured = [s for r in recipes for s in r.sites]
    rest = [s for s in range(state.nsites) if s not in measured]
    psi = state.amplitudes.reshape(state.sites).transpose(measured + rest)
    dm = int(np.prod([state.sites[s] for s in measured]))
    psi = psi.reshape(dm, -1)
    rho = psi @ psi.conj().T  # partial trace over the unmeasured sites
    out = {}
    for picks in itertools.product(*[range(r.basis.n_outcomes) for r in recipes]):
        proj = np.ones((1, 1), dtype=complex)
        key = []
        for r, i in zip(recipes, picks):
            v = r.basis.vectors[i]
            proj = np.kron(proj, np.outer(v, v.conj()))
            label = r.basis.labels[i]
            key.append(r.outcome_map[label] if r.outcome_map else label)
        out[tuple(key)] = float(np.trace(rho @ proj).real)
    return out


def certain_implications_nested_sum(m) -> list:
    """The implications of builders.certain_implications (no queries), by one
    sum() over the whole table per premise value and one per (premise value,
    conclusion value): the row-by-row reference the one-sweep version must
    match float for float."""
    from contextuality.builders import EPS_CERTAIN, CertainImplication
    from contextuality.qstate import EPS_ZERO

    sentences = []
    for ctx in m.scenario.contexts:
        rows = list(m.tables[ctx].items())
        for pi, premise_obs in enumerate(ctx):
            for va in m.scenario.observable(premise_obs).outcomes:
                base = sum(p for tup, p in rows if tup[pi] == va)
                if base <= EPS_ZERO:
                    continue
                for ci, conclusion_obs in enumerate(ctx):
                    if ci == pi:
                        continue
                    for vb in m.scenario.observable(conclusion_obs).outcomes:
                        joint = sum(
                            p
                            for tup, p in rows
                            if tup[pi] == va and tup[ci] == vb
                        )
                        if joint / base >= 1.0 - EPS_CERTAIN:
                            sentences.append(
                                CertainImplication(
                                    ctx,
                                    (premise_obs, va),
                                    (conclusion_obs, vb),
                                )
                            )
    return sentences


def snap_to_rationals_limit_denominator(m, max_denominator=128, tol=1e-9):
    """snap_to_rationals as one Fraction.limit_denominator call per entry:
    the closest fraction with denominator at most max_denominator, kept when
    its float is within tol; each table's fractions must sum to exactly 1."""
    from contextuality.qstate import Distribution
    from contextuality.scenario import EmpiricalModel

    tables = {}
    for ctx, dist in m.tables.items():
        exact = {}
        for key, p in dist.items():
            frac = Fraction(p).limit_denominator(max_denominator)
            if abs(float(frac) - p) > tol:
                return None
            exact[key] = frac
        if sum(exact.values()) != 1:
            return None
        tables[ctx] = Distribution(dict(dist.items()), exact, tol=dist.tol)
    return EmpiricalModel(m.scenario, tables)


def simplex_identity_block(c, A, rhs):
    """The float revised simplex with Bland's rule on M = [A | I], as
    ncpoly.simplex was before it priced on A alone: every column priced by
    one product y M, the entering column read as B^-1 M[:, enter]. The
    reference that pins ncpoly.simplex's pivot path, value, x, basis and
    B^-1 bit for bit; the caller validates the arguments."""
    import numpy as np

    from contextuality.ncpoly import EPS_LP

    A = np.asarray(A)
    rhs = np.asarray(rhs, dtype=float)
    m, n = A.shape
    M = np.zeros((m, n + m))
    M[:, :n] = A
    basis = np.arange(n, n + m)
    M[np.arange(m), basis] = 1.0
    aug = np.column_stack((rhs, np.eye(m)))
    c = np.concatenate((np.asarray(c, dtype=float), np.zeros(m)))
    c_B = c[basis]
    while True:
        reduced = c - (c_B @ aug[:, 1:]) @ M
        reduced[basis] = 0
        positive = reduced > EPS_LP
        enter = int(positive.argmax())
        if not positive[enter]:
            break
        d = aug[:, 1:] @ M[:, enter]
        cand = np.flatnonzero(d > EPS_LP)
        leave = -1
        best = least = None
        for i, ratio, b in zip(
            cand.tolist(),
            (aug[cand, 0] / d[cand]).tolist(),
            basis[cand].tolist(),
        ):
            if (
                best is None
                or ratio < best - EPS_LP
                or (abs(ratio - best) <= EPS_LP and b < least)
            ):
                best, least, leave = ratio, b, i
        if leave < 0:
            return None
        pr = aug[leave] / d[leave]
        aug -= d[:, None] * pr
        aug[leave] = pr
        basis[leave] = enter
        c_B[leave] = c[enter]
    x = np.zeros(n + m)
    x[basis] = aug[:, 0]
    cols = np.sort(basis)
    return sum((c[cols] * x[cols]).tolist(), 0.0), x[:n], basis, aug[:, 1:]


def coherent_basis_gram_schmidt(psi):
    """metacontext.coherent_final_basis around psi by an explicit
    Gram-Schmidt loop: each computational vector less its projection on the
    vectors kept so far, kept when its norm exceeds 1e-9. Raises ValueError
    where the loop's cancellation leaves no orthonormal basis."""
    import numpy as np

    from contextuality.qstate import ProductBasis, SiteBasis

    dim = psi.dim
    vectors = [np.asarray(psi.amplitudes, dtype=complex)]
    for k in range(dim):
        if len(vectors) == dim:
            break
        e = np.zeros(dim, dtype=complex)
        e[k] = 1.0
        for v in vectors:
            e = e - np.vdot(v, e) * v
        norm = float(np.linalg.norm(e))
        if norm > 1e-9:
            vectors.append(e / norm)
    labels = ("coherent",) + tuple(f"orth{i}" for i in range(1, dim))
    basis = SiteBasis(np.array(vectors), labels)
    group = tuple(range(len(psi.sites)))
    return ProductBasis(((group, basis),))


def no_disturbance_all_pairs(m) -> tuple[float, list]:
    """(worst violation, records) by comparing every pair of contexts, in
    itertools.combinations order, and skipping those that share nothing."""
    records = []
    worst = 0.0
    for a, b in itertools.combinations(m.scenario.contexts, 2):
        shared = tuple(l for l in a if l in b)
        if not shared:
            continue
        mi = marginal(m.tables[a], a, shared)
        mj = marginal(m.tables[b], b, shared)
        v = max(abs(mi.get(k, 0.0) - mj.get(k, 0.0)) for k in set(mi) | set(mj))
        records.append(NoDisturbanceRecord(shared, (a, b), v))
        worst = max(worst, v)
    return worst, records
