"""Independent oracles used across the suite.

Everything here recomputes expected values through deliberately different
algorithms than the package uses: flat product enumeration instead of
backtracking for sections, and exact Fraction vertex enumeration instead of
simplex pivoting for the linear programs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Exact Gaussian elimination; None when singular."""
    k = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        pivot = next(
            (r for r in range(col, k) if aug[r][col] != 0), None
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][k] for r in range(k)]


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
