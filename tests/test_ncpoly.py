"""Incidence matrices, the simplex engine, and the fraction program."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import contextuality
from contextuality import ncpoly
from contextuality.logic import cycle_empirical_model
from contextuality.ncpoly import (
    FractionResult,
    IncidenceMatrix,
    LinearProgram,
    SignallingModelError,
    contextual_fraction,
    incidence,
    simplex,
)
from contextuality.qstate import SiteBasis, StateVector
from contextuality.scenario import (
    Distribution,
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
    realize,
    snap_to_rationals,
)
from contextuality.cli import run
from contextuality.scnformat import parse_file, serialize_model

from conftest import HARDY_CONTEXTS
from oracles import _solve_square, ncf_vertex_enumeration

# regression values, computed with oracles.ncf_vertex_enumeration and pinned
HARDY_NCF = Fraction(5, 6)
HARDY_WITNESS = {
    ("0", "+", "0", "+"): Fraction(1, 6),
    ("0", "+", "0", "-"): Fraction(1, 12),
    ("1", "+", "0", "+"): Fraction(1, 3),
    ("1", "+", "1", "+"): Fraction(1, 6),
    ("1", "-", "1", "+"): Fraction(1, 12),
}

DATA_DIR = Path(contextuality.__file__).parent / "data"


def _halves(*assignments):
    return {a: Fraction(1, 2) for a in assignments}


# exact NCF and witness of every shipped model file, pinned from the
# solver before its integer certificate existed; fr is reported snapped
CORPUS_NCF = {
    "cycle_3_even": (Fraction(1), _halves(("0",) * 3, ("1",) * 3)),
    "cycle_3_odd": (Fraction(0), {}),
    "cycle_4_even": (Fraction(1), _halves(("0",) * 4, ("1",) * 4)),
    "cycle_4_odd": (Fraction(0), {}),
    "cycle_5_even": (Fraction(1), _halves(("0",) * 5, ("1",) * 5)),
    "cycle_5_odd": (Fraction(0), {}),
    "fr": (HARDY_NCF, HARDY_WITNESS),
    "hardy": (HARDY_NCF, HARDY_WITNESS),
}


# ------------------------------------------------------------ incidence


def test_incidence_hardy_shape_and_orders(hardy_scenario):
    inc = incidence(hardy_scenario)
    assert inc.matrix.shape == (16, 16)
    assert inc.labels == ("A_c", "A_d", "B_c", "B_d")
    assert inc.rows[0] == (("A_d", "B_c"), ("+", "0"))
    assert inc.rows[1] == (("A_d", "B_c"), ("+", "1"))
    assert inc.rows[4] == (("A_c", "B_c"), ("0", "0"))
    assert inc.assignments[0] == ("0", "+", "0", "+")
    assert inc.assignments[-1] == ("1", "-", "1", "-")
    # every assignment hits exactly one tuple per context
    assert all(inc.matrix.sum(axis=0) == len(hardy_scenario.contexts))
    # a two-observable tuple is hit by assignment_space / 4 assignments
    assert all(inc.matrix.sum(axis=1) == 4)


def _assert_membership_rule(inc: IncidenceMatrix) -> None:
    for r, (ctx, tup) in enumerate(inc.rows):
        pos = [inc.labels.index(l) for l in ctx]
        for c, a in enumerate(inc.assignments):
            expected = 1 if tuple(a[i] for i in pos) == tup else 0
            assert inc.matrix[r, c] == expected


def test_incidence_restriction_is_the_membership_rule(hardy_scenario):
    _assert_membership_rule(incidence(hardy_scenario))


def test_incidence_membership_rule_mixed_radix():
    # radices 2, 3 and 4; context ("C", "A") lists its observables out of
    # declaration order
    sc = Scenario(
        (
            Observable("A", ("a0", "a1")),
            Observable("B", ("b0", "b1", "b2")),
            Observable("C", ("c0", "c1", "c2", "c3")),
        ),
        (("A", "B"), ("C", "A"), ("B", "C"), ("C",)),
    )
    inc = incidence(sc)
    assert inc.labels == ("A", "B", "C")
    assert inc.assignments == tuple(
        itertools.product(*[o.outcomes for o in sc.observables])
    )
    assert inc.rows == tuple(
        (ctx, tup) for ctx in sc.contexts for tup in sc.joint_outcomes(ctx)
    )
    assert inc.matrix.shape == (6 + 8 + 12 + 4, 24)
    _assert_membership_rule(inc)
    assert all(inc.matrix.sum(axis=0) == len(sc.contexts))


def test_incidence_cycle_shape():
    m = cycle_empirical_model(3, "odd")
    inc = incidence(m.scenario)
    assert inc.matrix.shape == (12, 8)


def test_incidence_guard_rejects_huge_scenarios():
    n = 21
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(n))
    contexts = tuple(
        (f"X{i}", f"X{(i + 1) % n}") for i in range(n)
    )
    sc = Scenario(obs, contexts)
    with pytest.raises(ValueError, match="2\\*\\*20"):
        incidence(sc)


# -------------------------------------------------------------- simplex


def test_lp_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        LinearProgram((1.0,), ((1.0,),), (1.0, 1.0))
    with pytest.raises(ValueError, match="width"):
        LinearProgram((1.0, 1.0), ((1.0,),), (1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        LinearProgram((1.0,), ((1.0,),), (-1.0,))


def test_simplex_box():
    lp = LinearProgram((1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), (2.0, 3.0))
    res = simplex(lp)
    assert res.status == "Optimal"
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.x == pytest.approx((2.0, 3.0), abs=1e-9)
    # without rows, a nonpositive objective is optimal at x = 0
    res = simplex(LinearProgram((0.0, -1.0), np.zeros((0, 2)), ()))
    assert res.status == "Optimal"
    assert res.value == 0 and res.x == (0, 0) and res.basis == ()


def test_simplex_prefers_the_better_corner():
    lp = LinearProgram((2.0, 1.0), ((1.0, 1.0), (1.0, 0.0)), (4.0, 2.0))
    res = simplex(lp)
    assert res.status == "Optimal"
    assert res.value == pytest.approx(6.0, abs=1e-9)


def test_simplex_unbounded():
    lp = LinearProgram((1.0, 0.0), ((0.0, 1.0),), (1.0,))
    assert simplex(lp).status == "Unbounded"
    # without rows, a positive objective is unbounded
    lp = LinearProgram((0.0, 1.0), np.zeros((0, 2)), ())
    assert simplex(lp).status == "Unbounded"


def test_simplex_survives_the_classic_cycling_program():
    # degenerate program on which the naive pivot rule loops forever
    lp = LinearProgram(
        (10.0, -57.0, -9.0, -24.0),
        (
            (0.5, -5.5, -2.5, 9.0),
            (0.5, -1.5, -0.5, 1.0),
            (1.0, 0.0, 0.0, 0.0),
        ),
        (0.0, 0.0, 1.0),
    )
    res = simplex(lp)
    assert res.status == "Optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)
    ref = linprog(
        [-c for c in lp.objective],
        A_ub=lp.matrix,
        b_ub=lp.rhs,
        method="highs",
    )
    assert res.value == pytest.approx(-ref.fun, abs=1e-7)


def _ncf_lp(m: EmpiricalModel) -> LinearProgram:
    """The decomposition LP that contextual_fraction solves for m."""
    return ncpoly._program(incidence(m.scenario), m)


def _scipy_reference(lp: LinearProgram):
    return linprog(
        [-c for c in lp.objective],
        A_ub=lp.matrix,
        b_ub=lp.rhs,
        method="highs",
    )


def test_simplex_matches_scipy_on_random_inequality_programs():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        if trial % 2:
            A = rng.uniform(0.0, 1.0, size=(m, n))
        else:
            A = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        lp = LinearProgram(tuple(c), A, tuple(b))
        res = simplex(lp)
        ref = _scipy_reference(lp)
        if res.status == "Unbounded":
            assert ref.status == 3
            continue
        assert res.status == "Optimal" and ref.status == 0
        assert res.value == pytest.approx(-ref.fun, abs=1e-6)


# ------------------------------------------------- noncontextual fraction


def test_ncf_program_shape(hardy_model):
    lp = _ncf_lp(hardy_model)
    assert len(lp.objective) == 16
    assert len(lp.matrix) == 16
    assert lp.objective == (1.0,) * 16
    inc = incidence(hardy_model.scenario)
    for (ctx, tup), b in zip(inc.rows, lp.rhs):
        assert b == hardy_model.tables[ctx][tup]


def test_hardy_fraction_float_path(hardy_model):
    res = contextual_fraction(hardy_model)
    assert res.ncf == pytest.approx(float(HARDY_NCF), abs=1e-9)
    assert res.cf == pytest.approx(1 - float(HARDY_NCF), abs=1e-9)
    assert res.ncf_exact is None
    assert set(res.witness) == set(HARDY_WITNESS)


def test_hardy_fraction_exact_path(hardy_model):
    mx = snap_to_rationals(hardy_model)
    assert mx is not None
    res = contextual_fraction(mx)
    assert res.ncf_exact == HARDY_NCF
    assert res.witness_exact == HARDY_WITNESS
    assert res.ncf == float(HARDY_NCF)
    assert res.cf == pytest.approx(1 - float(HARDY_NCF), abs=1e-12)


def test_hardy_fraction_agrees_with_vertex_oracle(hardy_model):
    mx = snap_to_rationals(hardy_model)
    best, witness = ncf_vertex_enumeration(mx)
    assert best == HARDY_NCF
    assert witness == HARDY_WITNESS


def test_strongly_contextual_cycle_has_zero_fraction():
    res = contextual_fraction(cycle_empirical_model(3, "odd"))
    assert res.ncf_exact == 0
    assert res.ncf == 0.0
    assert res.cf == 1.0
    assert res.witness == {}


def test_extendable_cycle_has_full_fraction():
    res = contextual_fraction(cycle_empirical_model(4, "even"))
    assert res.ncf_exact == 1
    assert res.cf == pytest.approx(0.0, abs=1e-12)
    assert set(res.witness_exact) == {("0",) * 4, ("1",) * 4}
    assert all(w == Fraction(1, 2) for w in res.witness_exact.values())


def test_product_model_has_full_fraction():
    sc = Scenario(
        (
            Observable("X", ("0", "1")),
            Observable("Y", ("0", "1")),
            Observable("Z", ("0", "1")),
        ),
        (("X", "Y"), ("X", "Z")),
    )
    px = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
    py = {"0": Fraction(1, 3), "1": Fraction(2, 3)}
    pz = {"0": Fraction(1, 2), "1": Fraction(1, 2)}

    def table(pa, pb):
        exact = {
            (a, b): pa[a] * pb[b] for a in "01" for b in "01"
        }
        return Distribution(
            {k: float(v) for k, v in exact.items()}, exact
        )

    m = EmpiricalModel(
        sc, {("X", "Y"): table(px, py), ("X", "Z"): table(px, pz)}
    )
    res = contextual_fraction(m)
    assert res.ncf_exact == 1
    assert res.ncf == 1.0
    # a full decomposition reproduces every table row exactly
    for ctx in sc.contexts:
        pos = [("X", "Y", "Z").index(l) for l in ctx]
        for tup, p in m.tables[ctx].exact.items():
            mass = sum(
                w
                for a, w in res.witness_exact.items()
                if tuple(a[i] for i in pos) == tup
            )
            assert mass == p


def test_signalling_model_is_rejected():
    sc = Scenario(
        (
            Observable("X", ("0", "1")),
            Observable("Y", ("0", "1")),
            Observable("Z", ("0", "1")),
        ),
        (("X", "Y"), ("X", "Z")),
    )
    m = EmpiricalModel(
        sc,
        {
            ("X", "Y"): Distribution(
                {("0", "0"): 1.0, ("0", "1"): 0.0,
                 ("1", "0"): 0.0, ("1", "1"): 0.0}
            ),
            ("X", "Z"): Distribution(
                {("0", "0"): 0.0, ("0", "1"): 0.0,
                 ("1", "0"): 1.0, ("1", "1"): 0.0}
            ),
        },
    )
    with pytest.raises(SignallingModelError):
        contextual_fraction(m)


def test_fraction_is_invariant_under_declaration_order(hardy_model):
    base = contextual_fraction(hardy_model)
    sc = hardy_model.scenario
    perm_obs = tuple(sc.observables[i] for i in (3, 1, 0, 2))
    perm_ctx = tuple(HARDY_CONTEXTS[i] for i in (2, 0, 3, 1))
    sc2 = Scenario(perm_obs, perm_ctx)
    m2 = EmpiricalModel(
        sc2, {ctx: hardy_model.tables[ctx] for ctx in perm_ctx}
    )
    res = contextual_fraction(m2)
    assert res.ncf == pytest.approx(base.ncf, abs=1e-12)


def test_fraction_is_invariant_under_outcome_relabeling(hardy_model):
    relabel = {"+": "u", "-": "d"}

    def fix(label, value):
        return relabel[value] if label.endswith("_d") else value

    sc = hardy_model.scenario
    obs = tuple(
        Observable(
            o.label, tuple(fix(o.label, v) for v in o.outcomes)
        )
        for o in sc.observables
    )
    sc2 = Scenario(obs, sc.contexts)
    tables = {}
    for ctx in sc.contexts:
        probs = {
            tuple(fix(l, v) for l, v in zip(ctx, tup)): p
            for tup, p in hardy_model.tables[ctx].items()
        }
        tables[ctx] = Distribution(probs)
    res = contextual_fraction(EmpiricalModel(sc2, tables))
    assert res.ncf == pytest.approx(
        contextual_fraction(hardy_model).ncf, abs=1e-12
    )


def test_fraction_matches_scipy_on_random_quantum_models(hardy_scenario):
    from contextuality.qstate import (
        SiteBasis,
        StateVector,
        computational_basis,
    )
    from contextuality.scenario import MeasurementRecipe, QuantumRealization

    rng = np.random.default_rng(23)
    for _ in range(25):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        state = StateVector((2, 2), amp)

        def random_basis(labels):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            return SiteBasis(tuple(map(tuple, q.T)), labels)

        qr = QuantumRealization(
            state,
            {
                "A_c": MeasurementRecipe((0,), computational_basis()),
                "A_d": MeasurementRecipe((0,), random_basis(("+", "-"))),
                "B_c": MeasurementRecipe((1,), computational_basis()),
                "B_d": MeasurementRecipe((1,), random_basis(("+", "-"))),
            },
        )
        m = realize(qr, hardy_scenario)
        res = contextual_fraction(m)
        ref = _scipy_reference(_ncf_lp(m))
        assert ref.status == 0
        assert res.ncf == pytest.approx(-ref.fun, abs=1e-7)
        assert 0.0 <= res.ncf <= 1.0


def _corpus_model(name: str) -> EmpiricalModel:
    f = parse_file((DATA_DIR / f"{name}.scn").read_text(encoding="utf-8"))
    m = f.model if f.model is not None else realize(f.realization, f.scenario)
    return m if m.exact_available else snap_to_rationals(m)


def _white_noise_odd_cycle(n: int, v: Fraction) -> EmpiricalModel:
    m = cycle_empirical_model(n, "odd")
    tables = {}
    for ctx, dist in m.tables.items():
        exact = {
            tup: v * p + (1 - v) / len(dist.exact)
            for tup, p in dist.exact.items()
        }
        tables[ctx] = Distribution(
            {tup: float(p) for tup, p in exact.items()}, exact
        )
    return EmpiricalModel(m.scenario, tables)


def _chained_bell(n: int, phi: float) -> EmpiricalModel:
    """Bell pair (|00> + |11>)/sqrt 2 with S(j+1) measured on qubit j % 2 at
    Bloch angle j*pi/n + phi in the x-z plane: the odd n-cycle's quantum
    realization, irrational tables, NCF = n(1 - cos(pi/n))/2."""
    sc = Scenario(
        tuple(Observable(f"S{j}", ("0", "1")) for j in range(1, n + 1)),
        tuple((f"S{j}", f"S{j % n + 1}") for j in range(1, n + 1)),
    )
    r = 1 / np.sqrt(2)
    state = StateVector((2, 2), np.array([r, 0, 0, r], dtype=complex))
    recipes = {}
    for j in range(n):
        half = (j * np.pi / n + phi) / 2
        c, s = np.cos(half), np.sin(half)
        basis = SiteBasis(((c, s), (-s, c)), ("0", "1"))
        recipes[f"S{j + 1}"] = MeasurementRecipe((j % 2,), basis)
    return realize(QuantumRealization(state, recipes), sc)


NOISE_LEVELS = (Fraction(1), Fraction(9, 10), Fraction(4, 5), Fraction(2, 3))


def _pinned_basis_models():
    for name in CORPUS_NCF:
        yield f"corpus {name}", _corpus_model(name)
    for n in range(3, 10):
        for v in NOISE_LEVELS:
            yield f"odd {n} {v}", _white_noise_odd_cycle(n, v)
    for n in (6, 8):
        yield f"chained_bell {n}", _chained_bell(n, 0.3)


def test_simplex_pivot_path_is_pinned():
    """Bland's rule and its tie-break fix the pivot path and with it the
    optimal basis, the float witness and every printed witness. The bases in
    simplex_bases.json were pinned from the tableau simplex that the revised
    simplex replaced; a change to the entering or leaving rule shows here
    instead of as silently different witnesses."""
    pinned = json.loads(
        (Path(__file__).parent / "simplex_bases.json").read_text()
    )
    models = dict(_pinned_basis_models())
    assert set(models) == set(pinned)
    for key, m in models.items():
        assert list(simplex(_ncf_lp(m)).basis) == pinned[key], key
    for n in (6, 8):
        res = contextual_fraction(models[f"chained_bell {n}"])
        assert res.ncf_exact is None
        assert res.ncf == pytest.approx(n * (1 - np.cos(np.pi / n)) / 2)


def test_exact_simplex_fallback_reproduces_pinned_fractions(monkeypatch):
    """With the integer certificate failing, the exact repair solves every
    program and must reach the same exact optimum and, on the corpus, the
    same witness in the same order."""
    fallbacks = []
    repair = ncpoly._repair

    def counted(inc, p, basis):
        fallbacks.append(basis)
        return repair(inc, p, basis)

    monkeypatch.setattr(ncpoly, "_certify", lambda inc, p, basis: None)
    monkeypatch.setattr(ncpoly, "_repair", counted)
    for name, (ncf, witness) in CORPUS_NCF.items():
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        assert list(res.witness_exact.items()) == list(witness.items()), name
    for n in range(3, 7):
        for v in NOISE_LEVELS:
            res = contextual_fraction(_white_noise_odd_cycle(n, v))
            expected = min(Fraction(1), n * (1 - v) / 2)
            assert res.ncf_exact == expected, (n, v)
            assert sum(res.witness_exact.values()) == expected
            assert res.ncf == float(expected)
    assert len(fallbacks) == len(CORPUS_NCF) + 4 * len(NOISE_LEVELS)


def test_integer_certificate_pins_exact_fractions(monkeypatch):
    def no_fallback(inc, p, basis):
        raise AssertionError("the integer certificate failed to certify")

    monkeypatch.setattr(ncpoly, "_repair", no_fallback)
    with_models = {
        p.stem
        for p in DATA_DIR.glob("*.scn")
        if (f := parse_file(p.read_text(encoding="utf-8"))).model is not None
        or f.realization is not None
    }
    assert with_models == set(CORPUS_NCF)
    for name, (ncf, witness) in CORPUS_NCF.items():
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        # same entries in the same (column) order
        assert list(res.witness_exact.items()) == list(witness.items()), name
    # at v = (2**35-1)/2**35 the scaled right-hand sides exceed 2**31, so the
    # elimination runs on Python ints
    for n in range(3, 8):
        for v in (
            Fraction(1),
            Fraction(9, 10),
            Fraction(4, 5),
            Fraction(2, 3),
            Fraction(2**35 - 1, 2**35),
        ):
            res = contextual_fraction(_white_noise_odd_cycle(n, v))
            expected = min(Fraction(1), n * (1 - v) / 2)
            assert res.ncf_exact == expected, (n, v)
            assert sum(res.witness_exact.values()) == expected
            assert res.ncf == float(expected)


def _slack_repair(m: EmpiricalModel):
    """_repair started from the slack basis, which is never dual feasible
    (every assignment column has reduced cost 1), so that it starts from
    _context_basis."""
    inc = incidence(m.scenario)
    p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
    nrows, n = inc.matrix.shape
    return ncpoly._repair(inc, p, tuple(range(n, n + nrows)))


def _assert_exactly_feasible(m: EmpiricalModel, witness) -> None:
    """Positive weights whose mass on every table row is at most the row's
    exact probability."""
    assert all(w > 0 for w in witness.values())
    labels = [o.label for o in m.scenario.observables]
    for ctx in m.scenario.contexts:
        pos = [labels.index(l) for l in ctx]
        for tup, p in m.tables[ctx].exact.items():
            mass = sum(
                (w for a, w in witness.items() if tuple(a[i] for i in pos) == tup),
                Fraction(0),
            )
            assert mass <= p, (ctx, tup)


@pytest.mark.parametrize("n", [7, 9])
def test_repair_mends_a_rejected_float_basis_without_a_cold_start(monkeypatch, n):
    """At v = 1/3 + 2**-40 a tie below EPS_LP leaves the float simplex on a
    basis that the certificate rejects. It is exactly dual feasible, so the
    repair pivots from it and never builds _context_basis. The NCF is
    min(1, n(1 - v)/2) = 1."""
    v = Fraction(1, 3) + Fraction(1, 2**40)
    m = _white_noise_odd_cycle(n, v)
    inc = incidence(m.scenario)
    p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
    assert ncpoly._certify(inc, p, simplex(_ncf_lp(m)).basis) is None

    def cold(inc):
        raise AssertionError("the repair started from _context_basis")

    monkeypatch.setattr(ncpoly, "_context_basis", cold)
    res = contextual_fraction(m)
    assert res.ncf_exact == min(1, n * (1 - v) / 2) == 1
    assert sum(res.witness_exact.values()) == res.ncf_exact
    _assert_exactly_feasible(m, res.witness_exact)


def test_repair_from_the_slack_basis_reproduces_the_pins(monkeypatch):
    """Started cold, from _context_basis, the repair reaches the pinned
    corpus optimum and witness, in the same order, and the closed form on
    the white-noise grid."""
    starts = []
    context_basis = ncpoly._context_basis

    def counted(inc):
        starts.append(inc)
        return context_basis(inc)

    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    for name, (ncf, witness) in CORPUS_NCF.items():
        value, witness_exact = _slack_repair(_corpus_model(name))
        assert value == ncf, name
        assert list(witness_exact.items()) == list(witness.items()), name
    for n in range(3, 10):
        for v in NOISE_LEVELS:
            m = _white_noise_odd_cycle(n, v)
            value, witness_exact = _slack_repair(m)
            assert value == min(Fraction(1), n * (1 - v) / 2), (n, v)
            assert sum(witness_exact.values()) == value
            _assert_exactly_feasible(m, witness_exact)
    assert len(starts) == len(CORPUS_NCF) + 7 * len(NOISE_LEVELS)


def test_repair_pivot_rules_are_pinned():
    """Bland's rule fixes the repair's pivot path and with it the vertex it
    ends on among degenerate optima. These slack-started witnesses were
    pinned from the rules as specified: the least basic column leaving, ties
    to the least entering column, and the first column hitting each row in
    _context_basis. Changing any one of them moves at least one witness."""
    sc = cycle_empirical_model(5, "odd").scenario
    rows = (
        "3/20 2/5 0 9/20",
        "3/20 0 0 17/20",
        "3/20 0 2/5 9/20",
        "3/20 2/5 0 9/20",
        "0 3/20 11/20 3/10",
    )
    tables = {}
    for ctx, row in zip(sc.contexts, rows):
        exact = dict(zip(sc.joint_outcomes(ctx), map(Fraction, row.split())))
        tables[ctx] = Distribution({t: float(q) for t, q in exact.items()}, exact)
    twelfth = Fraction(1, 12)
    pinned = [
        (
            EmpiricalModel(sc, tables),
            [
                ("00001", Fraction(3, 20)),
                ("01101", Fraction(1, 4)),
                ("01111", Fraction(3, 20)),
                ("11100", Fraction(3, 20)),
                ("11111", Fraction(3, 10)),
            ],
        ),
        (
            _white_noise_odd_cycle(9, Fraction(2, 3)),
            [
                (a, twelfth)
                for a in (
                    "000000111 000001111 000011111 000111111 001111110 "
                    "011111101 100000011 110000000 111000000 111100000 "
                    "111110000 111111000"
                ).split()
            ],
        ),
    ]
    for m, witness in pinned:
        value, witness_exact = _slack_repair(m)
        assert value == 1
        assert [("".join(a), w) for a, w in witness_exact.items()] == witness


def _random_box_mixture(rng, n: int) -> EmpiricalModel:
    """The odd n-cycle's PR box mixed with up to two deterministic
    assignments, at random rational weights."""
    box = cycle_empirical_model(n, "odd")
    labels = [o.label for o in box.scenario.observables]
    k = int(rng.integers(0, 3))
    weights = [Fraction(int(w)) for w in rng.integers(1, 13, k + 1)]
    weights = [w / sum(weights) for w in weights]
    points = [tuple(rng.choice(["0", "1"], n)) for _ in range(k)]
    tables = {}
    for ctx, dist in box.tables.items():
        exact = {tup: weights[0] * q for tup, q in dist.exact.items()}
        for w, a in zip(weights[1:], points):
            exact[tuple(a[labels.index(l)] for l in ctx)] += w
        tables[ctx] = Distribution(
            {tup: float(q) for tup, q in exact.items()}, exact
        )
    return EmpiricalModel(box.scenario, tables)


def test_forced_repairs_match_vertex_enumeration(monkeypatch):
    """Seeded random box mixtures: the repair from the float basis (the
    certificate forced off) and the one from the slack basis both reach the
    vertex oracle's optimum with an exactly feasible witness. Models whose
    support leaves more than four assignments alive are skipped, since the
    oracle enumerates every choice of active constraints."""
    rng = np.random.default_rng(1104)
    values = set()
    for _ in range(120):
        m = _random_box_mixture(rng, int(rng.integers(3, 6)))
        inc = incidence(m.scenario)
        zero = [
            r for r, (ctx, tup) in enumerate(inc.rows)
            if m.tables[ctx].exact[tup] == 0
        ]
        if (inc.matrix[zero].sum(axis=0) == 0).sum() > 4:
            continue
        best, _ = ncf_vertex_enumeration(m)
        with monkeypatch.context() as patch:
            patch.setattr(ncpoly, "_certify", lambda inc, p, basis: None)
            warm = contextual_fraction(m)
        assert warm.ncf_exact == best
        cold, witness = _slack_repair(m)
        assert cold == best == sum(witness.values())
        for witness in (warm.witness_exact, witness):
            _assert_exactly_feasible(m, witness)
        values.add(best)
    assert len(values) >= 20


def test_tiny_optimal_weights_are_validated_and_certified(tmp_path, capsys):
    """At v = 1 - 2/3**20 every optimal weight is below EPS_LP while their
    sum, the NCF n/3**20, is above it for n >= 4."""
    for n in range(4, 8):
        m = _white_noise_odd_cycle(n, 1 - Fraction(2, 3**20))
        res = contextual_fraction(m)
        assert res.ncf_exact == Fraction(n, 3**20)
        assert sum(res.witness_exact.values()) == res.ncf_exact
        path = tmp_path / f"tiny_{n}.scn"
        path.write_text(serialize_model(m, f"tiny_{n}"), encoding="utf-8")
        assert run(["ncf", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().err == ""


def _det(rows) -> Fraction:
    """Determinant by exact Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    k = len(a)
    det = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, k):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _square_systems():
    """Seeded random square systems: 0/1 and small signed entries of sizes
    1-12 (singular ones by a repeated or summed row), and entries between
    2**31 and 2**62."""
    rng = np.random.default_rng(20170504)
    for size in range(1, 13):
        for kind in ("binary", "signed", "huge"):
            for trial in range(4):
                if kind == "binary":
                    K = rng.integers(0, 2, (size, size))
                    b = rng.integers(0, 1000, size)
                elif kind == "signed":
                    K = rng.integers(-3, 4, (size, size))
                    b = rng.integers(-1000, 1000, size)
                else:
                    K = rng.integers(2**31, 2**62, (size, size))
                    K *= rng.choice((-1, 1), (size, size))
                    b = rng.integers(-(2**62), 2**62, size)
                if trial == 3 and size > 1:
                    K[-1] = K[0] if size == 2 or kind == "huge" else K[0] + K[1]
                yield kind, K.astype(np.int64), b.astype(np.int64)


def test_adjugate_solve_matches_exact_elimination():
    singular = midway = 0
    for kind, K, b in _square_systems():
        rows = K.tolist()
        expected = _solve_square(
            [[Fraction(v) for v in row] for row in rows],
            [Fraction(v) for v in b.tolist()],
        )
        solved = ncpoly._adjugate_solve(K, b)
        if expected is None:
            assert solved is None, rows
            singular += 1
            continue
        d, X, adj = solved
        assert d == abs(_det(rows)), rows
        assert [Fraction(v, d) for v in X.tolist()] == expected, rows
        # K adj = d I, exactly
        k = len(K)
        assert (K.astype(object) @ adj.astype(object)).tolist() == [
            [d if i == j else 0 for j in range(k)] for i in range(k)
        ]
        if kind == "huge":
            assert X.dtype == object and adj.dtype == object
        if kind == "binary":
            assert X.dtype == np.int64 and adj.dtype == np.int64
        # small signed entries whose minors pass 2**31 after a few steps
        midway += kind == "signed" and X.dtype == object
    assert singular >= 30
    assert midway > 0


def test_fraction_result_validation():
    with pytest.raises(ValueError, match="out of range"):
        FractionResult(1.5, -0.5, {("0",): 1.5})
    with pytest.raises(ValueError, match="1 - ncf"):
        FractionResult(0.5, 0.4, {("0",): 0.5})
    with pytest.raises(ValueError, match="sum to ncf"):
        FractionResult(0.5, 0.5, {("0",): 0.2})


# ------------------------------------------------- lazy assignment tuples


def test_incidence_decodes_columns_without_the_assignment_tuple():
    sc = Scenario(
        (
            Observable("A", ("a0", "a1")),
            Observable("B", ("b0", "b1", "b2")),
            Observable("C", ("c0", "c1", "c2", "c3")),
        ),
        (("A", "B"), ("C", "A"), ("B", "C")),
    )
    inc = incidence(sc)
    assert inc.outcomes == (("a0", "a1"), ("b0", "b1", "b2"), ("c0", "c1", "c2", "c3"))
    decoded = [inc.assignment(j) for j in range(inc.matrix.shape[1])]
    assert "assignments" not in inc.__dict__
    assert decoded == list(inc.assignments)
    assert inc.assignments is inc.assignments  # built once, then cached


def _assignments_left_unbuilt(monkeypatch) -> list[IncidenceMatrix]:
    built = []
    real = ncpoly.incidence

    def recorded(sc):
        built.append(real(sc))
        return built[-1]

    monkeypatch.setattr(ncpoly, "incidence", recorded)
    return built


def test_contextual_fraction_builds_no_assignment_tuple(monkeypatch):
    """The float witness, the integer certificate and the exact fallback
    decode only the columns they report: on a chained-Bell 14-cycle (2**14
    columns) and on exact white-noise odd cycles, the incidence's
    `assignments` tuple is never built."""
    built = _assignments_left_unbuilt(monkeypatch)
    n = 14
    res = contextual_fraction(_chained_bell(n, 0.3))
    assert res.ncf == pytest.approx(n * (1 - np.cos(np.pi / n)) / 2, abs=1e-9)
    assert len(res.witness) > 1
    res = contextual_fraction(_white_noise_odd_cycle(9, Fraction(4, 5)))
    assert res.ncf_exact == Fraction(9, 10)
    monkeypatch.setattr(ncpoly, "_certify", lambda inc, p, basis: None)
    res = contextual_fraction(_white_noise_odd_cycle(5, Fraction(9, 10)))
    assert res.ncf_exact == Fraction(1, 4)
    assert [inc.matrix.shape[1] for inc in built] == [2**14, 2**9, 2**5]
    assert all("assignments" not in inc.__dict__ for inc in built)
    # the decoded witnesses are the ones the tuple would give
    for inc in built:
        assert all(inc.assignment(j) == a for j, a in enumerate(inc.assignments))
