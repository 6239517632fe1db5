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

import ncf_pins
from conftest import HARDY_CONTEXTS
from ncf_pins import NOISE_LEVELS, white_noise_odd_cycle
from oracles import _solve_square, ncf_vertex_enumeration, simplex_identity_block

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
    assert inc.rows[0] == (("A_d", "B_c"), ("+", "0"))
    assert inc.rows[1] == (("A_d", "B_c"), ("+", "1"))
    assert inc.rows[4] == (("A_c", "B_c"), ("0", "0"))
    assert inc.assignments[0] == ("0", "+", "0", "+")
    assert inc.assignments[-1] == ("1", "-", "1", "-")
    # every assignment hits exactly one tuple per context
    assert all(inc.matrix.sum(axis=0) == len(hardy_scenario.contexts))
    # a two-observable tuple is hit by assignment_space / 4 assignments
    assert all(inc.matrix.sum(axis=1) == 4)


def _assert_membership_rule(inc: IncidenceMatrix, sc: Scenario) -> None:
    labels = [o.label for o in sc.observables]
    for r, (ctx, tup) in enumerate(inc.rows):
        pos = [labels.index(l) for l in ctx]
        for c, a in enumerate(inc.assignments):
            expected = 1 if tuple(a[i] for i in pos) == tup else 0
            assert inc.matrix[r, c] == expected


def test_incidence_restriction_is_the_membership_rule(hardy_scenario):
    _assert_membership_rule(incidence(hardy_scenario), hardy_scenario)


def _random_scenario(rng) -> Scenario:
    """1-5 observables of 1-4 outcomes; distinct contexts of 1-3
    observables in random order, drawn until every observable is in one."""
    k = int(rng.integers(1, 6))
    observables = tuple(
        Observable(f"X{i}", tuple(f"x{i}{j}" for j in range(int(rng.integers(1, 5)))))
        for i in range(k)
    )
    contexts: list[tuple[str, ...]] = []
    while (
        {l for ctx in contexts for l in ctx} != {o.label for o in observables}
        or len(contexts) < min(k, 3)
    ):
        size = int(rng.integers(1, min(k, 3) + 1))
        ctx = tuple(f"X{i}" for i in rng.permutation(k)[:size])
        if frozenset(ctx) not in map(frozenset, contexts):
            contexts.append(ctx)
    return Scenario(observables, tuple(contexts))


def test_incidence_membership_rule_mixed_radix():
    # radices 2, 3 and 4; context ("C", "A") lists its observables out of
    # declaration order
    fixed = Scenario(
        (
            Observable("A", ("a0", "a1")),
            Observable("B", ("b0", "b1", "b2")),
            Observable("C", ("c0", "c1", "c2", "c3")),
        ),
        (("A", "B"), ("C", "A"), ("B", "C"), ("C",)),
    )
    assert incidence(fixed).matrix.shape == (6 + 8 + 12 + 4, 24)
    # and seeded random scenarios: radix 1, contexts out of scenario order,
    # observables shared by several contexts
    rng = np.random.default_rng(1601)
    scenarios = [fixed] + [_random_scenario(rng) for _ in range(120)]
    unordered = shared = 0
    for sc in scenarios:
        labels = [o.label for o in sc.observables]
        unordered += any(list(c) != sorted(c, key=labels.index) for c in sc.contexts)
        shared += any(sum(l in c for c in sc.contexts) > 1 for l in labels)
    assert unordered > 60 and shared > 80
    assert any(len(o.outcomes) == 1 for sc in scenarios for o in sc.observables)
    for sc in scenarios:
        inc = incidence(sc)
        assert inc.assignments == tuple(
            itertools.product(*[o.outcomes for o in sc.observables])
        )
        assert inc.rows == tuple(
            (ctx, tup) for ctx in sc.contexts for tup in sc.joint_outcomes(ctx)
        )
        assert inc.matrix.shape == (len(inc.rows), sc.assignment_space())
        assert inc.matrix.dtype == np.int8
        assert not inc.matrix.flags.writeable
        _assert_membership_rule(inc, sc)
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


def test_incidence_entry_guard_rejects_dense_context_sets():
    """Every pair of 20 binary observables as a context: 2**20 columns pass
    the column guard, but 760 rows would need a 5.9 GiB float copy in the
    simplex. The binary 20-cycle, which the column guard admits, sits
    exactly at the entry bound."""
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(20))
    pairs = tuple(itertools.combinations([o.label for o in obs], 2))
    with pytest.raises(
        ValueError, match=r"760 rows x 1048576 columns exceeds the 80 \* 2\*\*20"
    ):
        incidence(Scenario(obs, pairs))
    cycle = cycle_empirical_model(20, "odd").scenario
    rows = sum(len(cycle.joint_outcomes(ctx)) for ctx in cycle.contexts)
    assert rows * cycle.assignment_space() == ncpoly.MAX_INCIDENCE_ENTRIES


# -------------------------------------------------------------- simplex


def test_lp_shape_validation():
    with pytest.raises(ValueError, match="two-dimensional"):
        simplex((1.0,), (1.0,), (1.0,))
    with pytest.raises(ValueError, match="equal length"):
        simplex((1.0,), ((1.0,),), (1.0, 1.0))
    with pytest.raises(ValueError, match="width"):
        simplex((1.0, 1.0), ((1.0,),), (1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        simplex((1.0,), ((1.0,),), (-1.0,))


def test_simplex_box():
    value, x, basis, inverse = simplex(
        np.ones(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 3.0])
    )
    assert value == pytest.approx(5.0, abs=1e-9)
    assert x == pytest.approx((2.0, 3.0), abs=1e-9)
    assert isinstance(x, np.ndarray) and isinstance(basis, np.ndarray)
    # B = I on the basic columns 0 and 1, in basis order
    assert basis.tolist() == [0, 1] and inverse.tolist() == [[1, 0], [0, 1]]
    # without rows, a nonpositive objective is optimal at x = 0
    value, x, basis, inverse = simplex(
        np.array([0.0, -1.0]), np.zeros((0, 2)), np.zeros(0)
    )
    assert value == 0 and x.tolist() == [0, 0] and basis.tolist() == []
    assert inverse.shape == (0, 0)


def test_simplex_prefers_the_better_corner():
    value, _, _, _ = simplex(
        np.array([2.0, 1.0]), np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([4.0, 2.0])
    )
    assert value == pytest.approx(6.0, abs=1e-9)


def test_simplex_unbounded():
    assert simplex(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.ones(1)) is None
    # without rows, a positive objective is unbounded
    assert simplex(np.array([0.0, 1.0]), np.zeros((0, 2)), np.zeros(0)) is None


def test_simplex_survives_the_classic_cycling_program():
    # degenerate program on which the naive pivot rule loops forever
    c = np.array([10.0, -57.0, -9.0, -24.0])
    A = np.array(
        [
            [0.5, -5.5, -2.5, 9.0],
            [0.5, -1.5, -0.5, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    rhs = np.array([0.0, 0.0, 1.0])
    value, _, _, _ = simplex(c, A, rhs)
    assert value == pytest.approx(1.0, abs=1e-9)
    ref = _scipy_reference(c, A, rhs)
    assert value == pytest.approx(-ref.fun, abs=1e-7)


def _ncf_lp(m: EmpiricalModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decomposition LP (c, A, rhs) that contextual_fraction solves for
    m: the rhs comes from the exact tables when the model has them."""
    inc = incidence(m.scenario)
    rhs = [
        float(m.tables[ctx].exact[tup] if m.exact_available else m.tables[ctx][tup])
        for ctx, tup in inc.rows
    ]
    return np.ones(inc.matrix.shape[1]), inc.matrix, np.array(rhs)


def _scipy_reference(c, A, rhs):
    return linprog(-c, A_ub=A, b_ub=rhs, method="highs")


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
        res = simplex(c, A, b)
        ref = _scipy_reference(c, A, b)
        if res is None:
            assert ref.status == 3
            continue
        assert ref.status == 0
        assert res[0] == pytest.approx(-ref.fun, abs=1e-6)


# ------------------------------------------------- noncontextual fraction


def test_ncf_program_shape(hardy_model, monkeypatch):
    """contextual_fraction's simplex call: c all ones, A the incidence
    matrix itself, and rhs the tables, exact where the model has them."""
    calls = []
    real = ncpoly.simplex

    def recorded(c, A, rhs):
        calls.append((c, A, rhs))
        return real(c, A, rhs)

    built = _assignments_left_unbuilt(monkeypatch)
    monkeypatch.setattr(ncpoly, "simplex", recorded)
    fr = _corpus_model("fr")
    for m in (hardy_model, fr):
        contextual_fraction(m)
    (c, A, rhs), (_, _, fr_rhs) = calls
    inc = built[0]
    assert c.tolist() == [1.0] * 16
    assert A is inc.matrix and A.shape == (16, 16)
    assert rhs.tolist() == [hardy_model.tables[ctx][tup] for ctx, tup in inc.rows]
    # a model with exact tables poses them, even where snapping moved a value
    assert fr_rhs.tolist() == [
        float(fr.tables[ctx].exact[tup]) for ctx, tup in built[1].rows
    ]


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
        ref = _scipy_reference(*_ncf_lp(m))
        assert ref.status == 0
        assert res.ncf == pytest.approx(-ref.fun, abs=1e-7)
        assert 0.0 <= res.ncf <= 1.0


def _corpus_model(name: str) -> EmpiricalModel:
    f = parse_file((DATA_DIR / f"{name}.scn").read_text(encoding="utf-8"))
    m = f.model if f.model is not None else realize(f.realization, f.scenario)
    return m if m.exact_available else snap_to_rationals(m)


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


def _pinned_basis_models():
    for name in CORPUS_NCF:
        yield f"corpus {name}", _corpus_model(name)
    for n in range(3, 10):
        for v in NOISE_LEVELS:
            yield f"odd {n} {v}", white_noise_odd_cycle(n, v)
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
        assert simplex(*_ncf_lp(m))[2].tolist() == pinned[key], key
    for n in (6, 8):
        res = contextual_fraction(models[f"chained_bell {n}"])
        assert res.ncf_exact is None
        assert res.ncf == pytest.approx(n * (1 - np.cos(np.pi / n)) / 2)


def _bits(result) -> tuple | None:
    """simplex's (value, x, basis, B^-1) as bytes, so that equal means bit
    for bit, the sign of a zero included."""
    if result is None:
        return None
    value, x, basis, inverse = result
    return (
        np.float64(value).tobytes(),
        x.dtype, x.shape, x.tobytes(),
        basis.tolist(),
        inverse.dtype, inverse.shape, inverse.tobytes(),
    )


def _degenerate_program(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A small program with 0/1 or integer entries, zero right-hand sides
    and repeated columns, so that Bland's tie-breaks decide the path."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13))
    if rng.random() < 0.5:
        A = rng.integers(0, 2, size=(m, n))
    else:
        A = rng.integers(-2, 4, size=(m, n))
    copies = rng.integers(0, n, size=int(rng.integers(0, n)))
    A[:, copies] = A[:, rng.integers(0, n, size=len(copies))]
    rhs = rng.integers(0, 4, size=m) * (rng.random(m) < 0.6)
    c = rng.integers(-1, 3, size=n)
    return c.astype(float), A.astype(rng.choice([np.int8, np.float64])), rhs.astype(float)


def test_simplex_is_the_identity_block_simplex_bit_for_bit():
    """Reduced costs updated by B^-1's leaving row between full pricings,
    the slacks priced as -y, and a slack's entering column read off B^-1,
    give what the [A | I] simplex in oracles gave, which prices every
    column afresh at every pivot: the same value, x, basis and B^-1, bit
    for bit, on the pinned NCF programs, the larger chained-Bell and
    white-noise programs where most pricings are updates, the long Bland
    paths of the tie family at v = 1/3 + 2**-40 (n = 9 and 11 take 287 and
    1152 pivots) and seeded degenerate programs."""
    programs = [_ncf_lp(m) for _, m in _pinned_basis_models()]
    programs += [_ncf_lp(_chained_bell(n, 0.3)) for n in (10, 12)]
    programs += [
        _ncf_lp(white_noise_odd_cycle(n, v))
        for n in (10, 11)
        for v in (Fraction(9, 10), Fraction(4, 5))
    ]
    programs += [_ncf_lp(white_noise_odd_cycle(n, ncf_pins.TIE)) for n in (7, 9, 11)]
    rng = np.random.default_rng(1602)
    programs += [_degenerate_program(rng) for _ in range(300)]
    unbounded = moved = 0
    for c, A, rhs in programs:
        got = simplex(c, A, rhs)
        assert _bits(got) == _bits(simplex_identity_block(c, A, rhs))
        unbounded += got is None
        moved += got is not None and (got[2] < len(c)).any()
    assert unbounded > 20 and moved > 200


def test_closed_forms_past_the_pinned_sizes():
    """White-noise odd n-cycles at v = 19/20 have NCF n(1 - v)/2 = n/40
    exactly at 2**13 and 2**15 columns, where the simplex prices mostly by
    updates; the chained-Bell 14-cycle's closed form is checked in
    test_contextual_fraction_builds_no_assignment_tuple."""
    for n in (13, 15):
        res = contextual_fraction(white_noise_odd_cycle(n, Fraction(19, 20)))
        assert res.ncf_exact == Fraction(n, 40), n
        assert sum(res.witness_exact.values()) == Fraction(n, 40)


def _dual_pivots(monkeypatch) -> list[int]:
    """Records the leaving row of every dual-simplex pivot of the exact
    routine."""
    pivots = []
    pivot = ncpoly._pivot

    def counted(aug, col, r, d):
        pivots.append(r)
        return pivot(aug, col, r, d)

    monkeypatch.setattr(ncpoly, "_pivot", counted)
    return pivots


def _slack_started(monkeypatch) -> list:
    """Hands contextual_fraction's exact routine the slack basis in place of
    the float-optimal one. The slack basis is never dual feasible, so the
    routine restarts from _context_basis; records each restart."""
    starts = []
    real_simplex, context_basis = ncpoly.simplex, ncpoly._context_basis

    def slack(c, A, rhs):
        value, x, _, _ = real_simplex(c, A, rhs)
        nrows, n = A.shape
        return value, x, np.arange(n, n + nrows), np.eye(nrows)

    def counted(inc):
        starts.append(inc)
        return context_basis(inc)

    monkeypatch.setattr(ncpoly, "simplex", slack)
    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    return starts


def test_exact_simplex_fallback_reproduces_pinned_fractions(monkeypatch):
    """Handed the slack basis in place of the float-optimal one, the exact
    routine restarts from _context_basis and pivots to the same exact
    optimum on every program and, on the corpus, to the same witness in the
    same order."""
    starts = _slack_started(monkeypatch)
    pivots = _dual_pivots(monkeypatch)
    for name, (ncf, witness) in CORPUS_NCF.items():
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        assert list(res.witness_exact.items()) == list(witness.items()), name
    for n in range(3, 7):
        for v in NOISE_LEVELS:
            res = contextual_fraction(white_noise_odd_cycle(n, v))
            expected = min(Fraction(1), n * (1 - v) / 2)
            assert res.ncf_exact == expected, (n, v)
            assert sum(res.witness_exact.values()) == expected
            assert res.ncf == float(expected)
    assert len(starts) == len(CORPUS_NCF) + 4 * len(NOISE_LEVELS)
    assert pivots


def test_integer_certificate_pins_exact_fractions(monkeypatch):
    """The float-optimal basis of every pinned program is exactly optimal:
    the exact routine keeps it and makes zero dual-simplex pivots."""

    def no_restart(inc):
        raise AssertionError("the float basis is not exactly dual feasible")

    monkeypatch.setattr(ncpoly, "_context_basis", no_restart)
    pivots = _dual_pivots(monkeypatch)
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
    # start system is built in Python ints
    for n in range(3, 8):
        for v in (
            Fraction(1),
            Fraction(9, 10),
            Fraction(4, 5),
            Fraction(2, 3),
            Fraction(2**35 - 1, 2**35),
        ):
            res = contextual_fraction(white_noise_odd_cycle(n, v))
            expected = min(Fraction(1), n * (1 - v) / 2)
            assert res.ncf_exact == expected, (n, v)
            assert sum(res.witness_exact.values()) == expected
            assert res.ncf == float(expected)
    assert pivots == []


def _slack_repair(m: EmpiricalModel):
    """The exact routine handed the slack basis, which is never dual
    feasible (every assignment column has reduced cost 1), so that it
    starts from _context_basis."""
    inc = incidence(m.scenario)
    p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
    nrows, n = inc.matrix.shape
    return ncpoly._exact_optimum(inc, p, tuple(range(n, n + nrows)), np.eye(nrows))


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
    basis that is exactly primal infeasible, so at least one dual-simplex
    pivot runs. It is exactly dual feasible, so the pivots start from it and
    _context_basis is never built. The NCF is min(1, n(1 - v)/2) = 1."""
    v = Fraction(1, 3) + Fraction(1, 2**40)
    m = white_noise_odd_cycle(n, v)
    inc = incidence(m.scenario)
    p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
    _, P = ncpoly._scaled(p)
    _, _, basis, inverse = simplex(*_ncf_lp(m))
    aug = ncpoly._basis_system(inc.matrix, P, basis, inverse)
    assert (aug[:, 0] < 0).any()

    def cold(inc):
        raise AssertionError("the repair started from _context_basis")

    monkeypatch.setattr(ncpoly, "_context_basis", cold)
    pivots = _dual_pivots(monkeypatch)
    res = contextual_fraction(m)
    assert pivots
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
            m = white_noise_odd_cycle(n, v)
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
            white_noise_odd_cycle(9, Fraction(2, 3)),
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


def test_forced_repairs_match_vertex_enumeration():
    """Seeded random box mixtures: the exact routine from the float basis
    and the one handed the slack basis both reach the vertex oracle's
    optimum with an exactly feasible witness. Models whose
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
        m = white_noise_odd_cycle(n, 1 - Fraction(2, 3**20))
        res = contextual_fraction(m)
        assert res.ncf_exact == Fraction(n, 3**20)
        assert sum(res.witness_exact.values()) == res.ncf_exact
        path = tmp_path / f"tiny_{n}.scn"
        path.write_text(serialize_model(m, f"tiny_{n}"), encoding="utf-8")
        assert run(["ncf", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().err == ""


def _float_inverse(B: np.ndarray) -> np.ndarray:
    """np.linalg.inv(B), or NaN where it finds B singular."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return np.full(B.shape, np.nan)


def _basis_starts():
    """(label, incidence, P, basis, inverse) on every corpus program, every
    white-noise odd cycle, n = 3..9, and a program whose scaled
    probabilities need Python ints: the float-optimal basis with the
    simplex's B^-1, _context_basis with 2I - B, and seeded random mixes of
    assignment and slack columns in random order with np.linalg.inv's."""
    programs = [(name, _corpus_model(name)) for name in CORPUS_NCF]
    programs += [
        (f"odd {n} {v}", white_noise_odd_cycle(n, v))
        for n in range(3, 10)
        for v in NOISE_LEVELS
    ]
    programs.append(("huge", white_noise_odd_cycle(5, Fraction(2**35 - 1, 2**35))))
    rng = np.random.default_rng(1203)
    for label, m in programs:
        inc = incidence(m.scenario)
        p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
        _, P = ncpoly._scaled(p)
        _, _, basis, inverse = simplex(*_ncf_lp(m))
        yield label, inc, P, basis, inverse
        nrows, n = inc.matrix.shape
        M = np.hstack((inc.matrix, np.eye(nrows)))
        basis = np.array(ncpoly._context_basis(inc))
        yield label, inc, P, basis, 2 * np.eye(nrows) - M[:, basis]
        # a random walk from _context_basis that swaps in random columns,
        # skipping swaps that make the basis singular
        basis = rng.permutation(basis)
        for walk in range(2):
            for step in range(nrows):
                trial = basis.copy()
                trial[rng.integers(nrows)] = rng.integers(n + nrows)
                if len(set(trial.tolist())) == nrows:
                    if np.linalg.matrix_rank(M[:, trial]) == nrows:
                        basis = trial
            yield label, inc, P, basis, _float_inverse(M[:, basis])
        # then one unchecked swap, often singular
        outside = np.setdiff1d(np.arange(n + nrows), basis)
        basis[rng.integers(nrows)] = rng.choice(outside)
        yield label, inc, P, basis, _float_inverse(M[:, basis])


def test_basis_system_is_the_exact_inverse_read_off_the_float_one():
    """On every start, _basis_system is B^-1 [P | I] as exact elimination
    over Fractions gives it, int64 but where P needs Python ints, and None
    exactly when B is singular or |det B| != 1, that is when the exact B^-1
    is not integral."""
    exact = singular = fractional = 0
    for label, inc, P, basis, inverse in _basis_starts():
        nrows = len(inc.matrix)
        M = np.hstack((inc.matrix, np.eye(nrows, dtype=np.int8)))
        B = [[Fraction(v) for v in row] for row in M[:, basis].tolist()]
        rhs = [[Fraction(v)] + [Fraction(0)] * nrows for v in P.tolist()]
        for i in range(nrows):
            rhs[i][1 + i] = Fraction(1)
        expected = _solve_square(B, rhs)
        got = ncpoly._basis_system(inc.matrix, P, basis, inverse)
        if expected is None or any(v.denominator > 1 for row in expected for v in row):
            assert got is None, (label, basis)
            singular += expected is None
            fractional += expected is not None
            continue
        assert got.tolist() == expected, (label, basis)
        assert got.dtype == (object if label == "huge" else np.int64), label
        exact += 1
    assert exact >= 3 * (len(CORPUS_NCF) + 7 * len(NOISE_LEVELS) + 1)
    assert singular >= 10 and fractional >= 10


def test_basis_system_keeps_its_integers_exact():
    """R P is formed in Python ints where an int64 sum could overflow: here
    a row of R = B^-1 adds two entries of 2**62. An R with an entry of
    2**31 or more is refused even when B R = I: the unit lower triangular B
    with ones one and three below the diagonal has B^-1 entries that grow
    about 1.47-fold per row, past 2**31 at m = 59."""
    B = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    P = np.array([2**62, 0, 2**62])
    got = ncpoly._basis_system(B, P, np.arange(3), np.linalg.inv(B))
    assert got.dtype == object
    assert got.tolist() == [[2**63, 1, -1, 1], [-(2**62), 0, 1, -1], [2**62, 0, 0, 1]]
    for m in (58, 59):
        B = sum(np.eye(m, k=-k, dtype=np.int8) for k in (0, 1, 3))
        inverse = np.linalg.inv(B)
        assert np.array_equal(B @ np.rint(inverse), np.eye(m))
        got = ncpoly._basis_system(B, np.ones(m, dtype=np.int64), np.arange(m), inverse)
        assert (got is None) == (m == 59) == (np.abs(inverse).max() >= 2**31)


_CONTEXT_BASIS = ncpoly._context_basis


def _det_two(inc, basis, inverse):
    """A basis with |det B| = 2, from a seeded walk that swaps assignment
    columns into the slack basis, and its float inverse."""
    nrows, n = inc.matrix.shape
    M = np.hstack((inc.matrix, np.eye(nrows)))
    rng = np.random.default_rng(nrows)
    basis = np.arange(n, n + nrows)
    for _ in range(10_000):
        trial = basis.copy()
        trial[rng.integers(nrows)] = rng.integers(n)
        det = round(abs(np.linalg.det(M[:, trial])))
        if det == 2 and len(set(trial.tolist())) == nrows:
            return trial, np.linalg.inv(M[:, trial])
        if det == 1:
            basis = trial
    raise AssertionError(f"no basis with |det B| = 2 in {nrows} rows")


def _off_by_one(inc, basis, inverse):
    inverse = inverse.copy()
    inverse[0, -1] += 1
    return basis, inverse


def _other_basis(inc, basis, inverse):
    """The exact inverse of _context_basis, 2I - B, with the optimal basis."""
    nrows = len(inc.matrix)
    other = np.hstack((inc.matrix, np.eye(nrows)))[:, _CONTEXT_BASIS(inc)]
    return basis, 2 * np.eye(nrows) - other


def _nan_entry(inc, basis, inverse):
    inverse = inverse.copy()
    inverse[-1, 0] = np.nan
    return basis, inverse


def _corrupted_starts(monkeypatch, corrupt) -> list:
    """Hands contextual_fraction's exact routine corrupt(incidence, basis,
    B^-1) in place of the float-optimal basis and its B^-1; records each
    restart from _context_basis."""
    restarts = []
    built = _assignments_left_unbuilt(monkeypatch)
    real_simplex = ncpoly.simplex

    def corrupted(c, A, rhs):
        value, x, basis, inverse = real_simplex(c, A, rhs)
        return (value, x, *corrupt(built[-1], basis, inverse))

    def counted(inc):
        restarts.append(inc)
        return _CONTEXT_BASIS(inc)

    monkeypatch.setattr(ncpoly, "simplex", corrupted)
    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    return restarts


@pytest.mark.parametrize("corrupt", [_det_two, _off_by_one, _other_basis, _nan_entry])
def test_rejected_float_inverses_restart_once(monkeypatch, corrupt):
    """Through contextual_fraction, a basis with |det B| = 2, a B^-1 off by
    one in an entry, the inverse of another basis and a B^-1 holding a NaN
    each restart the exact routine once from _context_basis, and it reaches
    the pinned corpus optimum and witness, in the same order, and the closed
    form on the white-noise grid. Programs of fewer than 20 rows (the 3- and
    4-cycles and Hardy's) are left out of the |det B| = 2 case: the walk
    finds no such basis in them."""
    least = 20 if corrupt is _det_two else 0
    names = [
        name for name in CORPUS_NCF
        if len(incidence(_corpus_model(name).scenario).rows) >= least
    ]
    sizes = [n for n in range(3, 7) if 4 * n >= least]
    restarts = _corrupted_starts(monkeypatch, corrupt)
    for name in names:
        ncf, witness = CORPUS_NCF[name]
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        assert list(res.witness_exact.items()) == list(witness.items()), name
    for n in sizes:
        for v in NOISE_LEVELS:
            m = white_noise_odd_cycle(n, v)
            res = contextual_fraction(m)
            assert res.ncf_exact == min(Fraction(1), n * (1 - v) / 2), (n, v)
            assert sum(res.witness_exact.values()) == res.ncf_exact
            _assert_exactly_feasible(m, res.witness_exact)
    assert len(restarts) == len(names) + len(sizes) * len(NOISE_LEVELS)
    assert len(names) >= 3


_TRIPARTITE = Scenario(
    tuple(Observable(f"{party}{s}", ("0", "1")) for party in "ABC" for s in "01"),
    tuple(
        (f"A{i}", f"B{j}", f"C{k}") for i, j, k in itertools.product("01", repeat=3)
    ),
)


def _parity_box_mixture(rng) -> EmpiricalModel:
    """One to three tripartite parity boxes, each uniform on the outcome
    triples of a random parity per context, mixed with up to two
    deterministic assignments, at random rational weights."""
    boxes, points = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    weights = [Fraction(int(w)) for w in rng.integers(1, 13, boxes + points)]
    weights = [w / sum(weights) for w in weights]
    parities = rng.integers(0, 2, (boxes, len(_TRIPARTITE.contexts)))
    assignments = rng.choice(["0", "1"], (points, 6))
    labels = [o.label for o in _TRIPARTITE.observables]
    tables = {}
    for c, ctx in enumerate(_TRIPARTITE.contexts):
        exact = dict.fromkeys(_TRIPARTITE.joint_outcomes(ctx), Fraction(0))
        for w, parity in zip(weights, parities[:, c]):
            for tup in exact:
                if tup.count("1") % 2 == parity:
                    exact[tup] += w / 4
        for w, a in zip(weights[boxes:], assignments):
            exact[tuple(a[labels.index(l)] for l in ctx)] += w
        tables[ctx] = Distribution({t: float(q) for t, q in exact.items()}, exact)
    return EmpiricalModel(_TRIPARTITE, tables)


def test_tripartite_parity_box_mixtures_match_linprog(monkeypatch):
    """Seeded parity-box mixtures on the 64 x 64 program of three parties
    with two settings each: the exact NCF is scipy's optimum and the witness
    is exactly feasible. Six float-optimal bases there have |det B| of 2
    or 3, so the exact routine restarts from _context_basis."""
    restarts = []

    def counted(inc):
        restarts.append(inc)
        return _CONTEXT_BASIS(inc)

    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    rng = np.random.default_rng(17)
    values = set()
    for _ in range(120):
        m = _parity_box_mixture(rng)
        res = contextual_fraction(m)
        ref = _scipy_reference(*_ncf_lp(m))
        assert ref.status == 0
        assert float(res.ncf_exact) == pytest.approx(-ref.fun, abs=1e-7)
        assert sum(res.witness_exact.values()) == res.ncf_exact
        _assert_exactly_feasible(m, res.witness_exact)
        values.add(res.ncf_exact)
    assert len(restarts) >= 6 and len(values) >= 60


def test_ncf_outputs_are_pinned(tmp_path):
    """`ncf --format json` on exact-table files, byte for byte, against the
    SHA-256 digests in ncf_digests.json: white-noise odd cycles, the tie
    family and the corpus table files."""
    pins = json.loads(ncf_pins.PINS.read_text())
    got = {key: ncf_pins.digest(path) for key, path in ncf_pins.pinned_files(tmp_path)}
    assert got == pins


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
    """The float witness and the exact routine, with and without pivots,
    decode only the columns they report: on a chained-Bell 14-cycle (2**14
    columns) and on exact white-noise odd cycles, the incidence's
    `assignments` tuple is never built."""
    built = _assignments_left_unbuilt(monkeypatch)
    n = 14
    res = contextual_fraction(_chained_bell(n, 0.3))
    assert res.ncf == pytest.approx(n * (1 - np.cos(np.pi / n)) / 2, abs=1e-9)
    assert len(res.witness) > 1
    res = contextual_fraction(white_noise_odd_cycle(9, Fraction(4, 5)))
    assert res.ncf_exact == Fraction(9, 10)
    starts = _slack_started(monkeypatch)
    pivots = _dual_pivots(monkeypatch)
    res = contextual_fraction(white_noise_odd_cycle(5, Fraction(9, 10)))
    assert res.ncf_exact == Fraction(1, 4)
    assert len(starts) == 1 and pivots
    assert [inc.matrix.shape[1] for inc in built] == [2**14, 2**9, 2**5]
    assert all("assignments" not in inc.__dict__ for inc in built)
    # the decoded witnesses are the ones the tuple would give
    for inc in built:
        assert all(inc.assignment(j) == a for j, a in enumerate(inc.assignments))
