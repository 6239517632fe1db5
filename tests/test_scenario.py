"""Scenario-layer tests: realize, no-disturbance, supports."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest

import contextuality
from contextuality.qstate import (
    Distribution,
    ProductBasis,
    SiteBasis,
    StateVector,
    born,
    computational_basis,
    diagonal_basis,
)
from contextuality.scenario import (
    EPS_ND,
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    PossibilisticModel,
    QuantumRealization,
    Scenario,
    marginal,
    no_disturbance,
    realize,
    snap_to_rationals,
    support_of,
)

from contextuality.scnformat import parse_file

from conftest import HARDY_CONTEXTS, hardy_like_cycle, random_table_model
from oracles import (
    born_by_projectors,
    no_disturbance_all_pairs,
    snap_to_rationals_limit_denominator,
)


# ------------------------------------------------------------------ Scenario


def test_scenario_rejects_unknown_observable():
    with pytest.raises(ValueError, match="unknown observable"):
        Scenario((Observable("X", ("0", "1")),), (("X", "Y"),))


def test_scenario_rejects_duplicate_context():
    obs = (Observable("X", ("0", "1")), Observable("Y", ("0", "1")))
    with pytest.raises(ValueError, match="duplicate context"):
        Scenario(obs, (("X", "Y"), ("Y", "X")))


def test_scenario_rejects_uncovered_observable():
    obs = (Observable("X", ("0", "1")), Observable("Y", ("0", "1")))
    with pytest.raises(ValueError, match="appear in no context"):
        Scenario(obs, (("X",),))


def test_scenario_rejects_empty():
    with pytest.raises(ValueError, match="at least one context"):
        Scenario((), ())


def test_singleton_context_is_permitted():
    sc = Scenario((Observable("X", ("0", "1")),), (("X",),))
    assert sc.joint_outcomes(("X",)) == [("0",), ("1",)]


# ------------------------------------------------------------------- realize


def test_realize_hardy_tables(hardy_model):
    t = hardy_model.table
    assert t(("A_d", "B_c"))[("+", "0")] == pytest.approx(2 / 3, abs=1e-12)
    assert t(("A_d", "B_c"))[("-", "0")] == pytest.approx(0.0, abs=1e-12)
    assert t(("A_c", "B_c"))[("0", "0")] == pytest.approx(1 / 3, abs=1e-12)
    assert t(("A_c", "B_c"))[("0", "1")] == pytest.approx(0.0, abs=1e-12)
    assert t(("A_c", "B_d"))[("1", "-")] == pytest.approx(0.0, abs=1e-12)
    assert t(("A_d", "B_d"))[("+", "+")] == pytest.approx(9 / 12, abs=1e-12)
    assert t(("A_d", "B_d"))[("-", "-")] == pytest.approx(1 / 12, abs=1e-12)


def test_realize_product_state_factorizes(hardy_scenario):
    plus = 1.0 / np.sqrt(2.0)
    state = StateVector((2, 2), np.array([plus, plus, 0, 0], dtype=complex))
    qr = QuantumRealization(
        state,
        {
            "A_c": MeasurementRecipe((0,), computational_basis()),
            "A_d": MeasurementRecipe((0,), diagonal_basis()),
            "B_c": MeasurementRecipe((1,), computational_basis()),
            "B_d": MeasurementRecipe((1,), diagonal_basis()),
        },
    )
    m = realize(qr, hardy_scenario)
    for ctx in hardy_scenario.contexts:
        left = marginal(m.table(ctx), ctx, (ctx[0],))
        right = marginal(m.table(ctx), ctx, (ctx[1],))
        for key, p in m.table(ctx).items():
            assert p == pytest.approx(
                left[(key[0],)] * right[(key[1],)], abs=1e-9
            )


def test_realize_missing_recipe(hardy_scenario, hardy_realization):
    recipes = dict(hardy_realization.recipes)
    del recipes["B_d"]
    qr = QuantumRealization(hardy_realization.state, recipes)
    with pytest.raises(ValueError, match="no measurement recipe"):
        realize(qr, hardy_scenario)


def test_realize_rejects_overlapping_sites(hardy_scenario, hardy_realization):
    recipes = dict(hardy_realization.recipes)
    recipes["B_c"] = MeasurementRecipe((0,), computational_basis())
    qr = QuantumRealization(hardy_realization.state, recipes)
    with pytest.raises(ValueError, match="overlap"):
        realize(qr, hardy_scenario)


def test_realize_applies_outcome_map(hardy_scenario, hardy_realization):
    recipes = dict(hardy_realization.recipes)
    recipes["A_c"] = MeasurementRecipe(
        (0,), computational_basis(), {"0": "1", "1": "0"}
    )
    qr = QuantumRealization(hardy_realization.state, recipes)
    m = realize(qr, hardy_scenario)
    assert m.table(("A_c", "B_c"))[("1", "1")] == pytest.approx(0.0, abs=1e-12)
    assert m.table(("A_c", "B_c"))[("0", "1")] == pytest.approx(1 / 3, abs=1e-12)


def _random_realization(rng: np.random.Generator):
    """2-3 sites of dimension 2-3 and random bases: J measures sites 1 and 0
    jointly, every context leaves some site unmeasured or measures all, and
    each recipe may relabel its outcomes, declared in sorted order."""
    k = int(rng.integers(2, 4))
    dims = tuple(int(d) for d in rng.integers(2, 4, size=k))
    amps = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
    state = StateVector(dims, amps / np.linalg.norm(amps))

    def recipe(sites, name):
        d = prod(dims[s] for s in sites)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        labels = tuple(f"{name}{i}" for i in range(d))
        omap = None
        if rng.random() < 0.5:
            omap = dict(zip(labels, (f"o{i}" for i in rng.permutation(d))))
        return MeasurementRecipe(sites, SiteBasis(q.T, labels), omap)

    recipes = {"J": recipe((1, 0), "j"), "A0": recipe((0,), "a"),
               "B0": recipe((0,), "b"), "A1": recipe((1,), "c")}
    contexts = [("J",), ("A0", "A1"), ("A1", "B0"), ("B0",)]
    if k == 3:
        recipes["A2"] = recipe((2,), "d")
        contexts[0] = ("J", "A2")
        contexts.append(("A2", "A0"))
    sc = Scenario(
        tuple(
            Observable(l, tuple(sorted(r.mapped_labels())))
            for l, r in recipes.items()
        ),
        tuple(contexts),
    )
    return QuantumRealization(state, recipes), sc


def test_realize_is_born_relabeled_float_for_float():
    """realize's single contraction per context gives exactly the floats of
    born over the ProductBasis of the context, relabeled; an independent
    projector-and-partial-trace oracle agrees within 1e-12."""
    rng = np.random.default_rng(20261018)
    unmeasured = joint_with_rest = 0
    for _ in range(60):
        qr, sc = _random_realization(rng)
        m = realize(qr, sc)
        for ctx in sc.contexts:
            recipes = [qr.recipes[l] for l in ctx]
            basis = ProductBasis.for_state_sites(
                qr.state.nsites, [(r.sites, r.basis) for r in recipes]
            )
            unmeasured += bool(basis.unmeasured)
            joint_with_rest += "J" in ctx and len(ctx) == 2
            maps = [r.outcome_map or {l: l for l in r.basis.labels} for r in recipes]
            relabeled = {
                tuple(mp[l] for mp, l in zip(maps, key)): p
                for key, p in born(qr.state, basis).items()
            }
            table = m.table(ctx)
            assert list(table) == sc.joint_outcomes(ctx)
            assert dict(table.items()) == relabeled
            oracle = born_by_projectors(qr, ctx)
            assert set(oracle) == set(relabeled)
            for key, p in oracle.items():
                assert table[key] == pytest.approx(p, abs=1e-12)
    assert unmeasured and joint_with_rest


def test_scenario_observable_lookup(hardy_scenario):
    assert hardy_scenario.observable("B_d") == Observable("B_d", ("+", "-"))
    with pytest.raises(KeyError) as info:
        hardy_scenario.observable("C")
    assert info.value.args == ("C",)


def _rational_tables(sc):
    tables = {}
    for ctx in sc.contexts:
        outcomes = sc.joint_outcomes(ctx)
        exact = {t: Fraction(k + 1, 10) for k, t in enumerate(outcomes)}
        tables[ctx] = Distribution({t: float(v) for t, v in exact.items()}, exact)
    return tables


def test_canonical_tables_are_kept(hardy_scenario):
    tables = _rational_tables(hardy_scenario)
    m = EmpiricalModel(hardy_scenario, tables)
    for ctx in hardy_scenario.contexts:
        assert m.tables[ctx] is tables[ctx]


def test_shuffled_tables_come_back_in_canonical_order(hardy_scenario):
    tables = _rational_tables(hardy_scenario)
    reordered = {}
    for i, (ctx, d) in enumerate(tables.items()):
        probs = dict(reversed(d.probs.items())) if i % 2 == 0 else d.probs
        exact = dict(reversed(d.exact.items()))  # exact rows out of order too
        reordered[ctx] = Distribution(probs, exact)
    m = EmpiricalModel(hardy_scenario, reordered)
    for ctx in hardy_scenario.contexts:
        expected = hardy_scenario.joint_outcomes(ctx)
        assert m.tables[ctx] is not reordered[ctx]
        assert list(m.tables[ctx].probs) == expected
        assert list(m.tables[ctx].exact) == expected
        assert m.tables[ctx] == tables[ctx]


# ------------------------------------------------------------ no_disturbance


def test_hardy_passes_no_disturbance(hardy_model):
    worst, records = no_disturbance(hardy_model)
    assert worst <= EPS_ND
    # every pair of contexts here shares exactly one observable
    assert len(records) == 4


def test_hardy_shared_marginal_value(hardy_model):
    ctx = ("A_c", "B_c")
    m1 = marginal(hardy_model.table(ctx), ctx, ("A_c",))
    ctx2 = ("A_c", "B_d")
    m2 = marginal(hardy_model.table(ctx2), ctx2, ("A_c",))
    assert m1[("1",)] == pytest.approx(2 / 3, abs=1e-9)
    assert m2[("1",)] == pytest.approx(2 / 3, abs=1e-9)


def test_signalling_model_reports_violation():
    obs = (
        Observable("X", ("0", "1")),
        Observable("Y", ("0", "1")),
        Observable("Z", ("0", "1")),
    )
    sc = Scenario(obs, (("X", "Y"), ("X", "Z")))
    t1 = Distribution({("0", "0"): 1.0, ("0", "1"): 0.0, ("1", "0"): 0.0, ("1", "1"): 0.0})
    t2 = Distribution({("0", "0"): 0.0, ("0", "1"): 0.0, ("1", "0"): 1.0, ("1", "1"): 0.0})
    m = EmpiricalModel(sc, {("X", "Y"): t1, ("X", "Z"): t2})
    worst, records = no_disturbance(m)
    assert worst == pytest.approx(1.0, abs=1e-12)
    assert records[0].shared == ("X",)


def test_single_context_trivially_passes():
    sc = Scenario((Observable("X", ("0", "1")),), (("X",),))
    m = EmpiricalModel(
        sc, {("X",): Distribution({("0",): 0.25, ("1",): 0.75})}
    )
    assert no_disturbance(m) == (0.0, [])


def test_no_disturbance_records_cannot_be_mutated_through_the_memo(hardy_model):
    worst, records = no_disturbance(hardy_model)
    kept = list(records)
    records.clear()
    assert no_disturbance(hardy_model) == (worst, kept)


def test_no_disturbance_matches_the_all_pairs_loop():
    """Comparing only the contexts that share an observable gives the
    all-pairs loop's records, in its order, and its worst value: on seeded
    random models, signalling ones and ones with contexts that share
    nothing among them, on the corpus tables and realizations, and on
    Hardy-like cycles."""
    rng = random.Random(3001)
    models = [random_table_model(rng) for _ in range(300)]
    for path in sorted((Path(contextuality.__file__).parent / "data").glob("*.scn")):
        f = parse_file(path.read_text(encoding="utf-8"))
        if f.model is not None:
            models.append(f.model)
        elif f.realization is not None:
            models.append(realize(f.realization, f.scenario))
    models += [hardy_like_cycle(n, Fraction(1, 8)) for n in (5, 12)]
    signalling = disjoint = 0
    for m in models:
        worst, records = no_disturbance(m)
        assert (worst, records) == no_disturbance_all_pairs(m)
        signalling += worst > EPS_ND
        k = len(m.scenario.contexts)
        disjoint += len(records) < k * (k - 1) // 2
    assert len(models) == 300 + 8 + 2  # wigner.scn is a chain
    assert signalling > 50 and disjoint > 50


def test_randomized_realizations_pass_no_disturbance(hardy_scenario):
    rng = np.random.default_rng(23)
    for _ in range(40):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector((2, 2), v / np.linalg.norm(v))
        qr = QuantumRealization(
            state,
            {
                "A_c": MeasurementRecipe((0,), computational_basis()),
                "A_d": MeasurementRecipe((0,), diagonal_basis()),
                "B_c": MeasurementRecipe((1,), computational_basis()),
                "B_d": MeasurementRecipe((1,), diagonal_basis()),
            },
        )
        worst, _ = no_disturbance(realize(qr, hardy_scenario))
        assert worst <= EPS_ND


# ------------------------------------------------------------------ supports


def test_hardy_supports(hardy_model):
    p = support_of(hardy_model)
    assert p.support(("A_d", "B_c")) == frozenset(
        {("+", "0"), ("+", "1"), ("-", "1")}
    )
    assert p.support(("A_c", "B_c")) == frozenset(
        {("0", "0"), ("1", "0"), ("1", "1")}
    )
    assert p.support(("A_d", "B_d")) == frozenset(
        {("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")}
    )


def test_support_respects_eps(hardy_model):
    p = support_of(hardy_model, eps=0.2)
    assert p.support(("A_d", "B_c")) == frozenset({("+", "0")})
    assert p.support(("A_c", "B_c")) == frozenset(
        {("0", "0"), ("1", "0"), ("1", "1")}
    )


def test_support_rejects_degenerate(hardy_model):
    with pytest.raises(ValueError, match="degenerate"):
        support_of(hardy_model, eps=1.0)


@pytest.mark.parametrize("eps", [-1.0, -1e-300, 1.0, float("inf"), float("nan")])
def test_support_rejects_eps_outside_unit_interval(hardy_model, eps):
    """A negative eps makes every zero-probability event possible; a NaN one
    compares false with everything, so every context would look degenerate."""
    with pytest.raises(ValueError, match=r"is not in \[0, 1\)"):
        support_of(hardy_model, eps=eps)
    assert support_of(hardy_model, eps=0.0) == support_of(hardy_model)


def test_possibilistic_rejects_foreign_tuple(hardy_scenario):
    sups = {ctx: frozenset({tuple(o[0] for o in ctx)}) for ctx in HARDY_CONTEXTS}
    sups[("A_d", "B_c")] = frozenset({("up", "0")})
    with pytest.raises(ValueError, match="foreign"):
        PossibilisticModel(hardy_scenario, sups)


# ---------------------------------------------------------------- exactness


def test_snap_to_rationals_on_hardy(hardy_model):
    snapped = snap_to_rationals(hardy_model)
    assert snapped is not None
    exact = snapped.table(("A_d", "B_d")).exact
    assert exact[("+", "+")] == Fraction(3, 4)
    assert exact[("-", "-")] == Fraction(1, 12)


def test_snap_to_rationals_refuses_irrational(hardy_scenario):
    # a state with Born probabilities cos^2/sin^2 of an awkward angle
    a = np.cos(0.7345)
    b = np.sin(0.7345)
    state = StateVector((2, 2), np.array([a, 0, b, 0], dtype=complex))
    qr = QuantumRealization(
        state,
        {
            "A_c": MeasurementRecipe((0,), computational_basis()),
            "A_d": MeasurementRecipe((0,), diagonal_basis()),
            "B_c": MeasurementRecipe((1,), computational_basis()),
            "B_d": MeasurementRecipe((1,), diagonal_basis()),
        },
    )
    assert snap_to_rationals(realize(qr, hardy_scenario)) is None


def _random_table(rng, k: int, kind: str) -> list[float]:
    """k probabilities: fractions a/L, L <= 128, summing to 1, moved by
    up to 1e-9 ("near") or by about tol, just above or below it ("edge");
    with one fraction swapped for a nearby one of another denominator, so
    that they miss 1 ("off"); or random floats ("irrational")."""
    if kind == "irrational":
        w = rng.uniform(0.01, 1.0, k)
        return (w / w.sum()).tolist()
    L = int(rng.integers(1, 129))
    cuts = np.sort(rng.integers(0, L + 1, k - 1))
    fracs = [Fraction(int(a), L) for a in np.diff(np.concatenate(([0], cuts, [L])))]
    if kind == "off":
        r = int(rng.integers(1, 129))
        fracs[0] = Fraction(round(fracs[0] * r), r)
    out = []
    for f in fracs:
        if kind == "edge":
            delta = 1e-9 * float(rng.choice([1 - 2**-20, 1 + 2**-30, 1 + 2**-20, 1 + 1e-6]))
        else:
            delta = float(rng.uniform(0.0, 1e-9))
        # stay inside [0, 1]
        sign = -1 if f == 1 or (f != 0 and rng.random() < 0.5) else 1
        out.append(float(f) + sign * delta)
    return out


def test_snap_to_rationals_matches_limit_denominator():
    """Seeded random tables, one to three per model: the one-pass snap
    gives what one limit_denominator call per entry gives, None or the same
    exact tables in the same order."""
    rng = np.random.default_rng(1501)
    kinds = ("near", "edge", "off", "irrational")
    outcomes = {kind: [0, 0] for kind in kinds}
    for _ in range(600):
        ntables = int(rng.integers(1, 4))
        table_kinds = [str(rng.choice(kinds)) for _ in range(ntables)]
        observables = tuple(
            Observable(f"X{i}", tuple(str(j) for j in range(int(rng.integers(1, 6)))))
            for i in range(ntables)
        )
        sc = Scenario(observables, tuple((o.label,) for o in observables))
        tables = {}
        for o, kind in zip(observables, table_kinds):
            probs = _random_table(rng, len(o.outcomes), kind)
            # tol admits the "off" tables, whose floats miss 1 too
            tables[(o.label,)] = Distribution(
                {(v,): p for v, p in zip(o.outcomes, probs)}, tol=0.5
            )
        m = EmpiricalModel(sc, tables)
        got, want = snap_to_rationals(m), snap_to_rationals_limit_denominator(m)
        assert (got is None) == (want is None)
        if got is not None:
            for ctx in sc.contexts:
                assert list(got.tables[ctx].exact.items()) == list(
                    want.tables[ctx].exact.items()
                )
                assert got.tables[ctx].probs == want.tables[ctx].probs
        if ntables == 1:
            outcomes[table_kinds[0]][got is None] += 1
    assert outcomes["near"][0] > 20 and outcomes["irrational"][1] > 20
    assert min(outcomes["edge"]) > 10 and min(outcomes["off"]) > 5


def test_snap_to_rationals_needs_one_fraction_within_tol(hardy_model):
    """With 2 tol max_denominator**2 >= 1 two fractions can lie within tol
    of one probability, and the first is not always the closest."""
    for max_denominator, tol in ((128, 1 / (2 * 128**2)), (2**15, 1e-9), (2, 0.2)):
        with pytest.raises(ValueError, match="max_denominator"):
            snap_to_rationals(hardy_model, max_denominator, tol)
    assert snap_to_rationals(hardy_model, 128, 0.99 / (2 * 128**2)) is not None
    assert snap_to_rationals(hardy_model, 12, 1e-9) is not None


def test_empirical_model_requires_complete_tables(hardy_scenario):
    with pytest.raises(ValueError, match="missing table"):
        EmpiricalModel(hardy_scenario, {})


def test_snap_to_rationals_rebuilds_no_float_table(hardy_model, monkeypatch):
    """The exact tables ride on the float tables as they are, without
    rerunning Distribution's float checks; the one check that can still
    fail, each exact value against its float within EPS_NORM, fails with
    the constructor's message once tol admits a fraction farther off."""
    sc = Scenario((Observable("X", ("0", "1")),), (("X",),))
    table = Distribution({("0",): 0.5 + 1e-6, ("1",): 0.5 - 1e-6})
    m = EmpiricalModel(sc, {("X",): table})
    with pytest.raises(ValueError) as built:
        Distribution(dict(table.items()), {k: Fraction(1, 2) for k in table})
    with pytest.raises(ValueError) as snapped:
        snap_to_rationals(m, 2, 1e-5)
    assert str(snapped.value) == str(built.value)
    assert "disagrees" in str(built.value)
    assert snap_to_rationals(m, 2, 1e-6 / 2) is None
    calls = []
    check = Distribution.__post_init__
    monkeypatch.setattr(
        Distribution, "__post_init__", lambda d: calls.append(d) or check(d)
    )
    exact = snap_to_rationals(hardy_model)
    assert calls == []
    assert exact == snap_to_rationals_limit_denominator(hardy_model)
    for ctx, dist in exact.tables.items():
        assert dist.probs == hardy_model.tables[ctx].probs
        assert list(dist.exact) == list(dist.probs)
