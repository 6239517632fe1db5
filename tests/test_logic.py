"""Sections, classification, and Liar-cycle extraction."""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest

from contextuality.logic import (
    Classification,
    GlobalAssignment,
    ImplicationStep,
    LiarCycle,
    classify,
    count_global_sections,
    cycle_empirical_model,
    cycle_model,
    extends_to_global,
    global_sections,
    _default_seed,
    _LiarSearch,
    liar_cycles,
)
from contextuality.qstate import (
    StateVector,
    computational_basis,
    diagonal_basis,
)
from contextuality.scenario import (
    MeasurementRecipe,
    Observable,
    PossibilisticModel,
    QuantumRealization,
    Scenario,
    realize,
    support_of,
)

from liar_pins import (
    PINS,
    answers,
    candidates,
    cycle_json,
    pinned_models,
    random_support as _random_support,
)
from oracles import classification_bruteforce, covered_events, sections_bruteforce

# The Hardy support admits exactly these five sections; frozen from the
# brute-force oracle over all 16 assignments against the three forbidden
# pairs (A_d=-, B_c=0), (A_c=0, B_c=1), (A_c=1, B_d=-).
HARDY_SECTIONS = [
    ("0", "+", "0", "+"),
    ("0", "+", "0", "-"),
    ("1", "+", "0", "+"),
    ("1", "+", "1", "+"),
    ("1", "-", "1", "+"),
]


@pytest.fixture
def hardy_support(hardy_model):
    return support_of(hardy_model)


def test_oracle_agrees_with_frozen_sections(hardy_support):
    assert sections_bruteforce(hardy_support) == HARDY_SECTIONS


def test_global_sections_hardy(hardy_support):
    secs = global_sections(hardy_support)
    assert [s.values for s in secs] == HARDY_SECTIONS
    assert secs[0].labels == ("A_c", "A_d", "B_c", "B_d")


def test_global_sections_match_oracle_on_random_supports():
    rng = np.random.default_rng(31)
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(5))
    ctxs = (("X0", "X1"), ("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X4", "X0"))
    sc = Scenario(obs, ctxs)
    tuples = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    for _ in range(50):
        sups = {}
        for ctx in ctxs:
            mask = rng.integers(0, 2, size=4)
            chosen = frozenset(t for t, m in zip(tuples, mask) if m) or frozenset({tuples[0]})
            sups[ctx] = chosen
        p = PossibilisticModel(sc, sups)
        assert [s.values for s in global_sections(p)] == sections_bruteforce(p)


def test_memoized_search_matches_oracle_on_random_scenarios():
    """global_sections (list and order), count_global_sections, classify and
    extends_to_global against the brute-force oracle."""
    rng = random.Random(59)
    classes = set()
    for _ in range(300):
        p = _random_support(rng)
        want = sections_bruteforce(p)
        assert [s.values for s in global_sections(p)] == want
        assert count_global_sections(p) == len(want)
        cls = classify(p)
        assert cls.value == classification_bruteforce(p)
        classes.add(cls)
        covered = covered_events(p, want)
        for ctx in p.scenario.contexts:
            for t in p.supports[ctx]:
                assert extends_to_global(p, ctx, t) == (t in covered[ctx])
    assert classes == set(Classification)


def test_frontier_table_matches_oracle_with_one_outcome_observables_and_wide_contexts():
    """100 more draws, now with one-outcome observables and contexts of four
    observables, checked against the oracle like the draws above."""
    rng = random.Random(61)
    classes = set()
    outcome_counts, context_sizes = set(), set()
    for _ in range(100):
        p = _random_support(rng, min_outcomes=1, max_context=4)
        outcome_counts.update(len(o.outcomes) for o in p.scenario.observables)
        context_sizes.update(len(c) for c in p.scenario.contexts)
        want = sections_bruteforce(p)
        assert [s.values for s in global_sections(p)] == want
        assert count_global_sections(p) == len(want)
        cls = classify(p)
        assert cls.value == classification_bruteforce(p)
        classes.add(cls)
        covered = covered_events(p, want)
        for ctx in p.scenario.contexts:
            for t in p.supports[ctx]:
                assert extends_to_global(p, ctx, t) == (t in covered[ctx])
    assert classes == set(Classification)
    assert 1 in outcome_counts and 4 in context_sizes


def test_long_chain_needs_no_recursion():
    """1200 one-outcome observables linked by 1199 two-observable contexts:
    more positions than the interpreter's recursion limit allows frames."""
    n = 1200
    obs = tuple(Observable(f"X{i}", ("0",)) for i in range(n))
    ctxs = tuple((f"X{i}", f"X{i + 1}") for i in range(n - 1))
    p = PossibilisticModel(Scenario(obs, ctxs), {c: frozenset({("0", "0")}) for c in ctxs})
    assert count_global_sections(p) == 1
    assert classify(p) is Classification.GLOBALLY_EXTENDABLE
    assert len(global_sections(p)) == 1
    assert extends_to_global(p, ctxs[600], ("0", "0"))


def test_extends_to_global(hardy_support):
    assert extends_to_global(hardy_support, ("A_d", "B_d"), ("+", "+"))
    assert not extends_to_global(hardy_support, ("A_d", "B_d"), ("-", "-"))
    assert extends_to_global(hardy_support, ("A_d", "B_d"), ("+", "-"))
    assert extends_to_global(hardy_support, ("A_d", "B_d"), ("-", "+"))


def test_extends_rejects_impossible_seed(hardy_support):
    with pytest.raises(ValueError, match="not possible"):
        extends_to_global(hardy_support, ("A_d", "B_c"), ("-", "0"))


def test_classify_hardy(hardy_support):
    assert classify(hardy_support) is Classification.LOGICALLY_CONTEXTUAL


def test_classify_product_state(hardy_scenario):
    state = StateVector((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    qr = QuantumRealization(
        state,
        {
            "A_c": MeasurementRecipe((0,), computational_basis()),
            "A_d": MeasurementRecipe((0,), diagonal_basis()),
            "B_c": MeasurementRecipe((1,), computational_basis()),
            "B_d": MeasurementRecipe((1,), diagonal_basis()),
        },
    )
    p = support_of(realize(qr, hardy_scenario))
    assert classify(p) is Classification.GLOBALLY_EXTENDABLE


# ------------------------------------------------------------ cycle models


def test_cycle_model_shapes():
    p = cycle_model(4, "odd")
    assert p.scenario.contexts == (
        ("S1", "S2"), ("S2", "S3"), ("S3", "S4"), ("S4", "S1")
    )
    assert p.supports[("S1", "S2")] == frozenset({("0", "0"), ("1", "1")})
    assert p.supports[("S4", "S1")] == frozenset({("0", "1"), ("1", "0")})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_odd_cycles_have_no_sections(n):
    p = cycle_model(n, "odd")
    assert sections_bruteforce(p) == []
    assert global_sections(p) == []
    assert classify(p) is Classification.STRONGLY_CONTEXTUAL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_even_cycles_have_two_sections(n):
    p = cycle_model(n, "even")
    secs = global_sections(p)
    assert [s.values for s in secs] == [("0",) * n, ("1",) * n]
    assert classify(p) is Classification.GLOBALLY_EXTENDABLE


def test_cycle_model_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 3"):
        cycle_model(2, "odd")


def test_cycle_empirical_model_tables():
    m = cycle_empirical_model(3, "odd")
    assert m.table(("S1", "S2"))[("0", "0")] == 0.5
    assert m.table(("S3", "S1"))[("0", "0")] == 0.0
    assert m.exact_available


# ------------------------------------------------------------- Liar cycles


def test_hardy_liar_cycle_exact_chain(hardy_support):
    cycle = liar_cycles(hardy_support, (("A_d", "B_d"), ("-", "-")))
    assert cycle is not None
    assert cycle.steps == (
        ImplicationStep(("A_d", "B_c"), ("A_d", "-"), ("B_c", "1")),
        ImplicationStep(("A_c", "B_c"), ("B_c", "1"), ("A_c", "1")),
        ImplicationStep(("A_c", "B_d"), ("A_c", "1"), ("B_d", "+")),
    )
    assert cycle.contradiction == ("B_d", "-", "+")
    assert cycle.verify(hardy_support)


def test_hardy_extendable_seed_has_no_cycle(hardy_support):
    assert liar_cycles(hardy_support, (("A_d", "B_d"), ("+", "+"))) is None
    assert liar_cycles(hardy_support, (("A_d", "B_d"), ("+", "-"))) is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_odd_cycle_liar_chain_closes_on_seed(n):
    p = cycle_model(n, "odd")
    cycle = liar_cycles(p, (("S1", "S2"), ("0", "0")))
    assert cycle is not None
    assert len(cycle.steps) == n - 1
    assert cycle.contradiction[0] in ("S1", "S2")
    assert cycle.verify(p)


@pytest.mark.parametrize("n", [200, 1000])
def test_odd_cycle_liar_chain_at_scale(n):
    """The path test reads one bit of the node's path mask instead of
    walking the chain back to the seed."""
    p = cycle_model(n, "odd")
    cycle = liar_cycles(p, (("S1", "S2"), ("0", "0")))
    assert cycle is not None
    assert len(cycle.steps) == n - 1
    assert cycle.verify(p)


@pytest.mark.parametrize("n", [3, 8, 33, 200])
def test_liar_chain_closes_on_a_node_far_up_its_own_path(n):
    """A one-observable seed X = 0 leads into an odd n-cycle through S1 = 0;
    the chain around the cycle forces S1 = 1, which clashes with the S1 = 0
    n levels up its own path, neither a seed value nor on a path of another
    seed node, so only the ancestor test can find it."""
    cycle = cycle_model(n, "odd")
    sc = Scenario(
        (Observable("X", ("0", "1")),) + cycle.scenario.observables,
        (("X",), ("X", "S1")) + cycle.scenario.contexts,
    )
    supports = dict(cycle.supports)
    supports[("X",)] = frozenset({("0",), ("1",)})
    supports[("X", "S1")] = frozenset({("0", "0"), ("1", "1")})
    p = PossibilisticModel(sc, supports)
    found = liar_cycles(p, (("X",), ("0",)))
    assert found is not None
    assert len(found.steps) == n + 1
    assert found.contradiction == ("S1", "0", "1")
    assert found.verify(p)


def test_even_cycle_has_no_liar_chain():
    p = cycle_model(4, "even")
    assert liar_cycles(p, (("S1", "S2"), ("0", "0"))) is None


def test_liar_seed_must_be_possible(hardy_support):
    with pytest.raises(ValueError, match="not possible"):
        liar_cycles(hardy_support, (("A_c", "B_c"), ("0", "1")))


def test_liar_cycles_cross_validates_with_extension_on_builtins(hardy_support):
    """On every built-in support, chain found iff the seed fails to extend."""
    models = [hardy_support]
    models += [cycle_model(n, par) for n in (3, 4, 5) for par in ("odd", "even")]
    for p in models:
        for ctx in p.scenario.contexts:
            for t in sorted(p.supports[ctx]):
                cycle = liar_cycles(p, (ctx, t))
                extends = extends_to_global(p, ctx, t)
                assert (cycle is None) == extends, (ctx, t)
                if cycle is not None:
                    assert cycle.verify(p)


def test_liar_cycles_cross_validates_on_random_quantum_supports(hardy_scenario):
    """Randomized no-disturbance supports from two-qubit realizations: the
    equivalence between chain extraction and non-extendability holds."""
    rng = np.random.default_rng(41)
    for _ in range(30):
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
        p = support_of(realize(qr, hardy_scenario))
        for ctx in p.scenario.contexts:
            for t in sorted(p.supports[ctx]):
                cycle = liar_cycles(p, (ctx, t))
                assert (cycle is None) == extends_to_global(p, ctx, t)


def test_liar_cycles_sound_on_arbitrary_random_supports():
    """Unconstrained random supports can hide obstructions no implication
    chain from the seed reaches, so only soundness is asserted here: a
    returned chain always certifies non-extendability."""
    rng = np.random.default_rng(43)
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(4))
    ctxs = (("X0", "X1"), ("X1", "X2"), ("X2", "X3"), ("X3", "X0"))
    sc = Scenario(obs, ctxs)
    tuples = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    for _ in range(60):
        sups = {}
        for ctx in ctxs:
            mask = rng.integers(0, 2, size=4)
            chosen = frozenset(t for t, m in zip(tuples, mask) if m) or frozenset({tuples[3]})
            sups[ctx] = chosen
        p = PossibilisticModel(sc, sups)
        for ctx in ctxs:
            for t in sorted(p.supports[ctx]):
                cycle = liar_cycles(p, (ctx, t))
                if cycle is not None:
                    assert cycle.verify(p)
                    assert not extends_to_global(p, ctx, t)


def test_verify_rejects_a_first_premise_that_is_not_a_seed_value():
    """S1=1 => S2=1 holds in the odd 3-cycle and ends on a value clashing with
    the seed S2=0, but S1=1 is not the seed's S1=0, so nothing links the
    chain to the seed."""
    p = cycle_model(3, "odd")
    forged = LiarCycle(
        (("S1", "S2"), ("0", "0")),
        (ImplicationStep(("S1", "S2"), ("S1", "1"), ("S2", "1")),),
        ("S2", "0", "1"),
    )
    assert forged.steps[0].holds_in(p)
    assert not forged.verify(p)
    real = liar_cycles(p, (("S1", "S2"), ("0", "0")))
    assert real.verify(p)


def test_liar_search_answers_are_pinned():
    """liar_cycles for every possible event and the default-seed scan, on
    400 random supports and full-support, odd and Hardy-like cycles up to
    n = 24, against the answers pinned in liar_cycles.json; the scan is the
    first event, in declared order, whose liar_cycles is not None, and every
    cycle found passes verify."""
    pinned = json.loads(PINS.read_text())
    models = dict(pinned_models())
    assert set(models) == set(pinned)
    for key, p in models.items():
        assert answers(p) == pinned[key], key
        cycles = [liar_cycles(p, e) for e in candidates(p)]
        assert all(c.verify(p) for c in cycles if c is not None), key
        first = next((c for c in cycles if c is not None), None)
        assert _default_seed(p) == first, key
        assert cycle_json(first) == pinned[key]["default"], key


def test_default_seed_searches_past_a_conflicting_closure(monkeypatch):
    """(A, B) = (0, 0) forces X = 0 through A and X = 1 through B: its
    closure holds a conflict, but no single chain reaches it, so its search
    finds nothing. (A, B) = (1, 1) forces nothing and is skipped unsearched,
    (2, 2) is searched and again finds nothing, and the fourth candidate
    (A, X) = (0, 0) closes A=0 => B=0 => X=1 against the seed."""
    obs = (
        Observable("A", ("0", "1", "2")),
        Observable("B", ("0", "1", "2")),
        Observable("X", ("0", "1")),
    )
    sc = Scenario(obs, (("A", "B"), ("A", "X"), ("B", "X")))
    p = PossibilisticModel(
        sc,
        {
            ("A", "B"): frozenset({("0", "0"), ("1", "1"), ("2", "2")}),
            ("A", "X"): frozenset({("0", "0"), ("1", "0"), ("1", "1"), ("2", "1")}),
            ("B", "X"): frozenset({("0", "1"), ("1", "1"), ("1", "0"), ("2", "0")}),
        },
    )
    seeds = []
    run = _LiarSearch.run

    def counted(self, seed):
        seeds.append(seed)
        return run(self, seed)

    monkeypatch.setattr(_LiarSearch, "run", counted)
    cycle = _default_seed(p)
    assert seeds == [
        (("A", "B"), ("0", "0")),
        (("A", "B"), ("2", "2")),
        (("A", "X"), ("0", "0")),
    ]
    assert cycle.seed == seeds[-1]
    assert liar_cycles(p, seeds[0]) is None
    assert not extends_to_global(p, *seeds[0])
    assert cycle.steps == (
        ImplicationStep(("A", "B"), ("A", "0"), ("B", "0")),
        ImplicationStep(("B", "X"), ("B", "0"), ("X", "1")),
    )
    assert cycle.contradiction == ("X", "0", "1")
    assert cycle.verify(p)


def test_classification_never_weakens_when_support_shrinks():
    """Dropping tuples from supports can only move a model up the hierarchy
    (toward strong contextuality), never down."""
    order = {
        Classification.GLOBALLY_EXTENDABLE: 0,
        Classification.LOGICALLY_CONTEXTUAL: 1,
        Classification.STRONGLY_CONTEXTUAL: 2,
    }
    rng = np.random.default_rng(47)
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(3))
    ctxs = (("X0", "X1"), ("X1", "X2"), ("X2", "X0"))
    sc = Scenario(obs, ctxs)
    tuples = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    for _ in range(40):
        sups = {
            ctx: frozenset(
                t for t, m in zip(tuples, rng.integers(0, 2, size=4)) if m
            )
            or frozenset(tuples)
            for ctx in ctxs
        }
        p = PossibilisticModel(sc, sups)
        before = order[classify(p)]
        # shrink one context's support by one tuple, if possible
        target = ctxs[int(rng.integers(0, 3))]
        if len(sups[target]) > 1:
            smaller = dict(sups)
            smaller[target] = frozenset(sorted(sups[target])[1:])
            after = order[classify(PossibilisticModel(sc, smaller))]
            assert after >= before


def test_guard_rejects_huge_scenarios():
    obs = tuple(
        Observable(f"X{i}", tuple(str(k) for k in range(4))) for i in range(13)
    )
    ctxs = tuple((f"X{i}",) for i in range(13))
    sc = Scenario(obs, ctxs)
    sups = {c: frozenset({(o,) for o in ("0", "1", "2", "3")}) for c in ctxs}
    p = PossibilisticModel(sc, sups)
    for call in (
        global_sections,
        count_global_sections,
        classify,
        lambda q: extends_to_global(q, ("X0",), ("0",)),
    ):
        with pytest.raises(ValueError, match="guard"):
            call(p)