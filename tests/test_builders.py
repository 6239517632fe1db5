"""Built-in realizations, friendification, sentence extraction."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from contextuality.builders import (
    CertainImplication,
    ProbabilityStatement,
    certain_implications,
    fr_realization,
    friendify,
)
from contextuality.builders import hardy_realization as build_hardy
from contextuality.qstate import (
    SiteBasis,
    StateVector,
    computational_basis,
    diagonal_basis,
)
from contextuality.scenario import (
    Distribution,
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
    realize,
)

from conftest import random_table_model
from oracles import certain_implications_nested_sum

HARDY_LABEL_MAP = {
    "A_c": "A_obs",
    "A_d": "A_meta",
    "B_c": "B_obs",
    "B_d": "B_meta",
}

HARDY_IMPLICATIONS = [
    CertainImplication(("A_d", "B_c"), ("A_d", "-"), ("B_c", "1")),
    CertainImplication(("A_d", "B_c"), ("B_c", "0"), ("A_d", "+")),
    CertainImplication(("A_c", "B_c"), ("A_c", "0"), ("B_c", "0")),
    CertainImplication(("A_c", "B_c"), ("B_c", "1"), ("A_c", "1")),
    CertainImplication(("A_c", "B_d"), ("A_c", "1"), ("B_d", "+")),
    CertainImplication(("A_c", "B_d"), ("B_d", "-"), ("A_c", "0")),
]


def test_hardy_realization_state_and_layout(hardy_model):
    qr, sc = build_hardy()
    expected = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0)
    assert qr.state.sites == (2, 2)
    assert np.allclose(qr.state.amplitudes, expected)
    assert sc.contexts == (
        ("A_d", "B_c"),
        ("A_c", "B_c"),
        ("A_c", "B_d"),
        ("A_d", "B_d"),
    )
    m = realize(qr, sc)
    # agrees with the independently constructed fixture model
    for ctx in sc.contexts:
        for tup, p in m.tables[ctx].items():
            assert p == pytest.approx(hardy_model.tables[ctx][tup], abs=1e-12)


def test_friendify_hardy_layout():
    fr = fr_realization()
    assert fr.label_map == HARDY_LABEL_MAP
    assert fr.realization.state.sites == (2, 2, 2, 2)
    assert fr.scenario.contexts == (
        ("A_meta", "B_obs"),
        ("A_obs", "B_obs"),
        ("A_obs", "B_meta"),
        ("A_meta", "B_meta"),
    )
    a_obs = fr.scenario.observable("A_obs")
    assert a_obs.outcomes == ("0", "1", "inc0", "inc1")
    a_meta = fr.scenario.observable("A_meta")
    assert a_meta.outcomes == ("+", "-", "inc+", "inc-")
    assert fr.realization.recipes["A_obs"].sites == (0, 2)
    assert fr.realization.recipes["B_meta"].sites == (1, 3)


def test_friendify_hardy_meta_meta_table():
    fr = fr_realization()
    m = realize(fr.realization, fr.scenario)
    table = m.tables[("A_meta", "B_meta")]
    expected = {
        ("+", "+"): 9 / 12,
        ("+", "-"): 1 / 12,
        ("-", "+"): 1 / 12,
        ("-", "-"): 1 / 12,
    }
    for tup, p in expected.items():
        assert table[tup] == pytest.approx(p, abs=1e-9)
    inconsistent = [
        p
        for tup, p in table.items()
        if any(v.startswith("inc") for v in tup)
    ]
    assert all(p <= 1e-12 for p in inconsistent)


def test_friendify_hardy_observer_observer_table():
    fr = fr_realization()
    m = realize(fr.realization, fr.scenario)
    table = m.tables[("A_obs", "B_obs")]
    assert table[("0", "0")] == pytest.approx(1 / 3, abs=1e-9)
    assert table[("1", "0")] == pytest.approx(1 / 3, abs=1e-9)
    assert table[("1", "1")] == pytest.approx(1 / 3, abs=1e-9)
    assert table[("0", "1")] == pytest.approx(0.0, abs=1e-12)


def test_friendify_preserves_empirical_content(hardy_model):
    fr = fr_realization()
    m = realize(fr.realization, fr.scenario)
    for old_ctx in hardy_model.scenario.contexts:
        new_ctx = tuple(HARDY_LABEL_MAP[l] for l in old_ctx)
        new_table = m.tables[new_ctx]
        inconsistent_total = 0.0
        for tup, p in new_table.items():
            if any(v.startswith("inc") for v in tup):
                inconsistent_total += p
            else:
                assert p == pytest.approx(
                    hardy_model.tables[old_ctx][tup], abs=1e-9
                )
        assert inconsistent_total <= 1e-12


def test_friendify_eigenstate_is_deterministic():
    qr = QuantumRealization(
        StateVector((2,), np.array([1.0, 0.0])),
        {"X_c": MeasurementRecipe((0,), computational_basis())},
    )
    sc = Scenario((Observable("X_c", ("0", "1")),), (("X_c",),))
    fr = friendify(qr, sc)
    assert fr.label_map == {"X_c": "X_obs"}
    m = realize(fr.realization, fr.scenario)
    table = m.tables[("X_obs",)]
    assert table[("0",)] == pytest.approx(1.0, abs=1e-12)
    assert all(
        p <= 1e-12 for tup, p in table.items() if tup != ("0",)
    )


def test_friendify_rejects_non_qubit_measured_site():
    amp = np.zeros(3)
    amp[0] = 1.0
    qr = QuantumRealization(
        StateVector((3,), amp),
        {
            "X": MeasurementRecipe(
                (0,), SiteBasis(tuple(map(tuple, np.eye(3))), ("a", "b", "c"))
            )
        },
    )
    sc = Scenario((Observable("X", ("a", "b", "c")),), (("X",),))
    with pytest.raises(ValueError, match="qubit"):
        friendify(qr, sc)


def test_friendify_allows_unmeasured_non_qubit_site():
    amp = np.zeros(6)
    amp[0] = 1.0
    qr = QuantumRealization(
        StateVector((2, 3), amp.reshape(-1)),
        {"X_c": MeasurementRecipe((0,), computational_basis())},
    )
    sc = Scenario((Observable("X_c", ("0", "1")),), (("X_c",),))
    fr = friendify(qr, sc)
    assert fr.realization.state.sites == (2, 3, 2)


def test_friendify_rejects_multi_site_observables():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    qr = QuantumRealization(
        StateVector((2, 2), bell),
        {
            "P": MeasurementRecipe(
                (0, 1),
                SiteBasis(tuple(map(tuple, np.eye(4))), ("a", "b", "c", "d")),
            )
        },
    )
    sc = Scenario((Observable("P", ("a", "b", "c", "d")),), (("P",),))
    with pytest.raises(ValueError, match="single-site"):
        friendify(qr, sc)


def _random_qubit_basis(rng, labels):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(z)
    return SiteBasis(tuple(map(tuple, q.T)), labels)


def test_friendify_random_realizations_confine_and_preserve():
    rng = np.random.default_rng(31)
    for _ in range(20):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        qr = QuantumRealization(
            StateVector((2, 2), amp),
            {
                "X": MeasurementRecipe((0,), _random_qubit_basis(rng, ("a", "b"))),
                "Y": MeasurementRecipe((1,), _random_qubit_basis(rng, ("c", "d"))),
            },
        )
        sc = Scenario(
            (Observable("X", ("a", "b")), Observable("Y", ("c", "d"))),
            (("X", "Y"),),
        )
        fr = friendify(qr, sc)
        old = realize(qr, sc)
        new = realize(fr.realization, fr.scenario)
        new_ctx = fr.scenario.contexts[0]
        old_ctx = sc.contexts[0]
        inconsistent_total = 0.0
        for tup, p in new.tables[new_ctx].items():
            if any(v.startswith("inc") for v in tup):
                inconsistent_total += p
            else:
                assert p == pytest.approx(
                    old.tables[old_ctx][tup], abs=1e-9
                )
        assert inconsistent_total <= 1e-12


def test_certain_implications_hardy_list(hardy_model):
    assert certain_implications(hardy_model) == HARDY_IMPLICATIONS
    for s in HARDY_IMPLICATIONS:
        assert s.holds_in(hardy_model)


def test_certain_implications_friendified_match_hardy_sentences(hardy_model):
    fr = fr_realization()
    m = realize(fr.realization, fr.scenario)
    renamed = [
        CertainImplication(
            tuple(HARDY_LABEL_MAP[l] for l in s.context),
            (HARDY_LABEL_MAP[s.premise[0]], s.premise[1]),
            (HARDY_LABEL_MAP[s.conclusion[0]], s.conclusion[1]),
        )
        for s in certain_implications(hardy_model)
    ]
    assert certain_implications(m) == renamed
    fr1 = CertainImplication(
        ("A_meta", "B_obs"), ("A_meta", "-"), ("B_obs", "1")
    )
    fr2 = CertainImplication(
        ("A_obs", "B_obs"), ("B_obs", "1"), ("A_obs", "1")
    )
    fr3 = CertainImplication(
        ("A_obs", "B_meta"), ("A_obs", "1"), ("B_meta", "+")
    )
    for s in (fr1, fr2, fr3):
        assert s in renamed
        assert s.holds_in(m)


def test_certain_implications_full_support_is_empty():
    sc = Scenario(
        (Observable("X", ("0", "1")), Observable("Y", ("0", "1"))),
        (("X", "Y"),),
    )
    m = EmpiricalModel(
        sc,
        {
            ("X", "Y"): Distribution(
                {("0", "0"): 0.25, ("0", "1"): 0.25,
                 ("1", "0"): 0.25, ("1", "1"): 0.25}
            )
        },
    )
    assert certain_implications(m) == []


def test_certain_implications_stable_under_row_reordering(hardy_model):
    sc = hardy_model.scenario
    tables = {}
    for ctx in reversed(sc.contexts):
        rows = list(hardy_model.tables[ctx].items())
        tables[ctx] = Distribution(dict(reversed(rows)))
    shuffled = EmpiricalModel(sc, tables)
    assert certain_implications(shuffled) == certain_implications(hardy_model)


def test_probability_statement_queries(hardy_model):
    dd = ("A_d", "B_d")
    by_context = certain_implications(hardy_model, queries=[dd])[-1]
    assert by_context == ProbabilityStatement(
        dd, ("+", "-"), hardy_model.tables[dd][("+", "-")]
    )
    assert by_context.probability == pytest.approx(1 / 12, abs=1e-9)

    explicit = certain_implications(
        hardy_model, queries=[(dd, ("-", "-"))]
    )[-1]
    assert explicit.event == ("-", "-")
    assert explicit.probability == pytest.approx(1 / 12, abs=1e-9)
    assert explicit.holds_in(hardy_model)
    assert not ProbabilityStatement(dd, ("-", "-"), 0.5).holds_in(hardy_model)


def test_sentences_expose_kind(hardy_model):
    sentences = certain_implications(
        hardy_model, queries=[(("A_d", "B_d"), ("-", "-"))]
    )
    kinds = {s.kind for s in sentences}
    assert kinds == {"CertainImplication", "ProbabilityStatement"}
    assert not CertainImplication(
        ("A_c", "B_c"), ("A_c", "1"), ("B_c", "1")
    ).holds_in(hardy_model)


def _conditional_mass(m, s: CertainImplication) -> float:
    table = m.tables[s.context]
    pi = s.context.index(s.premise[0])
    ci = s.context.index(s.conclusion[0])
    base = sum(p for t, p in table.items() if t[pi] == s.premise[1])
    joint = sum(
        p for t, p in table.items()
        if t[pi] == s.premise[1] and t[ci] == s.conclusion[1]
    )
    return joint / base


def test_certain_implications_match_the_nested_sum_oracle():
    """The one-sweep extraction against the row-by-row reference on random
    float tables, near-certain implications included: every sentence and its
    order agree, and some sentences hold with a conditional mass just under
    1 while others miss the 1e-9 tolerance by little."""
    rng = random.Random(1406)
    leaky = near_misses = 0
    for _ in range(400):
        m = random_table_model(rng)
        want = certain_implications_nested_sum(m)
        assert certain_implications(m) == want
        leaky += sum(_conditional_mass(m, s) < 1.0 for s in want)
        for ctx in m.scenario.contexts:
            for premise in ctx:
                for conclusion in ctx:
                    if premise == conclusion:
                        continue
                    for va in m.scenario.observable(premise).outcomes:
                        for vb in m.scenario.observable(conclusion).outcomes:
                            s = CertainImplication(ctx, (premise, va), (conclusion, vb))
                            if s in want:
                                continue
                            try:
                                mass = _conditional_mass(m, s)
                            except ZeroDivisionError:
                                continue
                            near_misses += 1 - 1e-8 <= mass < 1 - 1e-9
    assert leaky >= 100
    assert near_misses >= 100
