"""Observer chains, cut comparison, claim propagation."""

from __future__ import annotations

import itertools
import math
from importlib import resources

import numpy as np
import pytest

from contextuality import metacontext
from contextuality.builders import (
    CertainImplication,
    ProbabilityStatement,
    certain_implications,
)
from contextuality.logic import _default_seed
from contextuality.metacontext import (
    Agent,
    AssumptionSet,
    BranchEnsemble,
    Claim,
    Cut,
    ObserverChain,
    check_claims,
    claims_for_cycle,
    coherent_final_basis,
    compare_cuts,
    computational_final_basis,
    describe,
    fr_claim_set,
    mixture_born,
    observer_claims,
)
from contextuality.qstate import (
    ProductBasis,
    SiteBasis,
    StateVector,
    computational_basis,
    diagonal_basis,
)
from contextuality.report import _work_model
from contextuality.scenario import realize, support_of
from contextuality.scnformat import parse_file

S2 = 1.0 / math.sqrt(2.0)


def plus_chain():
    return ObserverChain(
        StateVector((2,), np.array([S2, S2])),
        (Agent("F", computational_basis()),),
    )


def zero_chain():
    return ObserverChain(
        StateVector((2,), np.array([1.0, 0.0])),
        (Agent("F", computational_basis()),),
    )


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    return q


def _random_chain(rng, n_agents):
    """Chain whose agents measure the base in a random basis while reading
    earlier memories computationally (product bases, so every later
    memory-computational measurement is diagonal in them)."""
    amp = rng.normal(size=2) + 1j * rng.normal(size=2)
    amp /= np.linalg.norm(amp)
    base = StateVector((2,), amp)
    agents = []
    mem_dim = 1
    for i in range(n_agents):
        u = _random_unitary(rng, 2)
        vectors = np.kron(u.T, np.eye(mem_dim))
        labels = tuple(f"a{i}x{j}" for j in range(2 * mem_dim))
        agents.append(Agent(f"F{i}", SiteBasis(vectors, labels)))
        mem_dim *= 2 * mem_dim
    return ObserverChain(base, tuple(agents))


# -------------------------------------------------------------- describe


def test_chain_validation():
    with pytest.raises(ValueError, match="at least one agent"):
        ObserverChain(StateVector((2,), np.array([1.0, 0.0])), ())
    with pytest.raises(ValueError, match="dimension"):
        ObserverChain(
            StateVector((2,), np.array([1.0, 0.0])),
            (Agent("F", computational_basis(4)),),
        )
    with pytest.raises(ValueError, match="duplicate"):
        ObserverChain(
            StateVector((2,), np.array([1.0, 0.0])),
            (
                Agent("F", computational_basis()),
                Agent("F", computational_basis(4)),
            ),
        )
    with pytest.raises(ValueError, match="cut"):
        describe(plus_chain(), Cut(2))
    with pytest.raises(ValueError, match=">= 0"):
        Cut(-1)


def test_describe_plus_chain_projected():
    ens = describe(plus_chain(), Cut(0))
    assert len(ens.branches) == 2
    (p0, s0), (p1, s1) = ens.branches
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    assert s0.sites == (2, 2)
    assert np.allclose(s0.amplitudes, [1, 0, 0, 0])
    assert np.allclose(s1.amplitudes, [0, 0, 0, 1])


def test_describe_plus_chain_unitary():
    ens = describe(plus_chain(), Cut(1))
    assert len(ens.branches) == 1
    p, s = ens.branches[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(s.amplitudes, [S2, 0, 0, S2])


def test_describe_eigenstate_single_effective_branch():
    for cut in (0, 1):
        ens = describe(zero_chain(), cut)
        assert len(ens.branches) == 1
        p, s = ens.branches[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(s.amplitudes, [1, 0, 0, 0])


def test_describe_two_agents_branch_counts():
    chain = ObserverChain(
        StateVector((2,), np.array([S2, S2])),
        (
            Agent("F", computational_basis()),
            Agent("W", computational_basis(4)),
        ),
    )
    assert len(describe(chain, 2).branches) == 1
    assert len(describe(chain, 1).branches) == 2
    # F projects into 2 branches, W's 4-outcome projection keeps one
    # nonzero outcome per branch
    ens = describe(chain, 0)
    assert len(ens.branches) == 2
    assert ens.sites == (2, 2, 4)
    assert sum(p for p, _ in ens.branches) == pytest.approx(1.0, abs=1e-9)


def test_describe_diagonal_agent_splits_evenly():
    chain = ObserverChain(
        StateVector((2,), np.array([1.0, 0.0])),
        (Agent("F", diagonal_basis()),),
    )
    ens = describe(chain, 0)
    assert len(ens.branches) == 2
    for p, _ in ens.branches:
        assert p == pytest.approx(0.5, abs=1e-12)


def test_branch_ensemble_validation():
    s = StateVector((2,), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="sum"):
        BranchEnsemble(((0.5, s),))
    with pytest.raises(ValueError, match="negative"):
        BranchEnsemble(((-0.5, s), (1.5, s)))
    with pytest.raises(ValueError, match="empty"):
        BranchEnsemble(())
    t = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="sites"):
        BranchEnsemble(((0.5, s), (0.5, t)))


# ---------------------------------------------------------- compare_cuts


def test_compare_cuts_coherent_family():
    chain = plus_chain()
    fb = coherent_final_basis(chain)
    da, db, tv = compare_cuts(chain, Cut(0), Cut(1), fb)
    assert db[("coherent",)] == pytest.approx(1.0, abs=1e-9)
    assert da[("coherent",)] == pytest.approx(0.5, abs=1e-9)
    assert tv == pytest.approx(0.5, abs=1e-9)


def test_coherent_basis_vectors_for_plus_chain():
    fb = coherent_final_basis(plus_chain())
    (group, basis), = fb.factors
    assert group == (0, 1)
    assert basis.labels == ("coherent", "orth1", "orth2", "orth3")
    assert np.allclose(basis.vectors[0], [S2, 0, 0, S2])
    assert np.allclose(basis.vectors[1], [S2, 0, 0, -S2])
    assert np.allclose(basis.vectors[2], [0, 1, 0, 0])
    assert np.allclose(basis.vectors[3], [0, 0, 1, 0])


def test_compare_cuts_memory_diagonal_is_cut_blind():
    chain = plus_chain()
    fb = computational_final_basis(chain)
    da, db, tv = compare_cuts(chain, 0, 1, fb)
    assert tv == pytest.approx(0.0, abs=1e-12)
    assert da[("0", "0")] == pytest.approx(0.5, abs=1e-9)
    assert da[("1", "1")] == pytest.approx(0.5, abs=1e-9)
    assert da[("0", "1")] == pytest.approx(0.0, abs=1e-12)


def test_compare_cuts_eigenstate_blind_everywhere():
    chain = zero_chain()
    for fb in (computational_final_basis(chain), coherent_final_basis(chain)):
        _, _, tv = compare_cuts(chain, 0, 1, fb)
        assert tv == pytest.approx(0.0, abs=1e-12)


def test_randomized_chains_memory_diagonal_tv_zero():
    rng = np.random.default_rng(47)
    for n_agents in (1, 2, 3):
        for _ in range(6 // n_agents):
            chain = _random_chain(rng, n_agents)
            fb = computational_final_basis(chain)
            cuts = range(n_agents + 1)
            for a, b in itertools.combinations(cuts, 2):
                _, _, tv = compare_cuts(chain, a, b, fb)
                assert tv <= 1e-9


def test_random_base_factor_still_cut_blind():
    # any final basis on the base site is fine as long as the memory
    # factors stay computational
    rng = np.random.default_rng(53)
    chain = _random_chain(rng, 2)
    u = _random_unitary(rng, 2)
    factors = [((0,), SiteBasis(u.T, ("u0", "u1")))]
    for k, agent in enumerate(chain.agents):
        factors.append(((1 + k,), computational_basis(agent.basis.n_outcomes)))
    fb = ProductBasis(tuple(factors))
    _, _, tv = compare_cuts(chain, 0, 2, fb)
    assert tv <= 1e-9


def test_entangled_meta_agent_records_depend_on_the_cut():
    # when the outer agent measures the friend-system compound in an
    # entangled basis, its record is no longer cut-blind
    meta = SiteBasis(
        np.array(
            [
                [S2, 0, 0, S2],
                [S2, 0, 0, -S2],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
            ]
        ),
        ("agree+", "agree-", "mix01", "mix10"),
    )
    chain = ObserverChain(
        StateVector((2,), np.array([S2, S2])),
        (Agent("F", computational_basis()), Agent("W", meta)),
    )
    fb = computational_final_basis(chain)
    _, _, tv = compare_cuts(chain, 0, 2, fb)
    assert tv > 0.1
    ens_unitary = describe(chain, 1)
    assert len(ens_unitary.branches) == 1
    assert ens_unitary.branches[0][1].amplitudes[
        np.ravel_multi_index((0, 0, 0), (2, 2, 4))
    ] == pytest.approx(S2, abs=1e-9)


def test_mixture_born_weights():
    ens = describe(plus_chain(), 0)
    fb = computational_final_basis(plus_chain())
    d = mixture_born(ens, fb)
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------- claims


def test_assumption_set_parse_and_label():
    a = AssumptionSet.parse("Q,NMC,NC,S")
    assert (a.Q, a.NMC, a.NC, a.S) == (True, True, True, True)
    assert a.label() == "Q,NMC,NC,S"
    assert AssumptionSet.parse("").label() == "none"
    assert AssumptionSet.parse("Q, S").label() == "Q,S"
    with pytest.raises(ValueError, match="unknown assumption"):
        AssumptionSet.parse("Q,XYZ")


def test_claim_visibility_validation():
    imp = CertainImplication(("A", "B"), ("A", "0"), ("B", "1"))
    with pytest.raises(ValueError, match="outside its"):
        Claim("F_A", ("A", "C"), imp)
    Claim("F_A", ("A", "B"), imp)  # fine


def test_fr_claim_set_shape():
    claims, seed, m = fr_claim_set()
    assert seed == (("A_meta", "B_meta"), ("-", "-"))
    assert len(claims) == 4
    props = [c.proposition for c in claims]
    assert props[0] == CertainImplication(
        ("A_meta", "B_obs"), ("A_meta", "-"), ("B_obs", "1")
    )
    assert props[1] == CertainImplication(
        ("A_obs", "B_obs"), ("B_obs", "1"), ("A_obs", "1")
    )
    assert props[2] == CertainImplication(
        ("A_obs", "B_meta"), ("A_obs", "1"), ("B_meta", "+")
    )
    assert isinstance(props[3], ProbabilityStatement)
    assert props[3].event == ("-", "-")
    assert [c.agent for c in claims] == ["W_A", "F_B", "F_A", "W_A"]
    assert m.tables[seed[0]][seed[1]] == pytest.approx(1 / 12, abs=1e-9)


def test_fr_contradiction_under_full_assumptions():
    claims, seed, _ = fr_claim_set()
    v = check_claims(claims, AssumptionSet.parse("Q,NMC,NC,S"), seed)
    assert v.outcome == "Contradiction"
    assert [s.claim.proposition for s in v.trace] == [
        c.proposition for c in claims[:3]
    ]
    assert [(s.observable, s.value) for s in v.trace] == [
        ("B_obs", "1"),
        ("A_obs", "1"),
        ("B_meta", "+"),
    ]
    assert v.conflict == ("B_meta", "-", "+")


def test_fr_consistent_without_nmc():
    claims, seed, _ = fr_claim_set()
    v = check_claims(claims, AssumptionSet.parse("Q,NC,S"), seed)
    assert v.outcome == "Consistent"
    assert v.trace == ()


def test_fr_consistent_without_nc_stops_after_one_step():
    claims, seed, _ = fr_claim_set()
    v = check_claims(claims, AssumptionSet.parse("Q,NMC,S"), seed)
    assert v.outcome == "Consistent"
    assert len(v.trace) == 1
    assert v.trace[0].observable == "B_obs"
    assert v.trace[0].value == "1"


def test_fr_all_sixteen_assumption_combinations():
    claims, seed, _ = fr_claim_set()
    for bits in itertools.product((False, True), repeat=4):
        a = AssumptionSet(*bits)
        v = check_claims(claims, a, seed)
        expected = a.Q and a.NMC and a.NC
        assert (v.outcome == "Contradiction") == expected
        if not a.Q:
            assert v.trace == ()


def test_assumption_monotonicity():
    claims, seed, _ = fr_claim_set()

    def outcome(a):
        return check_claims(claims, a, seed).outcome

    for bits in itertools.product((False, True), repeat=4):
        a = AssumptionSet(*bits)
        if outcome(a) == "Contradiction":
            for j, flag in enumerate(AssumptionSet.FLAGS):
                if not bits[j]:
                    stronger = AssumptionSet(
                        *(bits[:j] + (True,) + bits[j + 1 :])
                    )
                    assert outcome(stronger) == "Contradiction"


def test_check_claims_deterministic_under_claim_permutation():
    claims, seed, _ = fr_claim_set()
    shuffled = [claims[2], claims[3], claims[0], claims[1]]
    a = AssumptionSet.parse("Q,NMC,NC,S")
    v = check_claims(shuffled, a, seed)
    assert v.outcome == "Contradiction"
    assert v.conflict == ("B_meta", "-", "+")
    assert [(s.observable, s.value) for s in v.trace] == [
        ("B_obs", "1"),
        ("A_obs", "1"),
        ("B_meta", "+"),
    ]


def test_check_claims_seed_validation():
    claims, _, _ = fr_claim_set()
    a = AssumptionSet.parse("Q")
    with pytest.raises(ValueError, match="do not match"):
        check_claims(claims, a, (("A_meta", "B_meta"), ("-",)))
    with pytest.raises(ValueError, match="repeats"):
        check_claims(claims, a, (("A_meta", "A_meta"), ("-", "-")))


def test_observer_claims_cover_all_sentences():
    _, _, m = fr_claim_set()
    claims = observer_claims(m)
    assert len(claims) == 6
    assert all(c.meta_context == c.proposition.context for c in claims)
    agents = {c.agent for c in claims}
    assert agents == {"W_A", "F_B", "F_A", "W_B"}
    # engine semantics on the full sentence set: the seed also opens the
    # contrapositive implication, so NC=false now leaves a two-step trace
    seed = (("A_meta", "B_meta"), ("-", "-"))
    v = check_claims(claims, AssumptionSet.parse("Q,NMC"), seed)
    assert v.outcome == "Consistent"
    assert [(s.observable, s.value) for s in v.trace] == [
        ("B_obs", "1"),
        ("A_obs", "0"),
    ]
    v = check_claims(claims, AssumptionSet.parse("Q,NMC,NC"), seed)
    assert v.outcome == "Contradiction"


def test_observer_claims_generic_labels(hardy_model):
    claims = observer_claims(hardy_model)
    assert claims[0].agent == "O_A_d"


def test_claims_for_cycle_reads_the_seed_statement_off_its_table(monkeypatch):
    """On every corpus model with a liar cycle, the claims are the chain
    steps plus the statement certain_implications reports for the seed
    query, and claims_for_cycle builds them without calling it."""
    cases = []
    for f in sorted(resources.files("contextuality").joinpath("data").iterdir()):
        if not f.name.endswith(".scn"):
            continue
        parsed = parse_file(f.read_text(encoding="utf-8"))
        model = parsed.model
        if model is None and parsed.realization is not None:
            model = realize(parsed.realization, parsed.scenario)
        if model is None:
            continue
        work = _work_model(model)
        cycle = _default_seed(support_of(work))
        if cycle is None:
            continue
        statement = certain_implications(work, queries=[cycle.seed])[-1]
        want = [
            Claim(
                metacontext._agent_of(s.premise[0]),
                s.context,
                CertainImplication(s.context, s.premise, s.conclusion),
            )
            for s in cycle.steps
        ]
        want.append(Claim(metacontext._agent_of(cycle.seed[0][0]), cycle.seed[0], statement))
        cases.append((work, cycle, want))
    assert len(cases) >= 5

    def refuse(*args, **kwargs):
        raise AssertionError("claims_for_cycle called certain_implications")

    monkeypatch.setattr(metacontext, "certain_implications", refuse)
    for work, cycle, want in cases:
        assert claims_for_cycle(work, cycle) == want
