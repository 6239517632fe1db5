"""Report assembly: structure, exact values, JSON schema, round-trips."""
from __future__ import annotations

import enum
import itertools
import json
from collections import OrderedDict
import random
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import logic, report
from contextuality.builders import (
    ProbabilityStatement,
    certain_implications,
    fr_realization,
    hardy_realization,
)
from contextuality.metacontext import (
    coherent_final_basis,
    compare_cuts,
    computational_final_basis,
    describe,
    mixture_born,
)
from contextuality.report import (
    ALL_SECTIONS,
    DEFAULT_ASSUMPTION_SETS,
    AnalysisReport,
    _clean,
    _encode,
    chain_report,
    model_report,
    render_json,
    render_text,
    scenario_report,
)
from contextuality.scenario import (
    Distribution,
    EmpiricalModel,
    Observable,
    Scenario,
    realize,
)
from contextuality.scnformat import parse_file

from conftest import RANDOM_CHAINS, random_chain, random_table_model
from ncf_pins import white_noise_odd_cycle
from oracles import certain_implications_nested_sum

CORPUS = (
    "hardy",
    "fr",
    "wigner",
    "cycle_3_odd",
    "cycle_3_even",
    "cycle_4_odd",
    "cycle_4_even",
    "cycle_5_odd",
    "cycle_5_even",
)


def corpus_text(name):
    return (
        resources.files("contextuality")
        .joinpath("data", name + ".scn")
        .read_text(encoding="utf-8")
    )


def corpus_model(name):
    return parse_file(corpus_text(name)).model


def corpus_report(name):
    f = parse_file(corpus_text(name))
    if f.model is not None:
        return model_report(f.model, name)
    if f.realization is not None:
        return model_report(realize(f.realization, f.scenario), name)
    if f.chain is not None:
        return chain_report(f.chain, name)
    return scenario_report(f.scenario, name)


def test_hardy_report_headline():
    d = model_report(corpus_model("hardy"), "hardy").as_dict()
    assert d["name"] == "hardy"
    assert d["kind"] == "model"
    assert d["no_disturbance"]["pass"] is True
    assert d["no_disturbance"]["max_violation"] == 0.0
    assert d["classification"] == "LogicallyContextual"
    assert d["global_sections"] == 5
    assert len(d["sentences"]) == 6


def test_hardy_report_liar_cycle():
    d = model_report(corpus_model("hardy"), "hardy").as_dict()
    cyc = d["liar_cycle"]
    assert cyc["seed"]["context"] == ["A_d", "B_d"]
    assert cyc["seed"]["outcome"] == ["-", "-"]
    assert cyc["seed"]["probability"]["exact"] == "1/12"
    assert cyc["seed"]["probability"]["value"] == pytest.approx(1 / 12)
    assert len(cyc["steps"]) == 3
    chain = [
        (s["premise"], s["conclusion"]) for s in cyc["steps"]
    ]
    assert chain == [
        (["A_d", "-"], ["B_c", "1"]),
        (["B_c", "1"], ["A_c", "1"]),
        (["A_c", "1"], ["B_d", "+"]),
    ]
    assert cyc["contradiction"] == {
        "observable": "B_d",
        "established": "-",
        "forced": "+",
    }


def test_hardy_report_fraction():
    d = model_report(corpus_model("hardy"), "hardy").as_dict()
    fr = d["fraction"]
    assert fr["ncf"]["exact"] == "5/6"
    assert fr["cf"]["exact"] == "1/6"
    assert len(fr["witness"]) == 5
    total = sum(Fraction(r["weight"]["exact"]) for r in fr["witness"])
    assert total == Fraction(5, 6)
    for row in fr["witness"]:
        assert [k for k, _ in row["assignment"]] == ["A_c", "A_d", "B_c", "B_d"]


def test_hardy_report_claim_verdicts():
    d = model_report(corpus_model("hardy"), "hardy").as_dict()
    claims = d["claims"]
    assert len(claims["claims"]) == 4
    agents = [c["agent"] for c in claims["claims"]]
    assert agents == ["O_A_d", "O_B_c", "O_A_c", "O_A_d"]
    outcomes = {v["assumptions"]: v["outcome"] for v in claims["verdicts"]}
    assert outcomes == {
        "Q,NMC,NC,S": "Contradiction",
        "NMC,NC,S": "Consistent",
        "Q,NC,S": "Consistent",
        "Q,NMC,S": "Consistent",
        "Q,NMC,NC": "Contradiction",
    }
    full = claims["verdicts"][0]
    assert [t["observable"] for t in full["trace"]] == ["B_c", "A_c", "B_d"]
    assert full["conflict"]["observable"] == "B_d"
    assert any("S" in note for note in d["notes"])


def test_hardy_verdict_order_follows_input():
    sets = ("NMC,NC,S", "Q,NMC,NC,S")
    d = model_report(corpus_model("hardy"), "hardy", assumption_sets=sets).as_dict()
    assert [v["assumptions"] for v in d["claims"]["verdicts"]] == list(sets)


def test_fr_realization_report_matches_hardy_shape():
    fr = fr_realization()
    model = realize(fr.realization, fr.scenario)
    d = model_report(model, "fr").as_dict()
    assert d["classification"] == "LogicallyContextual"
    assert d["global_sections"] == 5
    cyc = d["liar_cycle"]
    assert cyc["seed"]["context"] == ["A_meta", "B_meta"]
    assert cyc["seed"]["probability"]["exact"] == "1/12"
    assert d["fraction"]["ncf"]["exact"] == "5/6"
    agents = [c["agent"] for c in d["claims"]["claims"]]
    assert agents == ["W_A", "F_B", "F_A", "W_A"]
    full = d["claims"]["verdicts"][0]
    assert full["outcome"] == "Contradiction"
    assert [t["agent"] for t in full["trace"]] == ["W_A", "F_B", "F_A"]
    assert full["conflict"] == {
        "observable": "B_meta",
        "established": "-",
        "forced": "+",
    }


def test_wigner_chain_report_cut_divergence():
    chain = parse_file(corpus_text("wigner")).chain
    d = chain_report(chain, "wigner").as_dict()
    assert d["kind"] == "chain"
    assert d["classification"] is None
    assert d["fraction"] is None
    cuts = d["cuts"]
    assert cuts["agents"] == ["F"]
    by_basis = {f["basis"]: f for f in cuts["families"]}
    assert set(by_basis) == {"memory-computational", "coherent"}
    mem = by_basis["memory-computational"]
    assert mem["comparisons"][0]["tv"] == pytest.approx(0.0, abs=1e-9)
    coh = by_basis["coherent"]
    assert coh["comparisons"][0]["tv"] == pytest.approx(0.5, abs=1e-9)
    probs = {d_["cut"]: dict(d_["probabilities"]) for d_ in coh["distributions"]}
    assert probs[0]["coherent"] == pytest.approx(0.5, abs=1e-9)
    assert probs[1]["coherent"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(len(RANDOM_CHAINS)))
def test_chain_report_reads_every_number_off_the_cut_tables(seed):
    """Each distribution is mixture_born of the cut's ensemble and each tv
    is compare_cuts' for the pair, exactly."""
    chain = random_chain(seed, *RANDOM_CHAINS[seed])
    cuts = chain_report(chain, "chain").cuts
    assert cuts["agents"] == [a.name for a in chain.agents]
    families = {f["basis"]: f for f in cuts["families"]}
    bases = {
        "memory-computational": computational_final_basis(chain),
        "coherent": coherent_final_basis(chain),
    }
    assert list(families) == list(bases)
    ncuts = len(chain.agents) + 1
    for name, basis in bases.items():
        family = families[name]
        assert [d["cut"] for d in family["distributions"]] == list(range(ncuts))
        for cut, d in enumerate(family["distributions"]):
            dist = mixture_born(describe(chain, cut), basis)
            assert d["probabilities"] == [[" ".join(k), _clean(v)] for k, v in dist.items()]
        pairs = list(itertools.combinations(range(ncuts), 2))
        assert [(c["cut_a"], c["cut_b"]) for c in family["comparisons"]] == pairs
        for c, (a, b) in zip(family["comparisons"], pairs):
            assert c["tv"] == _clean(compare_cuts(chain, a, b, basis)[2])


@pytest.mark.parametrize(
    "chain, cuts",
    [(parse_file(corpus_text("wigner")).chain, 2), (random_chain(5, (2,), (True, False, True)), 4)],
)
def test_chain_report_describes_each_cut_once(monkeypatch, chain, cuts):
    """One ensemble per cut, measured once per final-basis family."""
    calls = {"describe": 0, "mixture_born": 0}

    def counted(name):
        real = getattr(report, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(report, name, counted(name))
    chain_report(chain, "chain")
    assert calls == {"describe": cuts, "mixture_born": 2 * cuts}


def test_cycle_reports():
    d = model_report(corpus_model("cycle_3_even"), "cycle_3_even").as_dict()
    assert d["classification"] == "GloballyExtendable"
    assert d["global_sections"] == 2
    assert d["fraction"]["ncf"]["exact"] == "1"
    assert d["liar_cycle"] is None
    assert d["claims"] is None
    assert d["notes"] is None

    d = model_report(corpus_model("cycle_5_odd"), "cycle_5_odd").as_dict()
    assert d["classification"] == "StronglyContextual"
    assert d["global_sections"] == 0
    assert d["fraction"]["ncf"]["exact"] == "0"
    assert d["fraction"]["witness"] == []
    assert len(d["liar_cycle"]["steps"]) == 4
    assert len(d["claims"]["claims"]) == 5


def _binary_cycle(n, weight):
    """The n-cycle over S1..Sn with outcomes 0/1; weight(k, equal) is the
    exact probability of an equal or unequal pair in the k-th context."""
    sc = logic.cycle_model(n).scenario
    tables = {}
    for k, ctx in enumerate(sc.contexts):
        exact = {(a, b): weight(k, a == b) for a in "01" for b in "01"}
        tables[ctx] = Distribution({t: float(v) for t, v in exact.items()}, exact)
    return EmpiricalModel(sc, tables)


@pytest.mark.parametrize(
    "model,classification,sections,steps",
    [
        (_binary_cycle(20, lambda k, eq: Fraction(1, 4)), "GloballyExtendable", 2**20, None),
        (logic.cycle_empirical_model(24, "odd"), "StronglyContextual", 0, 23),
        (
            _binary_cycle(
                21,
                lambda k, eq: Fraction(1, 4) if k == 20 else Fraction(int(eq), 2),
            ),
            "LogicallyContextual",
            2,
            20,
        ),
    ],
    ids=["full_support_20", "odd_24", "hardy_like_21"],
)
def test_logic_report_at_scale_never_lists_sections(
    monkeypatch, model, classification, sections, steps
):
    """Closed-form cycles: the report counts sections and classifies by
    coverage without ever building the section list."""

    def refuse(p):
        raise AssertionError("the report enumerated global sections")

    monkeypatch.setattr(logic, "global_sections", refuse)
    d = model_report(
        model, "cycle", sections=frozenset({"logic", "sentences", "cycle"})
    ).as_dict()
    assert d["classification"] == classification
    assert d["global_sections"] == sections
    if steps is None:
        assert d["liar_cycle"] is None
    else:
        assert len(d["liar_cycle"]["steps"]) == steps
        assert d["liar_cycle"]["contradiction"] is not None


def test_default_seed_search_runs_once_per_candidate(monkeypatch):
    """The report reuses the cycle its default-seed scan found, and the scan
    searches only candidates whose implication closure holds a conflict: on
    a Hardy-like 9-cycle the 16 events of the eight equal contexts and the
    first event of the last context close no cycle and force one value per
    observable, so the one search is for the second event of the last
    context, the 18th candidate, which closes the cycle."""
    n = 9
    m = _binary_cycle(
        n, lambda k, eq: Fraction(1, 4) if k == n - 1 else Fraction(int(eq), 2)
    )
    seeds = []
    run = logic._LiarSearch.run

    def counted(self, seed):
        seeds.append(seed)
        return run(self, seed)

    monkeypatch.setattr(logic._LiarSearch, "run", counted)
    d = model_report(m, "hardy_like", sections=frozenset({"cycle"})).as_dict()
    seed = d["liar_cycle"]["seed"]
    chosen = (tuple(seed["context"]), tuple(seed["outcome"]))
    candidates = [
        (ctx, t)
        for ctx in m.scenario.contexts
        for t in m.scenario.joint_outcomes(ctx)
        if m.tables[ctx].exact[t] > 0
    ]
    assert seeds == [chosen]
    assert candidates.index(chosen) == 17
    assert len(d["liar_cycle"]["steps"]) == n - 1


def test_scenario_report():
    scn = parse_file(corpus_text("hardy")).scenario
    d = scenario_report(scn, "bare").as_dict()
    assert d["kind"] == "scenario"
    assert d["classification"] is None
    assert d["no_disturbance"] is None
    assert any("4 observables" in n and "4 contexts" in n for n in d["notes"])


def test_sections_filtering():
    m = corpus_model("hardy")
    d = model_report(m, "hardy", sections=frozenset({"nd", "ncf"})).as_dict()
    assert d["fraction"] is not None
    assert d["no_disturbance"] is not None
    assert d["sentences"] is None
    assert d["liar_cycle"] is None
    assert d["claims"] is None
    d = model_report(m, "hardy", sections=frozenset({"sentences", "cycle"})).as_dict()
    assert d["fraction"] is None
    assert d["no_disturbance"] is None
    assert d["sentences"] is not None
    assert d["liar_cycle"] is not None


def test_unknown_section_is_named():
    m = corpus_model("hardy")
    with pytest.raises(ValueError, match="^unknown report sections: ncff, nd2$"):
        model_report(m, "hardy", sections=frozenset({"ncff", "nd", "nd2"}))


def test_explicit_seed_without_contradiction():
    m = corpus_model("hardy")
    seed = (("A_d", "B_d"), ("+", "+"))
    d = model_report(m, "hardy", seed=seed).as_dict()
    cyc = d["liar_cycle"]
    assert cyc["seed"]["outcome"] == ["+", "+"]
    assert cyc["seed"]["probability"]["exact"] == "3/4"
    assert cyc["steps"] == []
    assert cyc["contradiction"] is None
    assert d["claims"] is None


def test_bad_seed_raises():
    m = corpus_model("hardy")
    with pytest.raises(ValueError):
        model_report(m, "hardy", seed=(("A_d", "Bogus"), ("-", "-")))
    with pytest.raises(ValueError):
        model_report(m, "hardy", seed=(("A_d", "B_d"), ("-", "0")))


def test_signalling_model_report():
    obs = (
        Observable("X", ("0", "1")),
        Observable("Y", ("0", "1")),
        Observable("Z", ("0", "1")),
    )
    scn = Scenario(obs, (("X", "Y"), ("Y", "Z")))
    half = Fraction(1, 2)
    tables = {
        ("X", "Y"): Distribution(
            {("0", "0"): half, ("0", "1"): half, ("1", "0"): 0, ("1", "1"): 0}
        ),
        ("Y", "Z"): Distribution(
            {("0", "0"): 0, ("0", "1"): 0, ("1", "0"): half, ("1", "1"): half}
        ),
    }
    m = EmpiricalModel(scn, tables)
    d = model_report(m, "sig").as_dict()
    assert d["no_disturbance"]["pass"] is False
    assert d["no_disturbance"]["max_violation"] == pytest.approx(0.5)
    assert d["fraction"] is None
    assert any("signalling" in n for n in d["notes"])


def test_float_model_report_snaps_to_exact():
    m = realize(*hardy_realization())
    d = model_report(m, "hardy-float").as_dict()
    assert d["liar_cycle"]["seed"]["probability"]["exact"] == "1/12"
    assert d["fraction"]["ncf"]["exact"] == "5/6"


def test_reports_deterministic():
    for name in ("hardy", "wigner", "cycle_4_odd"):
        a = corpus_report(name)
        b = corpus_report(name)
        assert a.as_dict() == b.as_dict()
        assert render_text(a) == render_text(b)
        assert render_json(a) == render_json(b)


def test_all_corpus_reports_match_schema():
    schema = json.loads(
        resources.files("contextuality")
        .joinpath("data", "report.schema.json")
        .read_text(encoding="utf-8")
    )
    validator = jsonschema.Draft202012Validator(schema)
    for name in CORPUS:
        rep = corpus_report(name)
        errors = list(validator.iter_errors(rep.as_dict()))
        assert errors == [], f"{name}: {errors[:2]}"


def test_json_round_trip_regenerates_text():
    for name in CORPUS:
        rep = corpus_report(name)
        back = AnalysisReport.from_dict(json.loads(render_json(rep)))
        assert back.as_dict() == rep.as_dict()
        assert render_text(back) == render_text(rep)


def test_render_text_layout():
    text = render_text(model_report(corpus_model("hardy"), "hardy"))
    lines = text.splitlines()
    assert lines[0] == "scenario: hardy"
    assert lines[1] == "kind: model"
    assert "no-disturbance: max violation 0.0 (pass, tolerance 1e-09)" in lines
    assert "classification: LogicallyContextual" in lines
    assert "global sections: 5" in lines
    assert "noncontextual fraction: 5/6 (0.8333333333333334)" in lines
    assert "  seed [A_d B_d] (- -) probability 1/12 (0.08333333333333333)" in lines
    assert "  contradiction: B_d: - established, + forced" in lines
    assert text.endswith("\n")


def test_default_assumption_sets_shape():
    assert DEFAULT_ASSUMPTION_SETS[0] == "Q,NMC,NC,S"
    assert len(DEFAULT_ASSUMPTION_SETS) == 5
    flags = ("Q", "NMC", "NC", "S")
    for dropped, label in zip(flags, DEFAULT_ASSUMPTION_SETS[1:]):
        parts = label.split(",")
        assert dropped not in parts
        assert len(parts) == 3


# ------------------------------------------------------------- JSON writer

# the section sets of the ncf and cycles commands
NCF_SECTIONS = frozenset({"nd", "ncf"})
CYCLES_SECTIONS = frozenset({"sentences", "cycle"})


def _every_corpus_report():
    for name in CORPUS:
        f = parse_file(corpus_text(name))
        if f.scenario is not None:
            yield scenario_report(f.scenario, name)
        if f.chain is not None:
            yield chain_report(f.chain, name)
        model = f.model
        if model is None and f.realization is not None:
            model = realize(f.realization, f.scenario)
        if model is not None:
            for sections in (ALL_SECTIONS, NCF_SECTIONS, CYCLES_SECTIONS):
                yield model_report(model, name, sections=sections)


def test_render_json_equals_json_dumps_on_corpus():
    reports = list(_every_corpus_report())
    assert len(reports) == 8 + 1 + 8 * 3
    for rep in reports:
        want = json.dumps(rep.as_dict(), indent=2, sort_keys=True) + "\n"
        assert render_json(rep) == want


class _Label(str):
    pass


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**40


class _Items(list):
    pass


class _Pair(tuple):
    pass


_any_text = st.text(st.characters(exclude_categories=()))  # lone surrogates too
_leaves = st.one_of(
    _any_text,
    _any_text.map(_Label),
    st.integers(-(2**100), 2**100),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.sampled_from(_Level),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_Items),
        st.lists(inner, max_size=4).map(_Pair),
        st.dictionaries(_any_text, inner, max_size=4),
        st.dictionaries(_any_text, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_json_writer_matches_json_dumps(value):
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)
    for bad in (object(), [value, object()], {"k": [value, {"v": object()}]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _encode(bad)


@pytest.mark.parametrize(
    "value",
    [
        [{"b": 1}, ["b"]],
        [["b"], {"b": 1}],
        {"k": ["a", True]},
        {"k": ["", []]},
        {"k": ["a", None, "b"], "l": ["a", None, "b"]},
        {"k": ["a", ["b"], "b"], "l": ["a", {"b": 1}, "b"]},
        [["a", True], ["a", 1], ["a", "b"], ["a", True]],
        [["", []], ["", []], [""]],
        {"b": ["b"], "c": {"b": "b"}, "d": [{"b": ["b"]}, ["b", {"b": 1}]]},
        [["a", "b"], [["a", "b"]], {"k": ["a", "b"]}, [{"k": ["a", "b"]}]],
    ],
)
def test_json_writer_caches_keep_layouts_and_lists_apart(value):
    """A dict's keys and a list's items can form equal cache keys, a list
    that starts with a str can hold a later non-str or unhashable item, and
    equal layouts and lists recur at other indents."""
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


_small_text = st.text(alphabet="ab", max_size=2)
_small_values = st.recursive(
    st.one_of(_small_text, st.integers(0, 2), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(_small_text, min_size=1, max_size=3),
        st.dictionaries(_small_text, inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_small_values, min_size=1, max_size=4))
def test_json_writer_matches_json_dumps_on_repeated_pieces(values):
    """Keys and strings from a two-letter alphabet, so that dict layouts and
    lists of str repeat, at equal indents and, nested once more, at deeper
    ones."""
    for value in (values, [values, {"a": values}, [[values]]]):
        assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "model,sections",
    [
        (logic.cycle_empirical_model(n, parity), frozenset({"logic", "sentences", "cycle"}))
        for n in (16, 24)
        for parity in ("odd", "even")
    ]
    + [
        (white_noise_odd_cycle(n, Fraction(9, 10)), frozenset({"nd", "ncf"}))
        for n in (9, 11)
    ],
    ids=["odd_16", "even_16", "odd_24", "even_24", "noise_9", "noise_11"],
)
def test_render_json_equals_json_dumps_at_scale(model, sections):
    """Sentence-heavy cycle reports and witness-heavy fraction reports,
    where the writer's caches are hit most."""
    r = model_report(model, "m", sections=sections)
    assert render_json(r) == json.dumps(r.as_dict(), indent=2, sort_keys=True) + "\n"


def _sentence_models():
    # the 400 models of test_certain_implications_match_the_nested_sum_oracle
    rng = random.Random(1406)
    for _ in range(400):
        yield random_table_model(rng)
    for name in CORPUS:
        f = parse_file(corpus_text(name))
        if f.model is not None:
            yield f.model
        elif f.realization is not None:
            yield realize(f.realization, f.scenario)
    import report_pins

    for _, m in report_pins.pinned_models():
        yield m


def test_report_sentences_match_the_nested_sum_oracle():
    """The report writes its sentences straight from the implication
    triples, without certain_implications: they are the oracle's sentences
    of the model it reports on, in the oracle's order. certain_implications
    still appends one ProbabilityStatement per query."""
    count = 0
    for m in _sentence_models():
        work = report._work_model(m)
        want = certain_implications_nested_sum(work)
        got = model_report(m, "m", sections=frozenset({"sentences"})).sentences
        assert got == [report._sentence_dict(s) for s in want]
        ctx = work.scenario.contexts[-1]
        queried = certain_implications(work, queries=[ctx])
        assert queried[:-1] == want
        assert isinstance(queried[-1], ProbabilityStatement)
        assert queried[-1].context == ctx
        count += len(want)
    assert count > 1000


def test_possibilistic_report_bytes_are_pinned():
    """render_json of the logic, sentences and cycle sections on cycles and
    random supports, against SHA-256 digests pinned in report_digests.json."""
    import report_pins

    pins = json.loads(report_pins.PINS.read_text())
    got = {key: report_pins.digest(m, key) for key, m in report_pins.pinned_models()}
    assert got.keys() == pins.keys()
    assert [key for key in pins if got[key] != pins[key]] == []
