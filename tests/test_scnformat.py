from __future__ import annotations

import ast
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextuality
from contextuality import scnformat
from contextuality.builders import fr_realization
from contextuality.builders import hardy_realization as build_hardy
from contextuality.metacontext import Agent, ObserverChain
from contextuality.qstate import (
    SiteBasis,
    StateVector,
    computational_basis,
    diagonal_basis,
)
from contextuality.scenario import realize, snap_to_rationals
from contextuality.scnformat import (
    ParseError,
    _column,
    _lines,
    parse_file,
    parse_model,
    serialize_chain,
    serialize_model,
    serialize_realization,
    serialize_scenario,
)

HARDY_TEXT = """\
scenario hardy

observable A_c outcomes 0 1
observable A_d outcomes + -
observable B_c outcomes 0 1
observable B_d outcomes + -

context A_d B_c
context A_c B_c
context A_c B_d
context A_d B_d

table A_d B_c
  + 0 2/3
  + 1 1/6
  - 0 0
  - 1 1/6

table A_c B_c
  0 0 1/3
  0 1 0
  1 0 1/3
  1 1 1/3

table A_c B_d
  0 + 1/6
  0 - 1/6
  1 + 2/3
  1 - 0

table A_d B_d
  + + 9/12
  + - 1/12
  - + 1/12
  - - 1/12
"""

RATIONAL_ROW_TEXT = """\
scenario quarters
observable X outcomes a b c d
context X
table X
  a 1/3
  b 1/3
  c 1/3
  d 0
"""


def expect_error(text: str, fragment: str, line: int | None = None, col: int | None = None):
    with pytest.raises(ParseError) as ei:
        parse_file(text)
    err = ei.value
    assert fragment in str(err), f"{fragment!r} not in {err}"
    if line is not None:
        assert err.line == line, f"expected line {line}, got {err.line}: {err}"
    if col is not None:
        assert err.col == col, f"expected column {col}, got {err.col}: {err}"
    return err


def hardy_exact_model():
    qr, sc = build_hardy()
    snapped = snap_to_rationals(realize(qr, sc))
    assert snapped is not None
    return snapped


# ------------------------------------------------------------------ parsing


def test_hardy_text_parses_to_hardy_model():
    m = parse_model(HARDY_TEXT)
    qr, sc = build_hardy()
    built = realize(qr, sc)
    assert m.scenario == sc
    for ctx in sc.contexts:
        for key, p in built.tables[ctx].items():
            assert m.tables[ctx][key] == pytest.approx(p, abs=1e-9)
    assert m.exact_available
    assert m.tables[("A_d", "B_d")].exact[("-", "-")] == Fraction(1, 12)
    assert m.tables[("A_d", "B_c")].exact[("-", "0")] == Fraction(0)


def test_rational_row_parsed_exactly():
    m = parse_model(RATIONAL_ROW_TEXT)
    dist = m.tables[("X",)]
    assert dist.exact == {
        ("a",): Fraction(1, 3),
        ("b",): Fraction(1, 3),
        ("c",): Fraction(1, 3),
        ("d",): Fraction(0),
    }
    assert dist[("a",)] == float(Fraction(1, 3))
    assert m.scenario.contexts == (("X",),)


def test_decimal_rows_stay_float_only():
    third = repr(1 / 3)
    text = (
        "scenario t\nobservable X outcomes a b c\ncontext X\ntable X\n"
        f"  a {third}\n  b {third}\n  c 0.33333333333333337\n"
    )
    m = parse_model(text)
    dist = m.tables[("X",)]
    assert dist.exact is None
    assert dist[("a",)] == 1 / 3


def test_integer_literals_are_exact():
    text = "scenario t\nobservable X outcomes a b\ncontext X\ntable X\n  a 1\n  b 0\n"
    dist = parse_model(text).tables[("X",)]
    assert dist.exact == {("a",): Fraction(1), ("b",): Fraction(0)}


def test_file_sum_tolerance():
    # exactly representable decimals summing to 0.99: outside 1e-6
    text = "scenario t\nobservable X outcomes a b\ncontext X\ntable X\n  a 0.5\n  b 0.49\n"
    expect_error(text, "table for context (X)", line=4)
    # 1 + 2e-6 is refused too, at the table's header line
    text = "scenario t\nobservable X outcomes a b\ncontext X\ntable X\n  a 0.5\n  b 0.500002\n"
    expect_error(text, "probabilities sum to", line=4)
    # off by less than 1e-6 passes
    ok = "scenario t\nobservable X outcomes a b\ncontext X\ntable X\n  a 0.5\n  b 0.4999999\n"
    m = parse_model(ok)
    assert m.tables[("X",)][("b",)] == 0.4999999
    # exact literals inside the tolerance but not summing to exactly 1 stay
    # float-only
    ok = "scenario t\nobservable X outcomes a b\ncontext X\ntable X\n  a 1/2\n  b 4999999/10000000\n"
    dist = parse_model(ok).tables[("X",)]
    assert dist.exact is None
    assert dist[("b",)] == 4999999 / 10000000


def test_comments_and_whitespace_are_ignored():
    text = (
        "# leading comment\n\nscenario quarters   # trailing\n"
        "observable X outcomes a b c d\n\ncontext X  # the only context\n"
        "table X\n    a 1/3\n\t b 1/3   # tabs fine\n  c 1/3\n  d 0\n"
        "   # indented comment line\n"
    )
    m = parse_model(text)
    assert m.tables[("X",)].exact[("a",)] == Fraction(1, 3)


def test_table_by_index_matches_labels_form():
    by_index = HARDY_TEXT.replace("table A_d B_c", "table 0")
    assert parse_model(by_index).tables == parse_model(HARDY_TEXT).tables


DIGIT_LABEL_TEXT = (
    "scenario s\nobservable 7 outcomes a b\nobservable 1 outcomes a b\n"
    "context 7\ncontext 7 1\n"
)


def test_table_header_prefers_a_digit_context_label():
    m = parse_model(
        DIGIT_LABEL_TEXT
        + "table 7\n  a 1/3\n  b 2/3\n"
        + "table 7 1\n  a a 1/3\n  a b 0\n  b a 0\n  b b 2/3\n"
    )
    assert m.tables[("7",)].exact[("a",)] == Fraction(1, 3)
    text = serialize_model(m, "s")
    assert "table 7\n" in text
    parsed = parse_model(text)
    assert parsed.tables == m.tables
    assert serialize_model(parsed, "s") == text


def test_table_header_reads_a_lone_number_as_index_when_no_label_matches():
    m = parse_model(
        DIGIT_LABEL_TEXT
        + "table 1\n  a a 1/3\n  a b 0\n  b a 0\n  b b 2/3\n"
        + "table 0\n  a 1/3\n  b 2/3\n"
    )
    assert m.tables[("7", "1")].exact[("b", "b")] == Fraction(2, 3)
    assert m.tables[("7",)].exact[("b",)] == Fraction(2, 3)


def test_table_header_with_non_ascii_digit_is_a_located_parse_error():
    text = "scenario s\nobservable X outcomes a b\ncontext X\ntable ²\n  a 1\n  b 0\n"
    expect_error(text, "undeclared context (²)", line=4, col=7)


def test_context_with_undeclared_observable_names_label_and_line():
    text = "scenario s\nobservable A outcomes 0 1\ncontext A Bogus\n"
    err = expect_error(text, "Bogus", line=3)
    assert "undeclared observable" in str(err)
    assert err.col == 11


def test_syntax_and_reference_errors():
    cases = [
        ("scenario s\nwibble x\n", "unknown directive 'wibble'", 2, 1),
        ("scenario s\nscenario t\n", "duplicate scenario header", 2, None),
        ("scenario s t\n", "exactly one name", 1, None),
        ("observable X outcomes 0 1\ncontext X\ntable X\n  0 1\n", "missing scenario header", 1, None),
        ("scenario s\nobservable X outcomes 0 1\nobservable X outcomes a b\n", "duplicate observable 'X'", 3, None),
        ("scenario s\nobservable X outcomes 0 0\n", "duplicate outcomes", 2, None),
        ("scenario s\nobservable X outcomes 0 1\ncontext X X\n", "repeats observable 'X'", 3, None),
        ("scenario s\nobservable X outcomes 0 1\ncontext X\ncontext X\n", "duplicate context (X)", 4, None),
        # the same label set in another order is the same context
        ("scenario s\nobservable X outcomes 0 1\nobservable Y outcomes 0 1\n"
         "context X Y\ncontext Y X\n", "duplicate context (Y X)", 5, 1),
        ("scenario s\nobservable X outcomes 0 1\ntable X\n  0 1\n", "undeclared context (X)", 3, None),
        ("scenario s\nobservable X outcomes 0 1\ncontext X\ntable 3\n", "index 3 out of range", 4, None),
        ("scenario s\nobservable X outcomes 0 1\ncontext X\ntable X\n  0 1\ntable X\n  1 0\n", "duplicate table", 6, None),
        ("scenario s\nobservable X outcomes 0 1\nobservable Y outcomes 0 1\n"
         "context X\ncontext Y\ntable X\n  0 1\n  1 0\n",
         "missing table for context (Y)", None, None),
    ]
    for text, fragment, line, col in cases:
        expect_error(text, fragment, line, col)


def test_table_row_errors():
    head = "scenario s\nobservable X outcomes 0 1\nobservable Y outcomes a b\ncontext X Y\ntable X Y\n"
    cases = [
        (head + "  0 1\n", "needs 2 outcome labels", 6, None),
        (head + "  0 q 1/2\n", "'q' is not an outcome of observable 'Y'", 6, 5),
        (head + "  0 a 1/2\n  0 a 1/2\n", "duplicate table row (0 a)", 7, None),
        (head + "  0 a oops\n", "invalid probability literal 'oops'", 6, 7),
        (head + "  0 a 3/2\n", "outside [0, 1]", 6, None),
        # literals whose quotient exceeds the float range
        (head + "  0 a " + "9" * 400 + "\n", "outside [0, 1]", 6, None),
        (head + "  0 a " + "9" * 400 + "/3\n", "outside [0, 1]", 6, None),
        (head + "  0 a -0.25\n", "outside [0, 1]", 6, None),
        (head + "  0 a 1/0\n", "zero denominator", 6, None),
        (head + "  0 a 1/2\n  0 b 1/2\n", "row count mismatch", 5, None),
        ("scenario s\n  0 a 1/2\n", "indented line outside any block", 2, None),
    ]
    for text, fragment, line, col in cases:
        expect_error(text, fragment, line, col)


def test_structural_exclusivity_errors():
    table_part = "observable X outcomes 0 1\ncontext X\ntable X\n  0 1/2\n  1 1/2\n"
    state_part = "state 2\n  amp 0 1.0 0.0\n"
    cases = [
        ("scenario s\n" + table_part + state_part + "measure X site 0 basis computational labels 0 1\n",
         "mixes probability tables with a state block"),
        ("scenario s\nobservable X outcomes 0 1\ncontext X\n"
         "measure X site 0 basis computational labels 0 1\n",
         "require a state block"),
        ("scenario s\n" + state_part, "no measure or chain lines"),
        ("scenario s\n", "declares no observables"),
        ("scenario s\nobservable X outcomes 0 1\ncontext X\n" + state_part +
         "measure X site 0 basis computational labels 0 1\nchain F basis computational\n"
         "table X\n  0 1\n  1 0\n",
         "mixes probability tables with a state block"),
    ]
    for text, fragment in cases:
        expect_error(text, fragment)


def test_state_and_measure_errors():
    head = "scenario s\nobservable X outcomes 0 1\ncontext X\n"
    st = "state 2 2\n  amp 0 1.0 0.0\n"
    cases = [
        (head + "state 2\n  amp 0 1.0 0.0\nstate 2\n", "duplicate state block", 6),
        (head + "state 1\n", "site dimension must be >= 2", 4),
        (head + "state 2\n  amp 5 1.0 0.0\nmeasure X site 0 basis computational labels 0 1\n",
         "amplitude index 5 out of range", 5),
        (head + "state 2\n  amp 0 1.0 0.0\n  amp 0 0.0 0.0\nmeasure X site 0 basis computational labels 0 1\n",
         "duplicate amplitude index 0", 6),
        (head + "state 2\n  amp 0 0.5 0.0\nmeasure X site 0 basis computational labels 0 1\n",
         "not normalized", 4),
        (head + st + "measure Y site 0 basis computational labels 0 1\n",
         "measure for undeclared observable 'Y'", 6),
        (head + st + "measure X site 0 basis computational labels 0 1\n"
         + "measure X site 1 basis computational labels 0 1\n",
         "duplicate measure for observable 'X'", 7),
        (head + st + "measure X site 7 basis computational labels 0 1\n", "site 7 out of range", 6),
        (head + st + "measure X site 0 basis bogus labels 0 1\n", "unknown basis kind 'bogus'", 6),
        (head + st + "measure X site 0 basis explicit\n", "explicit basis requires labels", 6),
        (head + st + "measure X site 0 basis computational labels 0 1 2\n",
         "needs 2 labels, got 3", 6),
        (head + st + "measure X sites 0 1 basis diagonal labels + -\n",
         "diagonal basis requires dimension 2, got 4", 6),
        (head + st + "measure X site 0 basis computational labels a b\n",
         "do not match its declared outcomes", 6),
        (head + st + "measure X site 0 basis explicit labels 0 1\n  vec 1.0 0.0 0.0 0.0\n",
         "1 vec rows for 2 labels", 6),
        (head + st + "measure X site 0 basis explicit labels 0 1\n"
         + "  vec 1.0 0.0 0.0 0.0\n  vec 1.0 0.0 0.0 0.0\n",
         "not orthonormal", 6),
        (head + st + "measure X site 0 basis explicit labels 0 1\n"
         + "  vec 1.0 0.0\n  vec 0.0 1.0\n",
         "1 components, expected 2", 6),
        (head + st + "measure X site 0 basis explicit labels 0 1\n  vec 1.0 0.0 0.0\n",
         "even number of components", 7),
        (head + st + "measure X site 0 basis explicit labels 0 1\n  amp 0 1.0 0.0\n",
         "expected 'vec", 7),
        (head + "state 2\n  vec 1.0 0.0\nmeasure X site 0 basis computational labels 0 1\n",
         "expected 'amp", 5),
        (head + st + "chain F basis computational\nchain F basis computational\n",
         "duplicate chain agent 'F'", 7),
    ]
    for text, fragment, line in cases:
        expect_error(text, fragment, line)


def test_missing_measure_for_observable():
    text = (
        "scenario s\nobservable X outcomes 0 1\nobservable Y outcomes 0 1\n"
        "context X Y\nstate 2 2\n  amp 0 1.0 0.0\n"
        "measure X site 0 basis computational labels 0 1\n"
    )
    expect_error(text, "missing measure for observable 'Y'")


# -------------------------------------------------------------- round trips


def test_model_roundtrip_exact_and_idempotent():
    m = hardy_exact_model()
    text = serialize_model(m, "hardy")
    parsed = parse_model(text)
    assert parsed.scenario == m.scenario
    for ctx in m.scenario.contexts:
        assert parsed.tables[ctx].exact == m.tables[ctx].exact
        for key, p in m.tables[ctx].items():
            assert abs(parsed.tables[ctx][key] - p) <= 1e-9
    assert serialize_model(parsed, "hardy") == text


def test_model_roundtrip_float_exactness():
    qr, sc = build_hardy()
    m = realize(qr, sc)  # float tables, no exact attached
    text = serialize_model(m, "hardy_float")
    parsed = parse_model(text)
    for ctx in sc.contexts:
        assert dict(parsed.tables[ctx].items()) == dict(m.tables[ctx].items())
    assert serialize_model(parsed, "hardy_float") == text


def test_realization_roundtrip_named_bases():
    qr, sc = build_hardy()
    text = serialize_realization(qr, sc, "hardy_state")
    f = parse_file(text)
    assert f.name == "hardy_state"
    assert f.scenario == sc
    assert f.realization is not None
    assert np.array_equal(f.realization.state.amplitudes, qr.state.amplitudes)
    for label, rec in qr.recipes.items():
        got = f.realization.recipes[label]
        assert got.sites == rec.sites
        assert got.mapped_labels() == rec.mapped_labels()
        assert np.array_equal(got.basis.vectors, rec.basis.vectors)
    built = realize(qr, sc)
    reparsed = realize(f.realization, sc)
    for ctx in sc.contexts:
        assert dict(reparsed.tables[ctx].items()) == dict(built.tables[ctx].items())
    assert serialize_realization(f.realization, f.scenario, "hardy_state") == text


def test_realization_roundtrip_explicit_vectors():
    fr = fr_realization()
    text = serialize_realization(fr.realization, fr.scenario, "fr")
    f = parse_file(text)
    assert f.realization is not None
    assert f.realization.state.sites == (2, 2, 2, 2)
    for label, rec in fr.realization.recipes.items():
        got = f.realization.recipes[label]
        assert got.sites == rec.sites
        assert np.array_equal(got.basis.vectors, rec.basis.vectors)
    built = realize(fr.realization, fr.scenario)
    reparsed = realize(f.realization, f.scenario)
    for ctx in fr.scenario.contexts:
        assert dict(reparsed.tables[ctx].items()) == dict(built.tables[ctx].items())
    assert serialize_realization(f.realization, f.scenario, "fr") == text


def test_chain_roundtrip():
    s = 1.0 / np.sqrt(2.0)
    base = StateVector((2,), np.array([s, s]))
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    chain = ObserverChain(
        base,
        (
            Agent("F", diagonal_basis()),
            Agent("W", computational_basis(4, ("a", "b", "c", "d"))),
            Agent("G", SiteBasis(np.kron(swap, np.eye(8)), tuple("abcdefghijklmnop"))),
        ),
    )
    text = serialize_chain(chain, "threefold")
    f = parse_file(text)
    assert f.chain is not None
    assert f.model is None and f.realization is None
    assert np.array_equal(f.chain.base.amplitudes, base.amplitudes)
    assert [a.name for a in f.chain.agents] == ["F", "W", "G"]
    for got, want in zip(f.chain.agents, chain.agents):
        assert got.basis.labels == want.basis.labels
        assert np.array_equal(got.basis.vectors, want.basis.vectors)
    assert serialize_chain(f.chain, "threefold") == text


def test_wigner_style_chain_text():
    s = repr(float(1.0 / np.sqrt(2.0)))
    text = (
        "scenario wigner\n\nstate 2\n"
        f"  amp 0 {s} 0.0\n  amp 1 {s} 0.0\n\n"
        "chain F basis computational labels 0 1\n"
    )
    chain = parse_model(text)
    assert isinstance(chain, ObserverChain)
    assert chain.base.sites == (2,)
    assert chain.agents[0].name == "F"
    assert chain.agents[0].basis.labels == ("0", "1")


def test_parse_model_preference_order():
    assert type(parse_model(HARDY_TEXT)).__name__ == "EmpiricalModel"
    qr, sc = build_hardy()
    assert type(parse_model(serialize_realization(qr, sc, "h"))).__name__ == "QuantumRealization"
    assert type(parse_model(serialize_scenario(sc, "h"))).__name__ == "Scenario"
    base = StateVector((2,), np.array([1.0, 0.0]))
    ch = ObserverChain(base, (Agent("F", computational_basis(2)),))
    assert isinstance(parse_model(serialize_chain(ch, "c")), ObserverChain)


def test_scenario_roundtrip():
    qr, sc = build_hardy()
    text = serialize_scenario(sc, "bare")
    f = parse_file(text)
    assert f.scenario == sc
    assert f.model is None and f.realization is None and f.chain is None
    assert serialize_scenario(f.scenario, "bare") == text


def test_serialize_rejects_unwritable_labels():
    from contextuality.scenario import Observable, Scenario

    sc = Scenario((Observable("A B", ("0", "1")),), (("A B",),))
    with pytest.raises(ValueError, match="cannot be written"):
        serialize_scenario(sc, "x")
    ok = Scenario((Observable("A", ("0", "1")),), (("A",),))
    with pytest.raises(ValueError, match="cannot be written"):
        serialize_scenario(ok, "two words")


def test_parse_error_formatting():
    assert str(ParseError("boom", 3, 7)) == "line 3, column 7: boom"
    assert str(ParseError("boom", 3)) == "line 3: boom"
    assert str(ParseError("boom")) == "boom"
    err = ParseError("boom", 3, 7)
    assert (err.line, err.col, err.message) == (3, 7, "boom")


def test_package_has_no_assert_statements():
    """No assert steers the package's control flow: `python -O` strips them,
    so the parser and the engines must work without any."""
    found = []
    for path in sorted(Path(contextuality.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# ------------------------------------------------------------ tokenizer


def _regex_lines(text: str):
    """The tokenizer as a regex: every maximal \\S+ run with its 1-based
    column, comments cut at the first '#'."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(), ln, m.start() + 1) for m in re.finditer(r"\S+", body)]
        if toks:
            yield toks, body[0] in " \t"


def _located_lines(text: str):
    """The words of _lines, each with the column _column finds for it: the
    location a ParseError raised at that word reports."""
    for ln, body, words in _lines(text):
        toks = [(word, ln, _column(body, words, i)) for i, word in enumerate(words)]
        yield toks, body[0] in " \t"


def _assert_same_tokens(text: str) -> None:
    assert list(_located_lines(text)) == list(_regex_lines(text))


def test_tokenizer_matches_regex_on_corpus_and_workloads(tmp_path):
    from perfbench import workloads

    data = Path(contextuality.__file__).parent / "data"
    for path in sorted(data.glob("*.scn")):
        _assert_same_tokens(path.read_text(encoding="utf-8"))
    for workload in ("ncf_exact", "ncf_quantum"):
        workdir = tmp_path / workload
        workdir.mkdir()
        workloads.build(workload, 1, workdir, data)
        texts = [p.read_text(encoding="utf-8") for p in sorted(workdir.glob("*.scn"))]
        assert texts
        for text in texts:
            _assert_same_tokens(text)


def test_tokenizer_columns_with_unicode_whitespace():
    text = (
        "scenario\xa0s  # note\n"
        "\t amp\u3000" "0\t1.0\u2003 0.0#x\n"
        " \xa0\n#only\nab b bb\n"
    )
    assert list(_located_lines(text)) == [
        ([("scenario", 1, 1), ("s", 1, 10)], False),
        ([("amp", 2, 3), ("0", 2, 7), ("1.0", 2, 9), ("0.0", 2, 14)], True),
        ([("ab", 5, 1), ("b", 5, 4), ("bb", 5, 6)], False),
    ]
    _assert_same_tokens(text)


_PIECES = st.lists(
    st.one_of(
        st.sampled_from([" ", "\t", "\xa0", "\u3000", "\u2003", "\x0b", "\x0c", "#", "b", "ab", "bb"]),
        st.text(min_size=1, max_size=4),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES.map("".join), max_size=6))
def test_tokenizer_matches_regex_on_random_lines(lines):
    _assert_same_tokens("\n".join(lines))


def test_parse_errors_match_the_pins():
    """Message, line and column of every seeded mutant's ParseError, or ok,
    as tests/parse_pins.py pinned them."""
    import parse_pins

    pinned = json.loads(parse_pins.PINS.read_text(encoding="utf-8"))
    got = parse_pins.outcomes()
    assert got.keys() == pinned.keys()
    assert {k: (pinned[k], got[k]) for k in pinned if got[k] != pinned[k]} == {}


def _binary_cycle_text(n: int) -> str:
    lines = ["scenario cycle"]
    lines += [f"observable X{i} outcomes 0 1" for i in range(n)]
    lines += [f"context X{i} X{(i + 1) % n}" for i in range(n)]
    for i in range(n):
        lines.append(f"table X{i} X{(i + 1) % n}")
        lines += [f"  {a} {b} 1/4" for a in "01" for b in "01"]
    return "\n".join(lines) + "\n"


def test_parse_time_is_linear_in_the_contexts():
    """Contexts are found by dict, not by a scan of those declared before:
    per context, a 16000-context cycle parses within 3x of a 2000-context
    one (best of 3 each)."""
    per_context = {}
    for n in (2000, 16000):
        text = _binary_cycle_text(n)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            f = parse_file(text)
            best = min(best, time.perf_counter() - start)
        assert len(f.model.tables) == n
        per_context[n] = best / n
    assert per_context[16000] < 3 * per_context[2000], per_context


# ------------------------------------------------------------ state size


OVERFLOWING_STATE = (
    "scenario big\nobservable X outcomes 0 1\ncontext X\n"
    "measure X site 0 basis computational labels 0 1\n\n"
    "state 65536 65536 65536 65536 65536\n  amp 0 1.0 0.0\n"
)
UNALLOCATABLE_STATE = (
    "scenario big\nobservable X outcomes 0 1\ncontext X\n"
    "measure X site 0 basis computational labels 0 1\n\n"
    "state 100000 100000 100000 100000\n  amp 0 1.0 0.0\n"
)


def test_state_size_is_exact_and_guarded():
    """65536**5 = 2**80 wrapped to 0 in an int64 product, so the first amp
    row was reported out of range; 10**20 amplitudes reached numpy's
    unlocated allocation error. Both stop on the state line."""
    for text, size in ((OVERFLOWING_STATE, 2**80), (UNALLOCATABLE_STATE, 10**20)):
        err = expect_error(text, f"state of {size} amplitudes exceeds", 6, 1)
        assert "2**24" in str(err)
    text = "scenario s\nobservable X outcomes 0 1\ncontext X\nstate 2 2\n  amp 4 1.0 0.0\n"
    expect_error(text, "amplitude index 4 out of range for dimension 4", 5, 7)
    # 2**24 amplitudes pass the guard; the row stops the parse before the
    # state is allocated
    text = "scenario s\nobservable X outcomes 0 1\ncontext X\nstate 4096 4096\n  amp 16777216 1.0 0.0\n"
    expect_error(text, "amplitude index 16777216 out of range for dimension 16777216", 5, 7)
    expect_error(text.replace("4096 4096", "4096 4097"), "state of 16781312 amplitudes", 4, 1)


# ----------------------------------------------------------- chain depth


def _chain_text(dim: int, agents: int) -> str:
    chains = "".join(f"chain F{k} basis computational\n" for k in range(agents))
    return f"scenario deep\n\nstate {dim}\n  amp 0 1.0 0.0\n\n{chains}"


def test_chain_compound_dimension_is_guarded(monkeypatch):
    """Each agent squares the compound dimension. Up to 2**10 the chain is
    built; the first agent past it stops the parse on its chain line before
    its basis is made (at 2**32, numpy's unlocated allocation error)."""
    assert [a.basis.dim for a in parse_file(_chain_text(2, 3)).chain.agents] == [2, 4, 16]
    assert parse_file(_chain_text(32, 1)).chain.agents[0].basis.dim == 32
    built = []
    real = scnformat.computational_basis
    monkeypatch.setattr(
        scnformat, "computational_basis", lambda *a: built.append(a[0]) or real(*a)
    )
    for agents in (4, 5):
        err = expect_error(
            _chain_text(2, agents),
            "chain agent 'F3' makes the compound dimension 65536, above the "
            "2**10 chain guard",
            9,
        )
        assert err.col is None
    assert built == [2, 4, 16] * 2
    expect_error(_chain_text(33, 1), "compound dimension 1089", 6)
