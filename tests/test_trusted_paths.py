"""The parser, snap_to_rationals and support_of build their models from
parts they have already checked, through each class's private
_from_checked, which checks nothing. Each object they build must equal,
field by field, the one the public constructors build from the same parts:
every dict in the same key order, every number of the same type and repr,
and the tolerance, which Distribution's equality ignores."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import contextuality
from contextuality.qstate import Distribution
from contextuality.scenario import (
    EPS_SUPPORT,
    EmpiricalModel,
    Observable,
    PossibilisticModel,
    Scenario,
    realize,
    snap_to_rationals,
    support_of,
)
from contextuality.scnformat import FILE_SUM_TOL, parse_file, serialize_model

DATA_DIR = Path(contextuality.__file__).parent / "data"


def _parts(value):
    """value with each model's fields in order, each dict's items in order,
    and each number as its type and repr, so that == compares them all."""
    if isinstance(value, (Distribution, EmpiricalModel, PossibilisticModel)):
        fields = dataclasses.fields(value)
        return type(value), [(f.name, _parts(getattr(value, f.name))) for f in fields]
    if isinstance(value, dict):
        return [(k, _parts(v)) for k, v in value.items()]
    if isinstance(value, (float, Fraction)):
        return type(value), repr(value)
    return value


def _reversed(d: dict | None) -> dict | None:
    return None if d is None else dict(reversed(d.items()))


def _public(m: EmpiricalModel) -> EmpiricalModel:
    """m's parts through the public constructors, every dict handed over in
    reverse, so that only the constructors' own ordering can restore it."""
    tables = {
        ctx: Distribution(_reversed(d.probs), _reversed(d.exact), tol=d.tol)
        for ctx, d in m.tables.items()
    }
    return EmpiricalModel(m.scenario, _reversed(tables))


def check_model(m: EmpiricalModel) -> None:
    """snap_to_rationals and support_of on m each equal the public
    constructors' build from m's floats and their own fractions and
    supports."""
    snapped = snap_to_rationals(m)
    if snapped is not None:
        tables = {
            ctx: Distribution(
                _reversed(m.tables[ctx].probs),
                _reversed(snapped.tables[ctx].exact),
                tol=m.tables[ctx].tol,
            )
            for ctx in m.tables
        }
        assert _parts(snapped) == _parts(EmpiricalModel(m.scenario, _reversed(tables)))
    supports = {
        ctx: [t for t, p in reversed(d.probs.items()) if p > EPS_SUPPORT]
        for ctx, d in reversed(m.tables.items())
    }
    public = PossibilisticModel(m.scenario, supports)
    assert _parts(support_of(m)) == _parts(public)


def check_text(text: str) -> None:
    """Every model a file declares, parsed and realized, passes check_model;
    a parsed model equals the public constructors' build of its parts."""
    f = parse_file(text)
    if f.model is not None:
        assert _parts(f.model) == _parts(_public(f.model))
        check_model(f.model)
    if f.realization is not None:
        check_model(realize(f.realization, f.scenario))


def test_corpus_files():
    paths = sorted(DATA_DIR.glob("*.scn"))
    assert paths
    for path in paths:
        check_text(path.read_text(encoding="utf-8"))


def test_parse_mutants_that_parse():
    import parse_pins

    pinned = json.loads(parse_pins.PINS.read_text(encoding="utf-8"))
    parsed = [text for key, text in parse_pins.mutants().items() if pinned[key] == "ok"]
    assert parsed
    for text in parsed:
        check_text(text)


def test_pinned_report_models():
    import report_pins

    for _, m in report_pins.pinned_models():
        check_model(m)
        check_text(serialize_model(m, "pinned"))


@st.composite
def table_files(draw):
    """(file text, the public constructors' model of it): 1-3 observables
    of 2-4 outcomes, 1-3 drawn contexts and one more for each observable
    they leave out, and a rational table per context; the tables and their
    rows are written in drawn order, each row as p/q or, now and then, as
    the float's decimal literal."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    observables = tuple(
        Observable(f"X{i}", tuple(f"o{j}" for j in range(k))) for i, k in enumerate(sizes)
    )
    labels = [o.label for o in observables]
    context = st.permutations(labels).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
    )
    contexts = draw(st.lists(context, min_size=1, max_size=3, unique_by=frozenset))
    contexts += [(l,) for l in labels if all(l not in c for c in contexts)]
    sc = Scenario(observables, tuple(contexts))
    lines = ["scenario random"]
    lines += [f"observable {o.label} outcomes {' '.join(o.outcomes)}" for o in observables]
    lines += [f"context {' '.join(c)}" for c in contexts]
    tables = {}
    for ctx in draw(st.permutations(contexts)):
        rows = draw(st.permutations(sc.joint_outcomes(ctx)))
        n = len(rows)
        weights = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).filter(any))
        fracs = [Fraction(w, sum(weights)) for w in weights]
        decimal = draw(st.lists(st.sampled_from([False] * 4 + [True]), min_size=n, max_size=n))
        lines.append(f"table {' '.join(ctx)}")
        lines += [
            f"  {' '.join(t)} {repr(float(q)) if dec else q}"
            for t, q, dec in zip(rows, fracs, decimal)
        ]
        exact = None if any(decimal) else dict(zip(rows, fracs))
        probs = dict(zip(rows, map(float, fracs)))
        tables[ctx] = Distribution(probs, exact, tol=FILE_SUM_TOL)
    return "\n".join(lines) + "\n", EmpiricalModel(sc, tables)


@settings(max_examples=150, deadline=None)
@given(table_files())
def test_random_rational_tables(case):
    text, public = case
    assert _parts(parse_file(text).model) == _parts(public)
    check_text(text)
