"""Deterministic analysis reports: plain-text and JSON renderings of the
full pipeline (no-disturbance, classification, sentences, liar cycle,
noncontextual fraction, claim verdicts; cut comparisons for chains).

The report value itself is JSON-shaped: every field is built from lists,
dicts, strings, numbers, and None, so `as_dict` / `from_dict` are loss-free
and the text rendering of a re-parsed JSON report is byte-identical to the
original. Probabilities carry a float value plus, whenever the model's
tables are exact rationals (directly or after snapping small denominators),
the exact `p/q` string alongside.

JSON is written by a small direct writer (`_encode`) whose bytes equal
`json.dumps(report, indent=2, sort_keys=True)`. With an indent the stdlib
always falls back to its pure-Python encoder, which yields every piece
through nested generators; the writer instead appends each inline value,
joined to the separator, newline, indent and key before it, to one list
and joins it once. Within one report it sorts and encodes the keys of
each dict layout once, and encodes each list of strings at each indent
once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from .builders import CertainImplication, _implication_triples
from .logic import LiarCycle, _classify, _default_seed, liar_cycles
from .metacontext import (
    AssumptionSet,
    ObserverChain,
    Verdict,
    _coherent_basis,
    _tv,
    check_claims,
    claims_for_cycle,
    computational_final_basis,
    describe,
    mixture_born,
)
from .ncpoly import EPS_ND_PRECONDITION, SignallingModelError, contextual_fraction
from .scenario import (
    EPS_ND,
    EPS_SUPPORT,
    ContextKey,
    EmpiricalModel,
    Scenario,
    _require_support,
    no_disturbance,
    snap_to_rationals,
    support_of,
)

__all__ = [
    "EPS_DISPLAY_ZERO",
    "DEFAULT_ASSUMPTION_SETS",
    "AnalysisReport",
    "model_report",
    "chain_report",
    "scenario_report",
    "render_text",
    "render_json",
]

# display-only: values this close to zero are float noise, not signal
EPS_DISPLAY_ZERO = 1e-12

# the full set plus each single-flag drop; shows which toggles carry weight
DEFAULT_ASSUMPTION_SETS = (
    "Q,NMC,NC,S",
    "NMC,NC,S",
    "Q,NC,S",
    "Q,NMC,S",
    "Q,NMC,NC",
)

NOTE_S_STRUCTURAL = (
    "single outcomes per measurement (S) hold structurally here; the flag "
    "is recorded but never gates a step"
)

ALL_SECTIONS = frozenset({"nd", "logic", "sentences", "cycle", "ncf", "claims"})


@dataclass(frozen=True)
class AnalysisReport:
    """JSON-shaped analysis results; unused sections are None."""

    name: str
    kind: str  # "model" | "chain" | "scenario"
    eps: float
    no_disturbance: dict | None = None
    classification: str | None = None
    global_sections: int | None = None
    sentences: list | None = None
    liar_cycle: dict | None = None
    fraction: dict | None = None
    claims: dict | None = None
    cuts: dict | None = None
    notes: list | None = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


# -------------------------------------------------------------- primitives


def _clean(x: float) -> float:
    return 0.0 if abs(x) < EPS_DISPLAY_ZERO else float(x)


def _entry(value: float, exact: Fraction | None) -> dict:
    return {
        "value": _clean(value),
        "exact": None if exact is None else str(exact),
    }


def _impl_dict(context, premise, conclusion) -> dict:
    return {
        "kind": "CertainImplication",
        "context": list(context),
        "premise": list(premise),
        "conclusion": list(conclusion),
    }


def _sentence_dict(s, exact: Fraction | None = None) -> dict:
    if isinstance(s, CertainImplication):
        return _impl_dict(s.context, s.premise, s.conclusion)
    return {
        "kind": "ProbabilityStatement",
        "context": list(s.context),
        "event": list(s.event),
        "probability": _entry(s.probability, exact),
    }


def _event_dict(m: EmpiricalModel, ctx: ContextKey, outcome) -> dict:
    dist = m.tables[tuple(ctx)]
    exact = dist.exact[tuple(outcome)] if dist.exact is not None else None
    return {
        "context": list(ctx),
        "outcome": list(outcome),
        "probability": _entry(dist[tuple(outcome)], exact),
    }


def _work_model(m: EmpiricalModel) -> EmpiricalModel:
    """Model used for reporting: exact tables when available, else snapped
    to small rationals when every entry is one, else the floats as given."""
    if m.exact_available:
        return m
    return snap_to_rationals(m) or m


def _cycle_dict(m: EmpiricalModel, cycle: LiarCycle) -> dict:
    obs, established, forced = cycle.contradiction
    return {
        "seed": _event_dict(m, *cycle.seed),
        "steps": [
            _impl_dict(s.context, s.premise, s.conclusion) for s in cycle.steps
        ],
        "contradiction": {
            "observable": obs,
            "established": established,
            "forced": forced,
        },
    }


def _fraction_dict(m: EmpiricalModel) -> dict:
    fr = contextual_fraction(m)
    cf_exact = None if fr.ncf_exact is None else 1 - fr.ncf_exact
    labels = [o.label for o in m.scenario.observables]
    witness = []
    for assignment, weight in fr.witness.items():
        exact = (
            fr.witness_exact.get(assignment)
            if fr.witness_exact is not None
            else None
        )
        witness.append(
            {
                "assignment": [list(p) for p in zip(labels, assignment)],
                "weight": _entry(weight, exact),
            }
        )
    return {
        "ncf": _entry(fr.ncf, fr.ncf_exact),
        "cf": _entry(fr.cf, cf_exact),
        "witness": witness,
    }


def _verdict_dict(v: Verdict) -> dict:
    trace = []
    for step in v.trace:
        trace.append(
            {
                "agent": step.claim.agent,
                "meta_context": list(step.claim.meta_context),
                "sentence": _sentence_dict(step.claim.proposition),
                "observable": step.observable,
                "value": step.value,
            }
        )
    conflict = None
    if v.conflict is not None:
        obs, established, forced = v.conflict
        conflict = {
            "observable": obs,
            "established": established,
            "forced": forced,
        }
    return {
        "assumptions": v.assumptions.label(),
        "outcome": v.outcome,
        "trace": trace,
        "conflict": conflict,
    }


def _claims_dict(
    m: EmpiricalModel,
    cycle: LiarCycle,
    assumption_sets: Sequence[str],
) -> dict:
    claims = claims_for_cycle(m, cycle)
    seed_ctx, seed_event = cycle.seed
    serialized = []
    for c in claims:
        exact = None
        if not isinstance(c.proposition, CertainImplication):
            dist = m.tables[tuple(c.proposition.context)]
            if dist.exact is not None:
                exact = dist.exact[tuple(c.proposition.event)]
        serialized.append(
            {
                "agent": c.agent,
                "meta_context": list(c.meta_context),
                "sentence": _sentence_dict(c.proposition, exact),
            }
        )
    verdicts = []
    for text in assumption_sets:
        aset = AssumptionSet.parse(text)
        verdicts.append(
            _verdict_dict(check_claims(claims, aset, (seed_ctx, seed_event)))
        )
    return {
        "claims": serialized,
        "seed": {"context": list(seed_ctx), "outcome": list(seed_event)},
        "verdicts": verdicts,
    }


# ----------------------------------------------------------------- builders


def model_report(
    m: EmpiricalModel,
    name: str,
    eps: float = EPS_SUPPORT,
    seed: tuple[Sequence[str], Sequence[str]] | None = None,
    assumption_sets: Sequence[str] = DEFAULT_ASSUMPTION_SETS,
    sections: frozenset[str] = ALL_SECTIONS,
) -> AnalysisReport:
    if unknown := sections - ALL_SECTIONS:
        raise ValueError(f"unknown report sections: {', '.join(sorted(unknown))}")
    work = _work_model(m)
    # the support is built only for the sections that read it; a degenerate
    # model is rejected either way
    if sections.isdisjoint(("logic", "cycle", "claims")):
        _require_support(work, eps)
        p = None
    else:
        p = support_of(work, eps)
    notes: list[str] = []
    values: dict = {}

    if "nd" in sections:
        violation, _ = no_disturbance(work)
        values["no_disturbance"] = {
            "max_violation": _clean(violation),
            "pass": bool(violation <= EPS_ND),
            "tolerance": EPS_ND,
        }
    covered = frozenset()
    if "logic" in sections:
        classification, values["global_sections"], covered = _classify(p)
        values["classification"] = classification.value
    if "sentences" in sections:
        values["sentences"] = [_impl_dict(*t) for t in _implication_triples(work)]

    cycle = None
    if "cycle" in sections or "claims" in sections:
        if seed is None:
            cycle = _default_seed(p, covered)
        else:
            chosen = (tuple(seed[0]), tuple(seed[1]))
            cycle = liar_cycles(p, chosen)
            if cycle is None and "cycle" in sections:
                values["liar_cycle"] = {
                    "seed": _event_dict(work, *chosen),
                    "steps": [],
                    "contradiction": None,
                }
        if cycle is not None and "cycle" in sections:
            values["liar_cycle"] = _cycle_dict(work, cycle)

    if "ncf" in sections:
        try:
            values["fraction"] = _fraction_dict(work)
        except SignallingModelError:
            notes.append(
                "noncontextual fraction not computed: marginals disagree "
                f"beyond {EPS_ND_PRECONDITION!r} (signalling model)"
            )
    if "claims" in sections and cycle is not None:
        values["claims"] = _claims_dict(work, cycle, assumption_sets)
        notes.append(NOTE_S_STRUCTURAL)

    return AnalysisReport(
        name=name, kind="model", eps=eps, notes=notes or None, **values
    )


def chain_report(chain: ObserverChain, name: str, eps: float = EPS_SUPPORT) -> AnalysisReport:
    """Cut-by-cut comparison under the two canonical final measurements:
    memory-computational (record readout) and the coherent family. Each cut
    is described once and measured once per family; comparisons read those."""
    ensembles = [describe(chain, cut) for cut in range(len(chain.agents) + 1)]
    families = (
        ("memory-computational", computational_final_basis(chain)),
        ("coherent", _coherent_basis(ensembles[-1].branches[0][1])),
    )
    fam_dicts = []
    for fam_name, basis in families:
        dists = [mixture_born(e, basis) for e in ensembles]
        fam_dicts.append(
            {
                "basis": fam_name,
                "distributions": [
                    {"cut": cut, "probabilities": [[" ".join(k), _clean(v)] for k, v in d.items()]}
                    for cut, d in enumerate(dists)
                ],
                "comparisons": [
                    {"cut_a": a, "cut_b": b, "tv": _clean(_tv(dists[a], dists[b]))}
                    for a, b in combinations(range(len(dists)), 2)
                ],
            }
        )
    cuts = {"agents": [a.name for a in chain.agents], "families": fam_dicts}
    return AnalysisReport(name=name, kind="chain", eps=eps, cuts=cuts)


def scenario_report(sc: Scenario, name: str, eps: float = EPS_SUPPORT) -> AnalysisReport:
    notes = [
        f"bare scenario: {len(sc.observables)} observables, "
        f"{len(sc.contexts)} contexts, no tables or state to analyze"
    ]
    return AnalysisReport(name=name, kind="scenario", eps=eps, notes=notes)


# ---------------------------------------------------------------- rendering


def _num(entry: dict) -> str:
    value = repr(float(entry["value"]))
    if entry["exact"] is not None:
        return f"{entry['exact']} ({value})"
    return value


def _ctx_text(context: list) -> str:
    return "[" + " ".join(context) + "]"


def _sentence_text(d: dict) -> str:
    if d["kind"] == "CertainImplication":
        (po, pv), (co, cv) = d["premise"], d["conclusion"]
        return f"{_ctx_text(d['context'])} {po}={pv} => {co}={cv}"
    event = " ".join(d["event"])
    return f"{_ctx_text(d['context'])} P({event}) = {_num(d['probability'])}"


def _conflict_text(c: dict) -> str:
    return (
        f"{c['observable']}: {c['established']} established, "
        f"{c['forced']} forced"
    )


def render_text(r: AnalysisReport) -> str:
    lines = [f"scenario: {r.name}", f"kind: {r.kind}", f"support eps: {repr(float(r.eps))}"]
    if r.no_disturbance is not None:
        nd = r.no_disturbance
        status = "pass" if nd["pass"] else "FAIL"
        lines.append(
            f"no-disturbance: max violation {repr(float(nd['max_violation']))} "
            f"({status}, tolerance {repr(float(nd['tolerance']))})"
        )
    if r.classification is not None:
        lines.append(f"classification: {r.classification}")
    if r.global_sections is not None:
        lines.append(f"global sections: {r.global_sections}")
    if r.sentences is not None:
        lines.append(f"sentences ({len(r.sentences)}):")
        for s in r.sentences:
            lines.append("  " + _sentence_text(s))
    if r.liar_cycle is not None:
        lines.append("liar cycle:")
        seed = r.liar_cycle["seed"]
        outcome = " ".join(seed["outcome"])
        lines.append(
            f"  seed {_ctx_text(seed['context'])} ({outcome}) "
            f"probability {_num(seed['probability'])}"
        )
        for i, step in enumerate(r.liar_cycle["steps"], start=1):
            lines.append(f"  {i}. " + _sentence_text(step))
        contradiction = r.liar_cycle["contradiction"]
        if contradiction is None:
            lines.append("  no contradiction: propagation closes")
        else:
            lines.append("  contradiction: " + _conflict_text(contradiction))
    if r.fraction is not None:
        lines.append(f"noncontextual fraction: {_num(r.fraction['ncf'])}")
        lines.append(f"contextual fraction: {_num(r.fraction['cf'])}")
        witness = r.fraction["witness"]
        lines.append(f"witness ({len(witness)} rows):")
        for row in witness:
            cells = " ".join(f"{o}={v}" for o, v in row["assignment"])
            lines.append(f"  {cells} weight {_num(row['weight'])}")
    if r.claims is not None:
        seed = r.claims["seed"]
        outcome = " ".join(seed["outcome"])
        lines.append(
            f"claims ({len(r.claims['claims'])}) from seed "
            f"{_ctx_text(seed['context'])} ({outcome}):"
        )
        for c in r.claims["claims"]:
            lines.append(
                f"  {c['agent']} in {_ctx_text(c['meta_context'])}: "
                + _sentence_text(c["sentence"])
            )
        for v in r.claims["verdicts"]:
            lines.append(f"  assumptions {v['assumptions']}: {v['outcome']}")
            for i, step in enumerate(v["trace"], start=1):
                lines.append(
                    f"    {i}. {step['agent']} "
                    + _sentence_text(step["sentence"])
                    + f" gives {step['observable']}={step['value']}"
                )
            if v["conflict"] is not None:
                lines.append("    conflict: " + _conflict_text(v["conflict"]))
    if r.cuts is not None:
        lines.append(f"cuts (agents: {' '.join(r.cuts['agents'])}):")
        for fam in r.cuts["families"]:
            lines.append(f"  final basis {fam['basis']}:")
            for d in fam["distributions"]:
                cells = " ".join(
                    f"P({k})={repr(float(v))}" for k, v in d["probabilities"]
                )
                lines.append(f"    cut {d['cut']}: {cells}")
            for c in fam["comparisons"]:
                lines.append(
                    f"    tv cut {c['cut_a']} vs cut {c['cut_b']}: "
                    f"{repr(float(c['tv']))}"
                )
    if r.notes:
        lines.append("notes:")
        for note in r.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"


_float_repr = float.__repr__
_int_repr = int.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(o, nl: str = "\n") -> str:
    """o as `json.dumps(o, indent=2, sort_keys=True)` writes it, where nl is
    the newline and indent of the line o starts on. Dict keys must be str.
    Every piece is appended to one list, which is joined once."""
    out: list[str] = []
    _write(o, nl, out, {}, {})
    return "".join(out)


def _write(
    o,
    nl: str,
    out: list[str],
    layouts: dict[tuple, tuple[list[str], list[str], str, str, str]],
    texts: dict[tuple, str],
) -> None:
    """Append the pieces of o to out, one per item: the text before the item
    (separator, newline, indent and, in a dict, the encoded key) joined to
    the item when it is written inline, as values of exact builtin types and
    lists of str are; anything else goes through _dumps. Both caches live for one _encode call: layouts maps
    (nl, *keys) of each dict met, keys in insertion order, to its sorted
    keys, the text before each of their values, its closing line and the
    indents of its items and of theirs; texts maps (indent, *items) of each
    list of str met to its encoded text. They are two dicts because a dict's
    keys and a list's items can make equal tuples."""
    put = out.append
    t = type(o)
    if t is dict:
        if not o:
            put("{}")
            return
        key = (nl, *o)
        layout = layouts.get(key)
        if layout is None:
            inner = nl + "  "
            sep = "," + inner
            keys = sorted(o)
            heads = [sep + k + ": " for k in map(_encode_str, keys)]
            heads[0] = "{" + heads[0][1:]
            layout = layouts[key] = (keys, heads, nl + "}", inner, inner + "  ")
        keys, heads, close, inner, deeper = layout
        pairs = zip(heads, map(o.__getitem__, keys))
    elif t is list or t is tuple:
        if not o:
            put("[]")
            return
        inner = nl + "  "
        deeper = inner + "  "
        pairs = zip(chain(("[" + inner,), repeat("," + inner)), o)
        close = nl + "]"
    else:
        put(_dumps(o, nl))
        return
    for head, v in pairs:
        t = type(v)
        if t is str:
            put(head + _encode_str(v))
        elif t is list and v and type(v[0]) is str and type(v[-1]) is str:
            key = (inner, *v)
            try:
                text = texts.get(key)
                if text is None:
                    text = texts[key] = "[" + deeper + ("," + deeper).join(map(_encode_str, v)) + inner + "]"
            except TypeError:  # an item is unhashable, or not a str
                text = _dumps(v, inner)
            put(head + text)
        elif t is float:
            r = _float_repr(v)
            put(head + _NONFINITE.get(r, r))
        elif t is int:
            put(head + _int_repr(v))
        elif v is None:
            put(head + "null")
        elif t is bool:
            put(head + ("true" if v else "false"))
        else:
            put(head)
            _write(v, inner, out, layouts, texts)
    put(close)


def _dumps(o, nl: str) -> str:
    """o as json writes it, on a line whose newline and indent are nl: no
    JSON string holds a raw newline, so every newline in the text starts a
    line."""
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", nl)


def render_json(r: AnalysisReport) -> str:
    return _encode(r.as_dict()) + "\n"
