"""Built-in realizations and sentence extraction.

hardy_realization constructs the two-qubit model whose tables drive most of
the test corpus. friendify rewrites a realization so that every measured
qubit drags an explicit memory qubit along: measurements become two-site
observables on the system-memory pair, with the consistent outcomes keeping
their labels and the orthogonal complement exposed as "inc*" outcomes
instead of being silently projected away. certain_implications turns a
model's tables into the sentences "if X reads a then Y reads b".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence, Union

import numpy as np

from .qstate import (
    EPS_ZERO,
    SiteBasis,
    StateVector,
    computational_basis,
    diagonal_basis,
    premeasure,
)
from .scenario import (
    ContextKey,
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
)

EPS_CERTAIN = 1e-9
INCONSISTENT_PREFIX = "inc"

__all__ = [
    "EPS_CERTAIN",
    "INCONSISTENT_PREFIX",
    "CertainImplication",
    "ProbabilityStatement",
    "Sentence",
    "Friendified",
    "hardy_realization",
    "friendify",
    "fr_realization",
    "certain_implications",
]


@dataclass(frozen=True)
class CertainImplication:
    """In `context`, whenever the premise observable shows its value, the
    conclusion observable shows its value with conditional probability 1."""

    context: ContextKey
    premise: tuple[str, str]
    conclusion: tuple[str, str]

    kind: ClassVar[str] = "CertainImplication"

    def holds_in(self, m: EmpiricalModel, tol: float = EPS_CERTAIN) -> bool:
        ctx = tuple(self.context)
        pi = ctx.index(self.premise[0])
        ci = ctx.index(self.conclusion[0])
        base = joint = 0.0
        for tup, p in m.tables[ctx].items():
            if tup[pi] == self.premise[1]:
                base += p
                if tup[ci] == self.conclusion[1]:
                    joint += p
        if base <= EPS_ZERO:
            return False
        return joint / base >= 1.0 - tol


@dataclass(frozen=True)
class ProbabilityStatement:
    """One joint event of one context carries this probability."""

    context: ContextKey
    event: tuple[str, ...]
    probability: float

    kind: ClassVar[str] = "ProbabilityStatement"

    def holds_in(self, m: EmpiricalModel, tol: float = EPS_CERTAIN) -> bool:
        return abs(m.tables[tuple(self.context)][self.event] - self.probability) <= tol


Sentence = Union[CertainImplication, ProbabilityStatement]


def hardy_realization() -> tuple[QuantumRealization, Scenario]:
    """Two qubits in (|00> + |10> + |11>)/sqrt(3), each site measured either
    in the computational or the diagonal basis."""
    amp = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0)
    state = StateVector((2, 2), amp)
    recipes = {
        "A_c": MeasurementRecipe((0,), computational_basis()),
        "A_d": MeasurementRecipe((0,), diagonal_basis()),
        "B_c": MeasurementRecipe((1,), computational_basis()),
        "B_d": MeasurementRecipe((1,), diagonal_basis()),
    }
    sc = Scenario(
        (
            Observable("A_c", ("0", "1")),
            Observable("A_d", ("+", "-")),
            Observable("B_c", ("0", "1")),
            Observable("B_d", ("+", "-")),
        ),
        (
            ("A_d", "B_c"),
            ("A_c", "B_c"),
            ("A_c", "B_d"),
            ("A_d", "B_d"),
        ),
    )
    return QuantumRealization(state, recipes), sc


class Friendified(NamedTuple):
    realization: QuantumRealization
    scenario: Scenario
    label_map: dict[str, str]


def _is_observer_like(basis: SiteBasis) -> bool:
    """A basis that only permutes the computational one (up to phase) keeps
    records directly readable; anything else lives at the meta level."""
    mags = np.abs(np.asarray(basis.vectors))
    return bool(
        np.allclose(mags @ mags.T, np.eye(len(mags)), atol=1e-9)
        and np.allclose(np.sort(mags, axis=1)[:, :-1], 0.0, atol=1e-9)
    )


def _meta_label(label: str, observer_like: bool) -> str:
    stem = label
    if label.endswith("_c") or label.endswith("_d"):
        stem = label[:-2]
    return stem + ("_obs" if observer_like else "_meta")


def friendify(qr: QuantumRealization, sc: Scenario) -> Friendified:
    """Append a memory qubit to every measured site and lift each single-site
    observable to the pair.

    A basis vector v becomes v0|00> + v1|11> on (site, memory) and keeps its
    outcome label; the matching v0|01> + v1|10> completes the basis and is
    labeled inc<outcome>. Computational observables are renamed *_obs,
    all others *_meta. Only single-qubit observables can be lifted.
    """
    measured = sorted({s for r in qr.recipes.values() for s in r.sites})
    for r in qr.recipes.values():
        if len(r.sites) != 1:
            raise ValueError(
                "only single-site observables can be friendified"
            )
    for s in measured:
        if qr.state.sites[s] != 2:
            raise ValueError(
                f"measured site {s} has dimension {qr.state.sites[s]}, "
                f"friendification needs qubit sites"
            )

    state = qr.state
    partner = {}
    n = len(state.sites)
    for k, s in enumerate(measured):
        state = premeasure(state, s, computational_basis())
        partner[s] = n + k

    label_map: dict[str, str] = {}
    new_obs: list[Observable] = []
    new_recipes: dict[str, MeasurementRecipe] = {}
    for obs in sc.observables:
        recipe = qr.recipes[obs.label]
        site = recipe.sites[0]
        old = np.asarray(recipe.basis.vectors)
        labels = recipe.mapped_labels()
        vectors = []
        for v in old:
            vectors.append((v[0], 0.0, 0.0, v[1]))  # v0|00> + v1|11>
        for v in old:
            vectors.append((0.0, v[0], v[1], 0.0))  # v0|01> + v1|10>
        new_labels = tuple(labels) + tuple(
            INCONSISTENT_PREFIX + l for l in labels
        )
        basis = SiteBasis(tuple(vectors), new_labels)
        new_label = _meta_label(obs.label, _is_observer_like(recipe.basis))
        label_map[obs.label] = new_label
        new_obs.append(
            Observable(
                new_label,
                tuple(obs.outcomes)
                + tuple(INCONSISTENT_PREFIX + l for l in labels),
            )
        )
        new_recipes[new_label] = MeasurementRecipe(
            (site, partner[site]), basis
        )
    new_contexts = tuple(
        tuple(label_map[l] for l in ctx) for ctx in sc.contexts
    )
    return Friendified(
        QuantumRealization(state, new_recipes),
        Scenario(tuple(new_obs), new_contexts),
        label_map,
    )


def fr_realization() -> Friendified:
    """The friendified Hardy setup."""
    return friendify(*hardy_realization())


def _implication_triples(m: EmpiricalModel):
    """(context, premise, conclusion) of every single-premise implication
    that holds with certainty, in the order certain_implications lists them."""
    sc = m.scenario
    for ctx in sc.contexts:
        rows = list(m.tables[ctx].items())
        outcomes = [sc.observable(label).outcomes for label in ctx]
        for pi, premise_obs in enumerate(ctx):
            # one sweep groups the rows by premise value, in row order: a sum()
            # over a list adds as a sum() over the filtered rows did
            groups: dict[str, list[tuple[tuple[str, ...], float]]] = {}
            for row in rows:
                groups.setdefault(row[0][pi], []).append(row)
            for va in outcomes[pi]:
                group = groups.get(va, ())
                base = sum([p for _, p in group])
                if base <= EPS_ZERO:
                    continue
                premise = (premise_obs, va)
                for ci, conclusion_obs in enumerate(ctx):
                    if ci == pi:
                        continue
                    joint: dict[str, list[float]] = {}
                    for tup, p in group:
                        joint.setdefault(tup[ci], []).append(p)
                    for vb in outcomes[ci]:
                        ps = joint.get(vb)
                        if ps is not None and sum(ps) / base >= 1.0 - EPS_CERTAIN:
                            yield ctx, premise, (conclusion_obs, vb)


def certain_implications(
    m: EmpiricalModel,
    queries: Sequence[ContextKey | tuple[ContextKey, tuple[str, ...]]] = (),
) -> list[Sentence]:
    """All single-premise implications that hold with certainty, then one
    ProbabilityStatement per query.

    An implication is emitted when the premise value has positive marginal
    and the conclusion value carries all of its conditional mass within
    1e-9. Order: contexts as declared, premise position in context order,
    premise values in declared order, conclusion position in context order.

    A query is either a context key (reports that context's rarest nonzero
    joint event, earliest row on ties) or a (context, event) pair (reports
    that event's table probability).
    """
    sentences: list[Sentence] = [
        CertainImplication(*t) for t in _implication_triples(m)
    ]
    for query in queries:
        if query and isinstance(query[0], str):
            ctx = tuple(query)
            table = m.tables[ctx]
            best = None
            for tup, p in table.items():
                if p > EPS_ZERO and (best is None or p < best[1]):
                    best = (tup, p)
            if best is None:
                raise ValueError(f"context {ctx} has no nonzero event")
            event, p = best
        else:
            ctx, event = tuple(query[0]), tuple(query[1])
            p = m.tables[ctx][event]
        sentences.append(ProbabilityStatement(ctx, event, p))
    return sentences
