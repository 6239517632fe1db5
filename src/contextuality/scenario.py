"""Measurement scenarios, empirical models, and their quantum realizations.

A scenario fixes which observables exist and which of them can be measured
together (contexts). An empirical model attaches one probability table per
context. A quantum realization attaches a state plus a measurement recipe per
observable; realize() turns it into an empirical model through the Born rule.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .qstate import Distribution, SiteBasis, StateVector, born_weights

EPS_ND = 1e-9
EPS_SUPPORT = 1e-9

ContextKey = tuple[str, ...]

__all__ = [
    "EPS_ND",
    "EPS_SUPPORT",
    "ContextKey",
    "Observable",
    "Scenario",
    "EmpiricalModel",
    "MeasurementRecipe",
    "QuantumRealization",
    "PossibilisticModel",
    "NoDisturbanceRecord",
    "realize",
    "no_disturbance",
    "support_of",
    "marginal",
    "snap_to_rationals",
]


@dataclass(frozen=True)
class Observable:
    """A measurement with a label and an ordered finite outcome set."""

    label: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        label = str(self.label)
        outcomes = tuple(str(o) for o in self.outcomes)
        if not label:
            raise ValueError("observable label must be nonempty")
        if not outcomes:
            raise ValueError(f"observable {label!r} needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError(f"observable {label!r} has duplicate outcomes")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "outcomes", outcomes)


@dataclass(frozen=True)
class Scenario:
    """Observables plus the contexts (jointly measurable subsets, ordered)."""

    observables: tuple[Observable, ...]
    contexts: tuple[ContextKey, ...]
    _by_label: dict[str, Observable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        observables = tuple(self.observables)
        contexts = tuple(tuple(str(l) for l in c) for c in self.contexts)
        labels = [o.label for o in observables]
        if not contexts:
            raise ValueError("a scenario needs at least one context")
        if len(set(labels)) != len(labels):
            raise ValueError("observable labels must be distinct")
        known = set(labels)
        seen_sets: set[frozenset[str]] = set()
        for ctx in contexts:
            if not ctx:
                raise ValueError("empty context")
            for l in ctx:
                if l not in known:
                    raise ValueError(f"context references unknown observable {l!r}")
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"context {ctx} repeats an observable")
            key = frozenset(ctx)
            if key in seen_sets:
                raise ValueError(f"duplicate context {ctx}")
            seen_sets.add(key)
        covered = {l for ctx in contexts for l in ctx}
        missing = known - covered
        if missing:
            raise ValueError(
                f"observables {sorted(missing)} appear in no context"
            )
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "_by_label", {o.label: o for o in observables})

    def observable(self, label: str) -> Observable:
        return self._by_label[label]

    def joint_outcomes(self, context: Sequence[str]) -> list[tuple[str, ...]]:
        """Every joint outcome tuple of a context, in declared-outcome
        lexicographic order."""
        sets = [self.observable(l).outcomes for l in context]
        return [tuple(t) for t in itertools.product(*sets)]

    def assignment_space(self) -> int:
        n = 1
        for o in self.observables:
            n *= len(o.outcomes)
        return n


@dataclass(frozen=True)
class EmpiricalModel:
    """One probability table per context over that context's joint outcomes."""

    scenario: Scenario
    tables: dict[ContextKey, Distribution]

    def __post_init__(self) -> None:
        tables: dict[ContextKey, Distribution] = {}
        for ctx in self.scenario.contexts:
            if ctx not in self.tables:
                raise ValueError(f"missing table for context {ctx}")
            dist = self.tables[ctx]
            expected = self.scenario.joint_outcomes(ctx)
            if set(dist.keys()) != set(expected):
                raise ValueError(
                    f"table for context {ctx} does not cover exactly its "
                    f"joint outcomes"
                )
            # canonical row order: declared-outcome lexicographic; a table
            # already in that order is kept as it is
            if list(dist.probs) == expected and (
                dist.exact is None or list(dist.exact) == expected
            ):
                tables[ctx] = dist
                continue
            probs = {t: dist[t] for t in expected}
            exact = None
            if dist.exact is not None:
                exact = {t: dist.exact[t] for t in expected}
            tables[ctx] = Distribution(probs, exact, tol=dist.tol)
        extra = set(self.tables) - set(tables)
        if extra:
            raise ValueError(f"tables for unknown contexts: {sorted(extra)}")
        object.__setattr__(self, "tables", tables)

    def table(self, context: Sequence[str]) -> Distribution:
        return self.tables[tuple(context)]

    @property
    def exact_available(self) -> bool:
        return all(d.exact is not None for d in self.tables.values())

    @functools.cached_property
    def _no_disturbance_result(self) -> tuple[float, list[NoDisturbanceRecord]]:
        return _no_disturbance(self)


@dataclass(frozen=True)
class MeasurementRecipe:
    """How one observable is measured: site group, basis, outcome relabeling.

    outcome_map sends basis labels to observable outcomes bijectively; None
    means the basis labels are used as-is.
    """

    sites: tuple[int, ...]
    basis: SiteBasis
    outcome_map: dict[str, str] | None = None

    def __post_init__(self) -> None:
        sites = (self.sites,) if isinstance(self.sites, int) else tuple(self.sites)
        sites = tuple(int(s) for s in sites)
        if not sites:
            raise ValueError("recipe needs at least one site")
        if len(set(sites)) != len(sites):
            raise ValueError(f"recipe repeats a site: {sites}")
        omap = self.outcome_map
        if omap is not None:
            omap = {str(k): str(v) for k, v in omap.items()}
            if set(omap) != set(self.basis.labels):
                raise ValueError("outcome_map keys must be the basis labels")
            if len(set(omap.values())) != len(omap):
                raise ValueError("outcome_map must be one-to-one")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "outcome_map", omap)

    def mapped_labels(self) -> tuple[str, ...]:
        if self.outcome_map is None:
            return self.basis.labels
        return tuple(self.outcome_map[l] for l in self.basis.labels)


@dataclass(frozen=True)
class QuantumRealization:
    """A state plus one measurement recipe per observable label."""

    state: StateVector
    recipes: dict[str, MeasurementRecipe]

    def __post_init__(self) -> None:
        recipes = {str(k): v for k, v in self.recipes.items()}
        for label, recipe in recipes.items():
            for s in recipe.sites:
                if not (0 <= s < self.state.nsites):
                    raise ValueError(
                        f"recipe for {label!r} uses site {s}, state has "
                        f"{self.state.nsites} sites"
                    )
            d = 1
            for s in recipe.sites:
                d *= self.state.sites[s]
            if recipe.basis.dim != d:
                raise ValueError(
                    f"recipe for {label!r}: basis dimension {recipe.basis.dim} "
                    f"does not match site group {recipe.sites} of dimension {d}"
                )
        object.__setattr__(self, "recipes", recipes)


def realize(qr: QuantumRealization, sc: Scenario) -> EmpiricalModel:
    """Born-rule tables for every context of the scenario.

    Each context is one qstate.born_weights contraction over its recipes'
    site groups, with the sites no recipe of the context measures traced
    out, so the same floats as qstate.born over the matching ProductBasis,
    keyed directly by the recipes' mapped outcome labels. The realization
    has already checked every recipe's site range and basis dimension."""
    state = qr.state
    n = state.nsites
    tables: dict[ContextKey, Distribution] = {}
    for ctx in sc.contexts:
        factors: list[tuple[tuple[int, ...], SiteBasis]] = []
        keys: list[tuple[str, ...]] = [()]
        used: set[int] = set()
        for label in ctx:
            if label not in qr.recipes:
                raise ValueError(f"no measurement recipe for observable {label!r}")
            recipe = qr.recipes[label]
            overlap = used.intersection(recipe.sites)
            if overlap:
                raise ValueError(
                    f"context {ctx}: site group overlap at {sorted(overlap)}"
                )
            used.update(recipe.sites)
            mapped = recipe.mapped_labels()
            expected = set(sc.observable(label).outcomes)
            if set(mapped) != expected:
                raise ValueError(
                    f"recipe for {label!r} yields outcomes "
                    f"{mapped}, observable declares "
                    f"{tuple(sorted(expected))}"
                )
            factors.append((recipe.sites, recipe.basis))
            keys = [k + (l,) for k in keys for l in mapped]
        unmeasured = [s for s in range(n) if s not in used]
        weights = born_weights(state, factors, unmeasured)
        tables[ctx] = Distribution(dict(zip(keys, weights.tolist())))
    return EmpiricalModel(sc, tables)


def marginal(
    dist: Distribution, context: Sequence[str], onto: Sequence[str]
) -> dict[tuple[str, ...], float]:
    """Marginal of a context table onto a subset of its observables."""
    context = tuple(context)
    onto = tuple(onto)
    positions = [context.index(l) for l in onto]
    out: dict[tuple[str, ...], float] = {}
    for key, p in dist.items():
        sub = tuple(key[i] for i in positions)
        out[sub] = out.get(sub, 0.0) + p
    return out


@dataclass(frozen=True)
class NoDisturbanceRecord:
    """Marginal comparison of one context pair on their shared observables."""

    shared: tuple[str, ...]
    pair: tuple[ContextKey, ContextKey]
    violation: float


def no_disturbance(
    m: EmpiricalModel,
) -> tuple[float, list[NoDisturbanceRecord]]:
    """Largest marginal disagreement across all context pairs.

    Returns (max violation, one record per context pair with shared
    observables). A single-context model trivially passes with (0.0, []).
    The result is computed once per model and memoized on it; each call
    returns a fresh record list."""
    worst, records = m._no_disturbance_result
    return worst, list(records)


def _no_disturbance(
    m: EmpiricalModel,
) -> tuple[float, list[NoDisturbanceRecord]]:
    records: list[NoDisturbanceRecord] = []
    contexts = m.scenario.contexts
    worst = 0.0
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            shared = tuple(l for l in contexts[i] if l in contexts[j])
            if not shared:
                continue
            mi = marginal(m.tables[contexts[i]], contexts[i], shared)
            mj = marginal(m.tables[contexts[j]], contexts[j], shared)
            v = max(
                abs(mi.get(k, 0.0) - mj.get(k, 0.0))
                for k in set(mi) | set(mj)
            )
            records.append(NoDisturbanceRecord(shared, (contexts[i], contexts[j]), v))
            worst = max(worst, v)
    return worst, records


@dataclass(frozen=True)
class PossibilisticModel:
    """The support skeleton of an empirical model: per context, which joint
    outcomes are possible at all."""

    scenario: Scenario
    supports: dict[ContextKey, frozenset[tuple[str, ...]]]

    def __post_init__(self) -> None:
        supports: dict[ContextKey, frozenset[tuple[str, ...]]] = {}
        for ctx in self.scenario.contexts:
            if ctx not in self.supports:
                raise ValueError(f"missing support for context {ctx}")
            allowed = set(self.scenario.joint_outcomes(ctx))
            sup = frozenset(tuple(t) for t in self.supports[ctx])
            if not sup:
                raise ValueError(f"empty support in context {ctx}")
            bad = sup - allowed
            if bad:
                raise ValueError(
                    f"support of {ctx} contains foreign tuples {sorted(bad)}"
                )
            supports[ctx] = sup
        extra = set(self.supports) - set(supports)
        if extra:
            raise ValueError(f"supports for unknown contexts: {sorted(extra)}")
        object.__setattr__(self, "supports", supports)

    def support(self, context: Sequence[str]) -> frozenset[tuple[str, ...]]:
        return self.supports[tuple(context)]


def _require_support(m: EmpiricalModel, eps: float) -> None:
    """Reject a degenerate model, one with a context whose every entry is at
    most eps, without building the supports."""
    for ctx, dist in m.tables.items():
        if not any(p > eps for p in dist.values()):
            raise ValueError(
                f"support of context {ctx} is empty at eps={eps!r}; "
                f"degenerate model"
            )


def support_of(m: EmpiricalModel, eps: float = EPS_SUPPORT) -> PossibilisticModel:
    """Possibilistic collapse: a tuple is possible iff its probability
    exceeds eps. Degenerate (all-impossible) contexts are rejected."""
    _require_support(m, eps)
    supports = {
        ctx: frozenset(t for t, p in dist.items() if p > eps)
        for ctx, dist in m.tables.items()
    }
    return PossibilisticModel(m.scenario, supports)


def snap_to_rationals(
    m: EmpiricalModel, max_denominator: int = 128, tol: float = 1e-9
) -> EmpiricalModel | None:
    """Attach exact tables when every probability is within tol of a small
    rational and each table's rationals sum to exactly 1; None otherwise.

    The denominator bound is deliberately small: fractions with denominator
    up to 128 are spaced at least 1/128^2 apart, so a genuinely irrational
    probability essentially never snaps by accident."""
    tables = {}
    for ctx, dist in m.tables.items():
        exact = {}
        for key, p in dist.items():
            frac = Fraction(p).limit_denominator(max_denominator)
            if abs(float(frac) - p) > tol:
                return None
            exact[key] = frac
        if sum(exact.values()) != 1:
            return None
        tables[ctx] = Distribution(dict(dist.items()), exact, tol=dist.tol)
    return EmpiricalModel(m.scenario, tables)
