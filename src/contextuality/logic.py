"""Possibilistic structure: global sections, contextuality classes, Liar cycles.

Works on the support skeleton only. Probabilities enter once, when a support
is extracted from an empirical model; afterwards everything is combinatorics
over outcome tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import getitem, itemgetter
from typing import AbstractSet as Set, Callable, Sequence

from .ncpoly import _sections, _shape
from .qstate import Distribution
from .scenario import (
    ContextKey,
    EmpiricalModel,
    Observable,
    PossibilisticModel,
    Scenario,
)

# most global sections that global_sections will list
MAX_ASSIGNMENTS = 2**24
# rows (state, value) of the frontier table, about 1.5 KB each: 16 binary
# observables with all pairs fully supported build 131,070 in 1.2 s, 190 MB
MAX_FRONTIER_ROWS = 2**17

Event = tuple[ContextKey, tuple[str, ...]]  # (context, outcome tuple)

__all__ = [
    "MAX_ASSIGNMENTS",
    "MAX_FRONTIER_ROWS",
    "Classification",
    "GlobalAssignment",
    "ImplicationStep",
    "LiarCycle",
    "global_sections",
    "count_global_sections",
    "extends_to_global",
    "classify",
    "liar_cycles",
    "cycle_model",
    "cycle_empirical_model",
]


class Classification(str, Enum):
    GLOBALLY_EXTENDABLE = "GloballyExtendable"
    LOGICALLY_CONTEXTUAL = "LogicallyContextual"
    STRONGLY_CONTEXTUAL = "StronglyContextual"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GlobalAssignment:
    """One outcome per observable, in scenario observable order."""

    labels: tuple[str, ...]
    values: tuple[str, ...]

    def __getitem__(self, label: str) -> str:
        return self.values[self.labels.index(label)]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.labels, self.values))


def _projection(js: Sequence[int]) -> Callable[[tuple], tuple]:
    """row -> tuple(row[j] for j in js), built once; a slice stands in for
    one index or none, where itemgetter would return the item or fail."""
    if len(js) > 1:
        return itemgetter(*js)
    return itemgetter(slice(js[0], js[0] + 1) if js else slice(0, 0))


def _frontier(p: PossibilisticModel) -> tuple[int, set[Event]]:
    """The number of global sections of one support and the (context, tuple)
    events some global section restricts to, from one table over frontier
    states built layer by layer without recursion; nothing of it is kept.

    Observables are taken in scenario order, outcomes in declared order, and
    a context is checked at its last observable. The frontier before
    position i is the earlier positions that a context ending at i or later
    still reads (two for an n-cycle); a state is the frontier's values, and
    whether a partial assignment completes depends only on i and its state.
    The forward pass records, for each reachable state, its consistent edges
    (next state, tuples of the contexts checked there); one backward pass
    counts each state's completions and collects the tuples on every edge
    into a state that completes. Cost grows with the number of frontier
    states, not with the number of global sections. A row (state plus
    value) is read through itemgetter projections built once per layer, one
    per context checked there and one for the next state; the support test
    stops at the first context tuple that misses."""
    sc = p.scenario
    n = len(sc.observables)
    position = {o.label: i for i, o in enumerate(sc.observables)}
    checks: list[list[tuple[ContextKey, frozenset, tuple[int, ...]]]] = [
        [] for _ in range(n)
    ]
    last_read = list(range(n))
    for ctx in sc.contexts:
        idxs = tuple(position[l] for l in ctx)
        last = max(idxs)
        checks[last].append((ctx, p.supports[ctx], idxs))
        for k in idxs:
            last_read[k] = max(last_read[k], last)

    # edges[i]: state before position i -> [(next state, rows)]
    edges: list[dict[tuple[str, ...], list]] = []
    layer: dict[tuple[str, ...], list] = {(): []}
    frontier: tuple[int, ...] = ()
    built = 0
    for i, obs in enumerate(sc.observables):
        built += len(layer) * len(obs.outcomes)
        if built > MAX_FRONTIER_ROWS:
            raise ValueError(
                f"frontier table of {built} rows exceeds the 2**17 row budget"
            )
        here = frontier + (i,)
        frontier = tuple(k for k in here if last_read[k] > i)
        at = {k: j for j, k in enumerate(here)}
        keep = _projection([at[k] for k in frontier])
        tests = [
            (sup, _projection([at[k] for k in idxs])) for _, sup, idxs in checks[i]
        ]
        following: dict[tuple[str, ...], list] = {}
        for state, out in layer.items():
            for v in obs.outcomes:
                row = state + (v,)
                rows = []
                for sup, project in tests:
                    r = project(row)
                    if r not in sup:
                        break
                    rows.append(r)
                else:
                    nxt = keep(row)
                    out.append((nxt, tuple(rows)))
                    following.setdefault(nxt, [])
        edges.append(layer)
        layer = following

    # after: state after position i -> number of completions
    after: dict[tuple[str, ...], int] = {(): 1}
    covered: set[Event] = set()
    for i in reversed(range(n)):
        ctxs = [ctx for ctx, _, _ in checks[i]]
        counts = {}
        for state, out in edges.pop().items():
            count = 0
            for nxt, rows in out:
                if k := after[nxt]:
                    count += k
                    covered.update(zip(ctxs, rows))
            counts[state] = count
        after = counts
    return after[()], covered


def global_sections(p: PossibilisticModel) -> list[GlobalAssignment]:
    """Every global assignment consistent with every context's support, in
    lexicographic order (observables in scenario order, outcomes in declared
    order), from ncpoly's enumerator. Raises ValueError when the frontier
    table counts more than 2**24, before any is listed, or the enumeration
    passes the incidence entry guard."""
    count, _ = _frontier(p)
    if count > MAX_ASSIGNMENTS:
        raise ValueError(f"{count} global sections exceed the 2**24 listing cap")
    if not count:
        return []
    sc = p.scenario
    allowed = [t in p.supports[c] for c in sc.contexts for t in sc.joint_outcomes(c)]
    labels = tuple(o.label for o in sc.observables)
    outcomes = [o.outcomes for o in sc.observables]
    digits = _sections(*_shape(sc), allowed).T.tolist()
    return [GlobalAssignment(labels, tuple(map(getitem, outcomes, d))) for d in digits]


def count_global_sections(p: PossibilisticModel) -> int:
    """len(global_sections(p)), read off the frontier-state table without
    building any section: time and memory grow with the frontier states, not
    with the count. Like every section question, raises ValueError when the
    table passes the 2**17 frontier-row budget."""
    return _frontier(p)[0]


def _check_seed(p: PossibilisticModel, context, outcome) -> Event:
    ctx = tuple(str(l) for l in context)
    t = tuple(str(v) for v in outcome)
    if ctx not in p.supports:
        raise ValueError(f"unknown context {ctx}")
    if len(t) != len(ctx):
        raise ValueError(f"outcome {t} does not fit context {ctx}")
    if t not in p.supports[ctx]:
        raise ValueError(f"seed outcome {t} is not possible in context {ctx}")
    return ctx, t


def extends_to_global(
    p: PossibilisticModel, context: Sequence[str], outcome: Sequence[str]
) -> bool:
    """Does this locally possible outcome occur in some global section? True
    when the frontier-state table has an edge restricting the context to the
    outcome that leads to a state which completes."""
    ctx, t = _check_seed(p, context, outcome)
    return (ctx, t) in _frontier(p)[1]


def classify(p: PossibilisticModel) -> Classification:
    """GloballyExtendable / LogicallyContextual / StronglyContextual
    (Abramsky & Brandenburger, NJP 13, 113036 (2011)).

    StronglyContextual when the frontier-state table counts no global
    section; LogicallyContextual when some support tuple lies on no edge
    into a completing state, that is, no section restricts to it. Sections
    are never enumerated."""
    return _classify(p)[0]


def _classify(p: PossibilisticModel) -> tuple[Classification, int, set[Event]]:
    """classify(p), count_global_sections(p) and the events some global
    section restricts to, from one frontier table."""
    count, covered = _frontier(p)
    if not count:
        return Classification.STRONGLY_CONTEXTUAL, count, covered
    # every covered event passed its context's support test, and each
    # context is checked once, so covering as many events as the supports
    # hold is covering them all
    if len(covered) == sum(map(len, p.supports.values())):
        return Classification.GLOBALLY_EXTENDABLE, count, covered
    return Classification.LOGICALLY_CONTEXTUAL, count, covered


# ------------------------------------------------------------- Liar cycles


@dataclass(frozen=True)
class ImplicationStep:
    """premise forces conclusion inside `context`: every support tuple of the
    context carrying the premise value carries the conclusion value."""

    context: ContextKey
    premise: tuple[str, str]
    conclusion: tuple[str, str]

    def holds_in(self, p: PossibilisticModel) -> bool:
        ctx = self.context
        ix = ctx.index(self.premise[0])
        iy = ctx.index(self.conclusion[0])
        rows = [r for r in p.supports[ctx] if r[ix] == self.premise[1]]
        return bool(rows) and all(r[iy] == self.conclusion[1] for r in rows)


@dataclass(frozen=True)
class LiarCycle:
    """A seed event plus a chain of certain implications whose last step
    assigns some observable a value conflicting with the seed or with an
    earlier step of the same chain."""

    seed: Event
    steps: tuple[ImplicationStep, ...]
    contradiction: tuple[str, str, str]  # observable, established, forced

    def verify(self, p: PossibilisticModel) -> bool:
        """Independent check: seed possible, every step witnessed, chain
        linked, and the final value clashes with an established one."""
        ctx, t = self.seed
        if t not in p.supports[ctx]:
            return False
        established = dict(zip(ctx, t))
        prev: tuple[str, str] | None = None
        for step in self.steps:
            if not step.holds_in(p):
                return False
            # chains are linear: the first premise is a seed value and each
            # later premise is the previous conclusion
            if prev is None:
                if established.get(step.premise[0]) != step.premise[1]:
                    return False
            elif step.premise != prev:
                return False
            prev = step.conclusion
        obs, old, new = self.contradiction
        if old == new or prev is None or prev != (obs, new):
            return False
        # walk the chain backwards for the established value
        for step in reversed(self.steps[:-1]):
            if step.conclusion[0] == obs:
                return step.conclusion[1] == old
        return established.get(obs) == old


def liar_cycles(
    p: PossibilisticModel,
    seed: tuple[Sequence[str], Sequence[str]],
) -> LiarCycle | None:
    """Shortest chain of certain implications from the seed event to a
    contradiction, breadth-first over forced values; None when propagation
    closes without conflict.

    The seed premise may assign several observables (its whole context); each
    subsequent step is a single-observable implication. A contradiction is a
    forced value that clashes with the seed or with the chain that forced it,
    so every value it involves lies in the seed's implication closure (the
    (observable, value) nodes reachable through forced values): when no
    observable takes two values there, the answer is None. Ties are broken by
    scenario context order and in-context observable order, which makes the
    result deterministic.
    """
    return _LiarSearch(p).run(seed)


Node = tuple[str, str]  # (observable, value)


class _LiarSearch:
    """liar_cycles on one model for any number of seeds. The forced-value
    table maps a node (observable, value) to the [(context, forced node)]
    it forces, contexts in scenario order and forced nodes in context order;
    it is filled as the searches reach it and shared by all of them.

    `closure` walks the same table. `run` reports a conflict only between a
    forced node and a seed or path node, all of them reachable from the
    seed, so a seed whose closure gives no observable two values has no
    cycle; the converse fails, since two reachable values may lie on no
    single chain."""

    def __init__(self, p: PossibilisticModel):
        self.p = p
        self.contexts_of: dict[str, list[ContextKey]] = {}
        for c in p.scenario.contexts:
            for label in c:
                self.contexts_of.setdefault(label, []).append(c)
        self.forced: dict[Node, list[tuple[ContextKey, Node]]] = {}

    def forced_by(self, node: Node) -> list[tuple[ContextKey, Node]]:
        edges = self.forced.get(node)
        if edges is None:
            x_obs, x_val = node
            edges = []
            for c in self.contexts_of[x_obs]:
                ix = c.index(x_obs)
                # one sweep over the support; a column of the rows carrying
                # x_val that holds one value throughout is forced
                rows = [r for r in self.p.supports[c] if r[ix] == x_val]
                for iy, column in enumerate(zip(*rows)):
                    if iy != ix and column.count(column[0]) == len(rows):
                        edges.append((c, (c[iy], column[0])))
            self.forced[node] = edges
        return edges

    def closure(self, nodes: Sequence[Node]) -> frozenset[Node] | None:
        """The implication closure of `nodes`: every node reachable from them
        through forced values; None as soon as some observable takes two
        values in it."""
        value = dict(nodes)
        stack = list(nodes)
        while stack:
            for _, (y_obs, y_val) in self.forced_by(stack.pop()):
                had = value.get(y_obs)
                if had is None:
                    value[y_obs] = y_val
                    stack.append((y_obs, y_val))
                elif had != y_val:
                    return None
        return frozenset(value.items())

    def run(self, seed: tuple[Sequence[str], Sequence[str]]) -> LiarCycle | None:
        ctx, t = _check_seed(self.p, *seed)
        seed_vals = dict(zip(ctx, t))
        # parent links rebuild the linear chain; a step is built only for a
        # node reached the first time or for the step that closes the cycle
        parent: dict[Node, tuple[Node | None, ImplicationStep | None]] = {}
        # each reached node's bit, the bits of the nodes on its root path
        # (never across seeds), and each observable's values reached
        bit: dict[Node, int] = {}
        path: dict[Node, int] = {}
        reached: dict[str, list[str]] = {}
        queue: deque[Node] = deque(zip(ctx, t))
        for node in queue:
            parent[node] = (None, None)
            bit[node] = path[node] = 1 << len(bit)
            reached[node[0]] = [node[1]]

        def chain_to(node: Node) -> list[ImplicationStep]:
            steps: list[ImplicationStep] = []
            cur: Node | None = node
            while cur is not None:
                up, step = parent[cur]
                if step is not None:
                    steps.append(step)
                cur = up
            steps.reverse()
            return steps

        while queue:
            x_node = queue.popleft()
            for c, y_node in self.forced_by(x_node):
                y_obs, y_val = y_node
                established = seed_vals.get(y_obs, y_val)
                if established == y_val:
                    # a root path holds at most one node per observable (a
                    # node joins only a path without its observable), so
                    # only a reached node of another value can clash
                    for w in reached.get(y_obs, ()):
                        if w != y_val and path[x_node] & bit[y_obs, w]:
                            established = w
                            break
                if established != y_val:
                    return LiarCycle(
                        (ctx, t),
                        tuple(chain_to(x_node)) + (ImplicationStep(c, x_node, y_node),),
                        (y_obs, established, y_val),
                    )
                if y_node not in parent:
                    parent[y_node] = (x_node, ImplicationStep(c, x_node, y_node))
                    bit[y_node] = 1 << len(bit)
                    path[y_node] = path[x_node] | bit[y_node]
                    reached.setdefault(y_obs, []).append(y_val)
                    queue.append(y_node)
        return None


def _default_seed(p: PossibilisticModel, covered: Set[Event] = frozenset()) -> LiarCycle | None:
    """Liar cycle of the first possible event, in declared context and
    outcome order, whose liar_cycles is not None; None when there is none.

    Only candidates that can close a cycle are searched. An event that a
    global section g extends closes none: g lies in every context's support,
    so it takes each value the event forces, and by induction every value
    forced from those, so no chain forces a value clashing with g. The
    candidates in `covered`, the events `_frontier` found extended (the
    report's logic section has them at hand), are skipped before any
    closure. Of the rest, a contradiction needs two values of one observable in the
    candidate's implication closure, so a candidate whose closure takes one
    value per observable is skipped without a search. Such a closure is
    remembered: it is closed under forced values, so the closure of any
    later candidate whose nodes all lie in it lies in it too, and that
    candidate is skipped without any work. A candidate whose closure does
    hold a conflict is searched, and may still yield None when no single
    chain reaches the conflict."""
    search = _LiarSearch(p)
    sc = p.scenario
    # node -> the conflict-free closures found so far that hold it
    safe: dict[Node, list[frozenset[Node]]] = {}
    for ctx in sc.contexts:
        support = p.supports[ctx]
        for t in sc.joint_outcomes(ctx):
            if t not in support or (ctx, t) in covered:
                continue
            nodes = tuple(zip(ctx, t))
            if any(held.issuperset(nodes) for held in safe.get(nodes[0], ())):
                continue
            closure = search.closure(nodes)
            if closure is not None:
                for node in closure:
                    safe.setdefault(node, []).append(closure)
                continue
            cycle = search.run((ctx, t))
            if cycle is not None:
                return cycle
    return None


# ------------------------------------------------------------ cycle models


def _cycle(n: int, parity: str) -> tuple[Scenario, dict[ContextKey, frozenset]]:
    """The n-cycle's scenario and supports, built and checked once for both
    models: equality on every edge but, for odd parity, the closing one."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    obs = tuple(Observable(f"S{i}", ("0", "1")) for i in range(1, n + 1))
    sc = Scenario(obs, tuple((f"S{i}", f"S{i % n + 1}") for i in range(1, n + 1)))
    sups = dict.fromkeys(sc.contexts, frozenset({("0", "0"), ("1", "1")}))
    if parity == "odd":
        sups[sc.contexts[-1]] = frozenset({("0", "1"), ("1", "0")})
    return sc, sups


def cycle_model(n: int, parity: str = "odd") -> PossibilisticModel:
    """n-cycle of certain implications: contexts {S_i, S_{i+1 mod n}}, every
    edge forcing equality except, for odd parity, the closing edge which
    forces inequality. n >= 3."""
    return PossibilisticModel(*_cycle(n, parity))


def cycle_empirical_model(n: int, parity: str = "odd") -> EmpiricalModel:
    """Probabilistic companion of cycle_model: each context puts weight 1/2
    on each of its two possible tuples."""
    sc, sups = _cycle(n, parity)
    tables = {}
    for ctx in sc.contexts:
        exact = dict.fromkeys(sc.joint_outcomes(ctx), Fraction(0))
        exact.update(dict.fromkeys(sups[ctx], Fraction(1, 2)))
        tables[ctx] = Distribution({t: float(q) for t, q in exact.items()}, exact)
    return EmpiricalModel(sc, tables)
