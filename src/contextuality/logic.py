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
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .qstate import Distribution
from .scenario import (
    ContextKey,
    EmpiricalModel,
    Observable,
    PossibilisticModel,
    Scenario,
)

MAX_ASSIGNMENTS = 2**24
# rows (state, value) of the frontier table, about 1.5 KB each: 16 binary
# observables with all pairs fully supported build 131,070 in 1.2 s, 190 MB
MAX_FRONTIER_ROWS = 2**17

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


def _guard(sc: Scenario) -> None:
    if sc.assignment_space() > MAX_ASSIGNMENTS:
        raise ValueError(
            f"assignment space {sc.assignment_space()} exceeds the "
            f"2**24 enumeration guard"
        )


def _projection(js: Sequence[int]) -> Callable[[tuple], tuple]:
    """row -> tuple(row[j] for j in js), built once; a slice stands in for
    one index or none, where itemgetter would return the item or fail."""
    if len(js) > 1:
        return itemgetter(*js)
    return itemgetter(slice(js[0], js[0] + 1) if js else slice(0, 0))


class _Plan:
    """One table over frontier states that answers every section question
    about one support, built layer by layer without recursion.

    Observables are taken in scenario order, outcomes in declared order, and
    a context is checked at its last observable. The frontier before
    position i is the earlier positions that a context ending at i or later
    still reads (two for an n-cycle); a state is the frontier's values, and
    whether a partial assignment completes depends only on i and its state.
    The forward pass records, for each reachable state, its consistent edges
    (value, next state, tuples of the contexts checked there); the backward
    pass counts each state's completions. Cost grows with the number of
    frontier states, not with the number of global sections. A row (state
    plus value) is read through itemgetter projections built once per layer,
    one per context checked there and one for the next state; the support
    test stops at the first context tuple that misses."""

    def __init__(self, p: PossibilisticModel):
        sc = p.scenario
        _guard(sc)
        self.labels = tuple(o.label for o in sc.observables)
        self.supports = p.supports
        n = len(self.labels)
        position = {l: i for i, l in enumerate(self.labels)}
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
        self.contexts_at = [[ctx for ctx, _, _ in at] for at in checks]

        # edges[i]: state before position i -> [(value, next state, rows)]
        self.edges: list[dict[tuple[str, ...], list]] = []
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
                        out.append((v, nxt, tuple(rows)))
                        following.setdefault(nxt, [])
            self.edges.append(layer)
            layer = following

        # counts[i]: state before position i -> number of completions
        self.counts = [{(): 1}]
        for edges in reversed(self.edges):
            after = self.counts[-1]
            self.counts.append(
                {s: sum([after[nxt] for _, nxt, _ in out]) for s, out in edges.items()}
            )
        self.counts.reverse()
        self.count: int = self.counts[0][()]

    def covered(self) -> set[tuple[ContextKey, tuple[str, ...]]]:
        """The (context, tuple) events some global section restricts to: the
        tuples on every edge into a state that completes."""
        covered = set()
        for layer, ctxs, after in zip(self.edges, self.contexts_at, self.counts[1:]):
            for out in layer.values():
                for _, nxt, rows in out:
                    if after[nxt]:
                        covered.update(zip(ctxs, rows))
        return covered

    def classification(self) -> Classification:
        if not self.count:
            return Classification.STRONGLY_CONTEXTUAL
        covered = self.covered()
        if all((ctx, t) in covered for ctx, sup in self.supports.items() for t in sup):
            return Classification.GLOBALLY_EXTENDABLE
        return Classification.LOGICALLY_CONTEXTUAL

    def sections(self) -> list[tuple[str, ...]]:
        """Every global section in lexicographic order. The walk keeps one
        iterator of completing edges per position on an explicit stack and
        fills one value list, so each section is copied out once."""
        if not self.count:
            return []
        n = len(self.labels)
        values = [""] * n
        found: list[tuple[str, ...]] = []
        stack = [self._completing(0, ())]
        while stack:
            i = len(stack) - 1
            for v, nxt in stack[-1]:
                values[i] = v
                if i + 1 == n:
                    found.append(tuple(values))
                else:
                    stack.append(self._completing(i + 1, nxt))
                    break
            else:
                stack.pop()
        return found

    def _completing(
        self, i: int, state: tuple[str, ...]
    ) -> Iterator[tuple[str, tuple[str, ...]]]:
        """(value, next state) of each edge out of `state` at position i
        into a state that completes, in declared outcome order."""
        after = self.counts[i + 1]
        return ((v, nxt) for v, nxt, _ in self.edges[i][state] if after[nxt])


def global_sections(p: PossibilisticModel) -> list[GlobalAssignment]:
    """Every global assignment consistent with every context's support, in
    lexicographic order (observables in scenario order, outcomes in declared
    order). This is the one entry point that materializes sections: the list
    can hold up to 2**24 of them. Raises ValueError when the assignment space
    exceeds the 2**24 guard."""
    plan = _Plan(p)
    return [GlobalAssignment(plan.labels, v) for v in plan.sections()]


def count_global_sections(p: PossibilisticModel) -> int:
    """len(global_sections(p)), read off the frontier-state table without
    building any section: time and memory grow with the frontier states, not
    with the count. Raises ValueError when the assignment space exceeds the
    2**24 guard, like global_sections."""
    return _Plan(p).count


def _check_seed(p: PossibilisticModel, context, outcome) -> tuple[ContextKey, tuple[str, ...]]:
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
    outcome that leads to a state which completes. Raises ValueError when
    the assignment space exceeds the 2**24 guard."""
    ctx, t = _check_seed(p, context, outcome)
    return (ctx, t) in _Plan(p).covered()


def classify(p: PossibilisticModel) -> Classification:
    """GloballyExtendable / LogicallyContextual / StronglyContextual
    (Abramsky & Brandenburger, NJP 13, 113036 (2011)).

    StronglyContextual when the frontier-state table counts no global
    section; LogicallyContextual when some support tuple lies on no edge
    into a completing state, that is, no section restricts to it. Sections
    are never enumerated. Raises ValueError when the assignment space
    exceeds the 2**24 guard."""
    return _Plan(p).classification()


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

    seed: tuple[ContextKey, tuple[str, ...]]
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


def _default_seed(p: PossibilisticModel) -> LiarCycle | None:
    """Liar cycle of the first possible event, in declared context and
    outcome order, whose liar_cycles is not None; None when there is none.

    Only candidates that can close a cycle are searched. A contradiction
    needs two values of one observable in the candidate's implication
    closure, so a candidate whose closure takes one value per observable is
    skipped without a search. Such a closure is remembered: it is closed
    under forced values, so the closure of any later candidate whose nodes
    all lie in it lies in it too, and that candidate is skipped without any
    work. A candidate whose closure does hold a conflict is searched, and
    may still yield None when no single chain reaches the conflict."""
    search = _LiarSearch(p)
    sc = p.scenario
    # node -> the conflict-free closures found so far that hold it
    safe: dict[Node, list[frozenset[Node]]] = {}
    for ctx in sc.contexts:
        support = p.supports[ctx]
        for t in sc.joint_outcomes(ctx):
            if t not in support:
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


def _cycle_scenario(n: int) -> Scenario:
    obs = tuple(Observable(f"S{i}", ("0", "1")) for i in range(1, n + 1))
    ctxs = tuple(
        (f"S{i}", f"S{i % n + 1}") for i in range(1, n + 1)
    )
    return Scenario(obs, ctxs)


def _cycle_supports(n: int, parity: str) -> dict[ContextKey, frozenset]:
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    equal = frozenset({("0", "0"), ("1", "1")})
    unequal = frozenset({("0", "1"), ("1", "0")})
    sc = _cycle_scenario(n)
    sups = {ctx: equal for ctx in sc.contexts}
    if parity == "odd":
        sups[sc.contexts[-1]] = unequal
    return sups


def cycle_model(n: int, parity: str = "odd") -> PossibilisticModel:
    """n-cycle of certain implications: contexts {S_i, S_{i+1 mod n}}, every
    edge forcing equality except, for odd parity, the closing edge which
    forces inequality. n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return PossibilisticModel(_cycle_scenario(n), _cycle_supports(n, parity))


def cycle_empirical_model(n: int, parity: str = "odd") -> EmpiricalModel:
    """Probabilistic companion of cycle_model: each context puts weight 1/2
    on each of its two possible tuples."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    sc = _cycle_scenario(n)
    sups = _cycle_supports(n, parity)
    tables = {}
    for ctx in sc.contexts:
        probs = {}
        exact = {}
        for tup in sc.joint_outcomes(ctx):
            p = 0.5 if tup in sups[ctx] else 0.0
            probs[tup] = p
            exact[tup] = Fraction(1, 2) if tup in sups[ctx] else Fraction(0)
        tables[ctx] = Distribution(probs, exact)
    return EmpiricalModel(sc, tables)
