"""Liar-search answers pinned in liar_cycles.json.

`pinned_models()` yields the models the pins cover: 300 seeded random
supports (2-5 observables), 100 more with one-outcome observables and wide
contexts, and full-support, odd and Hardy-like binary n-cycles for
n = 3..24. `answers(p)` is what is pinned for one model: the default-seed
cycle, defined here as the first possible event, in declared context and
outcome order, whose `liar_cycles` is not None, in full; and `liar_cycles`
for every possible event in that order, as the chain length of each (None
when there is no chain) plus a SHA-256 digest of all those cycles written as
canonical JSON, which keeps the file small.

Regenerate the pins (only when the search is meant to change its answers):

    PYTHONPATH=src python tests/liar_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from contextuality.logic import LiarCycle, cycle_model, liar_cycles
from contextuality.scenario import Observable, PossibilisticModel, Scenario

PINS = Path(__file__).parent / "liar_cycles.json"

CYCLE_SIZES = range(3, 25)


def random_support(
    rng: random.Random, min_outcomes: int = 2, max_context: int = 3
) -> PossibilisticModel:
    """2-5 observables with min_outcomes-3 outcomes each; 1-5 contexts of
    size 1-max_context drawn in random order, so they overlap and list their
    observables out of scenario order; each support keeps a random share of
    its tuples."""
    obs = tuple(
        Observable(f"X{i}", tuple("abc"[: rng.randint(min_outcomes, 3)]))
        for i in range(rng.randint(2, 5))
    )
    labels = [o.label for o in obs]
    ctxs: dict[frozenset, tuple[str, ...]] = {}
    for _ in range(rng.randint(1, 5)):
        ctx = tuple(rng.sample(labels, rng.randint(1, min(max_context, len(labels)))))
        ctxs.setdefault(frozenset(ctx), ctx)
    for l in labels:
        if not any(l in c for c in ctxs.values()):
            ctxs[frozenset((l,))] = (l,)
    sc = Scenario(obs, tuple(ctxs.values()))
    keep = rng.uniform(0.3, 0.9)
    sups = {}
    for ctx in sc.contexts:
        joint = sc.joint_outcomes(ctx)
        sups[ctx] = frozenset(t for t in joint if rng.random() < keep) or frozenset(
            {rng.choice(joint)}
        )
    return PossibilisticModel(sc, sups)


def binary_cycle(n: int, closing: frozenset) -> PossibilisticModel:
    """The n-cycle over S1..Sn whose first n-1 contexts force equality and
    whose closing context (Sn, S1) has the given support."""
    p = cycle_model(n, "even")
    sups = dict(p.supports)
    sups[p.scenario.contexts[-1]] = closing
    return PossibilisticModel(p.scenario, sups)


def pinned_models():
    rng = random.Random(2015)
    for i in range(300):
        yield f"random {i}", random_support(rng)
    for i in range(100):
        yield f"random_wide {i}", random_support(rng, min_outcomes=1, max_context=4)
    full = frozenset({("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")})
    for n in CYCLE_SIZES:
        sc = cycle_model(n).scenario
        yield f"full_support {n}", PossibilisticModel(sc, dict.fromkeys(sc.contexts, full))
        yield f"odd {n}", cycle_model(n, "odd")
        yield f"hardy_like {n}", binary_cycle(n, full)


def candidates(p: PossibilisticModel):
    """Every possible event, in declared context and outcome order."""
    sc = p.scenario
    return [
        (ctx, t)
        for ctx in sc.contexts
        for t in sc.joint_outcomes(ctx)
        if t in p.supports[ctx]
    ]


def cycle_json(cycle: LiarCycle | None):
    if cycle is None:
        return None
    return {
        "seed": [list(part) for part in cycle.seed],
        "steps": [
            [list(s.context), list(s.premise), list(s.conclusion)]
            for s in cycle.steps
        ],
        "contradiction": list(cycle.contradiction),
    }


def answers(p: PossibilisticModel) -> dict:
    cycles = [cycle_json(liar_cycles(p, e)) for e in candidates(p)]
    canonical = json.dumps(cycles, sort_keys=True, separators=(",", ":"))
    return {
        "default": next((c for c in cycles if c is not None), None),
        "steps": [None if c is None else len(c["steps"]) for c in cycles],
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
    }


if __name__ == "__main__":
    pins = {key: answers(p) for key, p in pinned_models()}
    with PINS.open("w") as f:
        f.write("{\n")
        f.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
            for key, value in pins.items()
        ))
        f.write("\n}\n")
