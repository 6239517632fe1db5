"""Report bytes pinned in report_digests.json.

`pinned_models()` yields the empirical models the pins cover: odd, even,
Hardy-like and full-support binary n-cycles for n = 3..24, and 240 seeded
random supports (from `liar_pins.random_support`, a third of them with
one-outcome observables and contexts of up to four observables) lifted to
tables, half with exact rational entries and half with float entries, some
of which sit below the support threshold. `digest(m, name)` is what is
pinned for one model: the SHA-256 of
`render_json(model_report(m, name, sections={"logic", "sentences", "cycle"}))`,
the report the possibilistic path writes.

Regenerate the pins (only when the reports are meant to change):

    PYTHONPATH=src python tests/report_pins.py
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from contextuality.logic import cycle_empirical_model, cycle_model
from contextuality.qstate import Distribution
from contextuality.report import model_report, render_json
from contextuality.scenario import EmpiricalModel, PossibilisticModel

from liar_pins import CYCLE_SIZES, random_support

PINS = Path(__file__).parent / "report_digests.json"

SECTIONS = frozenset({"logic", "sentences", "cycle"})


def _exact_model(sc, weights: dict) -> EmpiricalModel:
    """weights: context -> {tuple: nonnegative int}, every context with a
    positive total."""
    tables = {}
    for ctx in sc.contexts:
        total = sum(weights[ctx].values())
        exact = {t: Fraction(w, total) for t, w in weights[ctx].items()}
        tables[ctx] = Distribution({t: float(p) for t, p in exact.items()}, exact)
    return EmpiricalModel(sc, tables)


def _binary_cycle(n: int, closing: dict, rest: dict) -> EmpiricalModel:
    sc = cycle_model(n).scenario
    weights = dict.fromkeys(sc.contexts[:-1], rest)
    weights[sc.contexts[-1]] = closing
    return _exact_model(sc, weights)


def lift(rng: random.Random, p: PossibilisticModel, exact: bool) -> EmpiricalModel:
    """Tables whose support at the default threshold is p's: exact tables
    put a random integer weight on each possible tuple; float tables put a
    random float there and, now and then, 1e-10 on an impossible one, so
    some conditional masses fall just short of 1. The floats are normalised
    by a math.fsum total, correctly rounded on every Python version: sum()
    over floats compensates its rounding since 3.12, and the pinned reports
    print the table entries in full."""
    sc = p.scenario
    if exact:
        return _exact_model(
            sc,
            {
                ctx: {t: rng.randint(1, 4) if t in p.supports[ctx] else 0
                      for t in sc.joint_outcomes(ctx)}
                for ctx in sc.contexts
            },
        )
    tables = {}
    for ctx in sc.contexts:
        probs = {
            t: rng.uniform(0.05, 1.0) if t in p.supports[ctx] else 0.0
            for t in sc.joint_outcomes(ctx)
        }
        total = math.fsum(probs.values())
        probs = {t: w / total for t, w in probs.items()}
        for t in probs:
            if not probs[t] and rng.random() < 0.3:
                probs[t] = 1e-10
        tables[ctx] = Distribution(probs)
    return EmpiricalModel(sc, tables)


def pinned_models():
    equal = {("0", "0"): 1, ("0", "1"): 0, ("1", "0"): 0, ("1", "1"): 1}
    for n in CYCLE_SIZES:
        yield f"odd {n}", cycle_empirical_model(n, "odd")
        yield f"even {n}", cycle_empirical_model(n, "even")
        yield f"hardy_like {n}", _binary_cycle(
            n, {("0", "0"): 2, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 2}, equal
        )
        yield f"full_support {n}", _binary_cycle(
            n,
            {("0", "0"): 1, ("0", "1"): 3, ("1", "0"): 3, ("1", "1"): 1},
            {("0", "0"): 3, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 3},
        )
    rng = random.Random(1113)
    for i in range(160):
        yield f"random {i}", lift(rng, random_support(rng), exact=i % 2 == 0)
    for i in range(80):
        p = random_support(rng, min_outcomes=1, max_context=4)
        yield f"random_wide {i}", lift(rng, p, exact=i % 2 == 0)


def digest(m: EmpiricalModel, name: str) -> str:
    text = render_json(model_report(m, name, sections=SECTIONS))
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    pins = {key: digest(m, key) for key, m in pinned_models()}
    with PINS.open("w") as f:
        f.write(json.dumps(pins, indent=0) + "\n")
