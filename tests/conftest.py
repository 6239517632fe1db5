"""Shared fixtures: hand-built reference objects, independent of builders.

The Hardy construction here is written out longhand on purpose; builder tests
compare the packaged constructors against these."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from contextuality.logic import cycle_model
from contextuality.metacontext import Agent, ObserverChain
from contextuality.qstate import (
    Distribution,
    SiteBasis,
    StateVector,
    computational_basis,
    diagonal_basis,
)
from contextuality.scenario import (
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
    realize,
)

from liar_pins import random_support

HARDY_CONTEXTS = (
    ("A_d", "B_c"),
    ("A_c", "B_c"),
    ("A_c", "B_d"),
    ("A_d", "B_d"),
)


def make_hardy_scenario() -> Scenario:
    return Scenario(
        (
            Observable("A_c", ("0", "1")),
            Observable("A_d", ("+", "-")),
            Observable("B_c", ("0", "1")),
            Observable("B_d", ("+", "-")),
        ),
        HARDY_CONTEXTS,
    )


def make_hardy_realization() -> QuantumRealization:
    s3 = 1.0 / np.sqrt(3.0)
    state = StateVector((2, 2), np.array([s3, 0.0, s3, s3], dtype=complex))
    return QuantumRealization(
        state,
        {
            "A_c": MeasurementRecipe((0,), computational_basis()),
            "A_d": MeasurementRecipe((0,), diagonal_basis()),
            "B_c": MeasurementRecipe((1,), computational_basis()),
            "B_d": MeasurementRecipe((1,), diagonal_basis()),
        },
    )


def random_chain(seed: int, sites: tuple[int, ...], random_bases: tuple[bool, ...]) -> ObserverChain:
    """A seeded random base state on `sites`, then one agent per entry of
    `random_bases`: agent k measures the compound below it in a random
    orthonormal basis when the entry is true, computationally otherwise;
    outcome labels o0, o1, ..."""
    rng = np.random.default_rng(seed)
    d = prod(sites)
    amp = rng.normal(size=d) + 1j * rng.normal(size=d)
    base = StateVector(sites, amp / np.linalg.norm(amp))
    agents = []
    for k, random_basis in enumerate(random_bases):
        labels = tuple(f"o{j}" for j in range(d))
        if random_basis:
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            basis = SiteBasis(np.linalg.qr(z)[0].T, labels)
        else:
            basis = computational_basis(d, labels)
        agents.append(Agent(f"F{k}", basis))
        d *= d
    return ObserverChain(base, tuple(agents))


# seeded chains: one to three agents on one or two qubits, each agent
# computational or in a random basis of the whole compound below it
RANDOM_CHAINS = [
    ((2,), (False,)),
    ((2,), (True,)),
    ((2, 2), (True,)),
    ((2, 2), (False, True)),
    ((2,), (True, False)),
    ((2,), (True, True, False)),
    ((2,), (False, True, True)),
]


def random_table_model(rng: random.Random) -> EmpiricalModel:
    """The scenario of a random support (2-5 observables of 2-3 outcomes,
    1-5 contexts of 1-3 observables in random order) with float tables. A
    row is zero (about a third of them), a leak of 1e-11 to 1e-8 (about one
    in six), or a weight of order one."""
    sc = random_support(rng).scenario
    tables = {}
    for ctx in sc.contexts:
        weights = {}
        for t in sc.joint_outcomes(ctx):
            u = rng.random()
            if u < 0.35:
                weights[t] = 0.0
            elif u < 0.5:
                weights[t] = 10 ** rng.uniform(-11, -8)
            else:
                weights[t] = rng.uniform(0.05, 1.0)
        if not any(weights.values()):
            weights[rng.choice(list(weights))] = 1.0
        total = sum(weights.values())
        tables[ctx] = Distribution({t: w / total for t, w in weights.items()})
    return EmpiricalModel(sc, tables)


TRIPARTITE = Scenario(
    tuple(Observable(f"{party}{s}", ("0", "1")) for party in "ABC" for s in "01"),
    tuple(
        (f"A{i}", f"B{j}", f"C{k}") for i, j, k in itertools.product("01", repeat=3)
    ),
)


def parity_box_mixture(rng) -> EmpiricalModel:
    """One to three tripartite parity boxes, each uniform on the outcome
    triples of a random parity per context, mixed with up to two
    deterministic assignments, at random rational weights."""
    boxes, points = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    weights = [Fraction(int(w)) for w in rng.integers(1, 13, boxes + points)]
    weights = [w / sum(weights) for w in weights]
    parities = rng.integers(0, 2, (boxes, len(TRIPARTITE.contexts)))
    assignments = rng.choice(["0", "1"], (points, 6))
    labels = [o.label for o in TRIPARTITE.observables]
    tables = {}
    for c, ctx in enumerate(TRIPARTITE.contexts):
        exact = dict.fromkeys(TRIPARTITE.joint_outcomes(ctx), Fraction(0))
        for w, parity in zip(weights, parities[:, c]):
            for tup in exact:
                if tup.count("1") % 2 == parity:
                    exact[tup] += w / 4
        for w, a in zip(weights[boxes:], assignments):
            exact[tuple(a[labels.index(l)] for l in ctx)] += w
        tables[ctx] = Distribution({t: float(q) for t, q in exact.items()}, exact)
    return EmpiricalModel(TRIPARTITE, tables)


def hardy_like_cycle(n: int, a: Fraction) -> EmpiricalModel:
    """The binary n-cycle whose first n - 1 contexts are perfectly
    correlated, 1/2 on 00 and on 11, and whose closing context puts a on 00
    and 11 and 1/2 - a on 01 and 10, with exact tables. For 0 < a < 1/2 its
    support is Hardy-like: two global sections, all 0 and all 1, and a liar
    chain from either unequal closing event; its NCF is 2a."""
    sc = cycle_model(n).scenario
    half = Fraction(1, 2)
    tables = {}
    for k, ctx in enumerate(sc.contexts):
        equal, unequal = (a, half - a) if k == n - 1 else (half, Fraction(0))
        exact = {
            (x, y): equal if x == y else unequal for x in "01" for y in "01"
        }
        tables[ctx] = Distribution({t: float(q) for t, q in exact.items()}, exact)
    return EmpiricalModel(sc, tables)


@pytest.fixture
def hardy_scenario() -> Scenario:
    return make_hardy_scenario()


@pytest.fixture
def hardy_realization() -> QuantumRealization:
    return make_hardy_realization()


@pytest.fixture
def hardy_model(hardy_realization, hardy_scenario):
    return realize(hardy_realization, hardy_scenario)
