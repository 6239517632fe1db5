"""Shared fixtures: hand-built reference objects, independent of builders.

The Hardy construction here is written out longhand on purpose; builder tests
compare the packaged constructors against these."""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from contextuality.metacontext import Agent, ObserverChain
from contextuality.qstate import (
    SiteBasis,
    StateVector,
    computational_basis,
    diagonal_basis,
)
from contextuality.scenario import (
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
    realize,
)

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


@pytest.fixture
def hardy_scenario() -> Scenario:
    return make_hardy_scenario()


@pytest.fixture
def hardy_realization() -> QuantumRealization:
    return make_hardy_realization()


@pytest.fixture
def hardy_model(hardy_realization, hardy_scenario):
    return realize(hardy_realization, hardy_scenario)
