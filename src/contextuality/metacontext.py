"""Observer chains with a movable cut, and claim-set consistency checking.

An ObserverChain nests agents: agent 0 measures the base system, agent i
measures the whole compound built so far (base plus every earlier memory).
A Cut splits the chain into theoretical objects (below: measurement modeled
as a unitary premeasurement, one growing branch) and meta-objects (at or
above: measurement modeled as a projection that splits branches). Every
agent leaves a memory record either way, so all cuts produce ensembles over
the same sites and can be compared with one final measurement.

check_claims propagates an observed seed event through implication claims
under four toggles: Q (implications may fire at all), NMC (the same
observable names one variable across meta-contexts), NC (a value derived in
one measurement context may feed an implication from another), S (recorded
only; a projection in this code always selects a single outcome per branch,
so the flag has no mechanical effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .builders import (
    CertainImplication,
    ProbabilityStatement,
    Sentence,
    certain_implications,
    fr_realization,
)
from .logic import LiarCycle, liar_cycles
from .qstate import (
    EPS_ZERO,
    Distribution,
    ProductBasis,
    SiteBasis,
    StateVector,
    _born_contract,
    _factor_tensor,
    computational_basis,
    memory_basis,
    premeasure,
)
from .scenario import ContextKey, EmpiricalModel, realize, support_of

EPS_BRANCH = 1e-12
EPS_ENSEMBLE = 1e-9

__all__ = [
    "EPS_BRANCH",
    "Agent",
    "ObserverChain",
    "Cut",
    "BranchEnsemble",
    "AssumptionSet",
    "Claim",
    "InferenceStep",
    "Verdict",
    "describe",
    "mixture_born",
    "compare_cuts",
    "computational_final_basis",
    "coherent_final_basis",
    "observer_claims",
    "claims_for_cycle",
    "fr_claim_set",
    "check_claims",
]


@dataclass(frozen=True)
class Agent:
    name: str
    basis: SiteBasis

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("agent name must be nonempty")


@dataclass(frozen=True)
class ObserverChain:
    """Agent i measures the compound of the base and all memories below i."""

    base: StateVector
    agents: tuple[Agent, ...]

    def __post_init__(self) -> None:
        agents = tuple(self.agents)
        if not agents:
            raise ValueError("a chain needs at least one agent")
        names = [a.name for a in agents]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate agent names in {names}")
        dim = self.base.dim
        for a in agents:
            if a.basis.dim != dim:
                raise ValueError(
                    f"agent {a.name} measures dimension {a.basis.dim} but "
                    f"the compound below has dimension {dim}"
                )
            dim *= a.basis.n_outcomes
        object.__setattr__(self, "agents", agents)


@dataclass(frozen=True)
class Cut:
    """Agents with index < `index` premeasure; agents >= `index` project."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("cut index must be >= 0")


@dataclass(frozen=True)
class BranchEnsemble:
    branches: tuple[tuple[float, StateVector], ...]

    def __post_init__(self) -> None:
        branches = tuple((float(p), st) for p, st in self.branches)
        if not branches:
            raise ValueError("empty ensemble")
        for p, _ in branches:
            if p < -EPS_BRANCH:
                raise ValueError(f"negative branch probability {p!r}")
        total = sum(p for p, _ in branches)
        if abs(total - 1.0) > EPS_ENSEMBLE:
            raise ValueError(f"branch probabilities sum to {total!r}")
        sites = {st.sites for _, st in branches}
        if len(sites) != 1:
            raise ValueError(f"branches disagree on sites: {sorted(sites)}")
        object.__setattr__(self, "branches", branches)

    @property
    def sites(self) -> tuple[int, ...]:
        return self.branches[0][1].sites


def _cut_index(chain: ObserverChain, cut: Cut | int) -> int:
    c = cut.index if isinstance(cut, Cut) else int(cut)
    if not (0 <= c <= len(chain.agents)):
        raise ValueError(
            f"cut {c} out of range for a chain of {len(chain.agents)} agents"
        )
    return c


def describe(chain: ObserverChain, cut: Cut | int) -> BranchEnsemble:
    """Render the chain at a cut.

    Below the cut an agent's measurement is the premeasure isometry (the
    branch grows, nothing splits). At or above the cut the agent premeasures
    and its memory is immediately projected, splitting the branch with Born
    weights; the memory is computational, so record k keeps the amplitudes
    with memory index k. Branches below EPS_BRANCH are dropped.
    """
    c = _cut_index(chain, cut)
    branches: list[tuple[float, StateVector]] = [(1.0, chain.base)]
    for i, agent in enumerate(chain.agents):
        grown: list[tuple[float, StateVector]] = []
        for p, st in branches:
            lifted = premeasure(st, tuple(range(st.nsites)), agent.basis)
            if i < c:
                grown.append((p, lifted))
                continue
            amps = lifted.tensor_view()
            for k in range(agent.basis.n_outcomes):
                q = float(np.sum(np.abs(amps[..., k]) ** 2))
                if q >= EPS_ZERO and p * q > EPS_BRANCH:
                    collapsed = np.zeros_like(amps)
                    collapsed[..., k] = amps[..., k] / np.sqrt(q)
                    grown.append((p * q, StateVector(lifted.sites, collapsed.reshape(-1))))
        branches = grown
    return BranchEnsemble(tuple(branches))


def mixture_born(ensemble: BranchEnsemble, basis: ProductBasis) -> Distribution:
    """Probability-weighted mixture of per-branch Born weights, each clamped
    into [0, 1] as a Distribution clamps them. The branches share their
    sites, so the basis is checked, and each factor's conjugated tensor
    built, once; every branch then contracts as qstate.born does."""
    first = ensemble.branches[0][1]
    basis._check_against(first)
    conjugated = [(g, _factor_tensor(f, g, first).conj()) for g, f in basis.factors]
    mixed = 0.0
    for p, st in ensemble.branches:
        mixed = mixed + p * np.clip(_born_contract(st, conjugated, basis.unmeasured), 0, 1)
    return Distribution(dict(zip(basis.outcome_tuples(), mixed.tolist())))


def _tv(da: Distribution, db: Distribution) -> float:
    """Half the L1 difference, by fsum: exact, so the hash-seeded key order is moot."""
    keys = da.keys() | db.keys()
    return 0.5 * math.fsum(abs(da.get(k) - db.get(k)) for k in keys)


def compare_cuts(
    chain: ObserverChain,
    cut_a: Cut | int,
    cut_b: Cut | int,
    final_basis: ProductBasis,
) -> tuple[Distribution, Distribution, float]:
    """Final-measurement distributions under two cuts and their total
    variation distance."""
    da = mixture_born(describe(chain, cut_a), final_basis)
    db = mixture_born(describe(chain, cut_b), final_basis)
    return da, db, _tv(da, db)


def computational_final_basis(chain: ObserverChain) -> ProductBasis:
    """Site-by-site final measurement: computational on the base sites,
    record labels on the memory sites. Diagonal in every memory index, so
    cut placement cannot show up in it."""
    factors: list[tuple[tuple[int, ...], SiteBasis]] = []
    for s, d in enumerate(chain.base.sites):
        factors.append(((s,), computational_basis(d)))
    n = len(chain.base.sites)
    for k, agent in enumerate(chain.agents):
        factors.append(((n + k,), memory_basis(agent.basis)))
    return ProductBasis(tuple(factors))


def coherent_final_basis(chain: ObserverChain) -> ProductBasis:
    """One global basis whose first vector is the fully unitary description
    of the chain (labeled "coherent"), completed by the Gram-Schmidt of the
    computational vectors, in closed form (labeled "orth1", "orth2", ...).
    Born weight on "coherent" separates unitary from collapsed descriptions."""
    return _coherent_basis(describe(chain, len(chain.agents)).branches[0][1])


def _coherent_basis(psi: StateVector) -> ProductBasis:
    """coherent_final_basis around psi, the unitary cut's single branch: the
    Gram-Schmidt of [psi, e_0, e_1, ...] in closed form. With r_k the sum of
    |psi_j|**2 over j >= k, e_k less its projection is
    e_k - psi_{>=k} conj(psi_k) / r_k, of norm sqrt(r_{k+1} / r_k); each entry
    is written already divided by that norm, so nothing cancels. The first
    e_L of norm at most 1e-9 is dependent and dropped. What lies past L weighs
    at most 1e-9 of psi, so rows k < L stop at entry L and rows k > L are e_k:
    psi is row 0, e_k is row k + 1 below L and row k above it."""
    amps = psi.amplitudes
    r = np.append(np.cumsum(np.abs(amps[::-1]) ** 2)[::-1], 0.0)
    L = int(np.argmax(r[1:] <= 1e-18 * r[:-1]))
    k = np.arange(L + 1)
    vectors = np.eye(psi.dim, dtype=complex)
    vectors[0] = amps
    scaled = amps[:L].conj() / -np.sqrt(r[:L] * r[1 : L + 1])
    vectors[1 : L + 1, : L + 1] = np.where(k[:L, None] < k, np.outer(scaled, amps[: L + 1]), 0)
    vectors[k[:L] + 1, k[:L]] = np.sqrt(r[1 : L + 1] / r[:L])
    labels = ("coherent",) + tuple(f"orth{i}" for i in range(1, psi.dim))
    return ProductBasis(((tuple(range(psi.nsites)), SiteBasis(vectors, labels)),))


# ------------------------------------------------------------------ claims


@dataclass(frozen=True)
class AssumptionSet:
    """Q: implications may fire; NMC: one variable per observable across
    meta-contexts; NC: cross-context chaining allowed; S: single outcomes
    (recorded; structurally true for projections here)."""

    Q: bool = False
    NMC: bool = False
    NC: bool = False
    S: bool = False

    FLAGS: ClassVar[tuple[str, ...]] = ("Q", "NMC", "NC", "S")

    @classmethod
    def parse(cls, text: str) -> "AssumptionSet":
        chosen = [t.strip() for t in text.split(",") if t.strip()]
        for t in chosen:
            if t not in cls.FLAGS:
                raise ValueError(
                    f"unknown assumption {t!r}; expected one of "
                    f"{', '.join(cls.FLAGS)}"
                )
        return cls(**{f: f in chosen for f in cls.FLAGS})

    def label(self) -> str:
        on = [f for f in self.FLAGS if getattr(self, f)]
        return ",".join(on) if on else "none"


def _proposition_observables(s: Sentence) -> tuple[str, ...]:
    if isinstance(s, CertainImplication):
        return (s.premise[0], s.conclusion[0])
    return tuple(s.context)


@dataclass(frozen=True)
class Claim:
    """One agent's assertion, made inside one meta-context (the object /
    meta-object pairing it was derived in)."""

    agent: str
    meta_context: ContextKey
    proposition: Sentence

    def __post_init__(self) -> None:
        mc = tuple(self.meta_context)
        object.__setattr__(self, "meta_context", mc)
        for obs in _proposition_observables(self.proposition):
            if obs not in mc:
                raise ValueError(
                    f"claim references observable {obs!r} outside its "
                    f"meta-context {mc}"
                )


@dataclass(frozen=True)
class InferenceStep:
    claim: Claim
    observable: str
    value: str


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "Consistent" | "Contradiction"
    assumptions: AssumptionSet
    trace: tuple[InferenceStep, ...]
    conflict: tuple[str, str, str] | None = None  # obs, established, forced


def _agent_of(label: str) -> str:
    if label.endswith("_obs"):
        return "F_" + label[: -len("_obs")]
    if label.endswith("_meta"):
        return "W_" + label[: -len("_meta")]
    return "O_" + label


def observer_claims(
    m: EmpiricalModel,
    queries: Sequence[ContextKey | tuple[ContextKey, tuple[str, ...]]] = (),
) -> list[Claim]:
    """Lift a model's sentences to agent claims. The speaking agent owns the
    premise observable (F_* for *_obs records, W_* for *_meta records); the
    meta-context is the measurement context the sentence was extracted in."""
    claims = []
    for s in certain_implications(m, queries):
        owner = (
            s.premise[0]
            if isinstance(s, CertainImplication)
            else s.context[0]
        )
        claims.append(Claim(_agent_of(owner), s.context, s))
    return claims


def claims_for_cycle(m: EmpiricalModel, cycle: LiarCycle) -> list[Claim]:
    """Lift a liar chain to agent claims: one implication claim per chain
    step (owned by the agent of its premise observable) plus a probability
    statement for the seed event."""
    claims = []
    for step in cycle.steps:
        sentence = CertainImplication(
            step.context, step.premise, step.conclusion
        )
        claims.append(Claim(_agent_of(step.premise[0]), step.context, sentence))
    seed_ctx, seed_event = cycle.seed
    statement = ProbabilityStatement(seed_ctx, seed_event, m.tables[seed_ctx][seed_event])
    claims.append(Claim(_agent_of(seed_ctx[0]), seed_ctx, statement))
    return claims


def fr_claim_set() -> tuple[
    list[Claim], tuple[ContextKey, tuple[str, ...]], EmpiricalModel
]:
    """Claims, seed event, and model for the friendified Hardy setup.

    The seed is the joint meta-level (-, -) record; the implication claims
    are exactly the steps of the liar chain that the seed opens (not every
    certain implication of the model), plus one probability statement for
    the seed event itself."""
    fr = fr_realization()
    m = realize(fr.realization, fr.scenario)
    seed = (("A_meta", "B_meta"), ("-", "-"))
    cycle = liar_cycles(support_of(m), seed)
    if cycle is None:  # pragma: no cover - fixed construction
        raise RuntimeError("the friendified model lost its liar chain")
    return claims_for_cycle(m, cycle), seed, m


def check_claims(
    claims: Sequence[Claim],
    assumptions: AssumptionSet,
    seed: tuple[ContextKey, tuple[str, ...]],
) -> Verdict:
    """Propagate the seed through the implication claims under the toggles.

    A variable is (observable, meta-context), or just the observable when
    NMC holds. Seed values count as directly observed: an implication whose
    premise matches a seed value may fire without NC; a premise value that
    was itself derived by an implication from another measurement context
    needs NC. Contradiction as soon as a variable is forced to two values;
    the trace lists every forced value in firing order.
    """
    seed_ctx, seed_values = tuple(seed[0]), tuple(seed[1])
    if len(seed_ctx) != len(seed_values):
        raise ValueError(
            f"seed values {seed_values} do not match context {seed_ctx}"
        )
    if len(set(seed_ctx)) != len(seed_ctx):
        raise ValueError(f"seed context {seed_ctx} repeats an observable")

    def key(obs: str, mc: ContextKey):
        return obs if assumptions.NMC else (obs, mc)

    # value records: key -> (value, context the value was derived in, or
    # None when it is the seed itself)
    values: dict[object, tuple[str, ContextKey | None]] = {}
    for obs, val in zip(seed_ctx, seed_values):
        values[key(obs, seed_ctx)] = (val, None)

    trace: list[InferenceStep] = []
    fired: set[int] = set()
    while assumptions.Q:
        progressed = False
        for i, claim in enumerate(claims):
            if i in fired or not isinstance(
                claim.proposition, CertainImplication
            ):
                continue
            imp = claim.proposition
            rec = values.get(key(imp.premise[0], claim.meta_context))
            if rec is None or rec[0] != imp.premise[1]:
                continue
            derived_in = rec[1]
            if (
                derived_in is not None
                and derived_in != imp.context
                and not assumptions.NC
            ):
                continue
            fired.add(i)
            ckey = key(imp.conclusion[0], claim.meta_context)
            existing = values.get(ckey)
            if existing is not None:
                if existing[0] != imp.conclusion[1]:
                    trace.append(
                        InferenceStep(claim, *imp.conclusion)
                    )
                    return Verdict(
                        "Contradiction",
                        assumptions,
                        tuple(trace),
                        (imp.conclusion[0], existing[0], imp.conclusion[1]),
                    )
                continue
            values[ckey] = (imp.conclusion[1], imp.context)
            trace.append(InferenceStep(claim, *imp.conclusion))
            progressed = True
        if not progressed:
            break
    return Verdict("Consistent", assumptions, tuple(trace), None)
