"""Pure states on small multi-site systems and the measurement primitives.

Everything downstream (empirical models, friendification, observer chains)
reduces to four operations on state vectors: tensor, born, project and
premeasure. Amplitudes are stored flat in mixed-radix order with the leftmost
site most significant, so for site dimensions (d0, d1, ..) the flat index of
(x0, x1, ..) is x0*d1*..*d_{n-1} + x1*d2*..*d_{n-1} + .. + x_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

import numpy as np

EPS_NORM = 1e-9
EPS_ZERO = 1e-12

__all__ = [
    "EPS_NORM",
    "EPS_ZERO",
    "StateVector",
    "SiteBasis",
    "ProductBasis",
    "Distribution",
    "tensor",
    "born",
    "project",
    "premeasure",
    "computational_basis",
    "diagonal_basis",
    "memory_basis",
]


def _complex_matrix(rows: Iterable[Iterable[complex]]) -> np.ndarray:
    """A read-only C-ordered complex copy of an array or of nested sequences."""
    arr = np.array(rows, dtype=complex, order="C")
    if arr.ndim != 2:
        raise ValueError("basis vectors must form a 2-D array")
    if not np.isfinite(arr).all():
        raise ValueError("basis vectors must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over an ordered list of sites.

    Args:
        sites: dimension of each site, every entry >= 2.
        amplitudes: flat complex amplitudes, length prod(sites), unit norm
            within EPS_NORM.
    """

    sites: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        sites = tuple(int(d) for d in self.sites)
        if not sites:
            raise ValueError("a state needs at least one site")
        if any(d < 2 for d in sites):
            raise ValueError(f"every site dimension must be >= 2, got {sites}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        if amps.size != prod(sites):
            raise ValueError(
                f"amplitude count {amps.size} does not match site dimensions "
                f"{sites} (expected {prod(sites)})"
            )
        nrm = float(np.linalg.norm(amps))
        # "not <=", so that a NaN norm, which compares false, fails too
        if not abs(nrm - 1.0) <= EPS_NORM:
            raise ValueError(f"state is not normalized: |psi| = {nrm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def nsites(self) -> int:
        return len(self.sites)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per site (read-only view)."""
        return self.amplitudes.reshape(self.sites)

    def isclose(self, other: "StateVector", tol: float = EPS_NORM) -> bool:
        return self.sites == other.sites and bool(
            np.max(np.abs(self.amplitudes - other.amplitudes)) <= tol
        )


@dataclass(frozen=True)
class SiteBasis:
    """Complete orthonormal measurement basis with one label per vector.

    The basis is dimension-typed, not site-typed: the site (or site group) it
    applies to is supplied wherever the basis is used.
    """

    vectors: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        vectors = _complex_matrix(self.vectors)
        labels = tuple(map(str, self.labels))
        n, d = vectors.shape
        if n != d:
            raise ValueError(
                f"basis must be complete: got {n} vectors of dimension {d}"
            )
        if len(labels) != n:
            raise ValueError(f"{n} vectors but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be distinct, got {labels}")
        if not all(labels):
            raise ValueError("outcome labels must be nonempty")
        gram = vectors @ vectors.conj().T
        if np.abs(gram - np.eye(n)).max() > EPS_NORM:
            raise ValueError("basis vectors are not orthonormal")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown outcome label {label!r}, expected one of {self.labels}"
            ) from None


def computational_basis(dim: int = 2, labels: Sequence[str] | None = None) -> SiteBasis:
    if labels is None:
        labels = tuple(str(i) for i in range(dim))
    return SiteBasis(np.eye(dim, dtype=complex), tuple(labels))


def diagonal_basis(labels: Sequence[str] = ("+", "-")) -> SiteBasis:
    """Qubit basis |+> = (|0>+|1>)/sqrt(2), |-> = (|0>-|1>)/sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    return SiteBasis(np.array([[s, s], [s, -s]], dtype=complex), tuple(labels))


def memory_basis(measured: SiteBasis) -> SiteBasis:
    """Computational basis of the memory site created by premeasuring in
    `measured`; memory labels inherit the measured basis's outcome labels."""
    return computational_basis(measured.n_outcomes, measured.labels)


def _normalized_group(sites: int | Sequence[int]) -> tuple[int, ...]:
    if isinstance(sites, (int, np.integer)):
        return (int(sites),)
    group = tuple(int(s) for s in sites)
    if not group:
        raise ValueError("empty site group")
    return group


@dataclass(frozen=True)
class ProductBasis:
    """Joint measurement: disjoint site groups, one complete basis per group.

    Factors are ordered; born/project outcome tuples follow factor order.
    Sites not measured must be listed in `unmeasured` and are traced out.
    """

    factors: tuple[tuple[tuple[int, ...], SiteBasis], ...]
    unmeasured: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        factors = tuple(
            (_normalized_group(sites), basis) for sites, basis in self.factors
        )
        unmeasured = tuple(int(s) for s in self.unmeasured)
        seen: set[int] = set()
        for group, _ in factors:
            for s in group:
                if s < 0:
                    raise ValueError(f"negative site index {s}")
                if s in seen:
                    raise ValueError(f"site {s} measured twice")
                seen.add(s)
        for s in unmeasured:
            if s in seen:
                raise ValueError(f"site {s} both measured and unmeasured")
            seen.add(s)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "unmeasured", unmeasured)

    @classmethod
    def for_state_sites(
        cls,
        nsites: int,
        factors: Sequence[tuple[int | Sequence[int], SiteBasis]],
    ) -> "ProductBasis":
        """Build a ProductBasis over `nsites` sites, listing the complement of
        the measured groups as unmeasured."""
        norm = [(_normalized_group(sites), basis) for sites, basis in factors]
        measured = {s for group, _ in norm for s in group}
        unmeasured = tuple(s for s in range(nsites) if s not in measured)
        return cls(tuple(norm), unmeasured)

    def outcome_tuples(self) -> list[tuple[str, ...]]:
        """All joint outcome label tuples in row-major (lexicographic) order."""
        out: list[tuple[str, ...]] = [()]
        for _, basis in self.factors:
            out = [t + (l,) for t in out for l in basis.labels]
        return out

    def _check_against(self, state: StateVector) -> None:
        covered = [s for group, _ in self.factors for s in group]
        covered += list(self.unmeasured)
        if sorted(covered) != list(range(state.nsites)):
            raise ValueError(
                f"basis covers sites {sorted(covered)} but the state has "
                f"{state.nsites} sites"
            )
        for group, basis in self.factors:
            d = prod(state.sites[s] for s in group)
            if basis.dim != d:
                raise ValueError(
                    f"basis dimension {basis.dim} does not match site group "
                    f"{group} of dimension {d}"
                )


@dataclass(frozen=True)
class Distribution:
    """Probability table over joint outcome-label tuples.

    Values are clamped into [0, 1]; anything below -EPS_ZERO or above
    1 + EPS_ZERO is rejected. The total must equal 1 within `tol`. When the
    entries are known exactly, a parallel Fraction table rides along. The
    parser and snap_to_rationals, which check their parts, use _from_checked.
    """

    probs: dict[tuple[str, ...], float]
    exact: dict[tuple[str, ...], Fraction] | None = None
    tol: float = field(default=EPS_NORM, repr=False, compare=False)

    def __post_init__(self) -> None:
        clean: dict[tuple[str, ...], float] = {}
        for key, value in self.probs.items():
            k = tuple(map(str, key))
            try:
                v = float(value)
            except TypeError:
                raise ValueError(
                    f"probability at {k} is not a real number: {value!r}"
                ) from None
            if not -EPS_ZERO <= v <= 1.0 + EPS_ZERO:  # NaN fails too
                raise ValueError(f"probability out of range at {k}: {v!r}")
            clean[k] = min(max(v, 0.0), 1.0)
        total = sum(clean.values())
        if abs(total - 1.0) > self.tol:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        exact = self.exact
        if exact is not None:
            exact = {tuple(map(str, k)): v for k, v in exact.items()}
            if set(exact) != set(clean):
                raise ValueError("exact table keys do not match float table")
            _check_exact(clean, exact)
        object.__setattr__(self, "probs", clean)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def _from_checked(cls, probs: dict, exact: dict | None, tol: float) -> Distribution:
        """Checks nothing; the caller holds probs keyed by tuples of str,
        floats in [0, 1] summing to 1 within tol, and exact None or on probs'
        keys, each Fraction within EPS_NORM of its float."""
        table = object.__new__(cls)
        vars(table).update(probs=probs, exact=exact, tol=tol)
        return table

    def __getitem__(self, key: tuple[str, ...]) -> float:
        return self.probs[tuple(key)]

    def __iter__(self):
        return iter(self.probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __contains__(self, key) -> bool:
        return tuple(key) in self.probs

    def get(self, key, default: float = 0.0) -> float:
        return self.probs.get(tuple(key), default)

    def items(self):
        return self.probs.items()

    def keys(self):
        return self.probs.keys()

    def values(self):
        return self.probs.values()


def _check_exact(probs: dict, exact: dict[tuple[str, ...], Fraction]) -> None:
    for k, frac in exact.items():
        if abs(frac.numerator / frac.denominator - probs[k]) > EPS_NORM:
            raise ValueError(f"exact value {frac} disagrees with float {probs[k]!r} at {k}")


def _sums_to_one(fracs: Iterable[Fraction]) -> bool:
    """Whether the fractions sum to exactly 1: with L the lcm of their
    denominators, whether sum(num L / den) = L, in integers only. The
    argument is read once, so a generator works too."""
    ratios = [f.as_integer_ratio() for f in fracs]
    common = lcm(*(den for _, den in ratios))
    return sum(num * (common // den) for num, den in ratios) == common


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; b's sites are appended after a's."""
    return StateVector(a.sites + b.sites, np.kron(a.amplitudes, b.amplitudes))


def _factor_tensor(basis: SiteBasis, group: tuple[int, ...], state: StateVector) -> np.ndarray:
    dims = tuple(state.sites[s] for s in group)
    return basis.vectors.reshape((basis.n_outcomes,) + dims)


def _born_contract(
    state: StateVector,
    conjugated: Sequence[tuple[tuple[int, ...], np.ndarray]],
    unmeasured: Sequence[int],
) -> np.ndarray:
    """Born weights of the joint outcomes of disjoint site groups, flat in
    row-major factor order, with the unmeasured sites traced out: one einsum
    of the state with each group's conjugated basis tensor, given, abs()**2,
    then the sum over the unmeasured axes. born, scenario.realize and
    metacontext.mixture_born all contract here, so they give the same floats."""
    n = state.nsites
    operands: list = [state.tensor_view(), list(range(n))]
    for axis, (group, tensor) in enumerate(conjugated, n):
        operands += [tensor, [axis, *group]]
    measured = list(range(n, n + len(conjugated)))
    weights = np.abs(np.einsum(*operands, measured + list(unmeasured))) ** 2
    if unmeasured:
        weights = weights.sum(axis=tuple(range(len(conjugated), weights.ndim)))
    return weights.reshape(-1)


def born(state: StateVector, basis: ProductBasis) -> Distribution:
    """Joint outcome distribution; unmeasured sites are traced out."""
    basis._check_against(state)
    conjugated = [(g, _factor_tensor(f, g, state).conj()) for g, f in basis.factors]
    flat = _born_contract(state, conjugated, basis.unmeasured)
    return Distribution(dict(zip(basis.outcome_tuples(), flat.tolist())))


def _outcome_indices(basis: ProductBasis, outcome: Sequence[str]) -> list[int]:
    outcome = tuple(outcome)
    if len(outcome) != len(basis.factors):
        raise ValueError(
            f"outcome {outcome} has {len(outcome)} entries for "
            f"{len(basis.factors)} measured groups"
        )
    return [f.index_of(l) for (_, f), l in zip(basis.factors, outcome)]


def project(
    state: StateVector, basis: ProductBasis, outcome: Sequence[str]
) -> tuple[float, StateVector | None]:
    """Probability of `outcome` and the collapsed state.

    Unmeasured sites are left untouched. If the probability falls below
    EPS_ZERO the branch is impossible and no state is returned.
    """
    basis._check_against(state)
    picks = _outcome_indices(basis, outcome)
    n = state.nsites
    operands: list = [state.tensor_view(), list(range(n))]
    for (group, factor), idx in zip(basis.factors, picks):
        operands.append(_factor_tensor(factor, group, state)[idx].conj())
        operands.append(list(group))
    rest_axes = list(basis.unmeasured)
    amp_rest = np.einsum(*operands, rest_axes)
    p = float(np.sum(np.abs(amp_rest) ** 2))
    if p < EPS_ZERO:
        return p, None
    operands = [amp_rest, rest_axes]
    for (group, factor), idx in zip(basis.factors, picks):
        operands.append(_factor_tensor(factor, group, state)[idx])
        operands.append(list(group))
    collapsed = np.einsum(*operands, list(range(n))) / np.sqrt(p)
    return p, StateVector(state.sites, collapsed.reshape(-1))


def premeasure(
    state: StateVector, site: int | Sequence[int], basis: SiteBasis
) -> StateVector:
    """Couple a fresh memory site to `site` through the basis.

    Acts as the isometry sum_i |b_i><b_i| (x) |i>_memory: each basis component
    of the measured group is copied into a new final site whose dimension is
    the number of outcomes. Linear and norm-preserving by construction.
    """
    group = _normalized_group(site)
    for s in group:
        if not (0 <= s < state.nsites):
            raise ValueError(f"site {s} out of range for {state.nsites} sites")
    if len(set(group)) != len(group):
        raise ValueError(f"repeated site in group {group}")
    d = prod(state.sites[s] for s in group)
    if basis.dim != d:
        raise ValueError(
            f"basis dimension {basis.dim} does not match site group {group} "
            f"of dimension {d}"
        )
    n = state.nsites
    v = _factor_tensor(basis, group, state)
    mem_axis = n + 1
    rest_axes = [a for a in range(n) if a not in group]
    comp = np.einsum(
        v.conj(), [mem_axis] + list(group), state.tensor_view(), list(range(n)),
        [mem_axis] + rest_axes,
    )
    expanded = np.einsum(
        v, [mem_axis] + list(group), comp, [mem_axis] + rest_axes,
        list(range(n)) + [mem_axis],
    )
    return StateVector(state.sites + (basis.n_outcomes,), expanded.reshape(-1))
