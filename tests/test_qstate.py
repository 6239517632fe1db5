"""Unit tests for the state-vector layer.

Expected numbers come from two places: closed-form tables worked out by hand
for the standard two-qubit state (1/sqrt 3)(|00> + |10> + |11>), and small
direct-summation oracles recomputed inline (see _born_bruteforce).
"""

from __future__ import annotations

import numpy as np
import pytest

from contextuality.qstate import (
    EPS_NORM,
    EPS_ZERO,
    Distribution,
    ProductBasis,
    SiteBasis,
    StateVector,
    born,
    computational_basis,
    diagonal_basis,
    memory_basis,
    premeasure,
    project,
    tensor,
)

S3 = 1.0 / np.sqrt(3.0)
S2 = 1.0 / np.sqrt(2.0)


def hardy_state() -> StateVector:
    return StateVector((2, 2), np.array([S3, 0.0, S3, S3], dtype=complex))


def qubit(a: complex, b: complex) -> StateVector:
    v = np.array([a, b], dtype=complex)
    return StateVector((2,), v / np.linalg.norm(v))


def full_basis(state: StateVector, *factors) -> ProductBasis:
    return ProductBasis.for_state_sites(state.nsites, list(factors))


def _born_bruteforce(state: StateVector, basis: ProductBasis) -> dict:
    """Independent direct-summation Born rule: loop over every joint outcome
    and every unmeasured index, no einsum."""
    import itertools

    T = state.amplitudes.reshape(state.sites)
    groups = [g for g, _ in basis.factors]
    bases = [b for _, b in basis.factors]
    un = list(basis.unmeasured)
    out = {}
    for picks in itertools.product(*[range(b.n_outcomes) for b in bases]):
        total = 0.0
        for un_vals in itertools.product(*[range(state.sites[s]) for s in un]):
            amp = 0.0 + 0.0j
            for idx in itertools.product(*[range(d) for d in state.sites]):
                ok = all(idx[s] == v for s, v in zip(un, un_vals))
                if not ok:
                    continue
                w = T[idx]
                for g, b, k in zip(groups, bases, picks):
                    sub = tuple(idx[s] for s in g)
                    dims = tuple(state.sites[s] for s in g)
                    flat = 0
                    for s_dim, s_val in zip(dims, sub):
                        flat = flat * s_dim + s_val
                    w = w * np.conj(b.vectors[k, flat])
                amp += w
            total += abs(amp) ** 2
        key = tuple(b.labels[k] for b, k in zip(bases, picks))
        out[key] = total
    return out


# ---------------------------------------------------------------- StateVector


def test_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector((2,), np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector((2,), np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        SiteBasis(((1.0, 0.0), (0.0, bad)), ("0", "1"))
    with pytest.raises(ValueError, match="out of range"):
        Distribution({("0",): 1.0, ("1",): bad})


def test_state_rejects_wrong_length():
    with pytest.raises(ValueError, match="does not match"):
        StateVector((2, 2), np.array([1.0, 0.0]))


def test_state_rejects_trivial_site():
    with pytest.raises(ValueError, match=">= 2"):
        StateVector((1,), np.array([1.0]))


def test_mixed_radix_order_leftmost_most_significant():
    # |x0 x1> with x0 most significant: |10> sits at flat index 2 for dims (2,2)
    psi = StateVector((2, 2), np.array([0, 0, 1, 0], dtype=complex))
    assert psi.tensor_view()[1, 0] == 1.0 + 0j


def test_tensor_concatenates_sites():
    a = qubit(1, 0)
    b = qubit(0, 1)
    ab = tensor(a, b)
    assert ab.sites == (2, 2)
    assert np.allclose(ab.amplitudes, [0, 1, 0, 0])


def test_tensor_norm_is_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = StateVector((2, 2), v / np.linalg.norm(v))
        b = StateVector((3,), w / np.linalg.norm(w))
        assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1) <= EPS_NORM


# ------------------------------------------------------------------ SiteBasis


def test_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        SiteBasis(np.array([[1, 0], [1, 0]], dtype=complex), ("a", "b"))


def test_basis_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="distinct"):
        SiteBasis(np.eye(2, dtype=complex), ("x", "x"))


def test_basis_rejects_incomplete():
    with pytest.raises(ValueError, match="complete"):
        SiteBasis(np.array([[1.0, 0.0]]), ("0",))


def test_named_bases():
    c = computational_basis()
    d = diagonal_basis()
    assert c.labels == ("0", "1")
    assert d.labels == ("+", "-")
    assert np.allclose(d.vectors, [[S2, S2], [S2, -S2]])


# ----------------------------------------------------------------------- born


def test_born_eigenstate_is_deterministic():
    psi = tensor(qubit(1, 0), qubit(0, 1))
    basis = full_basis(psi, (0, computational_basis()), (1, computational_basis()))
    dist = born(psi, basis)
    assert dist[("0", "1")] == pytest.approx(1.0, abs=EPS_ZERO)


def test_born_hardy_computational_table():
    psi = hardy_state()
    basis = full_basis(psi, (0, computational_basis()), (1, computational_basis()))
    dist = born(psi, basis)
    assert dist[("0", "0")] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[("0", "1")] == pytest.approx(0.0, abs=1e-12)
    assert dist[("1", "0")] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[("1", "1")] == pytest.approx(1 / 3, abs=1e-12)


def test_born_hardy_diagonal_table():
    psi = hardy_state()
    basis = full_basis(psi, (0, diagonal_basis()), (1, diagonal_basis()))
    dist = born(psi, basis)
    assert dist[("+", "+")] == pytest.approx(9 / 12, abs=1e-12)
    assert dist[("+", "-")] == pytest.approx(1 / 12, abs=1e-12)
    assert dist[("-", "+")] == pytest.approx(1 / 12, abs=1e-12)
    assert dist[("-", "-")] == pytest.approx(1 / 12, abs=1e-12)


def test_born_hardy_mixed_tables():
    psi = hardy_state()
    dc = born(psi, full_basis(psi, (0, diagonal_basis()), (1, computational_basis())))
    assert dc[("+", "0")] == pytest.approx(2 / 3, abs=1e-12)
    assert dc[("+", "1")] == pytest.approx(1 / 6, abs=1e-12)
    assert dc[("-", "0")] == pytest.approx(0.0, abs=1e-12)
    assert dc[("-", "1")] == pytest.approx(1 / 6, abs=1e-12)
    cd = born(psi, full_basis(psi, (0, computational_basis()), (1, diagonal_basis())))
    assert cd[("0", "+")] == pytest.approx(1 / 6, abs=1e-12)
    assert cd[("0", "-")] == pytest.approx(1 / 6, abs=1e-12)
    assert cd[("1", "+")] == pytest.approx(2 / 3, abs=1e-12)
    assert cd[("1", "-")] == pytest.approx(0.0, abs=1e-12)


def test_born_partial_measurement_traces_out():
    psi = hardy_state()
    basis = ProductBasis.for_state_sites(2, [(0, computational_basis())])
    assert basis.unmeasured == (1,)
    dist = born(psi, basis)
    assert dist[("0",)] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[("1",)] == pytest.approx(2 / 3, abs=1e-12)


def test_born_group_factor_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = StateVector((2, 3, 2), v / np.linalg.norm(v))
        pair = SiteBasis(np.eye(4, dtype=complex), tuple("abcd"))
        basis = ProductBasis.for_state_sites(3, [((0, 2), pair)])
        dist = born(psi, basis)
        ref = _born_bruteforce(psi, basis)
        for k, p in ref.items():
            assert dist[k] == pytest.approx(p, abs=1e-9)


def test_born_sums_to_one_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = StateVector((2, 2, 2), v / np.linalg.norm(v))
        basis = full_basis(
            psi, (0, diagonal_basis()), (1, computational_basis()),
            (2, diagonal_basis()),
        )
        assert sum(born(psi, basis).values()) == pytest.approx(1.0, abs=EPS_NORM)


def test_born_dimension_mismatch():
    psi = hardy_state()
    with pytest.raises(ValueError, match="dimension"):
        born(psi, full_basis(psi, (0, SiteBasis(np.eye(3), ("a", "b", "c"))),
                             (1, computational_basis())))


# -------------------------------------------------------------------- project


def test_project_impossible_branch():
    psi = hardy_state()
    basis = full_basis(psi, (0, computational_basis()), (1, computational_basis()))
    p, collapsed = project(psi, basis, ("0", "1"))
    assert p == pytest.approx(0.0, abs=EPS_ZERO)
    assert collapsed is None


def test_project_plus_onto_computational():
    psi = qubit(1, 1)
    basis = ProductBasis.for_state_sites(1, [(0, computational_basis())])
    p, collapsed = project(psi, basis, ("0",))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert collapsed.isclose(qubit(1, 0))


def test_project_hardy_diagonal_minus_minus():
    psi = hardy_state()
    basis = full_basis(psi, (0, diagonal_basis()), (1, diagonal_basis()))
    p, collapsed = project(psi, basis, ("-", "-"))
    assert p == pytest.approx(1 / 12, abs=1e-12)
    minus = qubit(1, -1)
    assert collapsed.isclose(tensor(minus, minus))


def test_project_unknown_label():
    psi = hardy_state()
    basis = full_basis(psi, (0, computational_basis()), (1, computational_basis()))
    with pytest.raises(ValueError, match="unknown outcome label"):
        project(psi, basis, ("0", "up"))


def test_project_probability_matches_born():
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector((2, 2), v / np.linalg.norm(v))
        basis = full_basis(psi, (0, diagonal_basis()), (1, computational_basis()))
        dist = born(psi, basis)
        for outcome in dist.keys():
            p, _ = project(psi, basis, outcome)
            assert abs(p - dist[outcome]) <= EPS_ZERO


def test_project_keeps_unmeasured_site():
    psi = tensor(qubit(1, 1), qubit(3, 4))
    basis = ProductBasis.for_state_sites(2, [(0, computational_basis())])
    p, collapsed = project(psi, basis, ("1",))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert collapsed.sites == (2, 2)
    assert collapsed.isclose(tensor(qubit(0, 1), qubit(3, 4)))


# ----------------------------------------------------------------- premeasure


def test_premeasure_copies_computational():
    psi = qubit(0.6, 0.8)
    out = premeasure(psi, 0, computational_basis())
    assert out.sites == (2, 2)
    assert np.allclose(out.amplitudes, [0.6, 0, 0, 0.8])


def test_premeasure_eigenstate_single_component():
    psi = qubit(1, 0)
    out = premeasure(psi, 0, computational_basis())
    assert np.allclose(out.amplitudes, [1, 0, 0, 0])


def test_premeasure_zero_in_diagonal_basis():
    # |0> = (|+> + |->)/sqrt 2, so the record state is
    # (|+,M+> + |-,M->)/sqrt 2 = (|00> + |01> + |10> - |11>)/2
    psi = qubit(1, 0)
    out = premeasure(psi, 0, diagonal_basis())
    assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_premeasure_is_isometric_randomized():
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector((2, 2), v / np.linalg.norm(v))
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        b = SiteBasis(
            np.array(
                [
                    [np.cos(theta), np.exp(1j * phi) * np.sin(theta)],
                    [-np.exp(-1j * phi) * np.sin(theta), np.cos(theta)],
                ]
            ),
            ("u", "d"),
        )
        out = premeasure(psi, 1, b)
        assert abs(np.linalg.norm(out.amplitudes) - 1) <= EPS_NORM


def test_premeasure_is_linear():
    rng = np.random.default_rng(17)
    b = diagonal_basis()
    v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    a, c = 0.3 + 0.1j, -0.7 + 0.2j
    combo = a * v1 + c * v2
    s1 = StateVector((2,), v1 / np.linalg.norm(v1))
    s2 = StateVector((2,), v2 / np.linalg.norm(v2))
    lhs = premeasure(StateVector((2,), combo / np.linalg.norm(combo)), 0, b).amplitudes
    rhs = (
        a * np.linalg.norm(v1) * premeasure(s1, 0, b).amplitudes
        + c * np.linalg.norm(v2) * premeasure(s2, 0, b).amplitudes
    ) / np.linalg.norm(combo)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_memory_site_reproduces_original_statistics():
    # measuring the memory site computationally equals measuring the original
    # site in the premeasured basis (observer-as-unitary consistency)
    rng = np.random.default_rng(19)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector((2, 2), v / np.linalg.norm(v))
        b = diagonal_basis()
        expanded = premeasure(psi, 0, b)
        direct = born(psi, ProductBasis.for_state_sites(2, [(0, b)]))
        via_memory = born(
            expanded,
            ProductBasis.for_state_sites(3, [(2, memory_basis(b))]),
        )
        for label in b.labels:
            assert via_memory[(label,)] == pytest.approx(
                direct[(label,)], abs=EPS_NORM
            )


def test_premeasure_group_site():
    # premeasure a two-qubit group in the computational pair basis
    psi = tensor(qubit(1, 1), qubit(1, 0))
    pair = SiteBasis(np.eye(4, dtype=complex), ("00", "01", "10", "11"))
    out = premeasure(psi, (0, 1), pair)
    assert out.sites == (2, 2, 4)
    view = out.amplitudes.reshape(2, 2, 4)
    assert view[0, 0, 0] == pytest.approx(S2, abs=1e-12)
    assert view[1, 0, 2] == pytest.approx(S2, abs=1e-12)
    assert abs(view).sum() == pytest.approx(2 * S2, abs=1e-12)


def test_premeasure_site_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        premeasure(qubit(1, 0), 1, computational_basis())


# --------------------------------------------------------------- Distribution


def test_distribution_clamps_tiny_negative():
    d = Distribution({("a",): 1.0, ("b",): -1e-13})
    assert d[("b",)] == 0.0


def test_distribution_rejects_negative():
    with pytest.raises(ValueError, match="out of range"):
        Distribution({("a",): 1.1, ("b",): -0.1})


def test_distribution_rejects_bad_total():
    with pytest.raises(ValueError, match="sum"):
        Distribution({("a",): 0.6, ("b",): 0.6})
