"""Incidence matrices, the simplex engine, and the fraction program."""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import contextuality
from contextuality import ncpoly
from contextuality.logic import (
    Classification,
    classify,
    count_global_sections,
    cycle_empirical_model,
    global_sections,
)
from contextuality.ncpoly import (
    FractionResult,
    IncidenceMatrix,
    SignallingModelError,
    contextual_fraction,
    incidence,
    simplex,
)
from contextuality.qstate import SiteBasis, StateVector
from contextuality.scenario import (
    Distribution,
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
    realize,
    snap_to_rationals,
    support_of,
)
from contextuality.cli import run
from contextuality.scnformat import parse_file, serialize_model

import ncf_pins
from conftest import HARDY_CONTEXTS, hardy_like_cycle, parity_box_mixture
from ncf_pins import NOISE_LEVELS, white_noise_odd_cycle
from oracles import _solve_square, ncf_vertex_enumeration, simplex_identity_block

# regression values, computed with oracles.ncf_vertex_enumeration and pinned
HARDY_NCF = Fraction(5, 6)
HARDY_WITNESS = {
    ("0", "+", "0", "+"): Fraction(1, 6),
    ("0", "+", "0", "-"): Fraction(1, 12),
    ("1", "+", "0", "+"): Fraction(1, 3),
    ("1", "+", "1", "+"): Fraction(1, 6),
    ("1", "-", "1", "+"): Fraction(1, 12),
}

DATA_DIR = Path(contextuality.__file__).parent / "data"


def _halves(*assignments):
    return {a: Fraction(1, 2) for a in assignments}


# exact NCF and witness of every shipped model file, pinned from the
# solver before its integer certificate existed; fr is reported snapped
CORPUS_NCF = {
    "cycle_3_even": (Fraction(1), _halves(("0",) * 3, ("1",) * 3)),
    "cycle_3_odd": (Fraction(0), {}),
    "cycle_4_even": (Fraction(1), _halves(("0",) * 4, ("1",) * 4)),
    "cycle_4_odd": (Fraction(0), {}),
    "cycle_5_even": (Fraction(1), _halves(("0",) * 5, ("1",) * 5)),
    "cycle_5_odd": (Fraction(0), {}),
    "fr": (HARDY_NCF, HARDY_WITNESS),
    "hardy": (HARDY_NCF, HARDY_WITNESS),
}


# ------------------------------------------------------------ incidence


def test_incidence_hardy_shape_and_orders(hardy_scenario):
    inc = incidence(hardy_scenario)
    assert inc.matrix.shape == (16, 16)
    assert inc.rows[0] == (("A_d", "B_c"), ("+", "0"))
    assert inc.rows[1] == (("A_d", "B_c"), ("+", "1"))
    assert inc.rows[4] == (("A_c", "B_c"), ("0", "0"))
    assert inc.assignments[0] == ("0", "+", "0", "+")
    assert inc.assignments[-1] == ("1", "-", "1", "-")
    # every assignment hits exactly one tuple per context
    assert all(inc.matrix.sum(axis=0) == len(hardy_scenario.contexts))
    # a two-observable tuple is hit by assignment_space / 4 assignments
    assert all(inc.matrix.sum(axis=1) == 4)


def _assert_membership_rule(inc: IncidenceMatrix, sc: Scenario) -> None:
    labels = [o.label for o in sc.observables]
    for r, (ctx, tup) in enumerate(inc.rows):
        pos = [labels.index(l) for l in ctx]
        for c, a in enumerate(inc.assignments):
            expected = 1 if tuple(a[i] for i in pos) == tup else 0
            assert inc.matrix[r, c] == expected


def test_incidence_restriction_is_the_membership_rule(hardy_scenario):
    _assert_membership_rule(incidence(hardy_scenario), hardy_scenario)


def _random_scenario(rng) -> Scenario:
    """1-5 observables of 1-4 outcomes; distinct contexts of 1-3
    observables in random order, drawn until every observable is in one."""
    k = int(rng.integers(1, 6))
    observables = tuple(
        Observable(f"X{i}", tuple(f"x{i}{j}" for j in range(int(rng.integers(1, 5)))))
        for i in range(k)
    )
    contexts: list[tuple[str, ...]] = []
    while (
        {l for ctx in contexts for l in ctx} != {o.label for o in observables}
        or len(contexts) < min(k, 3)
    ):
        size = int(rng.integers(1, min(k, 3) + 1))
        ctx = tuple(f"X{i}" for i in rng.permutation(k)[:size])
        if frozenset(ctx) not in map(frozenset, contexts):
            contexts.append(ctx)
    return Scenario(observables, tuple(contexts))


def test_incidence_membership_rule_mixed_radix():
    # radices 2, 3 and 4; context ("C", "A") lists its observables out of
    # declaration order
    fixed = Scenario(
        (
            Observable("A", ("a0", "a1")),
            Observable("B", ("b0", "b1", "b2")),
            Observable("C", ("c0", "c1", "c2", "c3")),
        ),
        (("A", "B"), ("C", "A"), ("B", "C"), ("C",)),
    )
    assert incidence(fixed).matrix.shape == (6 + 8 + 12 + 4, 24)
    # and seeded random scenarios: radix 1, contexts out of scenario order,
    # observables shared by several contexts
    rng = np.random.default_rng(1601)
    scenarios = [fixed] + [_random_scenario(rng) for _ in range(120)]
    unordered = shared = 0
    for sc in scenarios:
        labels = [o.label for o in sc.observables]
        unordered += any(list(c) != sorted(c, key=labels.index) for c in sc.contexts)
        shared += any(sum(l in c for c in sc.contexts) > 1 for l in labels)
    assert unordered > 60 and shared > 80
    assert any(len(o.outcomes) == 1 for sc in scenarios for o in sc.observables)
    for sc in scenarios:
        inc = incidence(sc)
        assert inc.assignments == tuple(
            itertools.product(*[o.outcomes for o in sc.observables])
        )
        assert inc.rows == tuple(
            (ctx, tup) for ctx in sc.contexts for tup in sc.joint_outcomes(ctx)
        )
        assert inc.matrix.shape == (len(inc.rows), sc.assignment_space())
        assert inc.matrix.dtype == np.int8
        assert not inc.matrix.flags.writeable
        _assert_membership_rule(inc, sc)
        assert all(inc.matrix.sum(axis=0) == len(sc.contexts))


def test_incidence_cycle_shape():
    m = cycle_empirical_model(3, "odd")
    inc = incidence(m.scenario)
    assert inc.matrix.shape == (12, 8)


def test_incidence_guard_rejects_huge_scenarios():
    n = 21
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(n))
    contexts = tuple(
        (f"X{i}", f"X{(i + 1) % n}") for i in range(n)
    )
    sc = Scenario(obs, contexts)
    with pytest.raises(ValueError, match="2\\*\\*20"):
        incidence(sc)


def test_incidence_entry_guard_rejects_dense_context_sets():
    """Every pair of 20 binary observables as a context: 2**20 columns, but
    760 rows would need a 5.9 GiB float copy in the simplex. One context
    over 30 observables is refused before its 2**30 rows are listed. The
    binary 20-cycle sits exactly at the entry bound."""
    obs = tuple(Observable(f"X{i}", ("0", "1")) for i in range(20))
    pairs = tuple(itertools.combinations([o.label for o in obs], 2))
    with pytest.raises(
        ValueError, match=r"760 rows x 1048576 columns exceeds the 80 \* 2\*\*20"
    ):
        incidence(Scenario(obs, pairs))
    wide = tuple(Observable(f"Y{i}", ("0", "1")) for i in range(30))
    with pytest.raises(ValueError, match=r"1073741824 rows x 1073741824 columns"):
        incidence(Scenario(wide, (tuple(o.label for o in wide),)))
    cycle = cycle_empirical_model(20, "odd").scenario
    rows = sum(len(cycle.joint_outcomes(ctx)) for ctx in cycle.contexts)
    assert rows * cycle.assignment_space() == ncpoly.MAX_INCIDENCE_ENTRIES


def test_more_observables_than_array_dimensions(tmp_path, capsys):
    """A chain of 70 one-outcome observables, each but the last a context
    on its own and with its successor: 138 rows, one assignment. The digit
    columns are built by repeating and tiling, not as one array of 70
    dimensions, past numpy's 64: the incidence is 138 x 1, the NCF is 1
    exactly, by the library and by `ncf`, and the one section is listed."""
    obs = tuple(Observable(f"X{i}", ("0",)) for i in range(70))
    ctxs = tuple(c for i in range(69) for c in ((f"X{i}",), (f"X{i}", f"X{i + 1}")))
    sc = Scenario(obs, ctxs)
    inc = incidence(sc)
    assert inc.matrix.shape == (138, 1) and (inc.matrix == 1).all()
    assert inc.assignments == (("0",) * 70,)
    certain = {
        c: Distribution({("0",) * len(c): 1.0}, {("0",) * len(c): Fraction(1)}) for c in ctxs
    }
    m = EmpiricalModel(sc, certain)
    res = contextual_fraction(m)
    assert res.ncf_exact == 1 and res.witness_exact == {("0",) * 70: 1}
    [section] = global_sections(support_of(m))
    assert section.values == ("0",) * 70
    path = tmp_path / "chain_70.scn"
    path.write_text(serialize_model(m, "chain_70"), encoding="utf-8")
    assert run(["ncf", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["fraction"]["ncf"]["exact"] == "1"


@pytest.mark.parametrize("n", [21, 24, 101, 301, 1001])
def test_sparse_cycles_past_the_assignment_wall(n):
    """Odd and Hardy-like n-cycles have 2**n assignments, past the entry
    guard from n = 21 on, but 0 and 2 global sections: the enumerator keeps
    at most 4 candidates a layer, so the program is built on the sections
    alone, NCF 0 with no LP and 2a exactly on the 2n x 2 program of the
    rows they hit, each in under half a second."""
    a = Fraction(1, 8)
    programs = []
    real = ncpoly.simplex

    def recorded(c, A, rhs):
        programs.append(A.shape)
        return real(c, A, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncpoly, "simplex", recorded)
        for m, ncf in ((cycle_empirical_model(n, "odd"), 0), (hardy_like_cycle(n, a), 2 * a)):
            start = time.perf_counter()
            res = contextual_fraction(m)
            assert time.perf_counter() - start < 0.5
            assert res.ncf_exact == ncf
    assert programs == [(2 * n, 2)]


def test_the_entry_guard_is_the_incidence_limit():
    """13 ternary singletons: 3**13 = 1594323 columns, past 2**20, but only
    39 rows, so the matrix (62 MB as bools) is within the entry guard and is
    built: each context's rows hold exactly one 1 in every column, the row
    of the column's own digit."""
    n = 13
    obs = tuple(Observable(f"X{i}", ("0", "1", "2")) for i in range(n))
    inc = incidence(Scenario(obs, tuple((o.label,) for o in obs)))
    assert inc.matrix.shape == (3 * n, 3**n)
    for k in range(n):
        block = inc.matrix[3 * k : 3 * k + 3]
        assert (block.sum(axis=0, dtype=np.int8) == 1).all()
    rng = np.random.default_rng(13)
    for col in [0, 3**n - 1, *rng.integers(0, 3**n, size=20).tolist()]:
        hit = [inc.rows[r] for r in np.flatnonzero(inc.matrix[:, col])]
        assert hit == [((f"X{i}",), (v,)) for i, v in enumerate(inc.decode([col])[0])]


# -------------------------------------------------------------- simplex


def test_lp_shape_validation():
    with pytest.raises(ValueError, match="two-dimensional"):
        simplex((1.0,), (1.0,), (1.0,))
    with pytest.raises(ValueError, match="equal length"):
        simplex((1.0,), ((1.0,),), (1.0, 1.0))
    with pytest.raises(ValueError, match="width"):
        simplex((1.0, 1.0), ((1.0,),), (1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        simplex((1.0,), ((1.0,),), (-1.0,))


def test_simplex_box():
    value, x, basis, inverse = simplex(
        np.ones(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 3.0])
    )
    assert value == pytest.approx(5.0, abs=1e-9)
    assert x == pytest.approx((2.0, 3.0), abs=1e-9)
    assert isinstance(x, np.ndarray) and isinstance(basis, np.ndarray)
    # B = I on the basic columns 0 and 1, in basis order
    assert basis.tolist() == [0, 1] and inverse.tolist() == [[1, 0], [0, 1]]
    # without rows, a nonpositive objective is optimal at x = 0
    value, x, basis, inverse = simplex(
        np.array([0.0, -1.0]), np.zeros((0, 2)), np.zeros(0)
    )
    assert value == 0 and x.tolist() == [0, 0] and basis.tolist() == []
    assert inverse.shape == (0, 0)


def test_simplex_prefers_the_better_corner():
    value, _, _, _ = simplex(
        np.array([2.0, 1.0]), np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([4.0, 2.0])
    )
    assert value == pytest.approx(6.0, abs=1e-9)


def test_simplex_unbounded():
    assert simplex(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.ones(1)) is None
    # without rows, a positive objective is unbounded
    assert simplex(np.array([0.0, 1.0]), np.zeros((0, 2)), np.zeros(0)) is None


def test_simplex_survives_the_classic_cycling_program():
    # degenerate program on which the naive pivot rule loops forever
    c = np.array([10.0, -57.0, -9.0, -24.0])
    A = np.array(
        [
            [0.5, -5.5, -2.5, 9.0],
            [0.5, -1.5, -0.5, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    rhs = np.array([0.0, 0.0, 1.0])
    value, _, _, _ = simplex(c, A, rhs)
    assert value == pytest.approx(1.0, abs=1e-9)
    ref = _scipy_reference(c, A, rhs)
    assert value == pytest.approx(-ref.fun, abs=1e-7)


def _ncf_lp(m: EmpiricalModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decomposition LP (c, A, rhs) that contextual_fraction solves for
    m: the rhs comes from the exact tables when the model has them."""
    inc = incidence(m.scenario)
    rhs = [
        float(m.tables[ctx].exact[tup] if m.exact_available else m.tables[ctx][tup])
        for ctx, tup in inc.rows
    ]
    return np.ones(inc.matrix.shape[1]), inc.matrix, np.array(rhs)


def _scipy_reference(c, A, rhs):
    return linprog(-c, A_ub=A, b_ub=rhs, method="highs")


def test_simplex_matches_scipy_on_random_inequality_programs():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        if trial % 2:
            A = rng.uniform(0.0, 1.0, size=(m, n))
        else:
            A = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        res = simplex(c, A, b)
        ref = _scipy_reference(c, A, b)
        if res is None:
            assert ref.status == 3
            continue
        assert ref.status == 0
        assert res[0] == pytest.approx(-ref.fun, abs=1e-6)


# ------------------------------------------------- noncontextual fraction


def _possible(m: EmpiricalModel, ctx, tup) -> bool:
    return (m.tables[ctx].exact if m.exact_available else m.tables[ctx])[tup] != 0


def _kept_by_brute_force(m: EmpiricalModel, inc: IncidenceMatrix):
    """(rows, cols) of inc that the support keeps, from the assignments
    themselves: the columns whose every restriction is possible, and the
    rows that one of them restricts to."""
    labels = [o.label for o in m.scenario.observables]
    pos = {ctx: [labels.index(l) for l in ctx] for ctx in m.scenario.contexts}
    cols = [
        j for j, a in enumerate(inc.assignments)
        if all(_possible(m, ctx, tuple(a[i] for i in at)) for ctx, at in pos.items())
    ]
    hit = {
        (ctx, tuple(inc.assignments[j][i] for i in at))
        for j in cols for ctx, at in pos.items()
    }
    return [r for r, key in enumerate(inc.rows) if key in hit], cols


def test_ncf_program_shape(hardy_model, monkeypatch):
    """contextual_fraction's simplex call: c all ones over the global
    sections of the support, A the incidence matrix's submatrix of the rows
    they hit and those columns, and rhs those rows' probabilities, all
    positive, exact where the model has them. Every program is handed over
    as an incidence's own read-only matrix, uncopied; a model with no
    probability 0 hands over the whole incidence matrix."""
    calls = []
    real = ncpoly.simplex

    def recorded(c, A, rhs):
        calls.append((c, A, rhs))
        return real(c, A, rhs)

    monkeypatch.setattr(ncpoly, "simplex", recorded)
    fr = _corpus_model("fr")
    noisy = white_noise_odd_cycle(5, Fraction(9, 10))
    models = (hardy_model, fr, noisy)
    for m in models:
        contextual_fraction(m)
    built = [incidence(m.scenario) for m in models]
    # Hardy's five global sections are its pinned witness; 12 of its 16 rows
    # are possible, and each is hit by one of them
    rows, cols = _kept_by_brute_force(hardy_model, built[0])
    assert [built[0].assignments[j] for j in cols] == list(HARDY_WITNESS)
    assert len(rows) == 12
    assert calls[0][1].shape == (12, 5)
    # fr's 64 x 256 program keeps 12 x 5 too
    assert built[1].matrix.shape == (64, 256) and calls[1][1].shape == (12, 5)
    for m, inc, (c, A, rhs) in zip(models, built, calls):
        rows, cols = _kept_by_brute_force(m, inc)
        assert c.tolist() == [1.0] * len(cols)
        assert A.tolist() == inc.matrix[np.ix_(rows, cols)].tolist()
        # a model with exact tables poses them, even where snapping moved a
        # value
        tables = {
            ctx: dist.exact if m.exact_available else dist for ctx, dist in m.tables.items()
        }
        keys = [inc.rows[r] for r in rows]
        assert rhs.tolist() == [float(tables[ctx][tup]) for ctx, tup in keys]
        assert (rhs > 0).all()
    for _, A, _ in calls:
        assert A.dtype == np.int8 and A.base.dtype == bool and not A.flags.writeable
    assert calls[2][1].tolist() == built[2].matrix.tolist()


def test_hardy_fraction_float_path(hardy_model):
    res = contextual_fraction(hardy_model)
    assert res.ncf == pytest.approx(float(HARDY_NCF), abs=1e-9)
    assert res.cf == pytest.approx(1 - float(HARDY_NCF), abs=1e-9)
    assert res.ncf_exact is None
    assert set(res.witness) == set(HARDY_WITNESS)


def test_hardy_fraction_exact_path(hardy_model):
    mx = snap_to_rationals(hardy_model)
    assert mx is not None
    res = contextual_fraction(mx)
    assert res.ncf_exact == HARDY_NCF
    assert res.witness_exact == HARDY_WITNESS
    assert res.ncf == float(HARDY_NCF)
    assert res.cf == pytest.approx(1 - float(HARDY_NCF), abs=1e-12)


def test_hardy_fraction_agrees_with_vertex_oracle(hardy_model):
    mx = snap_to_rationals(hardy_model)
    best, witness = ncf_vertex_enumeration(mx)
    assert best == HARDY_NCF
    assert witness == HARDY_WITNESS


def test_strongly_contextual_cycle_has_zero_fraction():
    res = contextual_fraction(cycle_empirical_model(3, "odd"))
    assert res.ncf_exact == 0
    assert res.ncf == 0.0
    assert res.cf == 1.0
    assert res.witness == {}
    # the same PR box with float tables only: no exact answer to give
    m = cycle_empirical_model(3, "odd")
    floats = {c: Distribution(dict(t.items())) for c, t in m.tables.items()}
    res = contextual_fraction(EmpiricalModel(m.scenario, floats))
    assert (res.ncf, res.cf, res.witness, res.ncf_exact) == (0.0, 1.0, {}, None)


def test_extendable_cycle_has_full_fraction():
    res = contextual_fraction(cycle_empirical_model(4, "even"))
    assert res.ncf_exact == 1
    assert res.cf == pytest.approx(0.0, abs=1e-12)
    assert set(res.witness_exact) == {("0",) * 4, ("1",) * 4}
    assert all(w == Fraction(1, 2) for w in res.witness_exact.values())


def test_product_model_has_full_fraction():
    sc = Scenario(
        (
            Observable("X", ("0", "1")),
            Observable("Y", ("0", "1")),
            Observable("Z", ("0", "1")),
        ),
        (("X", "Y"), ("X", "Z")),
    )
    px = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
    py = {"0": Fraction(1, 3), "1": Fraction(2, 3)}
    pz = {"0": Fraction(1, 2), "1": Fraction(1, 2)}

    def table(pa, pb):
        exact = {
            (a, b): pa[a] * pb[b] for a in "01" for b in "01"
        }
        return Distribution(
            {k: float(v) for k, v in exact.items()}, exact
        )

    m = EmpiricalModel(
        sc, {("X", "Y"): table(px, py), ("X", "Z"): table(px, pz)}
    )
    res = contextual_fraction(m)
    assert res.ncf_exact == 1
    assert res.ncf == 1.0
    # a full decomposition reproduces every table row exactly
    for ctx in sc.contexts:
        pos = [("X", "Y", "Z").index(l) for l in ctx]
        for tup, p in m.tables[ctx].exact.items():
            mass = sum(
                w
                for a, w in res.witness_exact.items()
                if tuple(a[i] for i in pos) == tup
            )
            assert mass == p


def test_signalling_model_is_rejected():
    sc = Scenario(
        (
            Observable("X", ("0", "1")),
            Observable("Y", ("0", "1")),
            Observable("Z", ("0", "1")),
        ),
        (("X", "Y"), ("X", "Z")),
    )
    m = EmpiricalModel(
        sc,
        {
            ("X", "Y"): Distribution(
                {("0", "0"): 1.0, ("0", "1"): 0.0,
                 ("1", "0"): 0.0, ("1", "1"): 0.0}
            ),
            ("X", "Z"): Distribution(
                {("0", "0"): 0.0, ("0", "1"): 0.0,
                 ("1", "0"): 1.0, ("1", "1"): 0.0}
            ),
        },
    )
    with pytest.raises(SignallingModelError):
        contextual_fraction(m)


def test_fraction_is_invariant_under_declaration_order(hardy_model):
    base = contextual_fraction(hardy_model)
    sc = hardy_model.scenario
    perm_obs = tuple(sc.observables[i] for i in (3, 1, 0, 2))
    perm_ctx = tuple(HARDY_CONTEXTS[i] for i in (2, 0, 3, 1))
    sc2 = Scenario(perm_obs, perm_ctx)
    m2 = EmpiricalModel(
        sc2, {ctx: hardy_model.tables[ctx] for ctx in perm_ctx}
    )
    res = contextual_fraction(m2)
    assert res.ncf == pytest.approx(base.ncf, abs=1e-12)


def test_fraction_is_invariant_under_outcome_relabeling(hardy_model):
    relabel = {"+": "u", "-": "d"}

    def fix(label, value):
        return relabel[value] if label.endswith("_d") else value

    sc = hardy_model.scenario
    obs = tuple(
        Observable(
            o.label, tuple(fix(o.label, v) for v in o.outcomes)
        )
        for o in sc.observables
    )
    sc2 = Scenario(obs, sc.contexts)
    tables = {}
    for ctx in sc.contexts:
        probs = {
            tuple(fix(l, v) for l, v in zip(ctx, tup)): p
            for tup, p in hardy_model.tables[ctx].items()
        }
        tables[ctx] = Distribution(probs)
    res = contextual_fraction(EmpiricalModel(sc2, tables))
    assert res.ncf == pytest.approx(
        contextual_fraction(hardy_model).ncf, abs=1e-12
    )


def test_fraction_matches_scipy_on_random_quantum_models(hardy_scenario):
    from contextuality.qstate import (
        SiteBasis,
        StateVector,
        computational_basis,
    )
    from contextuality.scenario import MeasurementRecipe, QuantumRealization

    rng = np.random.default_rng(23)
    for _ in range(25):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        state = StateVector((2, 2), amp)

        def random_basis(labels):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            return SiteBasis(tuple(map(tuple, q.T)), labels)

        qr = QuantumRealization(
            state,
            {
                "A_c": MeasurementRecipe((0,), computational_basis()),
                "A_d": MeasurementRecipe((0,), random_basis(("+", "-"))),
                "B_c": MeasurementRecipe((1,), computational_basis()),
                "B_d": MeasurementRecipe((1,), random_basis(("+", "-"))),
            },
        )
        m = realize(qr, hardy_scenario)
        res = contextual_fraction(m)
        ref = _scipy_reference(*_ncf_lp(m))
        assert ref.status == 0
        assert res.ncf == pytest.approx(-ref.fun, abs=1e-7)
        assert 0.0 <= res.ncf <= 1.0


def _corpus_model(name: str) -> EmpiricalModel:
    f = parse_file((DATA_DIR / f"{name}.scn").read_text(encoding="utf-8"))
    m = f.model if f.model is not None else realize(f.realization, f.scenario)
    return m if m.exact_available else snap_to_rationals(m)


def _chained_bell(n: int, phi: float) -> EmpiricalModel:
    """Bell pair (|00> + |11>)/sqrt 2 with S(j+1) measured on qubit j % 2 at
    Bloch angle j*pi/n + phi in the x-z plane: the odd n-cycle's quantum
    realization, irrational tables, NCF = n(1 - cos(pi/n))/2."""
    sc = Scenario(
        tuple(Observable(f"S{j}", ("0", "1")) for j in range(1, n + 1)),
        tuple((f"S{j}", f"S{j % n + 1}") for j in range(1, n + 1)),
    )
    r = 1 / np.sqrt(2)
    state = StateVector((2, 2), np.array([r, 0, 0, r], dtype=complex))
    recipes = {}
    for j in range(n):
        half = (j * np.pi / n + phi) / 2
        c, s = np.cos(half), np.sin(half)
        basis = SiteBasis(((c, s), (-s, c)), ("0", "1"))
        recipes[f"S{j + 1}"] = MeasurementRecipe((j % 2,), basis)
    return realize(QuantumRealization(state, recipes), sc)


def _pinned_basis_models():
    for name in CORPUS_NCF:
        yield f"corpus {name}", _corpus_model(name)
    for n in range(3, 10):
        for v in NOISE_LEVELS:
            yield f"odd {n} {v}", white_noise_odd_cycle(n, v)
    for n in (6, 8):
        yield f"chained_bell {n}", _chained_bell(n, 0.3)


def test_simplex_pivot_path_is_pinned():
    """Bland's rule and its tie-break fix the pivot path and with it the
    optimal basis, the float witness and every printed witness. The bases in
    simplex_bases.json were pinned from the tableau simplex that the revised
    simplex replaced; a change to the entering or leaving rule shows here
    instead of as silently different witnesses."""
    pinned = json.loads(
        (Path(__file__).parent / "simplex_bases.json").read_text()
    )
    models = dict(_pinned_basis_models())
    assert set(models) == set(pinned)
    for key, m in models.items():
        assert simplex(*_ncf_lp(m))[2].tolist() == pinned[key], key
    for n in (6, 8):
        res = contextual_fraction(models[f"chained_bell {n}"])
        assert res.ncf_exact is None
        assert res.ncf == pytest.approx(n * (1 - np.cos(np.pi / n)) / 2)


def _bits(result) -> tuple | None:
    """simplex's (value, x, basis, B^-1) as bytes, so that equal means bit
    for bit, the sign of a zero included."""
    if result is None:
        return None
    value, x, basis, inverse = result
    return (
        np.float64(value).tobytes(),
        x.dtype, x.shape, x.tobytes(),
        basis.tolist(),
        inverse.dtype, inverse.shape, inverse.tobytes(),
    )


def _degenerate_program(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A small program with 0/1 or integer entries, zero right-hand sides
    and repeated columns, so that Bland's tie-breaks decide the path."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13))
    if rng.random() < 0.5:
        A = rng.integers(0, 2, size=(m, n))
    else:
        A = rng.integers(-2, 4, size=(m, n))
    copies = rng.integers(0, n, size=int(rng.integers(0, n)))
    A[:, copies] = A[:, rng.integers(0, n, size=len(copies))]
    rhs = rng.integers(0, 4, size=m) * (rng.random(m) < 0.6)
    c = rng.integers(-1, 3, size=n)
    return c.astype(float), A.astype(rng.choice([np.int8, np.float64])), rhs.astype(float)


def test_simplex_is_the_identity_block_simplex_bit_for_bit():
    """Reduced costs updated by B^-1's leaving row between full pricings,
    the slacks priced as -y, and a slack's entering column read off B^-1,
    give what the [A | I] simplex in oracles gave, which prices every
    column afresh at every pivot: the same value, x, basis and B^-1, bit
    for bit, on the pinned NCF programs, the larger chained-Bell and
    white-noise programs where most pricings are updates, the long Bland
    paths of the tie family at v = 1/3 + 2**-40 (n = 9 and 11 take 287 and
    1152 pivots) and seeded degenerate programs."""
    programs = [_ncf_lp(m) for _, m in _pinned_basis_models()]
    programs += [_ncf_lp(_chained_bell(n, 0.3)) for n in (10, 12)]
    programs += [
        _ncf_lp(white_noise_odd_cycle(n, v))
        for n in (10, 11)
        for v in (Fraction(9, 10), Fraction(4, 5))
    ]
    programs += [_ncf_lp(white_noise_odd_cycle(n, ncf_pins.TIE)) for n in (7, 9, 11)]
    rng = np.random.default_rng(1602)
    programs += [_degenerate_program(rng) for _ in range(300)]
    unbounded = moved = 0
    for c, A, rhs in programs:
        got = simplex(c, A, rhs)
        assert _bits(got) == _bits(simplex_identity_block(c, A, rhs))
        unbounded += got is None
        moved += got is not None and (got[2] < len(c)).any()
    assert unbounded > 20 and moved > 200


def test_closed_forms_past_the_pinned_sizes():
    """White-noise odd n-cycles at v = 19/20 have NCF n(1 - v)/2 = n/40
    exactly at 2**13 and 2**15 columns, where the simplex prices mostly by
    updates; the chained-Bell 14-cycle's closed form is checked in
    test_contextual_fraction_builds_no_assignment_tuple."""
    for n in (13, 15):
        res = contextual_fraction(white_noise_odd_cycle(n, Fraction(19, 20)))
        assert res.ncf_exact == Fraction(n, 40), n
        assert sum(res.witness_exact.values()) == Fraction(n, 40)


def _dual_pivots(monkeypatch) -> list[int]:
    """Records the leaving row of every dual-simplex pivot of the exact
    routine. The pivots by which _start builds d B^-1 are not recorded: they
    run on the square d B^-1 alone, the repair's on d B^-1 [P | I]."""
    pivots = []
    pivot = ncpoly._pivot

    def counted(aug, col, r, d):
        if aug.shape[1] > len(aug):
            pivots.append(r)
        return pivot(aug, col, r, d)

    monkeypatch.setattr(ncpoly, "_pivot", counted)
    return pivots


def _start_scales(monkeypatch) -> list:
    """Records the scale d = |det B| of every start system _start builds,
    None where it finds B singular."""
    scales = []
    start = ncpoly._start

    def recorded(A, P, basis):
        system = start(A, P, basis)
        scales.append(system and system[0])
        return system

    monkeypatch.setattr(ncpoly, "_start", recorded)
    return scales


def _slack_started(monkeypatch) -> list:
    """Hands contextual_fraction's exact routine the slack basis in place of
    the float-optimal one. The slack basis is never dual feasible, so the
    routine restarts from _context_basis; records each restart."""
    starts = []
    real_simplex, context_basis = ncpoly.simplex, ncpoly._context_basis

    def slack(c, A, rhs):
        value, x, _, _ = real_simplex(c, A, rhs)
        nrows, n = A.shape
        return value, x, np.arange(n, n + nrows), np.eye(nrows)

    def counted(A, first):
        starts.append(A)
        return context_basis(A, first)

    monkeypatch.setattr(ncpoly, "simplex", slack)
    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    return starts


def test_exact_simplex_fallback_reproduces_pinned_fractions(monkeypatch):
    """Handed the slack basis in place of the float-optimal one, the exact
    routine restarts from _context_basis and pivots to the same exact
    optimum on every program and, on the corpus, to the same witness in the
    same order. A model with no global section (the odd corpus cycles, and
    the PR boxes at v = 1) never reaches the exact routine."""
    starts = _slack_started(monkeypatch)
    pivots = _dual_pivots(monkeypatch)
    reached = 0
    for name, (ncf, witness) in CORPUS_NCF.items():
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        assert list(res.witness_exact.items()) == list(witness.items()), name
        reached += ncf > 0
    for n in range(3, 7):
        for v in NOISE_LEVELS:
            res = contextual_fraction(white_noise_odd_cycle(n, v))
            expected = min(Fraction(1), n * (1 - v) / 2)
            assert res.ncf_exact == expected, (n, v)
            assert sum(res.witness_exact.values()) == expected
            assert res.ncf == float(expected)
            reached += expected > 0
    assert len(starts) == reached == 5 + 4 * (len(NOISE_LEVELS) - 1)
    assert pivots


def test_integer_certificate_pins_exact_fractions(monkeypatch):
    """The float-optimal basis of every pinned program is exactly optimal:
    the exact routine keeps it and makes zero dual-simplex pivots."""

    def no_restart(A, first):
        raise AssertionError("the float basis is not exactly dual feasible")

    monkeypatch.setattr(ncpoly, "_context_basis", no_restart)
    pivots = _dual_pivots(monkeypatch)
    with_models = {
        p.stem
        for p in DATA_DIR.glob("*.scn")
        if (f := parse_file(p.read_text(encoding="utf-8"))).model is not None
        or f.realization is not None
    }
    assert with_models == set(CORPUS_NCF)
    for name, (ncf, witness) in CORPUS_NCF.items():
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        # same entries in the same (column) order
        assert list(res.witness_exact.items()) == list(witness.items()), name
    # at v = (2**35-1)/2**35 the scaled right-hand sides exceed 2**31, so the
    # start system is built in Python ints
    for n in range(3, 8):
        for v in (
            Fraction(1),
            Fraction(9, 10),
            Fraction(4, 5),
            Fraction(2, 3),
            Fraction(2**35 - 1, 2**35),
        ):
            res = contextual_fraction(white_noise_odd_cycle(n, v))
            expected = min(Fraction(1), n * (1 - v) / 2)
            assert res.ncf_exact == expected, (n, v)
            assert sum(res.witness_exact.values()) == expected
            assert res.ncf == float(expected)
    assert pivots == []


def _first_rows(inc: IncidenceMatrix) -> int:
    """The number of the incidence's rows in its first context."""
    return sum(1 for ctx, _ in inc.rows if ctx == inc.rows[0][0])


def _slack_repair(m: EmpiricalModel):
    """The exact routine handed the slack basis, which is never dual
    feasible (every assignment column has reduced cost 1), so that it
    starts from _context_basis; its witness decoded column by column."""
    inc = incidence(m.scenario)
    p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
    nrows, n = inc.matrix.shape
    value, weights = ncpoly._exact_optimum(
        inc.matrix, _first_rows(inc), p, tuple(range(n, n + nrows)), np.eye(nrows)
    )
    return value, {inc.decode([j])[0]: w for j, w in weights.items()}


def _assert_exactly_feasible(m: EmpiricalModel, witness) -> None:
    """Positive weights whose mass on every table row is at most the row's
    exact probability."""
    assert all(w > 0 for w in witness.values())
    labels = [o.label for o in m.scenario.observables]
    for ctx in m.scenario.contexts:
        pos = [labels.index(l) for l in ctx]
        for tup, p in m.tables[ctx].exact.items():
            mass = sum(
                (w for a, w in witness.items() if tuple(a[i] for i in pos) == tup),
                Fraction(0),
            )
            assert mass <= p, (ctx, tup)


@pytest.mark.parametrize("n", [7, 9])
def test_repair_mends_a_rejected_float_basis_without_a_cold_start(monkeypatch, n):
    """At v = 1/3 + 2**-40 a tie below EPS_LP leaves the float simplex on a
    basis that is exactly primal infeasible, so at least one dual-simplex
    pivot runs. It is exactly dual feasible, so the pivots start from it and
    _context_basis is never built. The NCF is min(1, n(1 - v)/2) = 1."""
    v = Fraction(1, 3) + Fraction(1, 2**40)
    m = white_noise_odd_cycle(n, v)
    inc = incidence(m.scenario)
    p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
    _, P = ncpoly._scaled(p)
    _, _, basis, _ = simplex(*_ncf_lp(m))
    _, aug, _ = ncpoly._start(inc.matrix, P, basis)
    assert (aug[:, 0] < 0).any()

    def cold(A, first):
        raise AssertionError("the repair started from _context_basis")

    monkeypatch.setattr(ncpoly, "_context_basis", cold)
    pivots = _dual_pivots(monkeypatch)
    res = contextual_fraction(m)
    assert pivots
    assert res.ncf_exact == min(1, n * (1 - v) / 2) == 1
    assert sum(res.witness_exact.values()) == res.ncf_exact
    _assert_exactly_feasible(m, res.witness_exact)


def test_repair_from_the_slack_basis_reproduces_the_pins(monkeypatch):
    """Started cold, from _context_basis, the repair reaches the pinned
    corpus optimum and witness, in the same order, and the closed form on
    the white-noise grid."""
    starts = []
    context_basis = ncpoly._context_basis

    def counted(A, first):
        starts.append(A)
        return context_basis(A, first)

    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    for name, (ncf, witness) in CORPUS_NCF.items():
        value, witness_exact = _slack_repair(_corpus_model(name))
        assert value == ncf, name
        assert list(witness_exact.items()) == list(witness.items()), name
    for n in range(3, 10):
        for v in NOISE_LEVELS:
            m = white_noise_odd_cycle(n, v)
            value, witness_exact = _slack_repair(m)
            assert value == min(Fraction(1), n * (1 - v) / 2), (n, v)
            assert sum(witness_exact.values()) == value
            _assert_exactly_feasible(m, witness_exact)
    assert len(starts) == len(CORPUS_NCF) + 7 * len(NOISE_LEVELS)


def test_repair_pivot_rules_are_pinned():
    """Bland's rule fixes the repair's pivot path and with it the vertex it
    ends on among degenerate optima. These slack-started witnesses were
    pinned from the rules as specified: the least basic column leaving, ties
    to the least entering column, and the first column hitting each row in
    _context_basis. Changing any one of them moves at least one witness."""
    sc = cycle_empirical_model(5, "odd").scenario
    rows = (
        "3/20 2/5 0 9/20",
        "3/20 0 0 17/20",
        "3/20 0 2/5 9/20",
        "3/20 2/5 0 9/20",
        "0 3/20 11/20 3/10",
    )
    tables = {}
    for ctx, row in zip(sc.contexts, rows):
        exact = dict(zip(sc.joint_outcomes(ctx), map(Fraction, row.split())))
        tables[ctx] = Distribution({t: float(q) for t, q in exact.items()}, exact)
    twelfth = Fraction(1, 12)
    pinned = [
        (
            EmpiricalModel(sc, tables),
            [
                ("00001", Fraction(3, 20)),
                ("01101", Fraction(1, 4)),
                ("01111", Fraction(3, 20)),
                ("11100", Fraction(3, 20)),
                ("11111", Fraction(3, 10)),
            ],
        ),
        (
            white_noise_odd_cycle(9, Fraction(2, 3)),
            [
                (a, twelfth)
                for a in (
                    "000000111 000001111 000011111 000111111 001111110 "
                    "011111101 100000011 110000000 111000000 111100000 "
                    "111110000 111111000"
                ).split()
            ],
        ),
    ]
    for m, witness in pinned:
        value, witness_exact = _slack_repair(m)
        assert value == 1
        assert [("".join(a), w) for a, w in witness_exact.items()] == witness


def _random_box_mixture(rng, n: int) -> EmpiricalModel:
    """The odd n-cycle's PR box mixed with up to two deterministic
    assignments, at random rational weights."""
    box = cycle_empirical_model(n, "odd")
    labels = [o.label for o in box.scenario.observables]
    k = int(rng.integers(0, 3))
    weights = [Fraction(int(w)) for w in rng.integers(1, 13, k + 1)]
    weights = [w / sum(weights) for w in weights]
    points = [tuple(rng.choice(["0", "1"], n)) for _ in range(k)]
    tables = {}
    for ctx, dist in box.tables.items():
        exact = {tup: weights[0] * q for tup, q in dist.exact.items()}
        for w, a in zip(weights[1:], points):
            exact[tuple(a[labels.index(l)] for l in ctx)] += w
        tables[ctx] = Distribution(
            {tup: float(q) for tup, q in exact.items()}, exact
        )
    return EmpiricalModel(box.scenario, tables)


def test_forced_repairs_match_vertex_enumeration():
    """Seeded random box mixtures: the exact routine from the float basis
    and the one handed the slack basis both reach the vertex oracle's
    optimum with an exactly feasible witness. Models whose
    support leaves more than four assignments alive are skipped, since the
    oracle enumerates every choice of active constraints."""
    rng = np.random.default_rng(1104)
    values = set()
    for _ in range(120):
        m = _random_box_mixture(rng, int(rng.integers(3, 6)))
        inc = incidence(m.scenario)
        zero = [
            r for r, (ctx, tup) in enumerate(inc.rows)
            if m.tables[ctx].exact[tup] == 0
        ]
        if (inc.matrix[zero].sum(axis=0) == 0).sum() > 4:
            continue
        best, _ = ncf_vertex_enumeration(m)
        warm = contextual_fraction(m)
        assert warm.ncf_exact == best
        cold, witness = _slack_repair(m)
        assert cold == best == sum(witness.values())
        for witness in (warm.witness_exact, witness):
            _assert_exactly_feasible(m, witness)
        values.add(best)
    assert len(values) >= 20


def test_tiny_optimal_weights_are_validated_and_certified(tmp_path, capsys):
    """At v = 1 - 2/3**20 every optimal weight is below EPS_LP while their
    sum, the NCF n/3**20, is above it for n >= 4."""
    for n in range(4, 8):
        m = white_noise_odd_cycle(n, 1 - Fraction(2, 3**20))
        res = contextual_fraction(m)
        assert res.ncf_exact == Fraction(n, 3**20)
        assert sum(res.witness_exact.values()) == res.ncf_exact
        path = tmp_path / f"tiny_{n}.scn"
        path.write_text(serialize_model(m, f"tiny_{n}"), encoding="utf-8")
        assert run(["ncf", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().err == ""


def _basis_starts():
    """(label, incidence, P, basis) on every corpus program, every
    white-noise odd cycle, n = 3..9, and a program whose scaled
    probabilities need Python ints: the float-optimal basis,
    _context_basis, and seeded random mixes of assignment and slack columns
    in random order."""
    programs = [(name, _corpus_model(name)) for name in CORPUS_NCF]
    programs += [
        (f"odd {n} {v}", white_noise_odd_cycle(n, v))
        for n in range(3, 10)
        for v in NOISE_LEVELS
    ]
    programs.append(("huge", white_noise_odd_cycle(5, Fraction(2**35 - 1, 2**35))))
    rng = np.random.default_rng(1203)
    for label, m in programs:
        inc = incidence(m.scenario)
        p = tuple(m.tables[ctx].exact[tup] for ctx, tup in inc.rows)
        _, P = ncpoly._scaled(p)
        _, _, basis, _ = simplex(*_ncf_lp(m))
        yield label, inc, P, basis
        nrows, n = inc.matrix.shape
        M = np.hstack((inc.matrix, np.eye(nrows)))
        basis = np.array(ncpoly._context_basis(inc.matrix, _first_rows(inc)))
        yield label, inc, P, basis
        # a random walk from _context_basis that swaps in random columns,
        # skipping swaps that make the basis singular
        basis = rng.permutation(basis)
        for walk in range(2):
            for step in range(nrows):
                trial = basis.copy()
                trial[rng.integers(nrows)] = rng.integers(n + nrows)
                if len(set(trial.tolist())) == nrows:
                    if np.linalg.matrix_rank(M[:, trial]) == nrows:
                        basis = trial
            yield label, inc, P, basis
        # then one unchecked swap, often singular
        outside = np.setdiff1d(np.arange(n + nrows), basis)
        basis[rng.integers(nrows)] = rng.choice(outside)
        yield label, inc, P, basis


def _determinant(rows: list[list[Fraction]]) -> Fraction:
    """det of a square matrix by Gaussian elimination over Fractions."""
    rows, det = [list(r) for r in rows], Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            if f := rows[r][c] / rows[c][c]:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def test_start_is_the_scaled_exact_inverse():
    """On every start, _start gives d = |det B| and d B^-1 [P | I] as exact
    elimination over Fractions gives it, fractional inverses included, its
    rows those of the columns it names, which are basis's: int64 but where
    P needs Python ints. It is None exactly when B is singular."""
    unimodular = singular = fractional = 0
    for label, inc, P, basis in _basis_starts():
        nrows = len(inc.matrix)
        M = np.hstack((inc.matrix, np.eye(nrows, dtype=np.int8)))
        B = [[Fraction(v) for v in row] for row in M[:, basis].tolist()]
        rhs = [[Fraction(v)] + [Fraction(0)] * nrows for v in P.tolist()]
        for i in range(nrows):
            rhs[i][1 + i] = Fraction(1)
        expected = _solve_square(B, rhs)
        got = ncpoly._start(inc.matrix, P, basis)
        if expected is None:
            assert got is None, (label, basis)
            singular += 1
            continue
        d, aug, heads = got
        assert d == abs(_determinant(B)), (label, basis)
        assert sorted(heads.tolist()) == sorted(basis.tolist()), (label, basis)
        row = {c: i for i, c in enumerate(basis.tolist())}
        scaled = [[d * v for v in expected[row[c]]] for c in heads.tolist()]
        assert aug.tolist() == scaled, (label, basis)
        assert aug.dtype == (object if label == "huge" else np.int64), label
        unimodular += d == 1
        fractional += d > 1
    assert unimodular >= 3 * (len(CORPUS_NCF) + 7 * len(NOISE_LEVELS) + 1)
    assert singular >= 10 and fractional >= 10


def test_start_keeps_its_integers_exact():
    """R P is formed in Python ints where an int64 sum could overflow: here
    a row of R = B^-1 adds two entries of 2**62. The pivots go on in Python
    ints once an entry reaches 2**31: the unit lower triangular B with ones
    one and three below the diagonal has B^-1 entries that grow about
    1.47-fold per row, past 2**31 at m = 59, and B R = I exactly there."""
    B = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    P = np.array([2**62, 0, 2**62])
    d, got, heads = ncpoly._start(B, P, np.arange(3))
    assert d == 1 and heads.tolist() == [0, 1, 2]
    assert got.dtype == object
    assert got.tolist() == [[2**63, 1, -1, 1], [-(2**62), 0, 1, -1], [2**62, 0, 0, 1]]
    for m in (58, 59):
        B = sum(np.eye(m, k=-k, dtype=np.int8) for k in (0, 1, 3))
        d, got, heads = ncpoly._start(B, np.ones(m, dtype=np.int64), np.arange(m))
        assert d == 1 and heads.tolist() == list(range(m))
        R = got[:, 1:]
        assert (B.astype(object) @ R == np.eye(m, dtype=int)).all()
        assert (R.dtype == object) == (m == 59) == (np.abs(R).max() >= 2**31)


_CONTEXT_BASIS = ncpoly._context_basis


def _det_two(A, first, basis, inverse):
    """A basis with |det B| = 2, from a seeded walk that swaps assignment
    columns into the slack basis, and its float inverse."""
    nrows, n = A.shape
    M = np.hstack((A, np.eye(nrows)))
    rng = np.random.default_rng(nrows)
    basis = np.arange(n, n + nrows)
    for _ in range(10_000):
        trial = basis.copy()
        trial[rng.integers(nrows)] = rng.integers(n)
        det = round(abs(np.linalg.det(M[:, trial])))
        if det == 2 and len(set(trial.tolist())) == nrows:
            return trial, np.linalg.inv(M[:, trial])
        if det == 1:
            basis = trial
    raise AssertionError(f"no basis with |det B| = 2 in {nrows} rows")


def _off_by_one(A, first, basis, inverse):
    inverse = inverse.copy()
    inverse[0, -1] += 1
    return basis, inverse


def _other_basis(A, first, basis, inverse):
    """The exact inverse of another basis with the optimal basis: of
    _context_basis, 2I - B, or, where that is the optimal basis (as on the
    kept programs of the even corpus cycles), of the slack basis, I."""
    nrows = len(A)
    heads = _CONTEXT_BASIS(A, first)
    if heads == basis.tolist():
        return basis, np.eye(nrows)
    other = np.hstack((A, np.eye(nrows)))[:, heads]
    return basis, 2 * np.eye(nrows) - other


def _nan_entry(A, first, basis, inverse):
    inverse = inverse.copy()
    inverse[-1, 0] = np.nan
    return basis, inverse


def _corrupted_starts(monkeypatch, corrupt) -> list:
    """Hands contextual_fraction's exact routine corrupt(A, first, basis,
    B^-1) in place of the float-optimal basis and its B^-1, A the program
    simplex was handed, whose first `first` rows are the first context's;
    records each restart from _context_basis."""
    restarts, programs = [], []
    real_simplex, real_exact = ncpoly.simplex, ncpoly._exact_optimum

    def recorded(c, A, rhs):
        programs.append(A)
        return real_simplex(c, A, rhs)

    def corrupted(A, first, p, basis, inverse):
        assert A is programs[-1]
        return real_exact(A, first, p, *corrupt(A, first, basis, inverse))

    def counted(A, first):
        restarts.append(A)
        return _CONTEXT_BASIS(A, first)

    monkeypatch.setattr(ncpoly, "simplex", recorded)
    monkeypatch.setattr(ncpoly, "_exact_optimum", corrupted)
    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    return restarts


def _program_of(m: EmpiricalModel):
    """The rows and columns of incidence(m.scenario) whose submatrix
    contextual_fraction hands simplex for m, checked against the recorded
    call: the columns that hit no row of probability exactly 0, and the
    rows they hit (no call when no column is left)."""
    inc = incidence(m.scenario)
    zero = [not _possible(m, ctx, tup) for ctx, tup in inc.rows]
    cols = np.flatnonzero(~inc.matrix[zero].any(axis=0))
    rows = np.flatnonzero(inc.matrix[:, cols].any(axis=1))
    calls, real = [], ncpoly.simplex

    def recorded(c, A, rhs):
        calls.append(A.tolist())
        return real(c, A, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncpoly, "simplex", recorded)
        contextual_fraction(m)
    assert calls == ([inc.matrix[np.ix_(rows, cols)].tolist()] if len(cols) else [])
    return rows, cols


@pytest.mark.parametrize("corrupt", [_det_two, _off_by_one, _other_basis, _nan_entry])
def test_rejected_float_inverses_restart_once(monkeypatch, corrupt):
    """Through contextual_fraction, a basis with |det B| = 2, a B^-1 off by
    one in an entry, the inverse of another basis and a B^-1 holding a NaN,
    handed to the exact routine on every model that reaches it, those with
    a global section, each give the pinned corpus optimum and witness, in
    the same order, and the closed form on the white-noise grid. The repair
    never reads the float B^-1 but starts from the basis itself, so only
    the |det B| = 2 basis, which is not dual feasible, restarts from
    _context_basis, once per model. Programs of fewer than 20 rows (every
    kept corpus program, and the 3- and 4-cycles) are left out of the
    |det B| = 2 case: the walk finds no such basis in them."""
    least = 20 if corrupt is _det_two else 0
    names = [
        name for name in CORPUS_NCF
        if len(_program_of(_corpus_model(name))[0]) >= least
    ]
    sizes = [n for n in range(3, 7) if 4 * n >= least]
    restarts = _corrupted_starts(monkeypatch, corrupt)
    reached = 0
    for name in names:
        ncf, witness = CORPUS_NCF[name]
        res = contextual_fraction(_corpus_model(name))
        assert res.ncf_exact == ncf, name
        assert list(res.witness_exact.items()) == list(witness.items()), name
        reached += ncf > 0
    for n in sizes:
        for v in NOISE_LEVELS:
            m = white_noise_odd_cycle(n, v)
            res = contextual_fraction(m)
            assert res.ncf_exact == min(Fraction(1), n * (1 - v) / 2), (n, v)
            assert sum(res.witness_exact.values()) == res.ncf_exact
            _assert_exactly_feasible(m, res.witness_exact)
            reached += v < 1
    assert len(restarts) == (reached if corrupt is _det_two else 0)
    if least:
        assert names == [] and len(sizes) == 2
    else:
        assert len(names) == len(CORPUS_NCF) and reached == 5 + 4 * 3


def test_tripartite_parity_box_mixtures_match_linprog(monkeypatch):
    """Seeded parity-box mixtures on the 64 x 64 incidence of three parties
    with two settings each, or the part of it that the support keeps: the
    exact NCF is scipy's optimum on the full program and the witness is
    exactly feasible. Seven float-optimal bases there have |det B| of 2 or 3:
    their rounded B^-1 P is not exact, so the check fails, _start builds
    d B^-1 [P | I] from them with d > 1, and the repair makes no pivot and
    never restarts from _context_basis."""
    restarts = []

    def counted(A, first):
        restarts.append(A)
        return _CONTEXT_BASIS(A, first)

    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    pivots, scales = _dual_pivots(monkeypatch), _start_scales(monkeypatch)
    rng = np.random.default_rng(17)
    values = set()
    for _ in range(120):
        m = parity_box_mixture(rng)
        res = contextual_fraction(m)
        ref = _scipy_reference(*_ncf_lp(m))
        assert ref.status == 0
        assert float(res.ncf_exact) == pytest.approx(-ref.fun, abs=1e-7)
        assert sum(res.witness_exact.values()) == res.ncf_exact
        _assert_exactly_feasible(m, res.witness_exact)
        values.add(res.ncf_exact)
    assert restarts == [] == pivots and None not in scales
    assert sum(d > 1 for d in scales) >= 7 and len(values) >= 60


@pytest.mark.parametrize("n", [5, 7])
def test_exact_routine_is_independent_of_the_column_order(n):
    """The exact routine reads only the matrix it is handed: on the
    white-noise odd n-cycle's program with its columns in a seeded random
    order, started from the float simplex's basis on that order, it reaches
    min(1, n(1 - v)/2), at the tie value 1/3 + 2**-40 too, and its weights,
    by column in ascending order and mapped back through the permutation,
    are exactly feasible on the tables."""
    rng = np.random.default_rng(2501)
    for v in (Fraction(9, 10), Fraction(4, 5), ncf_pins.TIE):
        m = white_noise_odd_cycle(n, v)
        inc = incidence(m.scenario)
        p = [m.tables[ctx].exact[tup] for ctx, tup in inc.rows]
        perm = rng.permutation(inc.matrix.shape[1])
        A = inc.matrix[:, perm]
        rhs = np.array([float(q) for q in p])
        _, _, basis, inverse = simplex(np.ones(A.shape[1]), A, rhs)
        value, weights = ncpoly._exact_optimum(A, 4, p, basis, inverse)
        assert value == min(Fraction(1), n * (1 - v) / 2), (n, v)
        assert list(weights) == sorted(weights)
        assert sum(weights.values()) == value
        witness = {inc.decode([int(perm[j])])[0]: w for j, w in weights.items()}
        assert len(witness) == len(weights)
        _assert_exactly_feasible(m, witness)


# ------------------------------------------------ the integer check


def _all_pairs_model(marginals) -> EmpiricalModel:
    """Binary observables X0, X1, ... with every pair a context, each table
    the product of the pair's marginals, marginals[i] = P(Xi = 1): a
    noncontextual model, so its NCF is 1 exactly."""
    n = len(marginals)
    sc = Scenario(
        tuple(Observable(f"X{i}", ("0", "1")) for i in range(n)),
        tuple((f"X{i}", f"X{j}") for i, j in itertools.combinations(range(n), 2)),
    )
    tables = {}
    for ctx in sc.contexts:
        q = [marginals[int(label[1:])] for label in ctx]
        exact = {
            (a, b): (q[0] if a == "1" else 1 - q[0]) * (q[1] if b == "1" else 1 - q[1])
            for a in "01"
            for b in "01"
        }
        tables[ctx] = Distribution({t: float(v) for t, v in exact.items()}, exact)
    return EmpiricalModel(sc, tables)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_all_pairs_product_models_are_certified_without_a_pivot(monkeypatch, n):
    """n binary observables with every pair a context, as the product of
    uniform marginals (1/4 on every row) and of seeded random rational
    marginals, have NCF 1 exactly. Their float-optimal bases are mostly not
    unimodular, so B^-1 P does not round to the exact values and the check
    fails; _start builds d B^-1 [P | I] from the float basis with d > 1, and
    the repair makes no pivot and never restarts from _context_basis."""
    restarts = []

    def counted(A, first):
        restarts.append(A)
        return _CONTEXT_BASIS(A, first)

    monkeypatch.setattr(ncpoly, "_context_basis", counted)
    pivots, scales = _dual_pivots(monkeypatch), _start_scales(monkeypatch)
    rng = np.random.default_rng(2600 + n)
    uniform = [Fraction(1, 2)] * n
    seeded = [Fraction(int(k), 12) for k in rng.integers(1, 12, n)]
    for marginals in (uniform, seeded):
        m = _all_pairs_model(marginals)
        res = contextual_fraction(m)
        assert res.ncf_exact == 1 == sum(res.witness_exact.values()), marginals
        _assert_exactly_feasible(m, res.witness_exact)
    assert pivots == [] and restarts == []
    assert None not in scales and any(d > 1 for d in scales)


def _certify(m: EmpiricalModel, proved: list):
    """contextual_fraction's program for m, with its exact probabilities
    scaled to P, the float-optimal basis and the check's verdict on it;
    proved receives (X, Y) of every pair the check accepts."""
    inc = incidence(m.scenario)
    rows, cols = _program_of(m)
    exact = [m.tables[ctx].exact[tup] for ctx, tup in (inc.rows[r] for r in rows)]
    A = inc.matrix[np.ix_(rows, cols)]
    scale, P = ncpoly._scaled(exact)
    _, _, basis, inverse = simplex(np.ones(len(cols)), A, np.array([float(q) for q in exact]))
    proved.clear()
    return A, scale, P, basis, ncpoly._certificate(A, P, basis, inverse)


def test_the_integer_check_is_a_proof(monkeypatch):
    """On seeded parity-box mixtures, Hardy-like cycles n = 5..13 and
    white-noise odd cycles n = 3..11 at v = 9/10 and 4/5, every float
    optimum that reaches the check (five mixtures have no global section)
    is proved at the vertex oracle's optimum, or scipy's where too many
    assignments are kept to enumerate. Where the float basis has
    |det B| = 1 the check certifies it, and every certificate it accepts is
    tight: a change of one unit in any entry of X or Y, or dropping a basic
    column of positive value, is rejected (a column of value 0 adds nothing
    to B X). Where |det B| > 1 the check rejects it, and _start proves the
    basis optimal with no repair pivot: d B^-1 P >= 0, B (d B^-1 P) = d P,
    and no reduced cost is positive. The tie family at n = 7, 9 and 11 has
    an exactly infeasible float basis, and the check rejects it."""
    optimal, proved = ncpoly._optimal, []

    def recorded(A, P, basis, X, Y):
        accepted = optimal(A, P, basis, X, Y)
        if accepted:
            proved.append((X, Y))
        return accepted

    monkeypatch.setattr(ncpoly, "_optimal", recorded)
    rng = np.random.default_rng(2602)
    models = [parity_box_mixture(rng) for _ in range(40)]
    closing = (Fraction(1, 8), Fraction(1, 3))
    models += [hardy_like_cycle(n, a) for n in range(5, 14) for a in closing]
    levels = (Fraction(9, 10), Fraction(4, 5))
    models += [white_noise_odd_cycle(n, v) for n in range(3, 12, 2) for v in levels]
    reached = started = 0
    for m in models:
        if not len(_program_of(m)[1]):
            continue
        reached += 1
        A, scale, P, basis, proof = _certify(m, proved)
        n = A.shape[1]
        if proof is None:
            d, aug, heads = ncpoly._start(A, P, basis)
            assert d > 1 and proved == []
            X = aug[:, 0]
            B = np.hstack((A, np.eye(len(A), dtype=np.int8)))[:, heads]
            assert (X >= 0).all() and (B.astype(object) @ X == d * P).all()
            assert (ncpoly._priced(d, aug[heads < n, 1:].sum(axis=0), A) <= 0).all()
            value = Fraction(sum(X[heads < n].tolist()), d * scale)
            started += 1
        else:
            [(X, Y)] = proved
            value = Fraction(sum(X[basis < n].tolist()), scale)
        if n <= 4:
            assert value == ncf_vertex_enumeration(m)[0]
        else:
            ref = _scipy_reference(*_ncf_lp(m))
            assert float(value) == pytest.approx(-ref.fun, abs=1e-9)
        if proof is None:
            continue
        for vector, other in ((X, Y), (Y, X)):
            for i in range(len(vector)):
                for step in (1, -1):
                    changed = vector.copy()
                    changed[i] += step
                    pair = (changed, other) if vector is X else (other, changed)
                    assert not optimal(A, P, basis, *pair)
        for i in np.flatnonzero(X > 0).tolist():
            keep = np.arange(len(basis)) != i
            assert not optimal(A, P, basis[keep], X[keep], Y)
    assert reached == len(models) - 5 and started >= 1
    for n in (7, 9, 11):
        assert _certify(white_noise_odd_cycle(n, ncf_pins.TIE), proved)[-1] is None
        assert proved == []


def test_the_cover_test_is_for_bool_matrices_only():
    """Max x1 + x2 subject to x1 + x2 <= 2 and x1 - x2 <= 0 has optimum 2.
    The claim of 0 at the basis {x1, slack of row 0} with duals (0, 1) has
    y a2 = -1 < 1, though row 1 hits a2: the duals are priced, not read as
    a cover of the columns by the rows where they are positive, and the
    claim is rejected."""
    A = np.array([[1, 1], [1, -1]], dtype=np.int8)
    P, basis = np.array([2, 0]), np.array([0, 2])
    assert not ncpoly._optimal(A, P, basis, np.array([0, 2]), np.array([0, 1]))


@pytest.mark.parametrize(
    "n, v", [(5, 1 - Fraction(1, 2**1100)), (7, Fraction(1, 3) + Fraction(1, 2**1100))]
)
def test_denominators_past_the_float_range_go_to_the_repair(monkeypatch, n, v):
    """A denominator of 2**1100 scales P past the float range, so the check
    rejects before any float is read, and the exact repair gives the closed
    form min(1, n(1 - v)/2) with an exactly feasible witness."""
    verdicts, certificate = [], ncpoly._certificate

    def recorded(A, P, basis, inverse):
        verdicts.append(certificate(A, P, basis, inverse))
        return verdicts[-1]

    monkeypatch.setattr(ncpoly, "_certificate", recorded)
    m = white_noise_odd_cycle(n, v)
    res = contextual_fraction(m)
    assert verdicts == [None]
    assert res.ncf_exact == min(1, n * (1 - v) / 2) == sum(res.witness_exact.values())
    _assert_exactly_feasible(m, res.witness_exact)


def test_a_degenerate_optimum_reports_the_certified_float_vertex():
    """The fourth parity-box mixture of seed 2301 has NCF 23/29 and a float
    basis with |det B| > 1, which _start proves optimal as it stands; its
    witness is that vertex, not the one a restart from _context_basis
    reaches."""
    rng = np.random.default_rng(2301)
    m = [parity_box_mixture(rng) for _ in range(4)][-1]
    res = contextual_fraction(m)
    assert res.ncf_exact == Fraction(23, 29)
    witness = {"".join(a): w for a, w in res.witness_exact.items()}
    assert witness == {
        a: Fraction(w)
        for a, w in (
            ("000000", "13/174"), ("000010", "7/348"), ("000111", "1/87"),
            ("001101", "7/348"), ("001111", "11/174"), ("010000", "7/174"),
            ("010101", "11/348"), ("010111", "3/58"), ("011000", "11/174"),
            ("011010", "11/348"), ("011111", "3/58"), ("100011", "7/174"),
            ("100100", "7/348"), ("100110", "3/58"), ("101001", "3/58"),
            ("101011", "11/348"), ("101100", "3/58"), ("110011", "5/116"),
            ("110100", "1/87"), ("111100", "11/348"),
        )
    }


def test_an_off_by_one_inverse_of_a_non_unimodular_basis_costs_no_pivot(monkeypatch):
    """The fourth parity-box mixture of seed 2301 (NCF 23/29, |det B| = 3)
    and the uniform all-pairs model at n = 8 (NCF 1, |det B| = 1024),
    handed their float-optimal basis with a B^-1 off by one in an entry:
    the repair starts from that basis, makes no pivot and never builds
    _context_basis, and the witness is the clean run's, in the same
    order."""
    rng = np.random.default_rng(2301)
    models = [
        [parity_box_mixture(rng) for _ in range(4)][-1],
        _all_pairs_model([Fraction(1, 2)] * 8),
    ]
    clean = [contextual_fraction(m) for m in models]
    assert [res.ncf_exact for res in clean] == [Fraction(23, 29), 1]
    restarts = _corrupted_starts(monkeypatch, _off_by_one)
    pivots, scales = _dual_pivots(monkeypatch), _start_scales(monkeypatch)
    for m, want in zip(models, clean):
        res = contextual_fraction(m)
        assert res.ncf_exact == want.ncf_exact
        assert list(res.witness_exact.items()) == list(want.witness_exact.items())
    assert scales == [3, 1024] and pivots == [] and restarts == []


# ------------------------------------------ the program the support poses


def _bell_with_exact_zeros() -> EmpiricalModel:
    """The Bell pair (|00> + |11>)/sqrt 2 with A0 and B0 both measured in Z,
    so their context has exact 0.0 on 01 and 10, and A1 and B1 at Bloch
    angles pi/2 + 0.3 and pi/4 in the x-z plane, so the other three
    contexts' tables are irrational and never snap: the float path."""
    sc = Scenario(
        tuple(Observable(l, ("0", "1")) for l in ("A0", "A1", "B0", "B1")),
        (("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1")),
    )
    r = 1 / np.sqrt(2)
    state = StateVector((2, 2), np.array([r, 0, 0, r], dtype=complex))
    recipes = {}
    for label, site, angle in (
        ("A0", 0, 0.0), ("A1", 0, np.pi / 2 + 0.3), ("B0", 1, 0.0), ("B1", 1, np.pi / 4)
    ):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        recipes[label] = MeasurementRecipe((site,), SiteBasis(((c, s), (-s, c)), ("0", "1")))
    return realize(QuantumRealization(state, recipes), sc)


def test_kept_program_matches_the_full_program(monkeypatch):
    """On models with impossible events (seeded parity-box mixtures, Hardy-
    like n-cycles, n = 5..13, and a realized Bell model with exact 0.0
    entries beside irrational ones) contextual_fraction hands simplex fewer
    columns than the incidence matrix has, and its NCF is the full program's
    float optimum and scipy's, and on the Hardy-like cycles the closed form
    2a. The witness puts weight only on assignments whose every event is
    possible, is feasible on every row of the full tables, exactly where
    they are exact, and passes _validate_witness against them."""
    widths = []
    real = ncpoly.simplex

    def recorded(c, A, rhs):
        widths.append(A.shape[1])
        return real(c, A, rhs)

    monkeypatch.setattr(ncpoly, "simplex", recorded)
    rng = np.random.default_rng(2301)
    boxes = (parity_box_mixture(rng) for _ in itertools.count())
    impossible = (m for m in boxes if 0 in _ncf_lp(m)[2])
    models = [(f"parity box {i}", next(impossible)) for i in range(40)]
    closing = {n: Fraction(int(rng.integers(1, 12)), 24) for n in range(5, 14)}
    models += [(f"hardy-like {n}", hardy_like_cycle(n, a)) for n, a in closing.items()]
    models.append(("bell", _bell_with_exact_zeros()))
    reduced = 0
    for label, m in models:
        widths.clear()
        res = contextual_fraction(m)
        c, A, rhs = _ncf_lp(m)
        assert res.ncf == pytest.approx(simplex(c, A, rhs)[0], abs=1e-9), label
        assert res.ncf == pytest.approx(-_scipy_reference(c, A, rhs).fun, abs=1e-7), label
        assert len(widths) == (res.ncf > 0) and all(w < A.shape[1] for w in widths), label
        reduced += bool(widths)
        inc = incidence(m.scenario)
        column = {a: j for j, a in enumerate(inc.assignments)}
        x = np.zeros(A.shape[1])
        for a, w in res.witness.items():
            x[column[a]] = w
        ncpoly._validate_witness(inc, rhs, x, res.ncf)
        labels = [o.label for o in m.scenario.observables]
        for a in res.witness:
            for ctx in m.scenario.contexts:
                assert _possible(m, ctx, tuple(a[labels.index(l)] for l in ctx)), label
        if m.exact_available:
            _assert_exactly_feasible(m, res.witness_exact)
        else:
            assert res.ncf_exact is None
            assert (A @ x <= rhs + ncpoly.EPS_LP).all()
    for n, a in closing.items():
        assert contextual_fraction(hardy_like_cycle(n, a)).ncf_exact == 2 * a
    bell = contextual_fraction(models[-1][1])
    assert 0 < bell.ncf < 1 and bell.ncf_exact is None
    assert reduced >= 30


def test_simplex_width_is_the_global_section_count(monkeypatch):
    """The program handed to simplex has one column per global section of
    the support, as logic's frontier table counts them, on the corpus, on
    odd and even n-cycles, n = 3..10, and on seeded parity-box mixtures.
    classify calls a model StronglyContextual exactly when its exact NCF is
    0, and then simplex is never called."""
    widths = []
    real = ncpoly.simplex

    def recorded(c, A, rhs):
        widths.append(A.shape[1])
        return real(c, A, rhs)

    monkeypatch.setattr(ncpoly, "simplex", recorded)
    models = [(name, _corpus_model(name)) for name in CORPUS_NCF]
    models += [
        (f"cycle {n} {parity}", cycle_empirical_model(n, parity))
        for n in range(3, 11)
        for parity in ("odd", "even")
    ]
    rng = np.random.default_rng(2302)
    models += [(f"parity box {i}", parity_box_mixture(rng)) for i in range(60)]
    counts = {}
    for label, m in models:
        widths.clear()
        res = contextual_fraction(m)
        p = support_of(m)
        counts[label] = count_global_sections(p)
        strong = classify(p) is Classification.STRONGLY_CONTEXTUAL
        assert strong == (res.ncf_exact == 0) == (counts[label] == 0), label
        assert widths == ([] if strong else [counts[label]]), label
    assert [counts[name] for name in CORPUS_NCF] == [2, 0, 2, 0, 2, 0, 5, 5]
    boxes = [counts[f"parity box {i}"] for i in range(60)]
    assert 0 in boxes and len(set(boxes)) >= 3


def test_an_unhit_first_context_row_is_an_error_not_a_traceback(monkeypatch):
    """A program whose first context has a row that no column hits has no
    first-context basis: _context_basis raises a RuntimeError naming the
    program's size, where argmax would pick column 0 and the exact routine
    would then fail on a None system with a TypeError. The exact routine
    raises one too when _start finds its restart basis singular."""
    m = cycle_empirical_model(3, "even")
    inc = incidence(m.scenario)
    p = [m.tables[ctx].exact[tup] for ctx, tup in inc.rows]
    # the all-0 and all-1 columns against every row: neither hits the first
    # context's 01 and 10 rows
    A = inc.matrix[:, [0, 7]]
    unhit = "a first-context row of the 12 x 2 fraction program is hit by no"
    with pytest.raises(RuntimeError, match=unhit):
        ncpoly._context_basis(A, 4)
    # the slack basis is never dual feasible, so the routine restarts
    with pytest.raises(RuntimeError, match=unhit):
        ncpoly._exact_optimum(A, 4, p, np.arange(2, 14), np.eye(12))
    # a singular restart basis, column 0 twelve times
    monkeypatch.setattr(ncpoly, "_context_basis", lambda A, first: [0] * 12)
    with pytest.raises(
        RuntimeError,
        match="first-context basis of the 12 x 8 fraction program is singular",
    ):
        ncpoly._exact_optimum(inc.matrix, 4, p, np.arange(8, 20), np.eye(12))


def test_ncf_outputs_are_pinned(tmp_path):
    """`ncf --format json` on exact-table files, byte for byte, against the
    SHA-256 digests in ncf_digests.json: white-noise odd cycles, the tie
    family and the corpus table files."""
    pins = json.loads(ncf_pins.PINS.read_text())
    got = {key: ncf_pins.digest(path) for key, path in ncf_pins.pinned_files(tmp_path)}
    assert got == pins


def test_fraction_result_validation():
    with pytest.raises(ValueError, match="out of range"):
        FractionResult(1.5, -0.5, {("0",): 1.5})
    with pytest.raises(ValueError, match="1 - ncf"):
        FractionResult(0.5, 0.4, {("0",): 0.5})
    with pytest.raises(ValueError, match="sum to ncf"):
        FractionResult(0.5, 0.5, {("0",): 0.2})


# ------------------------------------------------- lazy assignment tuples


def test_incidence_decodes_columns_without_the_assignment_tuple():
    sc = Scenario(
        (
            Observable("A", ("a0", "a1")),
            Observable("B", ("b0", "b1", "b2")),
            Observable("C", ("c0", "c1", "c2", "c3")),
        ),
        (("A", "B"), ("C", "A"), ("B", "C")),
    )
    inc = incidence(sc)
    assert inc.outcomes == (("a0", "a1"), ("b0", "b1", "b2"), ("c0", "c1", "c2", "c3"))
    decoded = [inc.decode([j])[0] for j in range(inc.matrix.shape[1])]
    assert "assignments" not in inc.__dict__
    assert decoded == list(inc.assignments)
    assert inc.assignments is inc.assignments  # built once, then cached


def test_contextual_fraction_builds_no_assignment_tuple(monkeypatch):
    """The float witness and the exact routine, with and without pivots,
    decode only the columns they report: on a chained-Bell 14-cycle (2**14
    columns) and on exact white-noise odd cycles, whose programs are their
    whole incidence matrices, no `assignments` tuple is read."""
    read, programs = [], []
    real = ncpoly.simplex

    def recorded(c, A, rhs):
        programs.append(A)
        return real(c, A, rhs)

    monkeypatch.setattr(ncpoly, "simplex", recorded)
    monkeypatch.setattr(IncidenceMatrix, "assignments", property(read.append))
    n = 14
    models = [
        _chained_bell(n, 0.3),
        white_noise_odd_cycle(9, Fraction(4, 5)),
        white_noise_odd_cycle(5, Fraction(9, 10)),
    ]
    res = contextual_fraction(models[0])
    assert res.ncf == pytest.approx(n * (1 - np.cos(np.pi / n)) / 2, abs=1e-9)
    assert len(res.witness) > 1
    res = contextual_fraction(models[1])
    assert res.ncf_exact == Fraction(9, 10)
    starts = _slack_started(monkeypatch)
    pivots = _dual_pivots(monkeypatch)
    res = contextual_fraction(models[2])
    assert res.ncf_exact == Fraction(1, 4)
    assert len(starts) == 1 and pivots
    assert [A.shape[1] for A in programs] == [2**14, 2**9, 2**5]
    assert read == []
    monkeypatch.undo()
    # the decoded witnesses are the ones the tuple would give
    for m, A in zip(models, programs):
        inc = incidence(m.scenario)
        assert A.tolist() == inc.matrix.tolist()
        assert all(inc.decode([j])[0] == a for j, a in enumerate(inc.assignments))
