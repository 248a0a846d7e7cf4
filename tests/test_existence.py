from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srgo
from srgo import (
    HOMOGENEOUS,
    Momentum,
    Subspace,
    check_homogeneous,
    construct_homogeneous_geodesic,
    factorize_by_ideal,
    is_solvable,
    radical,
    verify_eigenconstruction,
)
from srgo import exactla
from srgo.existence import ROUTE_EIGENVECTOR, ROUTE_SOLVABLE, _standard_completion


def test_is_solvable(models):
    assert is_solvable(models["heisenberg"].structure.algebra)
    assert is_solvable(models["cartan"].structure.algebra)
    assert not is_solvable(models["so3_generic"].structure.algebra)
    assert not is_solvable(models["so3_kp"].structure.algebra)


def test_radical(models):
    assert radical(models["so3_generic"].structure.algebra).dim == 0
    r = radical(models["so3_kp"].structure.algebra)
    assert r == Subspace.from_vectors(4, [[0, 0, 1, 0]])
    r = radical(models["rolling_sphere"].structure.algebra)
    assert r == Subspace.from_vectors(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    # Solvable algebra: the radical is everything.
    assert radical(models["heisenberg"].structure.algebra).dim == 4


def _greedy_completion(subspace):
    """The standard-vector completion picked greedily by rank, one rank of
    [basis | chosen e_i] per coordinate (the loop _standard_completion
    replaces)."""
    n = subspace.ambient_dim
    chosen, current = [], subspace.basis
    for i in range(n):
        e = exactla.fzeros(n, 1)
        e[i, 0] = 1
        cand = np.concatenate([current, e], axis=1)
        if exactla.rank(cand) > subspace.dim + len(chosen):
            chosen.append(i)
            current = cand
    return chosen


@st.composite
def _subspaces(draw):
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=3))
    cols = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    return Subspace.span_of_columns(
        n, exactla.fmat(cols).T if cols else exactla.fzeros(n, 0))


@settings(max_examples=300, deadline=None)
@given(_subspaces())
def test_standard_completion_equals_the_greedy_rank_loop(subspace):
    assert _standard_completion(subspace) == _greedy_completion(subspace)


def test_factorize_cartan_gives_heisenberg(cartan, heisenberg):
    ideal = Subspace.from_vectors(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]])
    fact = factorize_by_ideal(cartan.structure, ideal)
    q = fact.structure
    h = heisenberg.structure
    assert q.dim == 4
    assert (q.algebra.constants == h.algebra.constants).all()
    assert q.k == h.k and q.m == h.m and q.delta == h.delta
    assert (q.metric == h.metric).all()


def test_factorize_zero_ideal_is_identity(heisenberg):
    s = heisenberg.structure
    fact = factorize_by_ideal(s, Subspace.from_vectors(4, []))
    assert fact.structure is s
    p = np.array([1.0, 0, 1, 0])
    assert np.allclose(fact.lift(p), p)


def test_factorize_rolling_sphere(models):
    s = models["rolling_sphere"].structure
    ideal = s.algebra.killing_kernel()
    fact = factorize_by_ideal(s, ideal)
    q = fact.structure
    assert q.dim == 3
    assert q.delta.dim == 3  # the frame surjects onto so3
    # Quotient brackets are the rotation algebra.
    assert q.algebra.bracket_exact(
        np.array([Fraction(1), Fraction(0), Fraction(0)], dtype=object),
        np.array([Fraction(0), Fraction(1), Fraction(0)], dtype=object),
    )[2] == 1


def test_factorize_rejects_bad_inputs(cartan, heisenberg):
    with pytest.raises(ValueError, match="not an ideal"):
        factorize_by_ideal(
            cartan.structure, Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0]])
        )
    with pytest.raises(ValueError, match="delta collapses"):
        factorize_by_ideal(
            heisenberg.structure,
            Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        )


def test_momentum_lift_annihilates_ideal(cartan):
    ideal = Subspace.from_vectors(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]])
    fact = factorize_by_ideal(cartan.structure, ideal)
    p_hat = np.array([1.0, -0.5, 0.3, 0.0])
    p = fact.lift(p_hat)
    for j in range(ideal.dim):
        col = np.array([float(v) for v in ideal.basis[:, j]])
        assert abs(p @ col) < 1e-12


@pytest.mark.parametrize(
    "name,route",
    [
        ("heisenberg", ROUTE_SOLVABLE),
        ("cartan", ROUTE_SOLVABLE),
        ("free_step2_rank2", ROUTE_SOLVABLE),
        ("free_step2_rank3", ROUTE_SOLVABLE),
        ("so3_kp", ROUTE_EIGENVECTOR),
        ("sl2_kp", ROUTE_EIGENVECTOR),
        ("so3_axisym", ROUTE_EIGENVECTOR),
        ("sl2_axisym", ROUTE_EIGENVECTOR),
        ("so3_generic", ROUTE_EIGENVECTOR),
        ("biinvariant_compact", ROUTE_EIGENVECTOR),
        ("rolling_sphere", ROUTE_EIGENVECTOR),
    ],
)
def test_construct_homogeneous_geodesic(name, route, models):
    s = models[name].structure
    result = construct_homogeneous_geodesic(s)
    assert result.success, result.steps
    assert result.route == route
    cert = check_homogeneous(Momentum(result.momentum, s))
    assert cert.verdict == HOMOGENEOUS


def test_construct_after_factorization(cartan):
    ideal = Subspace.from_vectors(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]])
    fact = factorize_by_ideal(cartan.structure, ideal)
    result = construct_homogeneous_geodesic(fact.structure)
    assert result.success
    lifted = fact.lift(result.momentum)
    cert = check_homogeneous(Momentum(lifted, cartan.structure))
    assert cert.verdict == HOMOGENEOUS


def test_solvable_route_prefers_horizontal_momentum(heisenberg):
    result = construct_homogeneous_geodesic(heisenberg.structure)
    s = heisenberg.structure
    assert np.linalg.norm(s.dH(result.momentum)) > 1e-9


def test_verify_eigenconstruction(models):
    for name in ["so3_kp", "sl2_kp", "heisenberg"]:
        s = models[name].structure
        result = construct_homogeneous_geodesic(s)
        audit = verify_eigenconstruction(s, result)
        assert audit["homogeneous"]
        assert audit["annihilates_k"]
        assert audit["residual"] < 1e-8


def test_result_serialization(heisenberg):
    result = construct_homogeneous_geodesic(heisenberg.structure)
    d = result.to_dict()
    assert d["success"] is True
    assert d["route"] == ROUTE_SOLVABLE
    assert len(d["momentum"]) == 4
    assert d["steps"]


def test_degenerate_killing_form_fails_the_construction(so3_plus_center):
    # A valid structure with a homogeneous geodesic at p = X1*, whose
    # Killing form no float solve may be asked to invert.
    s = so3_plus_center.structure
    assert check_homogeneous(Momentum([1, 0, 0, 0], s)).verdict == HOMOGENEOUS
    result = construct_homogeneous_geodesic(s)
    assert not result.success and result.momentum is None
    assert result.route == ROUTE_EIGENVECTOR
    assert "Killing form is degenerate" in result.steps[-1]


def _so3_squared():
    """so(3) + so(3), k = span(X3), delta = span(X1, X2, Y1, Y2), metric
    I: semisimple, so the eigenvector route reaches its momentum check."""
    g = srgo.LieAlgebra.from_brackets(6, {
        (0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1},
        (3, 4): {5: 1}, (4, 5): {3: 1}, (5, 3): {4: 1}})
    e = np.eye(6, dtype=int).tolist()
    return srgo.HomogeneousSRStructure(
        g, Subspace.from_vectors(6, [e[2]]),
        Subspace.from_vectors(6, [e[0], e[1], e[3], e[4], e[5]]),
        Subspace.from_vectors(6, [e[0], e[1], e[3], e[4]]), np.eye(4, dtype=int))


@pytest.mark.parametrize("pairing, annihilates", [(1e-5, True), (1e-2, False)])
def test_one_rule_for_annihilating_k(monkeypatch, pairing, annihilates):
    # A covector with max|p| = 1e6 may pair with k up to 1e-9 (1 + 1e6),
    # about 1e-3: Momentum, annihilates_k (the exist audit) and the
    # eigenvector route give the same answer. The route's comparison
    # operator is replaced by one whose only eigenvector yields q.
    from srgo import existence

    s = _so3_squared()
    q = np.array([1e6, 0.0, pairing, 0.0, 0.0, 0.0])
    assert s.annihilates_k(q) is annihilates
    if annihilates:
        Momentum(q, s)
    else:
        with pytest.raises(ValueError, match="does not annihilate"):
            Momentum(q, s)
    gamma = (q / np.linalg.norm(q))[:, None]
    bhat = np.outer(q, q) / (q @ gamma[:, 0])  # bhat gamma = q
    monkeypatch.setattr(existence, "_khat_extension",
                        lambda structure, steps: (bhat, gamma))
    steps = []
    p = existence._eigen_route(s, steps, s.algebra.killing_kernel())
    assert (p is not None) is annihilates
    if annihilates:
        assert np.allclose(np.abs(p), np.abs(q), rtol=1e-12, atol=0)
    else:
        assert "candidate momentum fails to annihilate k; skipping" in steps
    assert not s.annihilates_k(np.array([np.nan, 0, 0, 0, 0, 0]))
    assert not s.annihilates_k(np.array([np.inf, 0, 0, 0, 0, 0]))
