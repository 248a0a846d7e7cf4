"""Every answer against the same model written in another rational basis.

The paper's criterion and the GO property do not depend on a basis, so
neither may the code's answers. Each bundled model is rewritten in the
basis f_a = sum_i P[i, a] e_i, P unitriangular with a few entries +-1 and
+-1/2 above the diagonal (det P = 1, well conditioned): the constants by
contraction with P, P and P^-1, every subspace basis by P^-1 (the same
vectors in the new coordinates), rho'(f_a) = sum_i P[i, a] rho(e_i), the
metric on the delta basis and the isotropy flags unchanged. A momentum p
becomes P^T p. The +-1/2 entries make the constants and the m* data
non-integral, so the exact layers run on Fractions here, where every
bundled model holds ints.

Witness values are not compared across the bases: the free variables of
the witness solve depend on the basis. Only what the basis cannot change
is.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
import srgo
from srgo import (
    HomogeneousSRStructure,
    LieAlgebra,
    Momentum,
    Subspace,
    check_homogeneous,
    construct_homogeneous_geodesic,
    factorize_by_ideal,
    go_verdict,
    invariant_polynomials,
    radical,
    sample_momenta,
)
from srgo import exactla
from srgo.existence import _intersection
from srgo.go import (
    _bracket_on_m,
    _m_vertical_field,
    _tangency_witness,
    _verify_witness,
)

HALVES = [Fraction(1, 2), Fraction(-1, 2)]


def unitriangular(rng, n):
    """The identity plus min(n, n(n-1)/2) entries above the diagonal, the
    first +-1/2, the others drawn from +-1 and +-1/2."""
    p = exactla.feye(n)
    slots = [(i, a) for i in range(n) for a in range(i + 1, n)]
    picks = rng.choice(len(slots), size=min(n, len(slots)), replace=False)
    for count, idx in enumerate(picks):
        values = HALVES if count == 0 else [1, -1, *HALVES]
        p[slots[idx]] = values[rng.integers(len(values))]
    return p


def rewrite(structure, p):
    """The structure in the basis f_a = sum_i p[i, a] e_i."""
    s = structure
    g = s.algebra
    n = s.dim
    p_inv = exactla.inverse(p)
    p_rows = exactla.row_nonzeros(p)  # i -> [(a, p[i, a])]
    inv_cols = exactla.row_nonzeros(p_inv.T)  # k -> [(c, p_inv[c, k])]
    entries = {}
    for i, j, k, c in g.coo:
        for a, x in p_rows[i]:
            for b, y in p_rows[j]:
                for cc, z in inv_cols[k]:
                    key = a, b, cc
                    entries[key] = entries.get(key, 0) + x * y * c * z
    algebra = LieAlgebra(n, entries, [f"f{a + 1}" for a in range(n)])

    def space(sub):
        return Subspace(n, exactla.matmul(p_inv, sub.basis))

    representation = None
    if s.representation is not None:
        representation = list(np.einsum("ia,irs->ars", exactla.to_float(p),
                                        np.stack(s.representation)))
    return HomogeneousSRStructure(
        algebra, space(s.k), space(s.m), space(s.delta), s.metric,
        representation=representation,
        isotropy_exact=s.isotropy_exact,
        isotropy_connected=s.isotropy_connected)


def _bracket_ranks(basis, adot):
    """Degree -> exact rank of the span of {H, F} on m* over the invariants
    F of that degree: the rank of the bracket map, free of the basis."""
    return {d: len(exactla._echelon(_bracket_on_m(f, adot).terms for f in fs))
            for d, fs in basis.by_degree.items()}


@pytest.fixture(scope="module")
def rewritten(models):
    """name -> (P, the model's structure rewritten in P's basis)."""
    rng = np.random.default_rng(1)
    out = {}
    for name in srgo.list_models():
        p = unitriangular(rng, models[name].structure.dim)
        out[name] = p, rewrite(models[name].structure, p)
    return out


def test_the_new_bases_are_rational_and_well_conditioned(rewritten):
    for name, (p, s) in rewritten.items():
        assert any(type(v) is Fraction for v in p.flat), name
        assert np.linalg.cond(exactla.to_float(p)) < 20, name
        # The m* data leave 0 and 1: a lost m_dual factor shows here.
        assert any(v not in (0, 1) for v in s.m_dual_exact.flat), name


@pytest.mark.parametrize("name", srgo.list_models())
def test_m_field_is_the_bracket_route(name, rewritten):
    # In Fraction arithmetic the restriction of the vertical terms to
    # k-circ still equals the oracle's bracket contraction exactly.
    s = rewritten[name][1]
    assert dict(((r, u, t), c) for r, u, t, c in s.m_field_exact) == \
        oracles.dh_pairings(s, s.m.basis)
    assert s._field_on_k_circ(s.k.basis) == {}


@pytest.mark.parametrize("name", srgo.list_models())
def test_witness_is_pinned_as_on_the_bundled_basis(name, rewritten,
                                                   solve_calls):
    # The one-unknown rows fix W in the new basis too, or prove the system
    # inconsistent, so no row with an open entry reaches the eliminator;
    # W, in Fractions now, is the one that eliminating every row gives,
    # type by type.
    s = rewritten[name][1]
    if s.k.dim == 0:
        assert _tangency_witness(s) is None
        return
    got = _tangency_witness(s)
    assert not any(solve_calls)
    reference = oracles.witness_by_elimination(s)
    if reference is None:
        assert got is None
    else:
        assert got.shape == reference.shape
        assert [(x, type(x)) for x in got.flat] == \
            [(x, type(x)) for x in reference.flat]


# The bundled models whose existence route divides out the radical part of m.
QUOTIENT_MODELS = ["rolling_sphere", "sl2_axisym", "sl2_kp", "so3_axisym",
                   "so3_kp"]


@pytest.mark.parametrize("basis", ["bundled", "rewritten"])
@pytest.mark.parametrize("name", QUOTIENT_MODELS)
def test_the_quotient_hamiltonian_is_h_of_the_lift(name, basis, models,
                                                   rewritten):
    # H-hat(p-hat) = H(proj^T p-hat) for every p-hat, that is Dmat-hat =
    # proj Dmat proj^T, exactly. Delta-hat's basis is the canonical form of
    # the projected delta columns, which differs from them in the rewritten
    # bases.
    s = models[name].structure if basis == "bundled" else rewritten[name][1]
    assert any(step.startswith("factoring out the")
               for step in construct_homogeneous_geodesic(s).steps)
    fact = factorize_by_ideal(s, _intersection(radical(s.algebra), s.m))
    proj = fact.projection
    lifted = exactla.matmul(exactla.matmul(proj, s.dmat_exact), proj.T)
    assert (fact.structure.dmat_exact == lifted).all()


@pytest.mark.parametrize("name", srgo.list_models())
def test_verdicts_do_not_depend_on_the_basis(name, models, rewritten,
                                             invariant_basis, normalised):
    s = models[name].structure
    p, s2 = rewritten[name]
    assert s2.algebra.validate().ok

    v, v2 = (go_verdict(x, degree_cap=4, samples=100, seed=0)
             for x in (s, s2))
    assert v2.verdict == v.verdict
    assert (v2.bracket.witness is None) == (v.bracket.witness is None)
    assert v2.bracket.all_vanish == v.bracket.all_vanish
    assert (v2.skew is None) == (v.skew is None)
    if v.skew is not None:
        assert v2.skew.is_skew == v.skew.is_skew
        # delta-perp's canonical basis can mix the layers here (it does on
        # cartan), so M + M^T can add two nonzero entries.
        assert v2.skew.to_dict() == oracles.skew_report(s2).to_dict()
    if v2.bracket.witness is not None:
        assert _verify_witness(s2, v2.bracket.witness)

    e, e2 = (construct_homogeneous_geodesic(x) for x in (s, s2))
    assert (e2.success, e2.route) == (e.success, e.route)

    if s.dim <= 16:
        basis = invariant_basis(name, 4)
        basis2 = invariant_polynomials(s2, 4)
        assert {d: len(fs) for d, fs in basis2.by_degree.items()} == \
            {d: len(fs) for d, fs in basis.by_degree.items()}
        # Every invariant, bracketed one by one: per degree, the brackets
        # span a space of the same dimension as in the bundled basis (the
        # count of nonzero brackets would depend on the invariant basis),
        # with coefficients held normalised.
        adot, adot2 = _m_vertical_field(s), _m_vertical_field(s2)
        brackets2 = [_bracket_on_m(f, adot2) for f in basis2.polynomials]
        assert _bracket_ranks(basis2, adot2) == _bracket_ranks(basis, adot)
        assert all(normalised(c) for f in [oracles.hamiltonian_polynomial(s2),
                                           *basis2.polynomials, *brackets2]
                   for c in f.terms.values())

    momenta = sample_momenta(s, 20, np.random.default_rng(len(name)))
    transport = exactla.to_float(p).T
    for q in momenta:
        assert check_homogeneous(Momentum(transport @ q, s2)).verdict == \
            check_homogeneous(Momentum(q, s)).verdict
