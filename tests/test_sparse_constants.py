"""The sparse (COO) structure constants against dense references.

Each reference below is the dense loop over the full (n, n, n) tensor that
the sparse code replaces, written out inline.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
import srgo
from srgo import (
    LieAlgebra,
    Subspace,
    lie_closure,
    subspace_sum,
)
from srgo import exactla

ALL_MODELS = srgo.list_models()


def _dense_from_file(spec):
    """The dense Fraction tensor rebuilt from the model-file constants."""
    n = spec.structure.dim
    c = np.empty((n, n, n), dtype=object)
    c[:] = Fraction(0)
    for i, j, k, num, den in spec.to_dict()["constants"]:
        c[i - 1, j - 1, k - 1] = Fraction(num, den)
        c[j - 1, i - 1, k - 1] = -Fraction(num, den)
    return c


def _rational_vec(rng, n, zero_share=0.5):
    v = np.empty(n, dtype=object)
    for i in range(n):
        if rng.random() < zero_share:
            v[i] = Fraction(0)
        else:
            v[i] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
    return v


def _dense_bracket(c, a, b):
    n = c.shape[0]
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a[i] and b[j] and c[i, j, k]:
                    out[k] += a[i] * b[j] * c[i, j, k]
    return out


def _dense_ad(c, x):
    n = c.shape[0]
    out = exactla.fzeros(n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if x[i] and c[i, j, k]:
                    out[k, j] += x[i] * c[i, j, k]
    return out


def _dense_coad(c, x, p):
    n = c.shape[0]
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if x[i] and c[i, j, k] and p[k]:
                    out[j] += x[i] * c[i, j, k] * p[k]
    return out


def _dense_killing(c):
    n = c.shape[0]
    ads = [_dense_ad(c, [Fraction(int(i == a)) for i in range(n)])
           for a in range(n)]
    return exactla.fmat([[sum((ads[i][a, b] * ads[j][b, a]
                               for a in range(n) for b in range(n)),
                              Fraction(0))
                          for j in range(n)] for i in range(n)])


def _dense_validate(c, max_reported=20):
    """Antisymmetry and Jacobi as dense integer tensors (the former code)."""
    n = c.shape[0]
    violations = []
    lcm = 1
    for v in c.flat:
        lcm = lcm * v.denominator // np.gcd(lcm, v.denominator)
    ints = np.array([[[int(c[i, j, k] * lcm) for k in range(n)]
                      for j in range(n)] for i in range(n)], dtype=object)
    if np.max(np.abs(ints.astype(float))) < 2 ** 20:
        ints = ints.astype(np.int64)
    anti = ints + ints.transpose(1, 0, 2)
    for i, j, k in zip(*np.nonzero(anti)):
        if len(violations) >= max_reported:
            break
        violations.append(f"antisymmetry violated at ({i + 1},{j + 1},{k + 1})")
    if violations:
        return violations
    jac = np.einsum("ijm,mlk->ijlk", ints, ints)
    total = jac + jac.transpose(1, 2, 0, 3) + jac.transpose(2, 0, 1, 3)
    for i, j, l, k in zip(*np.nonzero(total)):
        if i < j < l:
            if len(violations) >= max_reported:
                break
            violations.append(
                f"Jacobi identity violated at ({i + 1},{j + 1},{l + 1};{k + 1})")
    return violations


def _full_fixpoint_closure(algebra, seed):
    """lie_closure without the early exit: bracket until the span is stable."""
    current = seed
    while True:
        cols = [current.basis]
        for a in range(current.dim):
            for b in range(a + 1, current.dim):
                v = algebra.bracket_exact(current.basis[:, a], current.basis[:, b])
                cols.append(v.reshape(-1, 1))
        nxt = Subspace.span_of_columns(algebra.dim, np.concatenate(cols, axis=1))
        if nxt.dim == current.dim:
            return nxt
        current = nxt


@pytest.mark.parametrize("name", ALL_MODELS)
def test_c_float_bitwise_equals_dense_build(name, models):
    spec = models[name]
    g = spec.structure.algebra
    dense = _dense_from_file(spec)
    n = g.dim
    ref = np.array([[[float(dense[i, j, k]) for k in range(n)]
                     for j in range(n)] for i in range(n)], dtype=float)
    # The constants in float, scattered into a dense tensor.
    index, values = oracles.coo_arrays(g)
    c_float = np.zeros((n, n, n))
    c_float[tuple(index)] = values
    assert values.dtype == ref.dtype
    assert c_float.tobytes() == ref.tobytes()
    assert (g.constants == dense).all()
    assert len(g.coo) == int(np.count_nonzero(dense))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_float_loops_match_dense_einsum(name, models):
    g = models[name].structure.algebra
    c = g.constants.astype(float)
    x, y, p = np.random.default_rng(len(name)).standard_normal((3, g.dim))
    assert np.allclose(oracles.bracket(g, x, y),
                       np.einsum("i,j,ijk->k", x, y, c), rtol=0, atol=1e-13)
    assert np.allclose(oracles.ad_matrix(g, x), np.einsum("i,ijk->kj", x, c),
                       rtol=0, atol=1e-13)
    assert np.allclose(oracles.coad_apply(g, x, p),
                       np.einsum("i,ijk,k->j", x, c, p), rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_exact_loops_match_dense_reference(name, models):
    g = models[name].structure.algebra
    c = g.constants
    n = g.dim
    rng = np.random.default_rng(len(name))
    for _ in range(3 if n > 16 else 6):
        a, b, p = (_rational_vec(rng, n) for _ in range(3))
        assert list(g.bracket_exact(a, b)) == _dense_bracket(c, a, b)
        assert (oracles.ad_matrix_exact(g, a) == _dense_ad(c, a)).all()
        assert list(oracles.coad_apply_exact(g, a, p)) == _dense_coad(c, a, p)
    # Whole bases through the one contraction, pair by pair.
    da, db = (2, 2) if n > 16 else (3, 4)
    a_basis, b_basis = (np.stack([_rational_vec(rng, n) for _ in range(d)],
                                 axis=1) for d in (da, db))
    for basis, other, pairs in (
            (a_basis, b_basis, [(r, s) for r in range(da) for s in range(db)]),
            (b_basis, None, [(r, s) for r in range(db) for s in range(r + 1, db)])):
        got = g.brackets(basis, other)
        assert set(got) <= set(pairs)
        for r, s in pairs:
            vec = got.get((r, s), {})
            assert all(v and (type(v) is int or v.denominator != 1)
                       for v in vec.values())
            dense = [vec.get(k, 0) for k in range(n)]
            ref = _dense_bracket(c, basis[:, r],
                                 (basis if other is None else other)[:, s])
            assert dense == ref, (r, s)
    if n <= 16:
        assert (g.killing_form() == _dense_killing(c)).all()


def test_killing_form_rank6_matches_dense_reference(models):
    g = models["free_step2_rank6"].structure.algebra
    c = g.constants
    n = g.dim
    # tr(ad e_i ad e_j) = sum over (b, a) of c[i, b, a] c[j, a, b], with the
    # nonzero (b, a) of each dense slice c[i] found by numpy.
    slices = [list(zip(*np.nonzero(c[i]))) for i in range(n)]
    ref = exactla.fmat([[sum((c[i, b, a] * c[j, a, b] for b, a in slices[i]),
                             Fraction(0))
                         for j in range(n)] for i in range(n)])
    assert (g.killing_form() == ref).all()


def test_float_vectors_accepted_by_exact_loops(cartan):
    g = cartan.structure.algebra
    a = [1.0, 0.5, 0, 0, 0, 0]
    b = [0, 2, 1, 0, 0, 1]
    assert list(g.bracket_exact(a, b)) == _dense_bracket(
        g.constants, [Fraction(x) for x in a], [Fraction(x) for x in b])
    with pytest.raises(ValueError):
        g.bracket_exact(a[:5], b)


def _corrupt(dense, changes):
    out = dense.copy()
    for (i, j, k), v in changes.items():
        out[i, j, k] = Fraction(v)
    return out


@pytest.mark.parametrize("case", ["antisymmetry", "diagonal", "jacobi",
                                  "jacobi_many", "rank6"])
def test_validate_on_corrupted_constants_matches_dense(case, models):
    if case == "rank6":
        base = models["free_step2_rank6"].structure.algebra.constants
        # [v1, v2] = 3 w12, and [w12, A12] gains a w13 component.
        dense = _corrupt(base, {(0, 1, 6): 3, (1, 0, 6): -3})
        dense = _corrupt(dense, {(6, 21, 7): 1, (21, 6, 7): -1})
    elif case == "antisymmetry":
        base = models["cartan"].structure.algebra.constants
        dense = _corrupt(base, {(0, 1, 2): 2, (3, 2, 0): "1/3",
                                (5, 5, 1): 1})
    elif case == "diagonal":
        base = models["so3_generic"].structure.algebra.constants
        dense = _corrupt(base, {(i, i, k): 1 for i in range(3)
                                for k in range(3)})
    elif case == "jacobi":
        dense = LieAlgebra.from_brackets(
            3, {(0, 1): {2: 1}, (0, 2): {0: 1}}).constants
    else:  # more than 20 Jacobi violations: the cap and the order
        rng = np.random.default_rng(4)
        brackets = {}
        for i in range(6):
            for j in range(i + 1, 6):
                brackets[(i, j)] = {int(k): int(rng.integers(-2, 3))
                                    for k in rng.choice(6, 2, replace=False)}
        dense = LieAlgebra.from_brackets(6, brackets).constants
    g = LieAlgebra(dense.shape[0], {idx: dense[idx]
                                    for idx in zip(*np.nonzero(dense))})
    want = _dense_validate(dense)
    assert want, "the corruption must be detected"
    assert g.validate().violations == want
    assert g.validate(max_reported=3).violations == want[:3]
    if case == "jacobi_many":
        assert len(want) == 20


def test_constructor_takes_a_mapping():
    b = LieAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1, (2, 2, 0): 0})
    assert b.coo == [(0, 1, 2, Fraction(1)), (1, 0, 2, Fraction(-1))]
    assert b.coo == LieAlgebra.from_brackets(3, {(0, 1): {2: 1}}).coo
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 3, 1): 1})


def test_from_brackets_later_entry_overwrites():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 0): {2: 5}})
    assert g.constants[1, 0, 2] == 5 and g.constants[0, 1, 2] == -5


def _seeds(spec):
    s = spec.structure
    n = s.dim
    out = [s.delta, subspace_sum(n, [s.delta, s.k]), s.m]
    if s.grading is not None:
        out.append(s.grading[0])
    return out


@pytest.mark.parametrize("name", ALL_MODELS)
def test_lie_closure_early_exit_matches_full_fixpoint(name, models):
    g = models[name].structure.algebra
    for seed in _seeds(models[name]):
        fast = lie_closure(g, seed)
        full = _full_fixpoint_closure(g, seed)
        assert fast == full
        assert (fast.basis == full.basis).all()


@pytest.mark.parametrize("name", ALL_MODELS)
def test_exact_forms_match_the_coadjoint_action(name, models):
    s = models[name].structure
    g, n = s.algebra, s.dim
    assert list(s.vertical_terms_exact) == sorted(s.vertical_terms_exact)
    assert list(s.k_action_exact) == sorted(s.k_action_exact)
    assert all(a <= k and c for _, a, k, c in s.vertical_terms_exact)
    rng = np.random.default_rng(len(name) + 7)
    for _ in range(3):
        p = _rational_vec(rng, n, zero_share=0.3)
        field = [Fraction(0)] * n
        for j, a, k, c in s.vertical_terms_exact:
            field[j] += c * p[a] * p[k]
        assert field == list(
            oracles.coad_apply_exact(g, oracles.dH_exact(s, p), p))
        action = [[Fraction(0)] * n for _ in range(s.k.dim)]
        for a, j, k, c in s.k_action_exact:
            action[a][j] += c * p[k]
        for a in range(s.k.dim):
            assert action[a] == list(
                oracles.coad_apply_exact(g, s.k.basis[:, a], p))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_m_forms_match_the_coadjoint_action_on_the_annihilator(
        name, models, mixed, normalised):
    # adot and the k action on m, evaluated at a, against the coadjoint
    # action at p = m_dual a paired with each m_r, exactly; the pairings
    # with k, which neither form holds, vanish. The mixed m basis takes
    # m_dual off 0 and 1.
    assert any(v not in (0, 1) for v in mixed[name].m_dual_exact.flat)
    rng = np.random.default_rng(len(name) + 11)
    for s in (models[name].structure, mixed[name]):
        g, dm, dk = s.algebra, s.m.dim, s.k.dim
        for terms in (s.m_field_exact, s.m_action_exact):
            assert type(terms) is tuple and list(terms) == sorted(terms)
            assert all(type(t) is tuple and normalised(t[-1]) and t[-1]
                       for t in terms)
        assert all(u <= t for _, u, t, _ in s.m_field_exact)
        for _ in range(3):
            a = _rational_vec(rng, dm, zero_share=0.3)
            p = exactla.matvec(s.m_dual_exact, a)
            adot = [0] * dm
            for r, u, t, c in s.m_field_exact:
                adot[r] += c * a[u] * a[t]
            field = oracles.coad_apply_exact(g, oracles.dH_exact(s, p), p)
            assert adot == list(exactla.matvec(s.m.basis.T, field))
            assert not any(exactla.matvec(s.k.basis.T, field))
            action = [[0] * dm for _ in range(dk)]
            for b, r, t, c in s.m_action_exact:
                action[b][r] += c * a[t]
            for b in range(dk):
                coad = oracles.coad_apply_exact(g, s.k.basis[:, b], p)
                assert action[b] == list(exactla.matvec(s.m.basis.T, coad))
                assert not any(exactla.matvec(s.k.basis.T, coad))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_float_forms_mirror_the_exact_ones(name, models):
    s = models[name].structure
    assert s.vertical_terms == tuple((j, a, k, float(c))
                                     for j, a, k, c in s.vertical_terms_exact)
    dense = np.zeros((s.k.dim, s.dim, s.dim))
    for a, j, k, c in s.k_action_exact:
        dense[a, j, k] = float(c)
    assert s.k_action.tobytes() == dense.tobytes()
    assert not s.k_action.flags.writeable


def _rank_route(s, p):
    """The feasibility test as two ranks and a dense solve over
    coad_apply_exact columns (the route _exact_feasible replaces)."""
    g = s.algebra
    coords = np.array([Fraction(float(x)) for x in p], dtype=object)
    field = oracles.coad_apply_exact(g, oracles.dH_exact(s, coords), coords)
    b = np.array([-v for v in field], dtype=object)
    cols = [oracles.coad_apply_exact(g, s.k.basis[:, j], coords).reshape(-1, 1)
            for j in range(s.k.dim)]
    a = np.concatenate(cols, axis=1) if cols else exactla.fzeros(s.dim, 0)
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    if exactla.rank(a) != exactla.rank(aug):
        return None
    return exactla.solve(a, b)


def _same_solution(got, want):
    return (got is None) == (want is None) and (
        got is None or list(got) == list(want))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_exact_feasible_matches_the_rank_route(name, models):
    from srgo.homogeneity import _exact_feasible

    s = models[name].structure
    rows = srgo.sample_momenta(s, 2 if s.dim > 16 else 4,
                               np.random.default_rng(len(name)))
    if name == "cartan":  # on the homogeneous set p4 = p5 = 0 as well
        rows = np.concatenate([rows, rows * [1, 1, 1, 0, 0, 1]])
    for p in rows:
        got = _exact_feasible(srgo.Momentum(p, s))
        assert _same_solution(got, _rank_route(s, p))


def test_exact_feasible_on_the_escalation_band_momentum(cartan):
    # cartan with p4 small and p5 = 0 puts the float residual inside the
    # exact band [1e-8, 1e-7), where check_homogeneous escalates.
    from srgo.homogeneity import _exact_feasible, feasibility_residuals

    s = cartan.structure
    a = np.random.default_rng(5).standard_normal(s.m.dim)
    a[4] = 0.0
    p1, p2, p3 = a[:3]
    a[3] = (np.sqrt(1e-15) * (1.0 + abs(p3) * np.hypot(p1, p2))
            / np.hypot(p1, p3))
    p = s.m_dual @ a
    relres, _ = feasibility_residuals(s, p[None])
    assert 1e-8 <= relres[0] < 1e-7
    got = _exact_feasible(srgo.Momentum(p, s))
    assert got is None
    assert _same_solution(got, _rank_route(s, p))
