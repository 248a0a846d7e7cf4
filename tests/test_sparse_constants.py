"""The sparse (COO) structure constants against dense references.

Each reference below is the dense loop over the full (n, n, n) tensor that
the sparse code replaces, written out inline.
"""

from fractions import Fraction

import numpy as np
import pytest

import srgo
from srgo import LieAlgebra, Subspace, lie_closure, subspace_sum
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
    assert g.c_float.dtype == ref.dtype and g.c_float.shape == ref.shape
    assert g.c_float.tobytes() == ref.tobytes()
    assert (g.constants == dense).all()
    assert len(g.coo) == int(np.count_nonzero(dense))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_exact_loops_match_dense_reference(name, models):
    g = models[name].structure.algebra
    c = g.constants
    n = g.dim
    rng = np.random.default_rng(len(name))
    for _ in range(3 if n > 16 else 6):
        a, b, p = (_rational_vec(rng, n) for _ in range(3))
        assert list(g.bracket_exact(a, b)) == _dense_bracket(c, a, b)
        assert (g.ad_matrix_exact(a) == _dense_ad(c, a)).all()
        assert list(g.coad_apply_exact(a, p)) == _dense_coad(c, a, p)
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
    g = LieAlgebra(dense.shape[0], dense)
    want = _dense_validate(dense)
    assert want, "the corruption must be detected"
    assert g.validate().violations == want
    assert g.validate(max_reported=3).violations == want[:3]
    if case == "jacobi_many":
        assert len(want) == 20


def test_constructor_takes_mapping_or_dense_tensor():
    dense = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}}).constants
    a = LieAlgebra(3, dense)
    b = LieAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1, (2, 2, 0): 0})
    assert a.coo == b.coo == [(0, 1, 2, Fraction(1)), (1, 0, 2, Fraction(-1))]
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 3, 1): 1})
    with pytest.raises(ValueError):
        LieAlgebra(3, np.zeros((3, 3, 2)))


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
