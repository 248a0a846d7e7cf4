from fractions import Fraction

import numpy as np
import pytest

import srgo
from srgo import exactla


@pytest.fixture(scope="session")
def normalised():
    """Whether a value is held as the exact layer holds it: an int, or a
    Fraction that is not integral. A float, or an integral Fraction, is
    not (an ``int / int`` that slipped in gives the first)."""
    return lambda v: type(v) is int or (type(v) is Fraction
                                        and v.denominator > 1)


@pytest.fixture(scope="session")
def models():
    """All bundled models, loaded once."""
    return {name: srgo.load_model(name) for name in srgo.list_models()}


@pytest.fixture(scope="session")
def heisenberg(models):
    return models["heisenberg"]


@pytest.fixture(scope="session")
def cartan(models):
    return models["cartan"]


@pytest.fixture(scope="session")
def so3_axisym(models):
    return models["so3_axisym"]


@pytest.fixture(scope="session")
def invariant_basis(models):
    """invariant_polynomials(model, cap), computed once per (name, cap)."""
    cache = {}

    def get(name, cap):
        if (name, cap) not in cache:
            cache[name, cap] = srgo.invariant_polynomials(
                models[name].structure, cap)
        return cache[name, cap]

    return get


@pytest.fixture(scope="session")
def witnesses(models):
    """go._tangency_witness of every model: its L, or None."""
    return {name: srgo.go._tangency_witness(spec.structure)
            for name, spec in models.items()}


@pytest.fixture
def solve_calls(monkeypatch):
    """A list that gets, per ``exactla.solve_sparse`` call, the sorted
    columns that the rows it receives hold."""
    calls = []
    solve = exactla.solve_sparse

    def spy(rows, ncols):
        rows = list(rows)
        calls.append(sorted({c for coeffs, _ in rows for c in coeffs}))
        return solve(rows, ncols)

    monkeypatch.setattr(exactla, "solve_sparse", spy)
    return calls


@pytest.fixture(scope="session")
def so3_plus_center():
    """g = so(3) + R Z with Z central, k = span(Z), m = so(3), delta =
    span(X1, X2), metric diag(1, 2): the Killing kernel span(Z) lies in k,
    so it is neither m nor the radical part of m that exist divides out."""
    g = srgo.LieAlgebra.from_brackets(
        4, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        labels=["X1", "X2", "X3", "Z"])
    e = np.eye(4, dtype=int).tolist()
    s = srgo.HomogeneousSRStructure(
        g, srgo.Subspace.from_vectors(4, [e[3]]),
        srgo.Subspace.from_vectors(4, e[:3]),
        srgo.Subspace.from_vectors(4, e[:2]), [[1, 0], [0, 2]])
    return srgo.ModelSpec("so3_plus_center", s)


@pytest.fixture(scope="session")
def mixed(models):
    """name -> the model's structure with its m basis mixed by an invertible
    rational matrix (upper triangular, i + 2 on the diagonal, 1/2 above).
    Every bundled m_dual holds only 0 and 1; these do not, so a lost m_dual
    factor shows on them."""
    out = {}
    for name, spec in models.items():
        s = spec.structure
        dm = s.m.dim
        half = Fraction(1, 2)
        mix = exactla.fmat([[i + 2 if i == j else (half if j > i else 0)
                             for j in range(dm)] for i in range(dm)])
        m = srgo.Subspace(s.dim, exactla.matmul(s.m.basis, mix))
        out[name] = srgo.HomogeneousSRStructure(s.algebra, s.k, m, s.delta,
                                                s.metric)
    return out
