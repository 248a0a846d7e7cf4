from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import srgo
from srgo import (
    HomogeneousSRStructure,
    LieAlgebra,
    Momentum,
    Subspace,
    carnot_skew_test,
    go_test_bracket,
    go_verdict,
    invariant_polynomials,
)
from srgo import exactla
from srgo.go import (
    GO_AFFIRMED,
    GO_EVIDENCE,
    GO_REFUTED,
    _bracket_on_m,
    _compose_linear_exact,
    _m_action_matrices,
    _m_vertical_field,
    _tangency_witness,
    _verify_witness,
    _witness_pins,
)
from srgo.homogeneity import _exact_feasible
from srgo.poly import Polynomial, monomials_of_degree, poly_from_string


@pytest.fixture(scope="module")
def verdicts(models):
    return {
        name: go_verdict(models[name].structure, samples=200)
        for name in [
            "heisenberg", "cartan", "so3_axisym", "sl2_axisym",
            "so3_generic", "rolling_sphere", "biinvariant_compact",
            "free_step2_rank2", "free_step2_rank3",
        ]
    }


def test_go_verdict_rejects_samples_before_the_bracket_test(cartan,
                                                           monkeypatch):
    def bracket_test(*args, **kwargs):
        raise AssertionError("bracket test ran")

    monkeypatch.setattr(srgo.go, "go_test_bracket", bracket_test)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be positive"):
            go_verdict(cartan.structure, degree_cap=6, samples=samples)


def test_invariant_basis_heisenberg(heisenberg):
    basis = invariant_polynomials(heisenberg.structure, 2)
    # Degree 1: only the central direction survives the rotation.
    assert [repr(p) for p in basis.by_degree[1]] == ["p3"]
    # Degree 2: p3^2, p1^2 + p2^2 (up to scaling/order).
    assert len(basis.by_degree[2]) == 2


def test_invariant_basis_closure(models):
    # Re-applying the infinitesimal action to each invariant is exactly 0.
    for name in ["heisenberg", "so3_axisym", "cartan", "free_step2_rank2"]:
        s = models[name].structure
        basis = invariant_polynomials(s, 3)
        actions = _m_action_matrices(s)
        for poly in basis.polynomials:
            for r in actions:
                out = Polynomial.zero(poly.nvars)
                for i in range(poly.nvars):
                    lin = {}
                    for k in range(poly.nvars):
                        if r[k, i]:
                            mono = [0] * poly.nvars
                            mono[k] = 1
                            lin[tuple(mono)] = r[k, i]
                    if lin:
                        out = out + Polynomial(poly.nvars, lin) * poly.diff(i)
                assert out.is_zero(), name


def _dense_invariant_basis(s, degree_cap):
    """Invariants of each degree as the rref-derived kernel of the dense
    stacked derivation matrix, in the monomial basis."""
    dm = s.m.dim
    actions = _m_action_matrices(s)
    by_degree = {}
    for d in range(1, degree_cap + 1):
        monos = monomials_of_degree(dm, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = exactla.fzeros(max(1, len(actions)) * len(monos), len(monos))
        for col, mono in enumerate(monos):
            for j, r in enumerate(actions):
                for i in range(dm):
                    for k in range(dm):
                        if mono[i] and r[k, i]:
                            out = list(mono)
                            out[i] -= 1
                            out[k] += 1
                            rows[j * len(monos) + index[tuple(out)], col] += (
                                mono[i] * r[k, i])
        red, pivots = exactla.rref(rows)
        polys = []
        for j in range(len(monos)):
            if j not in pivots:
                terms = {monos[j]: 1}
                for ri, pc in enumerate(pivots):
                    terms[monos[pc]] = -red[ri, j]
                polys.append(Polynomial(dm, terms))
        by_degree[d] = polys
    return by_degree


@pytest.mark.parametrize("name, cap", [
    (name, 4) for name in srgo.list_models()
    if name not in ("free_step2_rank4", "free_step2_rank5", "free_step2_rank6")
] + [("cartan", 6), ("rolling_sphere", 6)])
def test_sparse_invariant_basis_equals_rref_basis(invariant_basis, models,
                                                   name, cap):
    want = _dense_invariant_basis(models[name].structure, cap)
    got = invariant_basis(name, cap).by_degree
    assert {d: [repr(p) for p in ps] for d, ps in got.items()} == \
        {d: [repr(p) for p in ps] for d, ps in want.items()}


# The bundled models with n <= 6: every one but free_step2_rank3..rank6.
SMALL_MODELS = ["biinvariant_compact", "cartan", "free_step2_rank2",
                "heisenberg", "rolling_sphere", "sl2_axisym", "sl2_kp",
                "so3_axisym", "so3_generic", "so3_kp"]


def _bracket_through_g(s, f):
    """{H, F} the long way: F(m_basis^T p) bracketed with H on g*, then
    restricted to p = m_dual a."""
    f_on_g = _compose_linear_exact(f, s.m.basis)
    br = oracles.lie_poisson_bracket(oracles.hamiltonian_polynomial(s),
                                     f_on_g, s.algebra)
    return _compose_linear_exact(br, s.m_dual_exact.T)


@pytest.mark.parametrize("name, cap", [
    (name, 4) for name in srgo.list_models()
] + [(name, 6) for name in SMALL_MODELS])
def test_m_bracket_equals_g_coordinate_chain(invariant_basis, models, name,
                                             cap):
    s = models[name].structure
    adot = _m_vertical_field(s)
    for f in invariant_basis(name, cap).polynomials:
        assert repr(_bracket_on_m(f, adot)) == repr(_bracket_through_g(s, f))


@pytest.mark.parametrize("name", ["free_step2_rank3", "free_step2_rank4",
                                  "free_step2_rank5"])
def test_enumeration_agrees_with_witness(models, monkeypatch, name):
    # With the witness route switched off, every degree <= 4 invariant is
    # bracketed one by one; all brackets vanish, as the witness certifies.
    s = models[name].structure
    assert go_test_bracket(s, 4).certified_all_degrees
    monkeypatch.setattr(srgo.go, "_tangency_witness", lambda structure: None)
    report = go_test_bracket(s, 4)
    assert not report.certified_all_degrees
    assert report.all_vanish and report.nonzero == []


def test_trivial_isotropy_gives_all_monomials(models):
    s = models["so3_generic"].structure
    basis = invariant_polynomials(s, 2)
    assert len(basis.by_degree[1]) == 3
    assert len(basis.by_degree[2]) == 6


def test_bracket_witness_certifies(models):
    for name in ["heisenberg", "so3_axisym", "sl2_kp",
                 "free_step2_rank2", "free_step2_rank4"]:
        report = go_test_bracket(models[name].structure)
        assert report.all_vanish, name
        assert report.certified_all_degrees, name
        assert report.witness is not None, name


def test_witness_exists_except_on_four_models(witnesses):
    # Trivial k (biinvariant_compact, rolling_sphere, so3_generic) has no
    # witness to look for; on cartan the exact system is inconsistent.
    missing = {name for name, w in witnesses.items() if w is None}
    assert missing == {"biinvariant_compact", "cartan", "rolling_sphere",
                       "so3_generic"}
    assert {"free_step2_rank5", "free_step2_rank6"} <= witnesses.keys()


def test_every_witness_passes_the_exact_identity(models, witnesses,
                                                 normalised):
    for name, w in witnesses.items():
        if w is not None:
            s = models[name].structure
            assert w.shape == (s.k.dim, s.dim), name
            assert all(normalised(v) for v in w.flat), name
            assert _verify_witness(s, w), name


def test_witness_on_mixed_m_bases_passes_the_exact_identity(mixed, witnesses,
                                                            normalised):
    # The witness rows pair with the m basis; mixing it moves m_dual and
    # both m-forms off 0 and 1, and the g-coordinate oracle still holds.
    for name, s in mixed.items():
        w = _tangency_witness(s)
        assert (w is None) == (witnesses[name] is None), name
        if w is not None:
            assert w.shape == (s.k.dim, s.dim), name
            assert all(normalised(v) for v in w.flat), name
            assert _verify_witness(s, w), name


def test_verify_witness_rejects_a_changed_entry(models, witnesses):
    # The oracle is not vacuous: bumping any one nonzero entry breaks it.
    s = models["free_step2_rank3"].structure
    w = witnesses["free_step2_rank3"]
    entries = list(zip(*np.nonzero(w != 0)))
    assert entries
    for a, q in entries:
        changed = w.copy()
        changed[a, q] += 1
        assert not _verify_witness(s, changed), (a, q)


def _same_entries(a, b):
    """Both None, or the same shape and, entry by entry, equal values of
    the same type."""
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and all(
        x == y and type(x) is type(y) for x, y in zip(a.flat, b.flat))


@pytest.mark.parametrize("name", srgo.list_models())
def test_witness_equals_the_elimination_route(name, models, mixed,
                                              solve_calls):
    # The presolve gives the W that eliminating every row gives, entry by
    # entry and type by type, and no pinned column reaches the eliminator.
    # The mixed rank6 basis is left to the g-coordinate oracle
    # (test_witness_on_mixed_m_bases_passes_the_exact_identity): its full
    # elimination takes seconds.
    for s in (models[name].structure, mixed[name]):
        if s is mixed["free_step2_rank6"]:
            continue
        solve_calls.clear()
        got = _tangency_witness(s)
        pins = _witness_pins(s) or {}
        assert not any(set(cols) & pins.keys() for cols in solve_calls)
        assert _same_entries(got, oracles.witness_by_elimination(s))


def test_witness_equals_the_elimination_route_on_so3_plus_center(
        so3_plus_center, solve_calls):
    # k = span(Z) acts trivially on m, so no row holds an unknown, and a
    # row of the nonzero field is left reading 0 = -c, c != 0: None, with
    # no solve.
    s = so3_plus_center.structure
    assert _witness_pins(s) == {}
    assert _tangency_witness(s) is None
    assert solve_calls == []
    assert oracles.witness_by_elimination(s) is None


def test_bundled_witnesses_are_pinned_without_elimination(models,
                                                          solve_calls):
    # On every bundled model with nontrivial k the one-unknown rows fix W,
    # or prove the system inconsistent (cartan), so no row with an open
    # entry reaches the eliminator.
    nontrivial = [n for n in srgo.list_models() if models[n].structure.k.dim]
    assert len(nontrivial) == 11
    for name in nontrivial:
        _tangency_witness(models[name].structure)
    assert not any(solve_calls)


def test_mixed_bases_fall_back_to_elimination(mixed, solve_calls):
    # Mixing the m basis fills the k action in, so the one-unknown rows
    # leave W open on free_step2_rank3; exactly its unpinned entries, of
    # 18, are then solved.
    s = mixed["free_step2_rank3"]
    pins = _witness_pins(s)
    assert pins is not None and len(pins) < s.k.dim * s.m.dim
    assert _tangency_witness(s) is not None
    assert solve_calls == [sorted(set(range(18)) - pins.keys())]


def test_cartan_witness_ends_on_conflicting_pins(cartan, solve_calls):
    assert _witness_pins(cartan.structure) is None
    assert _tangency_witness(cartan.structure) is None
    assert solve_calls == []


def _stand_in(dk, dm, action, field):
    """What ``_tangency_witness`` reads of a structure: dk, dm, an m basis
    (the last dm coordinates of g = k + m), the k action on m as
    {(b, r, t): g} and adot as {(r, u, t): c}."""
    basis = exactla.fmat([[int(i == dk + j) for j in range(dm)]
                          for i in range(dk + dm)])
    return SimpleNamespace(
        k=SimpleNamespace(dim=dk),
        m=SimpleNamespace(dim=dm, basis=basis),
        m_action_exact=tuple(sorted((*key, g) for key, g in action.items())),
        m_field_exact=tuple(sorted((*key, c) for key, c in field.items())))


def _field_closed_by(action, w):
    """The adot that W closes: minus sum_b (W a)_b p([Z_b, m_r]) at each
    (r, u, t), u <= t."""
    out = {}
    for (b, r, t), g in action.items():
        for q, x in enumerate(w[b]):
            key = (r, min(q, t), max(q, t))
            out[key] = out.get(key, 0) - g * x
    return {key: c for key, c in out.items() if c}


def test_conflicting_pins_prove_inconsistency(solve_calls):
    # Rows (0, 0, 0) and (1, 0, 0) each hold W[0, 0] alone: W[0, 0] = -1
    # and W[0, 0] = -2.
    s = _stand_in(1, 2, {(0, 0, 0): 1, (0, 1, 0): 1},
                  {(0, 0, 0): 1, (1, 0, 0): 2})
    assert _witness_pins(s) is None
    assert _tangency_witness(s) is None
    assert solve_calls == []
    assert oracles.witness_by_elimination(s) is None


def test_pinned_witness_failing_a_wider_row_is_none(solve_calls):
    # The one-unknown rows pin W = 0; row (1, 0, 1) reads
    # W[0, 0] + W[0, 1] = -1, which that W does not meet.
    s = _stand_in(1, 2, {(0, 0, 0): 1, (0, 1, 0): 1, (0, 1, 1): 1},
                  {(1, 0, 1): 1})
    assert _witness_pins(s) == {0: 0, 1: 0}
    assert _tangency_witness(s) is None
    assert solve_calls == []
    assert oracles.witness_by_elimination(s) is None


def test_an_unpinned_entry_falls_back_to_elimination(solve_calls):
    # W[1, 0] sits only in rows with two unknowns; row (0, 0, 0),
    # W[0, 0] + W[1, 0] = -c, fixes it once W[0, 0] is pinned.
    action = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1,
              (0, 1, 0): 1, (1, 1, 1): 1}
    w = [[1, Fraction(1, 2)], [3, -4]]
    s = _stand_in(2, 2, action, _field_closed_by(action, w))
    assert set(_witness_pins(s)) == {0, 1, 3}
    got = _tangency_witness(s)
    assert solve_calls == [[2]]  # W[1, 0] alone reaches the eliminator
    assert _same_entries(got, oracles.witness_by_elimination(s))
    assert _same_entries(got, exactla.fmat([[0, 0, *row] for row in w]))


@pytest.mark.parametrize("g, c, value", [
    (2, 4, -2), (2, -4, 2), (2, 1, Fraction(-1, 2)), (2, -1, Fraction(1, 2)),
    (Fraction(1, 2), 1, -2), (Fraction(1, 2), Fraction(3, 2), -3),
    (Fraction(2, 3), Fraction(1, 3), Fraction(-1, 2))])
def test_pins_are_held_normalised(g, c, value):
    # An int that divides exactly gives an int, any other quotient a
    # normalised rational.
    s = _stand_in(1, 1, {(0, 0, 0): g}, {(0, 0, 0): c})
    pins = _witness_pins(s)
    assert pins == {0: value} and type(pins[0]) is type(value)
    got = _tangency_witness(s)
    assert _same_entries(got, exactla.fmat([[0, value]]))
    assert _same_entries(got, oracles.witness_by_elimination(s))


@pytest.mark.parametrize("name", srgo.list_models())
def test_pins_equal_the_every_u_loop(name, models, mixed):
    # Visiting only t and the u no group holds gives the dict that the loop
    # over every u gives: the same keys, values and value types.
    for s in (models[name].structure, mixed[name]):
        got, want = _witness_pins(s), oracles.witness_pins(s)
        if want is None:
            assert got is None, name
            continue
        assert got == want, name
        assert {q: type(v) for q, v in got.items()} == {
            q: type(v) for q, v in want.items()}, name


def test_bracket_refutes_cartan(cartan):
    report = go_test_bracket(cartan.structure)
    assert not report.all_vanish
    assert report.nonzero
    # The central m-invariant fails to commute with H off h4 = h5 = 0.
    inv_reprs = [f for f, _ in report.nonzero]
    assert "p3" in inv_reprs


def test_bracket_abelian_all_vanish():
    # Euclidean case: abelian algebra, trivial isotropy.
    g = LieAlgebra.from_brackets(3, {})
    ident = np.eye(3, dtype=int).tolist()
    s = srgo.HomogeneousSRStructure(
        g,
        Subspace.from_vectors(3, []),
        Subspace.from_vectors(3, ident),
        Subspace.from_vectors(3, ident),
        ident,
    )
    report = go_test_bracket(s, degree_cap=3)
    assert report.all_vanish


def test_skew_refutes_cartan(cartan):
    report = carnot_skew_test(cartan.structure)
    assert not report.is_skew
    assert report.max_asymmetry > 0.5
    assert report.failing_direction is not None


def test_skew_holds_on_step2(models):
    for name in ["heisenberg", "free_step2_rank2", "free_step2_rank3",
                 "free_step2_rank4"]:
        report = carnot_skew_test(models[name].structure)
        assert report.is_skew, name
        assert "step at most 2" in report.step_conclusion


def test_skew_decided_exactly():
    # Step-3 rank-2 Carnot algebra whose third-layer brackets are 1e-15:
    # the float asymmetry is below any float cutoff, the exact one is not.
    tiny = Fraction(1, 10 ** 15)
    g = LieAlgebra.from_brackets(
        5, {(0, 1): {2: 1}, (0, 2): {3: tiny}, (1, 2): {4: tiny}})
    ident = np.eye(5, dtype=int).tolist()
    s = HomogeneousSRStructure(
        g, Subspace.from_vectors(5, []), Subspace.from_vectors(5, ident),
        Subspace.from_vectors(5, ident[:2]), [[1, 0], [0, 1]])
    # No grading is declared: the layers are derived from the bracket.
    assert [v.dim for v in s.grading] == [2, 1, 2]
    assert s.grading[2] == Subspace.from_vectors(5, ident[3:])
    report = carnot_skew_test(s)
    assert 0 < report.max_asymmetry < 1e-12
    assert not report.is_skew
    assert list(report.failing_direction) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert report.to_dict() == oracles.skew_report(s).to_dict()


@pytest.fixture
def dense_solves(monkeypatch):
    """A list that gets the right-hand side's shape per ``exactla.solve``
    call."""
    calls = []
    solve = exactla.solve

    def counted(a, b):
        calls.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(exactla, "solve", counted)
    return calls


# The bundled models whose Carnot layers stratify m.
GRADED_MODELS = ["cartan", "free_step2_rank2", "free_step2_rank3",
                 "free_step2_rank4", "free_step2_rank5", "free_step2_rank6",
                 "heisenberg"]


@pytest.mark.parametrize("name", GRADED_MODELS)
def test_skew_equals_the_solve_oracle(name, models, mixed, dense_solves):
    # Reading each bracket's coordinates at the pivot rows of delta-perp's
    # canonical basis gives the report that solving every bracket in the
    # basis delta + delta-perp gives, float asymmetry bit for bit.
    # GRADED_MODELS lists every graded bundled model.
    assert {n for n, spec in models.items()
            if spec.structure.grading is not None} == set(GRADED_MODELS)
    for s in (models[name].structure, mixed[name]):
        assert s.grading is not None
        dense_solves.clear()
        got = carnot_skew_test(s)
        assert dense_solves == []
        assert got.to_dict() == oracles.skew_report(s).to_dict()


def test_go_verdict_makes_no_solve_call(models, dense_solves):
    for name, spec in models.items():
        go_verdict(spec.structure, samples=10)
        assert dense_solves == [], name


def test_m_actions_take_no_solve(models, dense_solves):
    # The m action is read off the k action and m_dual, with no solve.
    s = models["free_step2_rank3"].structure
    s.m_dual_exact  # the structure's one inverse, cached and shared
    actions = _m_action_matrices(s)
    assert dense_solves == []
    assert len(actions) == s.k.dim
    assert all(r.shape == (s.m.dim, s.m.dim) for r in actions)


@pytest.mark.parametrize("name", srgo.list_models())
def test_m_actions_match_solve_oracle(name, models):
    # R_j: every [z_j, m_i] in the m-basis, by one exact solve.
    s = models[name].structure
    g = s.algebra
    dk, dm = s.k.dim, s.m.dim
    w = exactla.fzeros(s.dim, dk * dm)
    for j in range(dk):
        for i in range(dm):
            w[:, j * dm + i] = g.bracket_exact(s.k.basis[:, j], s.m.basis[:, i])
    coords = exactla.solve(s.m.basis, w) if dk else exactla.fzeros(dm, 0)
    assert coords is not None
    actions = _m_action_matrices(s)
    assert len(actions) == dk
    for j, r in enumerate(actions):
        ref = coords[:, j * dm:(j + 1) * dm]
        assert r.tolist() == ref.tolist(), (name, j)
        assert all(type(v) is int or v.denominator != 1 for v in r.flat)


def test_skew_requires_grading_or_complement(so3_axisym):
    with pytest.raises(ValueError):
        carnot_skew_test(so3_axisym.structure)


def test_go_verdicts(verdicts):
    assert verdicts["heisenberg"].verdict == GO_AFFIRMED
    assert verdicts["so3_axisym"].verdict == GO_AFFIRMED
    assert verdicts["sl2_axisym"].verdict == GO_AFFIRMED
    assert verdicts["biinvariant_compact"].verdict == GO_AFFIRMED
    assert verdicts["free_step2_rank2"].verdict == GO_AFFIRMED
    assert verdicts["free_step2_rank3"].verdict == GO_AFFIRMED
    assert verdicts["cartan"].verdict == GO_REFUTED
    assert verdicts["so3_generic"].verdict == GO_EVIDENCE
    assert verdicts["rolling_sphere"].verdict == GO_EVIDENCE


@pytest.mark.parametrize("name", srgo.list_models())
def test_go_scan_equals_scan_without_witness(models, monkeypatch, name):
    # A witness implies the scan, so go draws and solves nothing there; the
    # scan it reports is the one that solves every sampled system by SVD.
    # The four models without one are scanned once, with no witness.
    s = models[name].structure
    scans, draws = [], []
    real = srgo.go.scan_homogeneous
    real_draw = srgo.homogeneity.sample_momenta

    def scan(*args, **kwargs):
        scans.append((args, kwargs))
        return real(*args, **kwargs)

    def draw(structure, nsamples, rng):
        draws.append(nsamples)
        return real_draw(structure, nsamples, rng)

    monkeypatch.setattr(srgo.go, "scan_homogeneous", scan)
    monkeypatch.setattr(srgo.homogeneity, "sample_momenta", draw)
    monkeypatch.setattr(srgo.integrate, "sample_momenta", draw)
    scanned = name in ("cartan", "rolling_sphere", "so3_generic",
                       "biinvariant_compact")
    for seed in (0, 7):
        verdict = go_verdict(s, seed=seed)
        assert (verdict.bracket.witness is None) == scanned
        if scanned:
            assert scans == [((s, 1000, seed), {})] and draws == [1000]
        else:
            assert scans == [] and draws == []
        assert verdict.to_dict()["scan"] == (
            real(s, 1000, seed).to_dict()), (name, seed)
        scans.clear()
        draws.clear()


def test_witness_closes_sampled_systems_exactly(models, witnesses):
    # The implication behind the implied scan, with no float tolerance: at
    # the rational coordinates of sampled momenta, the feasibility system
    # of every witness model is consistent over the rationals.
    found = [name for name, w in witnesses.items() if w is not None]
    assert len(found) == 10
    rng = np.random.default_rng(3)
    for name in found:
        s = models[name].structure
        for p in srgo.sample_momenta(s, 3, rng):
            assert _exact_feasible(Momentum(p, s)) is not None, name


def test_refutation_witness_content(verdicts):
    witness = verdicts["cartan"].refutation_witness
    assert witness is not None
    assert witness["counterexample_momenta"]


def test_rolling_sphere_evidence(verdicts):
    v = verdicts["rolling_sphere"]
    assert v.scan.n_not > 0
    assert any("incomplete" in n for n in v.notes)


def test_two_refutation_routes_agree(verdicts):
    v = verdicts["cartan"]
    assert not v.skew.is_skew
    assert not v.bracket.all_vanish


def test_verdict_serialization(verdicts):
    d = verdicts["cartan"].to_dict()
    assert d["verdict"] == GO_REFUTED
    assert d["skew"]["is_skew"] is False
    assert d["scan"]["samples"] == 200


def test_free_step2_vertical_splitting(models):
    # V-part: dp = rho p; wedge and so(V) parts constant.
    spec = models["free_step2_rank3"]
    s = spec.structure
    rng = np.random.default_rng(8)
    for p in srgo.sample_momenta(s, 5, rng):
        v = oracles.coad_apply(s.algebra, s.dH(p), p)
        assert np.max(np.abs(v[3:])) < 1e-12  # wedge + isotropy frozen
        # dp_a = sum_b q_ab p_b with q the wedge part as a skew matrix
        q = np.zeros((3, 3))
        q[0, 1], q[0, 2], q[1, 2] = p[3], p[4], p[5]
        rho = q.T - q  # wedge part as the rotation acting on the V-momenta
        assert np.allclose(v[:3], rho @ p[:3], atol=1e-12)
