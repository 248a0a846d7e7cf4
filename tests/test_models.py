import inspect
import json
from fractions import Fraction

import numpy as np
import pytest

import oracles
import srgo
import srgo.cli as cli
import srgo.models as models_mod
from srgo import (Subspace, generate_free_step2, list_models, load_model,
                  load_model_file)


EXPECTED = {
    "heisenberg", "cartan", "so3_axisym", "sl2_axisym", "so3_kp", "sl2_kp",
    "so3_generic", "rolling_sphere", "biinvariant_compact",
    "free_step2_rank2", "free_step2_rank3", "free_step2_rank4",
    "free_step2_rank5", "free_step2_rank6",
}


def test_registry_contents():
    assert set(list_models()) == EXPECTED


def test_unknown_model():
    with pytest.raises(KeyError, match="unknown model"):
        load_model("nope")


def test_load_model_shares_one_structure():
    first, second = load_model("cartan"), load_model("cartan")
    assert first is not second
    assert first.structure is second.structure
    assert first.known_facts is not second.known_facts
    assert first.notes is not second.notes
    assert first.casimir_exprs is not second.casimir_exprs
    first.known_facts["go"] = "edited"
    first.notes.append("edited")
    first.casimir_exprs["C9"] = "p1"
    third = load_model("cartan")
    assert third.known_facts["go"] == "refuted"
    assert "edited" not in third.notes
    assert "C9" not in third.casimir_exprs


def test_loaded_spec_matches_a_fresh_build():
    for name in list_models():
        assert load_model(name).to_dict() == models_mod._REGISTRY[name]().to_dict(), name


def test_shared_structure_is_read_only():
    s = load_model("cartan").structure
    with pytest.raises(ValueError, match="read-only"):
        s.dmat[0, 0] = 1.0
    for a in (s.metric, s.k.basis, s.m.canonical, s.delta.basis,
              s.grading[1].basis, s.m_dual, s.m_dual_exact, s.k_action):
        assert not a.flags.writeable
    rep = load_model("heisenberg").structure.representation
    assert not any(r.flags.writeable for r in rep)


def test_load_model_is_a_plain_function():
    # perfbench/tracer.py wraps only what inspect.isfunction accepts, and
    # times every load through this name.
    assert inspect.isfunction(models_mod.load_model)


def test_all_models_validate_exactly(models):
    import time

    start = time.time()
    for spec in models.values():
        assert spec.structure.algebra.validate().ok, spec.name
        assert spec.structure.validate().ok, spec.name
    assert time.time() - start < 5.0


def test_free_step2_rank_bounds():
    with pytest.raises(ValueError):
        generate_free_step2(1)
    with pytest.raises(ValueError):
        generate_free_step2(9)
    spec = generate_free_step2(7)  # beyond the registry but generable
    assert spec.structure.dim == 7 + 2 * 21


def test_free_step2_shape():
    spec = generate_free_step2(4)
    s = spec.structure
    assert s.dim == 16
    assert s.delta.dim == 4 and s.k.dim == 6 and s.m.dim == 10
    g = s.algebra
    e = np.eye(16)
    # [v1, v2] = w12 (first wedge coordinate)
    assert np.allclose(oracles.bracket(g, e[0], e[1]), e[4])
    # isotropy acts inside m
    for a in range(10, 16):
        for b in range(10):
            w = oracles.bracket(g, e[a], e[b])
            assert np.max(np.abs(w[10:])) == 0


def test_free_rank2_matches_heisenberg(heisenberg):
    spec = generate_free_step2(2)
    assert (
        spec.structure.algebra.constants
        == heisenberg.structure.algebra.constants
    ).all()


def test_biinvariant_vertical_field_trivial(models):
    s = models["biinvariant_compact"].structure
    rng = np.random.default_rng(0)
    for p in srgo.sample_momenta(s, 10, rng):
        v = oracles.coad_apply(s.algebra, s.dH(p), p)
        assert np.max(np.abs(v)) < 1e-14


def test_metric_is_minus_killing(models):
    s = models["biinvariant_compact"].structure
    k = s.algebra.killing_form()
    assert (s.metric == -k).all()


def test_cartan_known_casimir_exprs(cartan):
    assert cartan.casimir_exprs == {
        "C1": "1/2*p3^2 + p1*p5 - p2*p4",
        "C2": "p4",
        "C3": "p5",
    }


def test_kappa_values(models):
    # Derived exactly from the vertical field: the axisymmetric models'
    # sign / inertia, the step-2 rank-2 rotation, and 0 where the field
    # vanishes.
    want = dict.fromkeys(EXPECTED)
    want.update(so3_axisym=Fraction(1, 2), sl2_axisym=Fraction(-1, 2),
                so3_kp=1, sl2_kp=-1, heisenberg=1, free_step2_rank2=1,
                biinvariant_compact=0)
    for name, kappa in want.items():
        got = models[name].structure.kappa
        assert got == kappa and type(got) is type(kappa), name


def _layers(n, *rows):
    return [Subspace.from_vectors(n, r) for r in rows]


def test_grading_is_derived_from_the_bracket(models):
    e4, e6 = np.eye(4, dtype=int).tolist(), np.eye(6, dtype=int).tolist()
    want = dict.fromkeys(EXPECTED)
    want["heisenberg"] = _layers(4, e4[:2], [e4[2]])
    want["cartan"] = _layers(6, e6[:2], [e6[2]], e6[3:5])
    for r in range(2, 7):
        n, nw = r * r, r * (r - 1) // 2  # n = r + 2 * nw
        ident = np.eye(n, dtype=int).tolist()
        want[f"free_step2_rank{r}"] = _layers(n, ident[:r], ident[r:r + nw])
    for name, layers in want.items():
        s = models[name].structure
        assert s.grading == layers, name
    s = load_model("cartan").structure
    assert s.grading[0] is s.delta
    assert not any(v.basis.flags.writeable for v in s.grading)


def _roundtrip(tmp_path, spec):
    path = tmp_path / f"{spec.name}.json"
    spec.save(path)
    return load_model_file(path)


def test_model_json_roundtrip(tmp_path, models):
    for name, spec in models.items():
        again = _roundtrip(tmp_path, spec)
        s, t = spec.structure, again.structure
        assert (t.algebra.constants == s.algebra.constants).all(), name
        assert t.k == s.k and t.m == s.m and t.delta == s.delta, name
        assert (t.metric == s.metric).all(), name
        assert again.name == name
        assert again.casimir_exprs == spec.casimir_exprs, name
        assert again.notes == spec.notes, name
        assert again.known_facts == spec.known_facts, name
        assert t.algebra.labels == s.algebra.labels, name
        assert t.isotropy_exact == s.isotropy_exact, name
        assert t.isotropy_connected == s.isotropy_connected, name
        assert t.kappa == s.kappa, name


def test_go_verdict_survives_roundtrip(tmp_path, models):
    for name, spec in models.items():
        before = srgo.go_verdict(spec.structure, samples=50, seed=0).to_dict()
        again = _roundtrip(tmp_path, spec)
        after = srgo.go_verdict(again.structure, samples=50, seed=0).to_dict()
        assert after == before, name
        if name in ("rolling_sphere", "so3_generic"):
            assert after["verdict"] == "evidence_only"


def test_model_file_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="JSON object"):
        load_model_file(path)


@pytest.mark.parametrize("key, value, match", [
    ("colour", "blue", "unknown model-file keys: colour"),
    ("isotropy_exact", "false", "isotropy_exact"),
    ("isotropy_connected", 1, "isotropy_connected"),
    ("labels", ["e1"], "label count"),
    ("casimirs", {"C1": "p9"}, "p9"),
    # Each of these escaped as another exception, a traceback in the CLI.
    ("constants", 5, "constants must be a list"),
    ("constants", [[1, 2, 3, 1, 0]], "denominator nonzero"),
    ("dim", None, "dim must be a positive integer"),
    ("k_basis", 3, "k_basis must be a list of rows of 4 numbers"),
    ("metric", [[1], [0, 1]], "metric must be a list of rows of 2 numbers"),
    ("labels", 4, "labels must be a list of strings"),
    ("casimirs", ["p1"], "casimirs must be an object"),
    ("casimirs", {"C": "p1 +"}, "malformed polynomial 'p1 \\+'"),
    ("casimirs", {"C": 3}, "a polynomial is a string"),
    ("notes", 5, "notes must be a list of strings"),
    ("name", 5, "name must be a string"),
    # A NaN validated; an inf warned before a misleading violation.
    ("representation", [[[float("nan")]]] * 4, "must be finite, square"),
    ("representation", [[[float("inf")]]] * 4, "must be finite, square"),
    ("representation", [[[0]], [[0]], [[0]], [[0, 1], [1, 0]]],
     "must be finite, square and of one shape"),
])
def test_model_file_rejects_bad_metadata(tmp_path, heisenberg, key, value,
                                         match):
    data = heisenberg.to_dict()
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=match):
        load_model_file(path)


def test_saved_file_holds_no_derived_key(tmp_path, models):
    for spec in models.values():
        path = tmp_path / f"{spec.name}.json"
        spec.save(path)
        data = json.loads(path.read_text())
        assert "grading" not in data and "kappa" not in data, spec.name


@pytest.mark.parametrize("name, extra", [
    ("heisenberg", {"kappa": None, "grading": [
        [["1", "0", "0", "0"], ["0", "1", "0", "0"]], [["0", "0", "1", "0"]]]}),
    ("so3_axisym", {"kappa": 0.5}),
    ("so3_axisym", {"kappa": "1/2"}),
])
def test_files_with_the_old_derived_keys_still_load(tmp_path, name, extra):
    # Every file saved before grading and kappa were derived holds "kappa",
    # and the graded ones "grading": they load, and their values are unread.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**load_model(name).to_dict(), **extra}))
    outs = []
    for model in (name, str(path)):
        out = tmp_path / "go.json"
        assert cli.main(["go", "--model", model, "--samples", "50",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_model_save_deterministic(tmp_path, heisenberg):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    heisenberg.save(a)
    heisenberg.save(b)
    assert a.read_bytes() == b.read_bytes()


def test_model_file_rejects_bad_constants(tmp_path, heisenberg):
    data = heisenberg.to_dict()
    data["constants"].append([1, 3, 1, 1, 1])  # breaks Jacobi/antisymmetry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_model_file(path)


def test_known_facts_present(models):
    for spec in models.values():
        assert "go" in spec.known_facts, spec.name


def test_rolling_sphere_documents_isotropy_gap(models):
    spec = models["rolling_sphere"]
    assert spec.structure.isotropy_exact is False
    assert spec.notes


def test_so3_generic_discreteness_caveat(models):
    spec = models["so3_generic"]
    assert spec.structure.k.dim == 0
    assert spec.structure.isotropy_connected is False
