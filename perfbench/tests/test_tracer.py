"""Tests of the benchmark's tracer: transparency, self-time accounting and
wrapping at every import site."""

from fractions import Fraction

import numpy as np
import pytest

import srgo
import srgo.cli
import srgo.exactla
import srgo.go
import srgo.integrate
import srgo.kernels
import layers
import tracer as tracing
from tracer import Tracer


def _call_outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the outcome under test is the exception
        return type(exc), str(exc)


def _singular():
    return srgo.exactla.fmat([[1, 2], [2, 4]])


CASES = [
    ("solve", lambda: (srgo.exactla.solve, srgo.exactla.fmat([[2, 1], [1, 3]]),
                       np.array([Fraction(1), Fraction(2)], dtype=object))),
    ("singular inverse", lambda: (srgo.exactla.inverse, _singular())),
    ("unknown model", lambda: (srgo.models.load_model, "no_such_model")),
    ("polynomial eval", lambda: (srgo.poly_from_string("p1^2 + 3*p2", 2),
                                 [1.5, -2.0])),
    ("bad integration span", lambda: (
        srgo.integrate_vertical,
        srgo.Momentum(np.array([1.0, 0.0, 1.0, 0.0]),
                      srgo.load_model("heisenberg").structure),
        -1.0, 1e-3)),
]


@pytest.mark.parametrize("label,case", CASES, ids=[c[0] for c in CASES])
def test_wrapped_functions_return_and_raise_like_the_originals(label, case):
    fn, *args = case()
    expected = _call_outcome(fn, *args)
    with Tracer():
        fn_traced, *args_traced = case()  # looked up again, now wrapped
        assert fn_traced is not fn or label == "polynomial eval"
        got = _call_outcome(fn_traced, *args_traced)
    assert got[0] == expected[0]
    if expected[0] == "ok":
        assert np.all(np.asarray(got[1]) == np.asarray(expected[1]))
    else:
        assert got[1] == expected[1]


def test_self_times_add_up_to_each_op(tmp_path):
    tr = Tracer(layers.OBSERVERS)
    with tr:
        tr.run_op("validate", srgo.cli.main,
                  ["validate", "--model", "cartan", "--out",
                   str(tmp_path / "v.json")])
        tr.run_op("go", srgo.cli.main,
                  ["go", "--model", "heisenberg", "--samples", "20",
                   "--out", str(tmp_path / "g.json")])
        tr.run_op("census", srgo.invariant_polynomials,
                  srgo.load_model("cartan").structure, 3)
    ops = tr.ops()
    assert [s.op for s in ops] == ["validate", "go", "census"]
    for op in ops:
        assert sum(tr.self_ns_by_name(op.op).values()) == op.dur_ns
        assert all(s.self_ns >= 0 for s in tr.spans)
    assert tr.counters["exactla.rref"][0] > 0
    assert tr.calls("homogeneity.check_homogeneous") == 20


def test_every_wrapped_name_resolves_to_the_wrapper_at_each_site():
    names = tracing.traced_names()
    for must in ("kernels.vertical_rk4", "go.go_verdict",
                 "homogeneity.scan_homogeneous", "exactla.rref",
                 "poly.Polynomial.__call__", "cli.cmd_go"):
        assert must in names
    sites = {name: tracing.binding_sites(name) for name in names}
    originals = {(id(ns), key): getattr(ns, key)
                 for found in sites.values() for ns, key in found}
    tr = Tracer()
    with tr:
        for name, found in sites.items():
            assert found, name
            for ns, key in found:
                assert getattr(ns, key).__wrapped_by_tracer__ is tr, (name, key)
        assert srgo.integrate.vertical_rk4 is srgo.kernels.vertical_rk4
        assert srgo.cli.go_verdict is srgo.go.go_verdict
        assert srgo.go.scan_homogeneous.__wrapped_by_tracer__ is tr
        assert srgo.check_homogeneous.__wrapped_by_tracer__ is tr
    for (ns_id, key), original in originals.items():
        ns = next(ns for found in sites.values() for ns, k in found
                  if id(ns) == ns_id and k == key)
        assert getattr(ns, key) is original


def test_nested_counted_calls_count_once_toward_the_span():
    tr = Tracer()
    with tr:
        tr.run_op("rank", srgo.exactla.rank, _singular())
    (op,) = tr.ops()
    assert set(op.counted) == {"exactla.rank"}
    assert tr.counters["exactla.rref"][0] == 1
    assert op.self_ns + op.counted["exactla.rank"][1] == op.dur_ns
