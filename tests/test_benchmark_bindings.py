"""Every name the benchmark's tracer wraps still resolves in srgo.

``perfbench/tracer.py`` wraps each public function of srgo's modules and a
fixed list of methods and private stages, by name. A stage renamed or
deleted in ``src`` would otherwise show first as a failed benchmark run.
The tracer's source text is run under a private module name: nothing is
imported from ``perfbench`` and no bytecode is written there.
"""

import pathlib
import types

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("_srgo_benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", tracer.traced_names())
def test_traced_name_resolves(name):
    # binding_sites raises for a missing module function; a method's site is
    # its class, so the attribute itself is checked too.
    sites = tracer.binding_sites(name)
    assert sites
    assert all(callable(getattr(owner, attr, None)) for owner, attr in sites)
