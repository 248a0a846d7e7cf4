"""Spans and counters recorded around srgo's functions, from outside srgo.

``Tracer.install()`` replaces each traced function at every place where
srgo code looks it up (the defining module, every srgo module that imported
it by name, and the package namespace; methods on their class) and
``uninstall()`` puts the originals back. Coarse calls become spans (name,
start, end, parent, op); hot calls only bump an in-memory counter of calls
and time, so that tracing costs little where calls are many and cheap.

A span's self time is its duration minus the time covered by its child
spans and by the outermost counted calls made directly inside it, so the
self times of an op's spans plus its counted time add up to the op's span.
"""

import functools
import importlib
import inspect
import json
import time

# Modules whose functions are traced, in the order their layers nest.
MODULES = (
    "exactla", "poly", "algebra", "kernels", "hamiltonian", "integrate",
    "homogeneity", "go", "existence", "models", "cli",
)

# Hot calls: counted, never recorded as spans.
COUNTED = frozenset({
    "poly.Polynomial.__call__",
    "poly.Polynomial.__mul__",
    "algebra.LieAlgebra.bracket_exact",
    "hamiltonian.dH",
    "hamiltonian.hamiltonian_value",
    "hamiltonian.vertical_field",
    "hamiltonian.vertical_field_coords",
})

# Stage functions and methods traced besides every public module function.
EXTRA = (
    "poly.Polynomial.__call__",
    "poly.Polynomial.__mul__",
    "algebra.LieAlgebra.bracket_exact",
    "algebra.LieAlgebra.validate",
    "algebra.LieAlgebra.killing_form",
    "algebra.HomogeneousSRStructure.validate",
    "integrate.Trajectory.to_csv_text",
    "homogeneity._exact_feasible",
    "go._m_action_matrices",
    "go._tangency_witness",
    "go._verify_witness",
    "go._m_dual_exact",
    "go._compose_linear_exact",
    "existence._solvable_route",
    "existence._eigen_route",
    "existence._khat_extension",
    "cli._load",
    "cli._parse_p0",
    "cli._emit",
    "cli._phase_portrait_csv",
)


def _module(short):
    return importlib.import_module("srgo." + short)


def traced_names():
    """Every traced name, as ``<module>.<qualname>``."""
    names = []
    for short in MODULES:
        mod = _module(short)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names.append(f"{short}.{attr}")
    names.extend(EXTRA)
    return names


def is_counted(name):
    return name in COUNTED or name.startswith("exactla.")


def resolve(name):
    """(owner, attribute) holding ``name``: a module, or a class for methods."""
    short, *path = name.split(".")
    owner = _module(short)
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def binding_sites(name):
    """Every (namespace, attribute) through which srgo code reaches ``name``."""
    owner, attr = resolve(name)
    if inspect.isclass(owner):
        return [(owner, attr)]
    fn = vars(owner)[attr]
    spaces = [importlib.import_module("srgo")] + [_module(m) for m in MODULES]
    return [(ns, key) for ns in spaces for key, val in vars(ns).items()
            if val is fn]


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "child_ns",
                 "counted")

    def __init__(self, sid, parent, op, name, start):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.child_ns = 0
        self.counted = {}  # counter name -> [calls, ns], outermost calls only

    @property
    def dur_ns(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns


class Tracer:
    """Records spans and counters while installed; one client, one thread.

    ``observers`` maps a traced name to ``f(args, kwargs, result, nested)``
    returning ``{event: amount}``; ``nested`` is true when a call of the
    same name is already open. Events are summed in ``events``.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans = []
        self.counters = {}  # name -> [calls, inclusive ns]
        self.events = {}
        self.op = None
        self._stack = []
        self._counter_depth = 0
        self._patched = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn, args, kwargs):
        if self._counter_depth:
            return self.count(name, fn, args, kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, self.op,
                    name, 0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent.child_ns += span.dur_ns
        observe = self.observers.get(name)
        if observe is not None:
            nested = any(s.name == name for s in self._stack)
            self._add_events(observe(args, kwargs, result, nested))
        return result

    def count(self, name, fn, args, kwargs):
        self._counter_depth += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            self._counter_depth -= 1
            total = self.counters.setdefault(name, [0, 0])
            total[0] += 1
            total[1] += elapsed
            if not self._counter_depth and self._stack:
                span = self._stack[-1]
                span.child_ns += elapsed
                own = span.counted.setdefault(name, [0, 0])
                own[0] += 1
                own[1] += elapsed

    def run_op(self, label, fn, *args):
        """Run one benchmark op as a root span labelled ``label``."""
        self.op = label
        try:
            return self.span("op", fn, args, {})
        finally:
            self.op = None

    def _add_events(self, events):
        for key, amount in (events or {}).items():
            self.events[key] = self.events.get(key, 0) + amount

    # -- installation ----------------------------------------------------

    def wrapper(self, name, fn):
        record = self.count if is_counted(name) else self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs)

        traced.__wrapped_by_tracer__ = self
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name in traced_names():
            owner, attr = resolve(name)
            original = vars(owner)[attr]
            traced = self.wrapper(name, original)
            for ns, key in binding_sites(name):
                self._patched.append((ns, key, original))
                setattr(ns, key, traced)
        return self

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries ---------------------------------------------------------

    def ops(self):
        return [s for s in self.spans if s.name == "op"]

    def self_ns_by_name(self, op=None):
        """Self time per span name, plus counted time per counter name."""
        out = {}
        for s in self.spans:
            if op is not None and s.op != op:
                continue
            out[s.name] = out.get(s.name, 0) + s.self_ns
            for cname, (_, ns) in s.counted.items():
                out[cname] = out.get(cname, 0) + ns
        return out

    def total_ns(self, name):
        """Summed duration of the spans called ``name`` that sit inside no
        span of the same name."""
        by_id = {s.id: s for s in self.spans}
        return sum(s.dur_ns for s in self.spans
                   if s.name == name and not _has_ancestor(s, name, by_id))

    def calls(self, name):
        if name in self.counters:
            return self.counters[name][0]
        return sum(1 for s in self.spans if s.name == name)

    def has_child(self, op, parent_name, prefix):
        """True when, in op ``op``, a call whose name starts with ``prefix``
        ran inside a ``parent_name`` span (directly or deeper)."""
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            if s.op != op:
                continue
            hit = s.name.startswith(prefix) or any(
                c.startswith(prefix) for c in s.counted)
            if hit and (s.name == parent_name
                        or _has_ancestor(s, parent_name, by_id)):
                return True
        return False

    def dump(self, path, extra=None):
        """Write spans, counters and events as JSON (times in microseconds)."""
        payload = dict(extra or {})
        payload["spans"] = [
            {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
             "start_us": s.start / 1e3, "dur_us": s.dur_ns / 1e3,
             "self_us": s.self_ns / 1e3,
             "counted": {k: [c, ns / 1e3] for k, (c, ns) in s.counted.items()}}
            for s in self.spans
        ]
        payload["counters"] = {k: {"calls": c, "us": ns / 1e3}
                               for k, (c, ns) in sorted(self.counters.items())}
        payload["events"] = dict(sorted(self.events.items()))
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _has_ancestor(span, name, by_id):
    parent = span.parent
    while parent is not None:
        node = by_id[parent]
        if node.name == name:
            return True
        parent = node.parent
    return False
