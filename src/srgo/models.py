"""Bundled model registry and the JSON model-file format.

Each model packages a Lie algebra with an isotropy/complement splitting,
a distribution with its metric, optional grading and matrix
representation, conserved polynomials for drift diagnostics, and known
facts that the analysis commands can replay.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import HomogeneousSRStructure, LieAlgebra, Subspace
from .poly import poly_from_string


# Top-level keys of a model file; load_model_file rejects any other key.
MODEL_FILE_KEYS = frozenset({
    "name", "dim", "labels", "constants", "k_basis", "m_basis",
    "delta_basis", "metric", "grading", "representation", "casimirs",
    "facts", "notes", "isotropy_exact", "isotropy_connected", "kappa",
})


@dataclass
class ModelSpec:
    name: str
    structure: HomogeneousSRStructure
    casimir_exprs: dict = field(default_factory=dict)  # name -> string on g*
    known_facts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def casimirs(self):
        """name -> Polynomial on g*, parsed from ``casimir_exprs``."""
        n = self.structure.dim
        return {key: poly_from_string(e, n)
                for key, e in self.casimir_exprs.items()}

    def to_dict(self):
        """Serialize to the JSON model-file schema (1-based indices)."""
        s = self.structure
        g = s.algebra
        n = g.dim
        constants = [
            [i + 1, j + 1, k + 1, c.numerator, c.denominator]
            for i, j, k, c in g.coo
            if i < j
        ]

        def rows(space):
            return [[str(x) for x in space.basis[:, a]] for a in range(space.dim)]

        out = {
            "name": self.name,
            "dim": n,
            "labels": list(g.labels),
            "constants": constants,
            "k_basis": rows(s.k),
            "m_basis": rows(s.m),
            "delta_basis": rows(s.delta),
            "metric": [[str(x) for x in row] for row in s.metric],
            "isotropy_exact": s.isotropy_exact,
            "isotropy_connected": s.isotropy_connected,
            "kappa": s.kappa,
            "notes": list(self.notes),
        }
        if s.grading is not None:
            out["grading"] = [rows(layer) for layer in s.grading]
        if s.representation is not None:
            out["representation"] = [m.tolist() for m in s.representation]
        if self.casimir_exprs:
            out["casimirs"] = dict(self.casimir_exprs)
        if self.known_facts:
            out["facts"] = self.known_facts
        return out

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _structure(algebra, k_rows, m_rows, delta_rows, metric, **kw):
    n = algebra.dim
    return HomogeneousSRStructure(
        algebra,
        Subspace.from_vectors(n, [[Fraction(x) for x in r] for r in k_rows]),
        Subspace.from_vectors(n, [[Fraction(x) for x in r] for r in m_rows]),
        Subspace.from_vectors(n, [[Fraction(x) for x in r] for r in delta_rows]),
        [[Fraction(x) for x in row] for row in metric],
        **kw,
    )


_SO3_L = [
    [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
]
_ROT2 = [[0, -1], [1, 0]]


def _block_diag(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _span(n, rows):
    return Subspace.from_vectors(n, [[Fraction(x) for x in r] for r in rows])


def _heisenberg():
    # Basis e1, e2, e3, J: the rank-2 step-2 nilpotent part with one
    # rotational isotropy direction.
    g = LieAlgebra.from_brackets(
        4,
        {(0, 1): {2: 1}, (3, 0): {1: 1}, (3, 1): {0: -1}},
        labels=["e1", "e2", "e3", "J"],
    )
    e = np.eye(4)
    rep = [
        np.outer(e[0], e[3]) + 0.5 * np.outer(e[2], e[1]),
        np.outer(e[1], e[3]) - 0.5 * np.outer(e[2], e[0]),
        np.outer(e[2], e[3]),
        np.outer(e[1], e[0]) - np.outer(e[0], e[1]),
    ]
    s = _structure(
        g,
        [[0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[1, 0], [0, 1]],
        grading=[_span(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
                 _span(4, [[0, 0, 1, 0]])],
        representation=rep,
    )
    exprs = {"C1": "p3", "C2": "p1^2 + p2^2 + 2*p3*p4"}
    facts = {
        "go": "affirmed",
        "scan_fraction_homogeneous": 1.0,
        "fixed_points": "the plane p3 = 0",
        "existence_route": "solvable",
        "closed_form_period": "2*pi for p0 = (1, 0, 1)",
    }
    return ModelSpec("heisenberg", s, exprs, known_facts=facts)


def _cartan():
    g = LieAlgebra.from_brackets(
        6,
        {
            (0, 1): {2: 1},
            (0, 2): {3: 1},
            (1, 2): {4: 1},
            (5, 0): {1: 1},
            (5, 1): {0: -1},
            (5, 3): {4: 1},
            (5, 4): {3: -1},
        },
        labels=["X1", "X2", "X3", "X4", "X5", "J"],
    )
    ident = np.eye(6, dtype=int).tolist()
    s = _structure(
        g,
        [ident[5]],
        ident[:5],
        ident[:2],
        [[1, 0], [0, 1]],
        grading=[_span(6, ident[:2]), _span(6, [ident[2]]),
                 _span(6, ident[3:5])],
    )
    exprs = {"C1": "1/2*p3^2 + p1*p5 - p2*p4", "C2": "p4", "C3": "p5"}
    facts = {
        "go": "refuted",
        "conserved_note": "C1..C3 generate the Casimirs of the step-3 "
        "nilpotent part; they are conserved by the vertical flow but are "
        "not Casimirs of the full algebra with the rotation J",
        "homogeneous_iff": "p4 = p5 = 0 (then the quotient dynamics is the "
        "rank-2 step-2 case)",
        "quotient_by_e4_e5": "heisenberg",
    }
    return ModelSpec("cartan", s, exprs, known_facts=facts)


def generate_free_step2(rank):
    """Free nilpotent rank-r step-2 structure V + Lambda^2 V with so(V).

    [x, y] = x wedge y on V; so(V) acts tautologically on V and by
    conjugation on the wedge part; the metric is the identity on V.
    """
    if not 2 <= rank <= 8:
        raise ValueError("rank must be between 2 and 8")
    r = rank
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    nw = len(pairs)
    n = r + 2 * nw
    widx = {p: r + i for i, p in enumerate(pairs)}
    aidx = {p: r + nw + i for i, p in enumerate(pairs)}
    skew = {}
    for (a, b) in pairs:
        m = np.zeros((r, r), dtype=int)
        m[b, a], m[a, b] = 1, -1
        skew[(a, b)] = m

    brackets = {}
    for (a, b) in pairs:
        brackets[(a, b)] = {widx[(a, b)]: 1}
        brackets[(aidx[(a, b)], a)] = {b: 1}
        brackets[(aidx[(a, b)], b)] = {a: -1}
    for pa in pairs:
        sa = skew[pa]
        # action on the wedge part: W -> [S, W] in the skew-matrix picture
        for pc in pairs:
            c, d = pc
            w = np.zeros((r, r), dtype=int)
            w[c, d], w[d, c] = 1, -1
            img = sa @ w - w @ sa
            comps = {
                widx[(x, y)]: int(img[x, y])
                for (x, y) in pairs
                if img[x, y]
            }
            if comps:
                brackets[(aidx[pa], widx[pc])] = comps
        # so(V) bracket via the matrix commutator
        for pb in pairs:
            if pb <= pa:
                continue
            comm = sa @ skew[pb] - skew[pb] @ sa
            comps = {
                aidx[(x, y)]: int(comm[y, x])
                for (x, y) in pairs
                if comm[y, x]
            }
            if comps:
                brackets[(aidx[pa], aidx[pb])] = comps

    labels = (
        [f"v{a + 1}" for a in range(r)]
        + [f"w{a + 1}{b + 1}" for (a, b) in pairs]
        + [f"A{a + 1}{b + 1}" for (a, b) in pairs]
    )
    g = LieAlgebra.from_brackets(n, brackets, labels)
    ident = np.eye(n, dtype=int).tolist()
    s = _structure(
        g,
        ident[r + nw:],
        ident[: r + nw],
        ident[:r],
        np.eye(r, dtype=int).tolist(),
        grading=[_span(n, ident[:r]), _span(n, ident[r: r + nw])],
    )
    wedge_sq = " + ".join(f"p{r + i + 1}^2" for i in range(nw))
    exprs = {"C1": wedge_sq}
    facts = {
        "go": "affirmed",
        "scan_fraction_homogeneous": 1.0,
        "step": 2,
        "vertical_splitting": "the V-part rotates under the wedge "
        "component, the wedge component is constant",
    }
    return ModelSpec(f"free_step2_rank{r}", s, exprs, known_facts=facts)


def _axisym_brackets(sign):
    # Basis f1, f2, u, f4; sign +1 compact, -1 noncompact.
    return {
        (0, 1): {2: sign, 3: sign},
        (3, 0): {1: 1},
        (3, 1): {0: -1},
    }


def _axisym_rep(sign):
    if sign > 0:
        base = [np.asarray(m, dtype=float) for m in _SO3_L]
    else:
        a1 = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
        a2 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        a3 = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
        base = [a1, a2, sign * a3]  # [a1, a2] = -a3
    z = np.zeros((2, 2))
    rot = np.asarray(_ROT2, dtype=float)
    d = base[0].shape[0]
    zb = np.zeros((d, d))
    return [
        _block_diag(base[0], z),
        _block_diag(base[1], z),
        _block_diag(zb, -rot),
        _block_diag(base[2] if sign > 0 else -base[2], rot),
    ]


def _axisym_model(name, sign, inertia):
    g = LieAlgebra.from_brackets(
        4, _axisym_brackets(sign), labels=["f1", "f2", "u", "f4"]
    )
    s = _structure(
        g,
        [[0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[inertia, 0], [0, inertia]],
        representation=_axisym_rep(sign),
        kappa=sign / inertia,
    )
    quad = "p1^2 + p2^2 + p3^2 + 2*p3*p4 + p4^2" if sign > 0 \
        else "p1^2 + p2^2 - p3^2 - 2*p3*p4 - p4^2"
    facts = {
        "go": "affirmed",
        "every_geodesic_homogeneous": True,
        "closed_form": "rotation of (p1, p2) by angle kappa * p3 * t",
    }
    return ModelSpec(name, s, {"C1": "p3", "C2": quad}, known_facts=facts)


def _so3_axisym():
    return _axisym_model("so3_axisym", 1, 2)


def _sl2_axisym():
    return _axisym_model("sl2_axisym", -1, 2)


def _so3_kp():
    spec = _axisym_model("so3_kp", 1, 1)
    spec.known_facts["existence_route"] = "eigenvector"
    return spec


def _sl2_kp():
    spec = _axisym_model("sl2_kp", -1, 1)
    spec.known_facts["existence_route"] = "eigenvector"
    return spec


def _so3_generic():
    g = LieAlgebra.from_brackets(
        3,
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        labels=["X1", "X2", "X3"],
    )
    ident = np.eye(3, dtype=int).tolist()
    s = _structure(
        g, [], ident, ident,
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        representation=[np.asarray(m, dtype=float) for m in _SO3_L],
        # The isotropy of the distinct-inertia metric is a discrete rotation
        # group, so the infinitesimal (k = 0) invariant tests are not
        # conclusive for the GO property.
        isotropy_connected=False,
    )
    exprs = {"C1": "p1^2 + p2^2 + p3^2"}
    facts = {
        "go": "evidence_only",
        "fixed_point_count": 6,
        "fixed_points": "the six points +-sqrt(I_i) along the dual axes",
    }
    return ModelSpec("so3_generic", s, exprs, known_facts=facts,
                     notes=["isotropy algebra is zero; residual discrete "
                            "symmetries are not captured by k"])


def _rolling_sphere():
    g = LieAlgebra.from_brackets(
        5,
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        labels=["V1", "V2", "V3", "E1", "E2"],
    )
    e = np.eye(6)
    rep = [
        _block_diag(_SO3_L[0], np.zeros((3, 3))),
        _block_diag(_SO3_L[1], np.zeros((3, 3))),
        _block_diag(_SO3_L[2], np.zeros((3, 3))),
        np.outer(e[3], e[5]),
        np.outer(e[4], e[5]),
    ]
    ident = np.eye(5, dtype=int).tolist()
    s = _structure(
        g,
        [],
        ident,
        [[0, -1, 0, 1, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
        np.eye(3, dtype=int).tolist(),
        representation=rep,
        # The exact isotropy subgroup of this structure is not pinned down;
        # k = 0 here, so all GO conclusions stay at the evidence level.
        isotropy_exact=False,
    )
    exprs = {"C1": "p1^2 + p2^2 + p3^2", "C2": "p4", "C3": "p5"}
    facts = {
        "go": "evidence_only_not_go",
        "fixed_points": "momenta with zero rotational part or with the "
        "rotational part aligned with the translational one",
        "isotropy_note": "declared isotropy is zero; the true isotropy "
        "subgroup is not fully determined",
    }
    return ModelSpec("rolling_sphere", s, exprs, known_facts=facts,
                     notes=["isotropy data incomplete by construction"])


def _biinvariant_compact():
    g = LieAlgebra.from_brackets(
        3,
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        labels=["X1", "X2", "X3"],
    )
    ident = np.eye(3, dtype=int).tolist()
    s = _structure(
        g, [], ident, ident,
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],  # minus the Killing form
        representation=[np.asarray(m, dtype=float) for m in _SO3_L],
    )
    exprs = {"C1": "p1^2 + p2^2 + p3^2"}
    facts = {
        "go": "affirmed",
        "vertical_field": "identically zero",
        "scan_fraction_homogeneous": 1.0,
    }
    return ModelSpec("biinvariant_compact", s, exprs, known_facts=facts)


_REGISTRY = {
    "heisenberg": _heisenberg,
    "cartan": _cartan,
    "so3_axisym": _so3_axisym,
    "sl2_axisym": _sl2_axisym,
    "so3_kp": _so3_kp,
    "sl2_kp": _sl2_kp,
    "so3_generic": _so3_generic,
    "rolling_sphere": _rolling_sphere,
    "biinvariant_compact": _biinvariant_compact,
}
for _r in range(2, 7):
    _REGISTRY[f"free_step2_rank{_r}"] = (
        lambda r=_r: generate_free_step2(r)
    )


def list_models():
    return sorted(_REGISTRY)


def load_model(name) -> ModelSpec:
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(list_models())}")
    return _REGISTRY[name]()


def load_model_file(path) -> ModelSpec:
    """Read a model from the JSON schema used by to_dict/save.

    Raises ValueError on a key outside the schema, on malformed isotropy
    flags, kappa or Casimir expressions, and on structure data that fails
    the exact checks.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a model file holds one JSON object")
    unknown = sorted(set(data) - MODEL_FILE_KEYS)
    if unknown:
        raise ValueError(f"unknown model-file keys: {', '.join(unknown)}")
    flags = {key: data.get(key, True)
             for key in ("isotropy_exact", "isotropy_connected")}
    if not all(isinstance(v, bool) for v in flags.values()):
        raise ValueError("isotropy_exact and isotropy_connected must be "
                         "true or false")
    kappa = data.get("kappa")
    if kappa is not None and (isinstance(kappa, bool)
                              or not isinstance(kappa, (int, float))):
        raise ValueError("kappa must be a number or null")
    n = int(data["dim"])
    entries = {}
    for i, j, k, num, den in data["constants"]:
        val = Fraction(int(num), int(den))
        entries[(i - 1, j - 1, k - 1)] = val
        entries[(j - 1, i - 1, k - 1)] = -val
    g = LieAlgebra(n, entries, data.get("labels"))
    rep = g.validate()
    if not rep.ok:
        raise ValueError(f"invalid structure constants: {rep}")

    def space(rows):
        return Subspace.from_vectors(
            n, [[Fraction(str(x)) for x in r] for r in rows]
        )

    grading = None
    if data.get("grading"):
        grading = [space(layer) for layer in data["grading"]]
    representation = data.get("representation")
    s = HomogeneousSRStructure(
        g,
        space(data["k_basis"]),
        space(data["m_basis"]),
        space(data["delta_basis"]),
        [[Fraction(str(x)) for x in row] for row in data["metric"]],
        grading=grading,
        representation=representation,
        kappa=kappa,
        **flags,
    )
    exprs = data.get("casimirs", {})
    for expr in exprs.values():
        poly_from_string(expr, n)  # a malformed expression fails here
    return ModelSpec(
        data.get("name", "user_model"), s, exprs,
        known_facts=data.get("facts", {}), notes=list(data.get("notes", [])),
    )
