"""Geodesic-orbit analysis.

Three routes: exact bases of isotropy-invariant polynomials with the
Poisson-commutation test, the skew-symmetry obstruction for graded
nilpotent structures, and statistical scans. The commutation test first
solves exactly for a tangency witness, a Z(p) in k linear in p with
coad(dH(p) + Z(p))p = 0 on the annihilator of k: one sparse rational
system whose solution certifies vanishing brackets at every degree, and
whose inconsistency proves that no such linear Z exists. It is solved by
one presolve: its rows with one unknown are solved first, straight off the
forms below, each entry they fix is substituted into the other rows, and
only the rows left with an open entry are eliminated (none on any bundled
model with nontrivial k). Without a witness, enumeration of invariants up
to the degree cap decides. It works in m*-coordinates a (p = m_dual a)
throughout, on the structure's two forms there, which the homogeneity test
reads too: adot, the vertical field as dim m exact quadratics in a
(``m_field_exact``), and the k action on m (``m_action_exact``).
The invariants of each degree are the kernel of sparse derivation rows
built from the k action, taken by ``exactla.nullspace_sparse``, and on
the annihilator of k the bracket is {H, F} = sum_r dF/da_r * adot_r. The
tests keep the g-coordinate route, a Lie-Poisson bracket on g*, as the
oracle that gives the same polynomials. The witness also decides the
scan of ``go_verdict``: Z(p) = L p closes the homogeneity system of every
momentum on the annihilator, so every geodesic is homogeneous and the scan
is reported as implied, every sample homogeneous, with none drawn. Models
without a witness are scanned by ``homogeneity.scan_homogeneous``.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

import numpy as np

from . import exactla
from .algebra import Subspace, subspace_sum
from .exactla import _int_or_fraction
from .homogeneity import ScanSummary, scan_homogeneous
from .poly import Polynomial, monomials_of_degree

GO_AFFIRMED = "GO_affirmed_up_to_degree"
GO_REFUTED = "GO_refuted_with_witness"
GO_EVIDENCE = "evidence_only"


def _m_action_matrices(structure):
    """Exact matrices of ad z restricted to m, in the m-basis, per k-basis z:
    R_b[t, r] = c for each term (b, r, t, c) of ``m_action_exact``."""
    dm = structure.m.dim
    out = [exactla.fzeros(dm, dm) for _ in range(structure.k.dim)]
    for b, r, t, c in structure.m_action_exact:
        out[b][t, r] = c
    return out


@dataclass
class InvariantBasis:
    degree_cap: int
    polynomials: list
    by_degree: dict


def invariant_polynomials(structure, degree_cap) -> InvariantBasis:
    """Exact basis of infinitesimally K-invariant polynomials on m*.

    Per degree d the invariants are the kernel of the stacked derivations
    F -> p([z_j, d_pF]) in the monomial basis. Each derivation moves one
    exponent from a variable to another, so its rows have a few nonzeros
    each; they are built as sparse rows and their kernel is taken by
    ``exactla.nullspace_sparse``, which returns the canonical basis that
    the dense ``exactla.nullspace`` of the same matrix gives.
    """
    if degree_cap < 1:
        raise ValueError("degree_cap must be at least 1")
    dm = structure.m.dim
    # Per action j and variable i, the nonzeros (k, R_j[k, i]) of column i,
    # integral ones as ints (exactla's convention), so that the rows are
    # built in int arithmetic.
    actions = [[[(k, c) for k, c in enumerate(r[:, i]) if c] for i in range(dm)]
               for r in _m_action_matrices(structure)]
    by_degree = {}
    for d in range(1, degree_cap + 1):
        monos = monomials_of_degree(dm, d)
        if not actions:
            by_degree[d] = [Polynomial(dm, {m: 1}) for m in monos]
            continue
        index = {m: i for i, m in enumerate(monos)}
        rows = defaultdict(dict)  # j * #monos + out monomial -> {col: value}
        for col, mono in enumerate(monos):
            for j, r_cols in enumerate(actions):
                # D_j x^alpha = sum_i alpha_i (sum_k R[k,i] a_k) x^(alpha - e_i)
                for i, nz in enumerate(r_cols):
                    if mono[i] == 0:
                        continue
                    for k, c in nz:
                        out_mono = list(mono)
                        out_mono[i] -= 1
                        out_mono[k] += 1
                        row = rows[j * len(monos) + index[tuple(out_mono)]]
                        row[col] = row.get(col, 0) + mono[i] * c
        # Rows go in index order, action by action: on free_step2_rank5 at
        # degree 4 that is 0.5 s against 0.9 s in first-touch order.
        kernel = exactla.nullspace_sparse(
            (rows[key] for key in sorted(rows)), len(monos))
        by_degree[d] = [Polynomial(dm, {monos[i]: vec[i] for i in sorted(vec)})
                        for vec in kernel]
    flat = [p for d in sorted(by_degree) for p in by_degree[d]]
    return InvariantBasis(degree_cap, flat, by_degree)


def _compose_linear_exact(poly, mat):
    """Substitute variable i by the linear form given by column i of mat.

    Not on the ``go`` path: the tests use it to bracket invariants through
    g-coordinates, the oracle for ``_bracket_on_m``.
    """
    nvars_out = mat.shape[0]
    forms = []
    for i in range(poly.nvars):
        terms = {}
        for r in range(nvars_out):
            if mat[r, i]:
                mono = [0] * nvars_out
                mono[r] = 1
                terms[tuple(mono)] = mat[r, i]
        forms.append(Polynomial(nvars_out, terms))
    out = Polynomial.zero(nvars_out)
    for mono, c in poly.terms.items():
        term = Polynomial.constant(nvars_out, c)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * forms[i]
        out = out + term
    return out


def _m_dual_exact(structure):
    # A named stage only because perfbench/tracer.py traces it by this name.
    return structure.m_dual_exact


def _m_vertical_field(structure):
    """The vertical field on k-circ in m*-coordinates, as exact quadratics:
    the dim m polynomials adot_r in a of the structure's ``m_field_exact``."""
    dm = structure.m.dim
    adot = [{} for _ in range(dm)]
    for r, u, t, c in structure.m_field_exact:
        mono = [0] * dm
        mono[u] += 1
        mono[t] += 1
        adot[r][tuple(mono)] = c
    return [Polynomial(dm, terms) for terms in adot]


def _bracket_on_m(f, adot):
    """{H, F} on k-circ in m*-coordinates: sum_r dF/da_r * adot_r.

    ``adot`` is ``_m_vertical_field``; the result is the polynomial that
    bracketing F(m_basis^T p) with H on g* and setting p = m_dual a gives.
    It is summed term by term into one dict, with no derivative
    polynomials built: each term c1 a^m1 of F with exponent e > 0 at r
    and each term c2 a^m2 of adot_r add c1 e c2 at a^(m1 - e_r + m2), in
    int arithmetic wherever the coefficients are integral.
    """
    adot_terms = [list(a.terms.items()) for a in adot]
    out = defaultdict(int)
    for m1, c1 in f.terms.items():
        for r, e in enumerate(m1):
            if not e or not adot_terms[r]:
                continue
            base = list(m1)
            base[r] -= 1
            ce = c1 * e
            for m2, c2 in adot_terms[r]:
                out[tuple(map(add, base, m2))] += ce * c2
    return Polynomial(f.nvars, out)


def _tangency_witness(structure):
    """Exact linear witness L with coad(dH(p))p = -coad(Lp)p on k-circ.

    On k-circ write p = m_dual a and L p = W a. Paired with m_r, the
    identity is adot_r + sum_b (W a)_b p([Z_b, m_r]) = 0, a quadratic form
    in a whose coefficients are linear in W; matching the coefficient of
    each a_u a_t (u <= t) to zero gives one sparse rational system in the
    dk * dm entries of W, read off the structure's ``m_field_exact`` and
    ``m_action_exact``. Paired with Z_c the identity holds for every W:
    p([Z(p), Z_c]) = 0 as [k, k] lies in k, and p([dH(p), Z_c]) = 0 as H is
    k-invariant (the structure checks it). So these rows span the rows of
    every pairing with a basis of g, and their canonical solution is that
    system's.

    The system is presolved: the rows with one unknown are solved first
    (``_witness_pins``), and two of them that fix one entry to different
    values prove it inconsistent. A pinned entry has that value in every
    solution, so its column lies outside the span of the other columns:
    each pinned W[b, q] moves to the right-hand side of every row it
    touches, a row left with no open entry must then read 0, and the rows
    that keep an open entry go to ``exactla.solve_sparse``. Their pivots
    and canonical solution (free entries 0) are those of the whole system,
    so writing the pins into that solution gives its canonical W.
    Returns L = W m_basis^T, or None when the system is inconsistent: then
    no Z(p) in k linear in p closes the identity. With trivial k it returns
    None without solving.
    """
    s = structure
    dk, dm = s.k.dim, s.m.dim
    if dk == 0:
        return None
    pins = _witness_pins(s)
    if pins is None:
        return None
    # b -> [(q, W[b, q])] over its open entries (None) and nonzero pins
    w_rows = [[(q, pins.get(b * dm + q)) for q in range(dm)
               if pins.get(b * dm + q, 1)] for b in range(dk)]
    # Row (r, u, t), u <= t, sets the coefficient of a_u a_t in
    # adot_r + sum_b (W a)_b p([Z_b, m_r]) to zero. No (b, r, t) repeats,
    # so each open entry of a row gets one coefficient.
    rows = defaultdict(lambda: [{}, 0])  # key -> [{open col: .}, rhs]
    for r, u, t, c in s.m_field_exact:
        rows[r, u, t][1] = -c
    for b, r, t, g in s.m_action_exact:  # g a_t in p([Z_b, m_r])
        for q, v in w_rows[b]:  # W[b, q] a_q * g a_t
            row = rows[r, min(q, t), max(q, t)]
            if v is None:
                row[0][b * dm + q] = g
            else:
                row[1] -= g * v
    if any(rhs for coeffs, rhs in rows.values() if not coeffs):
        return None
    sol = exactla.solve_sparse(
        (rows[key] for key in sorted(rows) if rows[key][0]), dk * dm)
    if sol is None:
        return None
    sol[list(pins)] = list(pins.values())
    return exactla.matmul(sol.reshape(dk, dm), s.m.basis.T)


def _witness_pins(structure):
    """The entries of W that the witness rows with one unknown fix, as
    {b * dm + u: W[b, u]}, or None when two of them fix one entry to
    different values.

    Let L_rt list the (b, g) of the terms (b, r, t, g) of
    ``m_action_exact``. Row (r, u, t) holds L_rt at the columns b * dm + u
    and, when u != t, L_ru at the columns b * dm + t: the two groups hit
    different columns and no (b, r, t) repeats, so the row has |L_rt| +
    |L_ru| entries, none cancelled. With L_rt = [(b, g)] and u = t or L_ru
    empty it reads g W[b, u] = -c, c the coefficient of a_u a_t in adot_r
    (0 without a term). So each one-term group visits t and the u of r that
    no group holds, listed once per r. The quotient is an int wherever it
    divides exactly.
    """
    s = structure
    dm = s.m.dim
    groups = defaultdict(list)  # (r, t) -> L_rt
    held = defaultdict(set)  # r -> {t : L_rt nonempty}
    for b, r, t, g in s.m_action_exact:
        groups[r, t].append((b, g))
        held[r].add(t)
    open_u = {r: [u for u in range(dm) if u not in ts]
              for r, ts in held.items()}
    field_c = defaultdict(dict)  # r -> {(u, t): c}, u <= t
    for r, u, t, c in s.m_field_exact:
        field_c[r][u, t] = c
    pins = {}
    for (r, t), l_rt in groups.items():
        if len(l_rt) != 1:
            continue
        (b, g), = l_rt
        c_r = field_c[r]
        for u in (t, *open_u[r]):
            c = c_r.get((u, t) if u <= t else (t, u), 0)
            if not c:
                v = 0
            elif type(c) is int and type(g) is int and not c % g:
                v = -c // g
            else:
                v = _int_or_fraction(Fraction(-c, g))
            if pins.setdefault(b * dm + u, v) != v:
                return None
    return pins


def _verify_witness(structure, l_exact):
    """Exact check of the quadratic identity behind the tangency witness.

    It contracts the constants in g-coordinates, paired with every e_j, so
    it checks the witness's m-rows independently of them; it is not run on
    the ``go`` path, and is the oracle the tests use.
    """
    s = structure
    g = s.algebra
    n, dk, dm = s.dim, s.k.dim, s.m.dim
    mdual = _m_dual_exact(s)
    by_j = [[] for _ in range(n)]  # j -> [(i, k, c[i, j, k])]
    for i, j, k, c in g.coo:
        by_j[j].append((i, k, c))
    d_rows = exactla.row_nonzeros(s.dmat_exact)  # i -> [(r, Dmat[i, r])]
    z_rows = exactla.row_nonzeros(s.k.basis)  # i -> [(a, Z_a[i])]
    l_rows = exactla.row_nonzeros(l_exact)  # a -> [(q, L[a, q])]
    for j in range(n):
        # v_j(p) = p^T (Dmat^T C[:, j, :]) p ; witness side from L
        mj = exactla.fzeros(n, n)
        ga = [{} for _ in range(dk)]  # p([Z_a, e_j]) coefficients in p_k
        for i, k, c in by_j[j]:
            for r, d in d_rows[i]:
                mj[r, k] += d * c
            for a, zi in z_rows[i]:
                ga[a][k] = ga[a][k] + zi * c if k in ga[a] else zi * c
        for a in range(dk):
            for q, lq in l_rows[a]:
                for k, gk in ga[a].items():
                    if gk:
                        mj[q, k] += lq * gk
        red = exactla.matmul(exactla.matmul(mdual.T, mj), mdual)
        for r in range(dm):
            for k2 in range(r, dm):
                if red[r, k2] + red[k2, r] != 0:
                    return False
    return True


@dataclass
class BracketReport:
    all_vanish: bool
    degree_cap: int
    certified_all_degrees: bool
    nonzero: list = field(default_factory=list)  # (invariant, bracket) reprs
    witness: np.ndarray | None = None

    def to_dict(self):
        return {
            "all_vanish": self.all_vanish,
            "degree_cap": self.degree_cap,
            "certified_all_degrees": self.certified_all_degrees,
            "nonzero_brackets": [
                {"invariant": f, "bracket": b} for f, b in self.nonzero
            ],
        }


def go_test_bracket(structure, degree_cap=4) -> BracketReport:
    """Poisson commutation of H with the invariant algebra, exact.

    A linear tangency witness certifies {H, F} = 0 for every invariant
    polynomial of every degree; when none exists, invariants up to the cap
    are enumerated and bracketed one by one.
    """
    if degree_cap < 2:
        raise ValueError("degree_cap must be at least 2")
    witness = _tangency_witness(structure)
    if witness is not None:
        return BracketReport(True, degree_cap, True, witness=witness)
    basis = invariant_polynomials(structure, degree_cap)
    adot = _m_vertical_field(structure)
    nonzero = []
    for f in basis.polynomials:
        restricted = _bracket_on_m(f, adot)
        if not restricted.is_zero():
            nonzero.append((repr(f), repr(restricted)))
    return BracketReport(not nonzero, degree_cap, False, nonzero)


@dataclass
class SkewReport:
    max_asymmetry: float
    is_skew: bool
    failing_direction: np.ndarray | None
    step_conclusion: str

    def to_dict(self):
        return {
            "max_asymmetry": self.max_asymmetry,
            "is_skew": self.is_skew,
            "failing_direction": None
            if self.failing_direction is None
            else [float(x) for x in self.failing_direction],
            "step_conclusion": self.step_conclusion,
            "extension": "identity extension on the graded complement",
        }


def carnot_skew_test(structure) -> SkewReport:
    """Skew-symmetry of the projected adjoint operators on the complement.

    The complement delta-perp is the sum of the grading layers after the
    first. For each delta-basis X the operator (projection onto delta-perp)
    o ad X restricted to delta-perp must be skew for a geodesic-orbit
    structure; for graded structures a failure refutes the GO property.
    The layers satisfy [V_1, V_i] = V_(i+1), so every [X, Y] with Y in
    delta-perp lies in delta-perp already, and delta-perp's basis is its
    canonical form: coordinate j of the bracket is its entry at pivot row
    p_j, read off the nonzeros with no solve.
    """
    s = structure
    if s.grading is None:
        raise ValueError("the skew test needs a graded structure")
    delta_perp = subspace_sum(s.dim, s.grading[1:])
    coord = {p: j for j, (p, _) in enumerate(delta_perp._pivot_columns)}
    ops = [{} for _ in range(s.delta.dim)]  # a -> {(j, b): [X_a, Y_b]_j}
    for (a, b), vec in s.algebra.brackets(s.delta.basis,
                                          delta_perp.basis).items():
        ops[a].update(((coord[k], b), v) for k, v in vec.items() if k in coord)
    worst = 0.0
    failing = None
    failing_asym = 0.0
    all_zero = True
    for a, op in enumerate(ops):
        # Skewness is decided on the exact coordinates; the float asymmetry
        # max |M + M^T|, summed as the dense float matrix would be, is
        # reported and picks the worst failing direction.
        asym = max((abs(float(x) + float(op.get((b, j), 0)))
                    for (j, b), x in op.items()), default=0.0)
        all_zero = all_zero and not any(map(float, op.values()))
        worst = max(worst, asym)
        skew = all(x + op.get((b, j), 0) == 0 for (j, b), x in op.items())
        if not skew and (failing is None or asym > failing_asym):
            failing = np.asarray(s.delta.basis[:, a], dtype=float)
            failing_asym = asym
    is_skew = failing is None
    if not is_skew:
        conclusion = "not geodesic orbit (projected ad X not skew)"
    elif all_zero:
        conclusion = "skew and nilpotent forces zero: step at most 2"
    else:
        conclusion = "skew holds"
    return SkewReport(worst, is_skew, failing, conclusion)


@dataclass
class GoVerdict:
    verdict: str
    degree_cap: int
    bracket: BracketReport
    skew: SkewReport | None
    scan: ScanSummary
    notes: list = field(default_factory=list)
    refutation_witness: dict | None = None

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "degree_cap": self.degree_cap,
            "bracket": self.bracket.to_dict(),
            "skew": None if self.skew is None else self.skew.to_dict(),
            "scan": self.scan.to_dict(),
            "notes": self.notes,
            "refutation_witness": self.refutation_witness,
        }


def go_verdict(structure, degree_cap=4, samples=1000, seed=0) -> GoVerdict:
    """Combine the commutation test, the skew obstruction and a scan.

    A tangency witness implies the scan: all ``samples`` homogeneous, none
    refuted, no momentum drawn.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    bracket = go_test_bracket(structure, degree_cap)
    skew = None if structure.grading is None else carnot_skew_test(structure)
    if bracket.witness is None:
        scan = scan_homogeneous(structure, samples, seed)
    else:  # coad(dH(p) + Lp)p = 0 holds exactly for every p on k-circ
        scan = ScanSummary(samples, samples, 0, 0, seed, [])
    notes = []
    exact_isotropy = structure.isotropy_exact
    connected = structure.isotropy_connected
    if not exact_isotropy:
        notes.append("isotropy data marked incomplete; verdict is evidence only")
    if not connected:
        notes.append("isotropy group has extra components; "
                     "infinitesimal invariants are not conclusive")

    if skew is not None and not skew.is_skew and exact_isotropy:
        witness = {
            "skew_failure_direction": [float(v) for v in skew.failing_direction],
            "counterexample_momenta": [
                [float(v) for v in p] for p in scan.counterexamples[:3]
            ],
        }
        return GoVerdict(GO_REFUTED, degree_cap, bracket, skew, scan, notes, witness)
    if not bracket.all_vanish and exact_isotropy and connected:
        witness = {
            "noncommuting_invariant": bracket.nonzero[0][0],
            "counterexample_momenta": [
                [float(v) for v in p] for p in scan.counterexamples[:3]
            ],
        }
        return GoVerdict(GO_REFUTED, degree_cap, bracket, skew, scan, notes, witness)
    if bracket.all_vanish and exact_isotropy and connected:
        if bracket.certified_all_degrees:
            notes.append("commutation certified at all degrees via tangency witness")
        return GoVerdict(GO_AFFIRMED, degree_cap, bracket, skew, scan, notes)
    return GoVerdict(GO_EVIDENCE, degree_cap, bracket, skew, scan, notes)
