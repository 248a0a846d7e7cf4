"""Multivariate polynomials on the dual of a Lie algebra.

Coefficients are exact and held as ``exactla`` holds its values: an int
when integral, a ``Fraction`` otherwise, normalised when a polynomial is
built, so that the common integral case runs in int arithmetic. Division
is the one operation that goes through ``Fraction``. Exponent
multi-indices are tuples of length ``nvars``. Used for Casimirs, invariant
bases and their brackets with H, all of which need exact zero tests.
"""

import ast
from fractions import Fraction

import numpy as np

from .exactla import _int_or_fraction


class Polynomial:
    """Sparse polynomial in variables p1..pn (0-indexed internally)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = _int_or_fraction(c)
                if c:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def coordinate(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): 1})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Polynomial(self.nvars, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _int_or_fraction(other)
            return Polynomial(self.nvars, {m: v * c for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(int(k)):
            out = out * self
        return out

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Polynomial.constant(self.nvars, other)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return self.is_zero() and Fraction(other) == 0
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def diff(self, i):
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            m2 = list(m)
            m2[i] -= 1
            out[tuple(m2)] = c * m[i]
        return Polynomial(self.nvars, out)

    def __call__(self, p):
        """Float value at p, or at every point of an array (..., nvars).

        Powers of each variable are built once per call by repeated
        multiplication and shared by all terms; a single point gives a
        float, an array of points an array of shape p.shape[:-1].
        """
        p = np.asarray(p, dtype=float)
        cols = np.moveaxis(p, -1, 0)
        # (variable, exponent) -> values, up to each variable's top exponent.
        # A plain dict, not a recursive closure: a closure that calls itself
        # is a reference cycle, which would hold every power array until the
        # cyclic garbage collector next runs.
        powers = {}
        for i in range(self.nvars):
            for e in range(1, max((m[i] for m in self.terms), default=0) + 1):
                powers[i, e] = cols[i] if e == 1 else powers[i, e - 1] * cols[i]
        total = np.zeros(p.shape[:-1])
        for m, c in self.terms.items():
            v = float(c)
            for i, e in enumerate(m):
                if e:
                    v = v * powers[i, e]
            total += v
        return float(total) if p.ndim == 1 else total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(f"p{i + 1}")
                elif e > 1:
                    factors.append(f"p{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, lexicographic order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


def poly_from_string(text, nvars):
    """Parse expressions like ``"0.5*p3^2 + p1*p5 - p2*p4"``.

    Variables are p1..pn; '^' is accepted for powers, with a non-negative
    integer exponent; numeric literals are read exactly, as ints when
    integral and as fractions otherwise. Anything else, a text that is not
    a string or does not parse included, is a ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"a polynomial is a string, not {text!r}")
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed polynomial {text!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"unsupported syntax in polynomial: {text!r}")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            v = node.value
            return Polynomial.constant(
                nvars, v if type(v) is int else Fraction(str(v)))
        if isinstance(node, ast.Name):
            if not node.id.startswith("p"):
                raise ValueError(f"unknown symbol {node.id!r}")
            i = int(node.id[1:]) - 1
            if not 0 <= i < nvars:
                raise ValueError(f"variable {node.id!r} out of range")
            return Polynomial.coordinate(nvars, i)
        if isinstance(node, ast.UnaryOp):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if right.degree() > 0:
                    raise ValueError("division by non-constant")
                c = right.terms.get((0,) * nvars, 0)
                if not c:
                    raise ValueError("division by zero")
                return left * (Fraction(1) / c)
            if isinstance(node.op, ast.Pow):
                if right.degree() > 0:
                    raise ValueError("non-constant exponent")
                e = right.terms.get((0,) * nvars, 0)
                if type(e) is not int:
                    raise ValueError("non-integral exponent")
                return left ** e
        raise ValueError("unsupported expression")

    return ev(tree)
