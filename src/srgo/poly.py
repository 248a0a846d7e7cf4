"""Multivariate polynomials on the dual of a Lie algebra.

Coefficients are exact ``Fraction``s; exponent multi-indices are tuples of
length ``nvars``. Used for Casimirs, invariant bases and the Lie-Poisson
bracket, all of which need exact zero tests.
"""

import ast
from fractions import Fraction

import numpy as np


class Polynomial:
    """Sparse polynomial in variables p1..pn (0-indexed internally)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c != 0:
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
            s = out.get(m, Fraction(0)) + c
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
            c = Fraction(other)
            return Polynomial(self.nvars, {m: v * c for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, Fraction(0)) + c1 * c2
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
        powers = {}  # (variable, exponent) -> values

        def power(i, e):
            if (i, e) not in powers:
                powers[i, e] = cols[i] if e == 1 else power(i, e - 1) * cols[i]
            return powers[i, e]

        total = np.zeros(p.shape[:-1])
        for m, c in self.terms.items():
            v = float(c)
            for i, e in enumerate(m):
                if e:
                    v = v * power(i, e)
            total += v
        return float(total) if p.ndim == 1 else total

    def eval_exact(self, p):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= Fraction(p[i]) ** e
            total += v
        return total

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

    Variables are p1..pn; '^' is accepted for powers; numeric literals are
    read exactly as fractions.
    """
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"unsupported syntax in polynomial: {text!r}")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            return Polynomial.constant(nvars, Fraction(str(node.value)))
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
                return left * (Fraction(1) / right.terms[(0,) * nvars])
            if isinstance(node.op, ast.Pow):
                if right.degree() > 0:
                    raise ValueError("non-constant exponent")
                return left ** int(right.terms.get((0,) * nvars, 0))
        raise ValueError("unsupported expression")

    return ev(tree)
