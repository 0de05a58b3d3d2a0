"""Bivariate polynomials in X, Y with coefficients in the lambda field."""
from __future__ import annotations

from dataclasses import dataclass

from .qlambda import Scalar


@dataclass(frozen=True)
class BivariatePoly:
    """Finitely supported (x-exponent, y-exponent) -> nonzero Scalar."""

    terms: tuple[tuple[tuple[int, int], Scalar], ...]

    def __post_init__(self):
        merged: dict[tuple[int, int], Scalar] = {}
        for (i, j), c in self.terms:
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            c = Scalar.of(c)
            if (i, j) in merged:
                c = merged[(i, j)] + c
            merged[(i, j)] = c
        items = tuple(sorted((k, c) for k, c in merged.items() if c))
        object.__setattr__(self, "terms", items)

    @classmethod
    def from_dict(cls, d) -> "BivariatePoly":
        return cls(tuple(d.items()))

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls(())

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivariatePoly":
        return cls((((i, j), Scalar.of(c)),))

    def as_dict(self):
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        return BivariatePoly(self.terms + other.terms)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: dict[tuple[int, int], Scalar] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                prod = c1 * c2
                if key in out:
                    prod = out[key] + prod
                out[key] = prod
        return BivariatePoly.from_dict(out)

    def scale(self, c) -> "BivariatePoly":
        c = Scalar.of(c)
        return BivariatePoly(tuple((k, v * c) for k, v in self.terms))

    def total_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(i + j for (i, j), _ in self.terms)

    def is_homogeneous_of(self, d: int) -> bool:
        return all(i + j == d for (i, j), _ in self.terms)

    def is_scalar(self) -> bool:
        """Nonzero constant (a unit of the graded ring)."""
        return len(self.terms) == 1 and self.terms[0][0] == (0, 0)

    def specialize(self, value) -> "BivariatePoly":
        return BivariatePoly(tuple((k, c.specialize(value))
                                   for k, c in self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.terms:
            mono = ""
            for name, e in (("X", i), ("Y", j)):
                if e:
                    mono += name if e == 1 else f"{name}^{e}"
            parts.append(f"({_scalar_str(c)}){mono}")
        return " + ".join(parts)


def _scalar_str(c: Scalar) -> str:
    def side(p):
        if not p:
            return "0"
        bits = []
        for k, v in enumerate(p):
            if v:
                bits.append(str(v) if k == 0
                            else (f"{v}*L^{k}" if k > 1 else f"{v}*L"))
        return " + ".join(bits)

    if c.den == (1,):
        return side(c.num)
    return f"({side(c.num)})/({side(c.den)})"


X = BivariatePoly.monomial(1, 0)
Y = BivariatePoly.monomial(0, 1)
