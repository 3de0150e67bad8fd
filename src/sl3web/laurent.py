"""Laurent polynomials in one variable q with exact integer coefficients.

Everything downstream (brackets, graded dimensions) lives in Z[q, q^-1],
so this is a tiny dedicated implementation instead of pulling in a CAS:
a mapping exponent -> coefficient with no explicit zeros.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPoly:
    """Immutable Laurent polynomial with int coefficients.

    Internally a dict {exponent: coefficient} holding no zero entries.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        c: dict[int, int] = {}
        # a plain dict skips the Mapping ABC check, which is slow on the hot path
        if type(coeffs) is dict or isinstance(coeffs, Mapping):
            coeffs = coeffs.items()
        for e, a in coeffs:
            if a:
                e = int(e)
                total = c.get(e, 0) + int(a)
                if total:
                    c[e] = total
                else:
                    c.pop(e, None)
        self._c = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    # -- basic protocol -------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """Terms as (exponent, coefficient), highest exponent first."""
        return sorted(self._c.items(), reverse=True)  # exponents are distinct

    def coefficient(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        c = dict(self._c)
        for e, a in other._c.items():
            c[e] = c.get(e, 0) + a
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -a for e, a in self._c.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly({0: -other}))

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        c: dict[int, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by q^k (a grading shift)."""
        return LaurentPoly({e + k: a for e, a in self._c.items()})

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient."""
        if not self._c:
            raise ValueError("the zero polynomial has no degree")
        return max(self._c)

    @property
    def leading_coefficient(self) -> int:
        return self._c[self.degree]

    def bar(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        return LaurentPoly({-e: a for e, a in self._c.items()})

    def is_symmetric(self) -> bool:
        """Invariant under q -> q^-1."""
        return self.bar() == self

    def is_monic_of_degree(self, d: int) -> bool:
        return bool(self._c) and self.degree == d and self.leading_coefficient == 1

    def has_nonnegative_coefficients(self) -> bool:
        return all(a > 0 for a in self._c.values())

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, a in self.items():
            sign = "-" if a < 0 else "+"
            a = abs(a)
            if e == 0:
                body = str(a)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if a == 1 else f"{a}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)})"


def quantum_integer(n: int) -> LaurentPoly:
    """[n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 1:
        raise ValueError(f"quantum integer needs n >= 1, got {n}")
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})
