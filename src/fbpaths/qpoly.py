"""Exact sparse Laurent polynomials in q with integer exponents.

Everything downstream (path weights, Gaussian polynomials, character sums)
is exact integer arithmetic.  The fermionic sums write their exponents as
quadratic forms over 4; characters._term divides each one by 4 and
raises if it does not divide, and the bijection verifiers do the same with
their prefactors, so no other code sees a fractional exponent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType


class QPoly:
    """Sparse Laurent polynomial over the integers.

    ``terms`` is a read-only view of the map exponent -> nonzero
    coefficient.  Instances are immutable: all arithmetic returns new
    objects, so a cached result can be shared, and equality is term-map
    equality (canonical form has no zero coefficients).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self._terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def _of(terms: dict[int, int]) -> QPoly:
        """Wrap, without copying, a term map that has no zero coefficient."""
        res = QPoly.__new__(QPoly)
        res._terms = terms
        return res

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(self._terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> QPoly:
        return QPoly()

    @staticmethod
    def one() -> QPoly:
        return QPoly({0: 1})

    @staticmethod
    def q_int(exp: int = 1, coeff: int = 1) -> QPoly:
        """coeff * q^exp."""
        return QPoly({exp: coeff})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def coeff(self, exp: int) -> int:
        """Coefficient of q^exp."""
        return self._terms.get(exp, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            other = QPoly({0: other})
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return QPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            other = QPoly({0: other})
        return self + (-other)

    def __mul__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            if other == 0:
                return QPoly()
            return QPoly._of({e: other * c for e, c in self._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return QPoly._of(out)

    __rmul__ = __mul__

    def shift(self, exp: int) -> QPoly:
        """Multiply by q^exp: add exp to every exponent."""
        return QPoly._of({e + exp: c for e, c in self._terms.items()})

    def invert_q(self) -> QPoly:
        """Substitute q -> 1/q (negate every exponent)."""
        return QPoly._of({-e: c for e, c in self._terms.items()})

    def truncate(self, max_degree: int) -> QPoly:
        """Drop every term of degree above max_degree."""
        return QPoly._of({e: c for e, c in self._terms.items() if e <= max_degree})

    # -- display / serialization -------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                bits.append(str(c))
                continue
            pw = "q" if e == 1 else f"q^{e}"
            if c == 1:
                bits.append(pw)
            elif c == -1:
                bits.append(f"-{pw}")
            else:
                bits.append(f"{c}*{pw}")
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def to_json_dict(self) -> dict[str, str]:
        """JSON form: {"exponent": "coefficient"}, ascending."""
        return {str(e): str(c) for e, c in sorted(self._terms.items())}


# -- exact division ----------------------------------------------------------

def div_exact(num: QPoly, den: QPoly) -> QPoly:
    """Exact Laurent division; raises ValueError if den does not divide num.

    Works from the lowest exponent upward, so the denominator only needs an
    invertible-looking lowest coefficient step by step (each step must divide
    exactly over the integers).
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return QPoly()
    nv = num.min_exp()
    dv = den.min_exp()
    d = {e - dv: c for e, c in den._terms.items()}
    dmax = max(d)
    rem = {e - nv: c for e, c in num._terms.items()}
    top = max(rem)
    lead = d[0]
    quot: dict[int, int] = {}
    while rem:
        k = min(rem)
        if k > top - dmax:
            raise ValueError("inexact polynomial division")
        c = rem[k]
        if c % lead:
            raise ValueError("inexact polynomial division")
        f = c // lead
        quot[k] = f
        for de, dc in d.items():
            e = k + de
            s = rem.get(e, 0) - f * dc
            if s:
                rem[e] = s
            elif e in rem:
                del rem[e]
    return QPoly(quot).shift(nv - dv)


# -- Gaussian polynomials ----------------------------------------------------

def _gaussian_coeffs(a: int, k: int) -> list[int]:
    """Coefficients of [a over k] for 0 <= k <= a, ascending from q^0.

    Builds prod_{i=1..k} (1 - q^{a-k+i}) / (1 - q^i) on one int list.  After
    factor i the list holds [a-k+i over i], so every division is exact: one
    multiply by (1 - q^m) followed by one stride-i running sum.
    """
    k = min(k, a - k)
    c = [1] + [0] * (k * (a - k) + k)
    deg = 0
    for i in range(1, k + 1):
        m = a - k + i
        top = deg + m
        # times (1 - q^m): c[d] -= c[d-m], reading the old values
        c[m:top + 1] = [x - y for x, y in zip(c[m:top + 1], c[:deg + 1])]
        # divided by (1 - q^i): running sum along each residue class mod i
        for r in range(i):
            c[r:top + 1:i] = accumulate(c[r:top + 1:i])
        deg = top - i
    del c[deg + 1:]
    return c


@lru_cache(maxsize=4096)
def gaussian(a: int, b: int) -> QPoly:
    """Classical Gaussian polynomial [a over b]: (q)_a / ((q)_{a-b} (q)_b).

    Zero unless 0 <= b <= a; always a polynomial with integer exponents and
    positive coefficients from q^0 to q^{b(a-b)}, stored in ascending order.
    """
    if not 0 <= b <= a:
        return QPoly.zero()
    return QPoly._of(dict(enumerate(_gaussian_coeffs(a, b))))


@lru_cache(maxsize=4096)
def gaussian_modified(a: int, b: int) -> QPoly:
    """Modified Gaussian polynomial [a over b]': (q^{a-b+1})_b / (q)_b for b >= 0.

    Agrees with gaussian(a, b) except when a < 0 <= b, where the literal
    product can survive: by the inversion law it is
    (-1)^b q^{b(2a-b+1)/2} [b-a-1 over b], so [-1 over 0]' = 1, and for
    a <= -2 the value is a genuine Laurent polynomial.
    """
    if a >= 0 or b < 0:
        return gaussian(a, b)
    sign = -1 if b % 2 else 1
    low = b * (2 * a - b + 1) // 2
    return QPoly._of({e: sign * c for e, c in enumerate(_gaussian_coeffs(b - a - 1, b), low)})


def pack(coeffs, width: int) -> int:
    """Non-negative coefficients, low first, packed width bytes each into an int."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def guard_width(bound: int) -> int:
    """The fewest bytes a coefficient that keep a guard bit above `bound`:
    bound < X/2 for X = 2^(8 width).

    A packing is the polynomial's value at q = X.  If every coefficient of
    two polynomials has |c| <= bound, each digit of the difference of their
    packings lies in (-X, X), and a sum of such digits times powers of X is
    0 only when every digit is (the lowest nonzero one would be divisible by
    X).  So at this width two packings, signed ones too, are equal exactly
    when the polynomials are.
    """
    return bound.bit_length() // 8 + 1


def unpack_poly(packed: int, width: int, low: int = 0) -> QPoly:
    """The polynomial whose coefficients, from q^low up, are packed width
    bytes each into a non-negative int: the inverse of pack, zeros dropped."""
    raw = packed.to_bytes(width * -(-packed.bit_length() // (8 * width)), "little")
    coeffs = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    return QPoly._of({e: c for e, c in enumerate(coeffs, low) if c})
