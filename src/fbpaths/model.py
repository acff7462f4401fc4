"""The (p,p') band model and the continued-fraction / Takahashi data.

A model is a grid of p'-2 horizontal bands; band h sits between heights h
and h+1 and is odd exactly when floor(h p/p') != floor((h+1) p/p').  The
continued fraction of p'/p organizes the model into zones and produces the
Takahashi lengths, truncated Takahashi lengths and string lengths that the
fermionic character sums are written in.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from math import gcd


class Model(namedtuple("Model", "p pp")):
    """A (p, p') band model: 0 < p < p', gcd(p, p') = 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, p: int, pp: int):
        if not 0 < p < pp:
            raise ValueError(f"need 0 < p < p', got ({p}, {pp})")
        if gcd(p, pp) != 1:
            raise ValueError(f"p and p' must be coprime, got ({p}, {pp})")
        return tuple.__new__(cls, (p, pp))

    def floor_mult(self, a: int) -> int:
        """floor(a p / p')."""
        return a * self.p // self.pp

    def band_parities(self) -> tuple[int, ...]:
        """Parities of bands 1..p'-2 (index 0 is band 1)."""
        f = [a * self.p // self.pp for a in range(self.pp + 1)]
        return tuple(1 if f[h] != f[h + 1] else 0 for h in range(1, self.pp - 1))

    def is_interfacial(self, a: int) -> bool:
        """True when height a lies between an odd and an even band."""
        if not 2 <= a <= self.pp - 2:
            raise ValueError(f"interfacial predicate defined on 2..{self.pp - 2}, got {a}")
        return self.floor_mult(a + 1) == self.floor_mult(a - 1) + 1

    def interfacial_heights(self) -> tuple[int, ...]:
        return tuple(a for a in range(2, self.pp - 1) if self.is_interfacial(a))

    def delta(self, a: int, e: int) -> int:
        """Parity of the band holding a pre/post segment at height a, direction e.

        0 when floor((a + (-1)^e) p/p') = floor(a p/p'), else 1.
        """
        if e not in (0, 1):
            raise ValueError("e must be 0 or 1")
        return 0 if self.floor_mult(a + (-1) ** e) == self.floor_mult(a) else 1

    def dual(self) -> Model:
        """The (p'-p, p') model: every band parity flipped."""
        return Model(self.pp - self.p, self.pp)


class TakahashiData(namedtuple("TakahashiData", "p pp cf n t t_bounds ys zs kappa "
                                                "kappa_tilde ell T T_prime")):
    """Continued fraction of p'/p and everything built from it.

    cf = (c_0, ..., c_n) with c_n >= 2; n is the height, t = sum(cf) - 2 the
    rank.  t_bounds[k] = t_k = -1 + c_0 + ... + c_{k-1} for 0 <= k <= n+1.
    ys and zs hold y_k and z_k for k = -1..n+1 at index k + 1 (use y_of/z_of).
    kappa, kappa_tilde and ell are indexed 0..t; the Takahashi set T keeps
    kappa_0..kappa_{t-1}, and T' = {p' - s : s in T} mirrors it from the top
    (kappa_t lands in T').
    """

    __slots__ = ()

    def y_of(self, k: int) -> int:
        """y_k for -1 <= k <= n+1."""
        return self.ys[k + 1]

    def z_of(self, k: int) -> int:
        """z_k for -1 <= k <= n+1."""
        return self.zs[k + 1]

    def zone_of(self, j: int) -> int:
        """The unique k with t_k < j <= t_{k+1} (0 <= j <= t+1)."""
        if not 0 <= j <= self.t_bounds[self.n + 1]:
            raise ValueError(f"index {j} outside 0..{self.t_bounds[self.n + 1]}")
        return bisect_left(self.t_bounds, j) - 1  # t_bounds strictly increases

    def membership(self, a: int, prefer_t_prime: bool = False) -> tuple[str | None, int]:
        """Classify height a against the Takahashi sets.

        Returns ("T", sigma) with kappa_sigma = a, ("T'", sigma) with
        kappa_sigma = p' - a, or (None, -1).  When a lies in both (only
        possible for n = 0), T wins unless prefer_t_prime is set.
        """
        in_t = a in self.T
        in_tp = a in self.T_prime
        if in_t and in_tp and prefer_t_prime:
            in_t = False
        if in_t:
            return "T", self.kappa.index(a)
        if in_tp:
            return "T'", self.kappa.index(self.pp - a)
        return None, -1


def coprime_pairs(ppmax: int) -> list[tuple[int, int]]:
    """Every coprime (p, p') with 0 < p < p' and 3 <= p' <= ppmax, by p' then p."""
    return [(p, pp) for pp in range(3, ppmax + 1) for p in range(1, pp)
            if gcd(p, pp) == 1]


def continued_fraction_digits(p: int, pp: int) -> tuple[int, ...]:
    """Continued fraction (c_0, ..., c_n) of pp/p by Euclid; c_n >= 2, as the
    last quotient is a remainder above 1 (or p' at p = 1) divided by 1."""
    if gcd(p, pp) != 1 or not 0 < p < pp:
        raise ValueError(f"need coprime 0 < p < p', got ({p}, {pp})")
    cf = []
    a, b = pp, p
    while b:
        cf.append(a // b)
        a, b = b, a % b
    return tuple(cf)


@lru_cache(maxsize=1024)
def continued_fraction(p: int, pp: int) -> TakahashiData:
    """Build the full Takahashi data for the (p, p') model."""
    cf = continued_fraction_digits(p, pp)
    n = len(cf) - 1
    t = sum(cf) - 2
    t_bounds = tuple(-1 + sum(cf[:k]) for k in range(n + 2))

    y = [0, 1]  # y_{-1}, y_0
    z = [1, 0]
    for k in range(1, n + 2):
        y.append(cf[k - 1] * y[-1] + y[-2])
        z.append(cf[k - 1] * z[-1] + z[-2])

    kappa, kappa_t, ell = [], [], []
    for k in range(n + 1):  # zone k holds t_k < j <= t_{k+1}; j stops at t
        for i in range(1, min(t_bounds[k + 1], t) - t_bounds[k] + 1):
            kappa.append(y[k] + i * y[k + 1])
            kappa_t.append(z[k] + i * z[k + 1])
            ell.append(y[k] + (i - 1) * y[k + 1])

    T = frozenset(kappa[:t])
    T_prime = frozenset(pp - s for s in kappa[:t])

    data = TakahashiData(
        p=p, pp=pp, cf=cf, n=n, t=t, t_bounds=t_bounds,
        ys=tuple(y), zs=tuple(z),
        kappa=tuple(kappa), kappa_tilde=tuple(kappa_t), ell=tuple(ell),
        T=T, T_prime=T_prime,
    )
    if data.y_of(n + 1) != pp or data.z_of(n + 1) != p:
        raise RuntimeError(f"convergents of {cf} do not reproduce ({p}, {pp})")
    return data


def format_model_tables(p: int, pp: int) -> str:
    """Human-readable dump of the band strip and Takahashi tables."""
    model = Model(p, pp)
    tak = continued_fraction(p, pp)
    n, t = tak.n, tak.t
    lines = [f"(p, p') = ({p}, {pp})"]
    strip = "".join("#" if o else "." for o in model.band_parities())
    lines.append(f"bands 1..{pp - 2} (#=odd, .=even): {strip}")
    inter = model.interfacial_heights()
    lines.append("interfacial heights: " + (", ".join(map(str, inter)) if inter else "none"))
    lines.append(f"cf = ({', '.join(map(str, tak.cf))})")
    lines.append(f"n = {n}, t = {t}")
    tk = ", ".join(f"t_{k}={tak.t_bounds[k]}" for k in range(1, n + 2))
    lines.append(f"({tk})")
    lines.append("(y_-1,...,y_%d) = (%s)" % (n + 1, ", ".join(str(tak.y_of(k)) for k in range(-1, n + 2))))
    lines.append("(z_-1,...,z_%d) = (%s)" % (n + 1, ", ".join(str(tak.z_of(k)) for k in range(-1, n + 2))))
    lines.append("(kappa_0,...,kappa_%d) = (%s)" % (t - 1, ", ".join(map(str, tak.kappa[:t]))))
    lines.append("(l_1,...,l_%d) = (%s)" % (t, ", ".join(map(str, tak.ell[1:]))))
    lines.append("(kappatilde_0,...,kappatilde_%d) = (%s)" % (t - 1, ", ".join(map(str, tak.kappa_tilde[:t]))))
    lines.append("T  = {%s}" % ", ".join(map(str, sorted(tak.T))))
    lines.append("T' = {%s}" % ", ".join(map(str, sorted(tak.T_prime))))
    if n == 0:
        lines.append("note: n = 0, T and T' overlap; membership prefers T")
    return "\n".join(lines)
