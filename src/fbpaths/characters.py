"""Closed forms for the path generating functions.

Three independent routes to the same polynomial: the transfer-matrix
recurrence over the vertices (module paths), the alternating-sign double
sum with Gaussian factors, and two constant-sign quadratic-exponent sums
driven by the Takahashi data (one with classical Gaussians plus a
smaller-model tail, one with modified Gaussians and no tail): one walk and
one packed kernel, _packed_sum, give both, cached as a bounded pair.  The
classical form and the mn-system keep the walk's summands with all n_j >= 0;
only the forms compute a summand's exponent and Gaussians (_term).

Each sum is a list of terms (_bosonic_terms, _tail_terms, _split_terms)
read by two consumers: the public forms build a QPoly, and the identity
sweep packs every form at one width (_packed_bosonic, _packed_fermionic),
the bosonic sums as separate positive and negative parts, so that int
equality decides polynomial equality (qpoly.guard_width).  Each form's
bound on its coefficients comes from its own terms (_sum_bound, 2^L for a
bosonic part), never from another route.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, starmap
from math import comb, prod

from .model import Model, TakahashiData, continued_fraction
from .qpoly import QPoly, gaussian, guard_width, pack, unpack_poly


# -- alternating-sign (bosonic) form ------------------------------------------

def groundstate_label(p: int, pp: int, b: int, c: int) -> int:
    """r = floor(p c / p') + (b - c + 1)/2."""
    return p * c // pp + (b - c + 1) // 2


def _bosonic_terms(p: int, pp: int, a: int, b: int, c: int, L: int):
    """(exponent, k, sign) of each term sign * q^exponent [L over k] of the
    alternating double sum, the positive sum first; none when no path
    joins a to b.

    Every exponent is >= 0.  With c in 1..p'-1 and b - c = +-1, r lies in
    0..p.  The positive exponent is lam (lam p p' + p' r - p a): at lam >= 1
    the second factor is >= p p' - p (p' - 1) = p > 0, and at lam <= -1 it
    is <= -p p' + p p' - p = -p < 0.  The negative exponent is
    (lam p + r)(lam p' + a): at lam >= 0 both factors are >= 0, and at
    lam <= -1 both are <= 0, as lam p + r <= 0 and lam p' + a <= -1.  A
    packed sum shifts by the exponent, so RuntimeError guards this.
    """
    Model(p, pp)  # checks the model
    if not (1 <= a <= pp - 1 and 1 <= b <= pp - 1 and 1 <= c <= pp - 1):
        raise ValueError("heights a, b, c must lie in 1..p'-1")
    if abs(b - c) != 1:
        raise ValueError("need c = b +- 1")
    if L < 0 or (L + a - b) % 2:
        return
    r = groundstate_label(p, pp, b, c)
    base = (L + a - b) // 2
    # positive sum: Gaussian lower index base - p'*lam must lie in 0..L;
    # negative sum: lower index base - p'*lam - a in 0..L
    positive = ((lam * lam * p * pp + lam * (pp * r - p * a), base - pp * lam, 1)
                for lam in range(-((L - base) // pp), base // pp + 1))
    negative = (((lam * p + r) * (lam * pp + a), base - pp * lam - a, -1)
                for lam in range(-((L - base + a) // pp), (base - a) // pp + 1))
    for term in chain(positive, negative):
        if term[0] < 0:
            raise RuntimeError(f"bosonic term {term} of ({p},{pp}) has a negative exponent")
        yield term


def _bosonic_sum(terms, L: int) -> QPoly:
    """The sum over (exponent, k, sign) of sign * q^exponent [L over k]."""
    out: dict[int, int] = {}
    for ex, k, sign in terms:
        for e, coeff in gaussian(L, k).terms.items():
            out[e + ex] = out.get(e + ex, 0) + sign * coeff
    return QPoly(out)


def _packed_bosonic(terms, L: int, width: int) -> tuple[int, int]:
    """(positive, negative) parts of the sum over (exponent, k, sign) of
    sign * q^exponent [L over k], each packed at `width` bytes from q^0.
    On the terms of _bosonic_terms or _tail_terms each part takes the row
    [L over k] at most once per k, so each of its coefficients is at most
    sum_k C(L, k) = 2^L."""
    parts = [0, 0]
    bits = 8 * width
    for ex, k, sign in terms:
        parts[sign < 0] += _packed_gaussian(L, k, width) << bits * ex
    return parts[0], parts[1]


def bosonic(p: int, pp: int, a: int, b: int, c: int, L: int) -> QPoly:
    """Alternating double sum with Gaussian factors; equals the enumeration."""
    return _bosonic_sum(_bosonic_terms(p, pp, a, b, c, L), L)


def partition_series(N: int) -> QPoly:
    """1/(q)_infinity expanded to degree N: the partition-counting series."""
    ways = [0] * (N + 1)
    ways[0] = 1
    for part in range(1, N + 1):
        for n in range(part, N + 1):
            ways[n] += ways[n - part]
    return QPoly(dict(enumerate(ways)))


def rocha_caridi_truncated(p: int, pp: int, r: int, s: int, N: int) -> QPoly:
    """The character series 1/(q)_inf * sum_lam (...) expanded to degree N."""
    if N < 0:
        raise ValueError("truncation degree must be >= 0")
    series = QPoly.zero()
    span = N + pp + abs(r) + abs(s) + 3  # quadratic exponents exceed N beyond this
    for lam in range(-span, span + 1):
        e1 = lam * lam * p * pp + lam * (pp * r - p * s)
        if e1 <= N:
            series = series + QPoly.q_int(e1)
        e2 = (lam * p + r) * (lam * pp + s)
        if e2 <= N:
            series = series - QPoly.q_int(e2)
    return (partition_series(N) * series).truncate(N)


# -- endpoint-to-post-segment convention --------------------------------------

def c_from_b_info(p: int, pp: int, b: int) -> tuple[int, bool]:
    """The post-segment endpoint for a given b, and whether b+-1 both work.

    Small b (within the first zone) pairs with b-1, mirrored at the top; in
    between, b is interfacial and either choice gives the same polynomial
    (we pick b+1).  The one-height (1,2) grid has no post-segment endpoint.
    """
    if pp == 2:
        raise ValueError("the one-height grid of (1,2) has no post-segment endpoint c")
    tak = continued_fraction(p, pp)
    thr = tak.t_bounds[1] if pp > 2 * p else tak.t_bounds[2]
    if b == 1:
        return 2, False
    if 1 < b <= thr:
        return b - 1, False
    if b == pp - 1:
        return pp - 2, False
    if pp - thr <= b < pp - 1:
        return b + 1, False
    return b + 1, True


def c_from_b(p: int, pp: int, b: int) -> int:
    return c_from_b_info(p, pp, b)[0]


# -- the constant-sign system --------------------------------------------------

class GammaTrace(namedtuple("GammaTrace", "alpha beta gamma")):
    """The three iterated sequences, index j = 0..t."""
    __slots__ = ()


class FermionicSystem(namedtuple("FermionicSystem", "tak a b u_L u_R delta_L delta_R "
                                                    "band Q trace gamma")):
    """The constant-sign system of endpoints a, b in the model of tak.

    u_L, u_R, delta_L and delta_R hold components 1..t at index j-1.  band
    holds (mid, hi) of rows i = 0..t of C extended by one row: row i reads
    -m_{i-1} + mid*m_i + hi*m_{i+1}, with (1, 1) at a zone boundary.  Q is
    Q_0..Q_{t-1} for u = u_L + u_R; trace is the GammaTrace and gamma its
    gamma_0.  No __slots__: the exponent_rows cache lives in the instance
    dict, so _replace starts a fresh one.
    """

    @property
    def t(self) -> int:
        return self.tak.t

    @cached_property
    def exponent_rows(self) -> tuple[tuple[int, int, int], ...]:
        """(mid_i, hi_{i-1} - 1, -2 w_i) for i = 0..t-1, with w = u_L^flat +
        u_R^sharp, so 4 * exponent = gamma + sum_i m_i (mid_i m_i +
        (hi_{i-1} - 1) m_{i-1} - 2 w_i).  Row 0 carries mid_0 - 1, which
        takes in the -L^2 of m_0 = L, and has no neighbour or w term."""
        w = [fl + sh for fl, sh in zip(flat_sharp(self.u_L, self.tak, "flat"),
                                       flat_sharp(self.u_R, self.tak, "sharp"))]
        band = self.band
        return ((band[0][0] - 1, 0, 0),
                *((band[i][0], band[i - 1][1] - 1, -2 * w[i - 1]) for i in range(1, self.t)))


def _takahashi_vectors(t: int, boundaries: set[int], kind: str, sigma: int):
    """(u, delta), components 1..t, of a height with Takahashi index sigma.

    With base = e_sigma - (sum of e_{t_k} over the zone boundaries
    t_k >= sigma) and e_0 the zero vector, T gives (base, -base) and T'
    gives (base + e_t, base - e_t).
    """
    base = [0] * (t + 1)  # index 0 holds e_0 and is cut off
    base[sigma] += 1
    for tk in boundaries:
        if tk >= sigma:
            base[tk] -= 1
    if kind == "T":
        return tuple(base[1:]), tuple(-v for v in base[1:])
    head = tuple(base[1:t])  # component t of base is 0: sigma and every t_k lie below t
    return head + (1,), head + (-1,)


def _gamma_iteration(band, delta_L, delta_R) -> GammaTrace:
    t = len(band) - 1
    alpha = [0] * (t + 1)
    beta = [0] * (t + 1)
    gamma = [0] * (t + 1)
    for j in range(t, 0, -1):
        # beta'_{j-1}, alpha''_{j-1} (which is alpha_{j-1}) and gamma''_{j-1}
        bp = beta[j] + delta_L[j - 1] - delta_R[j - 1]
        alpha[j - 1] = add = alpha[j] + bp
        gdd = gamma[j] + 2 * alpha[j] * delta_R[j - 1] - bp * bp
        if band[j - 1] == (1, 1):  # j - 1 is a zone boundary
            beta[j - 1], gamma[j - 1] = add - bp, -add * add - gdd
        else:
            beta[j - 1], gamma[j - 1] = bp, gdd
    return GammaTrace(tuple(alpha), tuple(beta), tuple(gamma))


@lru_cache(maxsize=4096)
def build_system(p: int, pp: int, a: int, b: int,
                 prefer_t_prime: bool = False) -> FermionicSystem:
    """Assemble every ingredient of the constant-sign sums for endpoints a, b."""
    tak = continued_fraction(p, pp)
    kind_L, sigma_L = tak.membership(a, prefer_t_prime)
    kind_R, sigma_R = tak.membership(b, prefer_t_prime)
    if kind_L is None or kind_R is None:
        bad = a if kind_L is None else b
        raise ValueError(f"height {bad} is not a Takahashi length (or complement) in ({p},{pp})")
    t = tak.t
    boundaries = set(tak.t_bounds[1:tak.n + 1])
    band = tuple((1, 1) if i in boundaries else (2, -1) for i in range(t + 1))
    u_L, delta_L = _takahashi_vectors(t, boundaries, kind_L, sigma_L)
    u_R, delta_R = _takahashi_vectors(t, boundaries, kind_R, sigma_R)
    # Q = x mod 2 for the rows 1..t of the band, -x_{i-1} + mid*x_i + hi*x_{i+1}
    # = u_i with x_t = x_{t+1} = 0, solved from the last row up
    x = [0] * (t + 2)
    for i in range(t, 0, -1):
        mid, hi = band[i]
        x[i - 1] = (mid * x[i] + hi * x[i + 1] - u_L[i - 1] - u_R[i - 1]) % 2
    trace = _gamma_iteration(band, delta_L, delta_R)
    return FermionicSystem(
        tak=tak, a=a, b=b, u_L=u_L, u_R=u_R, delta_L=delta_L, delta_R=delta_R,
        band=band, Q=tuple(x[:t]), trace=trace, gamma=trace.gamma[0],
    )


def flat_sharp(u: tuple[int, ...], tak: TakahashiData, variant: str) -> tuple[int, ...]:
    """Zone-parity mask of a t-vector, giving components 1..t-1.

    "flat" zeroes the components in even zones, "sharp" keeps exactly those.
    """
    if variant not in ("flat", "sharp"):
        raise ValueError("variant must be 'flat' or 'sharp'")
    out = []
    for j in range(1, tak.t):
        keep = (variant == "sharp") == (tak.zone_of(j) % 2 == 0)
        out.append(u[j - 1] if keep else 0)
    return tuple(out)


# -- the fermionic sums --------------------------------------------------------

class MnSolution(namedtuple("MnSolution", "m_hat n")):
    """m_hat = (L, m_1, ..., m_{t-1}) and n = (n_1, ..., n_t)."""
    __slots__ = ()


def _iter_admissible_m(system: FermionicSystem, L: int):
    """Yield (m_hat, n) with m_hat = (L, m_1, ..., m_{t-1}) and
    n_j = (u_j + m_{j-1} - mid*m_j - hi*m_{j+1})/2 from band row j = 1..t
    (rows 1..t of C-hat) for every summand of the modified sum.

    m_hat runs over the right parities and the support bound
    m_{i+1} <= m_i + 1 (terms beyond it sum to zero), in depth-first order.
    n_j is fixed as soon as m_{j+1} is chosen (m_t = 0 closes the last
    rows), and the walk cuts the subtree there when n_j < 0 and m_j > 0
    (at m_j = 0 the factor is [n_j over 0]' = 1).  Raises ValueError if a
    particle count is not an integer (parity mismatch).
    """
    t = system.t
    Q = system.Q
    if L < 0 or L % 2 != Q[0]:
        return
    u = [x + y for x, y in zip(system.u_L, system.u_R)]
    band = system.band
    # the walk sets m_1..m_{t-1}; m_t, m_{t+1} stay 0, and level 0 reads the
    # extra last slot as m_{-1} = L - 1, so m_i <= m_{i-1} + 1 leaves m_0 = L
    m = [L] + [0] * (t + 1) + [L - 1]
    n = [0] * t
    last = t - 1
    # choosing m_i closes row i-1; at the last level it also closes rows t-1, t
    rows = [range(max(i - 1, 1), t + 1 if i == last else i) for i in range(t)]
    nxt = [L] * t  # the next candidate for m_i at level i
    i = 0
    while i >= 0:
        x = nxt[i]
        if x > m[i - 1] + 1:
            i -= 1
            continue
        nxt[i] = x + 2
        m[i] = x
        for j in rows[i]:
            mid, hi = band[j]
            v = u[j - 1] + m[j - 1] - mid * m[j] - hi * m[j + 1]
            if v % 2:
                raise ValueError("non-integral particle count: parity mismatch")
            n[j - 1] = v // 2
            if v < 0 and m[j]:
                break
        else:
            if i == last:
                yield tuple(m[:t]), tuple(n)
            else:
                i += 1
                nxt[i] = Q[i]


def _summands(system: FermionicSystem, L: int):
    """(m_hat, n, kept) of each modified summand.  The classical form and the
    mn-system keep exactly the summands with every n_j >= 0 (kept)."""
    return [(m_hat, n, min(n) >= 0) for m_hat, n in _iter_admissible_m(system, L)]


def _term(system: FermionicSystem, m_hat: tuple[int, ...], n: tuple[int, ...]):
    """(exponent, keys) of a summand: q^exponent times the classical Gaussians
    [top over k] for keys (top, k) = (m_j + n_j, m_j > 0), as every other
    factor is [n_j over 0]' = 1.

    The exponent is (m_hat^T C m_hat - L^2 - 2 w.m + gamma)/4, where
    w = u_L^flat + u_R^sharp; RuntimeError if 4 does not divide it.
    """
    # band row i of C gives mid*m_i^2 + hi*m_i*m_{i+1} - m_i*m_{i-1}, so each
    # neighbour pair (i-1, i) carries hi_{i-1} - 1
    quad = system.gamma
    prev = 0
    for (mid, lo, lin), mi in zip(system.exponent_rows, m_hat):
        quad += mi * (mid * mi + lo * prev + lin)
        prev = mi
    exp, frac = divmod(quad, 4)
    if frac:
        raise RuntimeError(f"fermionic summand {m_hat} has a fractional exponent")
    return exp, [(m + nj, m) for m, nj in zip(m_hat[1:], n) if m]


def fermionic_terms(system: FermionicSystem, L: int, modified: bool):
    """Nonzero summands: a list of (m_hat, n, term polynomial)."""
    return [(m_hat, n, _gaussian_sum([_term(system, m_hat, n)]))
            for m_hat, n, kept in _summands(system, L) if kept or modified]


def mn_solutions(system: FermionicSystem, L: int) -> list[MnSolution]:
    """All (m_hat, n) with every n_i a non-negative integer and m >= 0."""
    return [MnSolution(m_hat, n) for m_hat, n, kept in _summands(system, L) if kept]


def _tail_terms(system: FermionicSystem, L: int):
    """The (exponent, k, sign) terms, read as in _bosonic_terms, of the
    smaller-model tail that the classical form adds to its sum: the
    character of the model (z_n, y_n), reflected when a and b lie at the
    top, with the post-segment endpoint pulled inside."""
    tak, a, b = system.tak, system.a, system.b
    yn, zn = tak.y_of(tak.n), tak.z_of(tak.n)
    c = c_from_b(tak.p, tak.pp, b)
    if not (a < yn and b < yn):
        if not (a > tak.pp - yn and b > tak.pp - yn):
            return ()
        a, b, c = tak.pp - a, tak.pp - b, tak.pp - c
    if yn == 2:
        # the (1,2) grid carries only the empty path, q^0 [0 over 0]
        return ((0, 0, 1),) if (L == 0 and a == 1 and b == 1) else ()
    return _bosonic_terms(zn, yn, a, b, c if 1 <= c <= yn - 1 else b - 1, L)


def _classical_tail(system: FermionicSystem, L: int) -> QPoly:
    """The smaller-model term that the classical form adds to its sum."""
    return _bosonic_sum(_tail_terms(system, L), L)


@lru_cache(maxsize=4096)
def _packed_gaussian(top: int, k: int, width: int) -> int:
    """The classical Gaussian [top over k] packed at `width` bytes per coefficient."""
    return pack(gaussian(top, k).terms.values(), width)


def _sum_bound(terms) -> int:
    """The value at q = 1 of the sum over (e, keys) of q^e times the classical
    Gaussians [top over k] for (top, k) in keys.  Every factor has
    non-negative coefficients, so it bounds each coefficient of every
    partial product and of the sum."""
    return sum(prod(starmap(comb, keys)) for _, keys in terms)


def _packed_sum(terms, width: int, low: int) -> int:
    """The sum over (e, keys) of q^(e - low) times the classical Gaussians
    [top over k] for (top, k) in keys, packed at `width` bytes a coefficient:
    every e must be >= low, and `width` must exceed the _sum_bound."""
    acc = 0
    bits = 8 * width
    for e, keys in terms:
        term = 1
        for top, k in keys:
            term *= _packed_gaussian(top, k, width)
        acc += term << bits * (e - low)
    return acc


def _gaussian_sum(terms) -> QPoly:
    """The sum over (e, keys) of q^e times the classical Gaussians [top over k]
    for (top, k) in keys, added on one packed int and unpacked once."""
    if not terms:
        return QPoly.zero()
    width = guard_width(_sum_bound(terms))
    low = min(e for e, _ in terms)
    return unpack_poly(_packed_sum(terms, width, low), width, low)


def _split_terms(system: FermionicSystem, L: int) -> tuple[list, list]:
    """The (exponent, keys) of each modified summand (see _term), in two
    lists: the kept summands, then the annihilated ones."""
    split = ([], [])
    for m_hat, n, kept in _summands(system, L):
        split[not kept].append(_term(system, m_hat, n))
    return split


@lru_cache(maxsize=64)
def _fermionic_sums(p: int, pp: int, a: int, b: int, L: int, prefer_t_prime: bool):
    """(classical sum without its tail, modified sum): kept plus annihilated."""
    kept, annihilated = map(_gaussian_sum, _split_terms(build_system(p, pp, a, b, prefer_t_prime), L))
    return kept, kept + annihilated


def _fermionic_walk(system: FermionicSystem, L: int):
    """(split, low, classical bound, modified bound) of the summands at
    length L >= 0, from one walk: split as _split_terms gives it,
    low = min(0, lowest summand exponent), and each bound one on the
    absolute value of every coefficient of its form, read off the form's
    own summands (the tail adds 2^L, as bosonic does), never off the value
    the identity says it has."""
    split = _split_terms(system, L)
    kept, annihilated = map(_sum_bound, split)
    low = min([0] + [e for terms in split for e, _ in terms])
    return split, low, kept + (1 << L), kept + annihilated


def _packed_fermionic(system: FermionicSystem, L: int, split, width: int, low: int):
    """(classical, modified), each as the (positive, negative) parts of the
    form times q^-low, packed at `width` bytes a coefficient; split, low and
    a width above the bounds come from _fermionic_walk."""
    kept, annihilated = (_packed_sum(terms, width, low) for terms in split)
    pos, neg = _packed_bosonic(_tail_terms(system, L), L, width)
    shift = -8 * width * low
    return (kept + (pos << shift), neg << shift), (kept + annihilated, 0)


def fermionic_classical(p: int, pp: int, a: int, b: int, L: int,
                        prefer_t_prime: bool = False) -> QPoly:
    """Constant-sign sum with classical Gaussians plus the smaller-model tail."""
    system = build_system(p, pp, a, b, prefer_t_prime)  # checks a and b at every L
    if L < 0 or (L + a - b) % 2:
        return QPoly.zero()
    return _fermionic_sums(p, pp, a, b, L, prefer_t_prime)[0] + _classical_tail(system, L)


def fermionic_modified(p: int, pp: int, a: int, b: int, L: int,
                       prefer_t_prime: bool = False) -> QPoly:
    """Constant-sign sum with modified Gaussians; no tail term."""
    build_system(p, pp, a, b, prefer_t_prime)  # checks a and b at every L
    if L < 0 or (L + a - b) % 2:
        return QPoly.zero()
    return _fermionic_sums(p, pp, a, b, L, prefer_t_prime)[1]
