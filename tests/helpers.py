"""Shared sweep helpers for the test suite."""

from itertools import product

from hypothesis import strategies as st

from fbpaths import (
    Model, Path, PathStats, QPoly, TransformError, Wings, continued_fraction,
    flat_sharp, gaussian, iter_height_seqs, striking_sequence,
)
from fbpaths.characters import _summands, _tail_terms, _term
from fbpaths.model import coprime_pairs
from fbpaths.paths import _ends, _first_segment, _parity_table, _score, rebuild_heights
from fbpaths.transforms import _score_wings


def winged_paths(p, pp, lmax, require_delta_a=False, require_delta_b=False):
    """Yield every winged path of the model with L <= lmax."""
    model = Model(p, pp)
    for a, b in product(range(1, pp), repeat=2):
        for e, f in product((0, 1), (0, 1)):
            if require_delta_a and model.delta(a, e) != 0:
                continue
            if require_delta_b and model.delta(b, f) != 0:
                continue
            for L in range((a + b) % 2, lmax + 1, 2):
                for hs in iter_height_seqs(model, a, b, L):
                    yield Path(model, hs, Wings(e, f))


def enumeration_tallies(model, a, b, L, boundaries, heights=()):
    """Oracle for the generating functions of fbpaths.paths: score every path
    a -> b one by one under each boundary.  Maps (boundary, m, met) to
    {weight: path count}, where m counts the non-scoring vertices and met is
    the set of `heights` the path attains."""
    par = _parity_table(model.p, model.pp)
    ends = [(bd, _ends(bd, b)) for bd in boundaries]
    heights = frozenset(heights)
    acc = {}
    for hs in iter_height_seqs(model, a, b, L):
        met = heights.intersection(hs)
        for bd, (in_up, out_up, wing) in ends:
            w, flags = _score(par, hs, in_up, out_up, wing)
            counts = acc.setdefault((bd, flags.count(False), met), {})
            counts[w] = counts.get(w, 0) + 1
    return acc


def tallied_by_m(tallies, boundary, attain=()):
    """{m: generating function} of the tallied paths under `boundary` that
    attain every height of `attain` (compare chi_tilde_by_m)."""
    out = {}
    for (bd, m, met), counts in tallies.items():
        if bd == boundary and met.issuperset(attain):
            out[m] = out.get(m, QPoly.zero()) + QPoly(counts)
    return out


def tallied(tallies, boundary, attain=()):
    """The generating function over every m (compare chi and chi_tilde)."""
    return sum(tallied_by_m(tallies, boundary, attain).values(), QPoly.zero())


def random_winged_walk(data, ppmax, max_steps):
    """Draw a coprime model with p' <= ppmax, a start height, up to max_steps
    unit steps reflected at the edge of the grid, and wings (e, f)."""
    p, pp = data.draw(st.sampled_from(coprime_pairs(ppmax)), label="(p, pp)")
    model = Model(p, pp)
    hs = [data.draw(st.integers(1, pp - 1), label="a")]
    for up in data.draw(st.lists(st.booleans(), max_size=max_steps), label="steps"):
        step = 1 if up else -1
        if not 1 <= hs[-1] + step <= pp - 1:
            step = -step  # reflect at the edge of the grid
        hs.append(hs[-1] + step)
    e, f = data.draw(st.integers(0, 1), label="e"), data.draw(st.integers(0, 1), label="f")
    return Path(model, tuple(hs), Wings(e, f))


def refill_search(model, heights, score, e, f, w0, after, dw):
    """Oracle for transforms._rewrite_window: try every +-1 refill of the
    heights max(w0, 1)..min(w0 + 2, L - 1) between their pinned neighbours,
    score the whole path for each, and keep the one re-routing that gives
    vertices w0..w0+2 the scoring pattern `after`, changes the weight by dw
    and keeps m.  Returns it with its (weight, flags), after checking that
    the score handed in is the score of `heights`."""
    L = len(heights) - 1
    lo, hi = max(w0, 1), min(w0 + 2, L - 1)
    old_w, old_flags = _score_wings(model, heights, e, f)
    assert score == (old_w, old_flags), "the score handed in is not the path's"

    def refills(pos, prev, acc):
        if pos > hi:
            if abs(heights[hi + 1] - prev) == 1:
                yield acc
            return
        for nh in (prev - 1, prev + 1):
            if 1 <= nh <= model.pp - 1:
                yield from refills(pos + 1, nh, acc + [nh])

    found = []
    for cand in refills(lo, heights[lo - 1], []):
        new_heights = heights[:lo] + cand + heights[hi + 1:]
        if new_heights == heights:
            continue
        w, flags = _score_wings(model, new_heights, e, f)
        if tuple(flags[w0:w0 + 3]) == after and w - old_w == dw \
                and flags.count(False) == old_flags.count(False):
            found.append((new_heights, (w, flags)))
    assert len(found) <= 1, "ambiguous particle move"
    if not found:
        raise TransformError("particle move is blocked")
    return found[0]


def striking_path_stats(path):
    """Oracle for paths.path_stats: m, alpha, beta read off the columns
    (a_i, b_i) of the striking sequence, whose lines alternate NE and SE
    starting from direction d; e + d + pi odd means vertex 0 does not score."""
    e, f = path.boundary.e, path.boundary.f
    pi = _first_segment(path)[0]
    if path.L == 0:
        return PathStats(m=abs(f - e), alpha=0, beta=f - e, pi=pi, d=f)
    ss = striking_sequence(path)
    odd = (e + ss.d + pi) % 2
    m, alpha, beta = odd, 0, 0
    sign = 1 if ss.d == 0 else -1
    for a_i, b_i in ss.columns:
        m += a_i
        alpha += sign * (a_i + b_i)
        beta += sign * b_i
        sign = -sign
    if odd:
        beta += 1 if e == 0 else -1
    return PathStats(m=m, alpha=alpha, beta=beta, pi=pi, d=ss.d)


def striking_b1(path):
    """Oracle for transforms.b1: widen every line of the striking sequence by
    its scoring count b_i, correct the first line by 2 pi - 1 when vertex 0
    does not score, and rebuild the heights from a + floor(ap/p') + e."""
    e, f = path.boundary.e, path.boundary.f
    model = path.model
    big = Model(model.p, model.pp + model.p)
    a_new = path.a + model.floor_mult(path.a) + e
    if path.L == 0:
        if e != f:
            raise TransformError("dilation is undefined for L = 0 with e != f")
        return Path(big, (a_new,), Wings(e, f))
    ss = striking_sequence(path)
    pi = _first_segment(path)[0]
    new_widths = [w + b_i for w, (_, b_i) in zip(ss.widths, ss.columns)]
    if (e + ss.d + pi) % 2 == 1:
        new_widths[0] += 2 * pi - 1
    return Path(big, rebuild_heights(new_widths, ss.d, a_new), Wings(e, f))


def recursive_walk(system, L, annihilate=False):
    """Oracle for characters._iter_admissible_m: the same pruned depth-first
    walk written as a recursion, one generator frame per level, with each
    band row closed by a helper.  Yields (m_hat, n) and raises ValueError on
    a parity mismatch at the same point of the walk."""
    t = system.t
    Q = system.Q
    if L % 2 != Q[0]:
        return
    u = [x + y for x, y in zip(system.u_L, system.u_R)]
    band = system.band
    m = [L] + [0] * (t + 1)
    n = [0] * t

    def close(j):
        mid, hi = band[j]
        v = u[j - 1] + m[j - 1] - mid * m[j] - hi * m[j + 1]
        if v % 2:
            raise ValueError("non-integral particle count: parity mismatch")
        n[j - 1] = v // 2
        return v >= 0 or (annihilate and m[j] == 0)

    def rec(i):
        # m_0..m_i are chosen, and rows 1..i-1 are closed
        if i == t - 1:
            if (i == 0 or close(i)) and close(t):
                yield tuple(m[:t]), tuple(n)
            return
        for nxt in range(Q[i + 1], m[i] + 2, 2):
            m[i + 1] = nxt
            if i == 0 or close(i):
                yield from rec(i + 1)

    yield from rec(0)


def walk_outcome(walk):
    """Everything an m-vector walk (a generator) yields, and its ValueError
    message or None."""
    out = []
    try:
        for item in walk:
            out.append(item)
    except ValueError as exc:
        return out, str(exc)
    return out, None


def unpruned_walk(system, L):
    """Every m_hat = (L, m_1, ..., m_{t-1}) with the parities Q and the
    support bound m_{i+1} <= m_i + 1, in depth-first order (no pruning)."""
    t, Q = system.t, system.Q
    if L % 2 != Q[0]:
        return

    def rec(prefix):
        if len(prefix) == t:
            yield prefix
            return
        for nxt in range(Q[len(prefix)], prefix[-1] + 2, 2):
            yield from rec(prefix + (nxt,))

    yield from rec((L,))


def unpruned_walk_size(system, L):
    """How many m_hat unpruned_walk yields, counted without walking."""
    t, Q = system.t, system.Q
    if L % 2 != Q[0]:
        return 0
    ways = {L: 1}
    for i in range(1, t):
        nxt = {}
        for m, w in ways.items():
            for x in range(Q[i], m + 2, 2):
                nxt[x] = nxt.get(x, 0) + w
        ways = nxt
    return sum(ways.values())


def leaf_filtered_walk(system, L, modified):
    """Oracle for the pruned m-vector walk: (m_hat, n) for every leaf of the
    unpruned walk that the constant-sign sums keep, n = (u - C_hat m_hat)/2
    computed from whole rows.  The classical rule (also the mn-system's)
    keeps n >= 0; the modified rule also keeps n_j < 0 when m_j = 0."""
    t = system.t
    u = [x + y for x, y in zip(system.u_L, system.u_R)]
    C_hat = dense_rows(system, 1)
    for m_hat in unpruned_walk(system, L):
        n = []
        for j in range(1, t + 1):
            v = u[j - 1] - sum(c * m for c, m in zip(C_hat[j - 1], m_hat))
            assert v % 2 == 0, "parity mismatch"
            n.append(v // 2)
        if n[t - 1] < 0:
            continue
        if any(n[j - 1] < 0 and not (modified and m_hat[j] == 0) for j in range(1, t)):
            continue
        yield m_hat, tuple(n)


def sparse_sum(terms):
    """Oracle for characters._packed_sum: the sum over (exponent, keys, sign)
    of sign * q^exponent times the Gaussians [top over k] for (top, k) in
    keys, each term multiplied out as a sparse polynomial and added on a
    dict of coefficients."""
    out = {}
    for ex, keys, sign in terms:
        term = QPoly.one()
        for key in keys:
            term = term * gaussian(*key)
        for e, coeff in term.terms.items():
            out[e + ex] = out.get(e + ex, 0) + sign * coeff
    return QPoly(out)


def sparse_summands(system, L, modified):
    """Oracle for characters.fermionic_terms: (m_hat, n, term) of each summand
    of the form, its Gaussians multiplied out as sparse polynomials; the
    classical form has no annihilated particle (n_j < 0)."""
    terms = []
    for m_hat, n, _ in _summands(system, L):
        if not (modified or all(v >= 0 for v in n)):
            continue
        terms.append((m_hat, n, sparse_sum([_term(system, m_hat, n)])))
    return terms


def sparse_fermionic(system, L, modified):
    """Oracle for the fermionic forms: the sparse summands, plus the classical
    form's smaller-model tail by sparse_sum."""
    total = QPoly.zero() if modified else sparse_sum(_tail_terms(system, L))
    for _, _, term in sparse_summands(system, L, modified):
        total = total + term
    return total


def dense_rows(system, first):
    """The paper's dense t x t matrices from the band of characters.build_system:
    C (first = 0, band rows 0..t-1) or C-hat (first = 1, band rows 1..t), over
    columns 0..t-1.  Band row i reads -m_{i-1} + mid*m_i + hi*m_{i+1}."""
    t = system.t
    return tuple(tuple({i - 1: -1, i: mid, i + 1: hi}.get(j, 0) for j in range(t))
                 for i, (mid, hi) in enumerate(system.band[first:first + t], first))


def beta_prime(system):
    """beta'_j = beta_{j+1} + delta^L_j - delta^R_j for j = 0..t-1 and 0 at
    j = t: the intermediate of the gamma-iteration behind system.trace.beta
    (delta_L and delta_R hold component j + 1 at index j)."""
    beta = system.trace.beta
    return tuple(beta[j + 1] + dl - dr
                 for j, (dl, dr) in enumerate(zip(system.delta_L, system.delta_R))) + (0,)


def dense_parity(C_hat, u):
    """Oracle for the parity vector Q of characters.build_system: integer
    back-substitution for C_hat x = u over the dense rows, reduced mod 2.
    Row i of C_hat (equation i = 1..t) has its lowest column at i-1 with
    entry -1, so x fills in from the last equation up."""
    t = len(u)
    x = [0] * t
    for i in range(t, 0, -1):
        row = C_hat[i - 1]
        x[i - 1] = sum(row[j] * x[j] for j in range(i, t)) - u[i - 1]
    return tuple(v % 2 for v in x)


def dense_exponents(system, m_hats):
    """Oracle for the exponent of characters._term: (m_hat^T C m_hat - L^2 -
    2 w.m + gamma)/4 for each m_hat, with w = u_L^flat + u_R^sharp and the
    quadratic form summed over the dense rows of C."""
    tak = system.tak
    w = [fl + sh for fl, sh in zip(flat_sharp(system.u_L, tak, "flat"),
                                   flat_sharp(system.u_R, tak, "sharp"))]
    C = dense_rows(system, 0)
    out = []
    for m_hat in m_hats:
        quad = sum(mi * c * mj for row, mi in zip(C, m_hat) for c, mj in zip(row, m_hat))
        lin = sum(wj * mj for wj, mj in zip(w, m_hat[1:]))
        exp, frac = divmod(quad - m_hat[0] ** 2 - 2 * lin + system.gamma, 4)
        assert frac == 0, "fractional exponent"
        out.append(exp)
    return out


def step_count(pp, a, b, L):
    """Unit-step paths a -> b of length L inside 1..p'-1 (the value at q = 1)."""
    ways = {a: 1}
    for _ in range(L):
        nxt = {}
        for h, w in ways.items():
            for nh in (h - 1, h + 1):
                if 1 <= nh <= pp - 1:
                    nxt[nh] = nxt.get(nh, 0) + w
        ways = nxt
    return ways.get(b, 0)


# -- reference oracles: brute force and closed forms the library cross-checks

def pochhammer(z_power, n):
    """(z)_n = prod_{i=0}^{n-1} (1 - z q^i) with z = q^z_power."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = QPoly.one()
    for i in range(n):
        out = out * (QPoly.one() - QPoly.q_int(z_power + i))
    return out


def box_partition_oracle(k, m):
    """Sum of q^|lam| over partitions with at most k parts, each part <= m.

    Brute-force generation; the independent cross-check for gaussian(m+k, m).
    """
    if k < 0 or m < 0:
        raise ValueError("box_partition_oracle needs k, m >= 0")
    counts = {}

    def gen(parts_left, part_max, total):
        counts[total] = counts.get(total, 0) + 1
        if parts_left == 0:
            return
        for x in range(1, part_max + 1):
            gen(parts_left - 1, x, total + x)

    gen(k, m, 0)
    return QPoly(counts)


def partitions_in_box(k, m):
    """Yield every partition with at most k parts, parts <= m (as tuples)."""
    def gen(prefix, parts_left, part_max):
        yield prefix
        if parts_left == 0:
            return
        for x in range(1, part_max + 1):
            yield from gen(prefix + (x,), parts_left - 1, x)

    yield from gen((), k, m)


def enumerate_paths(model, a, b, boundary, L, required=None):
    """All paths with the given endpoints/boundary; with `required`, only those
    attaining every height in the set.  Impossible parity gives an empty list."""
    req = frozenset(required or ())
    return [Path(model, hs, boundary) for hs in iter_height_seqs(model, a, b, L)
            if req.issubset(hs)]


def beta_closed_form(model, a, b, e, f):
    """floor(bp/p') - floor(ap/p') + f - e: the statistic beta of a winged path."""
    return model.floor_mult(b) - model.floor_mult(a) + f - e


def submodel_parity_check(model):
    """Check that the parities of bands 1..y_n-2 of (p,p') are those of the
    (z_n, y_n) model.

    The range is vacuous when y_n - 2 < 1 (in particular for n = 0).
    """
    tak = continued_fraction(model.p, model.pp)
    yn, zn = tak.y_of(tak.n), tak.z_of(tak.n)
    if yn - 2 < 1:
        return True
    sub = Model(zn, yn)
    return model.band_parities()[:yn - 2] == sub.band_parities()
