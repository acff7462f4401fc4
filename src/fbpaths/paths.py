"""Weighted lattice paths in a (p,p') band model.

A path is a height sequence h_0..h_L with unit steps, weighted vertex by
vertex: a vertex is scoring when its shape parity matches the band it sits
in (straight vertices score in odd bands, peaks score in even bands), and a
scoring vertex contributes one of its 45-degree coordinates x or y.  Two
boundary conventions exist: a post-segment endpoint c (so the final vertex
is classified against the band between b and c), or wings (e, f) fixing the
directions of a pre-segment and post-segment, under which the final vertex
scores exactly when it is a peak.

A vertex's weight depends only on i, h_i - h_0 and its two directions, so
chi and chi_tilde come from a transfer-matrix recurrence over (height,
incoming direction), not from enumerating the paths.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .model import Model
from .qpoly import QPoly, unpack_poly

STRAIGHT_UP = "straight-up"
STRAIGHT_DOWN = "straight-down"
PEAK_UP = "peak-up"
PEAK_DOWN = "peak-down"

Score = tuple[int, list[bool]]  # (weight, scoring flags of vertices 0..L) of a path


class PostSeg(namedtuple("PostSeg", "c")):
    """Post-segment boundary: the path continues from (L, b) to (L+1, c)."""
    __slots__ = ()


class Wings(namedtuple("Wings", "e f")):
    """Pre/post segment directions: e=0 pre-segment SE, e=1 NE; f=0 post NE, f=1 SE."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, e: int, f: int):
        if e not in (0, 1) or f not in (0, 1):
            raise ValueError("wings e, f must be 0 or 1")
        return tuple.__new__(cls, (e, f))


class Path(namedtuple("Path", "model heights boundary")):
    """A path h_0..h_L (heights) in a Model, with a PostSeg or Wings boundary."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, model: Model, heights: tuple[int, ...], boundary: PostSeg | Wings):
        self = tuple.__new__(cls, (model, heights, boundary))
        self.__post_init__()
        return self

    def __post_init__(self):
        """Validate the heights and the boundary; every Path(...) runs it once."""
        hs = self.heights
        if len(hs) < 1:
            raise ValueError("a path needs at least h_0")
        pp = self.model.pp
        for h in hs:
            if not 1 <= h <= pp - 1:
                raise ValueError(f"height {h} outside 1..{pp - 1}")
        for i in range(len(hs) - 1):
            if abs(hs[i + 1] - hs[i]) != 1:
                raise ValueError(f"step h_{i}->h_{i + 1} is not +-1")
        if isinstance(self.boundary, PostSeg):
            c = self.boundary.c
            if abs(c - hs[-1]) != 1:
                raise ValueError(f"post-segment endpoint c={c} is not b+-1")
            if not 1 <= c <= pp - 1:
                raise ValueError(f"c={c} outside 1..{pp - 1}")

    @property
    def a(self) -> int:
        return self.heights[0]

    @property
    def b(self) -> int:
        return self.heights[-1]

    @property
    def L(self) -> int:
        return len(self.heights) - 1


def wings_path(p: int, pp: int, heights, e: int, f: int) -> Path:
    return Path(Model(p, pp), tuple(heights), Wings(e, f))


def postseg_path(p: int, pp: int, heights, c: int) -> Path:
    return Path(Model(p, pp), tuple(heights), PostSeg(c))


# -- vertex scoring ----------------------------------------------------------

@lru_cache(maxsize=1024)
def _parity_table(p: int, pp: int) -> tuple[bool, ...]:
    """par[h]: band h of the (p, p') model is odd, with out-of-grid bands 0
    and p'-1 even.  Keyed by the two ints, which hash without a Python call."""
    return (False, *map(bool, Model(p, pp).band_parities()), False)


def _score(par, heights, in_up: bool, out_up: bool, wing: bool) -> Score:
    """(weight, flags) of the vertices 0..L of a height sequence.

    in_up is the direction into vertex 0 and out_up the direction out of
    vertex L.  flags[i] says whether vertex i scores: straight in an odd band
    or a peak in an even band; with `wing`, vertex L scores exactly when it is
    a peak.  A scoring vertex adds its x coordinate (i - d)/2 when entered
    upwards and its y coordinate (i + d)/2 otherwise, d = h_i - h_0, so
    vertex 0 adds nothing.
    """
    L = len(heights) - 1
    a = heights[0]
    last = L if wing else -1
    flags = [False] * (L + 1)
    total = 0
    for i in range(L + 1):
        h = heights[i]
        up = heights[i + 1] > h if i < L else out_up
        # the wing rule: vertex L sits in a band that counts as even
        if (in_up == up) == (i != last and par[h if up else h - 1]):
            flags[i] = True
            total += (i - h + a) // 2 if in_up else (i + h - a) // 2
        in_up = up
    return total, flags


def _ends(boundary: PostSeg | Wings, b: int) -> tuple[bool, bool, bool]:
    """(in_up, out_up, wing) arguments of _score for a boundary and endpoint b.

    A post-segment path has no direction into vertex 0; it adds nothing to
    the weight, so any value serves.
    """
    if isinstance(boundary, PostSeg):
        return True, boundary.c > b, False
    return boundary.e == 1, boundary.f == 0, True


def _path_score(path: Path) -> Score:
    hs = path.heights
    return _score(_parity_table(path.model.p, path.model.pp), hs, *_ends(path.boundary, hs[-1]))


def classify_vertex(path: Path, i: int) -> tuple[str, str, bool]:
    """(shape, band parity, scoring) of the i-th vertex, 0 <= i <= L.

    Under a post-segment boundary the 0th vertex has no pre-segment and
    cannot be classified.  Under wings the L-th vertex is scoring exactly
    when it is a peak, whatever the band parity.
    """
    hs = path.heights
    L = path.L
    if not 0 <= i <= L:
        raise ValueError(f"vertex index {i} outside 0..{L}")
    first_up, last_up, wing = _ends(path.boundary, path.b)
    if i == 0 and not wing:
        raise ValueError("0th vertex of a post-segment path has no pre-segment")
    in_up = hs[i] > hs[i - 1] if i > 0 else first_up
    out_up = hs[i + 1] > hs[i] if i < L else last_up
    shape = (STRAIGHT_UP if out_up else PEAK_UP) if in_up else (PEAK_DOWN if out_up else STRAIGHT_DOWN)
    par = _parity_table(path.model.p, path.model.pp)
    _, (scoring,) = _score(par, hs[i:i + 1], in_up, out_up, wing and i == L)
    return shape, ("odd" if par[hs[i] if out_up else hs[i] - 1] else "even"), scoring


def weight_wt(path: Path) -> int:
    """Path weight under the post-segment convention."""
    if not isinstance(path.boundary, PostSeg):
        raise ValueError("weight_wt needs a post-segment path")
    return _path_score(path)[0]


def weight_wtilde(path: Path) -> int:
    """Path weight under the wing convention (f-dependent rule at the last vertex)."""
    if not isinstance(path.boundary, Wings):
        raise ValueError("weight_wtilde needs a winged path")
    return _path_score(path)[0]


# -- striking sequence -------------------------------------------------------

class StrikingSequence(namedtuple("StrikingSequence", "columns e f d")):
    """Run-length decomposition of a winged path into straight lines.

    columns[i] = (a_i, b_i): non-scoring and scoring vertex counts of the
    i-th line (its first vertex belongs to the previous line, its last to
    itself).  The 0th vertex belongs to no line.  d = 0 when the first line
    points NE, 1 when SE.
    """
    __slots__ = ()

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in self.columns)


def striking_sequence(path: Path) -> StrikingSequence:
    if not isinstance(path.boundary, Wings):
        raise ValueError("striking sequences are defined for winged paths")
    return _striking(path, _path_score(path)[1])


def _striking(path: Path, scoring: list[bool]) -> StrikingSequence:
    """The striking sequence of a winged path from its scoring flags."""
    e, f = path.boundary.e, path.boundary.f
    hs = path.heights
    if path.L == 0:
        return StrikingSequence((), e, f, f)  # direction convention h_1 = h_0 + (-1)^f
    cols: list[list[int]] = []
    step = 0
    for v in range(1, len(hs)):
        # vertex v ends the segment into it, so it joins that segment's line
        if hs[v] - hs[v - 1] != step:
            step = hs[v] - hs[v - 1]
            cols.append([0, 0])
        cols[-1][scoring[v]] += 1
    return StrikingSequence(tuple(map(tuple, cols)), e, f, 0 if hs[1] > hs[0] else 1)


def weight_from_striking(ss: StrikingSequence) -> int:
    """Alternating partial-sum formula: sum_i b_i (w_{i-1} + w_{i-3} + ...)."""
    w = ss.widths
    total = 0
    for i in range(1, len(w) + 1):
        b_i = ss.columns[i - 1][1]
        total += b_i * sum(w[j - 1] for j in range(i - 1, 0, -2))
    return total


def rebuild_heights(widths, d: int, h0: int) -> tuple[int, ...]:
    """Reconstruct the height sequence from line widths, first direction, start."""
    step = 1 if d == 0 else -1
    hs = [h0]
    for w in widths:
        for _ in range(w):
            hs.append(hs[-1] + step)
        step = -step
    return tuple(hs)


# -- path parameters ---------------------------------------------------------

class PathStats(namedtuple("PathStats", "m alpha beta pi d")):
    """m, alpha, beta, pi and d of a winged path (see path_stats)."""
    __slots__ = ()


def _first_segment(path: Path) -> tuple[int, int]:
    """(pi, d) of a winged path: pi the parity of the band under its first
    segment (the post-segment when L = 0), d = 0 when that segment points NE."""
    hs = path.heights
    h1 = hs[1] if path.L else hs[0] + (1 if path.boundary.f == 0 else -1)
    return int(_parity_table(path.model.p, path.model.pp)[min(hs[0], h1)]), int(h1 < hs[0])


def path_stats(path: Path) -> PathStats:
    """m, alpha, beta, pi, d from one pass of the scoring flags.

    m counts the non-scoring vertices and alpha = b - a.  beta sums the step
    h_v - h_{v-1} into every scoring vertex v = 1..L, plus the pre-segment's
    step (+1 for e = 0, -1 for e = 1) when vertex 0 does not score.
    """
    if not isinstance(path.boundary, Wings):
        raise ValueError("path statistics are defined for winged paths")
    hs = path.heights
    _, flags = _path_score(path)
    beta = sum(hs[v] - hs[v - 1] for v in range(1, len(hs)) if flags[v])
    if not flags[0]:
        beta += 1 if path.boundary.e == 0 else -1
    pi, d = _first_segment(path)
    return PathStats(m=flags.count(False), alpha=hs[-1] - hs[0], beta=beta, pi=pi, d=d)


# -- enumeration: the height sequences, one by one ---------------------------

def _joins(a: int, b: int, L: int) -> bool:
    """Some path of L steps joins a to b, ignoring the band's edges."""
    return L >= 0 and (L + a - b) % 2 == 0 and abs(b - a) <= L


def iter_height_seqs(model: Model, a: int, b: int, L: int):
    """Yield every height tuple h_0..h_L from a to b (depth-first, pruned)."""
    pp = model.pp
    if not (0 < a < pp and 0 < b < pp and _joins(a, b, L)):
        return
    cur = [a] * (L + 1)

    def rec(i: int, h: int):
        if i == L:
            yield tuple(cur)
            return
        rem = L - i - 1
        for nh in (h - 1, h + 1):
            if 1 <= nh <= pp - 1 and abs(b - nh) <= rem:
                cur[i + 1] = nh
                yield from rec(i + 1, nh)

    yield from rec(0, a)


# -- generating functions: a transfer-matrix recurrence over the vertices -----

@lru_cache(maxsize=1024)
def _vertex_moves(p: int, pp: int) -> dict[tuple[int, bool, bool], tuple]:
    """moves[h, in_up, wing]: (out_up, next height, scoring) for the ways out
    of height h, down first, scoring as _score flags the one-vertex sequence
    (h,).  A path stays in the band 1..p'-1; a wing is a direction, so a
    wing vertex keeps both ways out."""
    par = _parity_table(p, pp)
    return {(h, i, w): tuple((o, nh, _score(par, (h,), i, o, w)[1][0])
                             for o, nh in ((False, h - 1), (True, h + 1)) if w or 0 < nh < pp)
            for h in range(1, pp) for i in (False, True) for w in (False, True)}


def _step(moves, states, i: int, a: int, bits: int, attain: int, by_m: bool,
          wing: bool = False) -> dict[tuple[int, bool, int, int], int]:
    """The states after vertex i, from the (state, packed) pairs before it.

    A state is (h_i, direction into vertex i, mask of the heights met before,
    m so far), bit h of a mask standing for height h; only the heights of
    the `attain` mask are kept.  A scoring vertex shifts the packed
    polynomial, `bits` bits a coefficient, by the vertex's coordinate (see
    _score); a non-scoring one adds by_m to m.
    """
    nxt: dict[tuple[int, bool, int, int], int] = {}
    for (h, in_up, mask, m), packed in states:
        mask |= attain & (1 << h)
        for up, nh, scoring in moves[h, in_up, wing]:
            if scoring:
                key = (nh, up, mask, m)
                packed_out = packed << bits * ((i - h + a) // 2 if in_up else (i + h - a) // 2)
            else:
                key, packed_out = (nh, up, mask, m + by_m), packed
            nxt[key] = nxt.get(key, 0) + packed_out
    return nxt


@lru_cache(maxsize=256)
def _transfer_prefix(p: int, pp: int, a: int, L: int, first_up: bool,
                     attain: int, by_m: bool) -> tuple[tuple[tuple, int], ...]:
    """The states (see _step) after the vertices 0..L-1 from a, each with its
    packed polynomial at L // 8 + 1 bytes a coefficient (no count exceeds the
    2^L paths), as (state, packed) pairs: every endpoint shares them.
    """
    moves = _vertex_moves(p, pp)
    bits = 8 * (L // 8 + 1)
    states = {(a, first_up, 0, 0): 1}
    for i in range(L):
        states = _step(moves, states.items(), i, a, bits, attain, by_m)
    return tuple(states.items())


def _attain_mask(pp: int, attain) -> int:
    """The mask (see _step) of the heights of `attain`, which must lie in 1..p'-1."""
    attain = frozenset(attain or ())
    if not all(0 < s < pp for s in attain):
        raise ValueError(f"attained heights {sorted(attain)} must lie in 1..p'-1")
    return sum(1 << s for s in attain)


def chi(model: Model, a: int, b: int, c: int, L: int, attain=None) -> QPoly:
    """Sum of q^wt(h) over post-segment paths a -> b with endpoint c attaining
    every height of `attain`: as in chi_block, the state at c after vertex L."""
    if not all(0 < h < model.pp for h in (a, b, c)):
        raise ValueError("heights a, b, c must lie in 1..p'-1")
    if abs(c - b) != 1:
        raise ValueError(f"need c = b +- 1, got b={b}, c={c}")
    want = _attain_mask(model.pp, attain)
    if not _joins(a, b, L):
        return QPoly.zero()
    states = _transfer_prefix(model.p, model.pp, a, L + 1, True, want, False)
    return unpack_poly(sum(packed for (h, up, mask, _), packed in states
                           if h == c and up == (c > b) and mask == want), (L + 1) // 8 + 1)


def chi_block(model: Model, a: int, lmax: int, width: int) -> dict[tuple[int, int, int], int]:
    """chi(model, a, b, c, L) keyed (b, c, L) for every b, c = b +- 1 and
    L <= lmax, from one transfer out of a, each packed at `width` bytes a
    coefficient from q^0 (unpack_poly decodes it): after vertex L, the state
    at height c entered upwards (downwards) sums the paths a -> c - 1
    (c + 1) that step on to c.  No coefficient exceeds the 2^lmax paths, so
    `width` must give more than lmax bits.  Tuples that no path reaches are
    absent."""
    if not 0 < a < model.pp:
        raise ValueError("height a must lie in 1..p'-1")
    if 8 * width <= lmax:
        raise ValueError(f"{width} bytes a coefficient cannot hold the paths of length {lmax}")
    moves = _vertex_moves(model.p, model.pp)
    states = {(a, True, 0, 0): 1}
    table = {}
    for L in range(lmax + 1):
        states = _step(moves, states.items(), L, a, 8 * width, 0, False)
        for (c, up, _, _), packed in states.items():
            table[c - 1 if up else c + 1, c, L] = packed
    return table


def chi_tilde_by_m(model: Model, a: int, b: int, e: int, f: int, L: int,
                   attain=None) -> dict[int, QPoly]:
    """Winged generating functions split by the non-scoring count m, as a
    fresh dict: the prefix's states at b take the wing vertex L and leave it
    as f says.  Wings outside {0, 1} and attained heights off the grid raise
    ValueError."""
    if not (0 < a < model.pp and 0 < b < model.pp):
        raise ValueError("heights a, b must lie in 1..p'-1")
    first_up, last_up, wing = _ends(Wings(e, f), b)
    want = _attain_mask(model.pp, attain)
    if not _joins(a, b, L):
        return {}
    states = _transfer_prefix(model.p, model.pp, a, L, first_up, want, True)
    width = L // 8 + 1
    last = _step(_vertex_moves(model.p, model.pp), [s for s in states if s[0][0] == b], L, a,
                 8 * width, want, True, wing)
    sums: dict[int, int] = {}
    for (_, up, mask, m), packed in last.items():
        if up == last_up and mask == want:
            sums[m] = sums.get(m, 0) + packed
    return {m: unpack_poly(packed, width) for m, packed in sums.items()}


def chi_tilde(model: Model, a: int, b: int, e: int, f: int, L: int,
              m: int | None = None, attain=None) -> QPoly:
    """Sum of q^wtilde(h) over winged paths, optionally restricted to m(h) = m."""
    table = chi_tilde_by_m(model, a, b, e, f, L, attain=attain)
    if m is not None:
        return table.get(m, QPoly.zero())
    return sum(table.values(), QPoly.zero())


def chi_tilde_restricted(model: Model, a: int, b: int, e: int, f: int, L: int,
                         m: int | None = None, S=None) -> QPoly:
    """As chi_tilde but over paths attaining every height of the interfacial set S."""
    S = frozenset(S or ())
    for s in S:
        if not model.is_interfacial(s):
            raise ValueError(f"height {s} is not interfacial in ({model.p},{model.pp})")
    return chi_tilde(model, a, b, e, f, L, m=m, attain=S)


# -- JSON interchange --------------------------------------------------------

def path_to_json(path: Path) -> dict:
    d = {"p": path.model.p, "pp": path.model.pp, "heights": list(path.heights)}
    if isinstance(path.boundary, PostSeg):
        d["boundary"] = {"c": path.boundary.c}
    else:
        d["boundary"] = {"e": path.boundary.e, "f": path.boundary.f}
    return d


def _json_int(x) -> int:
    if type(x) is not int:  # no bool, float or numeric string
        raise TypeError(f"{x!r} is not an integer")
    return x


def path_from_json(d: dict) -> Path:
    try:
        model = Model(_json_int(d["p"]), _json_int(d["pp"]))
        heights = tuple(_json_int(h) for h in d["heights"])
        bd = d["boundary"]
        if not isinstance(bd, dict):
            raise ValueError("boundary must be an object carrying c, or e and f")
        if "c" in bd:
            boundary: PostSeg | Wings = PostSeg(_json_int(bd["c"]))
        elif "e" in bd and "f" in bd:
            boundary = Wings(_json_int(bd["e"]), _json_int(bd["f"]))
        else:
            raise ValueError("boundary must carry either c or both e and f")
    except KeyError as exc:
        raise ValueError(f"malformed path JSON: missing {exc}") from exc
    except TypeError as exc:
        raise ValueError("malformed path JSON: p, pp, the heights and the "
                         f"boundary values must be integers ({exc})") from exc
    return Path(model, heights, boundary)
