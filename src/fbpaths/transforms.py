"""Path transforms between band models and their bijection verifiers.

The building blocks: path dilation into the (p, p'+p) model, insertion of k
particles (adjacent pairs of scoring vertices), particle motion indexed by a
partition, the parity-flip map onto the (p'-p, p') model, and single-unit
extension/truncation at either end.  Dilation doubles the step into every
scoring vertex; its inverse rebuilds the path from its striking sequence
and keeps it only if it dilates back.
A particle moves one step by a local swap of two segment steps: the step
of one segment trades places with the step of the segment just before it
or of the one before that, and the scoring flags decide which.  A move is
handed the Score of the heights it starts from and returns that of the
heights it makes, so a chain of moves scores only its candidates.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .model import Model
from .paths import (
    Path, Score, Wings, _first_segment, _parity_table, _score, _striking,
    chi_tilde, chi_tilde_by_m, rebuild_heights,
)
from .qpoly import QPoly, gaussian


class TransformError(ValueError):
    """A transform was applied outside its domain."""


def _require_wings(path: Path) -> Wings:
    if not isinstance(path.boundary, Wings):
        raise TransformError("transforms act on winged paths")
    return path.boundary


# -- vertex scoring (wing convention) ----------------------------------------

def _score_wings(model: Model, heights, e: int, f: int) -> Score:
    """The Score of a winged height sequence."""
    return _score(_parity_table(model.p, model.pp), heights, e == 1, f == 0, True)


# -- path dilation -----------------------------------------------------------

def b1(path: Path) -> Path:
    """Dilate into the (p, p'+p) model.

    Built from the segment steps: the step into each vertex v = 1..L is
    kept, and doubled when v scores (a straight vertex inserted before it).
    When the 0th vertex does not score, the first step is doubled too if
    the band under it is odd (pi = 1) and dropped if it is even.  The
    heights start from a + floor(ap/p') + e.  Undefined for L = 0 with e != f.
    """
    wings = _require_wings(path)
    e, f = wings.e, wings.f
    if path.L == 0 and e != f:
        raise TransformError("dilation is undefined for L = 0 with e != f")
    model = path.model
    hs = path.heights
    _, flags = _score_wings(model, hs, e, f)
    steps = [hs[v] - hs[v - 1] for v in range(1, len(hs)) for _ in range(1 + flags[v])]
    if not flags[0]:
        pi, _ = _first_segment(path)
        steps = steps[:1] + steps if pi else steps[1:]
    # via a list: a tuple built from the iterator itself can keep an oversized block
    heights = list(accumulate(steps, initial=path.a + model.floor_mult(path.a) + e))
    return Path(Model(model.p, model.pp + model.p), tuple(heights), Wings(e, f))


def b1_inverse(path0: Path) -> Path:
    """Undo dilation: the path h of (p, p'-p) with b1(h) == path0.

    The candidate is read off the striking sequence: one straight vertex
    was inserted before every scoring vertex, so each line had width a_i,
    plus one on the first line when the 0th vertex does not score (a point
    path's 0th vertex scores exactly when e == f).  It is returned only if
    it dilates back to path0; TransformError otherwise.
    """
    wings = _require_wings(path0)
    model = path0.model
    if model.pp <= 2 * model.p:
        raise TransformError("inverse dilation needs p' > 2p")
    _, flags = _score_wings(model, path0.heights, wings.e, wings.f)
    ss = _striking(path0, flags)
    widths = [a_i for a_i, _ in ss.columns] or [0]
    widths[0] += not flags[0]
    a = path0.a - model.floor_mult(path0.a) - wings.e
    try:  # ValueError: off the grid; TransformError: a point path with e != f
        h = Path(Model(model.p, model.pp - model.p), rebuild_heights(widths, ss.d, a), wings)
        if b1(h).heights == tuple(path0.heights):  # b1 keeps the model and wings
            return h
    except ValueError:
        pass
    raise TransformError("path is not in the image of a dilation")


# -- particle insertion ------------------------------------------------------

def b2(path: Path, k: int) -> Path:
    """Insert k particles at the startpoint (pairs of opposite unit segments)."""
    wings = _require_wings(path)
    e, f = wings.e, wings.f
    model = path.model
    if k < 0:
        raise TransformError("particle count must be >= 0")
    if k == 0:
        return path
    if model.pp <= 2 * model.p:
        raise TransformError("particle insertion needs p' > 2p")
    if model.delta(path.a, e) != 0:
        raise TransformError("particle insertion needs the pre-segment in an even band")
    h0 = path.a
    step = 1 if e == 0 else -1
    if not 1 <= h0 + step <= model.pp - 1:
        raise TransformError("particle insertion leaves the grid")
    heights = tuple([h0, h0 + step] * k) + path.heights
    return Path(model, heights, Wings(e, f))


# -- particle moves ----------------------------------------------------------

def _rewrite_window(model: Model, heights: list[int], score: Score, e: int, f: int,
                    w0: int, after: tuple[bool, bool, bool], dw: int) -> tuple[list[int], Score]:
    """Re-route the three vertices w0..w0+2 so their scoring pattern becomes
    `after`, the weight changes by exactly dw, and m is preserved.

    score is the Score of `heights`; the result is the new heights with
    their own Score.  With s_i = h_{i+1} - h_i the step of
    segment i, a particle move swaps s_{w0+1} with s_{w0} or with s_{w0-1};
    swapping the steps of segments i < j shifts h_{i+1}..h_j by s_j - s_i
    and pins every other height.  Each candidate is scored on the whole
    path; exactly one of the two swaps must stay on the grid and pass the
    check.  Both callers pass 0 <= w0 <= L - 2.
    """
    j = w0 + 1
    old_w, old_flags = score
    old_m = old_flags.count(False)
    s_j = heights[j + 1] - heights[j]
    found = None
    for i in ((w0, w0 - 1) if w0 else (w0,)):  # segment w0-1 needs w0 >= 1
        shift = s_j - (heights[i + 1] - heights[i])
        moved = [h + shift for h in heights[i + 1:j + 1]]
        if not shift or not all(1 <= h < model.pp for h in moved):
            continue
        new_heights = heights[:i + 1] + moved + heights[j + 1:]
        w, flags = _score_wings(model, new_heights, e, f)
        if tuple(flags[w0:w0 + 3]) != after or w - old_w != dw \
                or flags.count(False) != old_m:
            continue
        if found is not None:
            raise RuntimeError("ambiguous particle move")
        found = new_heights, (w, flags)
    if found is None:
        raise TransformError("particle move is blocked")
    return found


def _dir_string(heights, i0: int, i1: int) -> str:
    return "".join("+" if heights[i + 1] > heights[i] else "-"
                   for i in range(max(i0, 0), min(i1, len(heights) - 1)))


def move_particle_once(model: Model, heights: list[int], score: Score, e: int, f: int,
                       v: int, trace: list | None = None) -> tuple[list[int], int, Score]:
    """Move the particle whose scoring pair starts at vertex v one step right.

    score is the Score of `heights`.  When the pair abuts further scoring
    vertices, the moving pair relabels to the last two of the scoring run
    (particles are indistinguishable, so the excitation slides along the
    run); refuses at the path end.  Returns the new heights, the new pair
    start v+1 and the new Score.
    """
    L = len(heights) - 1
    _, flags = score
    if not (v + 1 <= L and flags[v] and flags[v + 1]):
        raise TransformError(f"no scoring pair at vertices ({v},{v + 1})")
    while v + 2 <= L and flags[v + 2]:
        v += 1
    if v + 2 > L:
        raise TransformError("particle at the path end cannot move right")
    new_heights, new_score = _rewrite_window(model, heights, score, e, f, v, (False, True, True), +1)
    if trace is not None:  # _rewrite_window leaves `heights` as it was
        trace.append({"from_index": v, "move": _dir_string(heights, v - 1, v + 3) + ">"
                      + _dir_string(new_heights, v - 1, v + 3)})
    return new_heights, v + 1, new_score


def reverse_particle_move(model: Model, heights: list[int], score: Score, e: int, f: int,
                          v: int) -> tuple[list[int], int, Score]:
    """Move the scoring pair starting at vertex v one step left (inverse
    move), as move_particle_once; returns the pair start v-1."""
    L = len(heights) - 1
    _, flags = score
    if not (v + 1 <= L and flags[v] and flags[v + 1]):
        raise TransformError(f"no scoring pair at vertices ({v},{v + 1})")
    if v - 1 < 0 or flags[v - 1]:
        raise TransformError("reverse move needs a non-scoring vertex on the left")
    new_heights, new_score = _rewrite_window(model, heights, score, e, f, v - 1, (True, True, False), -1)
    return new_heights, v - 1, new_score


def b3(path: Path, lam, k: int | None = None, trace: list | None = None) -> Path:
    """Move the i-th rightmost inserted particle lam[i-1] steps to the right.

    Expects the k inserted particles stacked at the start (the b2 image);
    lam must be a partition with at most k parts and lam[0] <= m(path).
    """
    wings = _require_wings(path)
    e, f = wings.e, wings.f
    model = path.model
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(x < 0 for x in lam):
        raise TransformError("lambda must be a weakly decreasing partition")
    if k is None:
        k = len(lam)
    if len(lam) > k:
        raise TransformError(f"lambda has more than k={k} parts")
    if not lam or all(x == 0 for x in lam):
        return path
    if model.pp <= 2 * model.p:
        raise TransformError("particle moves need p' > 2p")
    if model.delta(path.a, e) != 0 or model.delta(path.b, f) != 0:
        raise TransformError("particle moves need even pre- and post-segment bands")
    heights = list(path.heights)
    score = _score_wings(model, heights, e, f)
    if lam[0] > score[1].count(False):
        raise TransformError("lambda_1 exceeds the number of non-scoring vertices")
    for i, steps in enumerate(lam):
        v = 2 * (k - 1 - i)
        for _ in range(steps):
            heights, v, score = move_particle_once(model, heights, score, e, f, v, trace=trace)
    return Path(model, tuple(heights), Wings(e, f))


def b_transform(path: Path, k: int, lam, trace: list | None = None) -> Path:
    """Dilation, then k particle insertions, then moves indexed by lam."""
    return b3(b2(b1(path), k), lam, k=k, trace=trace)


# -- parity-flip map ---------------------------------------------------------

def d_transform(path: Path) -> Path:
    """Same heights in the (p'-p, p') model, both wings flipped."""
    wings = _require_wings(path)
    return Path(path.model.dual(), path.heights, Wings(1 - wings.e, 1 - wings.f))


def bd_transform(path: Path, k: int, lam, trace: list | None = None) -> Path:
    """Parity flip followed by the full dilation/insertion/move composite."""
    if path.model.pp <= 2 * path.model.p:
        raise TransformError("the flip-then-dilate pair needs p' > 2p on the input model")
    return b_transform(d_transform(path), k, lam, trace=trace)


# -- unique decomposition ----------------------------------------------------

def _vertex_is_straight(heights, f: int, i: int) -> bool:
    """Both segments through vertex i point the same way (the last segment of
    the path continues into the post-segment direction given by f)."""
    L = len(heights) - 1
    into = heights[i] - heights[i - 1]
    out = (heights[i + 1] - heights[i]) if i < L else (1 if f == 0 else -1)
    return into == out


def decompose(path: Path, direction: str = "B") -> tuple[Path, int, tuple[int, ...]]:
    """Invert the composite transform: recover the unique (h, k, lambda).

    Scoring pairs are walked leftward (undoing moves) and parked at vertices
    (0,1), (2,3), ...; when the base path had its pre-segment in an odd band,
    dilation leaves one extra parked pair whose second vertex is straight (the
    non-particle artifact), which is excluded from the particle count k.
    direction "B" undoes dilation+insertion+moves; "BD" additionally undoes
    the leading parity flip (so the returned path lives in the flipped model).
    """
    wings = _require_wings(path)
    e, f = wings.e, wings.f
    model = path.model
    if direction not in ("B", "BD"):
        raise TransformError("direction must be 'B' or 'BD'")
    if model.pp <= 2 * model.p:
        raise TransformError("decomposition needs p' > 2p")
    if direction == "BD" and model.pp >= 3 * model.p:
        # bd_transform maps (q, q') with q' > 2q to (q' - q, 2q' - q): p' < 3p
        raise TransformError("path is not in the image of the composite transform")
    if model.delta(path.a, e) != 0 or model.delta(path.b, f) != 0:
        raise TransformError("decomposition needs even pre- and post-segment bands")
    heights = list(path.heights)
    L = path.L
    mu: list[int] = []
    j = 0
    _, flags = score = _score_wings(model, heights, e, f)  # each reverse move hands on its score
    while True:
        v = next((c for c in range(2 * j, L) if flags[c] and flags[c + 1]), None)
        if v is None:
            break
        if 2 * (j + 1) > L:
            raise TransformError("path is not in the image of the composite transform")
        moves = 0
        while v > 2 * j:
            if flags[v - 1]:
                v -= 1  # relabel: the pair slides left over a scoring vertex
            else:
                heights, v, score = reverse_particle_move(model, heights, score, e, f, v)
                _, flags = score
                moves += 1
        mu.append(moves)
        j += 1
    k = j
    if k and _vertex_is_straight(heights, f, 2 * k - 1):
        k -= 1  # last parked pair is the dilation artifact, not a particle
    lam = tuple(x for x in reversed(mu) if x)  # canonical partition: positive parts
    if len(lam) > k:
        raise TransformError("path is not in the image of the composite transform")
    if k:
        stacked = heights[:2 * k + 1]
        if any(stacked[i] != path.a for i in range(0, 2 * k + 1, 2)) or \
           any(abs(stacked[i] - path.a) != 1 for i in range(1, 2 * k, 2)):
            raise TransformError("reversed particles did not stack at the startpoint")
    base = b1_inverse(Path(model, tuple(heights[2 * k:]), Wings(e, f)))
    return (d_transform(base) if direction == "BD" else base), k, lam


# -- extension and truncation -------------------------------------------------

def extend_left(path: Path) -> Path:
    """Prepend the pre-segment as a real segment; flips e."""
    wings = _require_wings(path)
    e = wings.e
    model = path.model
    if model.delta(path.a, e) != 0:
        raise TransformError("left extension needs the pre-segment in an even band")
    a_new = path.a + (1 if e == 0 else -1)
    if not 1 <= a_new <= model.pp - 1:
        raise TransformError("left extension leaves the grid")
    return Path(model, (a_new,) + path.heights, Wings(1 - e, wings.f))


def extend_right(path: Path) -> Path:
    """Append the post-segment as a real segment; flips f."""
    wings = _require_wings(path)
    f = wings.f
    model = path.model
    if model.delta(path.b, f) != 0:
        raise TransformError("right extension needs the post-segment in an even band")
    b_new = path.b + (1 if f == 0 else -1)
    if not 1 <= b_new <= model.pp - 1:
        raise TransformError("right extension leaves the grid")
    return Path(model, path.heights + (b_new,), Wings(wings.e, 1 - f))


def truncate_left(path: Path) -> Path:
    """Drop the first segment; defined at the extreme heights when p' > 2p."""
    wings = _require_wings(path)
    e = wings.e
    model = path.model
    if model.pp <= 2 * model.p:
        raise TransformError("left truncation needs p' > 2p")
    if not ((path.a == 1 and e == 0) or (path.a == model.pp - 1 and e == 1)):
        raise TransformError("left truncation needs a = 1 with e = 0, or a = p'-1 with e = 1")
    if path.L < 1:
        raise TransformError("nothing to truncate")
    return Path(model, path.heights[1:], Wings(1 - e, wings.f))


def truncate_right(path: Path) -> Path:
    """Drop the last segment; defined at the extreme heights when p' > 2p."""
    wings = _require_wings(path)
    f = wings.f
    model = path.model
    if model.pp <= 2 * model.p:
        raise TransformError("right truncation needs p' > 2p")
    if not ((path.b == 1 and f == 0) or (path.b == model.pp - 1 and f == 1)):
        raise TransformError("right truncation needs b = 1 with f = 0, or b = p'-1 with f = 1")
    if path.L < 1:
        raise TransformError("nothing to truncate")
    return Path(model, path.heights[:-1], Wings(wings.e, 1 - f))


# -- generating-function identity verifiers -----------------------------------

class BijectionReport(namedtuple("BijectionReport", "params equal lhs rhs mismatch")):
    """An identity check: the params dict, whether lhs == rhs, and the first
    mismatch (exponent, lhs coefficient, rhs coefficient) or None."""
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.equal


def _first_mismatch(lhs: QPoly, rhs: QPoly):
    """(exponent, lhs coefficient, rhs coefficient) at the lowest exponent where
    the two differ, or None when they are equal."""
    if lhs == rhs:
        return None
    exps = sorted(set(lhs.terms) | set(rhs.terms))
    for ex in exps:
        cl, cr = lhs.coeff(ex), rhs.coeff(ex)
        if cl != cr:
            return ex, cl, cr


def _report(params: dict, lhs: QPoly, rhs: QPoly) -> BijectionReport:
    mm = _first_mismatch(lhs, rhs)
    return BijectionReport(params=params, equal=mm is None, lhs=lhs, rhs=rhs, mismatch=mm)


def _times_prefactor(poly: QPoly, quad: int) -> QPoly:
    """poly * q^(quad/4).  The quadratic form quad need not be divisible by
    4, but then poly must be zero; RuntimeError otherwise."""
    exp, frac = divmod(quad, 4)
    if frac and poly:
        raise RuntimeError("bijection prefactor has a fractional exponent")
    return poly.shift(exp)


def _check_restriction_set(model: Model, S, a: int, b: int) -> frozenset[int]:
    S = frozenset(S or ())
    for s in S:
        if not model.is_interfacial(s):
            raise TransformError(f"{s} is not interfacial in ({model.p},{model.pp})")
        if s == a or s == b:
            raise TransformError("the restriction set must avoid the endpoints")
    return S


def verify_b_bijection(p: int, pp: int, a: int, b: int, e: int, f: int,
                       m0: int, m1: int, S=None) -> BijectionReport:
    """Check the dilation identity between (p, p') and (p, p'+p) exactly.

    Left side: paths of length m0 with m = m1 in the bigger model, from the
    transfer recurrence.  Right side: Gaussian-weighted sum of length-m1
    counts in the smaller model, shifted by the quadratic prefactor.
    """
    model = Model(p, pp)
    if model.delta(a, e) != 0:
        raise TransformError("the dilation identity needs delta(a, e) = 0")
    S = _check_restriction_set(model, S, a, b)
    S_big = frozenset(s + model.floor_mult(s + 1) for s in S)
    a_new = a + e + model.floor_mult(a)
    b_new = b + f + model.floor_mult(b)
    big = Model(p, pp + p)
    lhs = chi_tilde(big, a_new, b_new, e, f, L=m0, m=m1, attain=S_big)
    beta = model.floor_mult(b) - model.floor_mult(a) + f - e
    rhs = QPoly.zero()
    for m, piece in chi_tilde_by_m(model, a, b, e, f, m1, attain=S).items():
        if m % 2 == m0 % 2:
            rhs = rhs + gaussian((m0 + m) // 2, m1) * piece
    rhs = _times_prefactor(rhs, (m0 - m1) ** 2 - beta ** 2)
    params = {"p": p, "pp": pp, "a": a, "b": b, "e": e, "f": f,
              "m0": m0, "m1": m1, "S": sorted(S)}
    return _report(params, lhs, rhs)


def verify_bd_bijection(p: int, pp: int, a: int, b: int, e: int, f: int,
                        m0: int, m1: int, S=None) -> BijectionReport:
    """Check the flip-then-dilate identity between (p'-p, p') and (p, p'+p).

    Needs p < p' < 2p; the inner generating function enters at q -> 1/q.
    """
    if not p < pp < 2 * p:
        raise TransformError("the flip-then-dilate identity needs p < p' < 2p")
    model = Model(p, pp)
    dual = model.dual()
    if dual.delta(a, e) != 0:
        raise TransformError("needs delta(a, e) = 0 in the flipped model")
    S = _check_restriction_set(model, S, a, b)
    S_big = frozenset(s + model.floor_mult(s + 1) for s in S)
    a_new = a + 1 - e + model.floor_mult(a)
    b_new = b + 1 - f + model.floor_mult(b)
    big = Model(p, pp + p)
    lhs = chi_tilde(big, a_new, b_new, 1 - e, 1 - f, L=m0, m=m1, attain=S_big)
    alpha = b - a
    beta = model.floor_mult(b) - model.floor_mult(a) + (1 - f) - (1 - e)
    rhs = QPoly.zero()
    for m, piece in chi_tilde_by_m(dual, a, b, e, f, m1, attain=S).items():
        if m % 2 == (m0 - m1) % 2:
            rhs = rhs + gaussian((m0 + m1 - m) // 2, m1) * piece.invert_q()
    rhs = _times_prefactor(rhs, m1 ** 2 + (m0 - m1) ** 2 - alpha ** 2 - beta ** 2)
    params = {"p": p, "pp": pp, "a": a, "b": b, "e": e, "f": f,
              "m0": m0, "m1": m1, "S": sorted(S)}
    return _report(params, lhs, rhs)
