"""The transform calculus: dilation, insertion, moves, flips, verifiers."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fbpaths import (
    Model, Path, TransformError, Wings, b1, b1_inverse, b2, b3, b_transform,
    bd_transform, d_transform, decompose, extend_left, extend_right,
    iter_height_seqs, path_stats, striking_sequence, truncate_left,
    truncate_right, verify_b_bijection, verify_bd_bijection, weight_wtilde,
    wings_path,
)
from fbpaths.paths import _score
from fbpaths.transforms import (
    _rewrite_window, _score_wings, move_particle_once, reverse_particle_move,
)
from helpers import (
    coprime_pairs, partitions_in_box, random_winged_walk, refill_search,
    striking_b1, striking_path_stats, winged_paths,
)

FIG1 = (2, 3, 4, 5, 4, 5, 6, 7, 6, 5, 6, 5, 4, 3, 4)


def test_b1_on_fig1():
    h0 = b1(wings_path(3, 8, FIG1, e=0, f=1))
    assert (h0.model.p, h0.model.pp) == (3, 11)
    assert (h0.a, h0.b, h0.L) == (2, 6, 22)
    h1 = b1(wings_path(3, 8, FIG1, e=1, f=1))
    assert (h1.a, h1.b, h1.L) == (3, 6, 21)


def test_b1_endpoint_and_stats_sweep():
    for p, pp in [(1, 3), (2, 3), (2, 5), (3, 8), (3, 4)]:
        m = Model(p, pp)
        for h in winged_paths(p, pp, 6):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0 and e != f:
                with pytest.raises(TransformError):
                    b1(h)
                continue
            st = path_stats(h)
            img = b1(h)
            sti = path_stats(img)
            assert img.a == h.a + m.floor_mult(h.a) + e
            assert img.b == h.b + m.floor_mult(h.b) + f
            assert sti.m == h.L
            if h.L > 0:  # the length bookkeeping assumes a nonempty path
                expect_L = 2 * h.L - st.m + (2 if (st.pi == 1 and e == st.d) else 0)
                assert img.L == expect_L
            else:
                assert img.L == 0
            assert sti.alpha == st.alpha + st.beta
            assert sti.beta == st.beta
            # weight shift
            assert 4 * (weight_wtilde(img) - weight_wtilde(h)) == \
                (img.L - sti.m) ** 2 - st.beta ** 2
            assert b1_inverse(img).heights == h.heights


def test_b1_striking_image():
    # dilation stretches every column by its scoring count
    for p, pp in [(2, 5), (3, 8)]:
        for h in winged_paths(p, pp, 6):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0:
                continue
            st = path_stats(h)
            ss = striking_sequence(h)
            img = b1(h)
            if img.L == 0:
                continue
            ssi = striking_sequence(img)
            cols = [(a + b, b) for a, b in ss.columns]
            if (e + st.d + st.pi) % 2 == 1:
                a1, b1_ = ss.columns[0]
                cols[0] = (a1 + b1_ + st.pi - 1, b1_ + st.pi)
                if cols[0][0] + cols[0][1] == 0:
                    cols = cols[1:]
            assert list(ssi.columns) == cols


@pytest.mark.parametrize("p, pp", [(1, 3), (1, 4), (2, 5), (3, 7), (3, 8), (2, 7)])
def test_b1_inverse_returns_exactly_the_preimage(p, pp):
    # dilation can shorten a path by one, so the preimages of every image
    # with L <= lmax have L <= lmax + 1
    lmax = 8
    preimage = {}
    for h in winged_paths(p, pp - p, lmax + 1):
        if h.L or h.boundary.e == h.boundary.f:  # b1 is undefined otherwise
            preimage[b1(h)] = h
    for path0 in winged_paths(p, pp, lmax):
        if path0 in preimage:
            assert b1_inverse(path0) == preimage[path0]
        else:
            with pytest.raises(TransformError, match="^path is not in the image of a dilation$"):
                b1_inverse(path0)


def test_b2_example_and_invariants():
    base = b1(wings_path(3, 8, FIG1, e=1, f=1))  # element of (3,11), L=21
    h2 = b2(base, 2)
    assert (h2.a, h2.b, h2.L) == (3, 6, 25)
    assert b2(base, 0) is base
    st0, st2 = path_stats(base), path_stats(h2)
    assert st2.m == st0.m
    with pytest.raises(TransformError):
        b2(wings_path(2, 3, (1, 2, 1), e=0, f=0), 1)  # p' < 2p


def test_b2_weight_shift_sweep():
    for p, pp in [(1, 3), (2, 5), (2, 3)]:
        for h in winged_paths(p, pp, 5):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0 and e != f:
                continue
            st = path_stats(h)
            img = b1(h)
            for k in (0, 1, 2, 3):
                hk = b2(img, k)
                stk = path_stats(hk)
                assert stk.m == path_stats(img).m
                assert hk.L == img.L + 2 * k
                assert 4 * (weight_wtilde(hk) - weight_wtilde(h)) == \
                    (hk.L - stk.m) ** 2 - st.beta ** 2


def test_b3_identity_and_bijection():
    # reachable finals are indexed by partitions in the k x m box,
    # each move raising the weight by one
    for p, pp in [(1, 3), (2, 3), (1, 4), (2, 5)]:
        for h in winged_paths(p, pp, 4):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0 and e != f:
                continue
            for k in range(0, 4):
                try:
                    hk = b2(b1(h), k)
                except TransformError:
                    continue
                mk = path_stats(hk).m
                if mk > 4:
                    continue
                assert b3(hk, (), k=k) is hk
                w0 = weight_wtilde(hk)
                seen = {}
                for lam in partitions_in_box(k, mk):
                    img = b3(hk, lam, k=k)
                    assert img.heights not in seen
                    seen[img.heights] = lam
                    assert weight_wtilde(img) == w0 + sum(lam)
                    assert img.L == hk.L
                    assert path_stats(img).m == mk


def _move_windows(path):
    """The arguments move_particle_once (after its slide) and
    reverse_particle_move hand to _rewrite_window, for every scoring pair."""
    model, hs = path.model, list(path.heights)
    e, f = path.boundary.e, path.boundary.f
    score = _score_wings(model, hs, e, f)
    windows = []

    def record(*args):
        windows.append(args)
        return _rewrite_window(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("fbpaths.transforms._rewrite_window", record)
        for v in range(path.L):
            if score[1][v] and score[1][v + 1]:
                for move in (move_particle_once, reverse_particle_move):
                    try:
                        move(model, hs, score, e, f, v)
                    except TransformError:
                        pass
    return windows


def _outcome(rewrite, args):
    try:
        return rewrite(*args)
    except TransformError:
        return TransformError


def _assert_moves_equal_refill_search(path):
    windows = _move_windows(path)
    for args in windows:
        assert _outcome(_rewrite_window, args) == _outcome(refill_search, args), args
    return len(windows)


def test_moves_equal_refill_search():
    # the two segment swaps find exactly what the +-1 refill search finds
    n = sum(_assert_moves_equal_refill_search(h)
            for p, pp in coprime_pairs(8) for h in winged_paths(p, pp, 6))
    assert n == 29768


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_moves_equal_refill_search_on_random_walks(data):
    _assert_moves_equal_refill_search(random_winged_walk(data, ppmax=40, max_steps=30))


def _outcome_of(fn, path):
    try:
        return fn(path)
    except TransformError as exc:
        return str(exc)


def _assert_equals_striking_oracles(path):
    assert path_stats(path) == striking_path_stats(path)
    assert _outcome_of(b1, path) == _outcome_of(striking_b1, path)


def test_stats_and_dilation_equal_striking_oracles():
    # the scoring flags give what the striking columns gave, on every path
    n = 0
    for p, pp in coprime_pairs(8):
        for h in winged_paths(p, pp, 8):
            _assert_equals_striking_oracles(h)
            n += 1
    assert n == 78416


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stats_and_dilation_equal_striking_oracles_on_random_walks(data):
    _assert_equals_striking_oracles(random_winged_walk(data, ppmax=40, max_steps=40))


def test_each_path_state_is_scored_once(monkeypatch):
    # path_stats scores once; b3 and decompose score once up front and then
    # only the (at most two) candidates of each of the sum(lam) moves, and
    # decompose's closing b1_inverse scores its input and the dilation of
    # its candidate
    calls = []

    def counting(*args):
        calls.append(1)
        return _score(*args)

    monkeypatch.setattr("fbpaths.paths._score", counting)
    monkeypatch.setattr("fbpaths.transforms._score", counting)
    n = 0
    for p, pp in [(1, 3), (2, 5), (3, 7), (3, 8)]:
        for h in winged_paths(p, pp, 4):
            for k in (0, 1, 2):
                try:
                    hk = b2(b1(h), k)
                except TransformError:
                    continue
                calls.clear()
                mk = path_stats(hk).m
                assert len(calls) == 1
                for lam in partitions_in_box(k, min(mk, 3)):
                    calls.clear()
                    img = b3(hk, lam, k=k)
                    assert len(calls) <= 1 + 2 * sum(lam), (hk, lam)
                    calls.clear()
                    _, _, lam2 = decompose(img)
                    assert len(calls) <= 3 + 2 * sum(lam2), (img, lam2)
                    n += 1
    assert n == 17914


def test_b3_rejects_bad_lambda():
    base = b2(b1(wings_path(1, 3, (1, 2, 1, 2, 1), e=0, f=0)), 1)
    m = path_stats(base).m
    with pytest.raises(TransformError):
        b3(base, (1, 2), k=2)  # not weakly decreasing
    with pytest.raises(TransformError):
        b3(base, (m + 1,), k=1)  # exceeds the box


def test_d_transform_properties():
    for p, pp in [(2, 5), (3, 8), (3, 5)]:
        for h in winged_paths(p, pp, 6):
            hd = d_transform(h)
            assert (hd.model.p, hd.model.pp) == (pp - p, pp)
            assert hd.heights == h.heights
            assert hd.boundary == Wings(1 - h.boundary.e, 1 - h.boundary.f)
            assert d_transform(hd).heights == h.heights
            st, std = path_stats(h), path_stats(hd)
            w, wd = weight_wtilde(h), weight_wtilde(hd)
            assert 4 * (w + wd) == h.L ** 2 - st.alpha ** 2
            if h.L > 0:
                assert std.pi == 1 - st.pi
                ss, ssd = striking_sequence(h), striking_sequence(hd)
                assert ssd.columns == tuple((b, a) for a, b in ss.columns)
                widths = ss.widths
                odd = sum(widths[0::2])
                even = sum(widths[1::2])
                assert w + wd == odd * even
                expect_m = h.L - st.m + (0 if (h.boundary.e + st.d + st.pi) % 2 == 0 else 2)
                assert std.m == expect_m


def test_bd_transform():
    # composition equals flip then stepwise dilation/insertion/moves
    h = wings_path(2, 5, (2, 3, 2, 1), e=0, f=1)
    out = bd_transform(h, 1, (1,))
    step = b3(b2(b1(d_transform(h)), 1), (1,), k=1)
    assert out.heights == step.heights and out.boundary == step.boundary
    assert (out.model.p, out.model.pp) == (3, 8)
    # length/count bookkeeping on a 3-step path
    for k in (0, 1, 2):
        st = path_stats(h)
        img = bd_transform(h, k, ())
        drop = 2 if (st.pi == 1 and h.boundary.e == st.d) else 0
        assert img.L == h.L + st.m + 2 * k - drop
        assert path_stats(img).m == h.L
    with pytest.raises(TransformError):
        bd_transform(wings_path(3, 5, (1, 2, 1), e=0, f=0), 0, ())  # needs p' > 2p


def test_decompose_round_trips():
    for p, pp in [(1, 3), (1, 4), (2, 5)]:
        m = Model(p, pp)
        # compose -> decompose over all bases, k <= 2
        for h in winged_paths(p, pp, 5):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0 and e != f:
                continue
            for k in (0, 1, 2):
                try:
                    hk = b2(b1(h), k)
                except TransformError:
                    continue
                mk = path_stats(hk).m
                for lam in partitions_in_box(k, min(mk, 3)):
                    img = b3(hk, lam, k=k)
                    base, k2, lam2 = decompose(img)
                    assert (base.heights, base.boundary, k2, lam2) == \
                        (h.heights, h.boundary, k, tuple(x for x in lam if x))
        # decompose -> compose over the whole stated domain
        for hp in winged_paths(p, pp, 6, require_delta_a=True, require_delta_b=True):
            try:
                base, k, lam = decompose(hp)
            except TransformError:
                continue  # confirmed non-images (see forward sweep above)
            back = b_transform(base, k, lam)
            assert back.heights == hp.heights and back.boundary == hp.boundary


def test_decompose_artifact_pair_not_counted():
    # dilation image of a base with an odd pre-segment band keeps the
    # excluded start pair; it must not count as a particle
    h = wings_path(2, 3, (1, 2, 1), e=0, f=0)  # delta(1,0)=1 in (2,3)
    img = b2(b1(h), 1)
    assert img.heights == (1, 2, 1, 2, 3, 2, 1)
    base, k, lam = decompose(img)
    assert (base.heights, k, lam) == ((1, 2, 1), 1, ())


def test_decompose_plain_path_has_no_particles():
    h = wings_path(2, 5, (1, 2, 3, 4), e=0, f=1)
    base, k, lam = decompose(h)
    assert k == 0 and lam == ()


def test_decompose_bd_direction():
    h = wings_path(2, 5, (2, 3, 2, 1), e=0, f=1)
    img = bd_transform(h, 1, (1,))
    base, k, lam = decompose(img, direction="BD")
    assert (base.heights, base.boundary, k, lam) == (h.heights, h.boundary, 1, (1,))


def test_decompose_returns_only_preimages():
    # whatever decompose returns, the forward map of its direction sends it
    # back; BD images have p' < 3p, since (q, q') with q' > 2q lands in
    # (q' - q, 2q' - q)
    forward = {"B": b_transform, "BD": bd_transform}
    returned = {"B": 0, "BD": 0}
    for p, pp in coprime_pairs(11):
        if pp <= 2 * p:
            continue
        for x in winged_paths(p, pp, 6):
            for d, fwd in forward.items():
                try:
                    base, k, lam = decompose(x, d)
                except TransformError:
                    continue
                back = fwd(base, k, lam)
                assert (back.model, back.heights, back.boundary) == \
                    (x.model, x.heights, x.boundary), (x, d)
                returned[d] += 1
    assert returned["B"] and returned["BD"]


def test_extend_left_right():
    for p, pp in [(3, 8), (2, 5)]:
        m = Model(p, pp)
        for h in winged_paths(p, pp, 6):
            e, f = h.boundary.e, h.boundary.f
            st = path_stats(h)
            w = weight_wtilde(h)
            if m.delta(h.a, e) == 0 and 1 <= h.a + (1 if e == 0 else -1) <= pp - 1:
                hl = extend_left(h)
                delta = 1 if e == 0 else -1
                assert hl.boundary.e == 1 - e
                assert hl.L == h.L + 1
                assert path_stats(hl).m == st.m
                assert 2 * (weight_wtilde(hl) - w) == h.L - st.m + delta * st.beta
                assert path_stats(hl).alpha == st.alpha - delta
                assert path_stats(hl).beta == st.beta - delta
            if m.delta(h.b, f) == 0 and 1 <= h.b + (1 if f == 0 else -1) <= pp - 1:
                hr = extend_right(h)
                delta = 1 if f == 0 else -1
                assert hr.boundary.f == 1 - f
                assert path_stats(hr).m == st.m
                assert 2 * (weight_wtilde(hr) - w) == h.L - delta * st.alpha
                assert path_stats(hr).alpha == st.alpha + delta
                assert path_stats(hr).beta == st.beta + delta
    with pytest.raises(TransformError):
        extend_left(wings_path(3, 8, (2, 3), e=0, f=0))  # delta(2,0)=1


def test_truncate_left_right():
    zig = wings_path(1, 3, (1, 2, 1, 2, 1), e=0, f=0)
    assert truncate_left(zig).heights == (2, 1, 2, 1)
    for p, pp in [(2, 5), (3, 8)]:
        m = Model(p, pp)
        for h in winged_paths(p, pp, 6):
            e, f = h.boundary.e, h.boundary.f
            if h.L >= 1 and ((h.a == 1 and e == 0) or (h.a == pp - 1 and e == 1)):
                ht = truncate_left(h)
                assert extend_left(ht).heights == h.heights
                assert extend_left(ht).boundary == h.boundary
                stt = path_stats(ht)
                # weight drop mirrors the left-extension gain
                delta = 1 if ht.boundary.e == 0 else -1
                assert 2 * (weight_wtilde(h) - weight_wtilde(ht)) == \
                    ht.L - stt.m + delta * stt.beta
            if h.L >= 1 and ((h.b == 1 and f == 0) or (h.b == pp - 1 and f == 1)):
                ht = truncate_right(h)
                assert extend_right(ht).heights == h.heights
                assert extend_right(ht).boundary == h.boundary
    with pytest.raises(TransformError):
        truncate_left(wings_path(3, 5, (1, 2), e=0, f=0))  # needs p' > 2p


def test_verify_b_bijection_small():
    for p, pp in [(1, 3), (2, 3)]:
        for a, b, e, f in product(range(1, pp), range(1, pp), (0, 1), (0, 1)):
            for m0, m1 in product(range(7), repeat=2):
                try:
                    rep = verify_b_bijection(p, pp, a, b, e, f, m0, m1)
                except TransformError:
                    assert Model(p, pp).delta(a, e) == 1
                    continue
                assert rep.equal, rep.params


def test_verify_b_bijection_special_case():
    # m1 = 0 with e != f: a single zigzag on the left side
    rep = verify_b_bijection(1, 3, 1, 1, 0, 1, 5, 0)
    assert rep.equal
    assert rep.lhs.terms == {(5 * 5 - 1) // 4: 1}


def test_verify_b_bijection_rejects_odd_presegment():
    with pytest.raises(TransformError):
        verify_b_bijection(3, 8, 2, 4, 0, 1, 4, 2)  # delta(2,0)=1


def test_verify_bd_bijection_small():
    for p, pp in [(3, 5), (2, 3)]:
        dual = Model(pp - p, pp)
        for a, b, e, f in product(range(1, pp), range(1, pp), (0, 1), (0, 1)):
            for m0, m1 in product(range(7), repeat=2):
                try:
                    rep = verify_bd_bijection(p, pp, a, b, e, f, m0, m1)
                except TransformError:
                    assert dual.delta(a, e) == 1
                    continue
                assert rep.equal, rep.params


def test_verify_bijections_with_restriction_set():
    # (3,5): interfacial heights of the small model away from the endpoints
    m = Model(3, 5)
    inter = m.interfacial_heights()
    assert inter
    s = inter[0]
    for a, b in product(range(1, 5), repeat=2):
        if s in (a, b):
            continue
        for e, f in product((0, 1), (0, 1)):
            for m0, m1 in product(range(5), repeat=2):
                try:
                    rep = verify_bd_bijection(3, 5, a, b, e, f, m0, m1, S={s})
                except TransformError:
                    continue
                assert rep.equal, rep.params


def test_interfacial_retention():
    for p, pp in [(2, 5), (1, 4)]:
        m = Model(p, pp)
        inter = m.interfacial_heights()
        for h in winged_paths(p, pp, 5, require_delta_a=True):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0 and e != f:
                continue
            for k in (0, 1, 2):
                hk = b2(b1(h), k)
                mk = path_stats(hk).m
                for lam in partitions_in_box(k, min(mk, 2)):
                    img = b3(hk, lam, k=k)
                    for s in inter:
                        if s in (h.a, h.b):
                            continue
                        r = m.floor_mult(s + 1)
                        assert (s in h.heights) == (s + r in img.heights)
