"""Path weights, striking sequences, enumeration, generating functions."""

import json
import pickle
import re
from itertools import groupby, product
from operator import itemgetter
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings, strategies as st

import fbpaths.cli as cli
import fbpaths.paths as paths
from fbpaths import (
    Model, Path, PostSeg, QPoly, Wings, build_system, chi, chi_tilde, chi_tilde_by_m,
    chi_tilde_restricted, classify_vertex, continued_fraction, d_transform,
    iter_height_seqs, mn_solutions, path_from_json, path_stats, path_to_json,
    postseg_path, striking_sequence, verify_b_bijection,
    weight_from_striking, weight_wt, weight_wtilde, wings_path,
)
from helpers import (
    beta_closed_form, coprime_pairs, enumerate_paths, enumeration_tallies,
    random_winged_walk, step_count, tallied, tallied_by_m, winged_paths,
)

FIXTURES = FsPath(__file__).parent / "fixtures"


def fig1_postseg() -> Path:
    return path_from_json(json.loads((FIXTURES / "fig1.json").read_text()))


def fig1_wings(e: int, f: int = 1) -> Path:
    return wings_path(3, 8, fig1_postseg().heights, e, f)


def zigzag13(L, a=1, e=0, f=0) -> Path:
    hs = [a + (i % 2) if a == 1 else a - (i % 2) for i in range(L + 1)]
    return wings_path(1, 3, hs, e, f)


def test_path_validation():
    for make, message in [
        (lambda: postseg_path(3, 8, [1, 3], c=2), "step h_0->h_1 is not +-1"),
        (lambda: postseg_path(3, 8, [1, 2], c=4), "post-segment endpoint c=4 is not b+-1"),
        (lambda: postseg_path(3, 8, [6, 7], c=8), "c=8 outside 1..7"),
        (lambda: postseg_path(3, 8, [0, 1], c=2), "height 0 outside 1..7"),
        (lambda: postseg_path(3, 8, [], c=2), "a path needs at least h_0"),
        (lambda: wings_path(3, 8, [1, 2], e=2, f=0), "wings e, f must be 0 or 1"),
        # _replace runs the same checks
        (lambda: Wings(0, 1)._replace(f=-1), "wings e, f must be 0 or 1"),
        (lambda: wings_path(3, 8, [1, 2], 0, 0)._replace(heights=(1, 3)),
         "step h_0->h_1 is not +-1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_value_types_are_immutable_tuples_that_pickle():
    path = fig1_wings(0)
    system = build_system(3, 8, 2, 2)
    values = [Model(3, 8), continued_fraction(3, 8), PostSeg(3), Wings(0, 1), path,
              fig1_postseg(), striking_sequence(path), path_stats(path), system,
              system.trace, mn_solutions(system, 6)[0],
              verify_b_bijection(1, 3, 1, 1, 0, 1, 5, 0)]
    assert len({type(v) for v in values}) == 11
    for value in values:
        assert value == tuple(value) and len(value) == len(value._fields)
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        assert pickle.loads(pickle.dumps(value)) == value


def test_each_path_is_checked_once(monkeypatch):
    # the benchmark's tracer counts Path objects by patching Path.__post_init__
    calls = []
    check = Path.__post_init__
    monkeypatch.setattr(Path, "__post_init__", lambda self: calls.append(check(self)))
    path = wings_path(3, 8, [2, 3, 4], 0, 1)
    assert len(calls) == 1
    ss = striking_sequence(path)
    Path(path.model, paths.rebuild_heights(ss.widths, ss.d, path.a), Wings(ss.e, ss.f))
    Path(path.model, path.heights, PostSeg(5))
    assert len(calls) == 3


def test_fig1_weight_and_scoring():
    h = fig1_postseg()
    assert weight_wt(h) == 24
    scoring = [i for i in range(1, 15) if classify_vertex(h, i)[2]]
    assert scoring == [3, 4, 5, 7, 8, 13, 14]
    with pytest.raises(ValueError):
        classify_vertex(h, 0)  # no pre-segment on a post-segment path


def test_fig1_vertex_shapes():
    h = fig1_postseg()
    assert classify_vertex(h, 3) == ("peak-up", "even", True)
    assert classify_vertex(h, 4) == ("peak-down", "even", True)
    assert classify_vertex(h, 5) == ("straight-up", "odd", True)
    assert classify_vertex(h, 6) == ("straight-up", "even", False)
    assert classify_vertex(h, 8) == ("straight-down", "odd", True)


def test_zigzag_all_scoring():
    h = zigzag13(6)
    for i in range(1, 7):
        assert classify_vertex(h, i)[2]


def test_weight_empty_path():
    assert weight_wt(postseg_path(3, 8, [2], c=3)) == 0
    assert weight_wtilde(wings_path(3, 8, [2], e=0, f=0)) == 0


def test_seed_paths():
    for L in range(0, 11, 2):
        h = zigzag13(L)
        assert weight_wtilde(h) == (L // 2) ** 2
        assert path_stats(h).m == 0
        h22 = zigzag13(L, a=2, e=1, f=1)
        assert weight_wtilde(h22) == (L // 2) ** 2
        assert path_stats(h22).m == 0
    for L in range(1, 11, 2):
        h = zigzag13(L, e=0, f=1)
        assert weight_wtilde(h) == (L * L - 1) // 4
        assert path_stats(h).m == 0


def test_wtilde_matches_wt_when_postsegment_even():
    for p, pp in coprime_pairs(8):
        m = Model(p, pp)
        for h in winged_paths(p, pp, 6):
            f = h.boundary.f
            c = h.b + (1 if f == 0 else -1)
            if not 1 <= c <= pp - 1 or m.delta(h.b, f) != 0:
                continue
            hp = Path(m, h.heights, PostSeg(c))
            assert weight_wtilde(h) == weight_wt(hp)


def test_fig1_striking_sequence():
    for e in (0, 1):
        h = fig1_wings(e)
        ss = striking_sequence(h)
        assert ss.columns == ((2, 1), (0, 1), (1, 2), (1, 1), (1, 0), (2, 1), (0, 1))
        assert (ss.e, ss.f, ss.d) == (e, 1, 0)
        st = path_stats(h)
        assert st.m == 8 - e
        assert st.alpha == 2
        assert st.beta == 2 - e
        assert weight_from_striking(ss) == 24


def test_zigzag_striking():
    ss = striking_sequence(zigzag13(4))
    assert ss.columns == ((0, 1),) * 4
    assert weight_from_striking(ss) == 4  # 0+1+1+2


def test_weight_from_striking_single_column():
    ss = striking_sequence(wings_path(3, 8, [2, 3, 4, 5], e=0, f=1))
    assert len(ss.columns) == 1
    assert weight_from_striking(ss) == 0


def test_striking_lemma_and_stats_sweep():
    # weight formula, closed forms for alpha/beta, parity of m+L+beta,
    # round-trip reconstruction -- one pass over small models
    for p, pp in coprime_pairs(8):
        m = Model(p, pp)
        for h in winged_paths(p, pp, 6):
            ss = striking_sequence(h)
            st = path_stats(h)
            w = weight_wtilde(h)
            e, f = h.boundary.e, h.boundary.f
            assert sum(ss.widths) == h.L
            assert weight_from_striking(ss) == w
            assert st.alpha == h.b - h.a
            assert st.beta == beta_closed_form(m, h.a, h.b, e, f)
            assert (st.m + h.L + st.beta) % 2 == 0
            assert 0 <= st.m <= h.L + 1
            if h.L > 0:
                assert paths.rebuild_heights(ss.widths, ss.d, h.a) == h.heights


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scoring_laws_on_random_walks(data):
    # the fixed grids above stop at p' <= 8 and L <= 12
    h = random_winged_walk(data, ppmax=40, max_steps=40)
    model, pp, f = h.model, h.model.pp, h.boundary.f
    w = weight_wtilde(h)
    assert weight_from_striking(striking_sequence(h)) == w
    assert 4 * (w + weight_wtilde(d_transform(h))) == h.L ** 2 - (h.b - h.a) ** 2
    assert path_stats(h).m == sum(not classify_vertex(h, i)[2] for i in range(h.L + 1))
    c = h.b + (1 if f == 0 else -1)
    if model.delta(h.b, f) == 0 and 1 <= c <= pp - 1:
        assert w == weight_wt(Path(model, h.heights, PostSeg(c)))


def test_enumeration_matches_count_oracle():
    for p, pp in [(3, 8), (2, 5), (1, 4)]:
        m = Model(p, pp)
        for a, b in product(range(1, pp), repeat=2):
            for L in range(0, 7):
                n = len(list(iter_height_seqs(m, a, b, L)))
                assert n == step_count(pp, a, b, L)


def test_enumerate_impossible_parity_is_empty():
    assert enumerate_paths(Model(3, 8), 2, 3, PostSeg(2), 4) == []


def test_enumerate_unique_zigzag():
    paths = enumerate_paths(Model(1, 3), 1, 1, Wings(0, 0), 4)
    assert len(paths) == 1
    assert paths[0].heights == (1, 2, 1, 2, 1)


def test_enumerate_with_required_heights():
    m = Model(3, 8)
    everything = enumerate_paths(m, 2, 4, PostSeg(3), 6)
    hitting = enumerate_paths(m, 2, 4, PostSeg(3), 6, required={6})
    assert set(p.heights for p in hitting) == {
        p.heights for p in everything if 6 in p.heights}


def test_monotone_path_scores_only_at_the_end():
    # straight vertices inside even bands are silent; only the final peak
    # can contribute (and its 45-degree coordinate happens to vanish here)
    h = postseg_path(1, 5, [1, 2, 3, 4], c=3)
    for i in (1, 2):
        shape, parity, scoring = classify_vertex(h, i)
        assert shape == "straight-up" and parity == "even" and not scoring
    shape, parity, scoring = classify_vertex(h, 3)
    assert shape == "peak-up" and scoring
    assert weight_wt(h) == (3 - (4 - 1)) // 2  # x-coordinate of vertex 3


def test_chi_examples():
    m13 = Model(1, 3)
    for L in range(0, 9, 2):
        assert chi(m13, 1, 1, 2, L) == QPoly.q_int(L * L // 4)
    assert chi(Model(3, 8), 2, 2, 3, 0) == QPoly.one()
    assert chi(Model(3, 8), 2, 4, 3, 14).coeff(24) >= 1


def test_chi_split_at_top_of_submodel():
    # paths either attain y_n or stay inside the (z_n, y_n) model
    m = Model(3, 8)  # y_n = 3, z_n = 1
    for a, b in product((1, 2), repeat=2):
        for L in range((a + b) % 2, 9, 2):
            for c in (b - 1, b + 1):
                if not 1 <= c <= 2:
                    continue
                total = chi(m, a, b, c, L)
                upper = chi(m, a, b, c, L, attain={3})
                inner = chi(Model(1, 3), a, b, c, L)
                assert total == upper + inner


def test_chi_tilde_e_independence():
    for p, pp in [(3, 8), (2, 5)]:
        m = Model(p, pp)
        for a, b in product(range(1, pp), repeat=2):
            for f in (0, 1):
                for L in range((a + b) % 2, 7, 2):
                    assert chi_tilde(m, a, b, 0, f, L) == chi_tilde(m, a, b, 1, f, L)


def test_chi_tilde_m_split():
    m = Model(2, 5)
    for a, b, e, f in product(range(1, 5), range(1, 5), (0, 1), (0, 1)):
        for L in range((a + b) % 2, 7, 2):
            by_m = chi_tilde_by_m(m, a, b, e, f, L)
            beta = beta_closed_form(m, a, b, e, f)
            for mval in by_m:
                assert (mval + L + beta) % 2 == 0
                assert 0 <= mval <= L + 1
            total = chi_tilde(m, a, b, e, f, L)
            summed = QPoly.zero()
            for mm in range((L + beta) % 2, L + 2, 2):
                summed = summed + chi_tilde(m, a, b, e, f, L, m=mm)
            assert total == summed
    # m beyond L+1 is empty
    assert chi_tilde(Model(2, 5), 1, 1, 0, 0, 4, m=6) == QPoly.zero()


def test_chi_tilde_seed_values():
    m13 = Model(1, 3)
    for L in range(0, 9, 2):
        assert chi_tilde(m13, 1, 1, 0, 0, L, m=0) == QPoly.q_int(L * L // 4)
        assert chi_tilde(m13, 1, 1, 0, 0, L, m=2) == QPoly.zero()
        assert chi_tilde(m13, 2, 2, 1, 1, L, m=0) == QPoly.q_int(L * L // 4)
    for L in range(1, 9, 2):
        assert chi_tilde(m13, 1, 2, 0, 1, L, m=0) == QPoly.q_int((L * L - 1) // 4)
        assert chi_tilde(m13, 2, 1, 1, 0, L, m=0) == QPoly.q_int((L * L - 1) // 4)


def test_chi_tilde_restricted():
    m = Model(3, 8)
    assert chi_tilde_restricted(m, 2, 4, 0, 1, 6, S=set()) == chi_tilde(m, 2, 4, 0, 1, 6)
    # 6 is interfacial but unreachable from 2 -> 4 in 2 steps
    assert chi_tilde_restricted(m, 2, 4, 0, 1, 2, S={6}) == QPoly.zero()
    with pytest.raises(ValueError):
        chi_tilde_restricted(m, 2, 4, 0, 1, 6, S={4})  # 4 is not interfacial


def test_transfer_equals_enumeration_on_the_sweep_grid():
    # the identity-sweep grid, p' <= 8 and L <= 12: every a, b, c and wing
    # pair, unrestricted and restricted to each single interfacial height
    wings = [Wings(e, f) for e, f in product((0, 1), repeat=2)]
    for p, pp in coprime_pairs(8):
        model = Model(p, pp)
        S = model.interfacial_heights()
        for a, b in product(range(1, pp), repeat=2):
            posts = [PostSeg(c) for c in (b - 1, b + 1) if 1 <= c <= pp - 1]
            for L in range((a + b) % 2, 13, 2):
                tallies = enumeration_tallies(model, a, b, L, posts + wings, S)
                for attain in [(), *((s,) for s in S)]:
                    where = (p, pp, a, b, L, attain)
                    for bd in posts:
                        assert chi(model, a, b, bd.c, L, attain=attain) == \
                            tallied(tallies, bd, attain), (where, bd)
                    for bd in wings:
                        assert chi_tilde_by_m(model, a, b, bd.e, bd.f, L, attain=attain) == \
                            tallied_by_m(tallies, bd, attain), (where, bd)


LEAF_BUDGET = 3000  # paths the enumeration oracle scores per example


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transfer_equals_enumeration_property(data):
    # beyond the sweep grid: p' <= 40, L <= 20, random wings and attain sets
    p, pp = data.draw(st.sampled_from(coprime_pairs(40)), label="(p, pp)")
    model = Model(p, pp)
    a = data.draw(st.integers(1, pp - 1), label="a")
    b = data.draw(st.integers(1, pp - 1), label="b")
    par = (a + b) % 2
    L = data.draw(st.integers(0, (20 - par) // 2).map(lambda k: 2 * k + par), label="L")
    # the oracle scores every path: lower L by 2 until that fits
    while step_count(pp, a, b, L) > LEAF_BUDGET:
        L -= 2
    S = model.interfacial_heights()
    attain = data.draw(st.sets(st.sampled_from(S), max_size=3) if S else st.just(set()),
                       label="attain")
    c = data.draw(st.sampled_from([c for c in (b - 1, b + 1) if 1 <= c <= pp - 1]), label="c")
    e, f = data.draw(st.integers(0, 1), label="e"), data.draw(st.integers(0, 1), label="f")
    post, wing = PostSeg(c), Wings(e, f)
    tallies = enumeration_tallies(model, a, b, L, [post, wing], attain)
    assert chi(model, a, b, c, L, attain=attain) == tallied(tallies, post, attain)
    by_m = tallied_by_m(tallies, wing, attain)
    assert chi_tilde_by_m(model, a, b, e, f, L, attain=attain) == by_m
    for m in range(L + 2):
        assert chi_tilde(model, a, b, e, f, L, m=m, attain=attain) == \
            by_m.get(m, QPoly.zero())


def test_chi_computes_one_prefix_per_model_start_and_length():
    # the transfer prefix does not depend on b or c: over the tasks of the
    # identity-sweep grid, the calls sharing (p, p', a, L) compute it once
    tasks = list(cli.iter_identity_tasks(8, 12, ("enumerate", "bosonic")))
    paths._transfer_prefix.cache_clear()
    for p, pp, a, b, c, L, _ in tasks:
        chi(Model(p, pp), a, b, c, L)
    shared = {(p, pp, a, L) for p, pp, a, _, _, L, _ in tasks}
    assert paths._transfer_prefix.cache_info().misses == len(shared) == 1300


@pytest.mark.parametrize("lmax, models", [(12, coprime_pairs(8)), (17, [(3, 8)])])
def test_chi_block_equals_chi_on_the_sweep_grid(lmax, models):
    # one transfer out of a gives chi for every task of its identity-sweep
    # block; at L <= 17 the table packs 3 bytes a coefficient where chi packs
    # 1, 2 or 3, and its absent tuples are the zero polynomial
    tasks = cli.iter_identity_tasks(8, lmax, ("enumerate", "bosonic"))
    for (p, pp, a), block in groupby((t for t in tasks if t[:2] in models), itemgetter(0, 1, 2)):
        model = Model(p, pp)
        table = paths.chi_block(model, a, lmax)
        keys = {(b, c, L) for _, _, _, b, c, L, _ in block}
        assert set(table) <= keys
        for b, c, L in keys:
            assert table.get((b, c, L), QPoly.zero()) == chi(model, a, b, c, L), (p, pp, a, b, c, L)


def test_chi_block_rejects_a_start_outside_the_grid():
    for a in (0, 8):
        with pytest.raises(ValueError, match="1..p'-1"):
            paths.chi_block(Model(3, 8), a, 6)


def test_unreachable_endpoints_compute_no_prefix():
    # L of the wrong parity or |b - a| > L: no path joins a to b, so neither
    # generating function builds (or caches) a transfer prefix for it
    m = Model(3, 8)
    paths._transfer_prefix.cache_clear()
    for a, b, L in [(2, 3, 4), (2, 2, 5), (1, 6, 3), (7, 1, 4), (4, 2, 0)]:
        for c in (b - 1, b + 1):
            if 1 <= c <= 7:
                assert chi(m, a, b, c, L) == QPoly.zero()
        for e, f in product((0, 1), repeat=2):
            assert chi_tilde_by_m(m, a, b, e, f, L) == {}
    assert paths._transfer_prefix.cache_info().misses == 0


def test_chi_rejects_heights_outside_the_grid():
    m = Model(3, 8)
    for a, b, c, attain in [(0, 2, 1, None), (2, 8, 7, None), (2, 4, 3, {9}),
                            (2, 4, 3, {0})]:
        with pytest.raises(ValueError, match="1..p'-1"):
            chi(m, a, b, c, 6, attain=attain)
    # parity-impossible tuples and L < 0 stay zero, as in the bosonic form
    assert chi(m, 2, 3, 4, 4) == chi(m, 2, 2, 3, -2) == QPoly.zero()


@pytest.mark.parametrize("e, f, attain, match", [
    (2, 0, None, "wings e, f must be 0 or 1"),
    (0, 5, None, "wings e, f must be 0 or 1"),
    (-1, 1, None, "wings e, f must be 0 or 1"),
    (0, 0, {9}, "1..p'-1"),
    (1, 0, {0}, "1..p'-1"),
    (1, 1, {3, 8}, "1..p'-1"),
])
def test_chi_tilde_rejects_wings_and_heights_outside_the_grid(e, f, attain, match):
    m = Model(3, 8)
    with pytest.raises(ValueError, match=match):
        chi_tilde(m, 2, 4, e, f, 6, attain=attain)
    with pytest.raises(ValueError, match=match):
        chi_tilde_by_m(m, 2, 4, e, f, 6, attain=attain)


def test_path_json_round_trip():
    h = fig1_postseg()
    assert path_from_json(path_to_json(h)) == h
    hw = fig1_wings(0)
    assert path_from_json(path_to_json(hw)) == hw
    with pytest.raises(ValueError):
        path_from_json({"p": 3, "pp": 8, "heights": [1, 3], "boundary": {"c": 2}})
    with pytest.raises(ValueError):
        path_from_json({"p": 3, "pp": 8, "heights": [1, 2], "boundary": {}})
