"""Acceptance criteria: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every tolerance is exact (polynomial identity over the integers).
"""

import json
import time
from itertools import product
from pathlib import Path as FsPath

from fbpaths import (
    Model, Path, QPoly, Wings, b1, b2, b3, b_transform, bd_transform, bosonic,
    build_system, c_from_b, chi, classify_vertex, continued_fraction,
    d_transform, decompose, fermionic_classical, fermionic_modified,
    fermionic_terms, gaussian, gaussian_modified, groundstate_label,
    iter_height_seqs, path_from_json, path_stats,
    rocha_caridi_truncated, striking_sequence, truncate_left, truncate_right,
    verify_b_bijection, verify_bd_bijection, weight_from_striking, weight_wt,
    weight_wtilde, wings_path,
)
from fbpaths.paths import rebuild_heights
from fbpaths.transforms import TransformError, extend_left, extend_right
from helpers import (
    beta_closed_form, beta_prime, box_partition_oracle, coprime_pairs, dense_rows,
    partitions_in_box, submodel_parity_check, winged_paths,
)

FIXTURES = FsPath(__file__).parent / "fixtures"


def report(num, text, t0):
    print(f"criterion {num}: PASS — {text} [{time.time() - t0:.1f}s]")


def test_criterion_1_golden_path():
    t0 = time.time()
    h = path_from_json(json.loads((FIXTURES / "fig1.json").read_text()))
    assert (h.model.p, h.model.pp, h.a, h.b, h.boundary.c, h.L) == (3, 8, 2, 4, 3, 14)
    assert weight_wt(h) == 24
    scoring = [i for i in range(1, 15) if classify_vertex(h, i)[2]]
    assert scoring == [3, 4, 5, 7, 8, 13, 14]
    report(1, "golden path weight 24, scoring vertices 3,4,5,7,8,13,14", t0)


def test_criterion_2_golden_tables():
    t0 = time.time()
    tak = continued_fraction(11, 38)
    assert tak.cf == (3, 2, 5)
    assert tak.t_bounds[1:] == (2, 4, 9) and tak.t == 8
    assert tuple(tak.y_of(k) for k in range(-1, 4)) == (0, 1, 3, 7, 38)
    assert tuple(tak.z_of(k) for k in range(-1, 4)) == (1, 0, 1, 2, 11)
    assert tak.kappa[:8] == (1, 2, 3, 4, 7, 10, 17, 24)
    assert tak.kappa_tilde[:8] == (1, 1, 1, 1, 2, 3, 5, 7)
    assert tak.ell[1:] == (1, 2, 1, 4, 3, 10, 17, 24)
    sys = build_system(9, 31, 1, 1)
    assert [list(r) for r in dense_rows(sys, 0)] == [
        [2, -1, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0],
        [0, -1, 1, 1, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, -1, 1, 1, 0],
        [0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, -1, 2],
    ]
    assert [list(r) for r in dense_rows(sys, 1)] == [
        [-1, 2, -1, 0, 0, 0, 0],
        [0, -1, 1, 1, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, -1, 1, 1, 0],
        [0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, -1, 2],
        [0, 0, 0, 0, 0, 0, -1],
    ]
    report(2, "continued-fraction tables for 38/11 and matrices for (9,31)", t0)


def iter_abc(pp):
    for a, b in product(range(1, pp), repeat=2):
        for c in (b - 1, b + 1):
            if 1 <= c <= pp - 1:
                yield a, b, c


def test_criterion_3_bosonic_equals_brute_force():
    t0 = time.time()
    n = 0
    for p, pp in coprime_pairs(8):
        m = Model(p, pp)
        for a, b, c in iter_abc(pp):
            for L in range((a + b) % 2, 13, 2):
                assert bosonic(p, pp, a, b, c, L) == chi(m, a, b, c, L), \
                    (p, pp, a, b, c, L)
                n += 1
    report(3, f"bosonic = enumeration on {n} tuples (p' <= 8, L <= 12)", t0)


def fermionic_grid():
    for p, pp in coprime_pairs(8):
        tak = continued_fraction(p, pp)
        members = sorted(tak.T | tak.T_prime)
        for a, b in product(members, repeat=2):
            c = c_from_b(p, pp, b)
            for L in range((a + b) % 2, 13, 2):
                yield p, pp, a, b, c, L


def test_criterion_4_main_theorem_classical():
    t0 = time.time()
    n = 0
    branches = set()
    for p, pp, a, b, c, L in fermionic_grid():
        assert fermionic_classical(p, pp, a, b, L) == bosonic(p, pp, a, b, c, L), \
            (p, pp, a, b, c, L)
        tak = continued_fraction(p, pp)
        yn = tak.y_of(tak.n)
        if a < yn and b < yn:
            branches.add("lower")
        elif a > pp - yn and b > pp - yn:
            branches.add("upper")
        else:
            branches.add("none")
        n += 1
    assert branches == {"lower", "upper", "none"}
    report(4, f"classical fermionic = bosonic on {n} tuples, all tail branches hit", t0)


def test_criterion_5_main_theorem_modified():
    t0 = time.time()
    n = 0
    for p, pp, a, b, c, L in fermionic_grid():
        cls = fermionic_classical(p, pp, a, b, L)
        mod = fermionic_modified(p, pp, a, b, L)
        assert cls == mod, (p, pp, a, b, c, L)
        n += 1
    # the grid tuple (3,8,1,1,L=4) exercises an annihilation term: the
    # modified sum has an extra summand with a negative particle count
    # against a zero slot, and the term multisets differ while sums agree
    sys = build_system(3, 8, 1, 1)
    classical_terms = fermionic_terms(sys, 4, modified=False)
    modified_terms = fermionic_terms(sys, 4, modified=True)
    extra = {t[0] for t in modified_terms} - {t[0] for t in classical_terms}
    assert extra
    for m_hat in extra:
        nvec = next(t[1] for t in modified_terms if t[0] == m_hat)
        assert any(v == -1 for v in nvec) and 0 in m_hat
    assert sorted(map(str, (t[2] for t in classical_terms))) != \
        sorted(map(str, (t[2] for t in modified_terms)))
    assert fermionic_modified(3, 8, 1, 1, 4) == fermionic_classical(3, 8, 1, 1, 4)
    report(5, f"modified = classical on {n} tuples; annihilation term multiset "
              f"differs at (3,8,1,1,L=4) while sums agree", t0)


def test_criterion_6_transform_calculus():
    t0 = time.time()
    nb = 0
    for p, pp in coprime_pairs(6):
        m = Model(p, pp)
        for a, b, e, f in product(range(1, pp), range(1, pp), (0, 1), (0, 1)):
            if m.delta(a, e) != 0:
                continue
            for m0, m1 in product(range(9), repeat=2):
                rep = verify_b_bijection(p, pp, a, b, e, f, m0, m1)
                assert rep.equal, rep.params
                nb += 1
    nd = 0
    for p, pp in coprime_pairs(8):
        if not p < pp < 2 * p:
            continue
        dual = Model(pp - p, pp)
        for a, b, e, f in product(range(1, pp), range(1, pp), (0, 1), (0, 1)):
            if dual.delta(a, e) != 0:
                continue
            for m0, m1 in product(range(9), repeat=2):
                rep = verify_bd_bijection(p, pp, a, b, e, f, m0, m1)
                assert rep.equal, rep.params
                nd += 1
    report(6, f"dilation identity on {nb} tuples (p' <= 6), "
              f"flip-dilation on {nd} tuples (p < p' < 2p <= 16)", t0)


def test_criterion_7_lemma_suite():
    t0 = time.time()
    counts = {}

    def tick(name):
        counts[name] = counts.get(name, 0) + 1

    # single pass over all winged paths, p' <= 8, L <= 10
    for p, pp in coprime_pairs(8):
        m = Model(p, pp)
        for h in winged_paths(p, pp, 10):
            e, f = h.boundary.e, h.boundary.f
            st = path_stats(h)
            w = weight_wtilde(h)
            ss = striking_sequence(h)
            # weight-from-striking
            assert weight_from_striking(ss) == w
            tick("striking-weight")
            # closed forms for alpha and beta
            assert st.alpha == h.b - h.a
            assert st.beta == beta_closed_form(m, h.a, h.b, e, f)
            tick("alpha-beta")
            if h.L:
                assert rebuild_heights(ss.widths, ss.d, h.a) == h.heights
            # parity-flip map
            hd = d_transform(h)
            std = path_stats(hd)
            wd = weight_wtilde(hd)
            assert 4 * (w + wd) == h.L ** 2 - st.alpha ** 2
            if h.L:
                assert std.pi == 1 - st.pi
                assert std.m == h.L - st.m + (0 if (e + st.d + st.pi) % 2 == 0 else 2)
            tick("parity-flip")
            # dilation bullets and weight shift
            if not (h.L == 0 and e != f):
                img = b1(h)
                sti = path_stats(img)
                assert sti.m == h.L
                assert sti.alpha == st.alpha + st.beta and sti.beta == st.beta
                if h.L:
                    assert img.L == 2 * h.L - st.m + \
                        (2 if (st.pi == 1 and e == st.d) else 0)
                assert 4 * (weight_wtilde(img) - w) == \
                    (img.L - sti.m) ** 2 - st.beta ** 2
                tick("dilation")
                # insertion: m preserved, weight shift, k <= 3
                for k in (1, 2, 3):
                    hk = b2(img, k)
                    stk = path_stats(hk)
                    assert stk.m == sti.m and hk.L == img.L + 2 * k
                    assert 4 * (weight_wtilde(hk) - w) == \
                        (hk.L - stk.m) ** 2 - st.beta ** 2
                tick("insertion")
            # extension lemmas
            if m.delta(h.a, e) == 0 and 1 <= h.a + (1 if e == 0 else -1) <= pp - 1:
                hl = extend_left(h)
                d_ = 1 if e == 0 else -1
                assert path_stats(hl).m == st.m
                assert 2 * (weight_wtilde(hl) - w) == h.L - st.m + d_ * st.beta
                tick("extend-left")
            if m.delta(h.b, f) == 0 and 1 <= h.b + (1 if f == 0 else -1) <= pp - 1:
                hr = extend_right(h)
                d_ = 1 if f == 0 else -1
                assert path_stats(hr).m == st.m
                assert 2 * (weight_wtilde(hr) - w) == h.L - d_ * st.alpha
                tick("extend-right")
            # truncation lemmas (inverse + weight drop)
            if pp > 2 * p and h.L >= 1:
                if (h.a == 1 and e == 0) or (h.a == pp - 1 and e == 1):
                    ht = truncate_left(h)
                    back = extend_left(ht)
                    assert back.heights == h.heights and back.boundary == h.boundary
                    stt = path_stats(ht)
                    d_ = 1 if ht.boundary.e == 0 else -1
                    assert 2 * (w - weight_wtilde(ht)) == ht.L - stt.m + d_ * stt.beta
                    tick("truncate-left")
                if (h.b == 1 and f == 0) or (h.b == pp - 1 and f == 1):
                    ht = truncate_right(h)
                    back = extend_right(ht)
                    assert back.heights == h.heights and back.boundary == h.boundary
                    tick("truncate-right")

    # particle moves and unique decomposition (p' > 2p, k <= 3)
    for p, pp in [(1, 3), (1, 4), (2, 5), (3, 7), (3, 8)]:
        m = Model(p, pp)
        for h in winged_paths(p, pp, 6):
            e, f = h.boundary.e, h.boundary.f
            if h.L == 0 and e != f:
                continue
            for k in (0, 1, 2, 3):
                try:
                    hk = b2(b1(h), k)
                except TransformError:
                    continue
                mk = path_stats(hk).m
                if mk > 4:
                    continue
                w0 = weight_wtilde(hk)
                seen = set()
                for lam in partitions_in_box(min(k, 3), mk):
                    img = b3(hk, lam, k=k)
                    assert img.heights not in seen
                    seen.add(img.heights)
                    # every move adds exactly one (move-count lemma)
                    assert weight_wtilde(img) == w0 + sum(lam)
                    assert path_stats(img).m == mk and img.L == hk.L
                    tick("moves")
                    base, k2, lam2 = decompose(img)
                    assert (base.heights, base.boundary, k2, lam2) == \
                        (h.heights, h.boundary, k, tuple(x for x in lam if x))
                    tick("unique-decomposition")
        # decompose -> compose on the stated domain
        for hp in winged_paths(p, pp, 8, require_delta_a=True, require_delta_b=True):
            try:
                base, k, lam = decompose(hp)
            except TransformError:
                continue  # confirmed non-image (outside the bijection's range)
            back = b_transform(base, k, lam)
            assert back.heights == hp.heights and back.boundary == hp.boundary
            tick("decompose-compose")

    # Takahashi band structure, submodel segmentation, parity vector
    for p, pp in coprime_pairs(40):
        tak = continued_fraction(p, pp)
        for j in range(tak.t + 1):
            z = tak.zone_of(j)
            assert tak.kappa[j] * p // pp == tak.kappa_tilde[j] - (1 - z % 2)
            if j >= tak.t_bounds[1]:
                assert tak.kappa_tilde[j] * pp // p == tak.kappa[j] - (z % 2)
        tick("takahashi-bands")
        assert submodel_parity_check(Model(p, pp))
        tick("segmentation")
        members = sorted(tak.T | tak.T_prime)
        for a, b in product(members, repeat=2):
            sys = build_system(p, pp, a, b)
            Q = list(sys.Q) + [0, 0]
            alpha, beta_p = sys.trace.alpha, beta_prime(sys)
            for j in range(sys.t + 1):
                assert alpha[j] % 2 == Q[j] % 2
                assert (beta_p[j] - Q[j] + Q[j + 1]) % 2 == 0
            assert alpha[0] == b - a
            tick("parity-vector")

    summary = ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
    report(7, f"lemma suite checks — {summary}", t0)


def test_criterion_8_gaussian_oracle():
    t0 = time.time()
    n = 0
    for a in range(13):
        for b in range(a + 1):
            assert gaussian(a, b) == box_partition_oracle(b, a - b)
            n += 1
    for m_ in range(13):
        for n_ in range(13 - m_):
            g = gaussian(m_ + n_, m_)
            assert g.invert_q() == g.shift(-m_ * n_)
            gm = gaussian_modified(m_ + n_, m_)
            assert gm.invert_q() == gm.shift(-m_ * n_)
    for a in range(-6, 7):
        for b in range(0, 7):
            gm = gaussian_modified(a, b)
            assert gm.invert_q() == gm.shift(-b * (a - b))
    report(8, f"gaussian = box-partition oracle on {n} pairs; inversion laws hold", t0)


def test_criterion_9_limit_stabilization():
    t0 = time.time()
    for p, pp in [(2, 5), (3, 5), (3, 7)]:
        a, b, c = 1, 2, 1
        r = groundstate_label(p, pp, b, c)
        m = Model(p, pp)
        for L in range(13, 18, 2):  # the odd lengths in 12..18 for a-b odd
            N = L // 4
            lo = chi(m, a, b, c, L).truncate(N)
            hi = chi(m, a, b, c, L + 2).truncate(N)
            series = rocha_caridi_truncated(p, pp, r, a, N)
            assert lo == hi == series, (p, pp, L)
    report(9, "finitized characters stabilize onto the truncated series", t0)


def test_limit_stabilization_at_large_L():
    # criterion 9 at L = 61, 63, out of reach of enumerating path by path
    for p, pp in [(2, 5), (3, 5), (3, 7)]:
        a, b, c = 1, 2, 1
        r = groundstate_label(p, pp, b, c)
        m = Model(p, pp)
        for L in (61, 63):
            N = L // 4
            lo = chi(m, a, b, c, L).truncate(N)
            hi = chi(m, a, b, c, L + 2).truncate(N)
            assert lo == hi == rocha_caridi_truncated(p, pp, r, a, N), (p, pp, L)
