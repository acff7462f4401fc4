"""Bosonic and fermionic closed forms, the mn-system, truncated series."""

import sys
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from fbpaths import (
    Model, QPoly, bosonic, build_system, c_from_b, c_from_b_info, chi, chi_tilde_by_m,
    continued_fraction, fermionic_classical, fermionic_modified,
    fermionic_terms, flat_sharp, groundstate_label, mn_solutions,
    gaussian, gaussian_modified, partition_series, rocha_caridi_truncated,
)
import fbpaths.characters as characters
from fbpaths.characters import (
    _bosonic_terms, _fermionic_walk, _form_terms, _iter_admissible_m, _packed_sum,
    _summands, _sum_bound,
)
from fbpaths.qpoly import guard_width, unpack_poly
from helpers import (
    beta_prime, coprime_pairs, dense_exponents, dense_parity, dense_rows,
    leaf_filtered_walk, recursive_walk, sparse_fermionic, sparse_summands, sparse_sum,
    step_count, unpruned_walk_size, walk_outcome,
)


def takahashi_members(p, pp):
    tak = continued_fraction(p, pp)
    return sorted(tak.T | tak.T_prime)


def test_bosonic_equals_enumeration_small():
    for p, pp in [(1, 3), (2, 3), (2, 5), (3, 8)]:
        m = Model(p, pp)
        for a, b in product(range(1, pp), repeat=2):
            for c in (b - 1, b + 1):
                if not 1 <= c <= pp - 1:
                    continue
                for L in range((a + b) % 2, 9, 2):
                    assert bosonic(p, pp, a, b, c, L) == chi(m, a, b, c, L)


def test_bosonic_trivia():
    assert bosonic(3, 8, 5, 5, 4, 0) == QPoly.one()
    for L in range(0, 9, 2):
        assert bosonic(1, 3, 1, 1, 2, L) == QPoly.q_int(L * L // 4)
    assert bosonic(3, 8, 1, 2, 3, 4) == QPoly.zero()  # L + a - b odd
    with pytest.raises(ValueError):
        bosonic(3, 8, 1, 2, 4, 5)  # c != b +- 1
    with pytest.raises(ValueError, match="c = b"):
        bosonic(3, 8, 1, 2, 4, -1)  # no term at L < 0, and still c != b +- 1


def test_bosonic_reflection_law():
    # chi(q) = q^{(L^2-alpha^2)/4} chi_dual(1/q)
    for p, pp in coprime_pairs(8):
        for a, b in product(range(1, pp), repeat=2):
            for c in (b - 1, b + 1):
                if not 1 <= c <= pp - 1:
                    continue
                for L in range((a + b) % 2, 9, 2):
                    lhs = bosonic(p, pp, a, b, c, L)
                    dual = bosonic(pp - p, pp, a, b, c, L)
                    rhs = dual.invert_q().shift((L * L - (b - a) ** 2) // 4)
                    assert lhs == rhs


def test_bosonic_exponents_are_non_negative():
    # every term of every p' <= 16 model: as L grows by 2 the lambda range
    # of each sum grows at both ends, and no exponent depends on L, so the
    # terms at L = 6p' + parity are those of every smaller L of that parity
    count = 0
    for p, pp in coprime_pairs(16):
        for a, b in product(range(1, pp), repeat=2):
            for c in (b - 1, b + 1):
                if 1 <= c <= pp - 1:
                    exps = [e for e, _, _ in _bosonic_terms(p, pp, a, b, c, 6 * pp + (a + b) % 2)]
                    assert exps and min(exps) >= 0, (p, pp, a, b, c)
                    count += len(exps)
    assert count > 100_000


def test_a_negative_bosonic_exponent_raises(monkeypatch):
    # r = p + 1 lies outside 0..p, and the positive sum's lam = -1 term then
    # has exponent p - p' < 0: a packed sum cannot shift by it
    monkeypatch.setattr(characters, "groundstate_label", lambda p, pp, b, c: p + 1)
    with pytest.raises(RuntimeError, match="negative exponent"):
        bosonic(3, 8, 1, 2, 3, 21)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_forms_decode_to_the_forms_within_their_bounds(data):
    # the identity sweep's packed values, taken apart, are the sums of the
    # sparse oracles, and every coefficient keeps below the bound that sizes
    # their width
    p, pp = data.draw(st.sampled_from(coprime_pairs(20)), label="(p, pp)")
    members = takahashi_members(p, pp)
    a = data.draw(st.sampled_from(members), label="a")
    b = data.draw(st.sampled_from(members), label="b")
    L = data.draw(st.integers(0, 10).map(lambda k: 2 * k + (a + b) % 2), label="L")
    c = c_from_b(p, pp, b)
    system = build_system(p, pp, a, b)
    split, low, *bounds = _fermionic_walk(system, L)
    width = guard_width(max(bounds + [1 << L]))
    packed = [_packed_sum(_bosonic_terms(p, pp, a, b, c, L), width, low)] + \
        [_packed_sum(_form_terms(system, L, split, modified), width, low)
         for modified in (False, True)]
    forms = [sparse_sum(_bosonic_terms(p, pp, a, b, c, L)),
             sparse_fermionic(system, L, False), sparse_fermionic(system, L, True)]
    for value, form, bound in zip(packed, forms, [1 << L] + bounds):
        assert unpack_poly(value, width, low) == form
        assert max(map(abs, form.terms.values()), default=0) <= bound
    assert len(set(packed)) == 1


terms_of_the_packer = st.lists(st.tuples(
    st.integers(-3, 12),
    st.lists(st.integers(0, 8).flatmap(lambda top: st.tuples(st.just(top), st.integers(0, top))),
             max_size=3).map(tuple),
    st.sampled_from([1, -1]),
), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(terms=terms_of_the_packer)
def test_packed_sum_decodes_any_signed_terms_within_their_bound(terms):
    # the one packer on terms no closed form produces: up to three Gaussians
    # a term, both signs, exponents below q^0, at the width of their bound
    bound = _sum_bound(terms)
    width = guard_width(bound)
    low = min(e for e, _, _ in terms)
    form = sparse_sum(terms)
    assert unpack_poly(_packed_sum(terms, width, low), width, low) == form
    assert max(map(abs, form.terms.values()), default=0) <= bound


def test_groundstate_label():
    assert groundstate_label(2, 5, 2, 1) == 1
    assert groundstate_label(3, 8, 4, 3) == 2


def test_c_from_b():
    assert c_from_b(3, 8, 1) == 2
    assert c_from_b(3, 8, 7) == 6
    assert c_from_b(11, 38, 2) == 1    # 1 < b <= t_1
    assert c_from_b(11, 38, 37) == 38 - 2
    assert c_from_b_info(3, 8, 4) == (5, True)  # interfacial, both admissible
    # interfacial b: either post-segment endpoint gives the same polynomial
    m = Model(3, 8)
    for b in (3, 5):
        for a in range(1, 8):
            for L in range((a + b) % 2, 9, 2):
                assert chi(m, a, b, b - 1, L) == chi(m, a, b, b + 1, L)


def test_build_system_golden_9_31():
    sys = build_system(9, 31, 1, 1)
    assert sys.tak.cf == (3, 2, 4)
    assert sys.t == 7
    assert sys.tak.t_bounds[1:] == (2, 4, 8)
    C = [
        (2, -1, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0),
        (0, -1, 1, 1, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, -1, 1, 1, 0),
        (0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, -1, 2),
    ]
    C_hat = [
        (-1, 2, -1, 0, 0, 0, 0),
        (0, -1, 1, 1, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, -1, 1, 1, 0),
        (0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, -1, 2),
        (0, 0, 0, 0, 0, 0, -1),
    ]
    assert [list(r) for r in dense_rows(sys, 0)] == [list(r) for r in C]
    assert [list(r) for r in dense_rows(sys, 1)] == [list(r) for r in C_hat]
    assert sys.trace.alpha[sys.t] == sys.trace.beta[sys.t] == sys.trace.gamma[sys.t] == 0


def test_build_system_rejects_non_takahashi_heights():
    with pytest.raises(ValueError):
        build_system(11, 38, 5, 1)
    with pytest.raises(ValueError):
        build_system(11, 38, 1, 33)


def test_build_system_symmetric_endpoints():
    sys = build_system(11, 38, 10, 10)
    assert sys.u_L == sys.u_R
    assert sys.delta_L == sys.delta_R
    assert sys.trace.alpha[0] == 0


def test_flat_sharp():
    tak = continued_fraction(11, 38)
    u = tuple(1 for _ in range(tak.t))
    fl = flat_sharp(u, tak, "flat")
    sh = flat_sharp(u, tak, "sharp")
    assert tuple(a + b for a, b in zip(fl, sh)) == u[: tak.t - 1]
    # basis vector in zone 1 (odd) survives flat, dies under sharp
    e3 = tuple(1 if j == 3 else 0 for j in range(1, tak.t + 1))
    assert tak.zone_of(3) == 1
    assert flat_sharp(e3, tak, "flat")[2] == 1
    assert flat_sharp(e3, tak, "sharp")[2] == 0
    zero = tuple(0 for _ in range(tak.t))
    assert all(v == 0 for v in flat_sharp(zero, tak, "flat"))
    assert all(v == 0 for v in flat_sharp(zero, tak, "sharp"))


def test_parity_invariants_sweep():
    # alpha_j = alpha''_j = Q_j, beta'_j = Q_j - Q_{j+1} (mod 2); alpha_0 = b - a
    for p, pp in coprime_pairs(24):
        members = takahashi_members(p, pp)
        for a, b in product(members, repeat=2):
            sys = build_system(p, pp, a, b)
            Q = list(sys.Q) + [0, 0]
            alpha, beta_p = sys.trace.alpha, beta_prime(sys)
            for j in range(sys.t + 1):
                assert alpha[j] % 2 == Q[j] % 2
                assert (beta_p[j] - Q[j] + Q[j + 1]) % 2 == 0
            assert alpha[0] == b - a


def test_parity_vector_equals_dense_back_substitution():
    for p, pp in coprime_pairs(40):
        tak = continued_fraction(p, pp)
        members = takahashi_members(p, pp)
        C_hat = dense_rows(build_system(p, pp, members[0], members[0]), 1)  # one per model
        # the reading changes a system only for n = 0, where T and T' overlap
        for prefer_t_prime in ((False, True) if tak.n == 0 else (False,)):
            for a, b in product(members, repeat=2):
                sys = build_system(p, pp, a, b, prefer_t_prime)
                u = [x + y for x, y in zip(sys.u_L, sys.u_R)]
                assert sys.Q == dense_parity(C_hat, u), (p, pp, a, b, prefer_t_prime)


def test_exponent_equals_dense_quadratic_form():
    n = 0
    for p, pp in coprime_pairs(13):
        for a, b in product(takahashi_members(p, pp), repeat=2):
            sys = build_system(p, pp, a, b)
            for L, modified in product(range((a + b) % 2, 12, 2), (False, True)):
                terms = fermionic_terms(sys, L, modified)
                # every factor is a Gaussian with constant term 1
                assert [term.min_exp() for _, _, term in terms] == \
                    dense_exponents(sys, [m_hat for m_hat, _, _ in terms]), (p, pp, a, b, L)
                n += len(terms)
    assert n


def test_q0_matches_length_parity():
    for p, pp in [(3, 8), (2, 7), (3, 5)]:
        members = takahashi_members(p, pp)
        for a, b in product(members, repeat=2):
            sys = build_system(p, pp, a, b)
            assert sys.Q[0] % 2 == (b - a) % 2


def test_mn_solutions():
    for p, pp in [(3, 8), (2, 7), (2, 5)]:
        members = takahashi_members(p, pp)
        for a, b in product(members, repeat=2):
            sys = build_system(p, pp, a, b)
            u = tuple(x + y for x, y in zip(sys.u_L, sys.u_R))
            ell = sys.tak.ell
            for L in range((a + b) % 2, 9, 2):
                sols = mn_solutions(sys, L)
                terms = fermionic_terms(sys, L, modified=False)
                assert sorted(s.m_hat for s in sols) == sorted(t[0] for t in terms)
                for s in sols:
                    assert s.m_hat[0] == L and all(v >= 0 for v in s.m_hat)
                    assert all(v >= 0 for v in s.n)
                    weighted = sum(ell[i] * s.n[i - 1] for i in range(1, sys.t + 1))
                    total = L + sum(ell[i] * u[i - 1] for i in range(1, sys.t + 1))
                    assert 2 * weighted == total


def test_mn_single_zone():
    sys = build_system(1, 3, 1, 1)
    assert sys.t == 1
    for L in range(0, 10, 2):
        sols = mn_solutions(sys, L)
        assert len(sols) == 1 and sols[0].m_hat == (L,)
    assert mn_solutions(sys, 3) == []  # wrong parity


def test_fermionic_equals_bosonic_wide():
    for p, pp in coprime_pairs(8):
        members = takahashi_members(p, pp)
        for a, b in product(members, repeat=2):
            c = c_from_b(p, pp, b)
            for L in range((a + b) % 2, 9, 2):
                bos = bosonic(p, pp, a, b, c, L)
                assert fermionic_classical(p, pp, a, b, L) == bos
                assert fermionic_modified(p, pp, a, b, L) == bos


def test_fermionic_recursion_branches():
    # (3,8): y_n = 3, so a,b in {1,2} hits the lower branch, {6,7} the upper
    tak = continued_fraction(3, 8)
    yn = tak.y_of(tak.n)
    assert yn == 3
    for (a, b) in [(1, 1), (2, 2), (1, 2)]:
        for L in range((a + b) % 2, 11, 2):
            assert fermionic_classical(3, 8, a, b, L) == \
                bosonic(3, 8, a, b, c_from_b(3, 8, b), L)
    for (a, b) in [(6, 6), (7, 7), (6, 7)]:
        for L in range((a + b) % 2, 11, 2):
            assert fermionic_classical(3, 8, a, b, L) == \
                bosonic(3, 8, a, b, c_from_b(3, 8, b), L)
    for (a, b) in [(1, 7), (2, 6), (3, 3)]:
        for L in range((a + b) % 2, 11, 2):
            assert fermionic_classical(3, 8, a, b, L) == \
                bosonic(3, 8, a, b, c_from_b(3, 8, b), L)


def test_fermionic_degenerate_1_3():
    for L in range(0, 13, 2):
        val = QPoly.q_int(L * L // 4)
        assert fermionic_classical(1, 3, 1, 1, L) == val
        assert fermionic_modified(1, 3, 1, 1, L) == val


def test_annihilation_term():
    # (3,8), a = b = 1: the modified sum picks up terms with a negative
    # particle count against a zero slot; sums still agree
    sys = build_system(3, 8, 1, 1)
    for L in (2, 4, 6):
        classical = {t[0] for t in fermionic_terms(sys, L, modified=False)}
        modified = {t[0] for t in fermionic_terms(sys, L, modified=True)}
        extra = modified - classical
        assert extra, "expected an annihilation term"
        for m_hat in extra:
            assert m_hat[1] == 0  # the zero slot carrying [-1 over 0]' = 1
        assert fermionic_modified(3, 8, 1, 1, L) == fermionic_classical(3, 8, 1, 1, L)


def test_prefer_t_prime_branch():
    # n = 0 overlap: the complemented reading computes the character with
    # the up-down-reflected endpoint convention (c chosen for p' - b)
    pp = 5
    tak = continued_fraction(1, pp)
    for a, b in product(sorted(tak.T | tak.T_prime), repeat=2):
        for L in range((a + b) % 2, 9, 2):
            assert fermionic_classical(1, pp, a, b, L) == \
                bosonic(1, pp, a, b, c_from_b(1, pp, b), L)
            if a in tak.T_prime and b in tak.T_prime:
                c_reflected = pp - c_from_b(1, pp, pp - b)
                assert fermionic_classical(1, pp, a, b, L, prefer_t_prime=True) == \
                    bosonic(1, pp, a, b, c_reflected, L)


def test_fermionic_exponent_integrality():
    # gamma + 1 leaves every summand's quadratic form odd, so not a multiple of 4
    system = build_system(5, 8, 1, 1)
    rows = system.exponent_rows
    broken = system._replace(gamma=system.gamma + 1)
    # the copy computes its own exponent rows, not the cached system's
    assert "exponent_rows" not in vars(broken)
    assert broken.exponent_rows == rows and broken.exponent_rows is not rows
    for L in range(4, 13, 2):  # both forms have summands from L = 4 on
        for modified in (False, True):
            assert fermionic_terms(system, L, modified)
            with pytest.raises(RuntimeError):
                fermionic_terms(broken, L, modified)


def test_partition_series():
    ps = partition_series(8)
    assert [ps.coeff(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_rocha_caridi_truncated():
    rc = rocha_caridi_truncated(2, 5, 1, 1, 0)
    assert rc.coeff(0) == 1
    for n1, n2 in [(2, 5), (3, 6)]:
        big = rocha_caridi_truncated(2, 5, 1, 1, n2)
        assert big.truncate(n1) == rocha_caridi_truncated(2, 5, 1, 1, n1)
    with pytest.raises(ValueError):
        rocha_caridi_truncated(2, 5, 1, 1, -1)


def test_stabilization_to_series():
    for p, pp in [(2, 5), (3, 5), (3, 7)]:
        a, b, c = 1, 2, 1
        r = groundstate_label(p, pp, b, c)
        m = Model(p, pp)
        for L in (13, 15):
            N = L // 4
            assert chi(m, a, b, c, L).truncate(N) == \
                chi(m, a, b, c, L + 2).truncate(N) == \
                rocha_caridi_truncated(p, pp, r, a, N)


WALK_BUDGET = 4000  # leaves of the unpruned oracle walk per example


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pruned_walk_equals_leaf_filtered_walk(data):
    p, pp = data.draw(st.sampled_from(coprime_pairs(40)), label="(p, pp)")
    members = takahashi_members(p, pp)
    a = data.draw(st.sampled_from(members), label="a")
    b = data.draw(st.sampled_from(members), label="b")
    system = build_system(p, pp, a, b, data.draw(st.booleans(), label="tprime"))
    q0 = system.Q[0]  # L of the other parity gives no m-vector at all
    L = data.draw(st.integers(0, (30 - q0) // 2).map(lambda k: 2 * k + q0), label="L")
    # the oracle visits every unpruned leaf: lower L by 2 until that fits
    while L >= 0 and unpruned_walk_size(system, L) > WALK_BUDGET:
        L -= 2
    assume(L >= 0)
    classical = list(leaf_filtered_walk(system, L, modified=False))
    modified = list(leaf_filtered_walk(system, L, modified=True))
    assert list(_iter_admissible_m(system, L)) == modified
    assert [(s.m_hat, s.n) for s in mn_solutions(system, L)] == classical
    for form, oracle in ((False, classical), (True, modified)):
        terms = fermionic_terms(system, L, modified=form)
        assert [(m_hat, n) for m_hat, n, _ in terms] == oracle
        gauss = gaussian_modified if form else gaussian
        for m_hat, n, term in terms[:20]:
            prod = QPoly.one()
            for j in range(1, system.t):
                prod = prod * gauss(m_hat[j] + n[j - 1], m_hat[j])
            assert term == prod.shift(term.min_exp())


def takahashi_systems(ppmax):
    """Every distinct system of Takahashi endpoints with p' <= ppmax, both readings."""
    for p, pp in coprime_pairs(ppmax):
        for a, b in product(takahashi_members(p, pp), repeat=2):
            system = build_system(p, pp, a, b)
            yield system
            other = build_system(p, pp, a, b, prefer_t_prime=True)
            if other != system:
                yield other


def test_flat_walk_equals_recursive_walk():
    # one production walk per (system, L) against both oracle modes: all of
    # it against the annihilating one, its summands with every n_j >= 0
    # against the classical one
    walks = 0
    for system in takahashi_systems(16):
        for L in range(15):
            flat, error = walk_outcome(_iter_admissible_m(system, L))
            assert (flat, error) == walk_outcome(recursive_walk(system, L, annihilate=True)), \
                (system.tak, L)
            kept = [(m_hat, n) for m_hat, n in flat if min(n) >= 0]
            assert (kept, error) == walk_outcome(recursive_walk(system, L)), (system.tak, L)
            walks += 1
    assert walks > 100_000


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flat_walk_equals_recursive_walk_on_random_systems(data):
    p, pp = data.draw(st.sampled_from(coprime_pairs(40)), label="(p, pp)")
    members = takahashi_members(p, pp)
    a = data.draw(st.sampled_from(members), label="a")
    b = data.draw(st.sampled_from(members), label="b")
    system = build_system(p, pp, a, b, data.draw(st.booleans(), label="tprime"))
    # a bumped component of u leaves some band row odd: the walk must then
    # raise the same ValueError as the annihilating oracle after the same
    # yields
    j = data.draw(st.integers(-1, system.t - 1), label="bumped u_L index")
    if j >= 0:
        u_L = list(system.u_L)
        u_L[j] += 1
        system = system._replace(u_L=tuple(u_L))
    L = data.draw(st.integers(0, 30), label="L")
    assert walk_outcome(_iter_admissible_m(system, L)) == \
        walk_outcome(recursive_walk(system, L, annihilate=True))


def test_classical_summands_are_the_modified_ones_without_annihilation():
    # one walk gives both forms: the summands it flags kept must be what the
    # classical oracle walk, without annihilation, yields, in the same order
    for system in takahashi_systems(10):
        for L in range(13):
            summands = _summands(system, L)
            kept = [(m_hat, n) for m_hat, n, *_, flag in summands if flag]
            assert kept == list(recursive_walk(system, L)), (system.tak, system.a, system.b, L)
            assert [(m_hat, n) for m_hat, n, _ in fermionic_terms(system, L, False)] == kept


def test_negative_length_has_no_summand():
    for p, pp in ((3, 8), (2, 5), (1, 5)):
        members = takahashi_members(p, pp)
        for a, b, L in product(members, members, range(-4, 0)):
            system = build_system(p, pp, a, b)
            assert mn_solutions(system, L) == []
            assert fermionic_terms(system, L, modified=False) == []
            assert fermionic_terms(system, L, modified=True) == []
            assert fermionic_classical(p, pp, a, b, L) == QPoly.zero()
            assert fermionic_modified(p, pp, a, b, L) == QPoly.zero()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_sum_equals_sum_of_terms(data):
    p, pp = data.draw(st.sampled_from(coprime_pairs(40)), label="(p, pp)")
    members = takahashi_members(p, pp)
    a = data.draw(st.sampled_from(members), label="a")
    b = data.draw(st.sampled_from(members), label="b")
    tprime = data.draw(st.booleans(), label="tprime")
    odd = (a + b) % 2
    L = data.draw(st.integers(0, (30 - odd) // 2).map(lambda k: 2 * k + odd), label="L")
    system = build_system(p, pp, a, b, tprime)
    for form, modified in ((fermionic_classical, False), (fermionic_modified, True)):
        # each summand as a sparse product of its Gaussians and the tail as a
        # sparse sum, apart from the packed kernel that both fermionic_terms
        # and the forms go through
        assert fermionic_terms(system, L, modified) == sparse_summands(system, L, modified)
        assert form(p, pp, a, b, L, prefer_t_prime=tprime) == sparse_fermionic(system, L, modified)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bosonic_equals_both_fermionic_forms(data):
    p, pp = data.draw(st.sampled_from(coprime_pairs(40)), label="(p, pp)")
    members = takahashi_members(p, pp)
    a = data.draw(st.sampled_from(members), label="a")
    b = data.draw(st.sampled_from(members), label="b")
    L = data.draw(st.integers(0, 15).map(lambda k: 2 * k + (a + b) % 2), label="L")
    bos = bosonic(p, pp, a, b, c_from_b(p, pp, b), L)
    assert fermionic_classical(p, pp, a, b, L) == bos
    assert fermionic_modified(p, pp, a, b, L) == bos


def test_three_routes_agree_at_large_L():
    # (3,8) at L = 81: out of reach of the sparse division kernel; the
    # transfer packs chi at 11 bytes a coefficient
    p, pp, a, b, L = 3, 8, 1, 2, 81
    bos = bosonic(p, pp, a, b, c_from_b(p, pp, b), L)
    assert chi(Model(p, pp), a, b, c_from_b(p, pp, b), L) == bos
    assert fermionic_classical(p, pp, a, b, L) == bos
    assert fermionic_modified(p, pp, a, b, L) == bos
    assert all(c > 0 for c in bos.terms.values())
    assert sum(bos.terms.values()) == step_count(pp, a, b, L)


def _clear_fbpaths_caches():
    for name, mod in list(sys.modules.items()):
        if name == "fbpaths" or name.startswith("fbpaths."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_results_do_not_depend_on_cache_state():
    # wide (large-L) and narrow calls share Gaussians packed at different byte
    # widths, and the list runs the wide ones first, so each kind warms the
    # caches for the other in one of the two orders; the two wings e share a
    # model, a, b and L but not a first vertex.  The two fermionic forms of
    # one (a, b, L) share the cached system and packed Gaussians, at the
    # width of each form's own bound, so each form runs right after the
    # other in one of the orders, and the two Takahashi readings of (1,5)
    # give different sums for the same (a, b, L).  Each call must give the same
    # result whichever calls warmed the caches.
    model = Model(3, 8)
    calls = []
    for L in (33, 31, 5, 3):
        calls += [(form, 3, 8, a, b, L) for a, b in ((1, 2), (2, 3))
                  for form in (fermionic_classical, fermionic_modified)]
        calls += [(form, 1, 5, a, b, L, tprime) for a, b in ((1, 2), (2, 3))
                  for tprime in (False, True)
                  for form in (fermionic_modified, fermionic_classical)]
        calls += [(chi, model, 1, 2, 1, L), (chi, model, 1, 2, 3, L), (chi, model, 2, 3, 4, L)]
        calls += [(chi_tilde_by_m, model, a, b, e, f, L + (a + b + 1) % 2)
                  for a, b in ((2, 3), (3, 3)) for e in (0, 1) for f in (0, 1)]
    results = []
    for order in (calls, calls[::-1]):
        _clear_fbpaths_caches()
        results.append({call: call[0](*call[1:]) for call in order})
    assert results[0] == results[1]
    assert all(results[0].values())  # every call has paths or summands


def test_changing_a_result_does_not_change_later_results():
    # cached values are shared between calls, so no caller may change one
    model = Model(3, 8)
    calls = [(gaussian, 4, 2), (gaussian_modified, -3, 2), (chi, model, 1, 2, 3, 5),
             (bosonic, 3, 8, 1, 2, 3, 5), (fermionic_classical, 3, 8, 1, 2, 5),
             (fermionic_modified, 3, 8, 1, 2, 5)]
    for fn, *args in calls:
        result = fn(*args)
        original = QPoly(result.terms)
        assert original
        with pytest.raises(TypeError):
            result.terms[0] = 7
        with pytest.raises(TypeError):
            del result.terms[original.min_exp()]
        with pytest.raises(AttributeError):
            result.terms = {}
        assert fn(*args) == original
    table = chi_tilde_by_m(model, 2, 3, 0, 0, 5)
    original = dict(table)
    assert original
    table.clear()
    assert chi_tilde_by_m(model, 2, 3, 0, 0, 5) == original
