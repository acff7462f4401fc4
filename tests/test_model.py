"""Band model structure, continued fractions, Takahashi data."""

import re
from itertools import product

import pytest

from fbpaths import Model, continued_fraction
from helpers import coprime_pairs, submodel_parity_check


def test_band_parity_3_8():
    m = Model(3, 8)
    assert m.band_parities() == (0, 1, 0, 0, 1, 0)  # bands 2 and 5 are odd


def test_band_counts():
    for p, pp in coprime_pairs(14):
        pars = Model(p, pp).band_parities()
        assert len(pars) == pp - 2
        assert sum(pars) == p - 1          # odd bands
        assert len(pars) - sum(pars) == pp - p - 1


def test_single_band_of_1_3_is_even():
    assert Model(1, 3).band_parities() == (0,)


def test_dual_model_flips_every_parity():
    for p, pp in coprime_pairs(14):
        m = Model(p, pp)
        assert m.dual().band_parities() == tuple(1 - x for x in m.band_parities())


def test_up_down_symmetry():
    for p, pp in coprime_pairs(14):
        pars = Model(p, pp).band_parities()
        assert pars == pars[::-1]  # band h and band p' - 1 - h


def test_odd_band_position():
    # the r-th odd band is band r p' // p, r = 1..p-1, and there are no others
    for p, pp in coprime_pairs(12):
        odd = [h for h, x in enumerate(Model(p, pp).band_parities(), 1) if x]
        assert odd == [r * pp // p for r in range(1, p)]


def test_interfacial():
    m = Model(3, 8)
    assert m.interfacial_heights() == (2, 3, 5, 6)
    with pytest.raises(ValueError):
        m.is_interfacial(1)
    with pytest.raises(ValueError):
        m.is_interfacial(7)
    assert Model(1, 3).interfacial_heights() == ()  # empty domain 2..1
    # interfacial carries over to the parity-flipped model
    for p, pp in coprime_pairs(12):
        m = Model(p, pp)
        md = m.dual()
        for a in range(2, pp - 1):
            if m.is_interfacial(a):
                assert md.is_interfacial(a)


def test_delta():
    m = Model(3, 8)
    assert m.delta(2, 1) == 0
    assert m.delta(2, 0) == 1
    # dilated startpoint always has an even pre-segment band
    for p, pp in coprime_pairs(10):
        m = Model(p, pp)
        big = Model(p, pp + p)
        for a in range(1, pp):
            for e in (0, 1):
                a_new = a + m.floor_mult(a) + e
                assert big.delta(a_new, e) == 0
                assert big.floor_mult(a_new) == m.floor_mult(a)


def test_model_validation():
    with pytest.raises(ValueError, match=re.escape("p and p' must be coprime, got (2, 4)")):
        Model(2, 4)
    with pytest.raises(ValueError, match=re.escape("need 0 < p < p', got (3, 3)")):
        Model(3, 3)
    with pytest.raises(ValueError, match=re.escape("need 0 < p < p', got (0, 5)")):
        Model(0, 5)
    with pytest.raises(ValueError, match="coprime"):  # _replace runs the same checks
        Model(3, 8)._replace(p=4)


def test_continued_fraction_golden_38_11():
    tak = continued_fraction(11, 38)
    assert tak.cf == (3, 2, 5)
    assert tak.n == 2 and tak.t == 8
    assert tak.t_bounds[1:] == (2, 4, 9)
    assert [tak.y_of(k) for k in range(-1, 4)] == [0, 1, 3, 7, 38]
    assert [tak.z_of(k) for k in range(-1, 4)] == [1, 0, 1, 2, 11]
    assert tak.kappa[:8] == (1, 2, 3, 4, 7, 10, 17, 24)
    assert tak.kappa_tilde[:8] == (1, 1, 1, 1, 2, 3, 5, 7)
    assert tak.ell[1:] == (1, 2, 1, 4, 3, 10, 17, 24)
    assert sorted(tak.T) == [1, 2, 3, 4, 7, 10, 17, 24]
    assert sorted(tak.T_prime) == [14, 21, 28, 31, 34, 35, 36, 37]


def test_continued_fraction_degenerate():
    tak = continued_fraction(1, 3)
    assert tak.cf == (3,)
    assert tak.n == 0 and tak.t == 1
    with pytest.raises(ValueError):
        continued_fraction(2, 4)
    with pytest.raises(ValueError):
        continued_fraction(5, 3)


def test_continued_fraction_invariants():
    for p, pp in coprime_pairs(40):
        tak = continued_fraction(p, pp)
        assert tak.cf[-1] >= 2 and all(c >= 1 for c in tak.cf)
        assert tak.t == sum(tak.cf) - 2
        assert tak.y_of(tak.n + 1) == pp and tak.z_of(tak.n + 1) == p
        for k in range(1, tak.n + 2):
            assert tak.y_of(k) * tak.z_of(k - 1) - tak.y_of(k - 1) * tak.z_of(k) == (-1) ** k
        boundary = set(tak.t_bounds[1:tak.n + 1])
        for j in range(tak.t):
            if j not in boundary:
                assert tak.kappa[j] == tak.ell[j + 1]
        # disjointness needs c_0 >= 2: with c_0 = 1 the zone-1 lengths
        # 2, 3, ... meet their own complements (e.g. (5,6))
        if tak.n > 0 and tak.cf[0] >= 2:
            assert not (tak.T & tak.T_prime)


def test_zone_of():
    tak = continued_fraction(11, 38)
    assert tak.zone_of(3) == 1
    assert tak.zone_of(1) == 0
    with pytest.raises(ValueError):
        tak.zone_of(10)
    for p, pp in coprime_pairs(20):
        tak = continued_fraction(p, pp)
        # zone k holds c_k indices for k <= n
        from collections import Counter
        zone_sizes = Counter(tak.zone_of(j) for j in range(0, tak.t_bounds[tak.n + 1] + 1))
        for k in range(tak.n + 1):
            assert zone_sizes[k] == tak.cf[k]


def test_membership():
    tak = continued_fraction(11, 38)
    assert tak.membership(10) == ("T", 5)
    assert tak.membership(28) == ("T'", 5)
    assert tak.membership(5) == (None, -1)
    # n = 0 overlap: T preferred, T' reachable by flag
    tak5 = continued_fraction(1, 5)
    assert tak5.membership(2) == ("T", 1)
    assert tak5.membership(2, prefer_t_prime=True) == ("T'", 2)


def test_takahashi_band_lemma_to_40():
    # floor(kappatilde_j p'/p) = kappa_j - [zone even...] and its mirror
    for p, pp in coprime_pairs(40):
        tak = continued_fraction(p, pp)
        for j in range(tak.t + 1):
            z = tak.zone_of(j)
            assert tak.kappa[j] * p // pp == tak.kappa_tilde[j] - (1 if z % 2 == 0 else 0)
            if tak.t_bounds[1] <= j:
                assert tak.kappa_tilde[j] * pp // p == tak.kappa[j] - (1 if z % 2 == 1 else 0)


def test_model_ladder_consistency():
    for p, pp in coprime_pairs(30):
        tak = continued_fraction(p, pp)
        if tak.cf[0] > 1 and pp - p > p:
            sub = continued_fraction(p, pp - p)
            for k in range(0, tak.n + 1):
                assert tak.y_of(k) == sub.y_of(k) + sub.z_of(k)
                assert tak.z_of(k) == sub.z_of(k)
            for j in range(1, tak.t + 1):
                assert tak.kappa[j] == sub.kappa[j - 1] + sub.kappa_tilde[j - 1]
                assert tak.kappa_tilde[j] == sub.kappa_tilde[j - 1]
        elif tak.cf[0] == 1:
            sub = continued_fraction(pp - p, pp)
            for j in range(1, tak.t + 1):
                assert tak.kappa[j] == sub.kappa[j]
                assert tak.kappa_tilde[j] == sub.kappa[j] - sub.kappa_tilde[j]


def test_floor_complement_identity():
    for p, pp in coprime_pairs(30):
        for a in range(1, pp):
            assert a * (pp - p) // pp == a - 1 - (a * p // pp)


def test_submodel_parity_check_to_40():
    for p, pp in coprime_pairs(40):
        assert submodel_parity_check(Model(p, pp))


def test_submodel_example_38_11():
    tak = continued_fraction(11, 38)
    assert (tak.z_of(2), tak.y_of(2)) == (2, 7)
    assert Model(11, 38).band_parities()[:5] == Model(2, 7).band_parities()
