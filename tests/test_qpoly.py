"""Polynomial core: ring laws, Gaussian polynomials and their oracle."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from fbpaths import QPoly, div_exact, gaussian, gaussian_modified
from fbpaths.qpoly import guard_width, pack, unpack_poly
from helpers import box_partition_oracle, pochhammer

ONE = QPoly.one()
Q = QPoly.q_int(1)


def rand_poly(rng, nterms=4, span=8):
    return QPoly({rng.randrange(-span, span + 1): rng.randrange(-5, 6)
                  for _ in range(nterms)})


def test_add_examples():
    assert (ONE + Q) + Q == ONE + 2 * Q
    p = rand_poly(random.Random(0))
    assert p + QPoly.zero() == p
    assert (ONE + Q) + -(ONE + Q) == QPoly.zero()
    assert not (ONE + Q - ONE - Q).terms  # cancellation empties the map


def test_mul_examples():
    assert (ONE + Q) * (ONE + Q) == ONE + 2 * Q + QPoly.q_int(2)
    p = rand_poly(random.Random(1))
    assert p * ONE == p


def test_shift_examples():
    assert ONE.shift(1) == Q
    assert Q.shift(-1) == ONE
    assert (ONE + Q).shift(2) == QPoly({2: 1, 3: 1})


def test_invert_q_examples():
    assert (ONE + Q).invert_q() == ONE + QPoly.q_int(-1)
    p = rand_poly(random.Random(2))
    assert p.invert_q().invert_q() == p
    assert QPoly.q_int(2).invert_q() == QPoly.q_int(-2)


def test_ring_laws_randomized():
    rng = random.Random(12345)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pochhammer():
    assert pochhammer(1, 0) == ONE
    assert pochhammer(1, 1) == ONE - Q
    assert pochhammer(1, 2) == QPoly({0: 1, 1: -1, 2: -1, 3: 1})  # (1-q)(1-q^2)


def test_gaussian_examples():
    assert gaussian(3, 1) == box_partition_oracle(1, 2)
    assert gaussian(3, 1) == ONE + Q + QPoly.q_int(2)
    for a in range(0, 7):
        assert gaussian(a, 0) == ONE
    assert gaussian(2, 3) == QPoly.zero()
    assert gaussian(-1, 0) == QPoly.zero()


def test_gaussian_modified_examples():
    assert gaussian_modified(-1, 0) == ONE
    assert gaussian_modified(3, 1) == gaussian(3, 1)
    # literal evaluation of (q^-2)_1/(q)_1
    assert gaussian_modified(-2, 1) == QPoly.q_int(-2, -1) + QPoly.q_int(-1, -1)
    assert gaussian_modified(5, -1) == QPoly.zero()


def test_box_partition_oracle_small():
    assert box_partition_oracle(0, 5) == ONE
    assert box_partition_oracle(1, 2) == ONE + Q + QPoly.q_int(2)
    assert box_partition_oracle(2, 2) == QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


@pytest.mark.parametrize("a", range(13))
def test_gaussian_matches_partition_oracle(a):
    for b in range(a + 1):
        assert gaussian(a, b) == box_partition_oracle(b, a - b)


def test_gaussian_symmetry():
    for a in range(13):
        for b in range(a + 1):
            assert gaussian(a, b) == gaussian(a, a - b)


def test_gaussian_inversion_laws():
    # [m+n over m] at 1/q equals q^{-mn} [m+n over m], same for the modified form
    for m in range(7):
        for n in range(7):
            g = gaussian(m + n, m)
            assert g.invert_q() == g.shift(-m * n)
    for a in range(-4, 9):
        for b in range(0, 7):
            g = gaussian_modified(a, b)
            assert g.invert_q() == g.shift(-b * (a - b))


def test_gaussian_modified_agrees_on_overlap():
    for a in range(-5, 9):
        for b in range(-2, 9):
            if a >= 0 or b < 0:
                assert gaussian_modified(a, b) == gaussian(a, b), (a, b)


def test_truncate():
    p = ONE + Q + QPoly.q_int(5)
    assert p.truncate(2) == ONE + Q
    assert QPoly.zero().truncate(3) == QPoly.zero()
    assert p.truncate(5) == p


def test_div_exact_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, nterms=5)
        b = rand_poly(rng, nterms=3)
        if not a or not b:
            continue
        assert div_exact(a * b, b) == a
    with pytest.raises(ValueError):
        div_exact(ONE + Q, ONE - Q)


def test_json_round_trip_and_integer_exponent_guard():
    rng = random.Random(3)
    for p in [gaussian(4, 2).shift(-2)] + [rand_poly(rng) for _ in range(50)]:
        d = p.to_json_dict()
        assert list(d) == sorted(d, key=int)  # ascending exponent order
        assert all(str(int(e)) == e for e in d)  # decimal integer exponents
        assert QPoly({int(e): int(c) for e, c in d.items()}) == p


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 9), k=st.integers(0, 9))
def test_dense_gaussian_matches_partition_oracle(m, k):
    assert gaussian(m + k, m) == box_partition_oracle(k, m)


@settings(max_examples=150, deadline=None)
@given(a=st.integers(-12, 30), b=st.integers(0, 12))
def test_gaussian_modified_matches_pochhammer_quotient(a, b):
    assert gaussian_modified(a, b) == div_exact(pochhammer(a - b + 1, b), pochhammer(1, b))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=12), max_size=4))
def test_kronecker_product_matches_sparse_product(factors):
    # pack -> one big-int product -> unpack_poly, at the byte width of the
    # product's value at q = 1, which bounds every coefficient
    expected = QPoly.one()
    bound = acc = 1
    for coeffs in factors:
        expected = expected * QPoly(dict(enumerate(coeffs)))
        bound *= max(1, sum(coeffs))
    width = (bound.bit_length() + 7) // 8
    for coeffs in factors:
        acc *= pack(coeffs, width)
    assert unpack_poly(acc, width) == expected
    assert unpack_poly(acc, width, -3) == expected.shift(-3)


def signed_pack(coeffs, width: int) -> int:
    """Signed coefficients, low first, packed as the difference of their
    positive and their negative parts, as the identity sweep packs them."""
    return pack([max(c, 0) for c in coeffs], width) - pack([max(-c, 0) for c in coeffs], width)


def balanced_digits(packed: int, width: int) -> list[int]:
    """The digits in (-X/2, X/2], X = 2^(8 width), low first, of an int: the
    inverse of signed_pack on coefficients below the guard bit, with the
    trailing zeros dropped."""
    X = 1 << 8 * width
    digits = []
    while packed:
        d = (packed + X // 2 - 1) % X - (X // 2 - 1)
        digits.append(d)
        packed = (packed - d) // X
    return digits


def strip_zeros(coeffs) -> list[int]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_signed_packings_below_the_guard_bit_are_injective(data):
    width = data.draw(st.integers(1, 3), label="width")
    half = 1 << 8 * width - 1
    vectors = st.lists(st.integers(-half + 1, half - 1), max_size=8)
    u = data.draw(vectors, label="u")
    v = data.draw(st.one_of(vectors, st.just(u + [0])), label="v")
    # each vector decodes back from its packing, so no two share one
    assert balanced_digits(signed_pack(u, width), width) == strip_zeros(u)
    assert (signed_pack(u, width) == signed_pack(v, width)) == (strip_zeros(u) == strip_zeros(v))
    # and so does the polynomial, from the two parts apart
    pos = pack([max(c, 0) for c in u], width)
    neg = pack([max(-c, 0) for c in u], width)
    assert unpack_poly(pos, width) - unpack_poly(neg, width) == QPoly(dict(enumerate(u)))


@given(st.integers(0, 2 ** 80))
def test_guard_width_is_the_fewest_bytes_above_the_bound(bound):
    width = guard_width(bound)
    assert bound < 1 << 8 * width - 1
    assert width == 1 or bound >= 1 << 8 * (width - 1) - 1


def test_without_the_guard_bit_two_packings_collide():
    # with digits allowed up to |c| < X, (c0 - X, c1 + 1) and (c0, c1) are
    # both packed to c0 + c1 X; the guard bit, |c| < X/2, rules out c0 - X
    width, (c0, c1) = 1, (100, 3)
    X = 1 << 8 * width
    assert abs(c0 - X) < X and abs(c0 - X) >= X // 2
    assert signed_pack([c0 - X, c1 + 1], width) == signed_pack([c0, c1], width)
    assert guard_width(max(abs(c0 - X), c1 + 1)) > width


def test_qpoly_pickles():
    # the term map sits in a private slot behind the read-only terms view
    for p in (gaussian(4, 2).shift(-1) - 3, QPoly.zero()):
        assert pickle.loads(pickle.dumps(p)) == p
