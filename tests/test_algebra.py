"""Field arithmetic in K, rational functions of y, series, closed forms."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from motzkin.algebra import (
    K_C,
    K_ONE,
    K_X,
    K_ZERO,
    KElem,
    NotAPowerSeriesError,
    P_ONE,
    PoleAtPointError,
    R_XX,
    RatX,
    Y_ONE,
    YRat,
    catalan_coefficients,
    from_sqrt_form,
    k_of,
    k_str,
    minimal_polynomial,
    poly,
    poly_str,
    px_mul,
    ratx,
    ratx_str,
    series,
    to_sqrt_form,
    y_series,
    yp,
    yp_div_root,
    yp_mul,
)


F1 = yp([k_of(ratx([1, -1])), -K_X])                   # 1 - x - xy
F2 = yp([K_ONE - K_X * K_X * K_C, -K_X])               # 1 - x^2*C - xy
Y = YRat.make(yp([K_ZERO, K_ONE]))


def test_poly_constructor_strips_trailing_zeros():
    assert poly([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert poly([0, 0]) == ()
    assert poly([]) == ()


def test_ratx_cancellation():
    u = ratx([1], [1, -1]) * ratx([1, -1])
    assert u == ratx(1)
    with pytest.raises(ZeroDivisionError):
        ratx(1, 0)
    with pytest.raises(ZeroDivisionError):
        ratx(1) / ratx(0)


def _euclid_gcd(p, q):
    """A gcd of p and q by Euclid's algorithm over Q (reference)."""
    p, q = list(poly(p)), list(poly(q))
    while q:
        while len(p) >= len(q):
            c = p[-1] / q[-1]
            for j in range(len(q)):
                p[len(p) - len(q) + j] -= c * q[j]
            while p and p[-1] == 0:
                p.pop()
        p, q = q, p
    return p


def _euclid_gcd_degree(p, q):
    return len(_euclid_gcd(p, q)) - 1


_coeffs = st.lists(st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6)), max_size=5)
_nonzero = _coeffs.filter(any)


@given(_coeffs, _nonzero, _nonzero,
       st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
def test_ratx_make_is_canonical(num, den, common, scale):
    r = RatX.make(num, den)
    assert all(type(c) is int for c in r.num + r.den)
    assert _euclid_gcd_degree(r.num, r.den) == 0
    assert gcd(*r.num, *r.den) == 1
    assert r.den[-1] > 0
    assert px_mul(poly(num), r.den) == px_mul(poly(den), r.num)
    assert RatX.make([c * scale for c in num], [c * scale for c in den]) == r
    assert RatX.make(px_mul(poly(num), common), px_mul(poly(den), common)) == r


_int_coeffs = st.lists(st.integers(-6, 6), max_size=5)


@given(_int_coeffs, _int_coeffs, _int_coeffs.filter(any),
       _int_coeffs.filter(any), st.integers(-5, 5).filter(bool))
def test_kelem_triple_is_canonical(p, q, w, common, scale):
    def k(p, q, w):
        return (k_of(ratx(p)) + k_of(ratx(q)) * K_C) / k_of(ratx(w))
    u = k(p, q, w)
    assert all(type(c) is int for c in u.p + u.q + u.w)
    assert _euclid_gcd_degree(_euclid_gcd(u.p, u.q), u.w) == 0
    assert gcd(*u.p, *u.q, *u.w) == 1
    assert u.w[-1] > 0
    assert (u.a, u.b) == (ratx(p, w), ratx(q, w))
    scaled = [[scale * c for c in px_mul(v, common)] for v in (p, q, w)]
    assert k(*scaled) == u
    assert KElem(u.a, u.b) == u


def test_defining_relation():
    lhs = KElem(R_XX, RatX.make(poly([0]))) * K_C * K_C - K_C + K_ONE
    assert lhs.is_zero()


def test_k_mul_c_squared():
    # C*C = (-1/x^2) + (1/x^2) C
    got = K_C * K_C
    assert got.a == ratx([-1], [0, 0, 1])
    assert got.b == ratx([1], [0, 0, 1])


def test_k_mul_by_one_is_identity():
    u = KElem(ratx([1, 2], [3, 0, 1]), ratx([0, 1], [1, 1]))
    assert (u * K_ONE - u).is_zero()


def test_k_inv_round_trips():
    rng = random.Random(11)
    for _ in range(100):
        a = ratx([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))],
                 [1] + [rng.randint(-2, 2) for _ in range(4)])
        b = ratx([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))],
                 [1] + [rng.randint(-2, 2) for _ in range(4)])
        u = KElem(a, b)
        if u.is_zero():
            continue
        assert (u * u.inverse() - K_ONE).is_zero()
    with pytest.raises(ZeroDivisionError):
        K_ZERO.inverse()


def test_inv_of_c():
    v = K_C.inverse()
    assert (v * K_C - K_ONE).is_zero()
    v = (K_ONE - K_X * K_C).inverse()
    assert (v * (K_ONE - K_X * K_C) - K_ONE).is_zero()


def test_field_axiom_spot_checks():
    rng = random.Random(5)
    def rand_k():
        return KElem(
            ratx([rng.randint(-2, 2) for _ in range(3)],
                 [1, rng.randint(-2, 2)]),
            ratx([rng.randint(-2, 2) for _ in range(3)],
                 [1, rng.randint(-2, 2)]))
    for _ in range(25):
        u, v, w = rand_k(), rand_k(), rand_k()
        assert ((u * v) * w - u * (v * w)).is_zero()
        assert (u * (v + w) - (u * v + u * w)).is_zero()
        assert ((u + v) - (v + u)).is_zero()


def test_y_subst():
    # 1/(1-x-xy) at y=0 -> 1/(1-x)
    f = Y_ONE / YRat.make(yp([k_of(ratx([1, -1])), -K_X]))
    assert (f.subst(K_ZERO) - k_of(ratx(1, [1, -1]))).is_zero()
    # y at xC -> xC
    assert (Y.subst(K_X * K_C) - K_X * K_C).is_zero()
    # constants ignore the point
    g = YRat.make(yp([K_C]))
    assert (g.subst(K_X) - K_C).is_zero()


def test_y_subst_pole():
    # 1/(1 - x^2*C - xy) at its root y = 1/(xC)
    f = Y_ONE / YRat.make(F2)
    with pytest.raises(PoleAtPointError):
        f.subst(K_ONE / (K_X * K_C))


def test_y_subst_commutes_with_arithmetic():
    f = Y_ONE / (YRat.make(F1) * YRat.make(F2))
    g = Y * YRat.make(yp([K_C])) + Y_ONE
    v = K_X * K_C
    assert ((f + g).subst(v) - (f.subst(v) + g.subst(v))).is_zero()
    assert ((f * g).subst(v) - (f.subst(v) * g.subst(v))).is_zero()


def test_yrat_reduction_cancels_linear_factor():
    # (1 - x - xy)(y + xC)/(1 - x - xy) reduces to y + xC
    xc = K_X * K_C
    f = YRat.make(yp_mul(F1, yp([xc, K_ONE])), 1)
    assert f == YRat.make(yp([xc, K_ONE]))
    assert (f.a, f.b) == (0, 0)
    # F1*F2/(F1^2 * F2) reduces to 1/F1
    assert YRat.make(yp_mul(F1, F2), 2, 1) == YRat((K_ONE,), 1, 0)


def test_exact_root_division_checks_remainder():
    # y^2 - (xC)^2 = (y - xC)(y + xC); 1 + y does not vanish at xC
    xc = K_X * K_C
    assert yp_div_root(yp([-(xc * xc), K_ZERO, K_ONE]), xc) == \
        yp([xc, K_ONE])
    with pytest.raises(ArithmeticError):
        yp_div_root(yp([K_ONE, K_ONE]), xc)


def test_division_only_by_kernel_factors():
    with pytest.raises(ValueError):
        Y_ONE / YRat.make(yp([K_ONE, -K_X]))            # 1/(1 - xy)
    with pytest.raises(ValueError):
        Y_ONE / YRat.make(yp([-(K_X * K_C), K_ONE]))    # 1/(y - xC)
    # a unit times kernel factors is fine, and division undoes products
    f = YRat.make(yp_mul(F1, F2)) * YRat.make(yp([K_C]))
    assert Y / f * f == Y


def test_catalan_coefficients():
    assert catalan_coefficients(8) == [1, 0, 1, 0, 2, 0, 5, 0, 14]
    assert catalan_coefficients(0) == [1]


def test_catalan_self_consistency():
    cs = catalan_coefficients(20)
    for n in range(21):
        conv = sum(cs[i] * cs[n - 2 - i] for i in range(max(0, n - 1)))
        assert cs[n] == (1 if n == 0 else 0) + conv


def test_series_of_c():
    assert series(K_C, 6) == [1, 0, 1, 0, 2, 0, 5]


def test_series_of_rational():
    assert series(k_of(ratx(1, [1, -1])), 4) == [1, 1, 1, 1, 1]
    got = series(k_of(ratx(1, [2, -1])), 6)
    assert got == [Fraction(1, 2 ** (n + 1)) for n in range(7)]
    assert not any(isinstance(c, float) for c in got)
    # (2 + x^3)/2: integer division by 2 is exact until x^3
    got = series(k_of(ratx([2, 0, 0, 1], 2)), 5)
    assert got == [1, 0, 0, Fraction(1, 2), 0, 0]
    assert all(type(c) is Fraction for c in got)


def test_series_pole_detection():
    with pytest.raises(NotAPowerSeriesError):
        series(k_of(ratx(1, [0, 1])), 3)
    # cancelling pole is fine: (C - 1)/x^2 = C^2
    u = (K_C - K_ONE) / KElem(R_XX, ratx(0))
    got = series(u, 6)
    want = series(K_C * K_C, 6)
    assert got == want


def test_series_of_product_is_convolution():
    u = k_of(ratx(1, [1, -1]))
    v = K_C
    su, sv = series(u, 10), series(v, 10)
    sp = series(u * v, 10)
    for n in range(11):
        assert sp[n] == sum(su[i] * sv[n - i] for i in range(n + 1))


def test_minimal_polynomial_of_c():
    assert minimal_polynomial(K_C) == (poly([0, 0, 1]), poly([-1]), poly([1]))


def test_minimal_polynomial_linear_case():
    c2, c1, c0 = minimal_polynomial(k_of(ratx(1, [1, -1])))
    assert c2 == ()
    # (1-x) * u - 1 = 0
    assert c1 == poly([1, -1]) and c0 == poly([-1]) or \
        c1 == poly([-1, 1]) and c0 == poly([1])


def test_minimal_polynomial_annihilates():
    rng = random.Random(3)
    for _ in range(10):
        u = KElem(
            ratx([rng.randint(-2, 2) for _ in range(3)],
                 [1, rng.randint(-2, 2)]),
            ratx([rng.randint(-2, 2) for _ in range(3)],
                 [1, rng.randint(-2, 2)]))
        c2, c1, c0 = minimal_polynomial(u)
        wrap = lambda p: KElem(RatX.make(p), ratx(0))
        got = wrap(c2) * u * u + wrap(c1) * u + wrap(c0)
        assert got.is_zero(), u


def test_sqrt_form_of_c():
    n1, n2, d = to_sqrt_form(K_C)
    assert (n1, n2, d) == (poly([1]), poly([-1]), poly([0, 0, 2]))


def test_sqrt_form_round_trip():
    u = KElem(ratx([1, -3], [1, 0, 2]), ratx([2, 1], [1, -1]))
    n1, n2, d = to_sqrt_form(u)
    assert (from_sqrt_form(n1, n2, d) - u).is_zero()
    assert to_sqrt_form(K_ZERO) == ((), (), P_ONE)
    n1, n2, d = to_sqrt_form(K_ONE)
    assert n2 == ()
    with pytest.raises(ZeroDivisionError):
        from_sqrt_form(poly([1]), poly([1]), ())


def test_y_series_expansion():
    # 1/(1 - x^2*C - xy) = C/(1 - xCy) has coefficients C*(xC)^h
    f = Y_ONE / YRat.make(F2)
    coefs = y_series(f, 4)
    acc = K_C
    for h in range(5):
        assert (coefs[h] - acc).is_zero()
        acc = acc * K_X * K_C


def test_display_strings():
    assert poly_str(poly([-1, 0, 5])) == "5*x^2 - 1"
    assert poly_str(()) == "0"
    assert poly_str(poly([0, 1])) == "x"
    assert ratx_str(ratx(1)) == "1"
    assert k_str(K_C) == "0 + 1*C"
    assert "C" in k_str(K_X * K_C)
