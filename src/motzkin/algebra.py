"""Exact arithmetic for generating functions of Motzkin classes.

Everything lives in the quadratic extension K of the rationals in x by
the element C satisfying x^2*C^2 - C + 1 = 0, whose power series root
is the generating function of paths with no H step.  On top of K sit
polynomials and rational functions in a second variable y used by the
prefix recursions.  All representations are canonical, so structural
equality is mathematical equality.

Layers:
  Poly   dense tuple of rational coefficients in x, no trailing zeros.
  RatX   num/den pair of integer coefficient tuples, coprime over Q[x],
         with joint integer content 1 and a positive leading
         coefficient of den.  Arithmetic stays in Z[x]; gcds come from
         the primitive polynomial remainder sequence (Collins 1967).
  KElem  (P + Q*C)/W with P, Q, W integer coefficient tuples, no
         common factor of positive degree, joint integer content 1
         and a positive leading coefficient of W.  Each operation
         makes its products in Z[x] and cancels the triple once.
  YRat   polynomial in y over K divided by powers of the two kernel
         factors 1-x-xy and 1-x^2*C-xy.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, gcd, lcm
from operator import attrgetter

Poly = tuple[Fraction, ...]


class NotAPowerSeriesError(ArithmeticError):
    """The element has a pole at x = 0."""


class PoleAtPointError(ArithmeticError):
    """Substitution hit a zero of the denominator."""


def poly(coeffs) -> Poly:
    """Dense polynomial from ascending coefficients."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


P_ZERO: Poly = ()
P_ONE: Poly = (1,)
P_X: Poly = (0, 1)


def _trim(v) -> list:
    """Coefficient list of a scalar or sequence, without trailing zeros."""
    out = list(v) if isinstance(v, (tuple, list)) else [v]
    while out and not out[-1]:
        out.pop()
    return out


def px_add(p: Poly, q: Poly) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def px_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def px_mul(p: Poly, q: Poly) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _integral(*ps) -> list[list[int]]:
    """ps scaled by one positive integer to integer coefficients."""
    d = reduce(lcm, map(attrgetter("denominator"), chain(*ps)), 1)
    return [[int(c * d) for c in p] for p in ps]


def _primitive(*ps):
    """Integer polynomials ps divided by their joint content; zero
    polynomials stay zero."""
    # reduce, not gcd(*iterator): unpacking an iterator of unknown
    # length resizes the argument tuple and fills the tuple free lists
    g = reduce(gcd, chain(*ps), 0)
    return [[c // g for c in p] for p in ps] if g > 1 else ps


def _prem(p: list, q: list) -> list:
    """Remainder of p by q in Z[x], up to a nonzero integer factor."""
    r = list(p)
    n = len(q) - 1
    lead = q[-1]
    while len(r) > n:
        c = r.pop()
        if c:
            g = gcd(lead, c)
            b, c = lead // g, c // g
            if b != 1:
                r = [b * v for v in r]
            s = len(r) - n
            for j in range(n):
                r[s + j] -= c * q[j]
    return _trim(r)


def _zdiv(p: list, q: list) -> list:
    """Quotient p/q in Z[x] of a division known to be exact."""
    r = list(p)
    n = len(q) - 1
    lead = q[-1]
    out = []
    while len(r) > n:
        c = r.pop() // lead
        out.append(c)
        if c:
            s = len(r) - n
            for j in range(n):
                r[s + j] -= c * q[j]
    out.reverse()
    return out


def _zgcd(p: list, q: list) -> list:
    """Primitive gcd of integer polynomials by the primitive remainder
    sequence; zero only when both are zero."""
    if len(p) < len(q):
        p, q = q, p
    q = _primitive(q)[0]
    while len(q) > 1:
        p, q = q, _primitive(_prem(p, q))[0]
    return [1] if q else _primitive(p)[0]


def _cancel(*ps):
    """Integer polynomials proportional to the integer polynomials ps,
    with no common factor of positive degree and joint content 1.

    Dividing by a primitive gcd keeps integer coefficients and the
    joint content (Gauss's lemma).
    """
    ps = _primitive(*ps)
    g = reduce(_zgcd, ps)
    if len(g) > 1:
        ps = [_zdiv(p, g) for p in ps]
    return ps


@dataclass(frozen=True)
class RatX:
    """Rational function of x in the canonical integer form above."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den=P_ONE) -> "RatX":
        """num/den from scalars or coefficient sequences of ints and
        Fractions."""
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RatX(P_ZERO, P_ONE)
        num, den = _cancel(*_integral(num, den))
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        return RatX(tuple(num), tuple(den))

    def __mul__(self, o: "RatX") -> "RatX":
        if not o.num or not self.num:
            return R_ZERO
        return RatX.make(px_mul(self.num, o.num), px_mul(self.den, o.den))

    def __truediv__(self, o: "RatX") -> "RatX":
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatX.make(px_mul(self.num, o.den), px_mul(self.den, o.num))


R_ZERO = RatX.make(0)
R_X = RatX.make(P_X)
R_XX = R_X * R_X


def ratx(num, den=1) -> RatX:
    """Rational function from ints, Fractions or coefficient lists."""
    return RatX.make(num, den)


def _x2(p) -> list:
    """p * x^2."""
    return [0, 0, *p] if p else []


def _canonical(p, q, w) -> tuple[tuple[int, ...], ...]:
    """The canonical triple proportional to (p, q, w), w nonzero."""
    if not p and not q:
        return P_ZERO, P_ZERO, P_ONE
    p, q, w = _cancel(p, q, w)
    if w[-1] < 0:
        p, q, w = [-c for c in p], [-c for c in q], [-c for c in w]
    return tuple(p), tuple(q), tuple(w)


@dataclass(frozen=True, init=False, slots=True)
class KElem:
    """Element (p + q*C)/w of the quadratic extension K.

    p, q, w are integer coefficient tuples with no common factor of
    positive degree, joint integer content 1 and a positive leading
    coefficient of w; zero is ((), (), (1,)).
    """

    p: tuple[int, ...]
    q: tuple[int, ...]
    w: tuple[int, ...]

    def __init__(self, a: RatX, b: RatX):
        """a + b*C from two rational functions."""
        _store(self, *_canonical(px_mul(a.num, b.den), px_mul(b.num, a.den),
                                 px_mul(a.den, b.den)))

    @staticmethod
    def of(a, b=0) -> "KElem":
        wrap = lambda v: v if isinstance(v, RatX) else ratx(v)
        return KElem(wrap(a), wrap(b))

    @property
    def a(self) -> RatX:
        """The rational part p/w."""
        return RatX.make(self.p, self.w)

    @property
    def b(self) -> RatX:
        """The coefficient q/w of C."""
        return RatX.make(self.q, self.w)

    def __add__(self, o: "KElem") -> "KElem":
        if o.is_zero():
            return self
        if self.is_zero():
            return o
        if self.w == o.w:
            return _kelem(px_add(self.p, o.p), px_add(self.q, o.q), self.w)
        return _kelem(px_add(px_mul(self.p, o.w), px_mul(o.p, self.w)),
                      px_add(px_mul(self.q, o.w), px_mul(o.q, self.w)),
                      px_mul(self.w, o.w))

    def __neg__(self) -> "KElem":
        return _store(object.__new__(KElem), px_neg(self.p), px_neg(self.q),
                      self.w)

    def __sub__(self, o: "KElem") -> "KElem":
        return self + (-o)

    def __mul__(self, o: "KElem") -> "KElem":
        if self.is_zero() or o.is_zero():
            return K_ZERO
        if o == K_ONE:
            return self
        if self == K_ONE:
            return o
        pp = px_mul(self.p, o.p)
        cross = px_add(px_mul(self.p, o.q), px_mul(self.q, o.p))
        w = px_mul(self.w, o.w)
        qq = px_mul(self.q, o.q)
        if not qq:
            return _kelem(pp, cross, w)
        # C^2 = (C - 1)/x^2
        return _kelem(px_add(_x2(pp), px_neg(qq)), px_add(_x2(cross), qq),
                      _x2(w))

    def inverse(self) -> "KElem":
        # (p + q*C)(x^2*p + q - x^2*q*C) = x^2*p^2 + p*q + q^2, in Q(x)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K")
        p, q, w = self.p, self.q, self.w
        conj = px_add(_x2(p), q)
        norm = px_add(px_mul(conj, p), px_mul(q, q))
        return _kelem(px_mul(w, conj), px_neg(_x2(px_mul(w, q))), norm)

    def __truediv__(self, o: "KElem") -> "KElem":
        return self * o.inverse()

    def is_zero(self) -> bool:
        return not self.p and not self.q


def _store(u: KElem, p, q, w) -> KElem:
    """u holding the canonical triple (p, q, w)."""
    object.__setattr__(u, "p", p)
    object.__setattr__(u, "q", q)
    object.__setattr__(u, "w", w)
    return u


def _kelem(p, q, w) -> KElem:
    """KElem equal to (p + q*C)/w, from integer coefficient sequences."""
    return _store(object.__new__(KElem), *_canonical(p, q, w))


K_ZERO = KElem.of(0)
K_ONE = KElem.of(1)
K_C = KElem.of(0, 1)
K_X = KElem(R_X, R_ZERO)


def k_of(a, b=0) -> KElem:
    return KElem.of(a, b)


# polynomials in y with KElem coefficients

KyPoly = tuple[KElem, ...]


def yp(coeffs) -> KyPoly:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def yp_add(p: KyPoly, q: KyPoly) -> KyPoly:
    n = max(len(p), len(q))
    return yp([(p[i] if i < len(p) else K_ZERO)
               + (q[i] if i < len(q) else K_ZERO) for i in range(n)])


def yp_mul(p: KyPoly, q: KyPoly) -> KyPoly:
    if not p or not q:
        return ()
    out = [K_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return yp(out)


def yp_eval(p: KyPoly, v: KElem) -> KElem:
    out = K_ZERO
    for c in reversed(p):
        out = out * v + c
    return out


def yp_div_root(p: KyPoly, r: KElem) -> KyPoly:
    """Quotient of p by y - r by synthetic division; raises
    ArithmeticError unless r is a root of p."""
    acc = K_ZERO
    out = []
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    if out and not out.pop().is_zero():
        raise ArithmeticError("y - r does not divide the polynomial")
    return tuple(reversed(out))


# The kernel factors F1 = 1 - x - xy and F2 = 1 - x^2*C - xy; each is
# -x*(y - root), with roots (1-x)/x and 1/(xC).
F1: KyPoly = (KElem.of([1, -1]), -K_X)
F2: KyPoly = (K_ONE - K_X * K_X * K_C, -K_X)
F1_ROOT = KElem.of(ratx([1, -1], [0, 1]))
F2_ROOT = KElem.of(ratx(1, [0, 1]), [0, -1])
K_NEG_INV_X = KElem.of(ratx(-1, [0, 1]))


def kernel_mul(p: KyPoly, a: int, b: int) -> KyPoly:
    """p * F1^a * F2^b."""
    for f in (F1,) * a + (F2,) * b:
        p = yp_mul(p, f)
    return p


@dataclass(frozen=True)
class YRat:
    """num/(F1^a * F2^b), num a polynomial in y over K.

    The prefix recursions cancel every other root of their denominators
    (the kernel method), so no other factor arises.  Canonical: num does
    not vanish at the root of a factor with positive exponent, and zero
    is ((), 0, 0).
    """

    num: KyPoly
    a: int = 0
    b: int = 0

    @staticmethod
    def make(num: KyPoly, a: int = 0, b: int = 0) -> "YRat":
        """num/(F1^a * F2^b) with the common kernel factors divided out."""
        if not num:
            return YRat(())
        while a and yp_eval(num, F1_ROOT).is_zero():
            num = yp_mul(yp_div_root(num, F1_ROOT), (K_NEG_INV_X,))
            a -= 1
        while b and yp_eval(num, F2_ROOT).is_zero():
            num = yp_mul(yp_div_root(num, F2_ROOT), (K_NEG_INV_X,))
            b -= 1
        return YRat(num, a, b)

    @property
    def den(self) -> KyPoly:
        return kernel_mul((K_ONE,), self.a, self.b)

    def __add__(self, o: "YRat") -> "YRat":
        a, b = max(self.a, o.a), max(self.b, o.b)
        return YRat.make(yp_add(kernel_mul(self.num, a - self.a, b - self.b),
                                kernel_mul(o.num, a - o.a, b - o.b)), a, b)

    def __neg__(self) -> "YRat":
        return YRat(tuple(-c for c in self.num), self.a, self.b)

    def __sub__(self, o: "YRat") -> "YRat":
        return self + (-o)

    def __mul__(self, o: "YRat") -> "YRat":
        return YRat.make(yp_mul(self.num, o.num),
                         self.a + o.a, self.b + o.b)

    def __truediv__(self, o: "YRat") -> "YRat":
        """Quotient by o, whose numerator must be a unit of K times kernel
        factors; any other divisor raises ValueError."""
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        n = len(o.num)
        unit = YRat.make(o.num, n, n)   # every kernel factor divided out
        if len(unit.num) > 1:
            raise ValueError("divisor is not a unit times kernel factors")
        a = self.a + n - unit.a - o.a
        b = self.b + n - unit.b - o.b
        num = yp_mul(self.num, (unit.num[0].inverse(),))
        return YRat.make(kernel_mul(num, max(-a, 0), max(-b, 0)),
                         max(a, 0), max(b, 0))

    def subst(self, v: KElem) -> KElem:
        """Value at y = v; the denominator must not vanish there."""
        dv = yp_eval(self.den, v)
        if dv.is_zero():
            raise PoleAtPointError("denominator vanishes at the point")
        return yp_eval(self.num, v) / dv

    def is_zero(self) -> bool:
        return not self.num


Y_ONE = YRat((K_ONE,))


def y_series(f: YRat, h_max: int) -> list[KElem]:
    """Coefficients of y^0..y^h_max of f expanded as a series in y."""
    den = f.den
    inv0 = den[0].inverse()
    out: list[KElem] = []
    for h in range(h_max + 1):
        acc = f.num[h] if h < len(f.num) else K_ZERO
        for j in range(1, min(h, len(den) - 1) + 1):
            acc = acc - den[j] * out[h - j]
        out.append(acc * inv0)
    return out


# power series and closed forms

def catalan_coefficients(n_max: int) -> list[int]:
    """Coefficients of the series root of x^2*C^2 - C + 1 = 0."""
    out = [0] * (n_max + 1)
    for k in range(0, n_max // 2 + 1):
        out[2 * k] = comb(2 * k, k) // (k + 1)
    return out


def series(u: KElem, n_max: int) -> list[Fraction]:
    """Power series coefficients of u at x = 0 up to order n_max.

    Raises NotAPowerSeriesError when u has a pole at the origin.
    """
    w = u.w
    shift = next(i for i, c in enumerate(w) if c)
    order = n_max + shift
    cat = catalan_coefficients(order)
    num = list(u.p[:order + 1])
    num += [0] * (order + 1 - len(num))
    for j, c in enumerate(u.q[:order + 1]):
        for n in range(j, order + 1, 2):   # C has only even powers
            num[n] += c * cat[n - j]
    if any(num[:shift]):
        raise NotAPowerSeriesError("pole at the origin")
    num, w = num[shift:], w[shift:]
    # integer division by w[0] is exact for an integer series; the first
    # remainder switches the rest of the loop to Fractions
    d0 = w[0]
    out = []
    exact = True
    for n in range(n_max + 1):
        acc = num[n]
        for j in range(1, min(n, len(w) - 1) + 1):
            acc -= w[j] * out[n - j]
        if exact:
            c, rem = divmod(acc, d0)
            exact = not rem
        out.append(c if exact else Fraction(acc, d0))
    return list(map(Fraction, out))


def minimal_polynomial(u: KElem) -> tuple[Poly, Poly, Poly]:
    """Primitive integer (c2, c1, c0) with c2*u^2 + c1*u + c0 = 0.

    Degree-one elements get c2 = 0.  The leading nonzero c has positive
    leading coefficient and the joint integer content is 1.
    """
    p, q, w = u.p, u.q, u.w
    if not q:
        c2, c1, c0 = P_ZERO, w, px_neg(p)
    else:
        # eliminate C between w*t = p + q*C and x^2*C^2 - C + 1 = 0
        s = px_add(_x2(p), q)
        c2 = _x2(px_mul(w, w))
        c1 = px_neg(px_mul(px_add(_x2(p), s), w))
        c0 = px_add(px_mul(s, p), px_mul(q, q))
    c2, c1, c0 = _cancel(c2, c1, c0)
    lead = c2 or c1
    sign = -1 if lead and lead[-1] < 0 else 1
    return tuple(tuple(sign * c for c in p) for p in (c2, c1, c0))


def to_sqrt_form(u: KElem) -> tuple[Poly, Poly, Poly]:
    """Integer (n1, n2, d) with u = (n1 + n2*sqrt(1-4x^2))/d.

    Uses C = (1 - sqrt(1-4x^2))/(2x^2); the lowest nonzero coefficient
    of d is positive and the joint content is 1.
    """
    if u.is_zero():
        return (P_ZERO, P_ZERO, P_ONE)
    n1, n2, den = _cancel(px_add(_x2([2 * c for c in u.p]), u.q),
                          px_neg(u.q), _x2([2 * c for c in u.w]))
    sign = 1 if next(c for c in den if c) > 0 else -1
    return tuple(tuple(sign * c for c in p) for p in (n1, n2, den))


def from_sqrt_form(n1: Poly, n2: Poly, den: Poly) -> KElem:
    """KElem equal to (n1 + n2*sqrt(1-4x^2))/den."""
    if not any(den):
        raise ZeroDivisionError("sqrt form with zero denominator")
    # sqrt(1-4x^2) = 1 - 2x^2*C
    n1, n2, den = _integral(n1, n2, den)
    return _kelem(px_add(n1, n2), px_neg(_x2([2 * c for c in n2])), den)


# display helpers

def poly_str(p: Poly, var: str = "x") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            if c < 0:
                mag = "-" + mag
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts)


def ratx_str(r: RatX) -> str:
    if r.den == P_ONE:
        return poly_str(r.num)
    return f"({poly_str(r.num)})/({poly_str(r.den)})"


def k_str(u: KElem) -> str:
    b = ratx_str(u.b)
    if not _is_simple_token(b):
        b = f"({b})"
    return f"{ratx_str(u.a)} + {b}*C"


def _is_simple_token(s: str) -> bool:
    # no embedded additive structure that would bind wrong under *C
    return not any(ch in s[1:] for ch in "+-") and "/" not in s


def sqrt_form_str(u: KElem) -> str:
    n1, n2, den = to_sqrt_form(u)
    sign = "+"
    if n2 and all(c <= 0 for c in n2):
        n2 = px_neg(n2)
        sign = "-"
    return (f"({poly_str(n1)} {sign} ({poly_str(n2)})*sqrt(1-4*x^2))"
            f"/({poly_str(den)})")


def minpoly_str(u: KElem) -> str:
    c2, c1, c0 = minimal_polynomial(u)
    return (f"({poly_str(c2)})*D^2 + ({poly_str(c1)})*D"
            f" + ({poly_str(c0)}) = 0")
