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
  KElem  a + b*C with RatX components.
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


def _primitive(*ps) -> list[list[int]]:
    """ps scaled by one positive rational to integer coefficients with
    joint content 1; zero polynomials stay zero."""
    # reduce, not gcd(*iterator): unpacking an iterator of unknown
    # length resizes the argument tuple and fills the tuple free lists
    d = reduce(lcm, map(attrgetter("denominator"), chain(*ps)), 1)
    ps = [[int(c * d) for c in p] if d > 1 else list(map(int, p))
          for p in ps]
    g = reduce(gcd, chain(*ps), 0)
    if g > 1:
        ps = [[c // g for c in p] for p in ps]
    return ps


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


def _cancel(*ps) -> list[list[int]]:
    """Integer polynomials proportional to ps with no common factor of
    positive degree and joint content 1.

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
        num, den = _cancel(num, den)
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        return RatX(tuple(num), tuple(den))

    def __add__(self, o: "RatX") -> "RatX":
        if not o.num:
            return self
        if not self.num:
            return o
        return RatX.make(px_add(px_mul(self.num, o.den),
                                px_mul(o.num, self.den)),
                         px_mul(self.den, o.den))

    def __neg__(self) -> "RatX":
        return RatX(px_neg(self.num), self.den)

    def __sub__(self, o: "RatX") -> "RatX":
        return self + (-o)

    def __mul__(self, o: "RatX") -> "RatX":
        if not o.num or not self.num:
            return R_ZERO
        return RatX.make(px_mul(self.num, o.num), px_mul(self.den, o.den))

    def __truediv__(self, o: "RatX") -> "RatX":
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatX.make(px_mul(self.num, o.den), px_mul(self.den, o.num))

    def is_zero(self) -> bool:
        return not self.num


R_ZERO = RatX.make(0)
R_ONE = RatX.make(1)
R_X = RatX.make(P_X)
R_XX = R_X * R_X


def ratx(num, den=1) -> RatX:
    """Rational function from ints, Fractions or coefficient lists."""
    return RatX.make(num, den)


@dataclass(frozen=True)
class KElem:
    """Element a + b*C of the quadratic extension K."""

    a: RatX
    b: RatX

    @staticmethod
    def of(a, b=0) -> "KElem":
        wrap = lambda v: v if isinstance(v, RatX) else ratx(v)
        return KElem(wrap(a), wrap(b))

    def __add__(self, o: "KElem") -> "KElem":
        return KElem(self.a + o.a, self.b + o.b)

    def __neg__(self) -> "KElem":
        return KElem(-self.a, -self.b)

    def __sub__(self, o: "KElem") -> "KElem":
        return self + (-o)

    def __mul__(self, o: "KElem") -> "KElem":
        # C^2 = (C - 1)/x^2
        bb = self.b * o.b
        cross = self.a * o.b + self.b * o.a
        shift = bb / R_XX
        return KElem(self.a * o.a - shift, cross + shift)

    def inverse(self) -> "KElem":
        # conjugate is (a + b/x^2) - b*C; norm lies in Q(x)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K")
        norm = self.a * self.a + self.a * self.b / R_XX \
            + self.b * self.b / R_XX
        conj = KElem(self.a + self.b / R_XX, -self.b)
        return KElem(conj.a / norm, conj.b / norm)

    def __truediv__(self, o: "KElem") -> "KElem":
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()


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

def catalan_coefficients(n_max: int) -> list[Fraction]:
    """Coefficients of the series root of x^2*C^2 - C + 1 = 0."""
    out = [Fraction(0)] * (n_max + 1)
    for k in range(0, n_max // 2 + 1):
        out[2 * k] = Fraction(comb(2 * k, k), k + 1)
    return out


def _px_series_coeffs(p: Poly, n_max: int) -> list[Fraction]:
    return [p[i] if i < len(p) else Fraction(0) for i in range(n_max + 1)]


def _series_divide(num: list[Fraction], den: Poly,
                   n_max: int) -> list[Fraction]:
    d0 = den[0]
    out = []
    for n in range(n_max + 1):
        acc = num[n]
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(Fraction(acc, d0))
    return out


def series(u: KElem, n_max: int) -> list[Fraction]:
    """Power series coefficients of u at x = 0 up to order n_max.

    Raises NotAPowerSeriesError when u has a pole at the origin.
    """
    # u = (P + R*C)/W with polynomial P, R, W
    p = px_mul(u.a.num, u.b.den)
    r = px_mul(u.b.num, u.a.den)
    w = px_mul(u.a.den, u.b.den)
    shift = 0
    while shift < len(w) and w[shift] == 0:
        shift += 1
    w0 = w[shift:]
    order = n_max + shift
    cat = catalan_coefficients(order)
    pc = _px_series_coeffs(p, order)
    rc = _px_series_coeffs(r, order)
    numc = []
    for n in range(order + 1):
        acc = pc[n]
        for j in range(min(n, len(r) - 1) + 1 if r else 0):
            acc += rc[j] * cat[n - j]
        numc.append(acc)
    if any(c != 0 for c in numc[:shift]):
        raise NotAPowerSeriesError("pole at the origin")
    return _series_divide(numc[shift:], w0, n_max)


def minimal_polynomial(u: KElem) -> tuple[Poly, Poly, Poly]:
    """Primitive integer (c2, c1, c0) with c2*u^2 + c1*u + c0 = 0.

    Degree-one elements get c2 = 0.  The leading nonzero c has positive
    leading coefficient and the joint integer content is 1.
    """
    if u.b.is_zero():
        c2, c1, c0 = P_ZERO, u.a.den, px_neg(u.a.num)
    else:
        a = u.a
        b = u.b
        # eliminate C between t = a + b*C and x^2*C^2 - C + 1 = 0
        c2r = RatX.make(px_mul(P_X, P_X))
        c1r = -(c2r * a + c2r * a) - b
        c0r = c2r * a * a + a * b + b * b
        c2 = px_mul(c2r.num, px_mul(c1r.den, c0r.den))
        c1 = px_mul(c1r.num, px_mul(c2r.den, c0r.den))
        c0 = px_mul(c0r.num, px_mul(c2r.den, c1r.den))
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
    half = RatX.make(1, [0, 0, 2])
    big_a = u.a + u.b * half
    big_b = -(u.b * half)
    n1, n2, den = _cancel(px_mul(big_a.num, big_b.den),
                          px_mul(big_b.num, big_a.den),
                          px_mul(big_a.den, big_b.den))
    sign = 1 if next(c for c in den if c) > 0 else -1
    return tuple(tuple(sign * c for c in p) for p in (n1, n2, den))


def from_sqrt_form(n1: Poly, n2: Poly, den: Poly) -> KElem:
    """KElem equal to (n1 + n2*sqrt(1-4x^2))/den."""
    root = KElem(R_ONE, RatX.make(poly([-2]))
                 * RatX.make(px_mul(P_X, P_X)))
    d = KElem(RatX.make(den), R_ZERO)
    return (KElem(RatX.make(n1), R_ZERO)
            + KElem(RatX.make(n2), R_ZERO) * root) / d


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
