"""Closed-form generating functions.

Two independent routes to the length generating function of a class.

The recursion route (gamma/delta) folds over the letters of a single
pattern: gamma(q) is the bivariate generating function, in length and
final height, of the shortest Motzkin prefixes containing q, and delta
accumulates from it the generating function of the paths avoiding q.
All steps stay inside rational functions of y over K, so the result is
always an element of K.

The system route (extract_equations/solve_closed_form) reads the linear
shape of a specification's rules, seeds the no-H class with C, and
solves every strongly connected component that is affine over K.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

from .algebra import (
    K_C,
    K_ONE,
    K_X,
    K_ZERO,
    KElem,
    KyPoly,
    Y_ONE,
    YRat,
    k_of,
    kernel_mul,
    ratx,
    yp_add,
    yp_div_root,
    yp_eval,
    yp_mul,
)
from .classes import class_id, full_class, normalize
from .paths import check_word
from .strategies import Specification, strongly_connected

K_XX = K_X * K_X
K_INV_ONE_MINUS_X = k_of(ratx(1, [1, -1]))
K_X_OVER_ONE_MINUS_X = k_of(ratx([0, 1], [1, -1]))
K_XC = K_X * K_C
_X_POWERS = (K_ONE, K_X, K_XX)

DYCK_ID = class_id(normalize(full_class(avoid=("H",))))


def _divided_difference(num: KyPoly, a: int, b: int, r: KElem) -> KyPoly:
    """Numerator over F1^a * F2^b of (h(y) - h(r))/(y - r), where h is
    num/(F1^a * F2^b); yp_div_root checks that the division is exact."""
    den = kernel_mul((K_ONE,), a, b)
    hr = yp_eval(num, r) / yp_eval(den, r)
    return yp_div_root(yp_add(num, yp_mul(den, (-hr,))), r)


def _step_u(g: YRat) -> YRat:
    """Append U: xy/(1-x) * (h(y) - h(y0))/(y - y0), h = y*g, y0 = x/(1-x)."""
    q = _divided_difference((K_ZERO,) + g.num, g.a, g.b,
                            K_X_OVER_ONE_MINUS_X)
    return YRat.make(yp_mul(q, (K_ZERO, K_X_OVER_ONE_MINUS_X)), g.a, g.b)


def _step_h(g: YRat) -> YRat:
    """Append H: x/F2 * (h(y) - h(xC))/(y - xC), h = y*g, where the kernel
    F2 = 1 - x^2*C - xy is the Dyck-prefix denominator."""
    q = _divided_difference((K_ZERO,) + g.num, g.a, g.b, K_XC)
    return YRat.make(yp_mul(q, (K_X,)), g.a, g.b + 1)


def _step_d(g: YRat) -> YRat:
    """Append D: x * (h(y) - h(0))/y, h = g/F1, F1 = 1 - x - xy."""
    q = _divided_difference(g.num, g.a + 1, g.b, K_ZERO)
    return YRat.make(yp_mul(q, (K_X,)), g.a + 1, g.b)

_STEPS = {"U": _step_u, "H": _step_h, "D": _step_d}


@lru_cache(maxsize=None)
def gamma(q: str) -> YRat:
    """Bivariate GF of the shortest Motzkin prefixes containing q."""
    check_word(q)
    if q == "":
        return Y_ONE
    return _STEPS[q[-1]](gamma(q[:-1]))


# each letter's step root r and the factor of gamma(prefix)(r) in delta
_DELTA_TERMS = {"U": (K_X_OVER_ONE_MINUS_X, K_INV_ONE_MINUS_X),
                "H": (K_XC, K_C), "D": (K_ZERO, K_INV_ONE_MINUS_X)}


@lru_cache(maxsize=None)
def delta(q: str) -> KElem:
    """Length GF of the Motzkin paths avoiding q, as an element of K."""
    check_word(q)
    if q == "":
        return K_ZERO
    r, factor = _DELTA_TERMS[q[-1]]
    return delta(q[:-1]) + factor * gamma(q[:-1]).subst(r)


# specification equation systems

def extract_equations(spec: Specification) -> dict:
    """Linear shape of a rule system, one equation per class.

    Each equation is lhs = sum of terms x^coef_x_power * prod(factors);
    a term with no factors is the constant x^coef_x_power.
    """
    eqs = [{"lhs": cid,
            "terms": [{"coef_x_power": len(atom), "factors": list(factors)}
                      for atom, factors in rule.terms]}
           for cid, rule in spec.rules.items()]
    return {"vars": list(spec.rules), "eqs": eqs}


@dataclass
class NonClosedForm:
    """Declared outcome: the system is not affine over K after seeding."""

    system: dict
    reason: str


def solve_closed_form(spec: Specification):
    """Map of class id to its generating function in K, or NonClosedForm.

    Seeds the no-H class with C, then walks strongly connected
    components in dependency order, solving each affine system by
    Gaussian elimination over K.
    """
    # a rule without factors is a constant: 1 for epsilon, 0 for empty
    values = {cid: sum((_X_POWERS[len(atom)] for atom, _ in rule.terms),
                       K_ZERO)
              for cid, rule in spec.rules.items() if not rule.children}
    if DYCK_ID in spec.rules:
        values[DYCK_ID] = K_C

    unknowns = [cid for cid in spec.rules if cid not in values]
    edges = {
        cid: [c for c in spec.rules[cid].children
              if c in spec.rules and c not in values]
        for cid in unknowns
    }
    for comp in strongly_connected(unknowns, edges):
        result = _solve_component(spec, comp, values)
        if result is not None:
            return NonClosedForm(extract_equations(spec), result)
    return values


def _solve_component(spec: Specification, comp: list[str],
                     values: dict[str, KElem]):
    """Solve one SCC in place; returns a reason string on failure."""
    pos = {cid: i for i, cid in enumerate(comp)}
    m = len(comp)
    # rows of (I - A) | rhs for the system T = A T + rhs
    rows = [[K_ZERO] * m + [K_ZERO] for _ in range(m)]
    for cid in comp:
        i = pos[cid]
        rows[i][i] = K_ONE
        for atom, factors in spec.rules[cid].terms:
            # x^len(atom) times the known factors, times the unknown ones
            known = [_X_POWERS[len(atom)]] if atom else []
            known += [values[f] for f in factors if f in values]
            coef = reduce(mul, known) if known else K_ONE
            unknown = [f for f in factors if f not in values]
            if not unknown:
                rows[i][m] += coef
            elif len(unknown) == 1:
                rows[i][pos[unknown[0]]] -= coef
            else:
                return (f"class {cid} multiplies two unsolved classes"
                        f" {unknown[0]} and {unknown[1]}")
    # Gaussian elimination over K
    for col in range(m):
        pivot = next((r for r in range(col, m)
                      if not rows[r][col].is_zero()), None)
        if pivot is None:
            return f"singular system for component {comp}"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r == col or rows[r][col].is_zero():
                continue
            factor = rows[r][col]
            rows[r] = [rv - factor * cv
                       for rv, cv in zip(rows[r], rows[col])]
    for cid in comp:
        values[cid] = rows[pos[cid]][m]
    return None
