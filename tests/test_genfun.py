"""Generating functions: gamma/delta recursions and the equation solver."""

import hashlib
from itertools import product

import pytest

from motzkin.algebra import (
    K_C,
    K_ONE,
    K_X,
    K_ZERO,
    Y_ONE,
    YRat,
    from_sqrt_form,
    k_of,
    k_str,
    minimal_polynomial,
    minpoly_str,
    poly,
    ratx,
    series,
    sqrt_form_str,
    y_series,
    yp,
)
from motzkin.classes import full_class, normalize
from motzkin.genfun import (
    DYCK_ID,
    NonClosedForm,
    delta,
    extract_equations,
    gamma,
    solve_closed_form,
)
from motzkin.paths import oracle_count, oracle_minco
from motzkin.strategies import EPSILON_ID, build_specification


def test_gamma_base_case():
    assert gamma("") == Y_ONE


def test_delta_base_cases():
    assert delta("").is_zero()
    # avoiding H leaves exactly the paths with no flat step
    assert (delta("H") - K_C).is_zero()
    # avoiding D (or U) leaves only the all-flat paths
    one_over_1mx = k_of(ratx(1, [1, -1]))
    assert (delta("D") - one_over_1mx).is_zero()
    assert (delta("U") - one_over_1mx).is_zero()


def test_delta_series_match_oracle():
    # UUHDDH guards against coefficient swell in the algebra core
    words = map("".join, product("UHD", repeat=5))
    for q in ("H", "HH", "UD", "UHD", "HUD", "UHHD", "UUDD", "DHU",
              "UUHDDH", *words):
        want = [oracle_count(n, avoid=(q,)) for n in range(13)]
        assert series(delta(q), 12) == want, q


def test_delta_h_series():
    assert series(delta("H"), 12) == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132]


def test_delta_printed_forms_are_pinned():
    # every printed closed form and series of the 120 words of length 1-4
    lines = []
    for k in range(1, 5):
        for q in map("".join, product("UHD", repeat=k)):
            u = delta(q)
            lines.append("\t".join([q, k_str(u), sqrt_form_str(u),
                                    minpoly_str(u),
                                    ",".join(map(str, series(u, 12)))]))
    assert len(lines) == 120
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "98d9c05e7b4e1294311a14fcba03c2186ed937a49bb5a5f593d00a700a17a08a"


def test_gamma_uh_identity():
    # x/(1-x) * (DP(x,y) - 1) with DP = 1/(1 - xy - x^2 C)
    dp = Y_ONE / YRat.make(yp([K_ONE - K_X * K_X * K_C, -K_X]))
    frac = yp([k_of(ratx([0, 1], [1, -1]))])
    want = YRat.make(frac) * (dp - Y_ONE)
    assert gamma("UH") == want


def test_gamma_matches_positional_oracle():
    words = [""] + list("UHD") + [a + b for a in "UHD" for b in "UHD"]
    for q in words:
        coefs = y_series(gamma(q), 8)
        for h in range(9):
            got = series(coefs[h], 8)
            for n in range(9):
                assert got[n] == oracle_minco(q, n, h), (q, n, h)


def test_delta_hh_minimal_polynomial():
    got = minimal_polynomial(delta("HH"))
    want = (poly([0, 0, -1, 0, 4]), poly([1, -1, -4, 4]), poly([-1, 0, 5]))
    assert got == want


def test_delta_uhhd_closed_form():
    want = from_sqrt_form(
        poly([1, -3, -4, 12]),
        poly([-1, 3, 4, -8]),
        poly([0, 0, 2, -4, -6, 16, -8]),
    )
    assert (delta("UHHD") - want).is_zero()


def test_solver_agrees_with_delta():
    for q in ("HH", "UHHD", "HD", "UD"):
        spec = build_specification(full_class(avoid=(q,)))
        solved = solve_closed_form(spec)
        assert not isinstance(solved, NonClosedForm), q
        assert (solved[spec.root] - delta(q)).is_zero(), q


def test_solver_seeds():
    spec = build_specification(full_class(avoid=("HH",)))
    solved = solve_closed_form(spec)
    assert (solved[EPSILON_ID] - K_ONE).is_zero()
    if DYCK_ID in solved:
        assert (solved[DYCK_ID] - K_C).is_zero()


def test_solver_solution_satisfies_equations():
    spec = build_specification(full_class(avoid=("UHHD",)))
    solved = solve_closed_form(spec)
    for cid, rule in spec.rules.items():
        lhs = solved[cid]
        if rule.kind == "epsilon":
            rhs = K_ONE
        elif rule.kind == "empty":
            rhs = K_ZERO
        elif rule.kind == "union":
            rhs = K_ZERO
            for c in rule.children:
                rhs = rhs + solved[c]
        elif rule.atom == "H":
            rhs = K_X * solved[rule.children[0]]
        else:
            rhs = (K_X * K_X * solved[rule.children[0]]
                   * solved[rule.children[1]])
        assert (lhs - rhs).is_zero(), cid


def test_solver_reports_nonlinear_system():
    spec = build_specification(full_class())
    res = solve_closed_form(spec)
    assert isinstance(res, NonClosedForm)
    assert "unsolved" in res.reason
    assert res.system == extract_equations(spec)


def test_contain_class_solution():
    d = normalize(full_class(avoid=("HH",), contain=(("H",),)))
    spec = build_specification(d)
    solved = solve_closed_form(spec)
    assert not isinstance(solved, NonClosedForm)
    got = series(solved[spec.root], 10)
    want = [oracle_count(n, avoid=("HH",), contain_clauses=(("H",),))
            for n in range(11)]
    assert got == want


def test_extract_equations_shape():
    spec = build_specification(full_class(avoid=("HH",)))
    sysd = extract_equations(spec)
    assert set(sysd) == {"vars", "eqs"}
    assert set(sysd["vars"]) == set(spec.rules)
    for eq in sysd["eqs"]:
        assert eq["lhs"] in sysd["vars"]
        for term in eq["terms"]:
            assert term["coef_x_power"] in (0, 1, 2)
            assert all(f in sysd["vars"] for f in term["factors"])
    by_lhs = {eq["lhs"]: eq for eq in sysd["eqs"]}
    root_eq = by_lhs[spec.root]
    assert all(term["coef_x_power"] == 0 and len(term["factors"]) == 1
               for term in root_eq["terms"])


def test_gamma_delta_cache_consistency():
    # same object for repeated calls, and prefix reuse stays sound
    assert gamma("UH") is gamma("UH")
    a = delta("UHH")
    b = delta("UHH")
    assert (a - b).is_zero()
