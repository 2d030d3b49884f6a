"""Strategy rewrites and specification assembly, checked against the
brute-force membership oracle."""

import pytest
from hypothesis import assume, given, strategies as st

from motzkin.classes import (
    EMPTY,
    ClassDescriptor,
    Mode,
    class_id,
    extend,
    full_class,
    matches,
    normalize,
    plain,
)
from motzkin.counting import SpecCounter
from motzkin.paths import CrossingPattern, enumerate_motzkin, word_key
from motzkin.strategies import (
    EPSILON,
    EPSILON_ID,
    Rule,
    StrategyError,
    branches,
    build_specification,
    crossify,
    factor,
    hstart_rewrite,
    localize,
    root_split,
)


def cp(text: str) -> CrossingPattern:
    return CrossingPattern.parse(text)


def member_words(desc, n: int) -> set[str]:
    """Oracle-side member set of a descriptor (or sentinel) at length n."""
    if desc is EPSILON:
        return {""} if n == 0 else set()
    if desc is EMPTY:
        return set()
    return {p for p in enumerate_motzkin(n) if matches(desc, p)}


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule("product", "H", ("A", "B"))
    with pytest.raises(ValueError):
        Rule("product", "UD", ("A",))
    with pytest.raises(ValueError):
        Rule("banana")
    Rule("union", children=("A",))
    Rule("epsilon")
    assert Rule("epsilon").terms == [("", ())]
    assert Rule("empty").terms == []
    assert Rule("union", children=("A", "B")).terms == [
        ("", ("A",)), ("", ("B",))]
    assert Rule("product", "H", ("A",)).terms == [("H", ("A",))]
    assert Rule("product", "UD", ("A", "B")).terms == [("UD", ("A", "B"))]


def test_root_split_unrestricted():
    children = root_split(normalize(full_class()))
    assert children[0] is EPSILON
    assert [class_id(c) for c in children[1:]] == ["AvH()", "AvU()"]


def test_root_split_no_epsilon_when_contain():
    children = root_split(normalize(full_class(contain=(("H",),))))
    assert EPSILON not in children


def test_root_split_copies_are_normal():
    d = normalize(full_class(avoid=("HH", "UHD", "UHHD"),
                             contain=(("UU", "H", "HUU"), ("DU",))))
    children = root_split(d)
    assert [c.mode for c in children] == [Mode.HSTART, Mode.USTART]
    assert all(normalize(c) == c for c in children)


def test_hstart_rewrite_strips_one_leading_h():
    d = ClassDescriptor(Mode.HSTART, (plain("HH"),), ())
    assert class_id(hstart_rewrite(d)) == "Av(H)"
    d = ClassDescriptor(Mode.HSTART, (plain("UD"),), ())
    assert class_id(hstart_rewrite(d)) == "Av(UD)"
    d = ClassDescriptor(Mode.HSTART, (plain("H"),), ())
    assert hstart_rewrite(d) is EMPTY
    d = ClassDescriptor(Mode.HSTART, (plain("HH"),), ((plain("HUD"),),))
    out = hstart_rewrite(d)
    assert class_id(out) == "Av(H)&Co(UD)"


def test_crossify_produces_all_cuts():
    d = ClassDescriptor(Mode.USTART, (plain("HH"),), ())
    out = crossify(d)
    assert class_id(out) == "AvUx(-HH,H-H,HH-)"
    d = ClassDescriptor(Mode.USTART, (), ((plain("H"),),))
    out = crossify(d)
    assert class_id(out) == "AvUx()&Co(-H|H-)"


def test_localize_reproduces_two_branch_split():
    d = crossify(ClassDescriptor(Mode.USTART, (plain("HH"),), ()))
    leaves = localize(d)
    assert [class_id(leaf) for leaf in leaves] == [
        "AvUx(-HH,H-)",
        "AvUx(-H,HH-)&Co(H-)",
    ]


def test_localize_is_a_disjoint_cover():
    roots = [
        ClassDescriptor(Mode.USTART, (plain("HH"),), ()),
        ClassDescriptor(Mode.USTART, (plain("UHD"),), ()),
        ClassDescriptor(Mode.USTART, (plain("UD"),), ((plain("HH"),),)),
    ]
    for root in roots:
        d = crossify(root)
        if d is EMPTY:
            continue
        leaves = localize(d)
        for n in range(9):
            whole = member_words(d, n)
            parts = [member_words(leaf, n) for leaf in leaves]
            assert sum(len(s) for s in parts) == len(whole)
            got = set().union(*parts) if parts else set()
            assert got == whole


_CUTS = st.text("UHD", min_size=1, max_size=4).flatmap(
    lambda w: st.integers(0, len(w)).map(
        lambda i: CrossingPattern(w[:i], w[i:])))


@given(st.lists(_CUTS, max_size=4),
       st.lists(st.lists(_CUTS, min_size=1, max_size=3), max_size=3))
def test_localize_branches_equal_normalize_of_raw_child(avoid, contain):
    """Each branch, normalized from its normalized parent, equals the
    raw branch normalized from scratch (EMPTY included), for every kind
    of branching step and every item it could apply to."""
    d = normalize(ClassDescriptor(Mode.USTART, tuple(avoid),
                                  tuple(map(tuple, contain)), crossing=True))
    assume(d is not EMPTY)
    items = ([("choose", c) for c in d.contain if len(c) > 1]
             + [("unzip", c) for c in d.contain
                if len(c) == 1 and not c[0].is_local]
             + [("split", q) for q in d.avoid if not q.is_local])
    for kind, item in items:
        for new_avoid, old, new in branches(kind, item):
            raw = ClassDescriptor(
                d.mode, d.avoid + ((new_avoid,) if new_avoid else ()),
                tuple(c for c in d.contain if c != old) + new, d.crossing)
            assert extend(d, new_avoid, old, new) == normalize(raw), (
                kind, item)


def test_factor_splits_arch():
    left, right = factor(normalize(ClassDescriptor(
        Mode.USTART, (cp("-HH"), cp("H-")), (), crossing=True)))
    assert class_id(left) == "Av(H)"
    assert class_id(right) == "Av(HH)"
    with pytest.raises(StrategyError):
        factor(normalize(ClassDescriptor(
            Mode.USTART, (cp("H-H"),), (), crossing=True)))


def test_factor_strips_arch_letters():
    left, right = factor(normalize(ClassDescriptor(
        Mode.USTART, (cp("UHD-"),), ((cp("-UD"),),), crossing=True)))
    assert class_id(left) == "Av(H)"
    assert class_id(right) == "Av()&Co(UD)"


def test_build_specification_unrestricted():
    spec = build_specification(normalize(full_class()))
    assert spec.root == "Av()"
    assert set(spec.rules) == {"Av()", "Eps", "AvH()", "AvU()"}
    assert spec.rules["Av()"] == Rule(
        "union", children=("Eps", "AvH()", "AvU()"))
    assert spec.rules["AvH()"] == Rule("product", "H", ("Av()",))
    assert spec.rules["AvU()"] == Rule("product", "UD", ("Av()", "Av()"))
    assert spec.rules["Eps"] == Rule("epsilon")


def test_build_specification_known_shape():
    spec = build_specification(normalize(full_class(avoid=("HH",))))
    assert spec.rules["AvU(HH)"].children == (
        "AvUx(-HH,H-)", "AvUx(-H,HH-)&Co(H-)")
    assert spec.rules["AvUx(-HH,H-)"] == Rule(
        "product", "UD", ("Av(H)", "Av(HH)"))
    assert spec.rules["AvUx(-H,HH-)&Co(H-)"] == Rule(
        "product", "UD", ("Av(HH)&Co(H)", "Av(H)"))


def test_build_specification_empty_root():
    spec = build_specification(EMPTY)
    assert spec.root == "Empty"
    assert spec.rules["Empty"] == Rule("empty")
    spec = build_specification(full_class(avoid=("",)))
    assert spec.root == "Empty"


def test_build_specification_is_deterministic():
    a = build_specification(normalize(full_class(avoid=("UHD", "HH"))))
    b = build_specification(normalize(full_class(avoid=("HH", "UHD"))))
    assert a.root == b.root
    assert a.rules == b.rules
    assert list(a.rules) == list(b.rules)


SOUNDNESS_ROOTS = [
    full_class(),
    full_class(avoid=("H",)),
    full_class(avoid=("UD",)),
    full_class(avoid=("HH",)),
    full_class(avoid=("UHD",)),
    full_class(avoid=("HH", "UD")),
    full_class(avoid=("UD",), contain=(("HH",),)),
    full_class(contain=(("UHD", "HH"),)),
]


@pytest.mark.parametrize("root", SOUNDNESS_ROOTS,
                         ids=lambda d: class_id(normalize(d)))
def test_every_rule_is_sound(root):
    """Each rule's set identity holds verbatim at the path level."""
    spec = build_specification(normalize(root))
    for cid, rule in spec.rules.items():
        desc = spec.descriptors[cid]
        for n in range(8):
            lhs = member_words(desc, n)
            if rule.kind == "epsilon":
                rhs = {""} if n == 0 else set()
            elif rule.kind == "empty":
                rhs = set()
            elif rule.kind == "union":
                parts = [member_words(spec.descriptors[c], n)
                         for c in rule.children]
                assert sum(len(s) for s in parts) == len(
                    set().union(*parts) if parts else set()), (cid, n)
                rhs = set().union(*parts) if parts else set()
            elif rule.atom == "H":
                child = spec.descriptors[rule.children[0]]
                rhs = {"H" + w for w in member_words(child, n - 1)}
            else:
                a = spec.descriptors[rule.children[0]]
                b = spec.descriptors[rule.children[1]]
                rhs = set()
                for i in range(n - 1):
                    for x in member_words(a, i):
                        for y in member_words(b, n - 2 - i):
                            rhs.add("U" + x + "D" + y)
            assert lhs == rhs, (cid, n, rule)
