"""Class descriptors, canonical normalization and membership."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from motzkin.classes import (
    EMPTY,
    EPSILON,
    ClassDescriptor,
    Mode,
    class_id,
    crossing_implies,
    epsilon_member,
    full_class,
    matches,
    normalize,
    plain,
    trivially_contained,
)
from motzkin.paths import CrossingPattern, enumerate_motzkin, split_pattern

PATHS_UP_TO_7 = [p for n in range(8) for p in enumerate_motzkin(n)]


def cp(text: str) -> CrossingPattern:
    return CrossingPattern.parse(text)


def ustart(avoid=(), contain=()) -> ClassDescriptor:
    av = tuple(cp(t) for t in avoid)
    co = tuple(tuple(cp(t) for t in clause) for clause in contain)
    return ClassDescriptor(Mode.USTART, av, co, crossing=True)


def test_crossing_implies_is_componentwise_subword():
    assert crossing_implies(cp("H-"), cp("H-H"))
    assert crossing_implies(cp("H-"), cp("HH-"))
    assert crossing_implies(cp("-H"), cp("-HH"))
    assert crossing_implies(cp("-H"), cp("H-H"))
    assert not crossing_implies(cp("-H"), cp("H-"))
    assert not crossing_implies(cp("HH-"), cp("H-H"))
    assert crossing_implies(cp("U-D"), cp("UH-HD"))


def test_trivially_contained():
    assert trivially_contained(cp("-"), Mode.USTART, True)
    assert trivially_contained(cp("U-"), Mode.USTART, True)
    assert trivially_contained(cp("D-"), Mode.USTART, True)
    assert trivially_contained(cp("UD-"), Mode.USTART, True)
    assert not trivially_contained(cp("H-"), Mode.USTART, True)
    assert not trivially_contained(cp("-U"), Mode.USTART, True)
    assert trivially_contained(plain(""), Mode.FULL, False)
    assert not trivially_contained(plain("H"), Mode.FULL, False)


def test_normalize_empty_when_avoiding_trivial():
    assert normalize(full_class(avoid=("",))) is EMPTY
    assert normalize(ustart(avoid=("UD-",))) is EMPTY
    assert normalize(ustart(avoid=("-HH", "U-"))) is EMPTY


def test_markers_are_singletons():
    for marker, name in ((EMPTY, "EMPTY"), (EPSILON, "EPSILON")):
        assert repr(marker) == name
        assert copy.deepcopy(marker) is marker
        assert pickle.loads(pickle.dumps(marker)) is marker
    assert EMPTY is not EPSILON


def test_normalize_drops_implied_avoids():
    d = normalize(full_class(avoid=("H", "HH", "UHD")))
    assert class_id(d) == "Av(H)"
    d = normalize(ustart(avoid=("-HH", "H-H", "HH-", "H-")))
    assert class_id(d) == "AvUx(-HH,H-)"


def test_normalize_clause_rules():
    # satisfied clause disappears
    d = normalize(ustart(avoid=("-HH",), contain=(("UD-",),)))
    assert class_id(d) == "AvUx(-HH)"
    # clause member killed by an avoided pattern empties the clause
    assert normalize(full_class(avoid=("H",), contain=(("HH",),))) is EMPTY
    # dead members are removed but live ones keep the clause alive
    d = normalize(full_class(avoid=("H",), contain=(("HH", "UD"),)))
    assert class_id(d) == "Av(H)&Co(UD)"
    # clause members implying another member are dropped
    d = normalize(full_class(contain=(("HH", "H"),)))
    assert class_id(d) == "Av()&Co(H)"


def test_normalize_clause_subsumption():
    # Co(H) forces Co(H|UU): the weaker clause is dropped
    d = normalize(full_class(contain=(("H",), ("H", "UU"))))
    assert class_id(d) == "Av()&Co(H)"
    # duplicate clauses collapse
    d = normalize(full_class(contain=(("H",), ("H",))))
    assert class_id(d) == "Av()&Co(H)"
    # incomparable clauses both stay
    d = normalize(full_class(contain=(("H",), ("UU",))))
    assert class_id(d) == "Av()&Co(H)&Co(UU)"


def test_normalize_is_order_insensitive():
    a = normalize(full_class(avoid=("UD", "HH"), contain=(("UU", "H"),)))
    b = normalize(full_class(avoid=("HH", "UD"), contain=(("H", "UU"),)))
    assert a == b
    assert class_id(a) == class_id(b)


def test_normalize_reaches_fixpoint():
    d = normalize(ustart(avoid=("-HH", "H-H", "HH-")))
    assert normalize(d) == d


@st.composite
def _pattern(draw, crossing: bool) -> CrossingPattern:
    w = draw(st.text("UHD", min_size=1, max_size=4))
    cut = draw(st.integers(0, len(w))) if crossing else 0
    return CrossingPattern(w[:cut], w[cut:])


@st.composite
def _descriptors(draw):
    """Raw descriptors in every mode, crossing ones in U-start mode, from
    nonempty words of length <= 4 (a crossing pattern is a cut of one)."""
    mode, crossing = draw(st.sampled_from([
        (Mode.FULL, False), (Mode.HSTART, False),
        (Mode.USTART, False), (Mode.USTART, True)]))
    pattern = _pattern(crossing)
    avoid = draw(st.lists(pattern, max_size=3))
    contain = draw(st.lists(st.lists(pattern, min_size=1, max_size=3),
                            max_size=3))
    return ClassDescriptor(mode, tuple(avoid),
                           tuple(tuple(c) for c in contain), crossing)


def _antichain(patterns) -> bool:
    return not any(a != b and crossing_implies(a, b)
                   for a in patterns for b in patterns)


@given(_descriptors(), st.randoms(use_true_random=False))
def test_normalize_keeps_meaning_and_is_canonical(d, rnd):
    r = normalize(d)
    for p in PATHS_UP_TO_7:
        assert matches(d, p) == (r is not EMPTY and matches(r, p)), p

    def shuffled(items):
        items = list(items)
        items += rnd.sample(items, rnd.randint(0, len(items)))
        rnd.shuffle(items)
        return tuple(items)

    # permuting and repeating avoids, members and clauses changes nothing
    e = ClassDescriptor(d.mode, shuffled(d.avoid),
                        shuffled(shuffled(c) for c in d.contain), d.crossing)
    s = normalize(e)
    assert (r is EMPTY) == (s is EMPTY)
    if r is not EMPTY:
        assert class_id(r) == class_id(s)
        assert normalize(r) == r
        assert _antichain(r.avoid)
        assert all(_antichain(clause) for clause in r.contain)


def test_epsilon_member():
    assert epsilon_member(normalize(full_class(avoid=("HH",))))
    assert not epsilon_member(normalize(full_class(contain=(("H",),))))
    with pytest.raises(ValueError):
        epsilon_member(ClassDescriptor(Mode.HSTART))


def test_crossing_flag_requires_ustart():
    with pytest.raises(ValueError):
        ClassDescriptor(Mode.FULL, (), (), crossing=True)


def test_class_id_distinguishes_plain_from_crossing():
    a = ClassDescriptor(Mode.USTART, (plain("HH"),), ())
    b = ClassDescriptor(Mode.USTART, (plain("HH"),), (), crossing=True)
    assert class_id(a) != class_id(b)
    assert class_id(a) == "AvU(HH)"
    assert class_id(b) == "AvUx(-HH)"


def test_matches_modes():
    d = normalize(full_class(avoid=("HH",)))
    assert matches(d, "")
    assert matches(d, "UHD")
    assert not matches(d, "HH")
    h = ClassDescriptor(Mode.HSTART, (plain("HH"),), ())
    assert matches(h, "HUD")
    assert not matches(h, "UDH")
    assert not matches(h, "")
    u = ClassDescriptor(Mode.USTART, (plain("HH"),), ())
    assert matches(u, "UHD")
    assert not matches(u, "HUD")


def test_matches_crossing_interpretation():
    d = ustart(avoid=("H-H",))
    # UHDH has x="H", y="H": contains H-H
    assert not matches(d, "UHDH")
    # UHHD has x="HH", y="": avoids H-H
    assert matches(d, "UHHD")
    d = ustart(contain=(("H-",),))
    assert matches(d, "UHD")
    assert not matches(d, "UDH")


def test_matches_agrees_with_plain_oracle_on_crossified_sets():
    # avoiding a word equals avoiding all of its cuts, on U-start paths
    for q in ("HH", "UD", "UHD"):
        cuts = tuple(split_pattern(q))
        d = ClassDescriptor(Mode.USTART, cuts, (), crossing=True)
        e = ClassDescriptor(Mode.USTART, (plain(q),), ())
        for n in range(9):
            for p in enumerate_motzkin(n):
                assert matches(d, p) == matches(e, p), (q, p)
