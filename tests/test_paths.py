"""Core path predicates, enumeration, and the counting oracle against
brute-force enumeration."""

import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from motzkin.paths import (
    STEP_RANK,
    CrossingPattern,
    NotUStartError,
    check_word,
    contains,
    contains_crossing,
    enumerate_motzkin,
    enumerate_motzkin_prefixes,
    first_return_split,
    height_profile,
    is_motzkin_path,
    is_motzkin_prefix,
    oracle_count,
    oracle_minco,
    split_pattern,
    strip,
    word_key,
)

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_check_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        check_word("UXD")
    check_word("")
    check_word("UHD")


def test_height_profile():
    assert height_profile("") == (0, 0)
    assert height_profile("UUDD") == (0, 0)
    assert height_profile("UDD") == (-1, -1)
    assert height_profile("HUH") == (1, 0)


def test_path_and_prefix_predicates():
    assert is_motzkin_path("")
    assert is_motzkin_path("UHD")
    assert not is_motzkin_path("U")
    assert not is_motzkin_path("DU")
    assert is_motzkin_prefix("U")
    assert is_motzkin_prefix("UUH")
    assert not is_motzkin_prefix("DU")


def test_contains_is_subword_not_factor():
    assert contains("UHD", "UD")
    assert contains("HUHDH", "UHD")
    assert contains("UHHD", "UHD")
    assert contains("UHDUHD", "UUD")
    assert not contains("UHD", "DU")
    assert not contains("UUDD", "UDUD")
    assert not contains("UUDD", "HH")
    assert contains("HH", "")
    assert not contains("", "H")
    assert contains("UHUHDD", "HH")


def test_enumeration_counts_are_motzkin():
    for n, m in enumerate(MOTZKIN):
        assert len(enumerate_motzkin(n)) == m


def test_enumeration_is_sorted_and_deduplicated():
    for n in range(7):
        ps = enumerate_motzkin(n)
        assert len(set(ps)) == len(ps)
        assert ps == sorted(ps, key=word_key)
        assert all(is_motzkin_path(p) and len(p) == n for p in ps)
    # word_key is shortlex with U < H < D on every word of length <= 4
    ws = ["".join(t) for n in range(4, -1, -1) for t in product("DHU", repeat=n)]
    assert sorted(ws, key=word_key) == sorted(
        ws, key=lambda w: (len(w), [STEP_RANK[c] for c in w]))


def test_prefix_enumeration():
    assert list(enumerate_motzkin_prefixes(0)) == [""]
    assert set(enumerate_motzkin_prefixes(1)) == {"U", "H"}
    for n in range(7):
        ps = enumerate_motzkin_prefixes(n)
        assert all(is_motzkin_prefix(p) and len(p) == n for p in ps)
        assert len(set(ps)) == len(ps)


def test_first_return_split():
    assert first_return_split("UD") == ("", "")
    assert first_return_split("UHDH") == ("H", "H")
    assert first_return_split("UUDDUD") == ("UD", "UD")
    assert first_return_split("UHUUDHDD") == ("HUUDHD", "")
    with pytest.raises(NotUStartError):
        first_return_split("HUD")
    with pytest.raises(NotUStartError):
        first_return_split("")


def test_crossing_pattern_parse_and_str():
    cp = CrossingPattern.parse("UH-D")
    assert (cp.left, cp.right) == ("UH", "D")
    assert str(cp) == "UH-D"
    assert CrossingPattern.parse("-H") == CrossingPattern("", "H")
    assert CrossingPattern.parse("H-") == CrossingPattern("H", "")
    assert CrossingPattern("", "").is_local
    assert CrossingPattern("U", "").is_local
    assert not CrossingPattern("U", "D").is_local


def test_contains_crossing_against_direct_reading():
    # UxDy contains l-r iff UxD contains l and y contains r
    p = "UHDUHD"
    assert contains_crossing(p, CrossingPattern("H", "H"))
    assert contains_crossing(p, CrossingPattern("UHD", "UHD"))
    assert not contains_crossing(p, CrossingPattern("HH", ""))
    assert not contains_crossing(p, CrossingPattern("", "HH"))
    assert contains_crossing("UD", CrossingPattern("UD", ""))


def test_split_pattern():
    assert [str(c) for c in split_pattern("HH")] == ["-HH", "H-H", "HH-"]
    assert [str(c) for c in split_pattern("")] == ["-"]
    assert [str(c) for c in split_pattern("UD")] == ["-UD", "U-D", "UD-"]


def test_strip():
    assert strip("UD") == ""
    assert strip("U") == ""
    assert strip("D") == ""
    assert strip("UHD") == "H"
    assert strip("HH") == "HH"
    assert strip("UHHD") == "HH"
    assert strip("UUDD") == "UD"


def test_strip_containment_equivalence():
    # contains(UxD, l) == contains(x, strip(l)) whenever UxD is an arch
    pats = ["U", "D", "H", "UD", "UHD", "HH", "UH", "HD", "UUDD", "DU"]
    for n in range(0, 9):
        for x in enumerate_motzkin(n):
            arch = "U" + x + "D"
            for q in pats:
                assert contains(arch, q) == contains(x, strip(q)), (x, q)


def test_oracle_count_unrestricted():
    # M_n = ((2n+1) M_{n-1} + (3n-3) M_{n-2}) / (n+2), up to the cap
    m = MOTZKIN[:2]
    for n in range(2, 19):
        m.append(((2 * n + 1) * m[n - 1] + (3 * n - 3) * m[n - 2]) // (n + 2))
    assert m[:len(MOTZKIN)] == MOTZKIN
    assert [oracle_count(n) for n in range(19)] == m


def test_oracle_count_avoidance_sequences():
    # interleaved Catalan structure for HH-avoiders
    got = [oracle_count(n, avoid=("HH",)) for n in range(13)]
    assert got == [1, 1, 1, 3, 2, 10, 5, 35, 14, 126, 42, 462, 132]
    # past the cap: Catalan C_k at length 2k, C(2k+1, k) at length 2k+1
    got = [oracle_count(n, avoid=("HH",), max_length=40) for n in range(41)]
    assert got == [comb(n, n // 2) // (n // 2 + 1) if n % 2 == 0
                   else comb(n, n // 2) for n in range(41)]
    got = [oracle_count(n, avoid=("H",)) for n in range(13)]
    assert got == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132]
    got = [oracle_count(n, avoid=("D",)) for n in range(8)]
    assert got == [1] * 8
    got = [oracle_count(n, avoid=("UHHD",)) for n in range(13)]
    assert got == [1, 1, 2, 4, 8, 18, 33, 73, 127, 279, 473, 1045, 1749]


def test_oracle_count_contain_clauses():
    # avoid HH while containing H: odd lengths only
    got = [oracle_count(n, avoid=("HH",), contain_clauses=(("H",),))
           for n in range(9)]
    assert got == [0, 1, 0, 3, 0, 10, 0, 35, 0]
    # containment clause is a disjunction
    for n in range(8):
        both = oracle_count(n, contain_clauses=(("HH", "UU"),))
        hh = oracle_count(n, contain_clauses=(("HH",),))
        uu = oracle_count(n, contain_clauses=(("UU",),))
        meet = oracle_count(n, contain_clauses=(("HH",), ("UU",)))
        assert both == hh + uu - meet


def test_oracle_minco_base_cases():
    assert oracle_minco("", 0, 0) == 1
    assert oracle_minco("", 3, 1) == 0
    # a minimal container of H at height 0 is exactly the word H
    assert oracle_minco("H", 1, 0) == 1
    assert oracle_minco("H", 2, 0) == 0
    # prefixes ending at height h, containing q only at the last step
    assert oracle_minco("U", 1, 1) == 1
    # HU first contains U at its last step; UU and UH do not
    assert oracle_minco("U", 2, 1) == 1
    assert oracle_minco("U", 2, 2) == 0


def test_oracle_minco_column_sums():
    # summing over heights the minimal containers of q counts every
    # prefix whose q-containment appears exactly at its last step
    for q in ("H", "UD", "HH"):
        for n in range(1, 9):
            total = sum(oracle_minco(q, n, h) for h in range(n + 1))
            direct = 0
            for p in enumerate_motzkin_prefixes(n):
                if contains(p, q) and not contains(p[:-1], q):
                    direct += 1
            assert total == direct


def test_negative_lengths_give_no_walks():
    assert enumerate_motzkin(-1) == []
    assert enumerate_motzkin_prefixes(-1) == []
    assert oracle_count(-1) == 0
    assert oracle_minco("U", -1, 0) == 0


def test_oracle_count_matches_contains_exhaustively():
    # every word of length <= 4, alone and in seeded 2- and 3-word groups,
    # as an avoid set and as one clause, on all Motzkin paths of length <= 10
    paths = [p for n in range(11) for p in enumerate_motzkin(n)]
    words = ["".join(t) for n in range(5) for t in product("UHD", repeat=n)]
    having = {q: [contains(p, q) for p in paths] for q in words}
    shuffled = random.Random(0).sample(words, len(words))
    groups, i = [], 0
    while i < len(shuffled):
        k = 2 + len(groups) % 2
        groups.append(shuffled[i:i + k])
        i += k
    for group in [[q] for q in words] + groups:
        hit = list(map(any, zip(*(having[q] for q in group))))
        avoiding = Counter(len(p) for p, x in zip(paths, hit) if not x)
        containing = Counter(len(p) for p, x in zip(paths, hit) if x)
        for n in range(11):
            assert oracle_count(n, group) == avoiding[n], (n, group)
            assert oracle_count(n, (), (group,)) == containing[n], (n, group)


def test_oracle_minco_per_height():
    # brute force: prefixes that contain q while their own prefix one step
    # shorter does not (the empty prefix has no such prefix)
    words = ["".join(t) for n in range(4) for t in product("UHD", repeat=n)]
    for n in range(10):
        prefixes = enumerate_motzkin_prefixes(n)
        for q in words:
            want = Counter(height_profile(p)[0] for p in prefixes
                           if contains(p, q)
                           and not (p and contains(p[:-1], q)))
            for h in range(n + 1):
                assert oracle_minco(q, n, h) == want[h], (q, n, h)


def _oracle_count_by_scan(n, avoid, clauses):
    """The oracle as a loop over `contains`: the reference for oracle_count."""
    total = 0
    for p in enumerate_motzkin(n):
        if any(contains(p, q) for q in avoid):
            continue
        if all(any(contains(p, q) for q in clause) for clause in clauses):
            total += 1
    return total


_words = st.text("UHD", max_size=4)


@given(st.integers(0, 10), st.lists(_words, max_size=3),
       st.lists(st.lists(_words, max_size=3), max_size=3))
def test_oracle_count_matches_scan(n, avoid, clauses):
    # "" members and empty clauses included: an empty clause admits no path
    assert oracle_count(n, avoid, clauses) == _oracle_count_by_scan(
        n, avoid, clauses)
