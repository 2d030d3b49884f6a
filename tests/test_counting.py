"""Counting, generation and sampling against the brute-force oracle."""

import random

import pytest

from motzkin.classes import full_class, matches, normalize
from motzkin.counting import EmptyAtLengthError, SpecCounter
from motzkin.paths import (
    ResourceLimitError,
    enumerate_motzkin,
    is_motzkin_path,
    oracle_count,
    word_key,
)
from motzkin.strategies import Rule, Specification, build_specification


def counter(avoid=(), contain=()):
    return SpecCounter(build_specification(
        normalize(full_class(avoid=avoid, contain=contain))))


MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511,
           41835, 113634, 310572]


def test_unrestricted_counts_are_motzkin():
    assert counter().sequence(15) == MOTZKIN


def test_counts_match_oracle():
    cases = [
        dict(avoid=("HH",)),
        dict(avoid=("UHD",)),
        dict(avoid=("UUDD",)),
        dict(avoid=("HH", "UD")),
        dict(avoid=("UD",), contain=(("HH",),)),
    ]
    for kw in cases:
        got = counter(**kw).sequence(10)
        want = [oracle_count(n, avoid=kw.get("avoid", ()),
                             contain_clauses=kw.get("contain", ()))
                for n in range(11)]
        assert got == want, kw


def test_count_negative_length_is_zero():
    assert counter().count(-1) == 0


def test_generate_all_matches_filtration():
    for avoid in [("HH",), ("UHD",), ("UD", "HH")]:
        d = normalize(full_class(avoid=avoid))
        c = SpecCounter(build_specification(d))
        for n in range(9):
            gen = c.generate_all(n)
            assert len(set(gen)) == len(gen)
            want = [p for p in enumerate_motzkin(n) if matches(d, p)]
            assert sorted(gen, key=word_key) == want


def test_generate_all_cap():
    with pytest.raises(ResourceLimitError):
        counter().generate_all(14, cap=10)


def test_sample_membership_and_length():
    d = normalize(full_class(avoid=("HH",)))
    c = SpecCounter(build_specification(d))
    rng = random.Random(7)
    for n in (5, 8, 11):
        for _ in range(50):
            p = c.sample(n, rng=rng)
            assert len(p) == n
            assert is_motzkin_path(p)
            assert matches(d, p)


def test_sample_is_seed_deterministic():
    c = counter(avoid=("HH",))
    a = [c.sample(9, seed=s) for s in range(20)]
    b = [c.sample(9, seed=s) for s in range(20)]
    assert a == b


def test_sample_unique_path_is_deterministic():
    c = counter(avoid=("H",))
    assert c.count(0) == 1
    assert c.sample(0, seed=1) == ""


def test_sample_empty_length_raises():
    c = counter(avoid=("H",))
    with pytest.raises(EmptyAtLengthError):
        c.sample(3, seed=0)


def test_sample_covers_every_path():
    c = counter(avoid=("HH",))
    n = 8
    paths = set(c.generate_all(n))
    seen = {c.sample(n, seed=s) for s in range(600)}
    assert seen == paths


def test_sample_stream_is_pinned():
    # the sample stream for a seed is part of the contract across versions
    c = counter(avoid=("HH",))
    assert [c.sample(12, seed=s) for s in range(4)] == [
        "UDUUUDUDDDUD", "UUUDDDUUDUDD", "UDUUDDUUDDUD", "UUUUUUDDDDDD"]
    c = counter(avoid=("UUU",), contain=(("HD",),))
    assert [c.sample(10, seed=s) for s in range(4)] == [
        "UHHDHHUHDH", "HHHHUUHHDD", "UHHHUDDHHH", "HUHHDUHHDH"]


def test_generate_all_order_is_pinned():
    assert counter(avoid=("UHD",)).generate_all(5) == [
        "HHHHH", "HHHUD", "HHUDH", "HUDHH", "HUDUD", "HUUDD", "UDHHH",
        "UDUDH", "UUDDH"]


def test_long_lengths_need_no_recursion():
    c = counter(avoid=("U",))
    assert c.count(3000) == 1
    assert c.generate_all(3000) == ["H" * 3000]
    c = counter(avoid=("U",))
    assert c.sample(3000, seed=0) == "H" * 3000


def test_same_length_cycle_is_rejected():
    rules = {"A": Rule("union", children=("B",)),
             "B": Rule("union", children=("A",))}
    with pytest.raises(ValueError):
        SpecCounter(Specification("A", rules, {}))
    loop = {"A": Rule("union", children=("A",))}
    with pytest.raises(ValueError):
        SpecCounter(Specification("A", loop, {}))
