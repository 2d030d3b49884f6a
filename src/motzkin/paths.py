"""Motzkin paths and prefixes as words over {U, H, D}, subword and crossing
containment, and the brute-force enumeration oracle.

Words are plain strings.  The step order U < H < D is fixed globally and
governs every lexicographic enumeration and canonical sort in the package.

The oracle enumerates every path by brute force; its containment test is
one compiled regex per word set that accepts exactly the strings `contains`
accepts, so the per-path scan runs in C.
"""

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse

STEPS = "UHD"
STEP_RANK = {"U": 0, "H": 1, "D": 2}
STEP_HEIGHT = {"U": 1, "H": 0, "D": -1}

# Brute-force enumeration is capped by default: m_18 is already ~3.1e6 paths.
DEFAULT_MAX_ORACLE_LENGTH = 18


class ResourceLimitError(Exception):
    """Raised when a brute-force request exceeds the configured cap."""


class NotUStartError(ValueError):
    """Raised when a first-return decomposition is asked of a non-U-start path."""


def check_word(w: str) -> str:
    for ch in w:
        if ch not in STEP_RANK:
            raise ValueError(f"invalid step {ch!r} in word {w!r}")
    return w


_SHORTLEX = str.maketrans("UHD", "abc")


def word_key(w: str):
    """Canonical sort key: shortlex with U < H < D."""
    return (len(w), w.translate(_SHORTLEX))


def height_profile(w: str) -> tuple[int, int]:
    """Final height and minimum prefix height of a word."""
    h = 0
    lo = 0
    for ch in w:
        h += STEP_HEIGHT[ch]
        if h < lo:
            lo = h
    return h, lo


def is_motzkin_prefix(w: str) -> bool:
    _, lo = height_profile(w)
    return lo >= 0


def is_motzkin_path(w: str) -> bool:
    h, lo = height_profile(w)
    return h == 0 and lo >= 0


def contains(w: str, q: str) -> bool:
    """Subword (not necessarily contiguous) containment, by greedy scan."""
    if not q:
        return True
    i = 0
    for ch in w:
        if ch == q[i]:
            i += 1
            if i == len(q):
                return True
    return False


def first_return_split(p: str) -> tuple[str, str]:
    """Write a U-start Motzkin path as UxDy, splitting at the first return
    to height 0.  Returns (x, y)."""
    if not p or p[0] != "U":
        raise NotUStartError(f"path {p!r} does not start with U")
    h = 0
    for i, ch in enumerate(p):
        h += STEP_HEIGHT[ch]
        if h == 0:
            return p[1:i], p[i + 1:]
    raise NotUStartError(f"word {p!r} never returns to height 0")


@dataclass(frozen=True, order=True)
class CrossingPattern:
    """A pattern l-r constraining a U-start path UxDy: l must occur in UxD
    and r in y.  Local when either side is empty."""

    left: str
    right: str

    @property
    def is_local(self) -> bool:
        return not self.left or not self.right

    def key(self):
        return (word_key(self.left), word_key(self.right))

    def __str__(self) -> str:
        return f"{self.left}-{self.right}"

    @classmethod
    def parse(cls, text: str) -> "CrossingPattern":
        left, sep, right = text.partition("-")
        if not sep:
            raise ValueError(f"crossing pattern needs a '-': {text!r}")
        return cls(check_word(left), check_word(right))


def contains_crossing(p: str, cp: CrossingPattern) -> bool:
    x, y = first_return_split(p)
    return contains("U" + x + "D", cp.left) and contains(y, cp.right)


def split_pattern(q: str) -> list[CrossingPattern]:
    """All |q|+1 two-part cuts l-r with lr = q, by ascending |l|."""
    return [CrossingPattern(q[:i], q[i:]) for i in range(len(q) + 1)]


def strip(left: str) -> str:
    """Remove one leading U, then one trailing D, when present.  For a
    Motzkin path x, UxD contains `left` iff x contains strip(left)."""
    if left.startswith("U"):
        left = left[1:]
    if left.endswith("D"):
        left = left[:-1]
    return left


def _check_cap(n: int, max_length: int | None) -> None:
    cap = DEFAULT_MAX_ORACLE_LENGTH if max_length is None else max_length
    if n > cap:
        raise ResourceLimitError(f"length {n} exceeds enumeration cap {cap}")


@lru_cache(maxsize=None)
def _walks(n: int, closed: bool) -> tuple[str, ...]:
    """Motzkin prefixes of length n, or paths when closed, in
    lexicographic step order."""
    if n < 0:
        return ()
    out: list[str] = []

    def rec(prefix: list[str], h: int, remaining: int) -> None:
        if remaining == 0:
            out.append("".join(prefix))
            return
        for ch in STEPS:
            nh = h + STEP_HEIGHT[ch]
            # prune: a closed walk must be able to return to 0
            if 0 <= nh and (not closed or nh <= remaining - 1):
                prefix.append(ch)
                rec(prefix, nh, remaining - 1)
                prefix.pop()

    rec([], 0, n)
    return tuple(out)


def enumerate_motzkin(n: int, max_length: int | None = None) -> list[str]:
    """All Motzkin paths of length n, in lexicographic step order."""
    _check_cap(n, max_length)
    return list(_walks(n, True))


def enumerate_motzkin_prefixes(n: int, max_length: int | None = None) -> list[str]:
    """All Motzkin prefixes of length n, in lexicographic step order."""
    _check_cap(n, max_length)
    return list(_walks(n, False))


def oracle_count(n: int, avoid=(), contain_clauses=(), max_length: int | None = None) -> int:
    """Number of length-n Motzkin paths avoiding every word in `avoid` and,
    for each clause in `contain_clauses`, containing at least one member.

    Ground truth for every other counting route in the package.
    """
    _check_cap(n, max_length)
    paths = filterfalse(_subword_regex(avoid).search, _walks(n, True))
    for clause in contain_clauses:
        paths = filter(_subword_regex(clause).search, paths)
    return sum(1 for _ in paths)


def _subword_regex(words) -> re.Pattern:
    """A regex whose search succeeds exactly when the string contains at
    least one of `words` as a subword, as `contains` decides it.

    The word q1...qk reads q1[^q2]*q2...[^qk]*qk: each gap stops at the first
    next letter, the greedy scan of `contains` with no backtracking.  The empty
    word is the empty pattern, which matches every string; no words at all
    give (?!), which matches none, as any(()) is False.
    """
    alternatives = []
    for q in words:
        e = [re.escape(ch) for ch in q]
        alternatives.append("".join(e[:1] + [f"[^{c}]*{c}" for c in e[1:]]))
    return re.compile("|".join(alternatives) if alternatives else "(?!)")


def oracle_minco(q: str, n: int, h: int, max_length: int | None = None) -> int:
    """Number of Motzkin prefixes of length n and final height h that contain
    q while their length-(n-1) prefix avoids q (smallest containers of q)."""
    _check_cap(n, max_length)
    if q == "":
        return 1 if (n, h) == (0, 0) else 0
    return _minco_heights(q, n)[h]


@lru_cache(maxsize=None)
def _minco_heights(q: str, n: int) -> Counter:
    """Final heights of the smallest containers of q of length n."""
    search = _subword_regex((q,)).search
    return Counter(height_profile(p)[0] for p in _walks(n, False)
                   if search(p) and not search(p, 0, len(p) - 1))
