"""Motzkin paths and prefixes as words over {U, H, D}, subword and crossing
containment, enumeration, and the counting oracle.

Words are plain strings.  The step order U < H < D is fixed globally and
governs every lexicographic enumeration and canonical sort in the package.

The oracle enumerates no paths: it counts by dynamic programming over
(height, greedy-scan state), where the state records how far the greedy
scan of `contains` has matched each word (a transfer-matrix count over the
product of those scans).  Brute-force enumeration with `contains` is its
reference in the tests.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

STEPS = "UHD"
STEP_RANK = {"U": 0, "H": 1, "D": 2}
STEP_HEIGHT = {"U": 1, "H": 0, "D": -1}

# Brute-force enumeration is capped by default: M_18 is already ~6.5e6 paths.
# The oracle keeps the same cap, so an over-long request fails alike on
# every route.
DEFAULT_MAX_ORACLE_LENGTH = 18


class ResourceLimitError(Exception):
    """Raised when an enumeration or oracle request exceeds the configured cap."""


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
    words = list(avoid)
    avoided = range(len(words))
    clauses = []
    for clause in contain_clauses:
        first = len(words)
        words.extend(clause)
        clauses.append(range(first, len(words)))
    layer = _scan_layers(
        words, lambda s: any(s[j] == len(words[j]) for j in avoided), n, True)
    return sum(c for (h, s), c in layer.items() if h == 0 and all(
        any(s[j] == len(words[j]) for j in clause) for clause in clauses))


def _scan_layers(words, dead, n: int, closed: bool) -> dict:
    """Run the greedy scan of `contains` for every word in `words` along all
    Motzkin prefixes of length n at once (paths, when closed).

    A state is the tuple of how many letters of each word the scans have
    matched; the walks whose state `dead` rejects are dropped.  Returns the
    last layer {(height, state): number of walks}, empty when n < 0.
    Transitions are built only for the states reached, so there are never
    more of them than of the prefixes a brute-force enumeration would visit.
    """
    start = (0,) * len(words)
    layer = {} if n < 0 or dead(start) else {(0, start): 1}
    moves = {}
    for remaining in range(n, 0, -1):
        nxt = defaultdict(int)
        for (h, s), c in layer.items():
            out = moves.get(s)
            if out is None:
                out = moves[s] = []
                for ch in STEPS:
                    t = tuple(i + (i < len(w) and w[i] == ch)
                              for i, w in zip(s, words))
                    if not dead(t):
                        out.append((STEP_HEIGHT[ch], t))
            for dh, t in out:
                nh = h + dh
                # prune: a closed walk must be able to return to 0
                if 0 <= nh and (not closed or nh < remaining):
                    nxt[nh, t] += c
        layer = nxt
    return layer


def oracle_minco(q: str, n: int, h: int, max_length: int | None = None) -> int:
    """Number of Motzkin prefixes of length n and final height h that contain
    q while their length-(n-1) prefix avoids q (smallest containers of q)."""
    _check_cap(n, max_length)
    if q == "":
        return 1 if (n, h) == (0, 0) else 0
    return _minco_heights(q, n)[h]


@lru_cache(maxsize=None)
def _minco_heights(q: str, n: int) -> Counter:
    """Final heights of the smallest containers of q of length n: prefixes
    of length n-1 that avoid q and have matched all of it but its last
    letter, extended by that letter."""
    heights = Counter()
    dh = STEP_HEIGHT[q[-1]]
    for (h, (i,)), c in _scan_layers(
            (q,), lambda s: s[0] == len(q), n - 1, False).items():
        if i == len(q) - 1 and h + dh >= 0:
            heights[h + dh] += c
    return heights
