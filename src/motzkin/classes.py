"""Descriptors for pattern-constrained Motzkin path classes.

A descriptor names one of the sets manipulated by the decomposition
strategies: all paths, H-start paths, or U-start paths, restricted by
avoided patterns and by contain-clauses (each clause a disjunction:
"contains at least one member").  Patterns are stored uniformly as
crossing patterns; in plain interpretation (Full/HStart modes and
U-start classes before the crossing rewrite) the left side is empty and
the right side holds the word.  U-start descriptors carry a `crossing`
flag so that a plain class and a crossing class with equal pattern text
never collide.
"""

import enum
from dataclasses import dataclass

from .paths import (
    CrossingPattern,
    contains,
    contains_crossing,
    strip,
)


class Mode(enum.Enum):
    FULL = "full"
    HSTART = "hstart"
    USTART = "ustart"


class Marker(enum.Enum):
    """Rule-system objects that are not descriptors: the empty class
    (a normalization result) and the class of the empty path alone."""

    EMPTY = "empty"
    EPSILON = "epsilon"

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


EMPTY = Marker.EMPTY
EPSILON = Marker.EPSILON


def plain(word: str) -> CrossingPattern:
    """A plain word in storage form (empty left side)."""
    return CrossingPattern("", word)


def pattern_key(cp: CrossingPattern):
    return cp.key()


def clause_key(clause: tuple[CrossingPattern, ...]):
    return tuple(cp.key() for cp in clause)


def crossing_implies(a: CrossingPattern, b: CrossingPattern) -> bool:
    """True iff every U-start path containing b also contains a
    (a's sides are subwords of b's sides)."""
    return contains(b.left, a.left) and contains(b.right, a.right)


def trivially_contained(cp: CrossingPattern, mode: Mode,
                        crossing: bool) -> bool:
    """True iff every path of the descriptor's kind contains cp.

    In the crossing interpretation every U-start path UxDy contains l-
    exactly when strip(l) is empty; in the plain interpretation only the
    empty word is contained unconditionally.
    """
    if mode is Mode.USTART and crossing:
        return strip(cp.left) == "" and cp.right == ""
    return cp.left == "" and cp.right == ""


@dataclass(frozen=True)
class ClassDescriptor:
    mode: Mode = Mode.FULL
    avoid: tuple[CrossingPattern, ...] = ()
    contain: tuple[tuple[CrossingPattern, ...], ...] = ()
    crossing: bool = False

    def __post_init__(self):
        if self.crossing and self.mode is not Mode.USTART:
            raise ValueError("crossing form only exists for U-start classes")


def full_class(avoid=(), contain=()) -> ClassDescriptor:
    """Raw Full-mode descriptor from plain words; not yet normalized."""
    av = tuple(plain(w) for w in avoid)
    co = tuple(tuple(plain(w) for w in clause) for clause in contain)
    return ClassDescriptor(Mode.FULL, av, co)


def _minimal(items) -> list[CrossingPattern]:
    """The items no other item implies (repeats kept once).

    An item is implied only by strictly shorter ones, and implication is
    transitive, so scanning by total length and checking each item
    against the kept ones alone is enough.
    """
    kept: list[CrossingPattern] = []
    for b in sorted(items, key=lambda cp: len(cp.left) + len(cp.right)):
        if not any(crossing_implies(a, b) for a in kept):
            kept.append(b)
    return kept


def normalize(d: ClassDescriptor):
    """Canonical minimal form of a descriptor, or EMPTY.

    One pass over minimal elements: a trivially contained avoid empties
    the class; implied avoids are dropped; a clause with a trivially
    contained member is satisfied and dropped; members implied by an
    avoid cannot occur (a clause left with none empties the class), and
    members implying another member are dropped; clauses forced by
    another clause are dropped; everything is sorted canonically.
    crossing_implies is a partial order, and so is forcing between
    reduced clauses, so each step has one result and a second pass
    would change nothing.
    """
    triv = lambda cp: trivially_contained(cp, d.mode, d.crossing)
    if any(map(triv, d.avoid)):
        return EMPTY
    avoid = _minimal(d.avoid)

    clauses: set[frozenset[CrossingPattern]] = set()
    for clause in d.contain:
        if any(map(triv, clause)):
            continue
        live = [q for q in clause
                if not any(crossing_implies(a, q) for a in avoid)]
        if not live:
            return EMPTY
        clauses.add(frozenset(_minimal(live)))

    # t forces s (s is redundant) when every member of t has a member of
    # s as a subpattern
    kept = [s for s in clauses
            if not any(t != s and all(any(crossing_implies(m, mp) for m in s)
                                      for mp in t)
                       for t in clauses)]

    norm_avoid = tuple(sorted(avoid, key=pattern_key))
    norm_contain = tuple(sorted((tuple(sorted(c, key=pattern_key))
                                 for c in kept), key=clause_key))
    return ClassDescriptor(d.mode, norm_avoid, norm_contain, d.crossing)


def epsilon_member(d: ClassDescriptor) -> bool:
    """Whether the empty path belongs to a normalized Full class."""
    if d.mode is not Mode.FULL:
        raise ValueError("epsilon membership is a Full-mode question")
    return not d.contain


_MODE_TAG = {Mode.FULL: "Av", Mode.HSTART: "AvH", Mode.USTART: "AvU"}


def _render(cp: CrossingPattern, crossing: bool) -> str:
    return str(cp) if crossing else cp.right


def class_id(d: ClassDescriptor) -> str:
    """Canonical serialization; equal normalized descriptors get equal ids."""
    tag = _MODE_TAG[d.mode] + ("x" if d.crossing else "")
    parts = [f"{tag}({','.join(_render(cp, d.crossing) for cp in d.avoid)})"]
    for clause in d.contain:
        parts.append(f"Co({'|'.join(_render(cp, d.crossing) for cp in clause)})")
    return "&".join(parts)


def descriptor_to_json(d: ClassDescriptor) -> dict:
    pat = lambda cp: str(cp) if d.crossing else cp.right
    return {
        "mode": d.mode.value,
        "crossing": d.crossing,
        "avoid": [pat(cp) for cp in d.avoid],
        "contain": [[pat(cp) for cp in clause] for clause in d.contain],
    }


def matches(d: ClassDescriptor, p: str) -> bool:
    """Brute-force membership of a Motzkin path in the descriptor's set.

    This is the oracle side of every rule-soundness check: it never
    consults the strategy engine.
    """
    if d.mode is Mode.HSTART and not p.startswith("H"):
        return False
    if d.mode is Mode.USTART and not p.startswith("U"):
        return False
    if d.crossing:
        holds = lambda cp: contains_crossing(p, cp)
    else:
        holds = lambda cp: contains(p, cp.right)
    if any(holds(cp) for cp in d.avoid):
        return False
    return all(any(holds(cp) for cp in clause) for clause in d.contain)
