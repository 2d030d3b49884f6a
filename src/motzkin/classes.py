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


def trivially_contained(cp: CrossingPattern, mode: Mode = Mode.USTART,
                        crossing: bool = True) -> bool:
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


def _sorted_clause(members) -> tuple[CrossingPattern, ...]:
    return tuple(sorted(set(members), key=pattern_key))


def normalize(d: ClassDescriptor):
    """Canonical minimal form of a descriptor, or EMPTY.

    Iterates to a fixpoint: trivially-contained avoids empty the class;
    implied avoid patterns, implied clause members, satisfied clauses,
    uncontainable members and subsumed clauses are dropped; everything
    is sorted canonically.
    """
    triv = lambda cp: trivially_contained(cp, d.mode, d.crossing)
    avoid = set(d.avoid)
    clauses = [set(c) for c in d.contain]

    while True:
        if any(triv(cp) for cp in avoid):
            return EMPTY

        changed = False

        # implied avoid patterns are redundant
        for b in sorted(avoid, key=pattern_key, reverse=True):
            if any(a != b and crossing_implies(a, b) for a in avoid):
                avoid.discard(b)
                changed = True

        kept: list[set[CrossingPattern]] = []
        for clause in clauses:
            # a trivially contained member satisfies the whole clause
            if any(triv(cp) for cp in clause):
                changed = True
                continue
            # members implied by an avoided pattern cannot occur
            dead = {q for q in clause
                    if any(crossing_implies(a, q) for a in avoid)}
            if dead:
                clause = clause - dead
                changed = True
            if not clause:
                return EMPTY
            # members implying another member are redundant
            for b in sorted(clause, key=pattern_key, reverse=True):
                if any(a != b and crossing_implies(a, b) for a in clause):
                    clause.discard(b)
                    changed = True
            kept.append(clause)
        clauses = kept

        # drop duplicate and subsumed clauses (S' forcing S makes S redundant)
        frozen = sorted({frozenset(c) for c in clauses},
                        key=lambda c: clause_key(_sorted_clause(c)))
        if len(frozen) != len(clauses):
            changed = True
        drop = set()
        for i, s in enumerate(frozen):
            for j, stronger in enumerate(frozen):
                if i == j or j in drop:
                    continue
                if all(any(crossing_implies(m, mp) for m in s) for mp in stronger):
                    drop.add(i)
                    changed = True
                    break
        clauses = [set(c) for k, c in enumerate(frozen) if k not in drop]

        if not changed:
            break

    norm_avoid = tuple(sorted(avoid, key=pattern_key))
    norm_contain = tuple(sorted((_sorted_clause(c) for c in clauses),
                                key=clause_key))
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
