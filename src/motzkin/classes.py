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
from bisect import bisect, insort
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


def _minimal(items, antichain=()) -> list[CrossingPattern]:
    """The members of antichain + items that no other member implies,
    sorted by CrossingPattern.key (repeats kept once); antichain must be
    sorted and an antichain already.

    crossing_implies is a partial order, and an item is implied only by
    itself or by items before it in key order (keys compare the
    lengths of the sides first, and a subword as long as its word is
    that word).  So scanning the items in key order and checking each
    against the kept ones alone is enough.  With no antichain the kept
    ones all come before the item and none is implied by it.
    """
    kept = list(antichain)
    for b in sorted(items, key=CrossingPattern.key):
        if not any(crossing_implies(a, b) for a in kept):
            if antichain:
                kept = [a for a in kept if not crossing_implies(b, a)]
                insort(kept, b, key=CrossingPattern.key)
            else:
                kept.append(b)
    return kept


def _possible(members, avoid) -> list[CrossingPattern]:
    """The members no avoided pattern implies: the others cannot occur."""
    return [q for q in members
            if not any(crossing_implies(a, q) for a in avoid)]


def _reduce_clause(clause, avoid, triv):
    """A clause in normal form against the normalized avoids: None when
    a member is trivially contained (the clause always holds), () when
    no member can occur (the class is empty), otherwise its minimal
    possible members as a sorted tuple."""
    if any(map(triv, clause)):
        return None
    return tuple(_minimal(_possible(clause, avoid)))


def _forces(t, s) -> bool:
    """Clause t forces clause s: every member of t has a member of s as
    a subpattern, so s holds wherever t does."""
    return all(any(crossing_implies(m, mp) for m in s) for mp in t)


def _unforced(clauses, others) -> list:
    """The clauses that no different clause among `others` forces."""
    return [s for s in clauses
            if not any(t != s and _forces(t, s) for t in others)]


def _triv(d: ClassDescriptor):
    """The test for a pattern every path of d's kind contains."""
    return lambda cp: trivially_contained(cp, d.mode, d.crossing)


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
    triv = _triv(d)
    if any(map(triv, d.avoid)):
        return EMPTY
    avoid = _minimal(d.avoid)
    clauses = set()
    for clause in d.contain:
        reduced = _reduce_clause(clause, avoid, triv)
        if reduced == ():
            return EMPTY
        if reduced is not None:
            clauses.add(reduced)
    contain = tuple(sorted(_unforced(clauses, clauses), key=clause_key))
    return ClassDescriptor(d.mode, tuple(avoid), contain, d.crossing)


def extend(d: ClassDescriptor, new_avoid=None, old_clause=None,
           new_clauses=()):
    """normalize of a normalized descriptor with one more avoided
    pattern and with one of its clauses replaced by new clauses; either
    change may be absent.

    Only the work the change can cause is done.  The new avoid is
    compared with the kept avoids alone, and the kept clauses lose only
    the members it implies; new clauses are reduced in full.  The kept
    clauses force none of each other, and a clause that lost members
    forces no fewer clauses and is forced by no more than before, so
    forcing is tested only on pairs with a new or shrunk clause.
    """
    triv = _triv(d)
    avoid = d.avoid
    same = [c for c in d.contain if c != old_clause]
    changed = []
    if new_avoid is not None:
        if triv(new_avoid):
            return EMPTY
        avoid = tuple(_minimal((new_avoid,), avoid))
        clauses, same = same, []
        for clause in clauses:
            live = _possible(clause, (new_avoid,))
            if not live:
                return EMPTY
            if len(live) == len(clause):
                same.append(clause)
            else:
                changed.append(tuple(live))
    for clause in new_clauses:
        reduced = _reduce_clause(clause, avoid, triv)
        if reduced == ():
            return EMPTY
        if reduced is not None:
            changed.append(reduced)
    contain = same
    if changed:
        changed = list(dict.fromkeys(c for c in changed if c not in same))
        contain = _unforced(same, changed)
        for clause in _unforced(changed, same + changed):
            insort(contain, clause, key=clause_key)
    return ClassDescriptor(d.mode, avoid, tuple(contain), d.crossing)


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
