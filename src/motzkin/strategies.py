"""Decomposition strategies and specification assembly.

Each strategy turns one class descriptor into a rule over simpler
classes:

* root_split       Full class = {eps} disjoint-union H-start part
                   disjoint-union U-start part.
* hstart_rewrite   an H-start class is H prepended to a Full class whose
                   patterns lose one leading H when they have one.
* crossify         on U-start paths, containing a word is containing one
                   of its cuts, so plain constraints become crossing ones.
* localize         branch until every avoided crossing pattern and every
                   clause is local (one-sided) and every clause is a
                   singleton.
* factor           a local U-start class factors through UxDy into an
                   arch product of two Full classes.

build_specification closes a root descriptor under these strategies and
returns the finished rule system.
"""

from collections import deque
from dataclasses import dataclass

from .classes import (
    EMPTY,
    EPSILON,
    ClassDescriptor,
    Mode,
    class_id,
    epsilon_member,
    extend,
    normalize,
    plain,
)
from .paths import CrossingPattern, split_pattern, strip

EPSILON_ID = "Eps"
EMPTY_ID = "Empty"

MAX_LOCALIZE_STEPS = 10000
MAX_CLASSES = 10000


class StrategyError(Exception):
    pass


class IterationCapError(StrategyError):
    """A strategy exceeded its expansion budget."""


@dataclass(frozen=True)
class Rule:
    """One production of a specification.

    kind is one of "union", "product", "epsilon", "empty".  Products
    carry the atom they prepend: "H" (one child, length 1) or "UD"
    (two children wrapped as U<left>D<right>, length 2).
    """

    kind: str
    atom: str | None = None
    children: tuple[str, ...] = ()

    def __post_init__(self):
        shape = (self.kind, self.atom, len(self.children))
        if self.kind != "union" and shape not in {
                ("product", "H", 1), ("product", "UD", 2),
                ("epsilon", None, 0), ("empty", None, 0)}:
            raise ValueError(f"malformed {self.kind} rule")

    @property
    def terms(self) -> list[tuple[str, tuple[str, ...]]]:
        """The rule as a sum of terms (atom, factors).  A term's paths
        interleave the atom's letters with paths of its factors (U a D b,
        H a, a, or the empty path); len(atom) is its power of x."""
        if self.kind == "union":
            return [("", (c,)) for c in self.children]
        if self.kind == "product":
            return [(self.atom, self.children)]
        return [("", ())] if self.kind == "epsilon" else []


def strongly_connected(order: list[str],
                       edges: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components of a graph, each after every
    component it has an edge to (Tarjan 1972, without recursion).
    Nodes are visited from `order`; every node's edges are listed in
    `edges`."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = 0

    for start in order:
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for k in range(ei, len(edges[node])):
                nxt = edges[node][k]
                if nxt not in index:
                    work.append((node, k + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return out


@dataclass
class Specification:
    root: str
    rules: dict[str, Rule]
    descriptors: dict[str, object]


def root_split(d: ClassDescriptor) -> list:
    """Children of a normalized Full class: epsilon, H-start copy,
    U-start copy.  The copies are already normal, as normalize does not
    depend on the mode for plain patterns."""
    if d.mode is not Mode.FULL:
        raise StrategyError("root_split applies to Full classes")
    children = [EPSILON] if epsilon_member(d) else []
    return children + [ClassDescriptor(mode, d.avoid, d.contain)
                       for mode in (Mode.HSTART, Mode.USTART)]


def _drop_leading_h(cp: CrossingPattern) -> CrossingPattern:
    w = cp.right
    return plain(w[1:]) if w.startswith("H") else cp


def hstart_rewrite(d: ClassDescriptor):
    """The Full class F with H.F equal to the given H-start class.

    Greedy matching lets a pattern's leading H consume the path's
    leading H, so each H-starting pattern loses exactly one H.
    Returns EMPTY when the H-start class itself is empty.
    """
    if d.mode is not Mode.HSTART:
        raise StrategyError("hstart_rewrite applies to H-start classes")
    avoid = tuple(_drop_leading_h(cp) for cp in d.avoid)
    contain = tuple(tuple(_drop_leading_h(cp) for cp in clause)
                    for clause in d.contain)
    return normalize(ClassDescriptor(Mode.FULL, avoid, contain))


def crossify(d: ClassDescriptor):
    """Rewrite a plain U-start class with crossing patterns.

    A U-start path contains a word exactly when it contains one of the
    word's cuts, so an avoided word becomes all of its cuts avoided and
    a clause becomes the union of its members' cuts.
    """
    if d.mode is not Mode.USTART or d.crossing:
        raise StrategyError("crossify applies to plain U-start classes")
    avoid = []
    for cp in d.avoid:
        avoid.extend(split_pattern(cp.right))
    contain = []
    for clause in d.contain:
        members = []
        for cp in clause:
            members.extend(split_pattern(cp.right))
        contain.append(tuple(members))
    return normalize(ClassDescriptor(Mode.USTART, tuple(avoid),
                                     tuple(contain), crossing=True))


def _offending(d: ClassDescriptor):
    """Least item blocking factorization, or None when d is local.

    d is normalized, so its clauses and avoids are sorted and the first
    one found is the least.
    """
    multi = next((c for c in d.contain if len(c) > 1), None)
    if multi:
        return "choose", multi
    conj = next((c for c in d.contain if not c[0].is_local), None)
    if conj:
        return "unzip", conj
    bad = next((cp for cp in d.avoid if not cp.is_local), None)
    if bad:
        return "split", bad
    return None


def branches(kind: str, item) -> list:
    """The disjoint branches at an offending item, each as (avoided
    pattern added, clause replaced, clauses put in its place).

    choose:  a clause with least member q holds when q is avoided and
             another member occurs, or when q occurs.
    unzip:   a non-local member l-r occurs when both l- and -r occur.
    split:   a non-local l-r is avoided when l- is avoided, or when -r
             is avoided and l- occurs.
    """
    if kind == "choose":
        q = item[0]
        return [(q, None, ()), (None, item, ((q,),))]
    if kind == "unzip":
        cp = item[0]
        return [(None, item, ((CrossingPattern(cp.left, ""),),
                              (CrossingPattern("", cp.right),)))]
    left = CrossingPattern(item.left, "")
    return [(left, None, ()),
            (CrossingPattern("", item.right), None, ((left,),))]


def localize(d: ClassDescriptor) -> list[ClassDescriptor]:
    """Disjoint local refinements of a normalized crossing U-start class.

    Multi-member clauses split on whether their least member occurs;
    a non-local clause member is a conjunction of its two sides; a
    non-local avoided pattern splits on whether its left side occurs
    (see `branches`).  Each branch is normalized from its normalized
    parent by `extend`.  Empty branches are pruned; leaves are returned
    in discovery order.
    """
    if d.mode is not Mode.USTART or not d.crossing:
        raise StrategyError("localize applies to crossing U-start classes")
    leaves: list[ClassDescriptor] = []
    stack = [d]
    steps = 0
    while stack:
        steps += 1
        if steps > MAX_LOCALIZE_STEPS:
            raise IterationCapError("localize expansion budget exceeded")
        cur = stack.pop()
        item = _offending(cur)
        if item is None:
            leaves.append(cur)
            continue
        for change in reversed(branches(*item)):
            child = extend(cur, *change)
            if child is not EMPTY:
                stack.append(child)
    return leaves


def factor(d: ClassDescriptor):
    """Arch factors (left, right) of a local crossing U-start class.

    Paths UxDy of the class correspond bijectively to pairs with x in
    the left Full class and y in the right one.  Either side may come
    back EMPTY.
    """
    if _offending(d) is not None:
        raise StrategyError("factor needs a localized class")
    l_avoid, r_avoid = [], []
    l_contain, r_contain = [], []
    for cp in d.avoid:
        if cp.right == "":
            l_avoid.append(plain(strip(cp.left)))
        else:
            r_avoid.append(plain(cp.right))
    for clause in d.contain:
        cp = clause[0]
        if cp.right == "":
            l_contain.append((plain(strip(cp.left)),))
        else:
            r_contain.append((plain(cp.right),))
    left = normalize(ClassDescriptor(Mode.FULL, tuple(l_avoid),
                                     tuple(l_contain)))
    right = normalize(ClassDescriptor(Mode.FULL, tuple(r_avoid),
                                      tuple(r_contain)))
    return left, right


def _descriptor_id(obj) -> str:
    if obj is EPSILON:
        return EPSILON_ID
    if obj is EMPTY:
        return EMPTY_ID
    return class_id(obj)


def build_specification(root) -> Specification:
    """Close a root descriptor under the strategies into a rule system.

    The root may be any descriptor or EMPTY.  Every reachable class gets
    exactly one rule; ids are canonical so shared subclasses merge.
    """
    rules: dict[str, Rule] = {}
    descriptors: dict[str, object] = {}
    queue: deque = deque()

    def register(obj) -> str:
        cid = _descriptor_id(obj)
        if cid not in descriptors:
            if len(descriptors) >= MAX_CLASSES:
                raise IterationCapError("class budget exceeded")
            descriptors[cid] = obj
            queue.append((cid, obj))
        return cid

    if root is not EMPTY:
        root = normalize(root)
    root_id = register(root)

    while queue:
        cid, obj = queue.popleft()
        if obj is EPSILON:
            rules[cid] = Rule("epsilon")
            continue
        if obj is EMPTY:
            rules[cid] = Rule("empty")
            continue
        d = obj
        if d.mode is Mode.FULL:
            children = root_split(d)
            rules[cid] = Rule("union",
                              children=tuple(register(c) for c in children))
        elif d.mode is Mode.HSTART:
            child = hstart_rewrite(d)
            if child is EMPTY:
                rules[cid] = Rule("empty")
            else:
                rules[cid] = Rule("product", "H", (register(child),))
        else:
            cur = crossify(d) if not d.crossing else d
            if cur is EMPTY:
                rules[cid] = Rule("empty")
                continue
            leaves = localize(cur)
            if not leaves:
                rules[cid] = Rule("empty")
            elif len(leaves) == 1:
                left, right = factor(leaves[0])
                if left is EMPTY or right is EMPTY:
                    rules[cid] = Rule("empty")
                else:
                    rules[cid] = Rule("product", "UD",
                                      (register(left), register(right)))
            else:
                rules[cid] = Rule("union",
                                  children=tuple(register(leaf)
                                                 for leaf in leaves))

    return Specification(root_id, rules, descriptors)
