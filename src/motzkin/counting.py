"""Counting, exhaustive generation and uniform sampling from a
specification, read from the rules' terms (`Rule.terms`).

Count lists are filled bottom-up, length by length; generation runs the
same loop over word lists and sampling walks the tables with an explicit
stack, so the length is not capped by Python's recursion limit.  Weights
are exact big integers, so every sampled path is equally likely.
"""

import random
from itertools import product
from math import prod
from operator import getitem, mul

from .paths import ResourceLimitError
from .strategies import Specification, strongly_connected

DEFAULT_GENERATE_CAP = 10 ** 6


class EmptyAtLengthError(ValueError):
    """The class has no path of the requested length."""


class SpecCounter:
    """Exact enumeration engine over one specification."""

    def __init__(self, spec: Specification):
        self.spec = spec
        self._counts: dict[str, list[int]] = {cid: [] for cid in spec.rules}
        # per term: x power, letter before each factor, factors, counts
        self._terms = {
            cid: [(len(atom), tuple(atom) or ("",) * len(factors), factors,
                   [self._counts[f] for f in factors])
                  for atom, factors in rule.terms]
            for cid, rule in spec.rules.items()}
        # classes in dependency order along atom-free terms, which read
        # counts of the same length; a cycle of them has no finite count
        edges = {cid: [f for size, _, fs, _ in terms if not size for f in fs]
                 for cid, terms in self._terms.items()}
        self._order = []
        for comp in strongly_connected(list(edges), edges):
            if len(comp) > 1 or comp[0] in edges[comp[0]]:
                raise ValueError(
                    f"classes {', '.join(comp)} form a cycle of rules"
                    " that add no letter")
            self._order += comp
        # unions and arches draw even with one choice: it fixes the stream
        self._draws = {cid for cid, rule in spec.rules.items()
                       if rule.kind == "union" or rule.atom == "UD"}

    def _fill(self, n: int) -> None:
        """Extend every class's count list through length n."""
        for m in range(len(self._counts[self.spec.root]), n + 1):
            for cid in self._order:
                total = 0
                for size, _, _, lists in self._terms[cid]:
                    k = m - size
                    if k >= 0 and len(lists) == 2:
                        a, b = lists
                        total += sum(map(mul, a[:k + 1], b[k::-1]))
                    elif k >= 0:
                        total += lists[0][k] if lists else k == 0
                self._counts[cid].append(total)

    def _parts(self, cid: str, m: int):
        """The ways to build a path of length m in the class (a term's
        letters, factors and their lengths), in rule and split order."""
        for size, letters, factors, lists in self._terms[cid]:
            k = m - size  # >= 0, as every cell asked for here has paths
            splits = ([(i, k - i) for i in range(k + 1)] if len(lists) == 2
                      else [(k,) * len(lists)])
            for lens in splits:
                if prod(map(getitem, lists, lens)):
                    yield letters, factors, lens

    def count(self, n: int, cid: str | None = None) -> int:
        """Number of paths of length n in the class (root by default)."""
        self._fill(n)
        counts = self._counts[self.spec.root if cid is None else cid]
        return counts[n] if n >= 0 else 0

    def sequence(self, n_max: int, cid: str | None = None) -> list[int]:
        return [self.count(n, cid) for n in range(n_max + 1)]

    def generate_all(self, n: int, cid: str | None = None,
                     cap: int = DEFAULT_GENERATE_CAP) -> list[str]:
        """Every path of length n, in deterministic rule-driven order:
        terms in rule order, splits ascending, left factor outermost."""
        cid = self.spec.root if cid is None else cid
        total = self.count(n, cid)
        if total > cap:
            raise ResourceLimitError(
                f"generation of {total} paths exceeds cap {cap}")
        if not total:
            return []
        # the cells (class, length) the paths pass through, top-down ...
        need = {(cid, n)}
        for m in range(n, -1, -1):
            for c in reversed(self._order):
                if (c, m) in need:
                    for _, factors, lens in self._parts(c, m):
                        need.update(zip(factors, lens))
        # ... then their words, bottom-up
        words: dict[tuple[str, int], list[str]] = {}
        for m in range(n + 1):
            for c in self._order:
                if (c, m) in need:
                    words[c, m] = out = []
                    for letters, factors, lens in self._parts(c, m):
                        fmt = "".join(x + "%s" for x in letters)
                        out += [fmt % w for w in product(
                            *map(words.get, zip(factors, lens)))]
        return words[cid, n]

    def sample(self, n: int, seed=None, rng: random.Random | None = None,
               cid: str | None = None) -> str:
        """One uniformly random path of length n from the class."""
        cid = self.spec.root if cid is None else cid
        if self.count(n, cid) == 0:
            raise EmptyAtLengthError(
                f"class {cid} has no path of length {n}")
        if rng is None:
            rng = random.Random(seed)
        out: list[str] = []
        # pieces (letter, class, length) of drawn terms, not yet reached
        stack = []
        counts, draws, terms = self._counts, self._draws, self._terms
        piece = ("", cid, n)
        while piece:
            letter, c, m = piece
            out.append(letter)
            pick = rng.randrange(counts[c][m]) if c in draws else 0
            # a drawn cell has paths, so its terms have k >= 0
            for size, letters, factors, lists in terms[c]:
                k = m - size
                if len(lists) == 2:
                    a, b = lists
                    for i in range(k + 1):
                        pick -= a[i] * b[k - i]
                        if pick < 0:
                            break
                    lens = (i, k - i)
                else:
                    pick -= lists[0][k] if lists else k == 0
                    lens = (k,) * len(lists)
                if pick < 0:
                    break
            # go on with the term's first piece; an arch's second waits
            if len(factors) == 2:
                stack.append((letters[1], factors[1], lens[1]))
            piece = ((letters[0], factors[0], lens[0]) if factors
                     else stack.pop() if stack else None)
        return "".join(out)
