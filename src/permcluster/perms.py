"""Permutations in one-line notation and the pointwise structure predicates.

A permutation of [n] = {1, ..., n} is stored as the tuple of its values
(s_1, ..., s_n).  This module defines the basic objects (Permutation,
PatternSet, ClusterEvent) and the predicates everything else is built on:
classical pattern containment, tight containment (a contiguous,
value-shifted copy), clusters of consecutive values sitting in consecutive
positions, cluster-freeness, and separability.

The one scalar cluster scan is `clusters`; `SYMMETRIES` and `images` are
the one account of reverse, complement, inverse and their maps on events;
`pattern_facts` holds, once per pattern set, what counting and growth read
of it.

All values are immutable and every operation is a pure function, so the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, NamedTuple, Sequence


class ParseError(ValueError):
    """Malformed permutation or pattern text."""


class DomainError(ValueError):
    """Arguments outside the range where an operation is defined."""


class ApplicabilityError(DomainError):
    """A closed form was requested for inputs its hypotheses do not cover."""


class UndefinedProbabilityError(DomainError):
    """A probability was requested over an empty class."""


class _Value:
    """Base of the immutable value types: equality, hashing, repr and pickling
    go by the `__slots__` fields in order, and only `__init__` sets them."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self.__slots__, self._key()))})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


def one_line(values: Sequence[int]) -> str:
    """One-line notation: compact digits for n <= 9, else space separated."""
    return ("" if len(values) <= 9 else " ").join(map(str, values))


@functools.total_ordering
class Permutation(_Value):
    """A permutation of [n] in one-line notation, values 1..n."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]) -> None:
        vals = tuple(int(v) for v in values)
        n = len(vals)
        if n == 0:
            raise ParseError("a permutation needs at least one value")
        if sorted(vals) != list(range(1, n + 1)):
            raise ParseError(f"{vals} is not a bijection of 1..{n}")
        self._set(values=vals)

    def __lt__(self, other):
        return self.values < other.values if other.__class__ is self.__class__ else NotImplemented

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def text(self) -> str:
        return one_line(self.values)

    __str__ = text

    def __repr__(self) -> str:
        return f"Permutation({self.text()!r})"


def identity(n: int) -> Permutation:
    """The identity permutation 12...n."""
    if n < 1:
        raise DomainError("identity needs n >= 1")
    return Permutation(tuple(range(1, n + 1)))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation.

    A compact digit string is read one digit per value and is only
    meaningful for n <= 9; longer permutations must be written with a
    single separator style, either commas or whitespace.

    >>> parse_permutation("798645312").values
    (7, 9, 8, 6, 4, 5, 3, 1, 2)
    >>> parse_permutation("10 2 1 3 4 5 6 7 8 9").n
    10
    """
    s = text.strip()
    if not s:
        raise ParseError("empty permutation text")
    if "," in s:
        tokens = []
        for raw in s.split(","):
            tok = raw.strip()
            if not tok:
                raise ParseError(f"empty token in {text!r}")
            if any(ch.isspace() for ch in tok):
                raise ParseError(f"mixed separators at token {tok!r}")
            tokens.append(tok)
    else:
        tokens = s.split()
    for tok in tokens:
        if not tok.isdigit():
            raise ParseError(f"bad token {tok!r}")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        values = tuple(int(ch) for ch in tokens[0])
    else:
        values = tuple(int(tok) for tok in tokens)
    return Permutation(values)


class PatternSet(_Value):
    """A canonically ordered set of forbidden patterns.

    The empty set is allowed and means "no constraint" (all of S_n).
    """

    __slots__ = ("patterns",)

    def __init__(self, patterns: Sequence[Permutation] = ()) -> None:
        pats = tuple(sorted(patterns, key=lambda p: p.values))
        seen = set()
        for p in pats:
            if len(p) < 2:
                raise ParseError(f"pattern {p} is shorter than 2")
            if p.values in seen:
                raise ParseError(f"duplicate pattern {p}")
            seen.add(p.values)
        self._set(patterns=pats)

    def is_empty(self) -> bool:
        return not self.patterns

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def key(self) -> str:
        """Canonical text form, used for cache keys: patterns joined by '+'."""
        return "+".join(p.text() for p in self.patterns)

    def __str__(self) -> str:
        return self.key() or "(none)"


EMPTY_PATTERNS = PatternSet(())

#: The separability constraint: avoid both 2413 and 3142.
SEP = PatternSet((Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2))))


class ClusterEvent(_Value):
    """The event that values k..k+l-1 occupy l consecutive positions.

    With the anchor `a` present the window is pinned to start at position
    `a` (1-based); without it any window position counts.  `k` may be
    omitted only when the event is used as the union over all k.
    """

    __slots__ = ("l", "k", "a")

    def __init__(self, l: int, k: int | None = None, a: int | None = None) -> None:
        if a is not None and k is None:
            raise DomainError("an anchored event needs k")
        self._set(l=l, k=k, a=a)

    def validate(self, n: int) -> None:
        """Check the ranges for ambient size n, raising DomainError."""
        if not 2 <= self.l <= n - 1:
            raise DomainError(f"l={self.l} outside 2..{n - 1} for n={n}")
        top = n - self.l + 1
        if self.k is not None and not 1 <= self.k <= top:
            raise DomainError(f"k={self.k} outside 1..{top} for n={n}, l={self.l}")
        if self.a is not None and not 1 <= self.a <= top:
            raise DomainError(f"a={self.a} outside 1..{top} for n={n}, l={self.l}")


class ConditionReport(NamedTuple):
    """Structural flags of a pattern that control which bounds apply."""

    c1: bool
    c2: bool
    c3: bool
    tight12: bool
    tight21: bool
    cluster_free: bool


def contains_pattern(sigma: Permutation, tau: Permutation) -> bool:
    """True iff some subsequence of sigma is order-isomorphic to tau.

    Backtracking over candidate positions: each partial assignment keeps
    the feasible value window for the next pattern entry, which prunes
    most branches early.  A pattern longer than sigma is never contained.
    """
    s, t = sigma.values, tau.values
    n, m = len(s), len(t)
    if m > n:
        return False
    # For step j the value window is bounded by the already placed entries
    # whose pattern values are the nearest below/above t[j].
    low_src = [-1] * m
    high_src = [-1] * m
    for j in range(m):
        lo = hi = -1
        for i in range(j):
            if t[i] < t[j] and (lo < 0 or t[i] > t[lo]):
                lo = i
            if t[i] > t[j] and (hi < 0 or t[i] < t[hi]):
                hi = i
        low_src[j], high_src[j] = lo, hi
    chosen = [0] * m

    def place(j: int, start: int) -> bool:
        if j == m:
            return True
        lo = chosen[low_src[j]] if low_src[j] >= 0 else 0
        hi = chosen[high_src[j]] if high_src[j] >= 0 else n + 1
        for p in range(start, n - (m - j) + 1):
            v = s[p]
            if lo < v < hi:
                chosen[j] = v
                if place(j + 1, p + 1):
                    return True
        return False

    return place(0, 0)


def avoids_all(sigma: Permutation, ps: PatternSet) -> bool:
    """True iff sigma contains none of the patterns (vacuously true if none)."""
    return all(not contains_pattern(sigma, tau) for tau in ps)


def tight_contains(tau: Permutation, nu: Permutation) -> bool:
    """True iff tau holds a copy of nu in consecutive positions with
    consecutive values (a value-shifted contiguous copy)."""
    t, v = tau.values, nu.values
    j = len(v)
    for i in range(len(t) - j + 1):
        h = t[i] - v[0]
        if all(t[i + a] == h + v[a] for a in range(1, j)):
            return True
    return False


def clusters(values: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(l, k, a), by a and then l, for every window of length l in 2..n-1
    at position a (1-based) that holds the block k..k+l-1: its l distinct
    values have max - min = l - 1, and k is the min.  Each start's windows
    grow one entry at a time, keeping their min and max."""
    n = len(values)
    for a in range(n - 1):
        lo = hi = values[a]
        for l in range(2, min(n, n + 1 - a)):
            v = values[a + l - 1]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == l - 1:
                yield l, lo, a + 1


def in_cluster_event(sigma: Permutation, event: ClusterEvent) -> bool:
    """Membership of sigma in the (anchored) cluster event."""
    event.validate(len(sigma))
    if event.k is None:
        raise DomainError("event needs k; use in_any_cluster_event for the union")
    l, k, a = event.l, event.k, event.a
    if a is None:
        return any(found[:2] == (l, k) for found in clusters(sigma.values))
    w = sigma.values[a - 1 : a - 1 + l]
    return min(w) == k and max(w) == k + l - 1


def in_any_cluster_event(sigma: Permutation, l: int) -> bool:
    """True iff some block of l consecutive values sits in l consecutive
    positions of sigma (the union of the events over all k)."""
    ClusterEvent(l).validate(len(sigma))
    return any(found[0] == l for found in clusters(sigma.values))


def is_cluster_free(tau: Permutation) -> bool:
    """True iff tau has no cluster of any length l in 2..m-1.

    For m <= 2 the range of l is empty, so the answer is vacuously true.
    """
    return next(clusters(tau.values), None) is None


def check_conditions(tau: Permutation) -> ConditionReport:
    """Evaluate the structural conditions of a pattern of length >= 2.

    c1: tau misses at least one of a tight ascent pair or a tight descent
    pair.  c2: an end of tau holds an extreme value.  c3: length >= 6, the
    four end entries form a block of consecutive values, and tau has
    exactly one tight ascent and one tight descent pair, sitting at the two
    ends in either order.
    """
    m = len(tau)
    if m < 2:
        raise DomainError("conditions are defined for length >= 2")
    t = tau.values
    asc = [i for i in range(m - 1) if t[i + 1] == t[i] + 1]
    desc = [i for i in range(m - 1) if t[i + 1] == t[i] - 1]
    tight12, tight21 = bool(asc), bool(desc)
    ends = (t[0], t[1], t[m - 2], t[m - 1]) if m >= 4 else ()
    c3 = (
        m >= 6
        and max(ends) - min(ends) == 3
        and len(asc) == 1
        and len(desc) == 1
        and {asc[0], desc[0]} == {0, m - 2}
    )
    return ConditionReport(
        c1=not (tight12 and tight21),
        c2=t[0] in (1, m) or t[m - 1] in (1, m),
        c3=c3,
        tight12=tight12,
        tight21=tight21,
        cluster_free=is_cluster_free(tau),
    )


def is_separable(sigma: Permutation) -> bool:
    """True iff sigma avoids both 2413 and 3142."""
    return avoids_all(sigma, SEP)


def reverse(sigma: Permutation) -> Permutation:
    """Reverse the positions of sigma (an involution)."""
    return Permutation(sigma.values[::-1])


def complement(sigma: Permutation) -> Permutation:
    """Replace each value v by n + 1 - v (an involution)."""
    n = len(sigma)
    return Permutation(tuple(n + 1 - v for v in sigma.values))


def inverse(sigma: Permutation) -> Permutation:
    """The positions of the values 1..n of sigma, in order (an involution)."""
    return Permutation(sorted(range(1, len(sigma) + 1), key=lambda p: sigma.values[p - 1]))


#: Reverse, complement and inverse, each with the map (n, l, k, a) -> (l, k', a')
#: on the events of S_n: sigma lies in (l, k, a) iff its image lies in (l, k', a').
SYMMETRIES = (
    (reverse, lambda n, l, k, a: (l, k, n + 2 - l - a)),
    (complement, lambda n, l, k, a: (l, n + 2 - l - k, a)),
    (inverse, lambda n, l, k, a: (l, a, k)),
)


class PatternFacts(NamedTuple):
    """What every lookup and growth asks of a pattern set."""

    key: str  # PatternSet.key()
    shortest: float  # the length of the shortest pattern, inf for none
    complement_closed: bool  # complement maps the set onto itself


_FACTS: dict[tuple[tuple[int, ...], ...], PatternFacts] = {}  # by the patterns' one-line values


def pattern_facts(ps: PatternSet) -> PatternFacts:
    """ps's key, shortest length and complement closure, memoized."""
    values = tuple(tau.values for tau in ps.patterns)
    facts = _FACTS.get(values)
    if facts is None:
        facts = _FACTS[values] = PatternFacts(ps.key(), min(map(len, values), default=float("inf")),
                                              PatternSet(tuple(map(complement, ps))) == ps)
    return facts


def images(tau: Permutation) -> dict[Permutation, Callable[[int, int, int, int], tuple[int, int, int]]]:
    """tau's images under compositions of the `SYMMETRIES`, tau first, each
    with the map on events of a composition sending tau there: S_n(tau) in
    (l, k, a) and S_n(image) in map(n, l, k, a) are equinumerous."""
    found = {tau: lambda n, l, k, a: (l, k, a)}
    for g, f in SYMMETRIES:
        for t, h in list(found.items()):
            found.setdefault(g(t), lambda n, l, k, a, f=f, h=h: f(n, *h(n, l, k, a)))
    return found
