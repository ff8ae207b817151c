"""Counting a single-pattern class by generating-tree states, without numpy.

The growth engine (`growth`) builds S_n(tau) by appending a last entry to
every avoider of length n - 1, one row per avoider.  For some patterns the
rows can be merged: what a row's subtree looks like depends only on a small
state, so a level is kept as a map from states to multiplicities and the
count at n is read off the width n - 1 states (Vatter, "Finitely labeled
generating trees and restricted permutations", JSC 2006; Marinov and
Radoicic, "Counting 1324-avoiding permutations", EJC 2003).

Which patterns.  The count of a class is the same for all 8 symmetric
images of its pattern (reverse, complement, inverse: `perms.images`), so
the counter grows any image of the form t'.m: its last entry is its
maximum m, and every entry of t' is a left-to-right maximum or a
left-to-right minimum of t'.
Every length-3 pattern, 12...m and the length-4 classes of 1234, 1243,
1432 and 1342 (through 2314) have one; 1324, 2143 and 2413 have none.
(`enumeration` counts 1342's images, and 2413 and 3142, by Bóna's closed
form before it asks this counter, so 1342 reaches it only where that form
failed its check; 1324 and 2143 are grown from rows.)  For such an image:

- Appending the rank r to an avoider s of length j (entries >= r bumped
  up) completes t iff some occurrence of t' in s has its top, its largest
  entry, below r.  So the bad ranks are the upper interval (h, j + 1],
  where h is the least top over the t'-occurrences (h = j + 1 if there is
  none), and s has h children.
- A partial occurrence of t'_1..t'_p grows by a later entry x iff x is
  above its maximum (t'_{p+1} is a left-to-right maximum of t') or below
  its minimum (a left-to-right minimum).  So it matters only through its
  (min, max) pair, and a pair with a larger min and a smaller max extends
  whenever the other one does, into a pair at least as good.  The pairs of
  each length p = 2..m-2 are kept as their Pareto chain, increasing in
  both coordinates; the single entries (p = 1) are all of 1..j and are
  not stored.  Where no later step of t' is a left-to-right minimum, the
  min of a pair is never compared again and is kept as 0, so the chain
  is one pair: for 12...m the state is the patience-sorting pile tops.
- A pair whose max is at least h can neither lower h nor grow into a pair
  that can (every later top is at least its max, which stays at least h),
  so it is dropped.

The state is h and the chains, and the count at n is the sum of
multiplicity * h over the width n - 1 states.  For 1342 (image 2314) the
width 10 level has 1,014 states where growth holds 555,662 rows.
`enumeration` uses this counter in its count lookup after the
identities, the memo, the cache, the separable decomposition and Bóna's
form, and only once its counts have matched, in the same process, the
scalar containment count for every n <= max(6, m + 1), m the pattern's
length; on a miss the count is grown from rows.
"""

from __future__ import annotations

from .perms import Permutation, images

Pair = tuple[int, int]  # (min, max) of a partial occurrence


def _eligible(t: tuple[int, ...]) -> bool:
    """t = t'.m with every entry of t' a left-to-right max or min of t'."""
    head = t[:-1]
    return len(t) >= 3 and t[-1] == len(t) and \
        all(x in (max(head[: q + 1]), min(head[: q + 1])) for q, x in enumerate(head))


def _steps(t: tuple[int, ...]) -> tuple[list[bool], list[bool]]:
    """For the steps p = 2..m-1 of t' (index p - 2), whether t'_p is a
    left-to-right maximum; for the chains p = 2..m-2, whether their min is
    still compared by a later step."""
    head = t[:-1]
    rises = [head[p - 1] > max(head[: p - 1]) for p in range(2, len(t))]
    return rises, [not all(rises[i + 1 :]) for i in range(len(t) - 3)]


def image(tau: Permutation) -> tuple[int, ...] | None:
    """The least symmetric image of tau that `count` grows, or None if tau
    has none."""
    return min((t.values for t in images(tau) if _eligible(t.values)), default=None)


def _extend(prev: tuple[Pair, ...] | None, r: int, j: int, rises: bool) -> Pair | None:
    """The best (min, max) pair, after bumping, of an occurrence one entry
    longer that ends at a new last entry of rank r, from the pairs `prev`
    of the shorter ones before bumping (None: the single entries 1..j), or
    None if no occurrence extends."""
    if prev is None:
        if rises:
            return (r - 1, r) if r > 1 else None
        return (r, r + 1) if r <= j else None
    if rises:  # the largest max below r, which has the largest min
        best = None
        for a, b in prev:
            if b >= r:
                break
            best = (a, r)
        return best
    for a, b in prev:  # the first min at or above r, which has the smallest max
        if a >= r:
            return (r, b + 1)
    return None


def _child(state: tuple, r: int, j: int, rises: list[bool], keeps: list[bool]) -> tuple:
    """The state of a width j avoider in `state` after appending rank r <= h."""
    h, chains = state[0], state[1:]
    done = _extend(chains[-1] if chains else None, r, j, rises[-1])
    top = h + 1 if done is None else min(h + 1, done[1])
    grown = []
    prev = None
    for i, chain in enumerate(chains):
        pairs = [(a + (a >= r), b + (b >= r)) for a, b in chain if b + (b >= r) < top]
        new = _extend(prev, r, j, rises[i])
        if new is not None and new[1] < top:
            x, y = new if keeps[i] else (0, new[1])
            if not any(a >= x and b <= y for a, b in pairs):
                pairs = sorted([(a, b) for a, b in pairs if a > x or b < y] + [(x, y)])
        grown.append(tuple(pairs))
        prev = chain
    return (top, *grown)


def count(n: int, t: tuple[int, ...]) -> int:
    """|S_n(t)| for n >= 1 and a pattern t that `image` returns, grown from
    S_0 one width at a time with the avoiders merged by state."""
    rises, keeps = _steps(t)
    level = {(1, *([()] * len(keeps))): 1}
    for j in range(n - 1):
        grown: dict[tuple, int] = {}
        for state, mult in level.items():
            for r in range(1, state[0] + 1):
                child = _child(state, r, j, rises, keeps)
                grown[child] = grown.get(child, 0) + mult
        level = grown
    return sum(mult * state[0] for state, mult in level.items())
