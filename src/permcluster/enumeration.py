"""Exhaustive generation and exact counting over S_n and S_n(patterns).

One growth engine serves every class, S_n included (no forbidden
patterns).  It grows avoiders length by length.  Because avoidance only
depends on relative order, each level below n holds the full numpy array
of avoiding patterns of that length; a length-j avoider is extended by
appending a new last entry of rank r in 1..j+1 (existing values >= r are
bumped up by one).  Since the parent already avoids everything, the child
survives iff the appended entry does not complete a forbidden occurrence
ending at the last position, and that test reduces per candidate
occurrence to an interval of bad ranks.  Every row carries the union of
those intervals as a bitmask.  A child inherits its parent's mask with the
ranks at and above r moved up by one, so the kernel only scans the head
occurrences that end at the new column: C(j-1, h-1) column subsets for a
head of length h at width j, instead of C(j, h).  Every such subset is
mapped to its interval of bad ranks, a miss to the empty interval, so the
kernel's work depends on the level's size and the head lengths only: the
symmetric images of a pattern cost the same.  Growth starts at S_0, the
empty permutation, so S_1 gets its mask from the same kernel too.
Counting and event tables stop at width n - 1 and never build a width-n
row: a count adds up each row's free ranks in 1..n, and a table reads
every event off the width n - 1 rows and their free ranks, one chunk of
rows at a time.  Only a listing builds the final level, exactly
S_n(patterns).

Event counts (which blocks of l consecutive values sit in l consecutive
positions) start from the parents' cluster windows, found with sliding
window min/max scans: a window is a cluster iff max - min = l - 1, and the
block start k is then the window minimum.  A child appends a free rank r.
A parent cluster (l, k, a) stays a cluster iff r <= k, shifted to k + 1,
or r >= k + l; the child's last window is a cluster iff the parent's last
l - 1 entries are a block m..m+l-2 and m <= r <= m+l-1.  So every event
count, the union over k included, is a count of free ranks in intervals,
a popcount of the mask.  For a fixed l, the block determines its
positions, so per permutation each (l, k) and each (l, k, a) occurs at
most once and counting children counts permutations.

|S_n| = n! is an identity, returned for every n without enumeration.  The
other counting fast paths (Catalan for a single length-3 pattern, a
Schroeder-type linear recurrence for the separable class) are only used
for n > 10, once per process the closed form has reproduced the counts
for every n <= 10.  Those counts come from the one count lookup: the
in-process memo, then the count cache, then enumeration, so a cache
written by an earlier run can satisfy the check; a wrong cached count
only fails it, and the fast path falls back to enumeration.  The lookup
and every event table record the count they find in one step: in the
memo, and in the cache where it lacks or contradicts the count.

All counting is exact integer arithmetic; probabilities are Fractions.
Work splitting deals an intermediate level's rows, masks included,
round-robin into 4 * jobs disjoint parts, which the worker processes take
one at a time; the subtree results are merged by addition, so parallel
runs are pure and deterministic.
"""

from __future__ import annotations

import fcntl
import itertools
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from .perms import (
    SEP,
    ClusterEvent,
    DomainError,
    ParseError,
    PatternSet,
    Permutation,
    UndefinedProbabilityError,
    parse_permutation,
)

_CHUNK_ROWS = 1 << 16
_MAX_ENUM_N = 60  # rank bitmasks are uint64
_VALIDATE_UPTO = 10

T = TypeVar("T")

BigCount = int
ExactRatio = Fraction


# ---------------------------------------------------------------------------
# vectorized "does the appended rank complete a forbidden occurrence" test


def _order_matches(rows: np.ndarray, t: tuple[int, ...], *, last: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Each row's entries at every len(t)-subset of its columns (only the
    subsets that include the last column, if `last`), and whether they are
    order-isomorphic to t.

    Returns cols (m, T, N) and ok (T, N), subset-major so that every
    comparison runs over contiguous rows.  Entries are distinct, so order
    isomorphism is m - 1 comparisons: the entries at t's positions, taken
    by increasing value of t, must increase.
    """
    w = rows.shape[1]
    if last:
        combos = [c + (w - 1,) for c in itertools.combinations(range(w - 1), len(t) - 1)]
    else:
        combos = list(itertools.combinations(range(w), len(t)))
    cols = np.ascontiguousarray(rows.T)[np.array(combos, dtype=np.intp).T]
    ok = np.ones(cols.shape[1:], dtype=bool)
    by_value = sorted(range(len(t)), key=t.__getitem__)
    for s, u in zip(by_value, by_value[1:]):
        ok &= cols[s] < cols[u]
    return cols, ok


@dataclass(frozen=True)
class _PatternMeta:
    head: tuple[int, ...]  # the pattern minus its last entry
    below: int | None  # the head slot valued one below the last entry
    above: int | None  # the head slot valued one above the last entry


def _pattern_metas(ps: PatternSet) -> list[_PatternMeta]:
    metas = []
    for tau in ps:
        t = tau.values
        head = t[:-1]
        below = head.index(t[-1] - 1) if t[-1] > 1 else None
        above = head.index(t[-1] + 1) if t[-1] < len(t) else None
        metas.append(_PatternMeta(head, below, above))
    return metas


_ONE = np.uint64(1)

# A level of the growth: rows (N, j) of avoiders of length j, and per row
# the bitmask of the ranks r in 1..j+1 whose append would complete an
# occurrence of a forbidden pattern.
Level = tuple[np.ndarray, np.ndarray]


def _new_bad(rows: np.ndarray, metas: list[_PatternMeta]) -> np.ndarray:
    """Bad ranks contributed by head occurrences ending at the last column.

    A new last entry of rank r completes an occurrence of tau iff some
    (m-1)-subset of columns matches the head of tau in relative order and
    r falls strictly above the entry matched to the value one below tau's
    last entry, lo, and at or below the entry matched to the value one
    above it, hi (after bumping, `value >= r` means `above r`): the ranks
    lo < r <= hi, with lo = 0 or hi = j + 1 when there is no such value.
    Occurrences that avoid the last column were already in the parent's
    mask and are carried, not rescanned.  Every subset is turned into its
    interval, matching or not (a miss is masked to the empty one), so the
    work depends on the shape of `rows` and the head lengths only, not on
    how many occurrences there are.
    """
    n_rows, w = rows.shape
    bad = np.zeros(n_rows, dtype=np.uint64)
    # Entries v become 2^(v+1), which keeps their relative order, so the
    # bits lo+1..hi are the difference 2^(hi+1) - 2^(lo+1).  The narrowest
    # unsigned type that holds bit w + 1 is used; 2^(w+2) may wrap to 0 and
    # the difference is still exact modulo 2^bits.
    dt = np.min_scalar_type(2 ** (w + 2) - 1)
    two = dt.type(2)
    pow2 = two << rows.astype(dt)
    for meta in metas:
        if len(meta.head) > w:
            continue
        cols, ok = _order_matches(pow2, meta.head, last=True)
        lo = two if meta.below is None else cols[meta.below]
        hi = two << dt.type(w + 1) if meta.above is None else cols[meta.above]
        bad |= np.bitwise_or.reduce((hi - lo) * ok, axis=0)
    return bad


def _free(bad: np.ndarray, r: int) -> np.ndarray:
    """The rows whose mask leaves rank r free to append."""
    return ((bad >> np.uint64(r)) & _ONE) == 0


def _free_ranks(bad: np.ndarray, n: int) -> np.ndarray:
    """Each row's free ranks in 1..n, as bit r for rank r; a width n-1 row
    has one child per free rank."""
    return ~bad & np.uint64((2 << n) - 2)


def _append(rows: np.ndarray, r: int) -> np.ndarray:
    """rows with a new last entry of rank r; entries >= r are bumped up."""
    col = np.full((len(rows), 1), r, dtype=rows.dtype)
    return np.hstack([(rows + (rows >= r)).astype(rows.dtype), col])


def _children(level: Level, metas: list[_PatternMeta]) -> Level:
    """The next level below `level`, masks included.

    A child made by appending the free rank r inherits its parent's mask B
    with the ranks >= r moved up by one, (B & (2^r - 1)) | (B >> r) << (r + 1):
    r is not in B, so every carried interval lies wholly below or wholly at
    and above r.  The kernel then adds the occurrences ending at the new
    column, one _CHUNK_ROWS slice of the children at a time.
    """
    rows, bad = level
    kids, masks = [], []
    for r in range(1, rows.shape[1] + 2):
        keep = _free(bad, r)
        kids.append(_append(rows[keep], r))
        b, rr = bad[keep], np.uint64(r)
        masks.append((b & ((_ONE << rr) - _ONE)) | ((b >> rr) << (rr + _ONE)))
    rows, bad = np.vstack(kids), np.concatenate(masks)
    for s in range(0, len(rows), _CHUNK_ROWS):
        bad[s : s + _CHUNK_ROWS] |= _new_bad(rows[s : s + _CHUNK_ROWS], metas)
    return rows, bad


def _root(n: int) -> Level:
    """S_0 and its empty mask, the root every growth starts from, once n is in range."""
    if n < 1:
        raise DomainError("enumeration needs n >= 1")
    if n > _MAX_ENUM_N:
        raise DomainError(f"enumeration supports n <= {_MAX_ENUM_N}")
    return np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.uint64)


def _grow(level: Level, width: int, metas: list[_PatternMeta]) -> Level:
    """Grow a level, held whole, until its rows have the given width."""
    while level[0].shape[1] < width:
        level = _children(level, metas)
    return level


def _count_leaves(n: int, ps: PatternSet, level: Level) -> int:
    """|S_n(ps)| below `level`, read off the width n-1 masks: each row has
    one child per free rank in 1..n.  No width-n row is built."""
    bad = _grow(level, n - 1, _pattern_metas(ps))[1]
    return int(np.bitwise_count(_free_ranks(bad, n)).sum())


def _split_grow(n: int, ps: PatternSet, jobs: int,
                consume: Callable[[int, PatternSet, Level], T]) -> list[T]:
    """consume(n, ps, level) over disjoint levels covering S_n(ps).

    With one job the level is the root S_0, run in-process.  Otherwise the
    level is grown until it has at least 16 * jobs rows and dealt out with
    its masks, row i to part i mod (4 * jobs), so that neighbouring
    subtrees, which tend to be alike in size, land in different parts.  A
    pool of `jobs` workers takes the parts one at a time, so a worker that
    finishes early, or runs on a less busy core, takes more of them; the
    parts merge by addition.  A level that reaches width n - 1 first, still
    short of 16 * jobs rows, is consumed in-process.
    """
    level, metas = _root(n), _pattern_metas(ps)
    while jobs > 1 and level[0].shape[1] < n - 1 and len(level[0]) < 16 * jobs:
        level = _children(level, metas)
    if jobs <= 1 or len(level[0]) < 16 * jobs:
        return [consume(n, ps, level)]
    k = 4 * jobs
    parts = [(level[0][i::k], level[1][i::k]) for i in range(k)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(consume, [n] * k, [ps] * k, parts))


# ---------------------------------------------------------------------------
# bulk containment and the cluster window scan (shared with the verification suites)


def contains_pattern_rows(rows: np.ndarray, tau: Permutation) -> np.ndarray:
    """Vectorized containment: for each row, does it contain tau anywhere."""
    hit = np.zeros(len(rows), dtype=bool)
    if len(tau) > rows.shape[1]:
        return hit
    for start in range(0, len(rows), _CHUNK_ROWS):
        sl = slice(start, start + _CHUNK_ROWS)
        hit[sl] = _order_matches(rows[sl], tau.values)[1].any(axis=0)
    return hit


def cluster_windows(rows: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Sliding window min/max scan over the rows, for l = 2 .. width - 1.

    Yields (l, cluster, cmin): cluster[i, a] says whether the l entries of
    row i starting at position a + 1 are l consecutive values, and then
    cmin[i, a] is the smallest of them, the block start k.
    """
    cmin = cmax = rows
    for l in range(2, rows.shape[1]):
        cmin = np.minimum(cmin[:, :-1], rows[:, l - 1 :])
        cmax = np.maximum(cmax[:, :-1], rows[:, l - 1 :])
        yield l, (cmax - cmin) == (l - 1), cmin


# ---------------------------------------------------------------------------
# event tabulation


@dataclass
class EventTable:
    """Exact counts of avoiders in every cluster event at one (n, patterns)."""

    n: int
    patterns_key: str
    total: int = 0
    by_lk: Counter[tuple[int, int]] = field(default_factory=Counter)
    by_lka: Counter[tuple[int, int, int]] = field(default_factory=Counter)
    union_by_l: Counter[int] = field(default_factory=Counter)

    def count(self, event: ClusterEvent) -> int:
        """Members in the event; an event without k is the union over k."""
        if event.k is None:
            return self.union_by_l.get(event.l, 0)
        if event.a is None:
            return self.by_lk.get((event.l, event.k), 0)
        return self.by_lka.get((event.l, event.k, event.a), 0)

    def probability(self, event: ClusterEvent) -> Fraction:
        """The event's share of the class; undefined for an empty class."""
        if self.total == 0:
            raise UndefinedProbabilityError(f"S_{self.n}({self.patterns_key or '(none)'}) is empty")
        return Fraction(self.count(event), self.total)

    def add(self, other: "EventTable") -> None:
        """Add the counts of a disjoint part of the same class."""
        self.total += other.total
        self.by_lk.update(other.by_lk)
        self.by_lka.update(other.by_lka)
        self.union_by_l.update(other.union_by_l)


def _tabulate_chunk(rows: np.ndarray, bad: np.ndarray, n: int,
                    lka: np.ndarray, union: np.ndarray) -> int:
    """Add the events of the width-n children of one chunk of width n-1
    parents into lka[l, k, a] and union[l]; returns the number of children.

    A child appends a free rank r of its parent, so every event count is a
    count of free ranks in an interval, read off the mask as a popcount:
    - a parent cluster window (l, k, a) stays a cluster iff r <= k, as
      (l, k+1, a), or r >= k+l, as (l, k, a); the whole parent is the
      window (n-1, 1, 1), which `cluster_windows` does not yield;
    - the child's suffix window of length l is a cluster iff the parent's
      last l-1 entries are a block m..m+l-2 and m <= r <= m+l-1, as
      (l, m, n-l+1);
    - so the child has no cluster of length l iff r lies in every
      (k, k+l-1] of the parent's windows and outside the suffix range.
    The sums over the rows of each (k, a) come from one integer bincount
    over (k, a, count) codes, weighted by the count afterwards.
    """
    n_rows, w = rows.shape
    upto = (np.uint64(2) << np.arange(n + 1, dtype=np.uint64)) - np.uint64(2)  # ranks 1..x
    free = _free_ranks(bad, n)
    total = int(np.bitwise_count(free).sum())
    if w < 2:
        return total
    whole = (w, np.ones((n_rows, 1), dtype=bool), np.ones((n_rows, 1), dtype=rows.dtype))
    weights = np.arange(n + 1)
    smin = smax = rows[:, -1]  # of the parent's last l-1 entries
    for l, cluster, cmin in itertools.chain(cluster_windows(rows), [whole]):
        smin, smax = np.minimum(smin, rows[:, w - l + 1]), np.maximum(smax, rows[:, w - l + 1])
        idx = np.flatnonzero(cluster)
        i, a = np.divmod(idx, cluster.shape[1])
        k = cmin.ravel()[idx].astype(np.intp)
        j = np.flatnonzero(smax - smin == l - 2)
        m = smin[j].astype(np.intp)
        suffix = upto[m + l - 1] ^ upto[m - 1]
        ks = np.concatenate([k + 1, k, m])
        aa = np.concatenate([a + 1, a + 1, np.full(len(j), n - l + 1)])
        got = np.bitwise_count(np.concatenate([free[i] & upto[k], free[i] & ~upto[k + l - 1],
                                               free[j] & suffix]))
        code = (ks * (n + 2) + aa) * (n + 1) + got
        lka[l] += np.bincount(code, minlength=(n + 2) ** 2 * (n + 1)).reshape(n + 2, n + 2, n + 1) @ weights
        no_cluster = np.full(n_rows, upto[n])  # the ranks that leave no cluster of length l
        np.bitwise_and.at(no_cluster, i, upto[k + l - 1] ^ upto[k])
        no_cluster[j] &= ~suffix
        union[l] += int(np.bitwise_count(free & ~no_cluster).sum())
    return total


def _table_parents(n: int, ps: PatternSet, level: Level) -> EventTable:
    """The event table of the width-n descendants of `level` that avoid ps,
    read off the width n-1 rows and masks one chunk at a time: no width-n
    row is built."""
    rows, bad = _grow(level, n - 1, _pattern_metas(ps))
    lka = np.zeros((n, n + 2, n + 2), dtype=np.int64)
    union = np.zeros(n, dtype=np.int64)
    table = EventTable(n, ps.key())
    for s in range(0, len(rows), _CHUNK_ROWS):
        table.total += _tabulate_chunk(rows[s : s + _CHUNK_ROWS], bad[s : s + _CHUNK_ROWS], n, lka, union)
    for l, k, a in zip(*np.nonzero(lka)):
        table.by_lka[(int(l), int(k), int(a))] = int(lka[l, k, a])
    lk = lka.sum(axis=2)
    for l, k in zip(*np.nonzero(lk)):
        table.by_lk[(int(l), int(k))] = int(lk[l, k])
    for l in np.nonzero(union)[0]:
        table.union_by_l[int(l)] = int(union[l])
    return table


_EVENT_MEMO: dict[tuple[int, str], EventTable] = {}
_COUNT_MEMO: dict[str, int] = {}


def _record_count(n: int, ps: PatternSet, value: int, cache: "CountCache | None") -> int:
    """Keep |S_n(ps)| = value in the memo, and in the cache where the cache
    lacks it or holds another value (never |S_n|: n! is an identity)."""
    key = cache_key(n, ps)
    _COUNT_MEMO[key] = value
    if cache is not None and not ps.is_empty() and cache.get(key) != value:
        cache.put(key, value)
    return value


def event_count_table(n: int, ps: PatternSet, *, jobs: int = 1, cache: "CountCache | None" = None) -> EventTable:
    """Counts of S_n(ps) members in every cluster event, from one full pass."""
    memo_key = (n, ps.key())
    table = _EVENT_MEMO.get(memo_key)
    if table is None:
        if ps.is_empty() and n > 11:
            raise DomainError(
                f"exhaustive event tables over all of S_{n} are out of reach (n! rows); n <= 11"
            )
        table = EventTable(n, ps.key())
        for part in _split_grow(n, ps, jobs, _table_parents):
            table.add(part)
        _EVENT_MEMO[memo_key] = table
    _record_count(n, ps, table.total, cache)
    return table


# ---------------------------------------------------------------------------
# the persistent count cache


def cache_key(n: int, ps: PatternSet) -> str:
    return f"avoid={ps.key()};n={n}"


def parse_cache_key(key: str) -> tuple[int, PatternSet]:
    if not key.startswith("avoid=") or ";n=" not in key:
        raise ParseError(f"bad cache key {key!r}")
    avoid_part, n_part = key[len("avoid=") :].rsplit(";n=", 1)
    if not n_part.isdigit():
        raise ParseError(f"bad cache key {key!r}")
    patterns = tuple(parse_permutation(p) for p in avoid_part.split("+")) if avoid_part else ()
    return int(n_part), PatternSet(patterns)


class CountCache:
    """A persistent text map from cache keys to decimal count strings.

    One entry per line, key and value separated by a tab.  Corrupt lines
    are ignored (and their keys recomputed on demand).  A write holds an
    exclusive lock on the sidecar file `<name>.lock` while it re-reads the
    file, merges, writes a uniquely named temporary file beside it and
    replaces the file with it: concurrent readers always see a whole file,
    and concurrent writers lose no entry (for a key written by both with
    different values, the later writer wins).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._data: dict[str, int] | None = None

    def _parse_file(self) -> dict[str, int]:
        data: dict[str, int] = {}
        try:
            text = self.path.read_text()
        except OSError:
            return data
        for line in text.splitlines():
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[1].strip().isdigit():
                continue  # corrupt entry: ignore, recompute later
            try:
                parse_cache_key(parts[0])
            except (ParseError, ValueError):
                continue
            data[parts[0]] = int(parts[1])
        return data

    def _load(self) -> dict[str, int]:
        if self._data is None:
            self._data = self._parse_file()
        return self._data

    def get(self, key: str) -> int | None:
        return self._load().get(key)

    def put(self, key: str, value: int) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        with open(lock_path, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            merged = self._parse_file()
            merged.update(self._load())
            merged[key] = value
            self._data = merged
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    for k in sorted(merged):
                        fh.write(f"{k}\t{merged[k]}\n")
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise

    def items(self) -> list[tuple[str, int]]:
        return sorted(self._load().items())


# ---------------------------------------------------------------------------
# counting


def fresh_count(n: int, ps: PatternSet, *, jobs: int = 1) -> int:
    """Count by enumeration only, bypassing memos, caches and fast paths."""
    if n == 0:
        return 1
    if ps.is_empty():
        return math.factorial(n)
    return sum(_split_grow(n, ps, jobs, _count_leaves))


def _enumerated_count(n: int, ps: PatternSet, cache: CountCache | None, jobs: int) -> int:
    """|S_n(ps)| from the memo, else the cache, else by enumeration."""
    key = cache_key(n, ps)
    value = _COUNT_MEMO.get(key)
    if value is None and cache is not None:
        value = cache.get(key)
    if value is None:
        value = fresh_count(n, ps, jobs=jobs)
    return _record_count(n, ps, value, cache)


_VALIDATED_FAST_PATHS: set[str] = set()


def _schroeder_counts(n: int) -> list[int]:
    # d[q] = |separable permutations of length q|; exact integer recurrence.
    d = [0] * (n + 1)
    d[1] = 1
    if n >= 2:
        d[2] = 2
    for q in range(3, n + 1):
        num = 3 * (2 * q - 3) * d[q - 1] - (q - 3) * d[q - 2]
        d[q] = num // q
    return d


def _closed_count(ps: PatternSet) -> Callable[[int], int] | None:
    """The known closed form n -> |S_n(ps)|, if any: Catalan numbers for a
    single length-3 pattern, the Schroeder-type recurrence for SEP."""
    from .formulas import catalan  # formulas imports this module

    if len(ps) == 1 and len(ps.patterns[0]) == 3:
        return catalan
    if ps == SEP:
        return lambda n: _schroeder_counts(n)[n]
    return None


def count_avoiders(n: int, ps: PatternSet, *, cache: CountCache | None = None, jobs: int = 1) -> int:
    """|S_n(ps)| exactly.  n = 0 counts the empty permutation once."""
    if n < 0:
        raise DomainError("counting needs n >= 0")
    if n == 0:
        return 1
    if ps.is_empty():
        return math.factorial(n)
    form = _closed_count(ps) if n > _VALIDATE_UPTO else None
    if form is not None:
        key = ps.key()
        if key not in _VALIDATED_FAST_PATHS and all(
            _enumerated_count(j, ps, cache, jobs) == form(j) for j in range(1, _VALIDATE_UPTO + 1)
        ):
            _VALIDATED_FAST_PATHS.add(key)
        if key in _VALIDATED_FAST_PATHS:
            return form(n)
    return _enumerated_count(n, ps, cache, jobs)


def avoider_rows(n: int, ps: PatternSet) -> np.ndarray:
    """S_n(ps) as an int8 array, one row per member, in lexicographic order."""
    parents, bad = _grow(_root(n), n - 1, _pattern_metas(ps))
    rows = np.vstack([_append(parents[_free(bad, r)], r) for r in range(1, n + 1)])
    return rows[np.lexsort(rows.T[::-1])]


def enumerate_avoiders(n: int, ps: PatternSet) -> Iterator[Permutation]:
    """Yield S_n(ps) exactly once each, in lexicographic one-line order."""
    for row in avoider_rows(n, ps).tolist():
        yield Permutation(tuple(row))


# ---------------------------------------------------------------------------
# event counts and exact probabilities


def count_event(n: int, ps: PatternSet, event: ClusterEvent, *, cache: CountCache | None = None, jobs: int = 1) -> int:
    """Exact count of S_n(ps) members in the (anchored) cluster event."""
    event.validate(n)
    if event.k is None:
        raise DomainError("count_event needs k; use count_union_event for the union")
    return event_count_table(n, ps, jobs=jobs, cache=cache).count(event)


def count_union_event(n: int, ps: PatternSet, l: int, *, cache: CountCache | None = None, jobs: int = 1) -> int:
    """Exact count of S_n(ps) members with some block of l consecutive values
    in consecutive positions (the union of the events over k)."""
    event = ClusterEvent(l)
    event.validate(n)
    return event_count_table(n, ps, jobs=jobs, cache=cache).count(event)


def exact_probability(
    n: int,
    ps: PatternSet,
    event: ClusterEvent | None = None,
    *,
    union_l: int | None = None,
    cache: CountCache | None = None,
    jobs: int = 1,
) -> Fraction:
    """Exact probability of a cluster event under the uniform measure on S_n(ps)."""
    if (event is None) == (union_l is None):
        raise DomainError("give exactly one of an event or union_l")
    event = ClusterEvent(union_l) if event is None else event
    event.validate(n)
    if union_l is None and event.k is None:
        raise DomainError("count_event needs k; use count_union_event for the union")
    return event_count_table(n, ps, jobs=jobs, cache=cache).probability(event)


def ratio_sequence(ps: PatternSet, n_max: int, *, cache: CountCache | None = None) -> list[Fraction]:
    """The consecutive-count ratios |S_{n+1}(ps)| / |S_n(ps)| for n = 1..n_max-1."""
    if n_max < 2:
        raise DomainError("ratio_sequence needs n_max >= 2")
    counts = [count_avoiders(n, ps, cache=cache) for n in range(1, n_max + 1)]
    return [Fraction(b, a) for a, b in zip(counts, counts[1:])]
