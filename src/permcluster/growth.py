"""The numpy growth engine behind `enumeration`.

One engine serves every class, S_n included (no forbidden patterns): it
grows every count that `enumeration` asks it for, every listing, every
table of `fresh_table` (and so of `cache-audit`), and every table of the
lookup but those of S_n and of the separable class from n = 10 on, which
come from the substitution decomposition (`substitution`).  It grows
avoiders length by length.  Because avoidance only depends on
relative order, each level below n is a numpy array of avoiding patterns
of that length; a length-j avoider is extended by appending a new last
entry of rank r in 1..j+1 (existing values >= r are bumped up by one).
Since the parent already avoids everything, the child survives iff the
appended entry does not complete a forbidden occurrence ending at the last
position, and that test reduces per candidate occurrence to an
interval of bad ranks.  Every row carries the union of those intervals as
a bitmask.  A child inherits its parent's mask with the ranks at and above
r moved up by one, so the kernel only scans the head occurrences that end
at the new column: C(j-1, h-1) column subsets for a head of length h at
width j, instead of C(j, h).  Every such subset is mapped to its interval
of bad ranks, a miss to the empty interval, so the kernel's work depends
on the level's size and the head lengths only: the symmetric images of a
pattern cost the same.  The column subsets are gathered once per chunk
and head length, from the transposed rows, and every pattern with a head
of that length is tested on them: 2413 and 3142, the separable class,
share one gather.  Growth starts at S_0, the empty permutation, so
S_1 gets its mask from the same kernel too (complement-closed classes
start at width 2, below).  Counting and event tables
stop at width n - 1 and never build a width-n row: a count adds up each
row's free ranks in 1..n, and a table reads every event off the width
n - 1 rows and their free ranks.  Only a listing builds the final level,
exactly S_n(patterns).

Growth is depth-first in bounded parts: `_descendants` cuts a level into
parts of at most _CHUNK_ROWS rows and grows each part's subtree to the
target width, yielding it part by part, before it starts the next part.
So at most one part's children of each width are held at a time, and the
memory of a count or a table is bounded by the part size, not by the
level (each level is up to j + 1 times the one before).  The same
constant bounds the kernel's and the tabulation's chunks, whose
temporaries are a few times the chunk's rows.  Counts and tables are
sums, so the order of the parts does not matter; a listing, the only
consumer that holds a whole class, is sorted at the end.

Serial growth keeps the whole levels it builds that fit in one part
(`_KeptLevels`): per class and start level (S_0, or the half root under
12, below), the levels of at most _CHUNK_ROWS rows, masks included, at
consecutive widths, up to 64 * _CHUNK_ROWS bytes in all (512 KiB), the
least recently used class dropped first.  A level is whole while every
level above it fits in one part.  Every later count, table or listing of
the class starts from the deepest kept level at or above the width it
needs; a level too large to keep is grown in parts from there, never
again from S_0.  So the verification suites, which ask for each class at
consecutive n, grow each of its levels once per process, and so does a
lookup with a store (see `enumeration`), which tabulates every width from
2 up to the one that reads the first level past _CHUNK_ROWS rows, each
from the kept level one width below it.  A "fresh" count
or table (`enumeration.fresh_count`, `fresh_table`, and so `cache-audit`)
is one grown in this process, from S_0 or from these levels, never read
from the memo or the stores.  A process forked for a parallel growth
starts from the levels kept here at the fork, and what it keeps ends with
it.

Event counts (which blocks of l consecutive values sit in l consecutive
positions) start from the parents' cluster windows, found with sliding
window min/max scans: a window is a cluster iff max - min = l - 1, and the
block start k is then the window minimum.  The scan runs column-major, on
the transposed rows, so that every min and max is over whole contiguous
columns of a chunk rather than over a row's few entries.  A child appends
a free rank r.  A parent cluster (l, k, a) stays a cluster iff r <= k,
shifted to k + 1, or r >= k + l; the child's last window is a cluster iff
the parent's last l - 1 entries are a block m..m+l-2 and m <= r <= m+l-1.
So every event count, the union over k included, is a count of free
ranks in intervals.  Each row's free ranks in 1..x are counted once per
chunk, for every x, so a window's count is one lookup in these prefix
counts, and a row has no cluster of length l for the ranks of one
interval, (max k, min k + l - 1] over its windows, less the suffix range.
For a fixed l, the block determines its positions, so per permutation
each (l, k) and each (l, k, a) occurs at most once and counting children
counts permutations.

Counts and tables of a class closed under complement, s_i -> n + 1 - s_i
(S_n, SEP, 123+321, ...), grow half the tree.  Appending a last entry
keeps the relative order of the first two, and complement commutes with
growth, so for n >= 3 the subtree under 12 holds the members with s_1 <
s_2 and the complements of its leaves are the rest.  `_start` then
returns the width-2 level that holds only 12, its mask from the kernel;
`count` doubles the half's count and `table` adds its complement image in
`_mirror`: (l, k, a) -> (l, n + 2 - k - l, a), total and unions doubled.
A listing stays on the whole tree, so that the leaf tabulation the tests
check tables against shares no code with the mirror.

Work splitting deals an early level's rows, masks included, round-robin
into 4 * jobs disjoint parts, which `run_parts` hands to this process
and jobs - 1 processes forked from it; each takes the parts one at a time
and grows them depth-first like the serial path.  `count` and `table` add
up the parts (a table's as arrays), so parallel runs are deterministic.
`run_parts` is the package's one parallel path: the verification suites
deal their classes through it too (see `verify`).  It needs `os.fork`, a
POSIX call.

This module imports numpy, and of the package only `perms`; `count` and
`table` return plain ints and dicts.  `enumeration` imports it on the
first call that has to enumerate, so that answers from the memo, the
stores and the closed forms start no numpy.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
from typing import Callable, Iterator, NamedTuple, TypeVar

import numpy as np

from .perms import DomainError, PatternSet, Permutation

_CHUNK_ROWS = 1 << 13  # rows in a part of a level, a kernel chunk and a tabulation chunk
_MAX_ENUM_N = 60  # rank bitmasks are uint64

T = TypeVar("T")
U = TypeVar("U")


# ---------------------------------------------------------------------------
# vectorized "does the appended rank complete a forbidden occurrence" test


def _column_subsets(cols: np.ndarray, m: int, *, last: bool = False) -> np.ndarray:
    """The entries at every m-subset of the columns (only the subsets that
    include the last column, if `last`), from cols = rows.T, (width, N):
    sub[s, c, i] is row i's entry at the s-th column of subset c.  The
    result is subset-major, so that every comparison on it runs over
    contiguous rows."""
    w = cols.shape[0]
    if last:
        combos = [c + (w - 1,) for c in itertools.combinations(range(w - 1), m - 1)]
    else:
        combos = list(itertools.combinations(range(w), m))
    return np.ascontiguousarray(cols)[np.array(combos, dtype=np.intp).T]


def _order_matches(sub: np.ndarray, t: tuple[int, ...]) -> np.ndarray:
    """Whether the entries of each subset of `_column_subsets` are
    order-isomorphic to t, (T, N).  Entries are distinct, so order
    isomorphism is m - 1 comparisons: the entries at t's positions, taken
    by increasing value of t, must increase."""
    if len(t) < 2:
        return np.ones(sub.shape[1:], dtype=bool)
    by_value = sorted(range(len(t)), key=t.__getitem__)
    ok = sub[by_value[0]] < sub[by_value[1]]
    for s, u in zip(by_value[1:], by_value[2:]):
        ok &= sub[s] < sub[u]
    return ok


class _PatternMeta(NamedTuple):
    head: tuple[int, ...]  # the pattern minus its last entry
    below: int | None  # the head slot valued one below the last entry
    above: int | None  # the head slot valued one above the last entry


Metas = dict[int, list[_PatternMeta]]  # by head length


def _pattern_metas(ps: PatternSet) -> Metas:
    """The patterns' heads and last-entry neighbours, grouped by head length."""
    metas: Metas = {}
    for tau in ps:
        t = tau.values
        head = t[:-1]
        below = head.index(t[-1] - 1) if t[-1] > 1 else None
        above = head.index(t[-1] + 1) if t[-1] < len(t) else None
        metas.setdefault(len(head), []).append(_PatternMeta(head, below, above))
    return metas


_ONE = np.uint64(1)

# A level of the growth: rows (N, j) of avoiders of length j, and per row
# the bitmask of the ranks r in 1..j+1 whose append would complete an
# occurrence of a forbidden pattern.
Level = tuple[np.ndarray, np.ndarray]


def _new_bad(rows: np.ndarray, metas: Metas) -> np.ndarray:
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
    how many occurrences there are.  The subsets of one head length are
    gathered once, and every head of that length is tested on them.
    """
    n_rows, w = rows.shape
    bad = np.zeros(n_rows, dtype=np.uint64)
    # Entries v become 2^(v+1), which keeps their relative order, so the
    # bits lo+1..hi are the difference 2^(hi+1) - 2^(lo+1).  The narrowest
    # unsigned type that holds bit w + 1 is used; 2^(w+2) may wrap to 0 and
    # the difference is still exact modulo 2^bits.
    dt = np.min_scalar_type(2 ** (w + 2) - 1)
    two = dt.type(2)
    pow2 = two << rows.T.astype(dt, order="C")
    for h, group in metas.items():
        if h > w:
            continue
        sub = _column_subsets(pow2, h, last=True)
        for meta in group:
            lo = two if meta.below is None else sub[meta.below]
            hi = two << dt.type(w + 1) if meta.above is None else sub[meta.above]
            bad |= np.bitwise_or.reduce((hi - lo) * _order_matches(sub, meta.head), axis=0)
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


def _children(level: Level, metas: Metas) -> Level:
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


def _descendants(level: Level, width: int, metas: Metas) -> Iterator[Level]:
    """The descendants of `level` at the given width, in parts of at most
    _CHUNK_ROWS rows: each part of `level` has its subtree grown and yielded
    before the next part starts, so at most one part's children of each
    width are held, and the recursion is at most `width` deep."""
    rows, bad = level
    for s in range(0, len(rows), _CHUNK_ROWS):
        part = rows[s : s + _CHUNK_ROWS], bad[s : s + _CHUNK_ROWS]
        if rows.shape[1] < width:
            yield from _descendants(_children(part, metas), width, metas)
        else:
            yield part


def _count_leaves(n: int, ps: PatternSet, level: Level) -> int:
    """|S_n(ps)| below `level`, read off the width n-1 masks: each row has
    one child per free rank in 1..n.  No width-n row is built."""
    return sum(int(np.bitwise_count(_free_ranks(bad, n)).sum())
               for _, bad in _descendants(level, n - 1, _pattern_metas(ps)))


_CLOSED: dict[tuple[tuple[int, ...], ...], bool] = {}  # by the patterns' one-line values


def _complement_closed(ps: PatternSet) -> bool:
    """Whether ps is closed under complement, memoized per pattern set."""
    values = tuple(tau.values for tau in ps.patterns)  # sorted, as PatternSet keeps them
    closed = _CLOSED.get(values)
    if closed is None:
        closed = _CLOSED[values] = sorted(tuple(len(t) + 1 - v for v in t) for t in values) == list(values)
    return closed


def _start(n: int, ps: PatternSet, metas: Metas) -> tuple[Level, bool]:
    """The level that counts and tables grow from, and whether it is the
    half root: S_0, or, for a complement-closed ps and n >= 3, the width-2
    level that holds only 12 (empty if 12 is forbidden), with the mask the
    kernel gives it.  The half root's descendants are the members with
    s_1 < s_2, and their complements (`_mirror`) are the rest of S_n(ps)."""
    root = _root(n)
    if n < 3 or not _complement_closed(ps):
        return root, False
    rows, bad = _children(_children(root, metas), metas)
    rising = rows[:, 0] < rows[:, 1]
    return (rows[rising], bad[rising]), True


def _nbytes(level: Level) -> int:
    return level[0].nbytes + level[1].nbytes


class _KeptLevels:
    """The whole levels that serial growth built in this process and that
    fit in one part, at most _CHUNK_ROWS rows: per class and start level,
    keyed (ps, half), the levels at consecutive widths from the start level
    on (S_0, or the half root under 12), shallowest first.  Their rows and
    masks take at most 64 * _CHUNK_ROWS bytes in all (512 KiB at 2^13 rows,
    the size of one part of width 56); the least recently used class is
    dropped first, and a level that would not fit beside the rest of its
    own class is not kept.  Kept arrays are read-only."""

    def __init__(self):
        self.chains: dict[tuple[PatternSet, bool], list[Level]] = {}
        self.nbytes = 0

    def chain(self, key: tuple[PatternSet, bool], start: Callable[[], Level]) -> list[Level]:
        """The kept levels of key's class, now the most recently used; a
        class with none kept starts from start()."""
        chain = self.chains.pop(key, None)
        if chain is None:
            chain = []
            self._append(chain, start())
        self.chains[key] = chain
        return chain

    def keep(self, chain: list[Level], level: Level) -> None:
        """Keep `level` if it is one width below chain's deepest, has at most
        _CHUNK_ROWS rows and fits in the byte bound once the classes used
        before chain's are dropped."""
        budget = 64 * _CHUNK_ROWS
        if level[0].shape[1] != chain[-1][0].shape[1] + 1 or len(level[0]) > _CHUNK_ROWS:
            return
        for key in list(self.chains):
            if self.nbytes + _nbytes(level) <= budget or self.chains[key] is chain:
                break
            self.nbytes -= sum(map(_nbytes, self.chains.pop(key)))
        if self.nbytes + _nbytes(level) <= budget:
            self._append(chain, level)

    def _append(self, chain: list[Level], level: Level) -> None:
        for array in level:
            array.flags.writeable = False
        chain.append(level)
        self.nbytes += _nbytes(level)


_KEPT = _KeptLevels()


def _whole_level(n: int, ps: PatternSet, metas: Metas, half: bool, enough: Callable[[np.ndarray], bool]) -> Level:
    """The shallowest whole level of the serial growth of ps from its start
    level (the half root if `half`, else S_0) whose rows are `enough`, or
    else the first one of more than _CHUNK_ROWS rows, which its consumer
    grows on in parts.  It is read off the class's kept levels where they
    reach it, else grown from the deepest of them, and every new level of
    at most _CHUNK_ROWS rows is kept."""
    root = _root(n)
    chain = _KEPT.chain((ps, half), lambda: _start(n, ps, metas)[0] if half else root)
    level = next((level for level in chain if enough(level[0])), chain[-1])
    while not enough(level[0]) and len(level[0]) <= _CHUNK_ROWS:
        level = _children(level, metas)
        _KEPT.keep(chain, level)
    return level


def _mirror(n: int, total: int, lka: np.ndarray, union: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """A half's table sums plus its complement image's: the block of values
    k..k+l-1 at a becomes n+2-k-l..n+1-k at a; the total and unions double."""
    for l in range(2, n):
        lka[l, 1 : n - l + 2] += lka[l, n - l + 1 : 0 : -1]
    return 2 * total, lka, 2 * union


# ---------------------------------------------------------------------------
# parts in several processes


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a forked part process, set
    as the cause of the exception that the parent raises again."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _taken(tasks: int) -> Iterator[int]:
    """The indices of the parts that this process takes, one at a time,
    from the pipe `tasks`; each is 4 bytes and every read asks for 4, so
    that a read takes one whole index."""
    while index := os.read(tasks, 4):
        yield int.from_bytes(index, "little")


def _run_child(fn: Callable[[T], U], parts: list[T], tasks: int, out: int) -> None:
    """The body of a forked part process: fn over the parts it takes from
    `tasks`, pickled to the pipe `out` as (True, [(index, result), ...]) or
    (False, exception, traceback text); it never returns."""
    try:
        try:
            payload = pickle.dumps((True, [(i, fn(parts[i])) for i in _taken(tasks)]))
        except BaseException as exc:
            import traceback

            text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            try:
                payload = pickle.dumps((False, exc, text))
            except Exception:
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}"), text))
        with os.fdopen(out, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


_MAX_PARTS = 4096  # their indices fill 16 KiB, the least pipe buffer of the platforms (macOS)


def run_parts(fn: Callable[[T], U], parts: list[T], jobs: int) -> list[U]:
    """[fn(part) for part in parts], computed in min(jobs, len(parts))
    processes: this one and the others forked from it.  Each takes the
    parts one at a time, by index from one pipe, so that a process that
    finishes early takes more of them; a child pickles its results, or its
    exception, back through a pipe of its own.  The results come back in
    part order; a child's exception is raised again here, with its
    traceback as the cause.  Before this returns or raises, every child has
    ended and been waited for, and on an error the children still running
    are killed first.  A child sees this process's state as it was at the
    fork, and what it changes ends with it."""
    jobs = min(jobs, len(parts))
    if jobs <= 1:
        return [fn(part) for part in parts]
    if len(parts) > _MAX_PARTS:
        raise ValueError(f"{len(parts)} parts, over the {_MAX_PARTS} that run_parts deals")
    results: list = [None] * len(parts)
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(parts))))
    os.close(feed)
    children: list[tuple[int, int]] = []  # (pid, read end) of each child not yet waited for
    try:
        for _ in range(jobs - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_child(fn, parts, tasks, write)
            os.close(write)
            children.append((pid, read))
        for i in _taken(tasks):
            results[i] = fn(parts[i])
        while children:
            pid, read = children[0]
            with os.fdopen(read, "rb") as pipe:
                children[0] = (pid, -1)
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not payload:
                raise RuntimeError(f"a part process ended without a result (wait status {status})")
            answer = pickle.loads(payload)
            if not answer[0]:
                raise answer[1] from _ChildTraceback(answer[2])
            for i, result in answer[1]:
                results[i] = result
    finally:
        os.close(tasks)
        for pid, read in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            if read >= 0:
                os.close(read)
            os.waitpid(pid, 0)
    return results


def _split_grow(n: int, ps: PatternSet, jobs: int,
                consume: Callable[[int, PatternSet, Level], T]) -> tuple[list[T], bool]:
    """consume(n, ps, level) over disjoint levels covering S_n(ps), or only
    its half with s_1 < s_2; the flag says which (see `_start`), and
    `count` and `table` mirror a half.  Each consumer grows its level
    depth-first through `_descendants`.

    With one job the level is the whole level at width n - 1, or the first
    one past _CHUNK_ROWS rows above it (`_whole_level`), consumed
    in-process.  Otherwise the level is the first whole level with at least
    16 * jobs rows, and it is dealt out with its masks, row i to part i mod (4 * jobs), so that
    neighbouring subtrees, which tend to be alike in size, land in
    different parts.  `run_parts` consumes them in `jobs` processes, this
    one and jobs - 1 forked from it, which take the parts one at a time:
    the subtrees of a shallow level differ in size, and fixed shares of
    the parts of S_13(1324) differ by 14% in leaves.  A level that reaches
    width n - 1 first, still short of 16 * jobs rows, is consumed
    in-process.
    """
    metas = _pattern_metas(ps)
    half = n >= 3 and _complement_closed(ps)
    level = _whole_level(n, ps, metas, half,
                         lambda rows: rows.shape[1] >= n - 1 or (jobs > 1 and len(rows) >= 16 * jobs))
    while jobs > 1 and level[0].shape[1] < n - 1 and len(level[0]) < 16 * jobs:
        level = _children(level, metas)
    if jobs <= 1 or len(level[0]) < 16 * jobs:
        return [consume(n, ps, level)], half
    k = 4 * jobs
    parts = [(level[0][i::k], level[1][i::k]) for i in range(k)]
    return run_parts(lambda part: consume(n, ps, part), parts, jobs), half


def count(n: int, ps: PatternSet, jobs: int) -> int:
    """|S_n(ps)| for n >= 1 by growth, in `jobs` processes."""
    counts, half = _split_grow(n, ps, jobs, _count_leaves)
    return sum(counts) * (2 if half else 1)


def table(n: int, ps: PatternSet, jobs: int) -> tuple[int, dict[tuple[int, int, int], int], dict[int, int]]:
    """S_n(ps)'s total and nonzero counts by (l, k, a) and unions over k by
    l, for n >= 1 by growth, in `jobs` processes."""
    parts, half = _split_grow(n, ps, jobs, _table_parents)
    total, lka, union = (sum(column) for column in zip(*parts))
    if half:
        total, lka, union = _mirror(n, total, lka, union)
    by_lka = {(int(l), int(k), int(a)): int(lka[l, k, a]) for l, k, a in zip(*np.nonzero(lka))}
    return total, by_lka, {int(l): int(union[l]) for l in np.nonzero(union)[0]}


def avoider_rows(n: int, ps: PatternSet) -> np.ndarray:
    """S_n(ps) as an int8 array, one row per member, in lexicographic order."""
    metas = _pattern_metas(ps)
    level = _whole_level(n, ps, metas, False, lambda rows: rows.shape[1] >= n - 1)
    kept = _KEPT.chains[(ps, False)]
    if len(kept) > n:  # S_n(ps) itself is kept, at width n
        rows = kept[n][0]
    else:
        parts = [_append(parents[_free(bad, r)], r)
                 for parents, bad in _descendants(level, n - 1, metas) for r in range(1, n + 1)]
        rows = np.vstack(parts) if parts else np.zeros((0, n), dtype=np.int8)
    return rows[np.lexsort(rows.T[::-1])]


# ---------------------------------------------------------------------------
# bulk containment and the cluster window scan (shared with the verification suites)


def contains_pattern_rows(rows: np.ndarray, tau: Permutation) -> np.ndarray:
    """Vectorized containment: for each row, does it contain tau anywhere."""
    hit = np.zeros(len(rows), dtype=bool)
    if len(tau) > rows.shape[1]:
        return hit
    for start in range(0, len(rows), _CHUNK_ROWS):
        sl = slice(start, start + _CHUNK_ROWS)
        hit[sl] = _order_matches(_column_subsets(rows[sl].T, len(tau)), tau.values).any(axis=0)
    return hit


def cluster_windows(cols: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Sliding window min/max scan over rows given column-major, cols =
    rows.T of shape (width, N), for l = 2 .. width - 1.

    Yields (l, cluster, cmin), window-major: cluster[a, i] says whether the
    l entries of row i starting at position a + 1 are l consecutive values,
    and then cmin[a, i] is the smallest of them, the block start k.  Every
    min and max runs over whole contiguous columns of the rows.
    """
    cols = np.ascontiguousarray(cols)
    cmin = cmax = cols
    for l in range(2, cols.shape[0]):
        cmin = np.minimum(cmin[:-1], cols[l - 1 :])
        cmax = np.maximum(cmax[:-1], cols[l - 1 :])
        yield l, (cmax - cmin) == (l - 1), cmin


# ---------------------------------------------------------------------------
# event tabulation


def _tabulate_chunk(rows: np.ndarray, bad: np.ndarray, n: int,
                    lka: np.ndarray, union: np.ndarray) -> int:
    """Add the events of the width-n children of one chunk of width n-1
    parents into lka[l, k, a] and union[l] (both C-contiguous); returns the
    number of children.

    A child appends a free rank r of its parent, so every event count is a
    count of free ranks in an interval:
    - a parent cluster window (l, k, a) stays a cluster iff r <= k, as
      (l, k+1, a), or r >= k+l, as (l, k, a); the whole parent is the
      window (n-1, 1, 1), which `cluster_windows` does not yield;
    - the child's suffix window of length l is a cluster iff the parent's
      last l-1 entries are a block m..m+l-2 and m <= r <= m+l-1, as
      (l, m, n-l+1);
    - so the child has no cluster of length l iff r lies in every
      (k, k+l-1] of the parent's windows, the one interval
      (max k, min k + l - 1], and outside the suffix range.
    Each row's free ranks in 1..x and in x+1..n are counted once for
    x = 0..n, and every window's count is read off them and added into lka
    with one integer `np.add.at` per l and side.  The suffix blocks and
    the intervals (max k, min k + l - 1] are kept per l and row and read
    once for the chunk.
    """
    n_rows, w = rows.shape
    upto = (np.uint64(2) << np.arange(n + 1, dtype=np.uint64)) - np.uint64(2)  # ranks 1..x
    free = _free_ranks(bad, n)
    below = np.bitwise_count(free & upto[:, None])  # below[x, i]: row i's free ranks in 1..x
    total = int(below[n].sum())
    if w < 2:
        return total
    above = (below[n] - below).ravel()  # above[x * n_rows + i]: row i's free ranks in x+1..n
    below = below.ravel()
    flat = lka.reshape(-1)  # a view, lka being contiguous
    # Entries as uint8, so that every (l, row) array is uint8 and takes shifts.
    cols = np.ascontiguousarray(rows.T).view(np.uint8)
    whole = (w, np.ones((1, n_rows), dtype=bool), np.ones((1, n_rows), dtype=np.uint8))
    # By l - 2 and row: the min and max of the parent's last l-1 entries, and
    # the max k and n + 1 - min k of its cluster windows (0 without one).
    smin, smax, kmax, kmin = np.empty((4, w - 1, n_rows), dtype=np.uint8)
    for l, cluster, cmin in itertools.chain(cluster_windows(cols), [whole]):
        hit = np.flatnonzero(cluster)
        a = hit // n_rows
        k = cmin.ravel()[hit].astype(np.intp)
        at = (k - a) * n_rows + hit  # k * n_rows + i
        cell = k * (n + 2) + a + (l * (n + 2) ** 2 + 1)  # (l, k, a + 1)
        np.add.at(flat, cell + (n + 2), below[at].astype(np.int64))
        np.add.at(flat, cell, above[at + (l - 1) * n_rows].astype(np.int64))
        last = (cols[-1], cols[-1]) if l == 2 else (smin[l - 3], smax[l - 3])
        np.minimum(last[0], cols[w - l + 1], out=smin[l - 2])
        np.maximum(last[1], cols[w - l + 1], out=smax[l - 2])
        np.maximum.reduce(cluster.view(np.uint8) * cmin, axis=0, out=kmax[l - 2])
        np.maximum.reduce(cluster.view(np.uint8) * (n + 1 - cmin), axis=0, out=kmin[l - 2])
    ls = np.arange(2, w + 1, dtype=np.uint8)[:, None]
    # the suffix blocks, at (l - 2) * n_rows + j for row j
    at = np.flatnonzero(smax - smin == ls - 2)
    l = at // n_rows + 2
    m = smin.ravel()[at].astype(np.intp)
    at_m = (m + 1 - l) * n_rows + at  # (m - 1) * n_rows + j
    np.add.at(flat, (l * (n + 2) + m) * (n + 2) + n + 1 - l,
              (above[at_m] - above[at_m + l * n_rows]).astype(np.int64))
    # the ranks that leave no cluster of length l: (max k, min k + l - 1],
    # all of 1..n for a row without a window, and not the suffix range
    hi = np.minimum(np.maximum((n + ls) - kmin, kmax), n)
    no_cluster = (np.uint64(2) << hi) - (np.uint64(2) << kmax)
    no_cluster.ravel()[at] &= upto[m - 1] | ~upto[m + l - 1]
    union[2:] += total - np.bitwise_count(free & no_cluster).sum(axis=1, dtype=np.int64)
    return total


def _table_parents(n: int, ps: PatternSet, level: Level) -> tuple[int, np.ndarray, np.ndarray]:
    """The total and the dense lka[l, k, a] and union[l] event counts of the
    width-n descendants of `level` that avoid ps, read off the width n-1
    rows and masks one part at a time: no width-n row is built."""
    lka = np.zeros((n, n + 2, n + 2), dtype=np.int64)
    union = np.zeros(n, dtype=np.int64)
    total = sum(_tabulate_chunk(rows, bad, n, lka, union)
                for rows, bad in _descendants(level, n - 1, _pattern_metas(ps)))
    return total, lka, union
