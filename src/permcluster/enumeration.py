"""Exact counting over S_n and S_n(patterns), and the two persistent stores.

This module is the package's one entry to counting: every count, event
table and listing is asked for here.  The numpy growth engine that
enumerates lives in `growth` (see there for how it grows avoiders and
reads event counts off the width n - 1 parents); this module imports it on
the first call that has to enumerate, so that a process answered from the
memo, the stores, the recurrence, the closed form for the class of 1342,
the state counter or the substitution decomposition never imports numpy.
The names of the engine that callers use (`avoider_rows`,
`contains_pattern_rows`) stay here.

A count is looked up in one order, and the first step that applies
answers:

1. n! where S_n(ps) is all of S_n (no patterns, n = 0, or n below the
   shortest pattern), never read from or written to the memo or the cache.
2. The separable class above n = 10: a Schroeder-type linear recurrence.
3. The in-process memo, then the count cache.
4. The separable class: the substitution decomposition (see
   `substitution`: pure Python, no numpy).
5. A single pattern of the Wilf class of 1342 (its 8 images, 2413 and
   3142): Bóna's closed form, in exact integers.
6. A single pattern with an image of the form t'.m (see `states`: every
   length-3 pattern, 12...m, and the classes of 1234, 1243, 1432 and
   1342): merged generating-tree states, grown without numpy.
7. Rows, grown by `fresh_count`.

Steps 3-7 record their answer in one step: in the memo, and in the cache
where it lacks or contradicts it; event tables record their totals the
same way.  The four fast paths, steps 2 and 4-6, are each checked once
per class in a process, in one gate memo; a path that fails its check is
skipped, and the next step that applies answers.  The recurrence must
reproduce `count_avoiders` for every n <= 10, so a cache written by an
earlier run can satisfy the check, and a wrong cached count only fails
it; on an empty cache step 4 answers that reference, so no separable
count grows rows or loads numpy.  The decomposition's counts share one
gate entry with its event tables (below): their tables, totals included,
must equal `_scalar_table` for every j <= 6.  The closed form must equal
the scalar count `_scalar_count` for every j <= 6, for each pattern of
the class: j! less the members of S_j that contain the pattern, each
built by placing the pattern on a set of positions and a set of values
and filling the other positions in every order, so no member is tested
for containment; on a miss 1342's images fall through to states and
2413 and 3142 to rows.  The state counter must reproduce that scalar
count for every j <= max(6, m + 1), m the pattern's length (below j = m
both sides are j!).  Only counts take these paths: `fresh_count` (and so
`cache-audit`) and listings always grow rows, and event tables have a
fast path of their own, below.  A listing is the one result that holds
a whole class; it is counted first and refused (DomainError) if its rows
would pass _MAX_LISTING_BYTES.  Catalan numbers are no count source:
they stay a closed form (`formulas.catalan`, the `thm3` suite) checked
against counts.

An event table is looked up in its own order, and the first step that
answers wins:

1. the in-process memo;
2. the table store beside the count cache;
3. for all of S_n or the separable class, at every n >= 1, the
   substitution decomposition (see `substitution`: pure Python, no
   numpy), gated in the same gate memo: its tables must equal
   `_scalar_table`, the clusters (`perms.clusters`) of every member of
   S_j that the scalar count's placement does not build, for every
   j <= 6; and the table at n itself must be fixed by reverse,
   complement and inverse (`perms.SYMMETRIES`), as the class is;
4. growth, by `fresh_table`.

A table of all of S_n past _MAX_TABLE_N_SN that the stores lack is
refused (DomainError) before anything is computed.  A table from step 3
or 4 is written to the store, in the same line either way;
`fresh_table` (and so `cache-audit`) always grows, from S_0 or from the
levels that growth in this process kept (see `growth`).  Both files hold one sealed line per key,
`key<TAB>value<TAB>crc32`, and answer only from a line that passes its
CRC-32; any other line is ignored, its value recomputed and its line
written again.  A stored table is used only if it also passes every
range and bound check, and its total is n! where the class is all of
S_n, else the count that the memo or the count cache holds.

So a lookup grows rows, and imports numpy, only for a class that no step
before growth answers: never for all of S_n or the separable class while
the decomposition passes its gate.  A lookup that has to grow (count
step 7, table step 4) with a store records more than it was asked for:
the count and the table of every width j from 2 up to the reach R that
neither the memo nor the stores hold, each grown serially by
`fresh_table` over the levels that growth keeps, so that a session asking
for the class at another n reads it from the stores without numpy.  R is
the least j with |S_(j-1)(ps)| > growth._CHUNK_ROWS, whose table reads
the first level that growth does not keep whole: 9 for the length-4
classes, 11 for the length-3 classes.  A class that dies out stops at its
first empty width, and one that grows too slowly to get there stops at
_MAX_TABLE_N_SN.  Each store takes the new lines in one locked write.
Without a store (the verification suites, `cache-audit`, `fresh_*`) a
lookup grows only what it is asked for.

All counting is exact integer arithmetic; probabilities are Fractions.
"""

from __future__ import annotations

import contextlib
import fcntl
import itertools
import math
import os
import zlib
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .perms import (
    SEP,
    SYMMETRIES,
    ClusterEvent,
    DomainError,
    ParseError,
    PatternSet,
    Permutation,
    UndefinedProbabilityError,
    clusters,
    images,
    parse_permutation,
    pattern_facts,
)

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

_VALIDATE_UPTO = 10
_GATE_UPTO = 6  # the decomposition, Bóna's form and the states each match a scalar reference for j <= 6 at least
# S_n event tables grow n! / (2n) parents, those under 12: growing the
# table of all of S_12 (`fresh_table`, and so `cache-audit`) takes 7-8 s
# at 39 MiB peak RSS on a 2-vCPU machine, where the lookup takes it from
# the decomposition in about 5 ms.  Past the cap no table could be audited.
_MAX_TABLE_N_SN = 12
# A listing holds its whole class as int8 rows, n bytes a member, and a
# larger one is refused before it is grown.  The largest listing of all of
# S_n that completes on an 8 GB machine is S_10, 36 MB of rows: through the
# CLI, which keeps about 420 bytes of Python objects a member, it peaks at
# 1.5 GiB (S_11 would need 17 GiB).
_MAX_LISTING_BYTES = 40_000_000


def _engine():
    """The numpy growth engine, imported on the first enumeration."""
    from . import growth

    return growth


class EventTable:
    """Exact counts of avoiders in every cluster event at one (n, patterns)."""

    __hash__ = None  # mutable

    def __init__(self, n: int, patterns_key: str, total: int, by_lka: dict[tuple[int, int, int], int],
                 union_by_l: dict[int, int]):
        """The table with these anchored counts and unions; by_lk is the sum
        of by_lka over a."""
        self.n, self.patterns_key, self.total = n, patterns_key, total
        self.by_lk: Counter[tuple[int, int]] = Counter()
        for (l, k, _), count in by_lka.items():
            self.by_lk[(l, k)] += count
        self.by_lka, self.union_by_l = Counter(by_lka), Counter(union_by_l)

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"EventTable({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"

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
        from fractions import Fraction  # not at the top: it loads decimal, and a count needs neither

        return Fraction(self.count(event), self.total)


_MEMO: dict[str, "int | EventTable"] = {}  # this process's counts and tables, keyed as in the stores


_SEP_KEY = SEP.key()


def _is_separable_class(ps: PatternSet) -> bool:
    """Whether ps is SEP, {2413, 3142}, by its memoized key."""
    return pattern_facts(ps).key == _SEP_KEY


def _is_all_of_s_n(n: int, ps: PatternSet) -> bool:
    """Whether S_n(ps) is all of S_n: no patterns, n = 0, or n below the shortest pattern."""
    return n < pattern_facts(ps).shortest


def _known_count(n: int, ps: PatternSet, cache: "CountCache | None") -> int | None:
    """|S_n(ps)| from the memo, else the cache, if either holds it."""
    key = cache_key(n, ps)
    value = _MEMO.get(key)
    if value is None and cache is not None:
        value = cache.get(key)
    return value


def fresh_table(n: int, ps: PatternSet, *, jobs: int = 1) -> EventTable:
    """The event table by growth only, bypassing the memo and both stores:
    it answers only from growth done in this process, from S_0 or from the
    whole levels that `growth` kept of earlier growth of the class."""
    if ps.is_empty() and n > _MAX_TABLE_N_SN:
        raise DomainError(
            f"exhaustive event tables over all of S_{n} are out of reach (n! rows); n <= {_MAX_TABLE_N_SN}"
        )
    return EventTable(n, ps.key(), *_engine().table(n, ps, jobs))


def event_count_table(n: int, ps: PatternSet, *, jobs: int = 1, cache: "CountCache | None" = None) -> EventTable:
    """Counts of S_n(ps) members in every cluster event, from one full pass
    (or from the memo or the table store, which keep the tables of earlier
    passes)."""
    table = _stored_table(n, ps, cache)
    if table is not None:
        _MEMO[table_key(cache_key(n, ps))] = table
        _record(n, ps, {n: table.total}, {}, cache)
        return table
    table = _decomposed_table(n, ps)
    if table is None:
        return _grown(n, ps, fresh_table, jobs, cache)
    _record(n, ps, {n: table.total}, {n: table}, cache)
    return table


def _stored_table(n: int, ps: PatternSet, cache: "CountCache | None",
                  total: int | None = None) -> EventTable | None:
    """S_n(ps)'s table from the memo, else from the table store if its line
    passes every check against the class size: `total` if given, else the
    one known without the table."""
    table = _MEMO.get(table_key(cache_key(n, ps)))
    if table is None and cache is not None and n >= 1:  # growth rejects n < 1
        if total is None:
            total = math.factorial(n) if _is_all_of_s_n(n, ps) else _known_count(n, ps, cache)
        table = cache.tables.table(n, ps, total)
    return table


def _record(n: int, ps: PatternSet, counts: dict[int, int], tables: dict[int, EventTable],
            cache: "CountCache | None") -> None:
    """Keep the counts |S_j(ps)| and the tables, by width j, in the memo;
    write each count to the cache where it lacks it or holds another value,
    and every table to the table store, in one write per store.  An
    identity j! is kept in neither the memo nor the cache.  A failed write
    raises only if it held the count at n, the width asked for: the other
    lines only save time, and what a store cannot keep is computed again."""
    lines = {}
    for j, value in counts.items():
        if not _is_all_of_s_n(j, ps):
            key = cache_key(j, ps)
            _MEMO[key] = value
            if cache is not None and cache.get(key) != value:
                lines[key] = value
    for j, table in tables.items():
        _MEMO[table_key(cache_key(j, ps))] = table
    if cache is None:
        return
    if lines:
        try:
            cache.put(lines)
        except OSError:
            if cache_key(n, ps) in lines:
                raise
    if tables:
        with contextlib.suppress(OSError):
            cache.tables.put({cache_key(j, ps): cache.tables.encode(table) for j, table in tables.items()})


def _grown(n: int, ps: PatternSet, fresh: Callable, jobs: int, cache: "CountCache | None") -> "int | EventTable":
    """fresh(n, ps, jobs=jobs), `fresh_count` or `fresh_table`, recorded;
    with a store, recorded together with the count and table of every width
    from 2 up to the reach that neither the memo nor the store holds."""
    answer = fresh(n, ps, jobs=jobs)
    tables = {n: answer} if isinstance(answer, EventTable) else {}
    counts = {n: answer.total if tables else answer}
    if cache is not None:
        _add_reach(ps, counts, tables, cache)
    _record(n, ps, counts, tables, cache)
    return answer


def _add_reach(ps: PatternSet, counts: dict[int, int], tables: dict[int, EventTable], cache: "CountCache") -> None:
    """Add to `counts` and `tables` the count and table of every width j
    from 2 up to the reach R whose table neither `tables`, the memo nor the
    store holds (a stored table passes its checks against the count in
    `counts`, else the known one), each grown by `fresh_table` over the
    levels that growth keeps.  R is the least j with
    |S_(j-1)(ps)| > growth._CHUNK_ROWS, so the table at R reads the first
    level too large to keep whole; or the first empty width, where the
    class dies out before; and at most _MAX_TABLE_N_SN, for a class that
    grows too slowly to pass _CHUNK_ROWS by then (up to width 60, the
    tables of S_n(132, 321), C(n, 2) + 1 members, took 11 MB).  Only a
    class that the lookup grows gets here: never all of S_n or the
    separable class, unless the decomposition failed its gate."""
    chunk_rows = _engine()._CHUNK_ROWS
    parents = 1  # |S_1(ps)|, the level that the table at width 2 reads
    for j in range(2, _MAX_TABLE_N_SN + 1):
        table = tables.get(j) or _stored_table(j, ps, cache, counts.get(j))
        if table is None:
            table = tables[j] = fresh_table(j, ps)
            counts.setdefault(j, table.total)
        if parents > chunk_rows or table.total == 0:
            return
        parents = table.total


def _decomposed(n: int, ps: PatternSet) -> EventTable:
    """The event table of all of S_n or of the separable class from the
    substitution decomposition, unchecked."""
    from . import substitution

    return EventTable(n, ps.key(), *substitution.table(n, _is_separable_class(ps)))


def _decomposition_gated(ps: PatternSet) -> bool:
    """Whether the substitution decomposition may serve ps, all of S_n or
    the separable class: its tables must equal `_scalar_table` for every
    j <= _GATE_UPTO, checked once per class in a process.  Its tables and
    its separable counts pass or fail together."""
    return _gated("decomposition", ps, lambda j: _decomposed(j, ps), lambda j: _scalar_table(j, ps), _GATE_UPTO)


def _symmetric(table: EventTable) -> bool:
    """Whether the anchored counts are invariant under reverse, complement
    and inverse, by their maps on the events (`perms.SYMMETRIES`): all of
    S_n and the separable class are closed under each, and the unions and
    the total are fixed by them."""
    n, by_lka = table.n, table.by_lka
    return all(by_lka[f(n, *event)] == c for _, f in SYMMETRIES for event, c in by_lka.items())


def _decomposed_table(n: int, ps: PatternSet) -> EventTable | None:
    """The event table of all of S_n or of the separable class from the
    substitution decomposition, or None where it does not apply: another
    class, n = 0 (which growth refuses), S_n past _MAX_TABLE_N_SN (which
    `fresh_table` refuses), a decomposition that missed `_scalar_table`
    at some j <= _GATE_UPTO, or a table at n itself that some symmetry of
    the class does not fix."""
    if n < 1 or not (_is_separable_class(ps) or (ps.is_empty() and n <= _MAX_TABLE_N_SN)) \
            or not _decomposition_gated(ps):
        return None
    table = _decomposed(n, ps)
    return table if _symmetric(table) else None


# ---------------------------------------------------------------------------
# the persistent stores


def cache_key(n: int, ps: PatternSet) -> str:
    return f"avoid={pattern_facts(ps).key};n={n}"


def table_key(key: str) -> str:
    return f"table:{key}"


def parse_cache_key(key: str) -> tuple[int, PatternSet]:
    if not key.startswith("avoid=") or ";n=" not in key:
        raise ParseError(f"bad cache key {key!r}")
    avoid_part, n_part = key[len("avoid=") :].rsplit(";n=", 1)
    if not n_part.isdigit():
        raise ParseError(f"bad cache key {key!r}")
    patterns = tuple(parse_permutation(p) for p in avoid_part.split("+")) if avoid_part else ()
    return int(n_part), PatternSet(patterns)


class _LineStore:
    """A persistent text map from cache keys to text values, one sealed
    line per key: `key<TAB>value<TAB>crc32`, crc32 being the CRC-32 of
    `key<TAB>value` in eight hex digits.

    Lines without three fields or with a key that does not parse are
    ignored; a line that fails its seal is kept but answers no `get`, so
    its key is recomputed on demand and its line rewritten.  A write
    holds an exclusive lock on the sidecar file `<name>.lock` while it
    re-reads the file, sets the keys it writes, writes a uniquely named
    temporary file beside it and replaces the file with it: concurrent
    readers always see a whole file, and concurrent writers lose no entry
    (for a key written by both with different values, the later writer
    wins).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._data: dict[str, tuple[str, str]] | None = None

    @staticmethod
    def checksum(key: str, value: str) -> str:
        return format(zlib.crc32(f"{key}\t{value}".encode()), "08x")

    def _parse_file(self) -> dict[str, tuple[str, str]]:
        data: dict[str, tuple[str, str]] = {}
        try:
            text = self.path.read_text()
        except OSError:
            return data
        for line in text.splitlines():
            key, *fields = line.split("\t")
            if len(fields) != 2:
                continue  # corrupt or unsealed entry: ignore, recompute later
            try:
                parse_cache_key(key)
            except (ParseError, ValueError):
                continue
            data[key] = (fields[0], fields[1])
        return data

    def _load(self) -> dict[str, tuple[str, str]]:
        if self._data is None:
            self._data = self._parse_file()
        return self._data

    def _sealed(self, key: str, line: tuple[str, str] | None) -> str | None:
        """The value of a line that passes its seal, else None."""
        return line[0] if line is not None and line[1] == self.checksum(key, line[0]) else None

    def get(self, key: str) -> str | None:
        return self._sealed(key, self._load().get(key))

    def put(self, entries: dict[str, str]) -> None:
        """Set every key of `entries` to its value, in one locked rewrite."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        import tempfile  # only a write needs it
        with open(lock_path, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            merged = self._parse_file()
            merged.update((key, (value, self.checksum(key, value))) for key, value in entries.items())
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    for k in sorted(merged):
                        fh.write(f"{k}\t{merged[k][0]}\t{merged[k][1]}\n")
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
            self._data = merged  # only once the file holds it: a failed write answers as the file does

    def items(self) -> list[tuple[str, str | None]]:
        """Every line's key and value, None for a line that fails its seal."""
        return [(key, self._sealed(key, line)) for key, line in sorted(self._load().items())]


class TableStore(_LineStore):
    """Event tables, one sealed line per (n, patterns).

    The value is `by_lka+union_by_l`: the anchored counts as `l.k.a=count`
    and the unions as `l=count`, each comma-separated in increasing order.
    The unions run on to l = n, whose event is the whole class, so that
    entry is the table's total.  by_lk is derived on load, and only the
    requested key's value is decoded.
    """

    @staticmethod
    def encode(table: EventTable) -> str:
        """The value field of a table's line."""
        lka = ",".join(f"{l}.{k}.{a}={c}" for (l, k, a), c in sorted(table.by_lka.items()))
        union = ",".join(f"{l}={c}" for l, c in sorted({**table.union_by_l, table.n: table.total}.items()))
        return f"{lka}+{union}"

    def table(self, n: int, ps: PatternSet, total: int | None) -> EventTable | None:
        """The stored table of S_n(ps), if its line passes every check: its
        seal, the ranges of l, k and a, every count positive and at most
        the union at its l, every union at most the total, and the total
        equal to `total`, the class size known without the table.  A line
        that is not in the form `encode` writes fails too."""
        value = self.get(cache_key(n, ps))
        if value is None or total is None:
            return None
        lka_part, _, union_part = value.partition("+")
        try:
            by_lka = {}
            for entry in filter(None, lka_part.split(",")):
                lka, count = entry.split("=")
                l, k, a = map(int, lka.split("."))
                by_lka[(l, k, a)] = int(count)
            union = {}
            for entry in union_part.split(","):
                l, count = map(int, entry.split("="))
                union[l] = count
        except ValueError:
            return None
        table = EventTable(n, ps.key(), union.pop(n, -1), by_lka, union)
        in_range = all(2 <= l < n and 1 <= k <= n - l + 1 and 1 <= a <= n - l + 1 for l, k, a in by_lka) \
            and all(2 <= l < n for l in union)
        counts = itertools.chain(table.by_lka.items(), table.by_lk.items())
        bounded = all(0 < c <= union.get(event[0], 0) for event, c in counts) \
            and all(0 < c <= total for c in union.values())
        if not (in_range and bounded and table.total == total and self.encode(table) == value):
            return None
        return table


class CountCache(_LineStore):
    """A persistent text map from cache keys to counts, one sealed line per
    entry with the count in decimal, and its event tables in the
    `TableStore` sidecar `<name>.tables`."""

    def __init__(self, path: str | Path):
        super().__init__(path)
        self.tables = TableStore(self.path.with_name(self.path.name + ".tables"))

    def get(self, key: str) -> int | None:
        digits = super().get(key)
        if digits is None or not (digits.isascii() and digits.isdigit()):  # "²".isdigit(), but int("²") fails
            return None
        return int(digits)

    def put(self, entries: dict[str, int]) -> None:
        super().put({key: str(value) for key, value in entries.items()})


# ---------------------------------------------------------------------------
# counting


def fresh_count(n: int, ps: PatternSet, *, jobs: int = 1) -> int:
    """Count by enumeration only, bypassing memos, caches and fast paths:
    it answers only from growth done in this process, from S_0 or from the
    whole levels that `growth` kept of earlier growth of the class.  Below
    its shortest pattern a class is all of S_n, and n! an identity."""
    if n < 0:
        raise DomainError("counting needs n >= 0")
    if _is_all_of_s_n(n, ps):
        return math.factorial(n)
    return _engine().count(n, ps, jobs)


_GATE: dict[tuple[str, str], bool] = {}


def _gated(source: str, ps: PatternSet, form: Callable[[int], int], reference: Callable[[int], int],
           upto: int) -> bool:
    """Whether the fast path `source` may count ps: form(j) == reference(j)
    for every j <= upto, checked once per (source, ps) in a process."""
    key = (source, pattern_facts(ps).key)
    if key not in _GATE:
        _GATE[key] = all(form(j) == reference(j) for j in range(1, upto + 1))
    return _GATE[key]


def _containing(n: int, ps: PatternSet) -> set[tuple[int, ...]]:
    """The members of S_n that contain some pattern of ps, built by placing
    each pattern's order type on every set of positions and every set of
    values, with the other positions filled in every order."""
    members = set()
    for tau in ps:
        m = len(tau)
        for values in itertools.combinations(range(1, n + 1), m):
            placed = [values[v - 1] for v in tau.values]
            others = [v for v in range(1, n + 1) if v not in values]
            for at in itertools.combinations(range(n), m):
                rest = [i for i in range(n) if i not in at]
                for fill in itertools.permutations(others):
                    s = [0] * n
                    for i, v in itertools.chain(zip(at, placed), zip(rest, fill)):
                        s[i] = v
                    members.add(tuple(s))
    return members


def _scalar_count(n: int, ps: PatternSet) -> int:
    """|S_n(ps)|: n! less the members of S_n that contain some pattern,
    placed by `_containing`."""
    return math.factorial(n) - len(_containing(n, ps))


def _scalar_table(n: int, ps: PatternSet) -> EventTable:
    """The event table of S_n(ps) from the clusters (`perms.clusters`) of
    every member of S_n that `_containing` does not place."""
    containing = _containing(n, ps)
    found = [list(clusters(s)) for s in itertools.permutations(range(1, n + 1)) if s not in containing]
    union = Counter(itertools.chain.from_iterable({l for l, _, _ in events} for events in found))
    return EventTable(n, ps.key(), len(found), Counter(itertools.chain.from_iterable(found)), union)


def _state_count(n: int, ps: PatternSet) -> int | None:
    """|S_n(ps)| from generating-tree states (see `states`), or None where
    they do not apply: ps is not one pattern, no image of it is eligible,
    or the counter missed `_scalar_count` at some j <= max(_GATE_UPTO,
    m + 1) for a pattern of length m (below j = m both sides are j!, so a
    long pattern is checked past its own length too)."""
    if len(ps) != 1:
        return None
    from . import states

    image = states.image(ps.patterns[0])
    if image is None:
        return None
    if not _gated("states", ps, lambda j: states.count(j, image), lambda j: _scalar_count(j, ps),
                  max(_GATE_UPTO, len(image) + 1)):
        return None
    return states.count(n, image)


def _decomposed_count(n: int, ps: PatternSet) -> int | None:
    """|S_n(ps)| of the separable class from the substitution decomposition,
    or None for another class or where the decomposition failed its gate."""
    if not _is_separable_class(ps) or not _decomposition_gated(ps):
        return None
    from . import substitution

    return substitution.count(n, separable=True)


# The Wilf class of 1342: its 8 symmetric images and 2413 with its one
# other image, 3142 (Stankova, "Forbidden subsequences", Discrete Math. 132,
# 1994).
_WILF_1342 = frozenset(t.values for tau in ((1, 3, 4, 2), (2, 4, 1, 3)) for t in images(Permutation(tau)))


def _bona_count(n: int) -> int:
    """The number of 1342-avoiding permutations of length n, by Bóna's
    closed form ("Exact enumeration of 1342-avoiding permutations", J.
    Combin. Theory Ser. A 80, 1997):
    (-1)^(n-1) (7n^2 - 3n - 2)/2 + sum_(i=2..n) (-1)^(n-i) t_i C(n-i+2, 2)
    with t_i = 3 * 2^(i+1) (2i-4)! / (i! (i-2)!), an integer, taken from
    t_2 = 12 by the exact t_(i+1) = 4 (2i-3) t_i / (i+1)."""
    t, total = 12, (-1) ** (n + 1) * (7 * n * n - 3 * n - 2) // 2
    for i in range(2, n + 1):
        total += (-1) ** (n - i) * t * (n - i + 2) * (n - i + 1) // 2
        t = t * 4 * (2 * i - 3) // (i + 1)
    return total


def _wilf_1342_count(n: int, ps: PatternSet) -> int | None:
    """|S_n(ps)| from Bóna's closed form, or None where it does not apply:
    ps is not one pattern of the Wilf class of 1342, or the form missed
    `_scalar_count` at some j <= _GATE_UPTO."""
    if len(ps) != 1 or ps.patterns[0].values not in _WILF_1342 or not _gated(
            "bona", ps, _bona_count, lambda j: _scalar_count(j, ps), _GATE_UPTO):
        return None
    return _bona_count(n)


def _schroeder_count(n: int) -> int:
    """The number of separable permutations of length n, by the exact
    Schroeder-type recurrence q d_q = 3(2q - 3) d_(q-1) - (q - 3) d_(q-2)
    from d_0 = d_1 = 1."""
    prev, d = 1, 1
    for q in range(2, n + 1):
        prev, d = d, (3 * (2 * q - 3) * d - (q - 3) * prev) // q
    return d


def count_avoiders(n: int, ps: PatternSet, *, cache: CountCache | None = None, jobs: int = 1) -> int:
    """|S_n(ps)| exactly, by the module's count lookup; n = 0 counts the empty permutation once."""
    if n < 0:
        raise DomainError("counting needs n >= 0")
    if _is_all_of_s_n(n, ps):
        return math.factorial(n)
    if _is_separable_class(ps) and n > _VALIDATE_UPTO and _gated(
            "schroeder", ps, _schroeder_count, lambda j: count_avoiders(j, ps, cache=cache, jobs=jobs),
            _VALIDATE_UPTO):
        return _schroeder_count(n)
    value = _known_count(n, ps, cache)
    if value is None:
        value = _decomposed_count(n, ps)
    if value is None:
        value = _wilf_1342_count(n, ps)
    if value is None:
        value = _state_count(n, ps)
    if value is None:
        return _grown(n, ps, fresh_count, jobs, cache)
    _record(n, ps, {n: value}, {}, cache)
    return value


def avoider_rows(n: int, ps: PatternSet) -> np.ndarray:
    """S_n(ps) as an int8 array, one row per member, in lexicographic order.

    The class is counted first (n! for S_n, without growth), and a listing
    of more than _MAX_LISTING_BYTES of rows is refused."""
    size = count_avoiders(n, ps) * n if n >= 1 else 0
    if size > _MAX_LISTING_BYTES:
        raise DomainError(f"listing S_{n}({ps}) takes {size} bytes of rows, over the budget of {_MAX_LISTING_BYTES}")
    return _engine().avoider_rows(n, ps)


def contains_pattern_rows(rows: np.ndarray, tau: Permutation) -> np.ndarray:
    """Vectorized containment: for each row, does it contain tau anywhere."""
    return _engine().contains_pattern_rows(rows, tau)


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
    from fractions import Fraction

    counts = [count_avoiders(n, ps, cache=cache) for n in range(1, n_max + 1)]
    return [Fraction(b, a) for a, b in zip(counts, counts[1:])]
