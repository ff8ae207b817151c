import itertools
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from permcluster import (
    EMPTY_PATTERNS,
    SEP,
    ClusterEvent,
    CountCache,
    DomainError,
    PatternSet,
    Permutation,
    UndefinedProbabilityError,
    avoids_all,
    catalan,
    complement,
    count_avoiders,
    count_event,
    count_union_event,
    enumerate_avoiders,
    event_count_table,
    exact_probability,
    expand_rows,
    in_any_cluster_event,
    in_cluster_event,
    parse_permutation,
    ratio_sequence,
)
from permcluster import enumeration, growth, states, substitution


def ps_of(*texts) -> PatternSet:
    return PatternSet(tuple(parse_permutation(t) for t in texts))


def naive_avoider_list(n, ps):
    return [
        vals
        for vals in itertools.permutations(range(1, n + 1))
        if avoids_all(Permutation(vals), ps)
    ]


# ---------------------------------------------------------------------------
# enumeration stream


@pytest.mark.parametrize(
    "ps",
    [EMPTY_PATTERNS, ps_of("321"), ps_of("132"), ps_of("2413"), SEP, ps_of("1234"), ps_of("321", "1234"),
     ps_of("25314"), ps_of("2413", "13254")],
)
def test_stream_matches_naive_filter_and_is_lex(ps):
    for n in range(1, 7):
        got = [p.values for p in enumerate_avoiders(n, ps)]
        assert got == naive_avoider_list(n, ps)
        assert got == sorted(got)
        assert len(set(got)) == len(got)


def random_pattern_sets(seed, count):
    """Seeded pattern sets of 1-3 distinct patterns of lengths 2-6."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        pats, size = set(), rng.randint(1, 3)
        while len(pats) < size:
            vals = list(range(1, rng.randint(2, 6) + 1))
            rng.shuffle(vals)
            pats.add(Permutation(tuple(vals)))
        sets.append(PatternSet(tuple(pats)))
    return sets


@pytest.mark.parametrize(
    "ps", [ps_of("25314"), ps_of("315264"), ps_of("2413", "13254"), ps_of("2413", "3142", "321"),
           ps_of("1342", "4213", "25314"), ps_of("123", "132", "2413")] + random_pattern_sets(2024, 8),
    ids=lambda ps: ps.key(),
)
def test_carried_masks_match_naive_filter(ps):
    # the carried bad-rank masks, the leafless count and the --jobs hand-off
    # of (rows, masks) against the scalar containment filter; the last
    # three named sets test heads of equal length on one gathered subset
    # array, next to heads of other lengths
    for n in range(1, 8):
        naive = naive_avoider_list(n, ps)
        assert enumeration.fresh_count(n, ps) == len(naive)
        assert [p.values for p in enumerate_avoiders(n, ps)] == naive
    # one two-worker pool per pattern set keeps the test short
    assert enumeration.fresh_count(7, ps, jobs=2) == len(naive)


def test_stream_examples():
    assert [p.text() for p in enumerate_avoiders(3, ps_of("321"))] == ["123", "132", "213", "231", "312"]
    assert [p.text() for p in enumerate_avoiders(1, ps_of("321"))] == ["1"]
    assert [p.text() for p in enumerate_avoiders(2, ps_of("123"))] == ["12", "21"]


def test_stream_rejects_n_zero():
    with pytest.raises(DomainError):
        list(enumerate_avoiders(0, EMPTY_PATTERNS))


def test_fresh_count_rejects_negative_n():
    # one error for out-of-range n, whether or not the class has patterns
    for ps in (EMPTY_PATTERNS, ps_of("321")):
        with pytest.raises(DomainError, match="n >= 0"):
            enumeration.fresh_count(-1, ps)


def test_listing_over_the_row_budget_is_refused(monkeypatch):
    # the class is counted before it is grown: 42 members of length 5 take
    # 210 bytes of rows, 14 of length 4 take 56
    monkeypatch.setattr(enumeration, "_MAX_LISTING_BYTES", 100)
    assert len(enumeration.avoider_rows(4, ps_of("321"))) == 14
    with pytest.raises(DomainError, match="210 bytes"):
        enumeration.avoider_rows(5, ps_of("321"))


# ---------------------------------------------------------------------------
# counting


def test_count_examples():
    assert count_avoiders(5, ps_of("321")) == 42
    assert count_avoiders(4, SEP) == 22
    assert count_avoiders(5, SEP) == 90
    assert count_avoiders(6, SEP) == 394
    assert count_avoiders(7, SEP) == 1806
    assert count_avoiders(4, EMPTY_PATTERNS) == 24
    assert count_avoiders(0, ps_of("321")) == 1
    assert count_avoiders(5, ps_of("2413")) == 103
    assert count_avoiders(6, ps_of("2413")) == 512


def test_count_factorial_small():
    for n in range(1, 7):
        assert count_avoiders(n, EMPTY_PATTERNS) == math.factorial(n)
        assert event_count_table(n, EMPTY_PATTERNS).total == math.factorial(n)


def test_count_catalan_small():
    for p in itertools.permutations((1, 2, 3)):
        ps = PatternSet((Permutation(p),))
        for n in range(1, 9):
            assert count_avoiders(n, ps) == catalan(n)


def test_count_below_the_shortest_pattern_is_n_factorial(monkeypatch):
    # every permutation shorter than each pattern avoids them all; no growth
    monkeypatch.setattr(enumeration, "_engine", None)
    for n in range(1, 5):
        assert enumeration.fresh_count(n, ps_of("25314", "13254")) == math.factorial(n)


def test_count_empty_class():
    assert count_avoiders(3, ps_of("12", "21")) == 0
    with pytest.raises(UndefinedProbabilityError):
        exact_probability(3, ps_of("12", "21"), ClusterEvent(2, 1))


def test_catalan_fast_path_validated():
    # counted by the gated state counter; the Catalan numbers are the check
    assert count_avoiders(12, ps_of("321")) == 208012
    assert count_avoiders(12, ps_of("213")) == 208012


def test_wrong_closed_form_falls_back_to_enumeration(monkeypatch):
    # a recurrence off by one from n = 10 on fails the gate at its last n,
    # and the count falls back to the lookup instead of the recurrence,
    # where the gated substitution decomposition answers it
    right = enumeration._schroeder_count
    monkeypatch.setattr(enumeration, "_schroeder_count", lambda n: right(n) + (n >= 10))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert count_avoiders(11, SEP) == 1037718
    assert enumeration._GATE == {("schroeder", "2413+3142"): False, ("decomposition", "2413+3142"): True}


def test_wrong_recurrence_and_decomposition_fall_back_to_rows(monkeypatch):
    # with both separable fast paths wrong, each fails its gate and the
    # count is grown by rows
    grown = []
    right_recurrence, right_count, fresh = enumeration._schroeder_count, substitution.count, enumeration.fresh_count
    monkeypatch.setattr(enumeration, "_schroeder_count", lambda n: right_recurrence(n) + (n >= 10))
    monkeypatch.setattr(substitution, "count", lambda n, sep: right_count(n, sep) + (n >= 6))
    monkeypatch.setattr(enumeration, "fresh_count", lambda n, ps, **kw: grown.append(n) or fresh(n, ps, **kw))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert count_avoiders(11, SEP) == 1037718
    assert enumeration._GATE == {("schroeder", "2413+3142"): False, ("decomposition", "2413+3142"): False}
    assert grown == [4, 5, 6, 7, 8, 9, 10, 11]


def test_separable_counts_come_from_the_decomposition_without_growth(monkeypatch):
    # below the recurrence the lookup answers SEP counts from the gated
    # decomposition, equal to rows; above it the recurrence answers
    want = [enumeration.fresh_count(n, SEP) for n in range(11)]
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    monkeypatch.setattr(enumeration, "_engine", None)
    assert [count_avoiders(n, SEP) for n in range(11)] == want
    assert enumeration._GATE == {("decomposition", "2413+3142"): True}
    assert count_avoiders(40, SEP) == enumeration._schroeder_count(40)
    assert enumeration._GATE[("schroeder", "2413+3142")] is True


def test_decomposition_off_by_one_at_6_falls_back_to_rows(monkeypatch):
    # a decomposed count wrong at j = 6 only makes its table total wrong
    # there: the gate fails, and every count is grown and stays right
    want = [enumeration.fresh_count(n, SEP) for n in range(11)]
    right = substitution.count
    monkeypatch.setattr(substitution, "count", lambda n, sep: right(n, sep) + (n == 6))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert [count_avoiders(n, SEP) for n in range(11)] == want
    assert enumeration._GATE == {("decomposition", "2413+3142"): False}


def test_separable_fast_path_agrees_with_enumeration_at_11():
    # recurrence value versus a fresh brute-force count at the crossover
    assert count_avoiders(11, SEP) == enumeration.fresh_table(11, SEP).total


def test_separable_fast_path_large_n():
    assert [enumeration._schroeder_count(n) for n in range(1, 6)] == [1, 2, 6, 22, 90]
    assert count_avoiders(20, SEP) == enumeration._schroeder_count(20)


# The Wilf class of 1342: its 8 symmetric images, and 2413 and 3142.
WILF_1342 = ["1342", "2431", "4213", "3124", "1423", "3241", "4132", "2314", "2413", "3142"]


def test_wilf_class_of_1342_is_its_images_and_2413():
    assert enumeration._WILF_1342 == states._images((1, 3, 4, 2)) | states._images((2, 4, 1, 3))
    assert sorted(enumeration._WILF_1342) == sorted(parse_permutation(t).values for t in WILF_1342)


def test_bona_form_matches_states_rows_and_the_scalar_count():
    # Bóna's form against the state counter (image 2314) for n <= 14, rows
    # of every pattern of the class for n <= 9 and the scalar count for n <= 7
    assert [enumeration._bona_count(n) for n in range(1, 15)] == \
        [states.count(n, (2, 3, 1, 4)) for n in range(1, 15)]
    for text in WILF_1342:
        ps = ps_of(text)
        assert [enumeration._bona_count(n) for n in range(1, 10)] == \
            [enumeration.fresh_count(n, ps) for n in range(1, 10)], text
        assert [enumeration._bona_count(n) for n in range(1, 8)] == \
            [enumeration._scalar_count(n, ps) for n in range(1, 8)], text
    assert enumeration._bona_count(16) == 43478151737


@pytest.mark.parametrize("text", WILF_1342)
def test_wilf_class_of_1342_is_counted_by_the_form_without_growth(text, monkeypatch):
    # each pattern of the class passes the gate once, on the scalar count
    # for every j <= 6, and is then counted by the form alone
    checked = []
    scalar = enumeration._scalar_count
    monkeypatch.setattr(enumeration, "_scalar_count", lambda n, ps: checked.append(n) or scalar(n, ps))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    monkeypatch.setattr(enumeration, "_engine", None)
    monkeypatch.setattr(enumeration, "_state_count", None)
    ps = ps_of(text)
    assert [count_avoiders(n, ps) for n in (5, 9, 13)] == [103, 91245, 144640291]
    assert checked == list(range(1, enumeration._STATE_GATE_UPTO + 1))
    assert enumeration._GATE == {("bona", text): True}


@pytest.mark.parametrize("text, falls_to", [("1342", "states"), ("4132", "states"), ("2413", "rows"),
                                            ("3142", "rows")])
def test_wrong_bona_form_fails_the_gate_and_falls_back(text, falls_to, monkeypatch):
    # a form off by one at j = 6 fails its gate: 1342's images are then
    # counted by states, 2413 and 3142 by rows, with the same answers
    ps = ps_of(text)
    want = [enumeration.fresh_count(n, ps) for n in range(1, 11)]
    grown = []
    right, fresh = enumeration._bona_count, enumeration.fresh_count
    monkeypatch.setattr(enumeration, "_bona_count", lambda n: right(n) + (n == 6))
    monkeypatch.setattr(enumeration, "fresh_count", lambda n, ps, **kw: grown.append(n) or fresh(n, ps, **kw))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert [count_avoiders(n, ps) for n in range(1, 11)] == want
    if falls_to == "states":
        assert enumeration._GATE == {("bona", text): False, ("states", text): True} and grown == []
    else:
        assert enumeration._GATE == {("bona", text): False} and grown == list(range(4, 11))


def test_other_classes_never_take_the_bona_form(monkeypatch):
    # pattern sets that hold a pattern of the class, and single patterns of
    # lengths 5 and 6, are counted as before and leave no gate entry for it
    def refuse(n):
        raise AssertionError("counted by the closed form")

    rng = random.Random(1342)
    singles = []
    for m in (5, 5, 5, 6, 6, 6):
        values = list(range(1, m + 1))
        rng.shuffle(values)
        singles.append(PatternSet((Permutation(tuple(values)),)))
    monkeypatch.setattr(enumeration, "_bona_count", refuse)
    for ps in [ps_of("1342", "4213"), ps_of("1342", "321"), ps_of("1342", "2413"), ps_of("2413", "3142"),
               ps_of("1342", "25314")] + singles:
        monkeypatch.setattr(enumeration, "_MEMO", {})
        monkeypatch.setattr(enumeration, "_GATE", {})
        assert [count_avoiders(n, ps) for n in range(1, 9)] == [enumeration.fresh_count(n, ps) for n in range(1, 9)]
        assert not any(source == "bona" for source, _ in enumeration._GATE), ps


@pytest.mark.parametrize("ps", [EMPTY_PATTERNS, SEP] + random_pattern_sets(11, 6), ids=lambda ps: ps.key() or "S_n")
def test_placed_members_are_those_that_contain_a_pattern(ps):
    # the placement behind the scalar references against the scalar
    # containment test, over all of S_j for j <= 7
    for j in range(1, 8):
        want = {s for s in itertools.permutations(range(1, j + 1)) if not avoids_all(Permutation(s), ps)}
        assert enumeration._containing(j, ps) == want
        assert enumeration._scalar_count(j, ps) == math.factorial(j) - len(want)


# ---------------------------------------------------------------------------
# event counts


def test_count_event_examples():
    assert count_event(5, ps_of("321"), ClusterEvent(2, 1)) == 19
    assert count_event(3, EMPTY_PATTERNS, ClusterEvent(2, 1)) == 4
    assert count_event(3, EMPTY_PATTERNS, ClusterEvent(2, 1)) == 2 * 2 * 1


def test_count_event_against_direct_filter():
    cases = [
        (6, EMPTY_PATTERNS),
        (6, ps_of("321")),
        (6, SEP),
        (6, ps_of("1342")),
        (7, ps_of("123")),
    ]
    for n, ps in cases:
        members = [Permutation(v) for v in naive_avoider_list(n, ps)]
        table = event_count_table(n, ps)
        for l in range(2, n):
            for k in range(1, n - l + 2):
                direct = sum(in_cluster_event(p, ClusterEvent(l, k)) for p in members)
                assert table.by_lk.get((l, k), 0) == direct
                for a in range(1, n - l + 2):
                    direct_a = sum(in_cluster_event(p, ClusterEvent(l, k, a)) for p in members)
                    assert table.by_lka.get((l, k, a), 0) == direct_a
            direct_union = sum(
                any(in_cluster_event(p, ClusterEvent(l, k)) for k in range(1, n - l + 2))
                for p in members
            )
            assert table.union_by_l.get(l, 0) == direct_union


def leaf_table(n, ps):
    """The event table tabulated from the leaves: every member of S_n(ps)
    scanned with `cluster_windows`, each cluster window binned by (l, k, a)."""
    rows = np.array([p.values for p in enumerate_avoiders(n, ps)], dtype=np.int8).reshape(-1, n)
    by_lka, union_by_l = {}, {}
    for l, cluster, cmin in enumeration.cluster_windows(rows.T):
        if not cluster.any():
            continue
        union_by_l[l] = int(cluster.any(axis=0).sum())
        aidx, ridx = np.nonzero(cluster)
        keys, counts = np.unique(np.stack([cmin[aidx, ridx], aidx + 1]), axis=1, return_counts=True)
        for (k, a), cnt in zip(keys.T.tolist(), counts.tolist()):
            by_lka[(l, k, a)] = cnt
    return enumeration.EventTable(n, ps.key(), len(rows), by_lka, union_by_l)


def assert_same_table(got, want):
    assert got.total == want.total
    for name in ("by_lk", "by_lka", "union_by_l"):
        counts = dict(getattr(got, name))
        assert counts == dict(getattr(want, name)), name  # a plain dict: zero-valued keys count
        assert all(v > 0 for v in counts.values()), name


def complement_closure(ps):
    return PatternSet(tuple(set(ps) | {complement(tau) for tau in ps}))


# Pattern sets equal to their complement image, besides S_n, SEP and 12+21:
# counts and tables of these classes grow only the subtree under 12.
CLOSED_SETS = [ps_of("123", "321"), ps_of("132", "312"), ps_of("1342", "4213"), ps_of("2143", "3412")] \
    + [complement_closure(ps) for ps in random_pattern_sets(9, 2)]

DIFFERENTIAL_SETS = [EMPTY_PATTERNS, SEP, ps_of("12"), ps_of("12", "21"), ps_of("321"), ps_of("1342"),
                     ps_of("25314"), ps_of("315264"), ps_of("2413", "13254")] + random_pattern_sets(6, 10) \
    + CLOSED_SETS


def reach(ps):
    """The widest width that a lookup of ps with a store records when it
    grows: the least j with |S_(j-1)(ps)| past one part of growth, or the
    first empty width before it, at most the table cap."""
    for j in range(2, enumeration._MAX_TABLE_N_SN + 1):
        if enumeration.fresh_count(j - 1, ps) > growth._CHUNK_ROWS or enumeration.fresh_count(j, ps) == 0:
            return j
    return enumeration._MAX_TABLE_N_SN


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: ps.key() or "S_n")
def test_count_lookup_matches_fresh_count(ps, tmp_path, monkeypatch):
    # with empty memos and gate, each step of the count lookup answers as
    # enumeration does, without a cache and through one; the counts that
    # one cache object writes are read back by a second, without growth
    # or states (S_n, n = 0 and every n below the shortest pattern are the
    # identity n!, never written)
    # (and where the lookup grew, through the store, the counts of every
    # width up to the reach)
    want = [enumeration.fresh_count(n, ps) for n in range(9)]
    path = tmp_path / "counts.txt"
    grown = []
    fresh_count = enumeration.fresh_count
    for cache in (None, CountCache(path)):
        monkeypatch.setattr(enumeration, "_MEMO", {})
        monkeypatch.setattr(enumeration, "_GATE", {})
        monkeypatch.setattr(enumeration, "fresh_count", lambda n, ps, **kw: grown.append(cache is not None) or
                            fresh_count(n, ps, **kw))
        assert [count_avoiders(n, ps, cache=cache) for n in range(9)] == want
    monkeypatch.setattr(enumeration, "fresh_count", fresh_count)
    shortest = min((len(tau) for tau in ps), default=9)
    top = max(8, reach(ps)) if any(grown) else 8
    written = [(enumeration.cache_key(n, ps), str(fresh_count(n, ps))) for n in range(shortest, top + 1)]
    assert CountCache(path).items() == sorted(written)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "fresh_count", None)
    monkeypatch.setattr(enumeration, "_state_count", None)
    assert [count_avoiders(n, ps, cache=CountCache(path)) for n in range(9)] == want


def test_count_lookup_above_the_gates_matches_fresh_count(monkeypatch):
    # the separable recurrence past n = 10 and the states of 321 past
    # Tier-1's sizes, each behind its gate, against enumeration
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    for n, ps in ((11, SEP), (12, SEP), (11, ps_of("321"))):
        assert count_avoiders(n, ps) == enumeration.fresh_count(n, ps)
    assert enumeration._GATE == {("schroeder", SEP.key()): True, ("decomposition", SEP.key()): True,
                                 ("states", "321"): True}


def test_event_table_is_a_mutable_record():
    # equal by its fields, unhashable, printed and pickled as before; by_lk
    # is derived from by_lka, and every table owns its counters
    table = enumeration.EventTable(3, "21", 1, {(2, 1, 1): 1}, {2: 1})
    assert (table.by_lk, table.by_lka, table.union_by_l) == (Counter({(2, 1): 1}), Counter({(2, 1, 1): 1}),
                                                             Counter({2: 1}))
    assert table != enumeration.EventTable(3, "21", 1, {(2, 1, 2): 1}, {2: 1}) and table != (3, "21", 1)
    assert repr(table) == ("EventTable(n=3, patterns_key='21', total=1, by_lk=Counter({(2, 1): 1}), "
                           "by_lka=Counter({(2, 1, 1): 1}), union_by_l=Counter({2: 1}))")
    with pytest.raises(TypeError):
        hash(table)
    assert pickle.loads(pickle.dumps(table)) == table
    counts = {}
    empty, other = enumeration.EventTable(4, "", 0, counts, counts), enumeration.EventTable(4, "", 0, {}, {})
    assert repr(empty) == "EventTable(n=4, patterns_key='', total=0, by_lk=Counter(), by_lka=Counter(), union_by_l=Counter())"
    empty.total += 1
    empty.by_lka.update(table.by_lka)
    assert empty.total == 1 and empty.by_lka == table.by_lka and other == enumeration.EventTable(4, "", 0, {}, {})
    assert counts == {} and empty.union_by_l == Counter()


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: ps.key() or "S_n")
def test_event_table_matches_leaf_tabulation(ps, monkeypatch):
    # the tables read off the width n-1 parents against a scan of the leaves
    monkeypatch.setattr(enumeration, "_MEMO", {})
    for n in range(1, 9):
        assert_same_table(event_count_table(n, ps), leaf_table(n, ps))


def expansion_table(n, ps):
    """by_lka and by_lk of S_n(ps) from the expansion map, which shares no
    code with the growth engine: |A(l,k,a) & S_n(ps)| is the number of
    (eta, rho) in S_{n-l+1} x S_l with eta_a = k whose expansion at a
    avoids ps."""
    def every(m):
        return np.array(list(itertools.permutations(range(1, m + 1))), dtype=np.int8)

    by_lka, by_lk = Counter(), Counter()
    for l in range(2, n):
        etas, rhos = every(n - l + 1), every(l)
        hosts, windows = np.repeat(etas, len(rhos), axis=0), np.tile(rhos, (len(etas), 1))
        for a in range(1, n - l + 2):
            sigmas = expand_rows(hosts, windows, l, a)
            keep = np.ones(len(sigmas), dtype=bool)
            for tau in ps:
                keep &= ~enumeration.contains_pattern_rows(sigmas, tau)
            ks, counts = np.unique(hosts[keep, a - 1], return_counts=True)
            for k, count in zip(ks.tolist(), counts.tolist()):
                by_lka[(l, k, a)] = count
                by_lk[(l, k)] += count
    return by_lka, by_lk


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: ps.key() or "S_n")
def test_event_table_matches_expansion_map(ps):
    for n in range(3, 9):
        table = event_count_table(n, ps)
        by_lka, by_lk = expansion_table(n, ps)
        assert dict(table.by_lka) == dict(by_lka)
        assert dict(table.by_lk) == dict(by_lk)


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: ps.key() or "S_n")
def test_union_counts_match_scalar_filter(ps):
    # union_by_l against the scalar in_any_cluster_event over the scalar
    # containment filter, which share no code with the growth engine or
    # with `cluster_windows` (the expansion map checks by_lka and by_lk)
    for n in range(1, 7):
        members = [Permutation(v) for v in naive_avoider_list(n, ps)]
        direct = {l: sum(in_any_cluster_event(p, l) for p in members) for l in range(2, n)}
        assert dict(enumeration.fresh_table(n, ps).union_by_l) == {l: c for l, c in direct.items() if c}


@pytest.mark.parametrize("ps", [SEP, ps_of("2413", "13254"), EMPTY_PATTERNS, ps_of("132", "312")],
                         ids=lambda ps: ps.key() or "S_n")
def test_parallel_event_table_matches_leaf_tabulation(ps, monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    assert_same_table(event_count_table(8, ps, jobs=2), leaf_table(8, ps))


@pytest.mark.parametrize("ps, parents", [(EMPTY_PATTERNS, math.factorial(7) // 2), (SEP, 1806 // 2),
                                        (ps_of("1342"), 2740)], ids=["S_n", "sep", "1342"])
def test_closed_classes_read_only_the_parents_under_12(ps, parents, monkeypatch):
    # S_8 and SEP at n = 8 are complement-closed: their tables and counts read
    # the width-7 parents with s_1 < s_2, half of S_7(ps); 1342 is not closed
    # (its image is 4213), so all 2740 members of S_7(1342) are read
    from permcluster import growth

    want, tabulated, counted = leaf_table(8, ps), [], []
    tabulate, free_ranks = growth._tabulate_chunk, growth._free_ranks
    monkeypatch.setattr(growth, "_tabulate_chunk", lambda rows, *args: tabulated.append(rows.shape) or
                        tabulate(rows, *args))
    assert_same_table(enumeration.fresh_table(8, ps), want)
    assert {w for _, w in tabulated} == {7}
    assert sum(rows for rows, _ in tabulated) == parents
    if not ps.is_empty():  # |S_n| = n! is not counted by growth
        monkeypatch.setattr(growth, "_free_ranks", lambda bad, n: counted.append(len(bad)) or free_ranks(bad, n))
        assert enumeration.fresh_count(8, ps) == want.total
        assert sum(counted) == parents


@pytest.mark.parametrize("ps", [EMPTY_PATTERNS, SEP, ps_of("12", "21")] + CLOSED_SETS,
                         ids=lambda ps: ps.key() or "S_n")
def test_closed_classes_at_the_smallest_sizes(ps):
    # n = 1, 2 grow the whole tree; from n = 3 the subtree under 12, which
    # 12+21 leaves empty: its classes are empty from n = 2 on
    from permcluster import growth

    for n in (1, 2, 3, 4):
        naive = naive_avoider_list(n, ps)
        assert enumeration.fresh_count(n, ps) == len(naive)
        for jobs in (1, 2):
            assert_same_table(enumeration.fresh_table(n, ps, jobs=jobs), leaf_table(n, ps))
        level, half = growth._start(n, ps, growth._pattern_metas(ps))
        assert half == (n >= 3)
        if half:
            assert level[0].tolist() == ([] if ps == ps_of("12", "21") else [[1, 2]])


def test_growth_hands_back_plain_values_without_enumeration():
    # growth's results are ints and dicts, built with no EventTable, so a
    # fresh import of growth leaves enumeration unloaded
    total, by_lka, union_by_l = growth.table(6, SEP, 1)
    assert total == growth.count(6, SEP, 1) == 394
    values = [total, *itertools.chain(*by_lka), *by_lka.values(), *union_by_l, *union_by_l.values()]
    assert all(type(v) is int for v in values)
    probe = "import sys, permcluster.growth; print('permcluster.enumeration' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_worked_example_is_counted():
    sigma = parse_permutation("798645312")
    ps = ps_of("123")
    assert avoids_all(sigma, ps)
    assert in_cluster_event(sigma, ClusterEvent(3, 4, 4))
    assert count_event(9, ps, ClusterEvent(3, 4, 4)) >= 1


def test_anchored_counts_sum_to_event_count():
    for n, ps in [(7, ps_of("321")), (7, SEP), (6, EMPTY_PATTERNS), (7, ps_of("1234"))]:
        table = event_count_table(n, ps)
        for (l, k), total in table.by_lk.items():
            sum_a = sum(
                table.by_lka.get((l, k, a), 0) for a in range(1, n - l + 2)
            )
            assert sum_a == total


def test_union_count_examples():
    assert count_union_event(3, EMPTY_PATTERNS, 2) == 6  # every sigma in S_3 has an adjacent consecutive pair
    assert count_union_event(4, EMPTY_PATTERNS, 3) == sum(
        any(in_cluster_event(Permutation(v), ClusterEvent(3, k)) for k in (1, 2))
        for v in itertools.permutations(range(1, 5))
    )
    count_union_event(5, EMPTY_PATTERNS, 4)  # l = n - 1 boundary accepted
    with pytest.raises(DomainError):
        count_union_event(5, EMPTY_PATTERNS, 5)


def test_event_range_errors():
    with pytest.raises(DomainError):
        count_event(5, EMPTY_PATTERNS, ClusterEvent(2, 5))
    with pytest.raises(DomainError):
        count_event(5, EMPTY_PATTERNS, ClusterEvent(2))


# ---------------------------------------------------------------------------
# probabilities


def test_probability_examples():
    assert exact_probability(4, EMPTY_PATTERNS, ClusterEvent(2, 1)) == Fraction(1, 2)
    assert exact_probability(5, ps_of("321"), ClusterEvent(2, 1)) == Fraction(19, 42)


def test_probability_mirror_classes_agree():
    for n in range(3, 8):
        for l in range(2, n):
            for k in range(1, n - l + 2):
                ev = ClusterEvent(l, k)
                assert exact_probability(n, ps_of("321"), ev) == exact_probability(n, ps_of("123"), ev)


def test_probability_requires_exactly_one_event_form():
    with pytest.raises(DomainError):
        exact_probability(5, EMPTY_PATTERNS)
    with pytest.raises(DomainError):
        exact_probability(5, EMPTY_PATTERNS, ClusterEvent(2, 1), union_l=2)
    with pytest.raises(DomainError, match="count_event needs k"):
        exact_probability(5, EMPTY_PATTERNS, ClusterEvent(2))
    # the event is checked before the class is found empty
    with pytest.raises(DomainError, match="outside"):
        exact_probability(3, ps_of("12", "21"), union_l=3)


def position_value_counts(n, ps):
    """counts[a-1, k-1] = number of members of S_n(ps) with value k at position a."""
    rows = np.array([p.values for p in enumerate_avoiders(n, ps)])
    return np.array([np.bincount(rows[:, a], minlength=n + 1)[1:] for a in range(n)])


def test_per_anchor_structure_for_321():
    # anchored counts match the position-value census of the contracted
    # class, with the extra diagonal term C_{k-1} C_{n-k-l+1} (C_l - 1)
    ps = ps_of("321")
    for n in range(3, 11):
        table = event_count_table(n, ps)
        pv = {m: position_value_counts(m, ps) for m in {n - l + 1 for l in range(2, n)}}
        for l in range(2, n):
            census = pv[n - l + 1]
            for k in range(1, n - l + 2):
                for a in range(1, n - l + 2):
                    expected = int(census[a - 1, k - 1])
                    if a == k:
                        expected += catalan(k - 1) * catalan(n - k - l + 1) * (catalan(l) - 1)
                    assert table.by_lka.get((l, k, a), 0) == expected, (n, l, k, a)


# ---------------------------------------------------------------------------
# ratio sequences


def test_ratio_sequence_catalan():
    ratios = ratio_sequence(ps_of("321"), 10)
    for n, r in enumerate(ratios, start=1):
        assert r == Fraction(2 * (2 * n + 1), n + 2)


def test_ratio_sequence_catalan_trend():
    ratios = ratio_sequence(ps_of("321"), 25)
    at_20 = ratios[19]
    assert abs(float(at_20) - 3.7273) < 5e-4
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 4 for r in ratios)


def test_ratio_sequence_separable_trend():
    ratios = ratio_sequence(SEP, 60)
    growth = 3 + 2 * math.sqrt(2)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert float(ratios[-1]) < growth
    assert growth - float(ratios[-1]) < 0.2


def test_ratio_sequence_needs_two_terms():
    with pytest.raises(DomainError):
        ratio_sequence(SEP, 1)


# ---------------------------------------------------------------------------
# the persistent cache


def sealed(key, value):
    """A count or table line as the stores write it."""
    return f"{key}\t{value}\t{CountCache.checksum(key, value)}\n"


def test_cache_round_trip(tmp_path):
    path = tmp_path / "counts.txt"
    cache = CountCache(path)
    assert cache.get("avoid=321;n=5") is None
    count_avoiders(5, ps_of("321"), cache=cache)
    assert CountCache(path).get("avoid=321;n=5") == 42


def test_cache_ignores_corrupt_lines(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(
        sealed("avoid=321;n=4", "14")
        + "garbage line\n"
        + sealed("avoid=321;n=5", "notanumber")
        + sealed("avoid=;n=oops", "3")
        + sealed("avoid=999;n=3", "7")
    )
    cache = CountCache(path)
    assert cache.get("avoid=321;n=4") == 14
    assert cache.get("avoid=321;n=5") is None
    assert count_avoiders(5, ps_of("321"), cache=cache) == 42


def test_cache_key_round_trip():
    for ps in [ps_of("321"), SEP, ps_of("1342", "321"), PatternSet((Permutation(tuple(range(1, 11))),))]:
        key = enumeration.cache_key(7, ps)
        n, back = enumeration.parse_cache_key(key)
        assert n == 7 and back == ps


def test_cached_value_is_used(tmp_path, monkeypatch):
    # a planted (wrong) value is trusted by count_avoiders and exposed by audit;
    # a fresh memo keeps it out of the rest of the test run
    monkeypatch.setattr(enumeration, "_MEMO", {})
    path = tmp_path / "counts.txt"
    path.write_text(sealed("avoid=53421;n=5", "999"))
    cache = CountCache(path)
    assert count_avoiders(5, ps_of("53421"), cache=cache) == 999
    assert enumeration.fresh_count(5, ps_of("53421")) == 119


def test_corrupt_count_lines_are_ignored(tmp_path, monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    path = tmp_path / "counts.txt"
    path.write_text(sealed("avoid=321;n=5", "\u00b2") + sealed("avoid=321;n=6", "1 2") + "avoid=321;n=7\n"
                    + sealed("bad key", "5") + sealed("avoid=321;n=4", "14"))
    cache = CountCache(path)
    assert cache.items() == [("avoid=321;n=4", "14"), ("avoid=321;n=5", "\u00b2"), ("avoid=321;n=6", "1 2")]
    assert [cache.get(f"avoid=321;n={n}") for n in (4, 5, 6, 7)] == [14, None, None, None]
    assert count_avoiders(5, ps_of("321"), cache=CountCache(path)) == 42


def test_table_pass_mends_a_wrong_cached_count(tmp_path, monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    path = tmp_path / "counts.txt"
    path.write_text(sealed("avoid=321;n=5", "41"))
    enumeration.event_count_table(5, ps_of("321"))  # memoized, no cache yet
    enumeration.event_count_table(5, ps_of("321"), cache=CountCache(path))
    assert path.read_text() == sealed("avoid=321;n=5", "42")


def test_a_known_count_is_written_once(tmp_path, monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    puts = []
    put = CountCache.put

    def counted_put(self, entries):
        puts.extend(entries)
        put(self, entries)

    monkeypatch.setattr(CountCache, "put", counted_put)
    cache = CountCache(tmp_path / "counts.txt")
    assert count_avoiders(5, ps_of("321"), cache=cache) == 42
    assert enumeration.event_count_table(5, ps_of("321"), cache=cache).total == 42
    assert puts.count("avoid=321;n=5") == 1


# Prints, for each cache key given, the key, the count and the table line's
# value, each grown by `fresh_count` and `fresh_table` from S_0.
_FRESH_LINES = """
import sys
from permcluster import enumeration, growth
for key in sys.argv[1:]:
    n, ps = enumeration.parse_cache_key(key)
    growth._KEPT = growth._KeptLevels()
    count = enumeration.fresh_count(n, ps)
    growth._KEPT = growth._KeptLevels()
    print(key, count, enumeration.TableStore.encode(enumeration.fresh_table(n, ps)))
"""

# (patterns, n, lookup, reach): 1324 below and above its reach, a class of
# reach 11, the classes grown as a half tree (S_n, SEP and 123+321, which
# dies out at 5), the empty class 12+21 and a pattern longer than n
REACH_CASES = [(ps_of("1324"), 6, event_count_table, 9), (ps_of("1324"), 11, count_avoiders, 9),
               (ps_of("132"), 5, event_count_table, 11), (EMPTY_PATTERNS, 5, event_count_table, 9),
               (SEP, 5, event_count_table, 9), (ps_of("123", "321"), 6, event_count_table, 5),
               (ps_of("12", "21"), 4, event_count_table, 2), (ps_of("12345"), 3, event_count_table, 9)]


def test_a_cold_lookup_with_a_store_writes_every_width_up_to_the_reach(tmp_path, monkeypatch):
    # a lookup that grows writes the count (where the class is not all of
    # S_j) and the table of every width from 2 up to the reach, plus what
    # it was asked for; every line holds what fresh growth from S_0 in
    # another process gives for its width
    written = {}
    for i, (ps, n, lookup, top) in enumerate(REACH_CASES):
        assert reach(ps) == top, ps
        monkeypatch.setattr(enumeration, "_MEMO", {})
        monkeypatch.setattr(growth, "_KEPT", growth._KeptLevels())
        cache = CountCache(tmp_path / str(i) / "counts.txt")
        lookup(n, ps, cache=cache)
        widths = set(range(2, top + 1)) | {n}
        shortest = min(len(tau) for tau in ps) if len(ps) else math.inf
        stores = {"count": CountCache(cache.path).items(), "table": CountCache(cache.path).tables.items()}
        assert [key for key, _ in stores["count"]] == sorted(enumeration.cache_key(j, ps) for j in widths
                                                             if j >= shortest), ps
        table_widths = widths if lookup is event_count_table else widths - {n}
        assert [key for key, _ in stores["table"]] == sorted(enumeration.cache_key(j, ps) for j in table_widths), ps
        for kind, items in stores.items():
            written.update(((kind, key), value) for key, value in items)
    keys = sorted({key for _, key in written})
    proc = subprocess.run([sys.executable, "-c", _FRESH_LINES, *keys], capture_output=True, text=True, check=True)
    fresh = {}
    for line in proc.stdout.splitlines():
        key, count, table = line.split(" ")
        fresh[("count", key)], fresh[("table", key)] = count, table
    assert all(value == fresh[item] for item, value in written.items())


def test_an_intact_width_is_not_regrown_and_a_tampered_one_is(tmp_path, monkeypatch):
    # a later lookup that grows regrows only the widths whose lines fail:
    # the table at 8 (a digit changed under its old checksum) and the width
    # 5, whose table cannot be checked without its count; both lines are
    # written again sealed, as they were, and no other line changes
    ps, path = ps_of("1324"), tmp_path / "counts.txt"
    monkeypatch.setattr(enumeration, "_MEMO", {})
    event_count_table(6, ps, cache=CountCache(path))
    tables = path.with_name("counts.txt.tables")
    before = {file: file.read_text() for file in (path, tables)}
    for file, key in ((path, "avoid=1324;n=5"), (tables, "avoid=1324;n=8")):
        old = next(line for line in before[file].splitlines() if line.startswith(key + "\t"))
        key, value, crc = old.split("\t")
        file.write_text(before[file].replace(old, f"{key}\t{value[:-1]}{(int(value[-1]) + 1) % 10}\t{crc}"))
    grown = []
    for name in ("fresh_count", "fresh_table"):
        fresh = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, lambda n, *a, fresh=fresh, **kw: grown.append((fresh.__name__, n))
                            or fresh(n, *a, **kw))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(growth, "_KEPT", growth._KeptLevels())
    want = enumeration.fresh_table(10, ps)
    grown.clear()
    assert_same_table(event_count_table(10, ps, cache=CountCache(path)), want)
    assert grown == [("fresh_table", 10), ("fresh_table", 5), ("fresh_table", 8)]
    key = "avoid=1324;n=10"
    added = {path: sealed(key, str(want.total)), tables: sealed(key, enumeration.TableStore.encode(want))}
    for file in (path, tables):
        assert file.read_text().splitlines() == sorted(before[file].splitlines() + added[file].splitlines())


def test_a_lookup_without_a_store_grows_only_what_it_is_asked_for(monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    grown = []
    for name in ("count", "table"):
        engine = getattr(growth, name)
        monkeypatch.setattr(growth, name, lambda n, ps, jobs, name=name, engine=engine: grown.append((name, n))
                            or engine(n, ps, jobs))
    ps = ps_of("1324")
    assert count_avoiders(7, ps) == 2762
    assert event_count_table(6, ps).total == count_avoiders(6, ps) == 513
    assert grown == [("count", 7), ("table", 6)]


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: ps.key() or "S_n")
def test_stored_table_reads_back_as_grown(ps, tmp_path, monkeypatch):
    # a table written to the table store and read back with fresh memos, by a
    # cache object that has not seen it, equals the grown table; the first
    # lookup grows, and writes every width from 2 up to the reach with it
    path = tmp_path / "counts.txt"
    for n in range(3, 9):
        grown = enumeration.fresh_table(n, ps)
        monkeypatch.setattr(enumeration, "_MEMO", {})
        event_count_table(n, ps, cache=CountCache(path))
        monkeypatch.setattr(enumeration, "_MEMO", {})
        with monkeypatch.context() as m:
            m.setattr(enumeration, "fresh_table", None)  # a lookup that grows fails
            stored = event_count_table(n, ps, cache=CountCache(path))
        assert_same_table(stored, grown)
    lines = (tmp_path / "counts.txt.tables").read_text().splitlines()
    assert [line.split("\t")[0] for line in lines] == sorted(f"avoid={ps.key()};n={n}"
                                                              for n in range(2, max(8, reach(ps)) + 1))


def test_table_store_rejects_resealed_lines_out_of_range_or_bound(tmp_path):
    # lines in the written form under a valid checksum are still checked:
    # each (l, k, a) in range, each count positive and at most the union
    # at its l, each union at most the total, and the total as given
    ps, n = ps_of("1342"), 7
    good = enumeration.fresh_table(n, ps)
    store = enumeration.TableStore(tmp_path / "t.tables")
    key = enumeration.cache_key(n, ps)

    def stored(by_lka, union_by_l, total=good.total):
        table = enumeration.EventTable(n, ps.key(), total, by_lka, union_by_l)
        store.put({key: enumeration.TableStore.encode(table)})
        return enumeration.TableStore(store.path).table(n, ps, good.total)

    assert_same_table(stored(good.by_lka, good.union_by_l), good)
    (l, k, a), count = next(iter(good.by_lka.items()))
    bad_lines = {
        "l = n": ({**good.by_lka, (n, 1, 1): 1}, good.union_by_l),
        "k past n - l + 1": ({**good.by_lka, (l, n - l + 2, a): 1}, good.union_by_l),
        "a = 0": ({**good.by_lka, (l, k, 0): 1}, good.union_by_l),
        "union at l = 1": (good.by_lka, {**good.union_by_l, 1: 1}),
        "zero count": ({**good.by_lka, (l, k, a): 0}, good.union_by_l),
        "count above its union": ({**good.by_lka, (l, k, a): good.union_by_l[l] + 1}, good.union_by_l),
        "union above the total": (good.by_lka, {**good.union_by_l, l: good.total + 1}),
    }
    for name, (by_lka, union_by_l) in bad_lines.items():
        assert stored(by_lka, union_by_l) is None, name
    assert stored(good.by_lka, good.union_by_l, good.total + 1) is None


def test_a_stale_writer_keeps_another_writers_value(tmp_path):
    # a put merges only its own keys into the file as it stands under the
    # lock, so a writer's older view of another key does not undo a newer
    # write of that key
    path = tmp_path / "counts.txt"
    stale, other = CountCache(path), CountCache(path)
    stale.put({"avoid=321;n=5": 41})
    other.put({"avoid=321;n=5": 42})
    stale.put({"avoid=321;n=4": 14})
    cache = CountCache(path)
    assert [cache.get("avoid=321;n=4"), cache.get("avoid=321;n=5")] == [14, 42]


def test_a_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    # a write that cannot replace the file removes its temporary file and
    # leaves the file as it was
    path = tmp_path / "counts.txt"
    CountCache(path).put({"avoid=321;n=5": 42})
    before = path.read_text()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(enumeration.os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        CountCache(path).put({"avoid=321;n=6": 132})
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.txt", "counts.txt.lock"]


def test_a_failed_write_answers_as_the_file_does(tmp_path, monkeypatch):
    # the writing object keeps no line that its file lacks: not a count, nor
    # a line whose failed write the lookup passes over (|S_3(1342)| is 3!,
    # never written, so only the tables and the counts of the other widths
    # up to the reach are)
    path = tmp_path / "counts.txt"
    cache = CountCache(path)

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(enumeration.os, "replace", fail)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    with pytest.raises(OSError, match="replace failed"):
        cache.put({"avoid=321;n=6": 132})
    assert cache.get("avoid=321;n=6") is None and CountCache(path).get("avoid=321;n=6") is None
    assert event_count_table(3, ps_of("1342"), cache=cache).total == 6
    assert cache.tables.get("avoid=1342;n=3") is None and cache.tables.items() == [] and cache.items() == []


def _put_many(path, pattern):
    cache = CountCache(path)
    for n in range(1, 101):
        cache.put({f"avoid={pattern};n={n}": n})


def test_cache_two_writers_lose_nothing(tmp_path):
    path = tmp_path / "counts.txt"
    ctx = multiprocessing.get_context("spawn")
    writers = [ctx.Process(target=_put_many, args=(path, p)) for p in ("321", "123")]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=60)
    assert [w.exitcode for w in writers] == [0, 0]  # None if still running
    items = CountCache(path).items()
    assert len(items) == 200
    assert all(k.endswith(f";n={v}") for k, v in items)


# ---------------------------------------------------------------------------
# work splitting


def test_parallel_event_table_matches_serial():
    for ps in (ps_of("132"), EMPTY_PATTERNS):
        serial = event_count_table(8, ps)
        enumeration._MEMO.pop(enumeration.table_key(enumeration.cache_key(8, ps)), None)
        parallel = event_count_table(8, ps, jobs=2)
        assert parallel.total == serial.total
        assert parallel.by_lk == serial.by_lk
        assert parallel.by_lka == serial.by_lka
        assert parallel.union_by_l == serial.union_by_l


def test_parallel_fresh_count_matches_serial():
    assert enumeration.fresh_count(8, ps_of("231"), jobs=2) == catalan(8)
    for ps in (ps_of("1342"), SEP, ps_of("25314"), ps_of("2413", "13254")):
        assert enumeration.fresh_count(8, ps, jobs=2) == enumeration.fresh_count(8, ps)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 2, 7])
def test_run_parts_keeps_part_order(jobs, size):
    # fewer parts than jobs run in fewer processes, more parts are taken one
    # at a time; either way the results come back in part order
    out = growth.run_parts(lambda x: (x * x, os.getpid()), list(range(size)), jobs)
    assert [value for value, _ in out] == [x * x for x in range(size)]
    pids = {pid for _, pid in out}
    assert len(pids) <= min(jobs, size)
    for pid in pids - {os.getpid()}:  # every child has been waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _two_processes(tmp_path, child, parent=lambda x: x):
    """A part function for two parts at jobs = 2: a forked child writes its
    pid under tmp_path and returns child(x); this process waits for that
    pid, so that the child has taken the other part, and returns parent(x)."""
    me = os.getpid()

    def part(x):
        if os.getpid() != me:
            (tmp_path / str(os.getpid())).write_text("")
            return child(x)
        while not any(tmp_path.iterdir()):
            time.sleep(0.01)
        return parent(x)

    return part


def _fail(error):
    raise error


def test_run_parts_raises_a_childs_error_again(tmp_path):
    # a child's DomainError comes back as a DomainError, its traceback as the cause
    part = _two_processes(tmp_path, lambda x: _fail(DomainError("no such class")))
    with pytest.raises(DomainError, match="no such class") as info:
        growth.run_parts(part, [0, 1], 2)
    assert "_fail" in str(info.value.__cause__)
    (pid,) = (int(path.name) for path in tmp_path.iterdir())
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_run_parts_child_ending_without_a_result(tmp_path):
    part = _two_processes(tmp_path, lambda x: os._exit(3))
    with pytest.raises(RuntimeError, match="ended without a result"):
        growth.run_parts(part, [0, 1], 2)
    # more indices than a pipe's buffer holds are refused before any fork
    with pytest.raises(ValueError, match="4097 parts"):
        growth.run_parts(part, list(range(growth._MAX_PARTS + 1)), 2)


def test_run_parts_kills_its_children_when_this_process_fails(tmp_path):
    # the child sleeps; this process's part fails once the child has
    # started, and run_parts raises at once, its child killed and waited for
    part = _two_processes(tmp_path, lambda x: time.sleep(60), lambda x: _fail(ValueError("this part failed")))
    start = time.monotonic()
    with pytest.raises(ValueError, match="this part failed"):
        growth.run_parts(part, [0, 1], 2)
    assert time.monotonic() - start < 30
    (pid,) = (int(path.name) for path in tmp_path.iterdir())
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


class InlinePool:
    """An in-process stand-in for `growth.run_parts` that records the parts
    it is dealt."""

    parts: list = []

    @classmethod
    def run_parts(cls, fn, parts, jobs):
        assert jobs == 2
        cls.parts.extend(parts)
        return [fn(part) for part in parts]


def test_split_deals_rows_round_robin(monkeypatch):
    # the split level is dealt into 4 * jobs parts of near-equal size that
    # hold every row once; the in-process stand-in for the pool records them
    parts = []
    monkeypatch.setattr(InlinePool, "parts", parts)
    monkeypatch.setattr(growth, "run_parts", InlinePool.run_parts)
    ps = ps_of("1342")
    assert enumeration.fresh_count(9, ps, jobs=2) == enumeration.fresh_count(9, ps)
    assert len(parts) == 8
    sizes = [len(rows) for rows, _ in parts]
    assert max(sizes) - min(sizes) <= 1
    dealt = sorted(tuple(int(v) for v in row) for rows, _ in parts for row in rows)
    # |S_4(1342)| = 23 < 16 * 2 <= |S_5(1342)| = 103: the split is at width 5
    assert dealt == naive_avoider_list(5, ps)


def test_parallel_fresh_count_tiny_n_runs_in_process(monkeypatch):
    # at n = 3 the split reaches width n - 1 with fewer than 16 * jobs rows,
    # so the level is consumed in-process and no pool is made
    def no_pool(*args, **kwargs):
        raise AssertionError("no process pool expected")

    monkeypatch.setattr(growth, "run_parts", no_pool)
    for n in (1, 2, 3):
        assert enumeration.fresh_count(n, ps_of("231"), jobs=2) == catalan(n)
        assert enumeration.event_count_table(n, ps_of("2413", "13254"), jobs=2).total == math.factorial(n)


@pytest.mark.parametrize("chunk", [2, 5, 64])
def test_growth_in_small_parts_matches_whole_levels(chunk, monkeypatch):
    # with parts of a few rows every level splits, and every subtree, kernel
    # chunk and tabulation chunk ends at a part boundary; counts, tables and
    # listings must not change, serially or dealt to the pool stand-in
    from permcluster import growth

    sizes = range(1, 7)
    whole = {ps.key(): ([enumeration.fresh_count(n, ps) for n in sizes], [leaf_table(n, ps) for n in sizes],
                        [enumeration.avoider_rows(n, ps) for n in sizes], enumeration.fresh_count(7, ps))
             for ps in DIFFERENTIAL_SETS}
    monkeypatch.setattr(growth, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(growth, "run_parts", InlinePool.run_parts)
    monkeypatch.setattr(InlinePool, "parts", [])
    for ps in DIFFERENTIAL_SETS:
        counts, tables, listings, count7 = whole[ps.key()]
        for n, count, table, rows in zip(sizes, counts, tables, listings):
            for jobs in (1, 2):
                assert enumeration.fresh_count(n, ps, jobs=jobs) == count
                assert_same_table(enumeration.fresh_table(n, ps, jobs=jobs), table)
            assert np.array_equal(enumeration.avoider_rows(n, ps), rows)
        assert enumeration.fresh_count(7, ps, jobs=2) == count7
    # at n = 7 some classes are dealt short of width 6, so the parts grow on in parts
    assert any(rows.shape[1] < 6 for rows, _ in InlinePool.parts)


def grown_in_order(sizes, ps):
    """Counts, tables and listings of ps at each n of sizes, asked in that
    order of one process, keyed by n."""
    return {n: (enumeration.fresh_count(n, ps), enumeration.fresh_table(n, ps), growth.avoider_rows(n, ps))
            for n in sizes}


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: ps.key() or "S_n")
def test_kept_levels_answer_as_growth_from_s_0(ps, monkeypatch):
    # counts, tables and listings asked for in ascending, descending and
    # shuffled order of n, each order in a process that starts with no kept
    # levels, equal those grown with no level kept from the call before;
    # for n <= 6 they also equal the scalar references
    sizes = list(range(1, 9))
    want = {}
    for n in sizes:
        monkeypatch.setattr(growth, "_KEPT", growth._KeptLevels())
        want.update(grown_in_order([n], ps))
    for order in (sizes, sizes[::-1], random.Random(ps.key()).sample(sizes, len(sizes))):
        monkeypatch.setattr(growth, "_KEPT", growth._KeptLevels())
        got = grown_in_order(order, ps)
        for n in sizes:
            assert got[n][0] == want[n][0], (order, n)
            assert_same_table(got[n][1], want[n][1])
            assert np.array_equal(got[n][2], want[n][2]), (order, n)
    for n in range(1, 7):
        assert want[n][0] == enumeration._scalar_count(n, ps)
        assert_same_table(want[n][1], enumeration._scalar_table(n, ps))


@pytest.mark.parametrize("ps, closed", [(ps_of("1342"), False), (SEP, True)], ids=["1342", "sep"])
def test_one_width_more_grows_one_level(ps, closed, monkeypatch):
    # after width n, width n + 1 grows one level from the deepest kept one,
    # for a count, a table or a listing of the class; a level of more than
    # _CHUNK_ROWS rows is not kept, and the next ask grows it again from
    # the level above, not from S_0
    grown = []
    children = growth._children
    monkeypatch.setattr(growth, "_children", lambda level, metas: grown.append(level[0].shape) or
                        children(level, metas))
    monkeypatch.setattr(growth, "_KEPT", growth._KeptLevels())
    enumeration.fresh_count(6, ps)
    calls = [(enumeration.fresh_count, 7), (enumeration.fresh_table, 8), (enumeration.fresh_count, 9)]
    if not closed:  # a listing grows the whole tree, which a closed class's counts do not
        calls += [(growth.avoider_rows, 9), (growth.avoider_rows, 9)]
    for fresh, n in calls:
        grown.clear()
        fresh(n, ps)
        assert [width for _, width in grown] == [n - 2], (fresh.__name__, n, grown)
    assert grown[0][0] <= growth._CHUNK_ROWS  # the last ask grew from a kept level


def test_kept_levels_stay_within_their_byte_bound(monkeypatch):
    # with parts of 64 rows every growth past them runs in parts, levels of
    # at most 64 rows are kept, and the kept bytes stay within 64 * 64, which
    # the levels of these classes pass: the least recently used class is
    # dropped first
    classes = [ps_of(text) for text in ("123", "132", "213", "231", "312", "321", "1342", "25314")]
    want = [enumeration.fresh_count(8, ps) for ps in classes]
    monkeypatch.setattr(growth, "_CHUNK_ROWS", 64)
    kept = growth._KeptLevels()
    monkeypatch.setattr(growth, "_KEPT", kept)
    parts = []
    children = growth._children
    monkeypatch.setattr(growth, "_children", lambda level, metas: parts.append(len(level[0])) or
                        children(level, metas))
    for ps, count in zip(classes, want):
        assert enumeration.fresh_count(8, ps) == count
        assert kept.nbytes == sum(a.nbytes for chain in kept.chains.values() for level in chain for a in level)
        assert kept.nbytes <= 64 * 64
        for levels in kept.chains.values():  # consecutive widths from S_0, of at most 64 rows
            assert [(rows.shape[1], len(rows) <= 64) for rows, _ in levels] == [(w, True) for w in range(len(levels))]
        assert list(kept.chains)[-1] == (ps, False)
    assert max(parts) <= 64 and parts.count(64) > 1  # the levels past 64 rows ran in parts
    assert [ps for ps, _ in kept.chains] == classes[-len(kept.chains):] and len(kept.chains) < len(classes)
    with pytest.raises(ValueError, match="read-only"):
        kept.chains[(classes[-1], False)][-1][1][0] = 0


# ---------------------------------------------------------------------------
# bulk helpers


def test_contains_pattern_rows_matches_scalar():
    rng = np.random.default_rng(7)
    for tau_text in ("321", "2413", "1234", "25314", "315264"):
        tau = parse_permutation(tau_text)
        rows = np.array([rng.permutation(8) + 1 for _ in range(300)], dtype=np.int8)
        got = enumeration.contains_pattern_rows(rows, tau)
        for row, flag in zip(rows, got):
            p = Permutation(tuple(int(v) for v in row))
            assert bool(flag) == (not avoids_all(p, PatternSet((tau,))))
