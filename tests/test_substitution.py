import math

import pytest

from permcluster import EMPTY_PATTERNS, SEP, CountCache, enumeration, substitution

CLASSES = [(EMPTY_PATTERNS, 10), (SEP, 11)]


def decomposed(n, ps):
    return enumeration.EventTable(n, ps.key(), *substitution.table(n, ps == SEP))


@pytest.mark.parametrize("ps,top", CLASSES, ids=["S_n", "SEP"])
def test_decomposition_equals_growth(ps, top):
    # every total, (l, k, a) count and union, against the growth tables
    for n in range(1, top + 1):
        assert decomposed(n, ps) == enumeration.fresh_table(n, ps), n


def test_simple_counts():
    # A111111; the separable class has no simple permutation of size >= 4
    assert substitution._simples(9, separable=False)[4:] == [2, 6, 46, 338, 2926, 28146]
    assert substitution._simples(9, separable=True) == [0] * 10


def test_separable_counts_and_marks_past_growth():
    # the large Schroeder numbers; at n = 13 the marked counts add up to the
    # class in every row and column, and every member has an interval of
    # size 2 (the lowest sum in its decomposition tree has two adjacent
    # one-point parts)
    counts, _ = substitution._free(13, 14, substitution._simples(13, separable=True))
    assert counts[1:] == [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446, 27297738]
    total, by_lka, union = substitution.table(13, separable=True)
    assert total == enumeration._schroeder_count(13)
    for l in range(2, 13):
        m = 13 - l + 1
        for i in range(1, m + 1):
            assert sum(by_lka[(l, k, i)] for k in range(1, m + 1)) == counts[l] * counts[m]
            assert sum(by_lka[(l, i, a)] for a in range(1, m + 1)) == counts[l] * counts[m]
        assert 0 < union[l] < total or l == 2 and union[l] == total


def test_separable_count_equals_rows_and_the_recurrence():
    # rows up to n = 10, the Schroeder recurrence from 11 to 40; S_n's is n!
    assert [substitution.count(n, separable=True) for n in range(1, 11)] == \
        [enumeration.fresh_count(n, SEP) for n in range(1, 11)]
    assert [substitution.count(n, separable=True) for n in range(11, 41)] == \
        [enumeration._schroeder_count(n) for n in range(11, 41)]
    assert [substitution.count(n, separable=False) for n in range(1, 13)] == \
        [math.factorial(n) for n in range(1, 13)]


@pytest.mark.parametrize("ps,n", [(EMPTY_PATTERNS, 12), (SEP, 10), (SEP, 15), (SEP, 20)],
                         ids=["S_n-12", "SEP-10", "SEP-15", "SEP-20"])
def test_decomposed_tables_are_fixed_by_the_symmetries(ps, n):
    # reverse, complement and inverse fix every table served, and one
    # anchored count off by one breaks that
    table = decomposed(n, ps)
    assert enumeration._symmetric(table)
    table.by_lka[(3, 1, 2)] += 1
    assert not enumeration._symmetric(table)


def test_marked_count_wrong_past_the_gate_fails_the_symmetry_check(monkeypatch):
    # a marked count wrong only for m >= 7 passes the gate at j <= 6, but
    # its table at n = 10 is not fixed by reverse: that table is grown
    def wrong(n, counts, indecomposable):
        marked = right(n, counts, indecomposable)
        for m in range(7, n + 1):
            marked[m][1][1] += 1
        return marked

    right = substitution._marked_separable
    monkeypatch.setattr(substitution, "_marked_separable", wrong)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    want = enumeration.fresh_table(10, SEP)
    assert decomposed(10, SEP) != want and not enumeration._symmetric(decomposed(10, SEP))
    assert enumeration.event_count_table(10, SEP) == want
    assert enumeration._GATE == {("decomposition", SEP.key()): True}


@pytest.mark.parametrize("ps,top", CLASSES, ids=["S_n", "SEP"])
def test_lookup_serves_decomposed_tables_behind_the_gate(ps, top, monkeypatch):
    # at every n the lookup takes the decomposition without growth, after a
    # gate that checked it for exactly j = 1..6, and equals growth; n = 0 is
    # still refused
    checked = []
    table = substitution.table
    monkeypatch.setattr(substitution, "table", lambda n, sep: checked.append(n) or table(n, sep))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    want = [enumeration.fresh_table(n, ps) for n in range(1, top + 1)]
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_engine", None)
        assert enumeration.event_count_table(top, ps) == want[-1]
        assert checked == [*range(1, enumeration._GATE_UPTO + 1), top]
        assert enumeration._GATE == {("decomposition", ps.key()): True}
        assert [enumeration.event_count_table(n, ps) for n in range(1, top)] == want[:-1]  # no growth at any n
    with pytest.raises(enumeration.DomainError):
        enumeration.event_count_table(0, ps)


@pytest.mark.parametrize("field", ["total", "by_lka", "union"])
@pytest.mark.parametrize("ps", [EMPTY_PATTERNS, SEP], ids=["S_n", "SEP"])
def test_decomposition_off_by_one_at_6_fails_the_gate(ps, field, monkeypatch):
    # one count wrong at j = 6 only: the gate fails, and the table is grown
    def wrong(n, sep):
        total, by_lka, union = table(n, sep)
        if n == 6:
            if field == "total":
                total += 1
            elif field == "by_lka":
                by_lka[(3, 2, 2)] += 1
            else:
                union[5] -= 1
        return total, by_lka, union

    table = substitution.table
    monkeypatch.setattr(substitution, "table", wrong)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert enumeration.event_count_table(10, ps) == enumeration.fresh_table(10, ps)
    assert enumeration._GATE[("decomposition", ps.key())] is False


def test_decomposed_and_grown_tables_store_the_same_lines(tmp_path, monkeypatch):
    # a table from the decomposition is written as the grown one would be;
    # growth also writes the tables of both classes at widths 2..9, the
    # reach, and the separable counts there (4..9, not the identities)
    stores = []
    for gate in ({}, {("decomposition", ""): False, ("decomposition", SEP.key()): False}):
        monkeypatch.setattr(enumeration, "_MEMO", {})
        monkeypatch.setattr(enumeration, "_GATE", dict(gate))
        path = tmp_path / f"{len(stores)}" / "counts.txt"
        for n, ps in ((10, EMPTY_PATTERNS), (10, SEP), (11, SEP)):
            enumeration.event_count_table(n, ps, cache=CountCache(path))
        stores.append([dict(line.split("\t", 1) for line in file.read_text().splitlines())
                       for file in (path.with_name("counts.txt.tables"), path)])
    (tables, counts), (grown_tables, grown_counts) = stores
    assert tables.items() <= grown_tables.items() and counts.items() <= grown_counts.items()
    assert sorted(grown_tables.keys() - tables.keys()) == sorted(f"avoid={key};n={n}" for key in ("", SEP.key())
                                                                 for n in range(2, 10))
    assert sorted(grown_counts.keys() - counts.keys()) == [f"avoid={SEP.key()};n={n}" for n in range(4, 10)]


def test_s_n_past_the_table_cap_is_refused_before_the_decomposition(monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(substitution, "table", None)
    with pytest.raises(enumeration.DomainError, match="out of reach"):
        enumeration.event_count_table(13, EMPTY_PATTERNS)

