import itertools
import operator
import subprocess
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import assert_value_semantics, permutations_up_to
from permcluster import enumeration
from permcluster.perms import SYMMETRIES, clusters, images, inverse
from permcluster import (
    EMPTY_PATTERNS,
    SEP,
    ClusterEvent,
    DomainError,
    ParseError,
    PatternSet,
    Permutation,
    avoids_all,
    check_conditions,
    complement,
    contains_pattern,
    identity,
    in_any_cluster_event,
    in_cluster_event,
    is_cluster_free,
    is_separable,
    parse_permutation,
    reverse,
    tight_contains,
)


def naive_contains(sigma: Permutation, tau: Permutation) -> bool:
    """All-subsequences oracle, independent of the library's search."""
    s, t = sigma.values, tau.values
    m = len(t)
    for combo in itertools.combinations(s, m):
        if all((combo[i] < combo[j]) == (t[i] < t[j]) for i in range(m) for j in range(i + 1, m)):
            return True
    return False


def naive_cluster_free(tau: Permutation) -> bool:
    v = tau.values
    m = len(v)
    for l in range(2, m):
        for a in range(m - l + 1):
            w = v[a : a + l]
            if set(w) == set(range(min(w), min(w) + l)):
                return False
    return True


# ---------------------------------------------------------------------------
# parsing


def test_parse_compact():
    assert parse_permutation("798645312").values == (7, 9, 8, 6, 4, 5, 3, 1, 2)
    assert parse_permutation("1").values == (1,)
    assert parse_permutation("12").values == (1, 2)


def test_parse_separated():
    assert parse_permutation("10 2 1 3 4 5 6 7 8 9").n == 10
    assert parse_permutation("3,1,2").values == (3, 1, 2)
    assert parse_permutation("3, 1, 2").values == (3, 1, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "1 2,3", "1,,2", "abc", "1 2 x", "10", "1 1", "122", "0", "-1,2"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_permutation(bad)


@given(permutations_up_to(12))
def test_text_round_trips(p):
    assert parse_permutation(p.text()) == p


def test_permutation_validation():
    with pytest.raises(ParseError):
        Permutation((1, 3))
    with pytest.raises(ParseError):
        Permutation(())


# ---------------------------------------------------------------------------
# containment


def test_contains_examples():
    sigma = parse_permutation("798645312")
    assert not contains_pattern(sigma, parse_permutation("123"))
    assert contains_pattern(parse_permutation("132"), parse_permutation("12"))
    assert not contains_pattern(parse_permutation("2413"), parse_permutation("3142"))


def test_short_sigma_never_contains_longer_pattern():
    assert not contains_pattern(parse_permutation("12"), parse_permutation("123"))
    assert avoids_all(parse_permutation("21"), PatternSet((parse_permutation("123"),)))


def test_contains_exhaustive_small():
    taus = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    taus += [parse_permutation("2413"), parse_permutation("3142")]
    for vals in itertools.permutations(range(1, 6)):
        sigma = Permutation(vals)
        for tau in taus:
            assert contains_pattern(sigma, tau) == naive_contains(sigma, tau)


@given(permutations_up_to(7), permutations_up_to(4, min_n=2))
def test_contains_matches_naive_oracle(sigma, tau):
    assert contains_pattern(sigma, tau) == naive_contains(sigma, tau)


def test_avoids_all_vacuous_on_empty_set():
    assert avoids_all(parse_permutation("2413"), EMPTY_PATTERNS)


def test_avoids_all_examples():
    assert not avoids_all(parse_permutation("2413"), SEP)
    assert avoids_all(identity(5), PatternSet((parse_permutation("321"),)))
    assert avoids_all(parse_permutation("798645312"), PatternSet((parse_permutation("123"),)))


# ---------------------------------------------------------------------------
# tight containment


def test_tight_examples():
    assert tight_contains(parse_permutation("321"), parse_permutation("21"))
    assert not tight_contains(parse_permutation("2413"), parse_permutation("12"))
    assert not tight_contains(parse_permutation("2413"), parse_permutation("21"))
    assert tight_contains(parse_permutation("236154"), parse_permutation("12"))


@given(permutations_up_to(7), permutations_up_to(4, min_n=2))
def test_tight_implies_contains(tau, nu):
    if tight_contains(tau, nu):
        assert contains_pattern(tau, nu)


# ---------------------------------------------------------------------------
# cluster events


def test_cluster_event_examples():
    sigma = parse_permutation("798645312")
    assert in_cluster_event(sigma, ClusterEvent(3, 4))
    assert in_cluster_event(sigma, ClusterEvent(3, 4, 4))
    assert in_cluster_event(identity(5), ClusterEvent(2, 1, 1))
    assert not in_cluster_event(parse_permutation("2413"), ClusterEvent(2, 1))


def test_any_cluster_event():
    assert not in_any_cluster_event(parse_permutation("2413"), 2)
    assert in_any_cluster_event(identity(4), 3)
    assert not in_any_cluster_event(parse_permutation("3142"), 2)
    assert not in_any_cluster_event(parse_permutation("3142"), 3)


@pytest.mark.parametrize(
    "event",
    [ClusterEvent(1, 1), ClusterEvent(4, 1), ClusterEvent(2, 0), ClusterEvent(2, 4), ClusterEvent(2, 1, 5)],
)
def test_event_range_errors(event):
    with pytest.raises(DomainError):
        in_cluster_event(parse_permutation("2413"), event)


def test_anchored_event_requires_k():
    with pytest.raises(DomainError):
        ClusterEvent(2, None, 1)
    with pytest.raises(DomainError):
        in_cluster_event(parse_permutation("2413"), ClusterEvent(2))


def test_union_range_errors():
    with pytest.raises(DomainError):
        in_any_cluster_event(parse_permutation("2413"), 4)


@given(permutations_up_to(7, min_n=3))
def test_anchored_membership_implies_membership(sigma):
    n = len(sigma)
    for l in range(2, n):
        for a in range(1, n - l + 2):
            w = sigma.values[a - 1 : a - 1 + l]
            k = min(w)
            if in_cluster_event(sigma, ClusterEvent(l, k, a)):
                assert in_cluster_event(sigma, ClusterEvent(l, k))


def every_permutation(n):
    return itertools.permutations(range(1, n + 1))


def test_clusters_are_every_block_window_by_anchor_then_length():
    # the definition: every slice of length 2..n-1 whose max - min is l - 1
    for n in range(1, 8):
        for vals in every_permutation(n):
            want = [(l, min(vals[a : a + l]), a + 1) for a in range(n) for l in range(2, min(n, n - a + 1))
                    if max(vals[a : a + l]) - min(vals[a : a + l]) == l - 1]
            assert list(clusters(vals)) == want, vals


def test_clusters_match_the_numpy_scan():
    import numpy as np

    from permcluster import growth

    for n in range(2, 8):
        rows = np.array(list(every_permutation(n)), dtype=np.int8)
        found = [set() for _ in rows]
        for l, cluster, cmin in growth.cluster_windows(rows.T):
            for a, i in zip(*np.nonzero(cluster)):
                found[i].add((l, int(cmin[a, i]), int(a) + 1))
        assert [set(clusters(tuple(r))) for r in rows.tolist()] == found, n


def test_inverse():
    assert inverse(parse_permutation("2413")).text() == "3142"
    assert inverse(parse_permutation("2314")).text() == "3124"
    for vals in every_permutation(5):
        p = Permutation(vals)
        assert inverse(inverse(p)) == p
        assert all(inverse(p)[v - 1] == i + 1 for i, v in enumerate(vals))


def test_each_symmetry_maps_the_clusters_of_every_member():
    # sigma lies in (l, k, a) iff its image lies in map(n, l, k, a)
    for n in range(1, 7):
        for vals in every_permutation(n):
            p = Permutation(vals)
            for g, f in SYMMETRIES:
                assert {f(n, *event) for event in clusters(vals)} == set(clusters(g(p).values)), (vals, g)


def closure(tau):
    found, todo = {tau}, [tau]
    while todo:
        t = todo.pop()
        for g in (reverse, complement, inverse):
            u = g(t)
            if u not in found:
                found.add(u)
                todo.append(u)
    return found


def test_images_are_the_closure_under_the_three_symmetries():
    for m in range(1, 6):
        for vals in every_permutation(m):
            tau = Permutation(vals)
            got = images(tau)
            assert set(got) == closure(tau) and next(iter(got)) == tau, tau
    assert set(images(parse_permutation("2413"))) == set(SEP)
    assert len(images(parse_permutation("1342"))) == 8 and len(images(identity(4))) == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_image_maps_carry_the_anchored_counts(m):
    # S_n(tau) in (l, k, a) has as many members as S_n(image) in map(n, l, k, a)
    n = 6
    for vals in every_permutation(m):
        tau = Permutation(vals)
        want = enumeration._scalar_table(n, PatternSet((tau,))).by_lka
        for image, f in images(tau).items():
            got = enumeration._scalar_table(n, PatternSet((image,))).by_lka
            assert {event: got[f(n, *event)] for event in want} == dict(want), (tau, image)
            assert sorted(f(n, *event) for event in want) == sorted(got), (tau, image)


# ---------------------------------------------------------------------------
# cluster-freeness and the structural conditions


def test_cluster_free_examples():
    assert is_cluster_free(parse_permutation("2413"))
    assert is_cluster_free(parse_permutation("3142"))
    assert not is_cluster_free(parse_permutation("236154"))
    for p in itertools.permutations((1, 2, 3)):
        assert not is_cluster_free(Permutation(p))
    assert is_cluster_free(parse_permutation("1"))
    assert is_cluster_free(parse_permutation("12"))
    assert is_cluster_free(parse_permutation("21"))


def test_cluster_free_scan_s4_s5():
    s4 = [Permutation(p) for p in itertools.permutations(range(1, 5)) if naive_cluster_free(Permutation(p))]
    assert {p.text() for p in s4} == {"2413", "3142"}
    s5 = [Permutation(p) for p in itertools.permutations(range(1, 6)) if naive_cluster_free(Permutation(p))]
    assert len(s5) == 6
    for n in (4, 5):
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            assert is_cluster_free(p) == naive_cluster_free(p)


def test_conditions_examples():
    r = check_conditions(parse_permutation("123"))
    assert r.c2 and r.tight12 and not r.tight21 and r.c1
    r = check_conditions(parse_permutation("236154"))
    assert r.c3
    r = check_conditions(parse_permutation("2413"))
    assert r.c1 and not r.tight12 and not r.tight21
    r = check_conditions(parse_permutation("1243"))
    assert r.tight12 and r.tight21 and not r.c1


def test_condition_c2_covers_both_ends():
    assert not check_conditions(parse_permutation("2413")).c2  # neither end extreme
    assert check_conditions(parse_permutation("2341")).c2  # extreme at the right end only
    assert check_conditions(parse_permutation("4123")).c2  # extreme at the left end only


def test_conditions_report_invariants():
    for n in (2, 3, 4, 5):
        for vals in itertools.permutations(range(1, n + 1)):
            r = check_conditions(Permutation(vals))
            assert r.c1 == (not (r.tight12 and r.tight21))
            if r.cluster_free:
                assert r.c1


def test_conditions_need_length_two():
    with pytest.raises(DomainError):
        check_conditions(parse_permutation("1"))


# ---------------------------------------------------------------------------
# separability and symmetries


def test_separable():
    assert not is_separable(parse_permutation("2413"))
    assert is_separable(identity(6))
    count = sum(is_separable(Permutation(p)) for p in itertools.permutations(range(1, 5)))
    assert count == 22


def test_reverse_complement_examples():
    assert reverse(parse_permutation("123")) == parse_permutation("321")
    assert complement(parse_permutation("2413")) == parse_permutation("3142")


@given(permutations_up_to(9))
def test_reverse_complement_involutions(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert complement(reverse(complement(reverse(p)))) == p


@given(permutations_up_to(7, min_n=3))
def test_symmetries_map_cluster_events(p):
    n = len(p)
    for l in range(2, n):
        for k in range(1, n - l + 2):
            hit = in_cluster_event(p, ClusterEvent(l, k))
            assert hit == in_cluster_event(reverse(p), ClusterEvent(l, k))
            assert hit == in_cluster_event(complement(p), ClusterEvent(l, n + 2 - k - l))


def test_reverse_maps_123_to_321_avoiders():
    ps123 = PatternSet((parse_permutation("123"),))
    ps321 = PatternSet((parse_permutation("321"),))
    for n in range(2, 7):
        image = {reverse(Permutation(v)).values for v in itertools.permutations(range(1, n + 1))
                 if avoids_all(Permutation(v), ps123)}
        direct = {v for v in itertools.permutations(range(1, n + 1))
                  if avoids_all(Permutation(v), ps321)}
        assert image == direct


# ---------------------------------------------------------------------------
# pattern sets


def test_pattern_set_canonical_order_and_key():
    a = PatternSet((parse_permutation("3142"), parse_permutation("2413")))
    assert a == SEP
    assert a.key() == "2413+3142"
    assert EMPTY_PATTERNS.key() == ""
    assert PatternSet((identity(10),)).key() == "1 2 3 4 5 6 7 8 9 10"


def test_pattern_set_rejects_bad_members():
    with pytest.raises(ParseError):
        PatternSet((parse_permutation("1"),))
    with pytest.raises(ParseError):
        PatternSet((parse_permutation("21"), parse_permutation("21")))


# ---------------------------------------------------------------------------
# value semantics and the package namespace


@pytest.mark.parametrize("value,equal,unequal,text", [
    (Permutation((2, 1, 3)), Permutation([2, 1, 3]), Permutation((1, 2, 3)), "Permutation('213')"),
    (PatternSet((parse_permutation("321"), parse_permutation("123"))),
     PatternSet([parse_permutation("123"), parse_permutation("321")]), SEP,
     "PatternSet(patterns=(Permutation('123'), Permutation('321')))"),
    (ClusterEvent(3, 2), ClusterEvent(l=3, k=2, a=None), ClusterEvent(3, 2, 1), "ClusterEvent(l=3, k=2, a=None)"),
    (check_conditions(parse_permutation("1342")), check_conditions(parse_permutation("1342")),
     check_conditions(parse_permutation("2413")),
     "ConditionReport(c1=True, c2=True, c3=False, tight12=True, tight21=False, cluster_free=False)"),
], ids=["Permutation", "PatternSet", "ClusterEvent", "ConditionReport"])
def test_value_types_keep_their_semantics(value, equal, unequal, text):
    assert_value_semantics(value, equal, unequal, text)


def test_value_types_differ_from_the_tuples_of_their_fields():
    assert Permutation((1, 2)) != (1, 2) and PatternSet(()) != () and ClusterEvent(3, 2) != (3, 2, None)
    assert len({Permutation((1, 2)), Permutation([1, 2]), PatternSet(()), EMPTY_PATTERNS}) == 2


def test_permutations_order_by_their_values_only():
    perms = [parse_permutation(t) for t in ("312", "1", "21", "123", "2134")]
    assert [p.text() for p in sorted(perms)] == ["1", "123", "21", "2134", "312"]
    p, q = parse_permutation("21"), parse_permutation("312")
    assert p < q and p <= q and q > p and q >= p and p <= p and p >= p and not p < p
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((p, (2, 1)), ((2, 1), p), (p, SEP)):
            with pytest.raises(TypeError):
                op(a, b)


TODAYS_NAMES = """
ApplicabilityError BoundReport ClusterEvent ClusterLimitReport ConditionReport CountCache DomainError
EMPTY_PATTERNS EventTable LimitSpec ParseError PatternSet Permutation SEP SWConstant SeparableClusterLimit
Sqrt2Number UndefinedProbabilityError avoider_rows avoids_all catalan check_conditions cluster_anchors
cluster_free_probability cluster_limit_report cluster_probability_bounds complement contains_pattern contract
contract_rows contraction_word count_avoiders count_event count_union_event enumerate_avoiders enumeration
event_count_table exact_probability expand expand_rows flatten formulas identity in_any_cluster_event
in_cluster_event inflate is_cluster_free is_separable monotone_cluster_limit monotone_cluster_probability
parse_permutation perms ratio_sequence reverse sep_count separable_cluster_limit separable_cluster_probability
stanley_wilf_limit tight_contains transform uniform_probability union_asymptotic_ratio
""".split()


def test_every_public_name_resolves_and_star_import_binds_it():
    import permcluster
    from permcluster import enumeration, formulas, transform

    assert sorted(permcluster.__all__) == sorted(TODAYS_NAMES)
    namespace: dict = {}
    exec("from permcluster import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(TODAYS_NAMES)
    for name in TODAYS_NAMES:
        assert getattr(permcluster, name) is namespace[name]
    assert (namespace["enumeration"], namespace["formulas"], namespace["transform"]) == (enumeration, formulas, transform)
    assert namespace["Permutation"] is Permutation and namespace["contract"] is transform.contract
    assert "Permutation" in dir(permcluster)
    with pytest.raises(AttributeError, match="no attribute 'growth_engine'"):
        permcluster.growth_engine


def test_package_import_loads_each_submodule_on_first_use():
    probe = ("import sys, permcluster\n"
             "def loaded(): return ','.join(sorted(m for m in sys.modules if m.startswith('permcluster')))\n"
             "print(loaded()); permcluster.Permutation; print(loaded()); permcluster.contract; print(loaded())")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "permcluster",
        "permcluster,permcluster.perms",
        "permcluster,permcluster.perms,permcluster.transform",
    ]
