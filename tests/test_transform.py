import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import permutations_up_to
from permcluster import (
    DomainError,
    ParseError,
    Permutation,
    cluster_anchors,
    contains_pattern,
    contract,
    contract_rows,
    contraction_word,
    expand,
    expand_rows,
    flatten,
    identity,
    inflate,
    parse_permutation,
)

B_EXAMPLE = (1, 2, 3, 4, 7, 8, 9)


def test_flatten_examples():
    assert flatten((7, 3, 8, 5)) == parse_permutation("3142")
    assert flatten((7, 9, 8, 4, 3, 1, 2)) == parse_permutation("5764312")
    assert flatten(range(1, 6)) == identity(5)


def test_inflate_examples():
    assert inflate(parse_permutation("3142"), (3, 5, 7, 8)) == (7, 3, 8, 5)
    assert inflate(parse_permutation("5764312"), B_EXAMPLE) == (7, 9, 8, 4, 3, 1, 2)
    assert inflate(identity(4), (2, 4, 6, 9)) == (2, 4, 6, 9)


def test_flatten_rejects_repeats():
    with pytest.raises(DomainError):
        flatten((3, 3, 1))


def test_inflate_rejects_bad_ground():
    with pytest.raises(DomainError):
        inflate(identity(3), (5, 2, 7))
    with pytest.raises(DomainError):
        inflate(identity(3), (1, 2))


@given(st.sets(st.integers(1, 60), min_size=1, max_size=8).map(lambda s: tuple(sorted(s))),
       st.data())
def test_flatten_inflate_round_trip(ground, data):
    nu = Permutation(tuple(data.draw(st.permutations(tuple(range(1, len(ground) + 1))))))
    word = inflate(nu, ground)
    assert flatten(word) == nu
    assert tuple(sorted(word)) == ground


def test_contract_worked_example():
    sigma = parse_permutation("798645312")
    assert contraction_word(sigma, 3, 4, 4) == (7, 9, 8, 4, 3, 1, 2)
    eta = contract(sigma, 3, 4, 4)
    assert eta == parse_permutation("5764312")
    assert eta.values[3] == 4
    assert not contains_pattern(eta, parse_permutation("123"))


def test_contract_identity():
    assert contract(identity(5), 2, 1, 1) == identity(4)


def test_contract_rejects_missing_window():
    with pytest.raises(DomainError):
        contract(parse_permutation("798645312"), 3, 4, 2)
    with pytest.raises(DomainError):
        contract(parse_permutation("2413"), 2, 1, 1)


def test_expand_worked_example():
    sigma = expand(parse_permutation("5764312"), parse_permutation("213"), 3, 4, 4)
    assert sigma == parse_permutation("798546312")
    back = expand(parse_permutation("5764312"), parse_permutation("312"), 3, 4, 4)
    assert back == parse_permutation("798645312")


def test_expand_identity():
    assert expand(identity(4), parse_permutation("12"), 2, 1, 1) == identity(5)


def test_expand_rejects_bad_arguments():
    eta = parse_permutation("5764312")
    with pytest.raises(DomainError):
        expand(eta, parse_permutation("21"), 3, 4, 4)  # |rho| != l
    with pytest.raises(DomainError):
        expand(eta, parse_permutation("213"), 3, 5, 4)  # eta_a != k
    with pytest.raises(DomainError):
        expand(eta, parse_permutation("213"), 3, 4, 9)  # anchor outside range


def test_cluster_anchors():
    assert cluster_anchors(parse_permutation("798645312"), 3, 4) == [4]
    assert cluster_anchors(parse_permutation("2413"), 2, 1) == []
    assert cluster_anchors(identity(5), 2, 3) == [3]


def test_round_trip_exhaustive_small():
    for n in range(3, 7):
        for vals in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(vals)
            for l in range(2, n):
                for a0 in range(n - l + 1):
                    w = vals[a0 : a0 + l]
                    k = min(w)
                    if max(w) - k != l - 1:
                        continue
                    eta = contract(sigma, l, k, a0 + 1)
                    assert expand(eta, flatten(w), l, k, a0 + 1) == sigma


@given(permutations_up_to(9, min_n=3))
def test_round_trip_random(sigma):
    n = len(sigma)
    vals = sigma.values
    for l in range(2, n):
        for a0 in range(n - l + 1):
            w = vals[a0 : a0 + l]
            k = min(w)
            if max(w) - k != l - 1:
                continue
            eta = contract(sigma, l, k, a0 + 1)
            assert eta.values[a0] == k
            assert expand(eta, flatten(w), l, k, a0 + 1) == sigma


def test_contract_of_expand_recovers_eta_exhaustively():
    # all eta in S_6, all window patterns of length 3, every valid anchor
    l = 3
    for eta_vals in itertools.permutations(range(1, 7)):
        eta = Permutation(eta_vals)
        for a in range(1, 7):
            k = eta_vals[a - 1]
            if not 1 <= k <= 6:
                continue
            for rho_vals in itertools.permutations(range(1, l + 1)):
                sigma = expand(eta, Permutation(rho_vals), l, k, a)
                assert contract(sigma, l, k, a) == eta


@given(permutations_up_to(6, min_n=2), st.data())
def test_expand_lands_in_anchored_event(eta, data):
    l = data.draw(st.integers(2, 4))
    a = data.draw(st.integers(1, len(eta)))
    k = eta.values[a - 1]
    rho = Permutation(tuple(data.draw(st.permutations(tuple(range(1, l + 1))))))
    sigma = expand(eta, rho, l, k, a)
    w = sigma.values[a - 1 : a - 1 + l]
    assert min(w) == k and max(w) == k + l - 1
    assert flatten(w) == rho


def test_expansion_preserves_avoidance_spot():
    # ascending window into a 321-avoiding host stays 321-avoiding
    tau = parse_permutation("321")
    eta = parse_permutation("2413")
    for a in range(1, 5):
        k = eta.values[a - 1]
        out = expand(eta, identity(3), 3, k, a)
        assert not contains_pattern(out, tau)


def test_contraction_preserves_avoidance_all_small_patterns():
    # sigma avoiding tau implies every contraction of sigma avoids tau,
    # exhaustively over every pattern of length 3 and 4
    import numpy as np

    from permcluster import PatternSet, enumeration

    taus = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    taus += [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]
    for tau in taus:
        ps = PatternSet((tau,))
        for n in range(3, 8):
            outputs = {}
            for sigma in enumeration.enumerate_avoiders(n, ps):
                vals = sigma.values
                for l in range(2, n):
                    for a0 in range(n - l + 1):
                        w = vals[a0 : a0 + l]
                        k = min(w)
                        if max(w) - k != l - 1:
                            continue
                        eta = contract(sigma, l, k, a0 + 1)
                        outputs.setdefault(len(eta), []).append(eta.values)
            for group in outputs.values():
                arr = np.array(group, dtype=np.int8)
                assert int(enumeration.contains_pattern_rows(arr, tau).sum()) == 0


def test_cluster_free_expansion_preservation_n9_l_up_to_4():
    # window patterns up to length 4 into hosts of a cluster-free singleton
    # class: avoidance is preserved for every avoiding window pattern
    import numpy as np

    from permcluster import PatternSet, enumeration

    for tau_text in ("2413", "3142"):
        tau = parse_permutation(tau_text)
        ps = PatternSet((tau,))
        n = 9
        outputs = []
        for l in range(2, 5):
            rhos = list(enumeration.enumerate_avoiders(l, ps))
            etas = list(enumeration.enumerate_avoiders(n - l + 1, ps))
            for eta in etas:
                for a in range(1, n - l + 2):
                    k = eta.values[a - 1]
                    for rho in rhos:
                        outputs.append(expand(eta, rho, l, k, a).values)
        arr = np.array(outputs, dtype=np.int8)
        assert int(enumeration.contains_pattern_rows(arr, tau).sum()) == 0


# ---------------------------------------------------------------------------
# batch kernels against the scalar maps


def rows_of(perms, width):
    return np.array(list(perms), dtype=np.int8).reshape(-1, width)


def cluster_windows_of(vals):
    """(l, k, a) of every cluster window of vals, from the definition."""
    n = len(vals)
    for l in range(2, n):
        for a0 in range(n - l + 1):
            w = vals[a0 : a0 + l]
            if max(w) - min(w) == l - 1:
                yield l, min(w), a0 + 1


def assert_contract_rows_match(sigmas):
    """contract_rows on every (l, a) group of the sigmas' cluster windows
    equals contract on each member."""
    groups = {}
    for vals in sigmas:
        for l, k, a in cluster_windows_of(vals):
            groups.setdefault((l, a), []).append((vals, k))
    for (l, a), members in groups.items():
        got = contract_rows(rows_of((v for v, _ in members), len(members[0][0])), l, a)
        want = [contract(Permutation(v), l, k, a).values for v, k in members]
        assert [tuple(r) for r in got.tolist()] == want


def assert_expand_rows_match(etas, rhos, l, a):
    got = expand_rows(rows_of(etas, len(etas[0])), rows_of(rhos, l), l, a)
    want = [expand(Permutation(e), Permutation(r), l, e[a - 1], a).values for e, r in zip(etas, rhos)]
    assert [tuple(r) for r in got.tolist()] == want


def test_contract_rows_matches_contract_exhaustively():
    for n in range(3, 7):
        assert_contract_rows_match(list(itertools.permutations(range(1, n + 1))))


def test_expand_rows_matches_expand_exhaustively():
    # every (eta, rho, a) with n <= 7: each anchor's call against the scalar
    # map, and one call over all anchors against the stacked calls
    for n in range(3, 8):
        for l in range(2, n):
            m = n - l + 1
            pairs = list(itertools.product(itertools.permutations(range(1, m + 1)),
                                           itertools.permutations(range(1, l + 1))))
            etas, rhos = [e for e, _ in pairs], [r for _, r in pairs]
            for a in range(1, m + 1):
                assert_expand_rows_match(etas, rhos, l, a)
            hosts, windows = rows_of(etas, m), rows_of(rhos, l)
            each = np.vstack([expand_rows(hosts, windows, l, a) for a in range(1, m + 1)])
            every = expand_rows(hosts, windows, l, range(1, m + 1))
            assert every.dtype == each.dtype and np.array_equal(every, each)


@given(st.integers(3, 9).flatmap(
    lambda n: st.lists(st.permutations(tuple(range(1, n + 1))), min_size=1, max_size=12)))
def test_contract_rows_matches_contract_random(sigmas):
    assert_contract_rows_match([tuple(s) for s in sigmas])


@given(st.integers(2, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(2, 10 - m))), st.data())
def test_expand_rows_matches_expand_random(sizes, data):
    m, l = sizes  # n = m + l - 1 <= 9
    a = data.draw(st.integers(1, m))
    count = data.draw(st.integers(1, 8))
    etas = [tuple(data.draw(st.permutations(tuple(range(1, m + 1))))) for _ in range(count)]
    rhos = [tuple(data.draw(st.permutations(tuple(range(1, l + 1))))) for _ in range(count)]
    assert_expand_rows_match(etas, rhos, l, a)


def test_batch_kernels_take_empty_batches():
    assert contract_rows(np.zeros((0, 5), dtype=np.int8), 2, 1).shape == (0, 4)
    assert expand_rows(np.zeros((0, 4), dtype=np.int8), np.zeros((0, 3), dtype=np.int8), 3, 2).shape == (0, 6)
    assert expand_rows(np.zeros((0, 4), dtype=np.int8), np.zeros((0, 3), dtype=np.int8), 3, [1, 4]).shape == (0, 6)


P = parse_permutation
BAD_ARGUMENTS = {
    # name: (batch call, scalar call); both must raise
    "contract: window not a block": (
        lambda: contract_rows(rows_of([(1, 2, 3, 4), (2, 4, 1, 3)], 4), 2, 1),
        lambda: contract(P("2413"), 2, 2, 1)),
    "contract: anchor 0": (
        lambda: contract_rows(rows_of([(1, 2, 3, 4)], 4), 2, 0), lambda: contract(P("1234"), 2, 1, 0)),
    "contract: anchor past n-l+1": (
        lambda: contract_rows(rows_of([(1, 2, 3, 4)], 4), 2, 4), lambda: contract(P("1234"), 2, 4, 4)),
    "contract: l = 1": (
        lambda: contract_rows(rows_of([(1, 2, 3, 4)], 4), 1, 1), lambda: contract(P("1234"), 1, 1, 1)),
    "contract: l = n": (
        lambda: contract_rows(rows_of([(1, 2, 3, 4)], 4), 4, 1), lambda: contract(P("1234"), 4, 1, 1)),
    "contract: row not a permutation": (
        lambda: contract_rows(rows_of([(1, 2, 3, 4), (1, 2, 2, 4)], 4), 2, 1),
        lambda: contract(Permutation((1, 2, 2, 4)), 2, 1, 1)),
    "expand: rho of the wrong width": (
        lambda: expand_rows(rows_of([(2, 1, 3)], 3), rows_of([(2, 1)], 2), 3, 1),
        lambda: expand(P("213"), P("21"), 3, 2, 1)),
    "expand: anchor 0": (
        lambda: expand_rows(rows_of([(2, 1, 3)], 3), rows_of([(2, 1)], 2), 2, 0),
        lambda: expand(P("213"), P("21"), 2, 3, 0)),
    "expand: anchor past |eta|": (
        lambda: expand_rows(rows_of([(2, 1, 3)], 3), rows_of([(2, 1)], 2), 2, 4),
        lambda: expand(P("213"), P("21"), 2, 3, 4)),
    "expand: one anchor of several past |eta|": (
        lambda: expand_rows(rows_of([(2, 1, 3)], 3), rows_of([(2, 1)], 2), 2, [1, 4]),
        lambda: expand(P("213"), P("21"), 2, 3, 4)),
    "expand: l = 1": (
        lambda: expand_rows(rows_of([(2, 1, 3)], 3), rows_of([(1,)], 1), 1, 1),
        lambda: expand(P("213"), P("1"), 1, 2, 1)),
    "expand: eta of length 1": (
        lambda: expand_rows(rows_of([(1,)], 1), rows_of([(2, 1)], 2), 2, 1),
        lambda: expand(P("1"), P("21"), 2, 1, 1)),
    "expand: eta not a permutation": (
        lambda: expand_rows(rows_of([(2, 1, 3), (1, 3, 3)], 3), rows_of([(2, 1), (1, 2)], 2), 2, 1),
        lambda: expand(Permutation((1, 3, 3)), P("12"), 2, 1, 1)),
    "expand: rho not a permutation": (
        lambda: expand_rows(rows_of([(2, 1, 3)], 3), rows_of([(1, 1)], 2), 2, 1),
        lambda: expand(P("213"), Permutation((1, 1)), 2, 2, 1)),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_batch_and_scalar_reject_the_same_arguments(case):
    batch, scalar = BAD_ARGUMENTS[case]
    with pytest.raises(DomainError):
        batch()
    # the scalar maps check a permutation when it is built, with ParseError
    with pytest.raises((DomainError, ParseError)):
        scalar()


def test_expand_rows_needs_one_rho_per_eta():
    with pytest.raises(DomainError):
        expand_rows(rows_of([(2, 1, 3), (1, 2, 3)], 3), rows_of([(2, 1)], 2), 2, 1)
