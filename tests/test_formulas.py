import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import assert_value_semantics

from permcluster import (
    SEP,
    ApplicabilityError,
    DomainError,
    LimitSpec,
    PatternSet,
    Permutation,
    Sqrt2Number,
    catalan,
    cluster_free_probability,
    cluster_limit_report,
    cluster_probability_bounds,
    identity,
    monotone_cluster_limit,
    monotone_cluster_probability,
    parse_permutation,
    sep_count,
    separable_cluster_limit,
    separable_cluster_probability,
    stanley_wilf_limit,
    uniform_probability,
    union_asymptotic_ratio,
)
from permcluster.formulas import SEP_GROWTH, SEP_RATE


def ps_of(*texts):
    return PatternSet(tuple(parse_permutation(t) for t in texts))


# ---------------------------------------------------------------------------
# counts


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(12) == 208012
    with pytest.raises(DomainError):
        catalan(-1)


def test_sep_count_values():
    assert sep_count(3) == 6
    assert sep_count(4) == 22
    assert sep_count(7) == 1806
    with pytest.raises(DomainError):
        sep_count(0)


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt 2)


def test_sqrt2_number_algebra():
    one = SEP_RATE * SEP_GROWTH
    assert one == Sqrt2Number(Fraction(1), Fraction(0))
    sq = SEP_RATE**2
    assert sq == Sqrt2Number(Fraction(17), Fraction(-12))
    assert abs(float(SEP_GROWTH) - 5.82842712474619) < 1e-12
    assert str(SEP_RATE) == "3 - 2*sqrt(2)"


def test_sqrt2_bounds_nest_and_shrink():
    for x in (SEP_RATE, SEP_GROWTH, SEP_RATE**5, Sqrt2Number(Fraction(0), Fraction(-3))):
        lo25, hi25 = x.bounds(25)
        lo35, hi35 = x.bounds(35)
        assert lo25 <= lo35 <= hi35 <= hi25
        assert hi25 - lo25 < Fraction(1, 10**20)
    assert Sqrt2Number(Fraction(3), Fraction(0)).bounds(10) == (Fraction(3), Fraction(3))
    lo, hi = SEP_RATE.bounds(20)
    assert 0 < lo < hi < 1


# ---------------------------------------------------------------------------
# finite-n probabilities


def test_uniform_probability_values():
    assert uniform_probability(4, 2, 1) == Fraction(1, 2)
    assert uniform_probability(3, 2, 2) == Fraction(2, 3)
    assert uniform_probability(5, 4, 1) == Fraction(2, 5)  # n = l + 1 boundary
    with pytest.raises(DomainError):
        uniform_probability(4, 4, 1)
    with pytest.raises(DomainError):
        uniform_probability(4, 2, 4)


def test_uniform_probability_k_independent():
    for n in range(3, 9):
        for l in range(2, n):
            vals = {uniform_probability(n, l, k) for k in range(1, n - l + 2)}
            assert len(vals) == 1


def test_monotone_probability_values():
    assert monotone_cluster_probability(5, 2, 1) == Fraction(19, 42)
    assert monotone_cluster_probability(12, 2, 1) == Fraction(75582, 208012)
    assert monotone_cluster_probability(12, 2, 1) == Fraction(catalan(11) + catalan(10), catalan(12))


@given(st.integers(3, 40), st.data())
def test_monotone_probability_symmetric_in_k(n, data):
    l = data.draw(st.integers(2, n - 1))
    k = data.draw(st.integers(1, n - l + 1))
    assert monotone_cluster_probability(n, l, k) == monotone_cluster_probability(n, l, n + 2 - k - l)


def test_separable_probability_values():
    assert separable_cluster_probability(4, 2) == Fraction(6, 11)
    assert separable_cluster_probability(5, 4) == Fraction(22, 45)
    assert separable_cluster_probability(3, 2) == Fraction(2, 3)


def test_cluster_free_probability():
    assert cluster_free_probability(6, 2, ps_of("2413")) == Fraction(103 * 2, 512)
    for n in range(3, 8):
        for l in range(2, n):
            assert cluster_free_probability(n, l, SEP) == separable_cluster_probability(n, l)
    with pytest.raises(ApplicabilityError):
        cluster_free_probability(6, 2, ps_of("321"))


# ---------------------------------------------------------------------------
# finite-n bounds


def test_bounds_tight_analysis():
    rep = cluster_probability_bounds(6, 2, parse_permutation("321"))
    assert rep.lower_factor == 1 and rep.tight21 and not rep.tight12
    rep = cluster_probability_bounds(6, 2, parse_permutation("2413"))
    assert rep.lower_factor == 2 and rep.lower == 2 * Fraction(103, 512)
    rep = cluster_probability_bounds(6, 2, parse_permutation("123"))
    assert rep.upper == Fraction(catalan(5) * catalan(2), catalan(6))
    rep = cluster_probability_bounds(6, 2, parse_permutation("1243"))
    assert rep.lower is None and rep.lower_factor is None


def test_bounds_ordering():
    for tau_text in ("321", "123", "2413", "1342"):
        rep = cluster_probability_bounds(7, 3, parse_permutation(tau_text))
        if rep.lower is not None:
            assert rep.lower <= rep.upper


# ---------------------------------------------------------------------------
# growth constants


def test_stanley_wilf_known_classes():
    for p in itertools.permutations((1, 2, 3)):
        sw = stanley_wilf_limit(PatternSet((Permutation(p),)))
        assert sw.known and sw.value == 4
    sw = stanley_wilf_limit(PatternSet((identity(5),)))
    assert sw.known and sw.value == 16
    sw = stanley_wilf_limit(ps_of("1342"))
    assert sw.known and sw.value == 8
    sw = stanley_wilf_limit(SEP)
    assert sw.known and abs(sw.approx - 5.828427124746) < 1e-9


def test_stanley_wilf_never_guesses():
    for text in ("2413", "4231", "3142", "2143"):
        sw = stanley_wilf_limit(ps_of(text))
        assert not sw.known and sw.value is None and sw.approx is None
    assert not stanley_wilf_limit(ps_of("321", "1234")).known


def test_stanley_wilf_approx_matches_exact():
    for ps in [ps_of("321"), ps_of("1342"), PatternSet((identity(6),)), SEP]:
        sw = stanley_wilf_limit(ps)
        assert abs(sw.approx - float(sw.value)) < 1e-12


# ---------------------------------------------------------------------------
# limits


def test_limit_spec_validation():
    with pytest.raises(DomainError):
        LimitSpec("fixed-k")
    with pytest.raises(DomainError):
        LimitSpec("interior", 3)
    with pytest.raises(DomainError):
        LimitSpec("sideways", 1)


def test_monotone_limits():
    assert monotone_cluster_limit(2, LimitSpec.fixed_k(1)) == Fraction(5, 16)
    assert monotone_cluster_limit(3, LimitSpec.fixed_k(2)) == Fraction(5, 64)
    assert monotone_cluster_limit(2, LimitSpec.interior()) == Fraction(1, 4)
    for l in range(2, 7):
        for k in range(1, 7):
            assert monotone_cluster_limit(l, LimitSpec.fixed_k(k)) == monotone_cluster_limit(
                l, LimitSpec.fixed_right_offset(k)
            )
    with pytest.raises(DomainError):
        monotone_cluster_limit(1, LimitSpec.interior())


def test_separable_limits():
    lim = separable_cluster_limit(2)
    assert lim.coefficient == 2 and lim.power == 1
    assert abs(lim.approx - 2 * (3 - 2 * math.sqrt(2))) < 1e-12
    assert separable_cluster_limit(3).symbolic() == "6*(3-2*sqrt(2))^2"
    assert separable_cluster_limit(4).symbolic() == "22*(3-2*sqrt(2))^3"
    lo, hi = separable_cluster_limit(4).bounds(30)
    assert lo < hi
    assert abs(separable_cluster_limit(4).approx - float((lo + hi) / 2)) < 1e-12


def test_limit_report_321():
    rep = cluster_limit_report(parse_permutation("321"), 3)
    assert rep.upper == Fraction(5, 16)
    assert rep.lower == Fraction(1, 16)
    assert rep.exact is None
    assert rep.limit_used == 4


def test_limit_report_supplied_constant():
    L = 5.83
    rep = cluster_limit_report(parse_permutation("2413"), 3, sw_limit=L)
    assert rep.exact is not None and abs(rep.exact - 6 / L**2) < 1e-12
    rep4 = cluster_limit_report(parse_permutation("2413"), 4, sw_limit=L)
    assert abs(rep4.exact - 23 / L**3) < 1e-12
    assert rep4.lower is not None and rep4.lower_factor == 2


def test_limit_report_unknown_constant():
    rep = cluster_limit_report(parse_permutation("2413"), 3)
    assert rep.upper is None and rep.exact is None and rep.lower is None
    assert "unknown" in rep.note


def test_limit_report_small_window_count_matches_factorial_rule():
    # |S_l(tau)| is l! below the pattern length and m! - 1 at it
    rep = cluster_limit_report(parse_permutation("2413"), 3, sw_limit=2.0)
    assert abs(rep.exact - math.factorial(3) / 2.0**2) < 1e-12
    rep = cluster_limit_report(parse_permutation("2413"), 4, sw_limit=2.0)
    assert abs(rep.exact - (math.factorial(4) - 1) / 2.0**3) < 1e-12


def test_limit_report_condition_gating():
    # 23154 has both tight pairs, no extreme end, and is too short for the
    # end-block condition: no clause supports the upper bound
    rep = cluster_limit_report(parse_permutation("23154"), 3, sw_limit=6.0)
    assert not (rep.conditions.c1 or rep.conditions.c2 or rep.conditions.c3)
    assert rep.upper is None and rep.lower is None and rep.exact is None
    # 236154 fails c1/c2 but its ends form a block with one tight pair each:
    # the upper bound applies, the lower does not
    rep = cluster_limit_report(parse_permutation("236154"), 3, sw_limit=6.0)
    assert rep.conditions.c3 and not rep.conditions.c1 and not rep.conditions.c2
    assert rep.upper is not None and abs(rep.upper - 6 / 6.0**2) < 1e-12
    assert rep.lower is None and rep.exact is None


def test_fixed_right_offset_matches_finite_n():
    # the mirrored regime pins n + 2 - k - l; its limit is approached by
    # the finite-n values at k = n + 2 - k' - l
    for l in (2, 3):
        for kp in (1, 2):
            lim = monotone_cluster_limit(l, LimitSpec.fixed_right_offset(kp))
            n = 400
            finite = monotone_cluster_probability(n, l, n + 2 - kp - l)
            assert abs(finite - lim) < Fraction(1, 200)


@given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
def test_sqrt2_arithmetic_identities(a1, b1, a2, b2):
    x, y = Sqrt2Number(a1, b1), Sqrt2Number(a2, b2)
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y
    assert x**3 == x * x * x
    norm = x * Sqrt2Number(a1, -b1)
    assert norm == Sqrt2Number(a1 * a1 - 2 * b1 * b1, Fraction(0))


# ---------------------------------------------------------------------------
# the union-event scale


def test_union_ratio_range_checks():
    with pytest.raises(DomainError):
        union_asymptotic_ratio(7, 2)
    with pytest.raises(DomainError):
        union_asymptotic_ratio(4, 4)


def test_union_ratio_small_value():
    r = union_asymptotic_ratio(6, 3)
    assert 0 < r < 10
    assert union_asymptotic_ratio(6, 5) > 0  # l = n - 1 boundary accepted


# ---------------------------------------------------------------------------
# value types and report records


_P1342 = parse_permutation("1342")


@pytest.mark.parametrize("make,unequal,text", [
    (lambda: Sqrt2Number(3, -2), Sqrt2Number(3, 2), "Sqrt2Number(a=Fraction(3, 1), b=Fraction(-2, 1))"),
    (lambda: LimitSpec.fixed_k(2), LimitSpec.fixed_right_offset(2), "LimitSpec(mode='fixed-k', k=2)"),
    (lambda: LimitSpec.interior(), LimitSpec.fixed_k(1), "LimitSpec(mode='interior', k=None)"),
    (lambda: stanley_wilf_limit(PatternSet((_P1342,))), stanley_wilf_limit(SEP),
     "SWConstant(label='1342', known=True, value=8, approx=8.0, source='class of 1342')"),
    (lambda: separable_cluster_limit(3), separable_cluster_limit(4),
     "SeparableClusterLimit(l=3, coefficient=6, power=2, "
     "value=Sqrt2Number(a=Fraction(102, 1), b=Fraction(-72, 1)))"),
    (lambda: cluster_probability_bounds(6, 3, _P1342), cluster_probability_bounds(7, 3, _P1342),
     "BoundReport(pattern=Permutation('1342'), n=6, l=3, upper=Fraction(69, 256), lower=Fraction(23, 512), "
     "lower_factor=1, tight12=True, tight21=False, note='lower factor 1: one tight pair present')"),
    (lambda: cluster_limit_report(_P1342, 3), cluster_limit_report(_P1342, 4),
     "ClusterLimitReport(pattern=Permutation('1342'), l=3, conditions=ConditionReport(c1=True, c2=True, "
     "c3=False, tight12=True, tight21=False, cluster_free=False), sw=SWConstant(label='1342', known=True, "
     "value=8, approx=8.0, source='class of 1342'), limit_used=8, upper=Fraction(3, 32), exact=None, "
     "lower=Fraction(1, 64), lower_factor=1, note='conditions held: c1,c2; cluster-free: False')"),
], ids=["Sqrt2Number", "LimitSpec-fixed", "LimitSpec-interior", "SWConstant", "SeparableClusterLimit",
        "BoundReport", "ClusterLimitReport"])
def test_value_types_and_records_keep_their_semantics(make, unequal, text):
    assert_value_semantics(make(), make(), unequal, text)


def test_limit_spec_and_sqrt2_differ_from_the_tuples_of_their_fields():
    assert LimitSpec.fixed_k(2) != ("fixed-k", 2)
    assert Sqrt2Number(3, 0) != (3, 0) and Sqrt2Number(3, 0) != 3


def test_verification_rows_are_records():
    from permcluster.verify import CheckRow, SuiteReport

    row = CheckRow("cor2", "l=2", "1/4", "1/4", True)
    assert_value_semantics(row, CheckRow("cor2", "l=2", "1/4", "1/4", True), row._replace(passed=False),
                           "CheckRow(suite='cor2', instance='l=2', expected='1/4', actual='1/4', passed=True)")
    report = SuiteReport("cor2", [row, row._replace(passed=False)])
    assert not report.passed and report.first_failure() is report.rows[1]
