"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances, printing one pass/fail line each.

Brute-force sides always come from the enumeration tables; closed forms
come from the formulas module.  Equality checks are exact rationals with
zero tolerance; the two convergence criteria use the stated 0.005 gap (the
measured worst gaps are 0.00113 at n=500 and 0.00179 at n=300, so a
tightened 0.002 is asserted as well).
"""

import math
import time
from fractions import Fraction

from permcluster import (
    EMPTY_PATTERNS,
    LimitSpec,
    PatternSet,
    Permutation,
    catalan,
    monotone_cluster_limit,
    monotone_cluster_probability,
    separable_cluster_limit,
    separable_cluster_probability,
    union_asymptotic_ratio,
)
from permcluster import enumeration, verify


def _check(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {cid:>2} {status}: {description}{suffix}")
    assert ok, f"criterion {cid}: {description}{suffix}"


def test_criterion_01_monotone_exact_formula():
    t0 = time.monotonic()
    rep = verify.monotone_exact_suite(11)
    elapsed = time.monotonic() - t0
    bad = rep.first_failure()
    _check(
        1,
        "exact 321/123 cluster formula vs brute force, n <= 11, all (l, k), zero tolerance",
        rep.passed and elapsed < 120,
        f"{len(rep.rows)} instances in {elapsed:.1f}s" + (f"; first failure {bad.instance}" if bad else ""),
    )


def test_criterion_02_separable_exact_formula():
    t0 = time.monotonic()
    rep = verify.separable_exact_suite(11)
    elapsed = time.monotonic() - t0
    bad = rep.first_failure()
    _check(
        2,
        "separable product formula vs brute force with k-independence, n <= 11, zero tolerance",
        rep.passed and elapsed < 300,
        f"{len(rep.rows)} instances in {elapsed:.1f}s" + (f"; first failure {bad.instance}" if bad else ""),
    )


def test_criterion_03_cluster_free_singletons():
    rep = verify.cluster_free_singleton_suite(10)
    bad = rep.first_failure()
    _check(
        3,
        "product formula exact for the cluster-free singletons 2413 and 3142, n <= 10",
        rep.passed,
        f"{len(rep.rows)} instances" + (f"; first failure {bad.instance}" if bad else ""),
    )


def test_criterion_04_sandwich_bounds():
    rep = verify.sandwich_suite(9)
    bad = rep.first_failure()
    _check(
        4,
        "lower <= brute-force probability <= upper for all 30 patterns of length 3 and 4, n <= 9",
        rep.passed,
        f"{len(rep.rows)} instances" + (f"; first failure {bad.instance}" if bad else ""),
    )


def test_criterion_05_uniform_formula():
    rep = verify.uniform_suite(8)
    bad = rep.first_failure()
    _check(
        5,
        "uniform cluster probability equals (n-l+1) l! (n-l)! / n! for n <= 8, all (l, k)",
        rep.passed,
        f"{len(rep.rows)} instances" + (f"; first failure {bad.instance}" if bad else ""),
    )


def test_criterion_06_catalan_and_factorial_counts():
    import itertools

    ok = True
    detail = ""
    for p in itertools.permutations((1, 2, 3)):
        ps = PatternSet((Permutation(p),))
        for n in range(1, 11):
            if enumeration.fresh_count(n, ps) != catalan(n):
                ok, detail = False, f"avoid={Permutation(p)} n={n}"
                break
    for n in range(1, 9):
        if enumeration.fresh_table(n, EMPTY_PATTERNS).total != math.factorial(n):
            ok, detail = False, f"unrestricted n={n}"
    _check(
        6,
        "enumerated |S_n(tau)| = C_n for all six length-3 patterns, n <= 10; |S_n| = n! for n <= 8",
        ok,
        detail or "60 Catalan counts + 8 factorials",
    )


def test_criterion_07_monotone_limit_convergence():
    tol = Fraction(1, 200)
    tightened = Fraction(1, 500)
    ok = True
    worst = Fraction(0)
    for l in range(2, 6):
        for k in range(1, 6):
            lim = monotone_cluster_limit(l, LimitSpec.fixed_k(k))
            gap500 = abs(monotone_cluster_probability(500, l, k) - lim)
            gap50 = abs(monotone_cluster_probability(50, l, k) - lim)
            worst = max(worst, gap500)
            ok = ok and gap500 < tol and gap500 < tightened and gap500 < gap50
    _check(
        7,
        "|finite-n 321/123 probability - fixed-k limit| < 0.005 at n=500 and below the n=50 gap, l,k <= 5",
        ok,
        f"worst gap {float(worst):.2e}",
    )


def test_criterion_08_separable_limit_convergence():
    tol = Fraction(1, 200)
    tightened = Fraction(1, 500)
    ok = True
    worst = 0.0
    for l in range(2, 6):
        lo, hi = separable_cluster_limit(l).bounds(40)
        p300 = separable_cluster_probability(300, l)
        p50 = separable_cluster_probability(50, l)
        gap300 = max(abs(p300 - lo), abs(p300 - hi))
        gap50 = min(abs(p50 - lo), abs(p50 - hi))
        worst = max(worst, float(gap300))
        ok = ok and gap300 < tol and gap300 < tightened and gap300 < gap50
    _check(
        8,
        "|separable probability at n=300 - limit| < 0.005 and below the n=50 gap, l <= 5",
        ok,
        f"worst gap {worst:.2e}",
    )


def test_criterion_09_union_scale_trend():
    r7 = union_asymptotic_ratio(7, 3)
    r10 = union_asymptotic_ratio(10, 3)
    _check(
        9,
        "rescaled union probability closer to 1 at n=10 than at n=7 (exhaustive scans)",
        abs(r10 - 1) < abs(r7 - 1),
        f"n=7: {r7:.4f}, n=10: {r10:.4f}",
    )


def test_criterion_10_transform_suite():
    rep = verify.transform_suite(8)
    bad = rep.first_failure()
    _check(
        10,
        "contraction/expansion round trips, injectivity, avoidance preservation and destruction, n <= 8",
        rep.passed,
        f"{len(rep.rows)} check groups" + (f"; first failure {bad.instance}" if bad else ""),
    )


def test_criterion_11_symmetry_suite():
    rep = verify.symmetry_suite(9)
    bad = rep.first_failure()
    _check(
        11,
        "reverse/complement equalities and the event index map k -> n-k-l+2, n <= 9",
        rep.passed,
        f"{len(rep.rows)} instances" + (f"; first failure {bad.instance}" if bad else ""),
    )
