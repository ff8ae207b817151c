"""Identity suites: the enumeration oracle against every closed form.

Each suite returns a SuiteReport whose rows record the instances checked
and the exact values compared.  Formula comparisons get one row per
(n, l, k) instance; exhaustive structural checks (round trips, symmetry
sweeps) aggregate one row per slice with the number of cases covered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import enumeration, formulas, transform
from .perms import (
    EMPTY_PATTERNS,
    SEP,
    ClusterEvent,
    PatternSet,
    Permutation,
    check_conditions,
    complement,
    identity,
    in_cluster_event,
    reverse,
)

S3_PATTERNS = tuple(Permutation(p) for p in itertools.permutations((1, 2, 3)))
S4_PATTERNS = tuple(Permutation(p) for p in itertools.permutations((1, 2, 3, 4)))


@dataclass
class CheckRow:
    suite: str
    instance: str
    expected: str
    actual: str
    passed: bool


@dataclass
class SuiteReport:
    name: str
    rows: list[CheckRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def first_failure(self) -> CheckRow | None:
        return next((r for r in self.rows if not r.passed), None)

    def summary(self) -> str:
        good = sum(r.passed for r in self.rows)
        return f"{self.name}: {good}/{len(self.rows)} checks passed"


def _events(n: int):
    for l in range(2, n):
        for k in range(1, n - l + 2):
            yield l, k


def _brute(table: enumeration.EventTable, l: int, k: int) -> Fraction:
    return Fraction(table.by_lk.get((l, k), 0), table.total)


# ---------------------------------------------------------------------------


def uniform_suite(max_n: int = 8) -> SuiteReport:
    """Brute force over all of S_n versus the uniform product formula."""
    rows = []
    for n in range(3, max_n + 1):
        table = enumeration.event_count_table(n, EMPTY_PATTERNS)
        for l, k in _events(n):
            got = _brute(table, l, k)
            want = formulas.uniform_probability(n, l, k)
            rows.append(CheckRow("uniform", f"n={n} l={l} k={k}", str(want), str(got), got == want))
    return SuiteReport("uniform", rows)


def monotone_exact_suite(max_n: int = 11) -> SuiteReport:
    """Brute force over the 321- and 123-avoiders versus the exact formula."""
    rows = []
    for text in ("321", "123"):
        ps = PatternSet((Permutation(tuple(int(c) for c in text)),))
        for n in range(3, max_n + 1):
            table = enumeration.event_count_table(n, ps)
            for l, k in _events(n):
                got = _brute(table, l, k)
                want = formulas.monotone_cluster_probability(n, l, k)
                rows.append(CheckRow(
                    "thm3", f"avoid={text} n={n} l={l} k={k}", str(want), str(got), got == want
                ))
    return SuiteReport("thm3", rows)


def separable_exact_suite(max_n: int = 11) -> SuiteReport:
    """Brute force over separable permutations versus the product formula,
    including independence of the block start k and the large-n behavior."""
    rows = []
    for n in range(3, max_n + 1):
        table = enumeration.event_count_table(n, SEP)
        for l in range(2, n):
            want = formulas.separable_cluster_probability(n, l)
            for k in range(1, n - l + 2):
                got = _brute(table, l, k)
                rows.append(CheckRow(
                    "thm2", f"n={n} l={l} k={k}", str(want), str(got), got == want
                ))
    for l in range(2, 6):
        lim = formulas.separable_cluster_limit(l)
        lo, hi = lim.bounds(40)
        p300 = formulas.separable_cluster_probability(300, l)
        p50 = formulas.separable_cluster_probability(50, l)
        gap300 = max(abs(p300 - lo), abs(p300 - hi))
        gap50 = min(abs(p50 - lo), abs(p50 - hi))
        rows.append(CheckRow(
            "thm2", f"limit gap l={l} n=300", "< 1/200",
            f"{float(gap300):.3e}", gap300 < Fraction(1, 200),
        ))
        rows.append(CheckRow(
            "thm2", f"limit gap shrinks l={l} (n=300 vs 50)",
            f"< {float(gap50):.3e}", f"{float(gap300):.3e}", gap300 < gap50,
        ))
    return SuiteReport("thm2", rows)


def cluster_free_singleton_suite(max_n: int = 10) -> SuiteReport:
    """Exact product form for the cluster-free singleton classes."""
    rows = []
    for tau in (Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2))):
        ps = PatternSet((tau,))
        for n in range(3, max_n + 1):
            table = enumeration.event_count_table(n, ps)
            for l in range(2, n):
                want = formulas.cluster_free_probability(n, l, ps)
                for k in range(1, n - l + 2):
                    got = _brute(table, l, k)
                    rows.append(CheckRow(
                        "thm1", f"avoid={tau} n={n} l={l} k={k} (exact)",
                        str(want), str(got), got == want,
                    ))
    return SuiteReport("thm1-exact", rows)


def sandwich_suite(max_n: int = 9) -> SuiteReport:
    """Lower and upper bounds around the brute-force probability for every
    pattern of length 3 and 4."""
    rows = []
    for tau in S3_PATTERNS + S4_PATTERNS:
        ps = PatternSet((tau,))
        for n in range(3, max_n + 1):
            table = enumeration.event_count_table(n, ps)
            for l in range(2, n):
                rep = formulas.cluster_probability_bounds(n, l, tau)
                for k in range(1, n - l + 2):
                    got = _brute(table, l, k)
                    ok = got <= rep.upper and (rep.lower is None or rep.lower <= got)
                    lower_s = str(rep.lower) if rep.lower is not None else "(none)"
                    rows.append(CheckRow(
                        "thm1", f"avoid={tau} n={n} l={l} k={k}",
                        f"{lower_s} <= p <= {rep.upper}", str(got), ok,
                    ))
    return SuiteReport("thm1-bounds", rows)


def thm1_suite(max_n: int = 9) -> SuiteReport:
    rows = sandwich_suite(max_n).rows + cluster_free_singleton_suite(max_n).rows
    return SuiteReport("thm1", rows)


def cor2_suite(max_n: int | None = None) -> SuiteReport:
    """Large-n convergence of the exact 321/123 formula to its limits."""
    rows = []
    rows.append(CheckRow(
        "cor2", "limit l=2 fixed k=1", "5/16",
        str(formulas.monotone_cluster_limit(2, formulas.LimitSpec.fixed_k(1))),
        formulas.monotone_cluster_limit(2, formulas.LimitSpec.fixed_k(1)) == Fraction(5, 16),
    ))
    rows.append(CheckRow(
        "cor2", "limit l=3 fixed k=2", "5/64",
        str(formulas.monotone_cluster_limit(3, formulas.LimitSpec.fixed_k(2))),
        formulas.monotone_cluster_limit(3, formulas.LimitSpec.fixed_k(2)) == Fraction(5, 64),
    ))
    rows.append(CheckRow(
        "cor2", "limit l=2 interior", "1/4",
        str(formulas.monotone_cluster_limit(2, formulas.LimitSpec.interior())),
        formulas.monotone_cluster_limit(2, formulas.LimitSpec.interior()) == Fraction(1, 4),
    ))
    for l in range(2, 6):
        for k in range(1, 6):
            lim = formulas.monotone_cluster_limit(l, formulas.LimitSpec.fixed_k(k))
            mirrored = formulas.monotone_cluster_limit(l, formulas.LimitSpec.fixed_right_offset(k))
            rows.append(CheckRow(
                "cor2", f"l={l} k={k} mirrored regime", str(lim), str(mirrored), lim == mirrored
            ))
            gap500 = abs(formulas.monotone_cluster_probability(500, l, k) - lim)
            gap50 = abs(formulas.monotone_cluster_probability(50, l, k) - lim)
            rows.append(CheckRow(
                "cor2", f"gap at n=500 l={l} k={k}", "< 1/200",
                f"{float(gap500):.3e}", gap500 < Fraction(1, 200),
            ))
            rows.append(CheckRow(
                "cor2", f"gap shrinks l={l} k={k} (n=500 vs 50)",
                f"< {float(gap50):.3e}", f"{float(gap500):.3e}", gap500 < gap50,
            ))
            gaps = [abs(formulas.monotone_cluster_probability(n, l, k) - lim)
                    for n in range(20, 501, 20)]
            dec = all(a > b for a, b in zip(gaps, gaps[1:]))
            rows.append(CheckRow(
                "cor2", f"gap decreasing on n=20..500 l={l} k={k}",
                "strictly decreasing", "decreasing" if dec else "not monotone", dec,
            ))
    return SuiteReport("cor2", rows)


# ---------------------------------------------------------------------------
# symmetry


def symmetry_suite(max_n: int = 9) -> SuiteReport:
    rows = []
    ps321 = PatternSet((Permutation((3, 2, 1)),))
    ps123 = PatternSet((Permutation((1, 2, 3)),))
    for n in range(3, max_n + 1):
        t321 = enumeration.event_count_table(n, ps321)
        t123 = enumeration.event_count_table(n, ps123)
        for l, k in _events(n):
            got321, got123 = _brute(t321, l, k), _brute(t123, l, k)
            rows.append(CheckRow(
                "symmetry", f"avoid 321 vs 123: n={n} l={l} k={k}",
                str(got321), str(got123), got321 == got123,
            ))
            kk = n + 2 - k - l
            a_mapped = t123.by_lk.get((l, kk), 0)
            rows.append(CheckRow(
                "symmetry", f"complement map n={n} (l={l},k={k})->(l={l},k={kk})",
                str(t321.by_lk.get((l, k), 0)), str(a_mapped),
                t321.by_lk.get((l, k), 0) == a_mapped,
            ))
    # pointwise window behavior under reverse and complement, exhaustive n=6
    n = 6
    bad = 0
    cases = 0
    for vals in itertools.permutations(range(1, n + 1)):
        p = Permutation(vals)
        for l, k in _events(n):
            ev = ClusterEvent(l, k)
            hit = in_cluster_event(p, ev)
            cases += 2
            if hit != in_cluster_event(reverse(p), ev):
                bad += 1
            if hit != in_cluster_event(complement(p), ClusterEvent(l, n + 2 - k - l)):
                bad += 1
    rows.append(CheckRow("symmetry", f"pointwise reverse/complement n={n}",
                         f"0 of {cases} mismatches", f"{bad} mismatches", bad == 0))
    # reversing maps the 123-avoiders onto the 321-avoiders
    for n in range(2, 7):
        a123 = {p.values for p in enumeration.enumerate_avoiders(n, ps123)}
        a321 = {reverse(p).values for p in enumeration.enumerate_avoiders(n, ps321)}
        rows.append(CheckRow("symmetry", f"reverse bijection n={n}",
                             f"{len(a123)} avoiders", f"{len(a321)} mapped", a123 == a321))
    # count invariance under reversing / complementing the forbidden patterns
    samples = [PatternSet((t,)) for t in S3_PATTERNS]
    samples += [PatternSet((Permutation(v),)) for v in ((1, 3, 4, 2), (1, 2, 3, 4), (2, 4, 1, 3))]
    samples.append(SEP)
    for ps in samples:
        rev = PatternSet(tuple(reverse(t) for t in ps))
        comp = PatternSet(tuple(complement(t) for t in ps))
        for n in range(2, min(max_n, 8) + 1):
            base = enumeration.count_avoiders(n, ps)
            rows.append(CheckRow("symmetry", f"avoid={ps} reversed n={n}",
                                 str(base), str(enumeration.count_avoiders(n, rev)),
                                 base == enumeration.count_avoiders(n, rev)))
            rows.append(CheckRow("symmetry", f"avoid={ps} complemented n={n}",
                                 str(base), str(enumeration.count_avoiders(n, comp)),
                                 base == enumeration.count_avoiders(n, comp)))
    return SuiteReport("symmetry", rows)


# ---------------------------------------------------------------------------
# the contraction / expansion toolkit


def _count_containing(values: list[tuple[int, ...]], tau: Permutation) -> int:
    if not values:
        return 0
    arr = np.array(values, dtype=np.int8)
    return int(enumeration.contains_pattern_rows(arr, tau).sum())


def _etas_with_value_at(n_eta: int, k: int, a: int):
    others = [v for v in range(1, n_eta + 1) if v != k]
    for rest in itertools.permutations(others):
        yield rest[: a - 1] + (k,) + rest[a - 1 :]


def _round_trip_rows(max_n: int) -> list[CheckRow]:
    rows = []
    for n in range(3, max_n + 1):
        checked = 0
        failures = 0
        detail = ""
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            for l in range(2, n):
                for a0 in range(n - l + 1):
                    w = vals[a0 : a0 + l]
                    lo = min(w)
                    if max(w) - lo != l - 1:
                        continue
                    eta = transform.contract(p, l, lo, a0 + 1)
                    back = transform.expand(eta, transform.flatten(w), l, lo, a0 + 1)
                    checked += 1
                    if back != p:
                        failures += 1
                        detail = detail or f" first: {p} (l={l},k={lo},a={a0 + 1})"
        rows.append(CheckRow("transform", f"round trips n={n}",
                             f"{checked} windows restore sigma",
                             f"{failures} failures{detail}", failures == 0))
    return rows


def _injectivity_rows(max_n: int) -> list[CheckRow]:
    import math as _math

    rows = []
    for n in range(3, max_n + 1):
        total = 0
        ok = True
        detail = ""
        for l in range(2, n):
            n_eta = n - l + 1
            rhos = [Permutation(r) for r in itertools.permutations(range(1, l + 1))]
            expected = _math.factorial(n - l) * _math.factorial(l)
            for k in range(1, n_eta + 1):
                for a in range(1, n_eta + 1):
                    outs = set()
                    built = 0
                    for eta_vals in _etas_with_value_at(n_eta, k, a):
                        eta = Permutation(eta_vals)
                        for rho in rhos:
                            out = transform.expand(eta, rho, l, k, a)
                            wnd = out.values[a - 1 : a - 1 + l]
                            if min(wnd) != k or max(wnd) != k + l - 1:
                                ok = False
                                detail = detail or f" not anchored: eta={eta} rho={rho} (l={l},k={k},a={a})"
                            outs.add(out.values)
                            built += 1
                    total += built
                    if len(outs) != expected or built != expected:
                        ok = False
                        detail = detail or f" collision at (l={l},k={k},a={a})"
        rows.append(CheckRow("transform", f"expansion injective and anchored n={n}",
                             f"{total} expansions, all distinct", f"ok={ok}{detail}", ok))
    return rows


def _monotone_preservation_rows(max_n: int) -> list[CheckRow]:
    rows = []
    for tau in S3_PATTERNS + S4_PATTERNS:
        conds = check_conditions(tau)
        if conds.tight12 and conds.tight21:
            continue
        ps = PatternSet((tau,))
        for n in range(3, max_n + 1):
            outputs: list[tuple[int, ...]] = []
            for l in range(2, n):
                rhos = []
                if not conds.tight12:
                    rhos.append(identity(l))
                if not conds.tight21:
                    rhos.append(reverse(identity(l)))
                etas = list(enumeration.enumerate_avoiders(n - l + 1, ps))
                for eta in etas:
                    for a in range(1, n - l + 2):
                        k = eta.values[a - 1]
                        for rho in rhos:
                            outputs.append(transform.expand(eta, rho, l, k, a).values)
            hits = _count_containing(outputs, tau)
            rows.append(CheckRow(
                "transform", f"monotone window keeps avoidance: tau={tau} n={n}",
                f"0 of {len(outputs)} contain the pattern", f"{hits} contain it", hits == 0,
            ))
    return rows


def _cluster_free_expansion_rows(max_n: int, l_cap: int | None = None) -> list[CheckRow]:
    rows = []
    for tau in (Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2))):
        ps = PatternSet((tau,))
        for n in range(3, max_n + 1):
            keep: list[tuple[int, ...]] = []
            kill: list[tuple[int, ...]] = []
            for l in range(2, n):
                if l_cap is not None and l > l_cap:
                    continue
                good = list(enumeration.enumerate_avoiders(l, ps))
                good_set = {r.values for r in good}
                bad = [Permutation(r) for r in itertools.permutations(range(1, l + 1))
                       if r not in good_set]
                etas = list(enumeration.enumerate_avoiders(n - l + 1, ps))
                for eta in etas:
                    for a in range(1, n - l + 2):
                        k = eta.values[a - 1]
                        for rho in good:
                            keep.append(transform.expand(eta, rho, l, k, a).values)
                        for rho in bad:
                            kill.append(transform.expand(eta, rho, l, k, a).values)
            kept_bad = _count_containing(keep, tau)
            killed_ok = len(kill) - _count_containing(kill, tau)
            rows.append(CheckRow(
                "transform", f"cluster-free expansion preserves: tau={tau} n={n}",
                f"0 of {len(keep)} contain the pattern", f"{kept_bad} contain it", kept_bad == 0,
            ))
            rows.append(CheckRow(
                "transform", f"forbidden window destroys: tau={tau} n={n}",
                f"0 of {len(kill)} still avoid", f"{killed_ok} still avoid", killed_ok == 0,
            ))
    return rows


def _contract_monotone_rows(max_n: int, patterns=None) -> list[CheckRow]:
    rows = []
    for tau in patterns or (S3_PATTERNS + S4_PATTERNS):
        ps = PatternSet((tau,))
        for n in range(3, max_n + 1):
            avoiders = list(enumeration.enumerate_avoiders(n, ps))
            arr = np.array([p.values for p in avoiders], dtype=np.int8).reshape(-1, n)
            contracted: list[tuple[int, ...]] = []
            for l, cluster, cmin in enumeration.cluster_windows(arr):
                ridx, aidx = np.nonzero(cluster)
                for r, a0 in zip(ridx.tolist(), aidx.tolist()):
                    k = int(cmin[r, a0])
                    contracted.append(transform.contract(avoiders[r], l, k, a0 + 1).values)
            hits = sum(
                _count_containing(group, tau)
                for width, group in _group_by_len(contracted).items()
            )
            rows.append(CheckRow(
                "transform", f"contraction keeps avoidance: tau={tau} n={n}",
                f"0 of {len(contracted)} contain the pattern", f"{hits} contain it", hits == 0,
            ))
    return rows


def _group_by_len(tuples: list[tuple[int, ...]]) -> dict[int, list[tuple[int, ...]]]:
    out: dict[int, list[tuple[int, ...]]] = {}
    for t in tuples:
        out.setdefault(len(t), []).append(t)
    return out


def transform_suite(max_n: int = 8) -> SuiteReport:
    rows = _round_trip_rows(max_n)
    rows += _injectivity_rows(max_n)
    rows += _monotone_preservation_rows(max_n)
    rows += _cluster_free_expansion_rows(max_n)
    rows += _contract_monotone_rows(max_n, patterns=S3_PATTERNS
                                    + (Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2))))
    return SuiteReport("transform", rows)


# ---------------------------------------------------------------------------

SUITES: dict[str, tuple] = {
    "uniform": (uniform_suite, 8),
    "thm1": (thm1_suite, 9),
    "thm2": (separable_exact_suite, 11),
    "thm3": (monotone_exact_suite, 11),
    "cor2": (cor2_suite, None),
    "symmetry": (symmetry_suite, 9),
    "transform": (transform_suite, 8),
}


def run_suite(name: str, max_n: int | None = None) -> SuiteReport:
    func, default = SUITES[name]
    if default is None:
        return func()
    return func(max_n if max_n is not None else default)


def run_all(max_n: int | None = None) -> list[SuiteReport]:
    """Every suite, each at its default size capped by max_n."""
    reports = []
    for name, (_, default) in SUITES.items():
        cap = max_n if max_n is None or default is None else min(default, max_n)
        reports.append(run_suite(name, cap))
    return reports
