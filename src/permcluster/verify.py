"""Identity suites: the enumeration oracle against every closed form.

Each suite returns a SuiteReport whose rows record the instances checked
and the exact values compared.  Formula comparisons get one row per
(n, l, k) instance; exhaustive structural checks (round trips, symmetry
sweeps) aggregate one row per slice with the number of cases covered.

`run_suites` (and so `run_suite`, `run_all` and the CLI's `verify`) cuts
the suites into units by class: one unit per pattern of each pattern
loop, whose class is that pattern, and one unit for each block without
one (all of S_n: `uniform`, and the round trips and injectivity of
`transform`; the separable class, `thm2`; `cor2`; `symmetry`).
`growth.run_parts` deals whole classes to up to `jobs` processes, forked
from this one after numpy, the growth engine and the closed forms are
imported, so that the units of a class, and the levels that growth keeps
of it, stay in one process.  The rows are put back in the order that one
process gives, so no report depends on `jobs`.  The symmetry block grows
again some classes that other units grow, in whichever process takes it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import enumeration, formulas, growth, transform
from .perms import (
    EMPTY_PATTERNS,
    SEP,
    ClusterEvent,
    PatternSet,
    Permutation,
    check_conditions,
    complement,
    reverse,
)

S3_PATTERNS = tuple(Permutation(p) for p in itertools.permutations((1, 2, 3)))
S4_PATTERNS = tuple(Permutation(p) for p in itertools.permutations((1, 2, 3, 4)))
CLUSTER_FREE_4 = (Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2)))
MONOTONE_3 = (Permutation((3, 2, 1)), Permutation((1, 2, 3)))


class CheckRow(NamedTuple):
    suite: str
    instance: str
    expected: str
    actual: str
    passed: bool


class SuiteReport(NamedTuple):
    name: str
    rows: list[CheckRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def first_failure(self) -> CheckRow | None:
        return next((r for r in self.rows if not r.passed), None)


def _events(n: int):
    for l in range(2, n):
        for k in range(1, n - l + 2):
            yield l, k


def _table_rows(suite: str, ps: PatternSet, max_n: int, instance: str, check,
                tables=enumeration.event_count_table) -> list[CheckRow]:
    """One row per (n, l, k) for n = 3..max_n: the brute-force probability
    read from the event table of S_n(ps) against a closed form.

    `instance` is a str.format template over ps, n, l and k.  check(n, l)
    is evaluated once per (n, l) and returns judge(k, got) -> (expected
    text, passed).  tables(n, ps) gives the table: the lookup by default,
    and `enumeration.fresh_table` for S_n and the separable class, whose
    lookup would answer from the substitution decomposition from n = 10
    on, a closed form and no brute force.
    """
    rows = []
    for n in range(3, max_n + 1):
        table = tables(n, ps)
        for l in range(2, n):
            judge = check(n, l)
            for k in range(1, n - l + 2):
                got = table.probability(ClusterEvent(l, k))
                expected, ok = judge(k, got)
                rows.append(CheckRow(suite, instance.format(ps=ps, n=n, l=l, k=k),
                                     expected, str(got), ok))
    return rows


def _equals(want):
    """A judge requiring the brute-force value to equal want(k)."""
    def judge(k: int, got: Fraction) -> tuple[str, bool]:
        value = want(k)
        return str(value), got == value
    return judge


# ---------------------------------------------------------------------------


def uniform_suite(max_n: int = 8) -> SuiteReport:
    """Brute force over all of S_n versus the uniform product formula."""
    return SuiteReport("uniform", _table_rows(
        "uniform", EMPTY_PATTERNS, max_n, "n={n} l={l} k={k}",
        lambda n, l: _equals(lambda k: formulas.uniform_probability(n, l, k)), enumeration.fresh_table,
    ))


def monotone_exact_suite(max_n: int = 11, patterns: tuple[Permutation, ...] = MONOTONE_3) -> SuiteReport:
    """Brute force over the 321- and 123-avoiders versus the exact formula."""
    rows = []
    for tau in patterns:
        rows += _table_rows(
            "thm3", PatternSet((tau,)), max_n, "avoid={ps} n={n} l={l} k={k}",
            lambda n, l: _equals(lambda k: formulas.monotone_cluster_probability(n, l, k)),
        )
    return SuiteReport("thm3", rows)


def separable_exact_suite(max_n: int = 11) -> SuiteReport:
    """Brute force over separable permutations versus the product formula,
    including independence of the block start k and the large-n behavior."""
    def check(n, l):
        want = formulas.separable_cluster_probability(n, l)
        return _equals(lambda k: want)

    rows = _table_rows("thm2", SEP, max_n, "n={n} l={l} k={k}", check, enumeration.fresh_table)
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


def cluster_free_singleton_suite(max_n: int = 10,
                                 patterns: tuple[Permutation, ...] = CLUSTER_FREE_4) -> SuiteReport:
    """Exact product form for the cluster-free singleton classes."""
    rows = []
    for tau in patterns:
        ps = PatternSet((tau,))

        def check(n, l):
            want = formulas.cluster_free_probability(n, l, ps)
            return _equals(lambda k: want)

        rows += _table_rows("thm1", ps, max_n, "avoid={ps} n={n} l={l} k={k} (exact)", check)
    return SuiteReport("thm1-exact", rows)


def sandwich_suite(max_n: int = 9, patterns: tuple[Permutation, ...] = S3_PATTERNS + S4_PATTERNS) -> SuiteReport:
    """Lower and upper bounds around the brute-force probability for every
    pattern of length 3 and 4."""
    rows = []
    for tau in patterns:
        def check(n, l):
            rep = formulas.cluster_probability_bounds(n, l, tau)
            lower_s = str(rep.lower) if rep.lower is not None else "(none)"
            expected = f"{lower_s} <= p <= {rep.upper}"
            return lambda k, got: (
                expected, got <= rep.upper and (rep.lower is None or rep.lower <= got)
            )

        rows += _table_rows("thm1", PatternSet((tau,)), max_n, "avoid={ps} n={n} l={l} k={k}", check)
    return SuiteReport("thm1-bounds", rows)


def thm1_suite(max_n: int = 9, bounds: tuple[Permutation, ...] = S3_PATTERNS + S4_PATTERNS,
               exact: tuple[Permutation, ...] = CLUSTER_FREE_4) -> SuiteReport:
    """The sandwich rows of the patterns `bounds`, then the exact rows of
    the cluster-free patterns `exact`."""
    rows = sandwich_suite(max_n, bounds).rows + cluster_free_singleton_suite(max_n, exact).rows
    return SuiteReport("thm1", rows)


def cor2_suite(max_n: int | None = None) -> SuiteReport:
    """Large-n convergence of the exact 321/123 formula to its limits."""
    rows = []
    for instance, l, spec, want in (
        ("limit l=2 fixed k=1", 2, formulas.LimitSpec.fixed_k(1), Fraction(5, 16)),
        ("limit l=3 fixed k=2", 3, formulas.LimitSpec.fixed_k(2), Fraction(5, 64)),
        ("limit l=2 interior", 2, formulas.LimitSpec.interior(), Fraction(1, 4)),
    ):
        got = formulas.monotone_cluster_limit(l, spec)
        rows.append(CheckRow("cor2", instance, str(want), str(got), got == want))
    for l in range(2, 6):
        for k in range(1, 6):
            lim = formulas.monotone_cluster_limit(l, formulas.LimitSpec.fixed_k(k))
            mirrored = formulas.monotone_cluster_limit(l, formulas.LimitSpec.fixed_right_offset(k))
            rows.append(CheckRow(
                "cor2", f"l={l} k={k} mirrored regime", str(lim), str(mirrored), lim == mirrored
            ))
            gaps = [abs(formulas.monotone_cluster_probability(n, l, k) - lim)
                    for n in range(20, 501, 20)]
            gap500 = gaps[-1]
            gap50 = abs(formulas.monotone_cluster_probability(50, l, k) - lim)
            rows.append(CheckRow(
                "cor2", f"gap at n=500 l={l} k={k}", "< 1/200",
                f"{float(gap500):.3e}", gap500 < Fraction(1, 200),
            ))
            rows.append(CheckRow(
                "cor2", f"gap shrinks l={l} k={k} (n=500 vs 50)",
                f"< {float(gap50):.3e}", f"{float(gap500):.3e}", gap500 < gap50,
            ))
            dec = all(a > b for a, b in zip(gaps, gaps[1:]))
            rows.append(CheckRow(
                "cor2", f"gap decreasing on n=20..500 l={l} k={k}",
                "strictly decreasing", "decreasing" if dec else "not monotone", dec,
            ))
    return SuiteReport("cor2", rows)


# ---------------------------------------------------------------------------
# symmetry


def _cluster_events(rows: np.ndarray) -> np.ndarray:
    """hit[i, l, k]: whether row i holds the values k..k+l-1 in l
    consecutive positions, for l = 2 .. width - 1."""
    n = rows.shape[1]
    hit = np.zeros((len(rows), n, n + 1), dtype=bool)
    for l, cluster, cmin in enumeration.cluster_windows(rows.T):
        a, i = np.nonzero(cluster)
        hit[i, l, cmin[a, i]] = True
    return hit


def symmetry_suite(max_n: int = 9) -> SuiteReport:
    rows = []
    ps321 = PatternSet((Permutation((3, 2, 1)),))
    ps123 = PatternSet((Permutation((1, 2, 3)),))
    for n in range(3, max_n + 1):
        t321 = enumeration.event_count_table(n, ps321)
        t123 = enumeration.event_count_table(n, ps123)
        for l, k in _events(n):
            event = ClusterEvent(l, k)
            got321, got123 = t321.probability(event), t123.probability(event)
            rows.append(CheckRow(
                "symmetry", f"avoid 321 vs 123: n={n} l={l} k={k}",
                str(got321), str(got123), got321 == got123,
            ))
            kk = n + 2 - k - l
            a321, a_mapped = t321.count(event), t123.count(ClusterEvent(l, kk))
            rows.append(CheckRow(
                "symmetry", f"complement map n={n} (l={l},k={k})->(l={l},k={kk})",
                str(a321), str(a_mapped), a321 == a_mapped,
            ))
    # pointwise window behavior under reverse and complement, exhaustive n=6:
    # each member's events (l, k) against those of its reverse, and against
    # those of its complement at (l, n+2-k-l)
    n = 6
    members = enumeration.avoider_rows(n, EMPTY_PATTERNS)
    hit, rev, comp = (_cluster_events(rows) for rows in (members, members[:, ::-1], n + 1 - members))
    bad = cases = 0
    for l in range(2, n):
        ks = np.arange(1, n - l + 2)
        bad += int((hit[:, l, ks] != rev[:, l, ks]).sum() + (hit[:, l, ks] != comp[:, l, n + 2 - ks - l]).sum())
        cases += 2 * hit[:, l, ks].size
    rows.append(CheckRow("symmetry", f"pointwise reverse/complement n={n}",
                         f"0 of {cases} mismatches", f"{bad} mismatches", bad == 0))
    # reversing maps the 123-avoiders onto the 321-avoiders
    for n in range(2, 7):
        a123 = set(map(tuple, enumeration.avoider_rows(n, ps123).tolist()))
        a321 = set(map(tuple, enumeration.avoider_rows(n, ps321)[:, ::-1].tolist()))
        rows.append(CheckRow("symmetry", f"reverse bijection n={n}",
                             f"{len(a123)} avoiders", f"{len(a321)} mapped", a123 == a321))
    # count invariance under reversing / complementing the forbidden patterns;
    # the image side is grown, since the state counter (`states`) and
    # Bóna's form count a pattern and its images alike
    samples = [PatternSet((t,)) for t in S3_PATTERNS]
    samples += [PatternSet((Permutation(v),)) for v in ((1, 3, 4, 2), (1, 2, 3, 4), (2, 4, 1, 3))]
    samples.append(SEP)
    for ps in samples:
        images = [(label, PatternSet(tuple(f(t) for t in ps)))
                  for label, f in (("reversed", reverse), ("complemented", complement))]
        for n in range(2, min(max_n, 8) + 1):
            base = enumeration.count_avoiders(n, ps)
            for label, image in images:
                got = enumeration.event_count_table(n, image).total
                rows.append(CheckRow("symmetry", f"avoid={ps} {label} n={n}",
                                     str(base), str(got), base == got))
    return SuiteReport("symmetry", rows)


# ---------------------------------------------------------------------------
# the contraction / expansion toolkit


def _count_containing(rows: np.ndarray, tau: Permutation) -> int:
    if not len(rows):
        return 0
    return int(enumeration.contains_pattern_rows(rows, tau).sum())


def _cluster_walk(n: int, ps: PatternSet):
    """(l, a, idx, sigmas) for every (l, a) at which some member of S_n(ps)
    holds a cluster window: the members `sigmas` that do, at the indices
    `idx` of the lexicographic listing.  l-major, then a."""
    members = enumeration.avoider_rows(n, ps)
    for l, cluster, _ in enumeration.cluster_windows(members.T):
        for a0 in np.flatnonzero(cluster.any(axis=1)).tolist():
            idx = np.flatnonzero(cluster[a0])
            yield l, a0 + 1, idx, members[idx]


def _round_trip_rows(max_n: int) -> list[CheckRow]:
    rows = []
    for n in range(3, max_n + 1):
        checked = 0
        failures = 0
        firsts = []  # (l, member index, a, sigma) of each (l, a)'s first failure
        for l, a, idx, sigmas in _cluster_walk(n, EMPTY_PATTERNS):
            window = sigmas[:, a - 1 : a - 1 + l]
            rho = np.argsort(np.argsort(window, axis=1), axis=1).astype(sigmas.dtype) + 1  # flatten
            back = transform.expand_rows(transform.contract_rows(sigmas, l, a), rho, l, a)
            bad = np.flatnonzero((back != sigmas).any(axis=1))
            checked += len(sigmas)
            failures += len(bad)
            if bad.size:
                firsts.append((l, int(idx[bad[0]]), a, sigmas[bad[0]]))
        detail = ""
        if firsts:  # the first in (l, sigma, a) order
            l, _, a, sigma = min(firsts, key=lambda f: f[:3])
            k = sigma[a - 1 : a - 1 + l].min()
            detail = f" first: {Permutation(tuple(sigma.tolist()))} (l={l},k={k},a={a})"
        rows.append(CheckRow("transform", f"round trips n={n}",
                             f"{checked} windows restore sigma",
                             f"{failures} failures{detail}", failures == 0))
    return rows


def _injectivity_rows(max_n: int) -> list[CheckRow]:
    """Every host eta of S_{n-l+1}, expanded at every anchor a (k = eta_a)
    by every rho of S_l, gives an anchored sigma, and no (l, k, a, sigma)
    twice.  A failure names the first bad expansion in (l, eta, a, rho)
    order."""
    rows = []
    for n in range(3, max_n + 1):
        total = 0
        detail = ""
        for l in range(2, n):
            m = n - l + 1
            etas = enumeration.avoider_rows(m, EMPTY_PATTERNS)
            rhos = enumeration.avoider_rows(l, EMPTY_PATTERNS)
            outs = _expansions(etas, l, rhos).reshape(m, -1, n)
            total += m * outs.shape[1]
            first = None  # (position in (eta, a, rho) order, message)
            for a, out in enumerate(outs, 1):
                k = np.repeat(etas[:, a - 1], len(rhos))
                window = out[:, a - 1 : a - 1 + l]
                anchored = (window.min(axis=1) == k) & (window.max(axis=1) == k + l - 1)
                # a key (l, k, a, sigma) can only repeat within one (l, a)
                repeat = np.ones(len(out), dtype=bool)
                repeat[np.unique(np.column_stack([k, out]), axis=0, return_index=True)[1]] = False
                bad = np.flatnonzero(~anchored | repeat)
                if not bad.size:
                    continue
                e, r = divmod(int(bad[0]), len(rhos))
                pos = (e * m + a - 1) * len(rhos) + r
                if first is None or pos < first[0]:
                    eta, rho = (Permutation(tuple(v.tolist())) for v in (etas[e], rhos[r]))
                    where = f"(l={l},k={k[bad[0]]},a={a})"
                    first = (pos, f" not anchored: eta={eta} rho={rho} {where}"
                             if not anchored[bad[0]] else f" collision at {where}")
            detail = detail or (first[1] if first else "")
        rows.append(CheckRow("transform", f"expansion injective and anchored n={n}",
                             f"{total} expansions, all distinct", f"ok={not detail}{detail}",
                             not detail))
    return rows


def _expansions(etas: np.ndarray, l: int, rhos: np.ndarray) -> np.ndarray:
    """The expansion of every host row eta at every anchor a (k = eta_a) by
    every window pattern row rho: anchor-major, then eta, then rho."""
    hosts = np.repeat(etas, len(rhos), axis=0)
    windows = np.tile(rhos, (len(etas), 1))
    return transform.expand_rows(hosts, windows, l, range(1, etas.shape[1] + 1))


def _monotone_preservation_rows(max_n: int, patterns: tuple[Permutation, ...]) -> list[CheckRow]:
    rows = []
    for tau in patterns:
        conds = check_conditions(tau)
        if conds.tight12 and conds.tight21:
            continue
        hosts = {m: enumeration.avoider_rows(m, PatternSet((tau,))) for m in range(2, max_n)}
        for n in range(3, max_n + 1):
            outputs = []
            for l in range(2, n):
                up = np.arange(1, l + 1, dtype=np.int8)
                rhos = [w for w, tight in ((up, conds.tight12), (up[::-1], conds.tight21)) if not tight]
                outputs.append(_expansions(hosts[n - l + 1], l, np.array(rhos)))
            outputs = np.vstack(outputs)
            hits = _count_containing(outputs, tau)
            rows.append(CheckRow(
                "transform", f"monotone window keeps avoidance: tau={tau} n={n}",
                f"0 of {len(outputs)} contain the pattern", f"{hits} contain it", hits == 0,
            ))
    return rows


def _cluster_free_expansion_rows(max_n: int, patterns: tuple[Permutation, ...]) -> list[CheckRow]:
    rows = []
    for tau in patterns:
        # S_m(tau) serves both as the hosts and as the avoiding window patterns
        good = {m: enumeration.avoider_rows(m, PatternSet((tau,))) for m in range(2, max_n)}
        bad = {}
        for l, rows_l in good.items():
            good_set = set(map(tuple, rows_l.tolist()))
            bad[l] = np.array([r for r in itertools.permutations(range(1, l + 1)) if r not in good_set],
                              dtype=np.int8).reshape(-1, l)
        for n in range(3, max_n + 1):
            keep, kill = [], []
            for l in range(2, n):
                keep.append(_expansions(good[n - l + 1], l, good[l]))
                kill.append(_expansions(good[n - l + 1], l, bad[l]))
            keep, kill = np.vstack(keep), np.vstack(kill)
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


def _contract_monotone_rows(max_n: int, patterns: tuple[Permutation, ...]) -> list[CheckRow]:
    rows = []
    for tau in patterns:
        for n in range(3, max_n + 1):
            contracted = hits = 0
            # one containment pass per width n - l + 1
            for l, walk in itertools.groupby(_cluster_walk(n, PatternSet((tau,))), key=lambda w: w[0]):
                etas = np.vstack([transform.contract_rows(sigmas, l, a) for _, a, _, sigmas in walk])
                contracted += len(etas)
                hits += _count_containing(etas, tau)
            rows.append(CheckRow(
                "transform", f"contraction keeps avoidance: tau={tau} n={n}",
                f"0 of {contracted} contain the pattern", f"{hits} contain it", hits == 0,
            ))
    return rows


def transform_suite(max_n: int = 8, s_n: bool = True,
                    monotone: tuple[Permutation, ...] = S3_PATTERNS + S4_PATTERNS,
                    cluster_free: tuple[Permutation, ...] = CLUSTER_FREE_4,
                    contract: tuple[Permutation, ...] = S3_PATTERNS + CLUSTER_FREE_4) -> SuiteReport:
    """The round trips and injectivity over all of S_n (if `s_n`), then
    avoidance kept by a monotone window for the patterns `monotone`, by
    expansion for the cluster-free patterns `cluster_free`, and by
    contraction for the patterns `contract`."""
    rows = (_round_trip_rows(max_n) + _injectivity_rows(max_n)) if s_n else []
    rows += _monotone_preservation_rows(max_n, monotone)
    rows += _cluster_free_expansion_rows(max_n, cluster_free)
    rows += _contract_monotone_rows(max_n, contract)
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


# The pattern loops of the suites that have them, in row order: the
# keyword of the suite function that takes the patterns, and its default.
_LOOPS: dict[str, tuple[tuple[str, tuple[Permutation, ...]], ...]] = {
    "thm1": (("bounds", S3_PATTERNS + S4_PATTERNS), ("exact", CLUSTER_FREE_4)),
    "thm3": (("patterns", MONOTONE_3),),
    "transform": (("monotone", S3_PATTERNS + S4_PATTERNS), ("cluster_free", CLUSTER_FREE_4),
                  ("contract", S3_PATTERNS + CLUSTER_FREE_4)),
}
# The class of each suite without pattern loops; cor2 grows nothing, and the
# symmetry block spans many classes.
_BLOCKS = {"uniform": EMPTY_PATTERNS.key(), "thm2": SEP.key(), "cor2": "cor2", "symmetry": "symmetry"}


def _units(name: str) -> list[tuple[str, dict]]:
    """Suite `name` cut into units, in row order: (class, keyword arguments
    of its SUITES function).  A pattern loop gives one unit per pattern,
    whose class is the pattern; the transform suite's S_n block and each
    suite without pattern loops are one unit each."""
    if name not in _LOOPS:
        return [(_BLOCKS[name], {})]
    off = {keyword: () for keyword, _ in _LOOPS[name]}
    units = []
    if name == "transform":
        off["s_n"] = False
        units.append((EMPTY_PATTERNS.key(), dict(off, s_n=True)))
    for keyword, patterns in _LOOPS[name]:
        units += [(PatternSet((tau,)).key(), dict(off, **{keyword: (tau,)})) for tau in patterns]
    return units


def run_suites(sizes: dict[str, int | None], jobs: int = 1) -> list[SuiteReport]:
    """The report of each suite named in `sizes`, in its order, at its size
    (cor2 takes none).  The suites are cut into per-class units (`_units`),
    and `growth.run_parts` deals the classes to min(jobs, classes)
    processes, so that all units of a class, and the levels that growth
    keeps of it, stay in one process.  The rows come back in the order that
    running the suites one by one gives."""
    units = [(name, cls, kwargs) for name in sizes for cls, kwargs in _units(name)]
    by_class: dict[str, list[int]] = {}
    for i, (_, cls, _) in enumerate(units):
        by_class.setdefault(cls, []).append(i)

    def run_class(indices: list[int]) -> list[list[CheckRow]]:
        rows = []
        for i in indices:
            name, _, kwargs = units[i]
            func, default = SUITES[name]
            rows.append((func() if default is None else func(sizes[name], **kwargs)).rows)
        return rows

    # The processes take the classes one at a time, the blocks first: they
    # are the largest, and the many small pattern classes after them even
    # out when the processes end.
    parts = sorted(by_class.values(), key=lambda indices: units[indices[0]][1] not in _BLOCKS.values())
    done: dict[int, list[CheckRow]] = {}
    for indices, rows in zip(parts, growth.run_parts(run_class, parts, jobs)):
        done.update(zip(indices, rows))
    reports: dict[str, list[CheckRow]] = {name: [] for name in sizes}
    for i, (name, _, _) in enumerate(units):
        reports[name] += done[i]
    return [SuiteReport(name, rows) for name, rows in reports.items()]


def run_suite(name: str, max_n: int | None = None, jobs: int = 1) -> SuiteReport:
    """Suite `name` at max_n, or at its default size."""
    default = SUITES[name][1]
    return run_suites({name: default if max_n is None or default is None else max_n}, jobs)[0]


def run_all(max_n: int | None = None, jobs: int = 1) -> list[SuiteReport]:
    """Every suite, each at its default size capped by max_n."""
    return run_suites({name: default if max_n is None or default is None else min(default, max_n)
                       for name, (_, default) in SUITES.items()}, jobs)
