"""Closed forms for cluster-event probabilities, bounds, and limits.

Everything here is exact: counts are integers, finite-n probabilities are
Fractions, and the algebraic constant 3 - 2*sqrt(2) that governs the
separable class is kept as a + b*sqrt(2) with rational a, b.  Real
approximations are produced only at the output boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import enumeration
from .perms import (
    SEP,
    ApplicabilityError,
    ClusterEvent,
    ConditionReport,
    DomainError,
    PatternSet,
    Permutation,
    _Value,
    check_conditions,
    is_cluster_free,
)


_CATALAN: dict[int, int] = {}  # the closed forms ask for the same few hundred n over and over


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1), defined for n >= 0."""
    if n < 0:
        raise DomainError("catalan needs n >= 0")
    value = _CATALAN.get(n)
    if value is None:
        value = _CATALAN[n] = math.comb(2 * n, n) // (n + 1)
    return value


def sep_count(n: int, *, cache: "enumeration.CountCache | None" = None) -> int:
    """The number of separable permutations of length n."""
    if n < 1:
        raise DomainError("sep_count needs n >= 1")
    return enumeration.count_avoiders(n, SEP, cache=cache)


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt 2)


class Sqrt2Number(_Value):
    """The exact number a + b*sqrt(2) with rational coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        self._set(a=Fraction(a), b=Fraction(b))

    def __add__(self, other: "Sqrt2Number") -> "Sqrt2Number":
        return Sqrt2Number(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Sqrt2Number") -> "Sqrt2Number":
        return Sqrt2Number(self.a - other.a, self.b - other.b)

    def __mul__(self, other) -> "Sqrt2Number":
        if isinstance(other, Sqrt2Number):
            return Sqrt2Number(
                self.a * other.a + 2 * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        return Sqrt2Number(self.a * Fraction(other), self.b * Fraction(other))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Sqrt2Number":
        if exponent < 0:
            raise DomainError("only non-negative powers are supported")
        out = Sqrt2Number(Fraction(1), Fraction(0))
        for _ in range(exponent):
            out = out * self
        return out

    def __float__(self) -> float:
        """The nearest float but for a few units in the last place.  Where a
        and b have opposite signs, a + b*sqrt(2) nearly cancels, so it is
        taken from the conjugate, (a^2 - 2b^2) / (a - b*sqrt(2)): the
        numerator is exact and the denominator adds two terms of one sign."""
        root2 = Fraction(math.sqrt(2))
        if self.a * self.b >= 0:
            return float(self.a + self.b * root2)
        return float((self.a * self.a - 2 * self.b * self.b) / (self.a - self.b * root2))

    def bounds(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        """A rational enclosure of the value, at most 10^-digits wide: sqrt(2)
        is enclosed to within 10^-digits / (|b| + 1)."""
        scale = 10**digits * (math.floor(abs(self.b)) + 1)
        s = math.isqrt(2 * scale * scale)
        lo2, hi2 = Fraction(s, scale), Fraction(s + 1, scale)
        c1 = self.a + self.b * lo2
        c2 = self.a + self.b * hi2
        return (min(c1, c2), max(c1, c2))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt(2)"


#: The subexponential rate of the separable class: 3 - 2*sqrt(2).
SEP_RATE = Sqrt2Number(Fraction(3), Fraction(-2))

#: Growth constant of the separable class: (3 - 2*sqrt(2))^-1 = 3 + 2*sqrt(2).
SEP_GROWTH = Sqrt2Number(Fraction(3), Fraction(2))


# ---------------------------------------------------------------------------
# finite-n probabilities


def uniform_probability(n: int, l: int, k: int) -> Fraction:
    """P(cluster block k..k+l-1 in consecutive positions) under uniform S_n.

    Equals (n-l+1) * l! * (n-l)! / n!, independent of k.
    """
    ClusterEvent(l, k).validate(n)
    return Fraction(
        (n - l + 1) * math.factorial(l) * math.factorial(n - l), math.factorial(n)
    )


def monotone_cluster_probability(n: int, l: int, k: int) -> Fraction:
    """Exact cluster probability under the uniform measure on the class
    avoiding 321 (equally, the class avoiding 123).

    Equals (C_{n-l+1} + C_{k-1} * C_{n-k-l+1} * (C_l - 1)) / C_n.
    """
    ClusterEvent(l, k).validate(n)
    num = catalan(n - l + 1) + catalan(k - 1) * catalan(n - k - l + 1) * (catalan(l) - 1)
    return Fraction(num, catalan(n))


def _product_form(n: int, l: int, ps: PatternSet, cache) -> Fraction:
    """|S_{n-l+1}(ps)| * |S_l(ps)| / |S_n(ps)|, once l is a valid block length."""
    ClusterEvent(l).validate(n)
    c = enumeration.count_avoiders
    return Fraction(c(n - l + 1, ps, cache=cache) * c(l, ps, cache=cache), c(n, ps, cache=cache))


def separable_cluster_probability(n: int, l: int, *, cache=None) -> Fraction:
    """Exact cluster probability for uniform separable permutations.

    Equals sep(n-l+1) * sep(l) / sep(n), independent of k.
    """
    return _product_form(n, l, SEP, cache)


def cluster_free_probability(n: int, l: int, ps: PatternSet, *, cache=None) -> Fraction:
    """The product form |S_{n-l+1}(ps)| * |S_l(ps)| / |S_n(ps)|.

    This equals the exact cluster probability when every forbidden pattern
    is cluster-free; other pattern sets are rejected.
    """
    for tau in ps:
        if not is_cluster_free(tau):
            raise ApplicabilityError(f"pattern {tau} has a cluster; the product form does not apply")
    return _product_form(n, l, ps, cache)


class BoundReport(NamedTuple):
    """Finite-n sandwich for the cluster probability of a one-pattern class.

    The upper bound holds for every pattern.  The lower bound needs the
    pattern to miss a tight ascent or descent pair; missing both doubles
    it.  When both tight pairs are present no lower bound is reported.
    """

    pattern: Permutation
    n: int
    l: int
    upper: Fraction
    lower: Fraction | None
    lower_factor: int | None
    tight12: bool
    tight21: bool
    note: str


def _lower_factor(conds: ConditionReport) -> int | None:
    """The lower bound's factor: 2 with no tight pair, 1 with one, none with both."""
    if conds.tight12 and conds.tight21:
        return None
    return 1 if (conds.tight12 or conds.tight21) else 2


def cluster_probability_bounds(n: int, l: int, tau: Permutation, *, cache=None) -> BoundReport:
    """Sandwich bounds on the cluster probability for the class avoiding tau."""
    ps = PatternSet((tau,))
    upper = _product_form(n, l, ps, cache)
    conds = check_conditions(tau)
    factor = _lower_factor(conds)
    if factor is None:
        return BoundReport(
            tau, n, l, upper, None, None, True, True,
            "lower bound unavailable: pattern has both a tight ascent and a tight descent pair",
        )
    c = enumeration.count_avoiders
    lower = Fraction(factor * c(n - l + 1, ps, cache=cache), c(n, ps, cache=cache))
    which = "one tight pair present" if factor == 1 else "no tight pair present"
    return BoundReport(tau, n, l, upper, lower, factor, conds.tight12, conds.tight21,
                       f"lower factor {factor}: {which}")


# ---------------------------------------------------------------------------
# growth constants and n -> infinity limits


class SWConstant(NamedTuple):
    """A known exponential growth constant of an avoidance class."""

    label: str
    known: bool
    value: int | Sqrt2Number | None
    approx: float | None
    source: str


def stanley_wilf_limit(ps: PatternSet) -> SWConstant:
    """The growth constant of the class, when it is one of the known cases.

    Known: any single length-3 pattern (4), the increasing pattern 12...m
    ((m-1)^2), the single pattern 1342 (8), and the separable class
    (3 + 2*sqrt(2)).  Anything else is reported as unknown, never guessed.
    """
    label = ps.key() or "(none)"
    if ps == SEP:
        return SWConstant("sep", True, SEP_GROWTH, float(SEP_GROWTH), "separable class growth")
    if len(ps) == 1:
        tau = ps.patterns[0]
        m = len(tau)
        if m == 3:
            return SWConstant(label, True, 4, 4.0, "length-3 singleton class")
        if tau.values == tuple(range(1, m + 1)):
            return SWConstant(label, True, (m - 1) ** 2, float((m - 1) ** 2), "increasing pattern")
        if tau.values == (1, 3, 4, 2):
            return SWConstant(label, True, 8, 8.0, "class of 1342")
    return SWConstant(label, False, None, None, "unknown")


class LimitSpec(_Value):
    """How the block start k behaves as n grows.

    fixed-k keeps k constant; fixed-right-offset keeps n + 2 - k - l
    constant (the mirror-image regime, with the same limit); interior lets
    both k and n - k grow without bound.
    """

    __slots__ = ("mode", "k")
    _MODES = ("fixed-k", "fixed-right-offset", "interior")

    def __init__(self, mode: str, k: int | None = None) -> None:
        if mode not in self._MODES:
            raise DomainError(f"mode must be one of {self._MODES}")
        if mode == "interior":
            if k is not None:
                raise DomainError("interior mode takes no k")
        elif k is None or k < 1:
            raise DomainError(f"{mode} mode needs k >= 1")
        self._set(mode=mode, k=k)

    @classmethod
    def fixed_k(cls, k: int) -> "LimitSpec":
        return cls("fixed-k", k)

    @classmethod
    def fixed_right_offset(cls, k: int) -> "LimitSpec":
        return cls("fixed-right-offset", k)

    @classmethod
    def interior(cls) -> "LimitSpec":
        return cls("interior")


def monotone_cluster_limit(l: int, spec: LimitSpec) -> Fraction:
    """n -> infinity limit of the 321/123-class cluster probability.

    Fixed regimes give 4^-(l-1) + C_{k-1} (C_l - 1) 4^-(k+l-1); the
    interior regime gives 4^-(l-1).
    """
    if l < 2:
        raise DomainError("limits need l >= 2")
    base = Fraction(1, 4 ** (l - 1))
    if spec.mode == "interior":
        return base
    k = spec.k
    return base + Fraction(catalan(k - 1) * (catalan(l) - 1), 4 ** (k + l - 1))


class SeparableClusterLimit(NamedTuple):
    """The limiting separable cluster probability sep(l) * (3-2*sqrt(2))^(l-1)."""

    l: int
    coefficient: int
    power: int
    value: Sqrt2Number

    @property
    def approx(self) -> float:
        return float(self.value)

    def bounds(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        return self.value.bounds(digits)

    def symbolic(self) -> str:
        return f"{self.coefficient}*(3-2*sqrt(2))^{self.power}"


def separable_cluster_limit(l: int, *, cache=None) -> SeparableClusterLimit:
    """n -> infinity limit of the separable cluster probability (any k_n)."""
    if l < 2:
        raise DomainError("limits need l >= 2")
    coeff = sep_count(l, cache=cache)
    return SeparableClusterLimit(l, coeff, l - 1, SEP_RATE ** (l - 1) * coeff)


class ClusterLimitReport(NamedTuple):
    """Limit bounds for a one-pattern class, with the clauses that fired.

    upper needs one of the structural conditions c1/c2/c3 (which make the
    consecutive-ratio limit equal the growth constant); exact needs the
    pattern to be cluster-free; lower needs a missing tight pair.  All are
    None when the growth constant is unknown and none was supplied.
    """

    pattern: Permutation
    l: int
    conditions: ConditionReport
    sw: SWConstant
    limit_used: float | int | None
    upper: Fraction | float | None
    exact: Fraction | float | None
    lower: Fraction | float | None
    lower_factor: int | None
    note: str


def cluster_limit_report(
    tau: Permutation, l: int, *, sw_limit: float | None = None, cache=None
) -> ClusterLimitReport:
    """Evaluate the limiting upper/exact/lower cluster-probability values
    for the class avoiding tau, using the known growth constant or an
    externally supplied one."""
    if l < 2:
        raise DomainError("limits need l >= 2")
    conds = check_conditions(tau)
    sw = stanley_wilf_limit(PatternSet((tau,)))
    if sw.known:
        L: float | int | None = sw.value  # always an integer for single patterns
    else:
        L = sw_limit
    if L is None:
        return ClusterLimitReport(tau, l, conds, sw, None, None, None, None, None,
                                  "growth constant unknown; supply one to evaluate")
    count_l = enumeration.count_avoiders(l, PatternSet((tau,)), cache=cache)
    if isinstance(L, int):
        denom = L ** (l - 1)
        up: Fraction | float = Fraction(count_l, denom)
        low_unit: Fraction | float = Fraction(1, denom)
    else:
        denom = float(L) ** (l - 1)
        up = count_l / denom
        low_unit = 1.0 / denom
    upper = up if (conds.c1 or conds.c2 or conds.c3) else None
    exact = up if conds.cluster_free else None
    factor = _lower_factor(conds)
    lower = None if factor is None else factor * low_unit
    fired = [name for name, flag in
             (("c1", conds.c1), ("c2", conds.c2), ("c3", conds.c3)) if flag]
    return ClusterLimitReport(
        tau, l, conds, sw, L, upper, exact, lower, factor,
        f"conditions held: {','.join(fired) or 'none'}; cluster-free: {conds.cluster_free}",
    )


def union_asymptotic_ratio(n: int, l: int, *, cache=None, jobs: int = 1) -> float:
    """The exact union probability over S_n rescaled by its n -> infinity
    scale l! / n^(l-2); tends to 1 as n grows, for l >= 3."""
    if l < 3:
        raise DomainError("the union asymptotic is stated for l >= 3")
    p = enumeration.exact_probability(n, PatternSet(()), union_l=l, cache=cache, jobs=jobs)
    return float(p * n ** (l - 2) / math.factorial(l))
