"""Counts and event tables of S_n and of the separable class from the substitution decomposition.

An interval of sigma is a set of consecutive positions holding consecutive
values, so the cluster event (l, k, a) is an interval of size l at
positions a..a+l-1 with values k..k+l-1.  Both classes are closed under
substitution: sigma = pi[alpha_1, ..., alpha_d], pi with its i-th point
inflated by the block alpha_i, lies in the class iff pi and every alpha_i
do.  Deflating an interval of size l to one point leaves a member eta of
size n - l + 1 with eta_a = k, and inflating that point by any member of
size l gives the event back, so

    by_lka = |C_l| * #{eta in C_(n-l+1) : eta_a = k}.

The marked count #{eta in C_m : eta_a = k} is (m - 1)! in S_m.  A
separable eta of size m >= 2 is a sum beta (+) rest, beta its first
(+)-indecomposable part, or the complement of one.  A mark in beta keeps
its position and value, a mark in the rest is shifted by |beta| in both;
beta is one point or the complement of a sum.  Complement sends the mark
(a, k) to (a, m + 1 - k).

Unions: every sigma of size m >= 2 is, in exactly one way, a simple
permutation pi of size d >= 4 inflated by d members, a sum
beta_1 (+) ... (+) beta_r of r >= 2 (+)-indecomposable members, or the
complement of such a sum (Albert & Atkinson, "Simple permutations and
pattern restricted permutations", Discrete Math. 300, 2005).  Its intervals
are itself, the intervals of its blocks or parts and, for a sum, the
unions of runs of consecutive parts.  So sigma has no interval of size
l < m iff no block or part has one or is of size l and, for a sum, no two
of the prefix sums 0, |beta_1|, ..., m are exactly l apart.  F_l(m) counts
those members, with F_l(l) = 0 and F_l(j) = |C_j| below l; the sums are
counted by a walk over the prefix sums whose state is the set of earlier
prefix sums that a later one can still meet at distance l, those no more
than m - l and within l of the walk.  Then union_by_l = |C_n| - F_l(n).
Without a size to avoid the same recursion counts the class.

The classes are given by their simple permutations: S_n's, s_d = 2, 6, 46,
338, ... for d = 4, 5, 6, 7, are what d! leaves once the sums and the
inflations of smaller simples are counted (Albert, Atkinson & Klazar, "The
enumeration of simple permutations", J. Integer Seq. 6, 2003); the
separable class has none, every simple of size >= 4 holding 2413 or 3142.
Both classes are closed under complement, which swaps the two kinds of sums,
so the complements of sums count as the sums do.

The module is pure Python with exact integers and imports nothing of the
package; `enumeration` serves S_n and separable tables, and separable
counts, from it behind one gate on small n.
"""

from __future__ import annotations

import math


def _sums(m: int, l: int, parts: list[int]) -> int:
    """The sums of r >= 2 parts of total m, weighted by parts[size], whose
    prefix sums are never exactly l apart.  The state is the set of
    prefix sums x <= m - l still within l of the walk, bit x for x."""
    reach = m - l
    layers: list[dict[int, int]] = [{} for _ in range(m + 1)]
    layers[0][1 if reach >= 0 else 0] = 1
    for t in range(m):
        for state, ways in layers[t].items():
            for u in range(t + 1, m + 1 if t else m):  # r >= 2: a first part of size m is no sum
                weight = parts[u - t]
                if not weight:
                    continue
                if u >= l:
                    if state >> (u - l) & 1:
                        continue
                    state_u = state >> (u - l + 1) << (u - l + 1)
                else:
                    state_u = state
                if u <= reach:
                    state_u |= 1 << u
                layers[u][state_u] = layers[u].get(state_u, 0) + ways * weight
    return sum(layers[m].values())


def _free(n: int, l: int, simples: list[int]) -> tuple[list[int], list[int]]:
    """For m <= n, the members of C_m with no interval of size l, and the
    (+)-indecomposable ones among them; l > n counts every member."""
    free, indecomposable = [0] * (n + 1), [0] * (n + 1)
    top = max((d for d, s in enumerate(simples) if s), default=0)
    powers = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(top)]  # powers[d][m] = [x^m] F(x)^d
    for m in range(1, n + 1):
        for d in range(2, min(top, m) + 1):
            powers[d][m] = sum(free[j] * powers[d - 1][m - j] for j in range(1, m))
        if m == 1:
            free[1] = indecomposable[1] = 1
        elif m != l:
            sums = _sums(m, l, indecomposable)
            inflated = sum(simples[d] * powers[d][m] for d in range(4, min(top, m) + 1))
            indecomposable[m] = sums + inflated
            free[m] = 2 * sums + inflated
        if top:
            powers[1][m] = free[m]
    return free, indecomposable


def _simples(n: int, separable: bool) -> list[int]:
    """s_d, the simple members of size d, for d <= n."""
    simples = [0] * (n + 1)
    if not separable:
        for d in range(4, n + 1):
            simples[d] = math.factorial(d) - _free(d, d + 1, simples)[0][d]
    return simples


def count(n: int, separable: bool) -> int:
    """|C_n| for n >= 1: n! for S_n, the large Schroeder number for the
    separable class."""
    return _free(n, n + 1, _simples(n, separable))[0][n]


def _marked_separable(n: int, counts: list[int], indecomposable: list[int]) -> list[list[list[int]]]:
    """marked[m][a][k] = #{eta separable of size m : eta_a = k} for m <= n."""
    marked = [[[0] * (m + 1) for _ in range(m + 1)] for m in range(n + 1)]
    sums = [[[0] * (m + 1) for _ in range(m + 1)] for m in range(n + 1)]  # those that are sums
    if n >= 1:
        marked[1][1][1] = 1
    for m in range(2, n + 1):
        for a in range(1, m + 1):
            for k in range(1, m + 1):
                # beta of size i ends the first part: a one-point beta, or the complement of a sum
                first = sum(((i == 1) + sums[i][a][i + 1 - k]) * counts[m - i] for i in range(max(a, k), m))
                rest = sum(indecomposable[i] * marked[m - i][a - i][k - i] for i in range(1, min(a, k)))
                sums[m][a][k] = first + rest
        for a in range(1, m + 1):
            for k in range(1, m + 1):
                marked[m][a][k] = sums[m][a][k] + sums[m][a][m + 1 - k]
    return marked


def table(n: int, separable: bool) -> tuple[int, dict[tuple[int, int, int], int], dict[int, int]]:
    """The total and the nonzero counts by (l, k, a) and unions over k by
    l of all of S_n, or of the separable class, for n >= 1, in the form
    that `growth.table` returns."""
    simples = _simples(n, separable)
    counts, indecomposable = _free(n, n + 1, simples)
    marked = _marked_separable(n - 1, counts, indecomposable) if separable else None
    by_lka = {(l, k, a): counts[l] * (marked[n - l + 1][a][k] if separable else math.factorial(n - l))
              for l in range(2, n) for k in range(1, n - l + 2) for a in range(1, n - l + 2)}
    total = count(n, separable)
    union = {l: total - _free(n, l, simples)[0][n] for l in range(2, n)}
    return total, {e: c for e, c in by_lka.items() if c}, {l: c for l, c in union.items() if c}
