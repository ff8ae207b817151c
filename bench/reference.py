"""Reference values the benchmark checks the program's output against.

These tables are kept here, apart from the program, so that a wrong count
printed by `permcluster` is caught by values the program did not compute.
Sequences are indexed by n, starting at n = 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# OEIS A006318 shifted (large Schroeder numbers): separable permutations.
SCHROEDER = (1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718)
# OEIS A022558: avoiders of 1342 (Wilf class of 1342, 2413 and their images).
A022558 = (1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662, 3475090)
# OEIS A005802: avoiders of 1234 (Wilf class of 1234, 1243, 2143, 1432 and images).
A005802 = (1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590)
# OEIS A061552: avoiders of 1324 (and 4231).
A061552 = (1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950)
# OEIS A047889: avoiders of 12345 (and 54321).
A047889 = (1, 1, 2, 6, 24, 119, 694, 4582, 33324, 261808, 2190688)

_LENGTH4_CLASSES = {"1342": A022558, "2413": A022558, "1234": A005802,
                    "1243": A005802, "2143": A005802, "1432": A005802, "1324": A061552}


def reverse(p: str) -> str:
    return p[::-1]


def complement(p: str) -> str:
    m = len(p)
    return "".join(str(m + 1 - int(c)) for c in p)


def inverse(p: str) -> str:
    out = [""] * len(p)
    for i, c in enumerate(p):
        out[int(c) - 1] = str(i + 1)
    return "".join(out)


def symmetry_images(p: str) -> list[str]:
    """The images of a pattern under reverse, complement and inverse, in a
    fixed order (identity first); duplicates are kept, so there are 8."""
    out = []
    for inv, rev, comp in itertools.product((False, True), repeat=3):
        q = inverse(p) if inv else p
        q = reverse(q) if rev else q
        out.append(complement(q) if comp else q)
    return out


def _orbit(p: str) -> set[str]:
    return set(symmetry_images(p))


def count(avoid: str, n: int) -> int:
    """|S_n(avoid)| for '' (all of S_n), 'sep', one pattern of length 3, a
    length-4 pattern, or an image of 12345."""
    if avoid == "":
        return math.factorial(n)
    if avoid in ("sep", "2413+3142"):
        return SCHROEDER[n]
    if len(avoid) == 3:
        return math.comb(2 * n, n) // (n + 1)
    if len(avoid) == 4:
        for rep, seq in _LENGTH4_CLASSES.items():
            if avoid in _orbit(rep):
                return seq[n]
    if avoid in ("12345", "54321"):
        return A047889[n]
    raise KeyError(f"no reference count for avoid={avoid!r}")


def expected_formula(avoid: str) -> str:
    """The closed form `prob --formula` must report for a non-anchored event."""
    if avoid == "":
        return "uniform"
    if avoid in ("321", "123"):
        return "monotone3"
    if avoid in ("sep", "2413+3142"):
        return "separable"
    if avoid in ("2413", "3142"):
        return "cluster-free product"
    return "none"


def uniform_probability(n: int, l: int) -> Fraction:
    """The cluster probability over all of S_n, the same for every k."""
    return Fraction((n - l + 1) * math.factorial(l) * math.factorial(n - l), math.factorial(n))


def growth_limit(pattern: str) -> int | None:
    """The Stanley-Wilf limit the program is documented to know, else None."""
    m = len(pattern)
    if m == 3:
        return 4
    if pattern == "".join(str(i) for i in range(1, m + 1)):
        return (m - 1) ** 2
    if pattern == "1342":
        return 8
    return None
