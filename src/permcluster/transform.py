"""Ground-set relabelings and the cluster contraction / expansion maps.

`flatten` and `inflate` convert between words over an arbitrary finite set
B of positive integers and abstract patterns in S_|B|.  `contract`
collapses a cluster window of sigma to the single value k and flattens the
rest onto S_{n-l+1}; `expand` undoes this, inserting a chosen window
pattern rho in place of the value k.  For a fixed anchored event the two
maps are mutually inverse once the window pattern is recorded, and the
expansion map is injective in (eta, rho) jointly.

All functions are pure; the intermediate relabeled words are exposed
(`contraction_word`, `inflate`) so each step can be inspected directly.

`contract` and `expand` act on one permutation at a time and are the
specification.  `contract_rows` and `expand_rows` are their batch kernels:
they apply the same maps to every row of an integer array at one (l, a),
reading k per row, and make the same checks, vectorised; `expand_rows`
also takes every anchor of a batch in one call.  Each relabeling
shifts the values past the window by l - 1, so a kernel is a comparison,
a shift and a splice per row.  The verification suites run on the
kernels, and the tests hold them equal to the scalar maps.  The kernels
import numpy when they are called, so importing this module (and the
package) does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .perms import ClusterEvent, DomainError, Permutation, clusters, in_cluster_event

if TYPE_CHECKING:
    import numpy as np

GroundSet = tuple[int, ...]
LabeledSequence = tuple[int, ...]


def _checked_ground(values: Sequence[int]) -> GroundSet:
    b = tuple(int(v) for v in values)
    if not b:
        raise DomainError("ground set must be non-empty")
    if b[0] < 1 or any(x >= y for x, y in zip(b, b[1:])):
        raise DomainError(f"ground set must be strictly increasing positives: {b}")
    return b


def flatten(word: Sequence[int]) -> Permutation:
    """The order-isomorphic pattern of a word with distinct entries.

    >>> flatten((7, 3, 8, 5)).text()
    '3142'
    """
    w = tuple(int(v) for v in word)
    if len(set(w)) != len(w):
        raise DomainError(f"word has repeated entries: {w}")
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return Permutation(tuple(rank[v] for v in w))


def inflate(nu: Permutation, ground: Sequence[int]) -> LabeledSequence:
    """Relabel nu onto a ground set: value i becomes the i-th smallest element.

    >>> inflate(Permutation((3, 1, 4, 2)), (3, 5, 7, 8))
    (7, 3, 8, 5)
    """
    b = _checked_ground(ground)
    if len(nu) != len(b):
        raise DomainError(f"pattern length {len(nu)} != ground set size {len(b)}")
    return tuple(b[v - 1] for v in nu.values)


def contraction_word(sigma: Permutation, l: int, k: int, a: int) -> LabeledSequence:
    """The word left after replacing the cluster window at (l, k, a) by k.

    The result is a word over {1, ..., k, k+l, ..., n} with k at position a.
    """
    if not in_cluster_event(sigma, ClusterEvent(l, k, a)):
        window = sigma.values[a - 1 : a - 1 + l]
        raise DomainError(
            f"positions {a}..{a + l - 1} of {sigma} hold {window}, not the block {k}..{k + l - 1}"
        )
    v = sigma.values
    return v[: a - 1] + (k,) + v[a - 1 + l :]


def contract(sigma: Permutation, l: int, k: int, a: int) -> Permutation:
    """Collapse the cluster window at (l, k, a) and flatten to S_{n-l+1}.

    The result eta satisfies eta_a = k, and avoidance of any pattern is
    preserved (contraction never creates new pattern content).
    """
    return flatten(contraction_word(sigma, l, k, a))


def expand(eta: Permutation, rho: Permutation, l: int, k: int, a: int) -> Permutation:
    """Insert the window pattern rho in place of the value k of eta.

    eta must satisfy eta_a = k and |rho| = l; the result lives in S_n with
    n = |eta| + l - 1 and lies in the anchored cluster event (l, k, a).
    """
    if len(rho) != l:
        raise DomainError(f"window pattern has length {len(rho)}, expected l={l}")
    n = len(eta) + l - 1
    ClusterEvent(l, k, a).validate(n)
    if eta.values[a - 1] != k:
        raise DomainError(f"eta_{a} = {eta.values[a - 1]} != k = {k}")
    ground = tuple(range(1, k + 1)) + tuple(range(k + l, n + 1))
    word = inflate(eta, ground)
    out = word[: a - 1] + tuple(k - 1 + r for r in rho.values) + word[a:]
    return Permutation(out)


def cluster_anchors(sigma: Permutation, l: int, k: int) -> list[int]:
    """All anchors a such that sigma lies in the event (l, k, a).

    The block {k, ..., k+l-1} occupies a fixed set of positions, so at
    most one of the windows that `perms.clusters` yields holds it.
    """
    ClusterEvent(l, k).validate(len(sigma))
    return [a for found_l, found_k, a in clusters(sigma.values) if (found_l, found_k) == (l, k)]


# ---------------------------------------------------------------------------
# batch kernels: the same maps on int8 row arrays


def _checked_rows(rows: np.ndarray, name: str) -> np.ndarray:
    """rows as a 2-D integer array, each row a permutation of 1..width."""
    import numpy as np

    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.dtype.kind not in "iu":
        raise DomainError(f"{name} rows must be a 2-D integer array, not {arr.dtype} of shape {arr.shape}")
    width = arr.shape[1]
    bad = np.flatnonzero((np.sort(arr, axis=1) != np.arange(1, width + 1)).any(axis=1))
    if bad.size:
        raise DomainError(f"{name} row {bad[0]} {tuple(arr[bad[0]].tolist())} is not a bijection of 1..{width}")
    return arr


def contract_rows(rows: np.ndarray, l: int, a: int) -> np.ndarray:
    """`contract` on every row of rows (N, n) at once, each row holding a
    cluster of length l at anchor a; k is read per row from the window
    minimum.  Returns the contractions, (N, n - l + 1).

    Column a - 1 keeps the value k, the rest of the window is dropped, and
    the values >= k + l move down by l - 1.
    """
    import numpy as np

    rows = _checked_rows(rows, "sigma")
    ClusterEvent(l, 1, a).validate(rows.shape[1])  # k = 1 is in range whenever l is
    window = rows[:, a - 1 : a - 1 + l]
    k = window.min(axis=1, keepdims=True)
    split = np.flatnonzero(window.max(axis=1, keepdims=True) - k != l - 1)
    if split.size:
        i = split[0]
        lo = int(k[i, 0])
        raise DomainError(
            f"positions {a}..{a + l - 1} of {Permutation(tuple(rows[i].tolist()))} hold "
            f"{tuple(window[i].tolist())}, not the block {lo}..{lo + l - 1}"
        )
    kept = np.hstack([rows[:, : a - 1], k, rows[:, a - 1 + l :]])
    return np.where(kept >= k + l, kept - (l - 1), kept)


def expand_rows(etas: np.ndarray, rhos: np.ndarray, l: int, a: int | Sequence[int]) -> np.ndarray:
    """`expand` on row pairs at once: row i of etas (N, m) takes the window
    pattern row i of rhos (N, l) at anchor a, with k = etas[i, a - 1].
    Returns the expansions, (N, m + l - 1).  With a sequence of anchors the
    expansions at each anchor in turn are stacked, anchor-major, (len(a) * N,
    m + l - 1), as a vstack of one call per anchor would give them, and each
    input array is checked once.

    The values > k move up by l - 1 and k - 1 + rho replaces the value k.
    """
    import numpy as np

    etas, rhos = _checked_rows(etas, "eta"), _checked_rows(rhos, "rho")
    if rhos.shape[1] != l:
        raise DomainError(f"window pattern has length {rhos.shape[1]}, expected l={l}")
    if len(rhos) != len(etas):
        raise DomainError(f"{len(etas)} host rows but {len(rhos)} window patterns")
    m = etas.shape[1]
    anchors = np.array(a, dtype=np.intp, ndmin=1)
    for b in anchors.tolist():
        ClusterEvent(l, 1, b).validate(m + l - 1)
    k = etas.T[anchors - 1, :, None]  # k per anchor and row, (A, N, 1)
    raised, window = np.where(etas > k, etas + (l - 1), etas), k - 1 + rhos
    out = np.empty((len(anchors), len(etas), m + l - 1), dtype=np.result_type(raised, window))
    for i, b in enumerate(anchors.tolist()):
        out[i, :, : b - 1] = raised[i, :, : b - 1]
        out[i, :, b - 1 : b - 1 + l] = window[i]
        out[i, :, b - 1 + l :] = raised[i, :, b:]
    return out.reshape(-1, m + l - 1)
