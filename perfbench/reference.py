"""Reference computations that share no code with the program under test.

Everything here works on dense boolean adjacency matrices built by this
module, so a defect in the program's bitset graphs, generators, codecs or
counters cannot hide itself by agreeing with its own output.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps modulo 2^64, as the generator requires
    z = z + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def splitmix_gnp(n: int, p: float, seed: int) -> np.ndarray:
    """The program's documented G(n, p): pair (u, v), u < v, with lexicographic
    index i is kept iff splitmix64(splitmix64(seed) ^ i) >> 11, scaled by
    2^-53, is below p.  Row by row, so memory stays O(n^2) bits."""
    key = _splitmix64(np.array([seed & _MASK64], dtype=_U64))[0]
    adj = np.zeros((n, n), dtype=bool)
    start = 0
    for u in range(n - 1):
        width = n - 1 - u
        idx = np.arange(start, start + width, dtype=_U64)
        uniform = (_splitmix64(idx ^ key) >> _U64(11)).astype(np.float64) * 2.0**-53
        adj[u, u + 1:] = uniform < p
        start += width
    return adj | adj.T


def numpy_gnp(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """G(n, p) from numpy's generator; independent of the program's RNG."""
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n - 1):
        adj[u, u + 1:] = rng.random(n - 1 - u) < p
    return adj | adj.T


def graph6(adj: np.ndarray) -> bytes:
    """McKay's graph6 encoding, any n < 2^18 (1- or 4-byte size field)."""
    n = len(adj)
    if n <= 62:
        head = bytes([63 + n])
    elif n < 1 << 18:
        head = bytes([126] + [63 + (n >> shift & 63) for shift in (12, 6, 0)])
    else:
        raise ValueError(f"graph6 encoder limited to n < 2^18, got {n}")
    # upper triangle in column-major order: x(0,1), x(0,2), x(1,2), x(0,3), ...
    col, row = np.tril_indices(n, -1)
    bits = adj[row, col].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)])
    groups = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return head + (groups + 63).astype(np.uint8).tobytes()


def largest_eigenvalue(adj: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(adj.astype(np.float64))[-1])


def eigenvalue_slack(adj: np.ndarray, lam: float) -> float:
    """Backward-error allowance for eigvalsh: n * eps * ||A||_2."""
    return len(adj) * np.finfo(np.float64).eps * max(1.0, lam)


def triangles_by_trace(adj: np.ndarray) -> int:
    """k_3 = trace(A^3) / 6 in exact integers.

    The float64 product is exact: every entry and partial sum is an integer
    below n^3 < 2^53 for the n used here, and the check below proves it.
    """
    a = adj.astype(np.float64)
    a2f = a @ a
    a2 = np.rint(a2f).astype(np.int64)
    if not np.array_equal(a2, a2f):
        raise ArithmeticError("A^2 not integral in float64")
    trace = int((a2 * adj.astype(np.int64)).sum())
    if trace % 6:
        raise ArithmeticError(f"trace(A^3) = {trace} not divisible by 6")
    return trace // 6


def clique_counts_4_5(adj: np.ndarray, chunk: int = 4096) -> tuple[int, int]:
    """(k_4, k_5) by extending every triangle {u < v < w}.

    With C the common neighbourhood of a triangle, each 4-clique is counted
    once per each of its 4 triangles in sum |C|, and each 5-clique once per
    each of its 10 triangles in sum e(C).
    """
    a = adj.astype(np.float64)
    us, vs = np.nonzero(np.triu(adj, 1))
    common = adj[us] & adj[vs]  # one row per edge u < v
    edge_idx, ws = np.nonzero(common & (np.arange(len(adj)) > vs[:, None]))
    sum_c = 0
    sum_e = 0
    for lo in range(0, len(ws), chunk):
        e, w = edge_idx[lo:lo + chunk], ws[lo:lo + chunk]
        c = (common[e] & adj[w]).astype(np.float64)
        sum_c += int(c.sum())
        sum_e += int(np.rint(((c @ a) * c).sum())) // 2
    if sum_c % 4 or sum_e % 10:
        raise ArithmeticError("clique extension sums not divisible")
    return sum_c // 4, sum_e // 10


def turan_lower(n: int, r: int) -> float:
    """mu(T_{r-1}(n)) / n by a dense eigensolver: the gap report's lower end."""
    sizes = [n // (r - 1) + (1 if i < n % (r - 1) else 0) for i in range(r - 1)]
    part = np.repeat(np.arange(len(sizes)), sizes)
    adj = part[:, None] != part[None, :]
    return largest_eigenvalue(adj) / n


def check_witness(adj: np.ndarray, parts: list[list[int]], sizes: tuple[int, ...]) -> str | None:
    """None if ``parts`` is a complete multipartite subgraph with these part
    sizes, checked edge by edge; else the first defect found."""
    if tuple(len(p) for p in parts) != sizes:
        return f"part sizes {[len(p) for p in parts]} != {list(sizes)}"
    flat = [v for p in parts for v in p]
    if len(set(flat)) != len(flat):
        return "parts overlap"
    if any(not 0 <= v < len(adj) for v in flat):
        return "vertex out of range"
    for i, pa in enumerate(parts):
        for pb in parts[i + 1:]:
            for u in pa:
                for v in pb:
                    if not adj[u, v]:
                        return f"missing cross edge ({u}, {v})"
    return None
