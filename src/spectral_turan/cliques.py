"""Exact r-clique counting by ordered bitset extension, with BLAS base cases.

``count_cliques`` orients every edge forward along the vertices sorted by
degree (ties by label) and extends partial cliques through candidate sets,
the bit-intersections of forward neighbourhoods, so each clique is generated
exactly once, at its earliest vertex.  The top level loops over vertices, so
every candidate set is a forward neighbourhood.  The k forward neighbours of
v each have degree >= deg v >= k and all degrees sum to 2m, so a set holds
at most min(deg v, sqrt(2m)) vertices (Chiba & Nishizeki, SIAM J. Comput.
1985).  One recursion serves every r: a set that needs k >= 3 more vertices
recurses into the forward sets inside it at need k - 1, and need 2 is the
walk's one base case, where a set counts its edges, one popcount per vertex.

A set that still needs 3 or 4 vertices can finish in numpy instead of one
Python call per clique.  Both base cases run on U, the set's block of the
oriented adjacency matrix in float64 (the whole graph's boolean matrix is
built once, on first use):

- need 3: the set's triangles number ``sum((U @ U) * U)``, one per
  oriented path a -> b -> c closed by a -> c.
- need 4: for each oriented edge j -> k of the set, the row
  ``Y = U[j] * U[k]`` marks their common forward neighbours, and the set's
  4-cliques number ``sum((Y @ U) * Y)``, one per edge c -> d inside a row.
  With the set in orientation order U is strictly upper triangular, so a row
  of Y vanishes left of its k.  Y is built ``_EDGE_CHUNK`` rows at a time in
  increasing k, which bounds the temporaries, and each chunk's GEMM runs on
  the columns after its first k only.

The GEMM has a fixed cost, and the 4-clique one grows with the edge count,
so a set switches only when it has ``_BLAS_MIN_EDGES`` edges and, at need 4,
``_BLAS_EDGES_PER_VERTEX`` per vertex.  Counting a set's edges costs a pass
over it, so the graph's edge density times C(size, 2) must first promise
that many.  Other sets stay in the bitset walk: need 2 is decided before
the switch, so r = 3 never leaves it, and sparse graphs keep it too.

Exactness: both sums add non-negative integers, and their totals are at most
C(d, 3) and C(d, 4) for a set of d vertices; every product entry is at most
d.  For d <= MAX_VERTICES = 10^4, C(d, 4) < 2^53, and a partial sum of
non-negative terms never exceeds the total, so every float64 value is an
exact integer in any BLAS summation order.  The per-set counts are summed
as Python ints and checked against the 128-bit ``_COUNT_LIMIT``.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, unpack_rows

COUNT_BITS = 128
_COUNT_LIMIT = 1 << COUNT_BITS

# a candidate set takes a BLAS base case from this many edges on (and, at
# need 4, this many per vertex); below, the bitset walk is cheaper
_BLAS_MIN_EDGES = 64
_BLAS_EDGES_PER_VERTEX = 4
# rows of Y per GEMM in the 4-clique base case
_EDGE_CHUNK = 256


class CliqueCountOverflowError(OverflowError):
    """Clique count exceeds the 128-bit counter contract."""


def _blas_count(block: np.ndarray, need: int) -> int:
    """Triangles (need 3) or 4-cliques (need 4) of a block of the oriented
    adjacency matrix; at need 4 its vertices must be in orientation order,
    so the block is strictly upper triangular."""
    u = block.astype(np.float64)
    if need == 3:
        return int(np.vdot(u @ u, u))
    # edges j -> k in increasing k: a chunk's rows of Y vanish left of its
    # first k, so its GEMM runs on the trailing columns only
    k, j = np.divmod(np.flatnonzero(block.T), len(block))
    total = 0
    for lo in range(0, len(k), _EDGE_CHUNK):
        c = k[lo] + 1
        tail = u[:, c:]
        y = tail[j[lo:lo + _EDGE_CHUNK]] * tail[k[lo:lo + _EDGE_CHUNK]]
        total += int(np.vdot(y @ tail[c:], y))
    return total


def count_cliques(g: Graph, r: int) -> int:
    """Exact number of r-vertex cliques (see the module docstring)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = g.n
    if r > n:
        return 0
    if r == 1:
        return n
    if r == 2:
        return g.edge_count()

    # forward[v] = neighbors of v that come later in the orientation order
    order = sorted(range(n), key=g.degree)
    forward = [0] * n
    later = 0
    for v in reversed(order):
        forward[v] = g.row(v) & later
        later |= 1 << v
    density = 2 * g.edge_count() / (n * (n - 1))
    # orientation positions and the forward adjacency as a boolean matrix,
    # built on first use
    pos = oriented = None

    def edges(cand: int) -> int:
        total = 0
        m = cand
        while m:
            b = m & -m
            m ^= b
            total += (forward[b.bit_length() - 1] & cand).bit_count()
        return total

    def blas(cand: int, need: int) -> int:
        nonlocal pos, oriented
        if oriented is None:
            pos = np.empty(n, dtype=np.intp)
            pos[order] = np.arange(n)
            oriented = unpack_rows(forward, n)
        idx = np.flatnonzero(np.unpackbits(
            np.frombuffer(cand.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
            count=n, bitorder="little"))
        if need == 4:
            idx = idx[np.argsort(pos[idx])]
        return _blas_count(oriented.take(idx, 0).take(idx, 1), need)

    def extend(cand: int, need: int) -> int:
        """Number of need-cliques inside cand, for need >= 2."""
        if need == 2:
            return edges(cand)
        size = cand.bit_count()
        if size < need:
            return 0
        if need <= 4:
            target = _BLAS_MIN_EDGES
            if need == 4:
                target = max(target, _BLAS_EDGES_PER_VERTEX * size)
            if density * size * (size - 1) >= 2 * target and edges(cand) >= target:
                return blas(cand, need)
        total = 0
        m = cand
        while m:
            b = m & -m
            m ^= b
            total += extend(forward[b.bit_length() - 1] & cand, need - 1)
        return total

    total = sum(extend(cand, r - 1) for cand in forward)
    if total >= _COUNT_LIMIT:
        raise CliqueCountOverflowError(
            f"clique count exceeds {COUNT_BITS}-bit limit"
        )
    return total
