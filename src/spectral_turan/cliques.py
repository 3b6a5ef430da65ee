"""Exact r-clique counting: whole-graph GEMMs on dense graphs, ordered
bitset extension with BLAS base cases elsewhere, and packed popcounts for
its triangles.

Both paths orient every edge forward along the vertices sorted by degree
(ties by label), so each clique has one earliest vertex and one vertex order.

A graph that is at least half full (4m >= n(n - 1)) on at most
``spectral._DENSE_LIMIT`` = 2048 vertices (the order up to which
``spectral`` builds dense float64 matrices too, for the same memory reason)
counts r = 3, 4 and 5 on U, its oriented adjacency matrix with rows and
columns in orientation order, which is strictly upper triangular:

- r = 3, 4 and 5: each clique is counted once, at its vertex k with
  exactly two clique vertices after it (the first of three, the second of
  four, the middle of five).  With B and F the backward and forward
  neighbours of k, the rows of Z are the (r - 3)-cliques of B, each as the
  vertices of F joined to its whole clique, and k's count is
  ``sum((Z @ U[F][:, F]) * Z)``, one per edge c -> d of F inside a row.
- r = 3: Z is one row of ones, so every k's count is a row of
  ``sum((U @ U) * U)``, one per oriented path a -> b -> c closed by
  a -> c, summed over row blocks of U, ``graphs.ROW_BLOCK`` entries at a
  time, so the n x n product is never held whole.
- r = 4 and 5: Z = U[B][:, F] at r = 4, one row per vertex, and at r = 5 the
  row U[a, F] * U[b, F] for each edge a -> b inside B.  A k whose F spans no
  edge is skipped, so a bipartite graph runs no GEMM.  One pass over the k
  reads their edges in from U's column sums, and calls no kernel at a k
  with none (r = 4) or fewer than two (r = 5), where none can count.  At
  r = 5 each k takes one GEMM, its rows ``_Z_ENTRIES`` entries at a time:
  besides U the kernel holds U[F][:, F] in float32 and the edge list of B
  (together under 4n^2 bytes), boolean blocks of U, and O(_Z_ENTRIES + n)
  for one chunk.
- r = 4: the pass merges runs of consecutive vertices k0 <= k < k1 into
  one GEMM, as one k's GEMM is mostly too small to cost more than its
  numpy calls (on G(80, .8) 3 runs take 0.3-0.4 times as long as 77 single
  vertices).  A run's F is the union of its vertices' forward sets, and its
  Z has one row per edge a -> k into the run, U[a, F] & U[k, F], the
  vertices after k joined to both; such a row vanishes outside k's own F,
  so the union changes no count.  A vertex with no edge in adds no row and
  no column, and a run with no row or whose F spans no edge is skipped, so
  T(n, 2) and T(n, 3) run no GEMM either.  Three rules size a run: it
  grows while its rows times n - k0 - 1 stay within ``_Z_ENTRIES``, with
  room for no row where (n - k0 - 1)^2 does not, so its Z and its
  U[F][:, F] fit; and a run of one or two vertices goes one vertex at a
  time: two would save one GEMM's calls but widen both rows to the union F
  (G(300, .8) 2-3% slower).  So on more than ~180 vertices the first
  vertices go alone too: merged there, the union's U[F][:, F] of ~n^2
  entries, over a few rows, made G(600, .5) 9-10% slower.  Beyond U a run
  holds U[:, F] and blocks of its vertices' rows and columns of U (each
  under n * sqrt(_Z_ENTRIES) bytes), Z, U[F][:, F] and their product in
  bool and float32, and index arrays of Z's rows.

Other graphs, and every r >= 6, extend partial cliques through candidate
sets, the bit-intersections of forward neighbourhoods, so each clique is
generated exactly once, at its earliest vertex.  The top level loops over
vertices, so every candidate set is a forward neighbourhood.  The k forward
neighbours of v each have degree >= deg v >= k and all degrees sum to 2m, so
a set holds at most min(deg v, sqrt(2m)) vertices (Chiba & Nishizeki, SIAM
J. Comput. 1985).  One walk serves every r: a set that needs k >= 3 more
vertices pushes the forward sets inside it at need k - 1 on an explicit
stack (no recursion, so no limit on r), and need 2 is the walk's one base
case, where a set counts its edges, one popcount per vertex.  A set with
exactly the k vertices it needs holds one clique if all its pairs are edges
and none otherwise, so it counts its edges and pushes nothing (pushing its
subsets would take O(n^3) popcounts on K_n at r = n - 1).

At r = 3 the walk's whole count, each triangle once at its earliest vertex,
is the sum over oriented edges t -> h of ``popcount(forward[t] &
forward[h])``, and ``_forward_triangles`` takes it in numpy instead of one
Python ``&`` per edge.  It packs the forward rows once into an
(n, ceil(n / 64)) uint64 array, ~n^2 / 8 bytes.  Then, one block of rows of
``graphs.ROW_BLOCK`` bits at a time (at most ROW_BLOCK bytes unpacked), it
lists the block's edges and sums ``np.bitwise_count`` (numpy >= 2.0) of the
AND of their tail and head rows, gathered as many rows per operand.  So
beyond the packed rows it holds O(ROW_BLOCK) bytes.  A graph at least half
full keeps the r = 3 GEMM above: on G(80, .8) that takes 0.06 ms against
0.10 ms for the packed kernel.

A set of at most 2048 vertices that still needs 3 or 4 vertices can finish
in numpy instead of one Python call per clique, on U, its block of the
oriented adjacency matrix in orientation order (the whole graph's boolean
matrix is built once, on first use):

- need 3: the set's triangles number ``sum((U @ U) * U)``, as above.
- need 4: for each oriented edge j -> k of the set, the row
  ``Z = U[j] & U[k]`` marks their common forward neighbours, and the set's
  4-cliques number ``sum((Z @ U) * Z)``.  A row of Z vanishes left of its
  k, so with the edges in increasing k each chunk's GEMM runs on the
  columns after its first k only.  The dense path's r = 4 kernel keeps its
  runs: on a whole graph it skips every run whose F spans no edge (T(128,
  3): 0.24 ms against 1.1 ms for these chunks), while on the walk's blocks
  these chunks cost less (G(150, .6): 1.35 ms against 1.6 ms).

The GEMM has a fixed cost, and the 4-clique one grows with the edge count,
so a set switches only when it has ``_BLAS_MIN_EDGES`` edges and, at need 4,
``_BLAS_EDGES_PER_VERTEX`` per vertex.  Counting a set's edges costs a pass
over it, so the graph's edge density times C(size, 2) must first promise
that many.  Other sets stay in the bitset walk.  A set of exactly the size
it needs never qualifies, so it is decided before the switch, and r = 3
never reaches it.

Exactness: every GEMM runs in float32 on at most 2048 vertices, with 0/1
entries in Z and U.  A product entry is then at most 2047 and a row's count
at most C(2047, 2), both below 2^24, so float32 holds each exactly; a chunk
whose sum could reach 2^24 sums its rows in float64, and no sum reaches
2^53 (r = 3 sums at most C(n, 3), one k at r = 4 and 5 at most
C(k, r - 3) * C(n - k - 1, 2), and a run or a set C(2048, 4)).  Every sum adds
non-negative integers, and a partial sum never exceeds the total, so every
float value is an exact integer in any summation order.  The counts are
summed as Python ints and checked against the 128-bit ``_COUNT_LIMIT``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .graphs import ROW_BLOCK, Graph, unpack_rows
from .spectral import _DENSE_LIMIT

COUNT_BITS = 128
_COUNT_LIMIT = 1 << COUNT_BITS

# a candidate set takes a BLAS base case from this many edges on (and, at
# need 4, this many per vertex); below, the bitset walk is cheaper: without
# the per-vertex bound, G(3000, .03) at r = 5 ran 164-277 -> 242-303 ms
_BLAS_MIN_EDGES = 64
_BLAS_EDGES_PER_VERTEX = 4
# entries of Z per GEMM at need 4, at r = 5 and in an r = 4 run (whose
# U[F][:, F] stays within it too): 128 KiB of float32, so a chunk and its
# product stay in cache (the r = 3 row blocks take ROW_BLOCK entries: blocks
# this small made T(2048, 2) 3x slower)
_Z_ENTRIES = 1 << 15


class CliqueCountOverflowError(OverflowError):
    """Clique count exceeds the 128-bit counter contract."""


def _blas_count(u: np.ndarray, need: int) -> int:
    """Triangles (need 3) or 4-cliques (need 4) of a strictly upper
    triangular boolean oriented matrix on at most 2048 vertices (see the
    module docstring)."""
    n = len(u)
    f = u.astype(np.float32)
    if need == 3:
        step = max(1, ROW_BLOCK // n)
        return sum(_edges_in_rows(f[lo:lo + step], f) for lo in range(0, n, step))
    # edges j -> k in increasing k: a chunk's rows vanish left of its first
    # k, so its GEMM runs on the trailing columns only; without this, G(1000,
    # .3) at r = 5 ran 2.4-2.7 -> 6.4-8.8 s
    k, j = np.divmod(np.flatnonzero(u.T), n)
    step = max(1, _Z_ENTRIES // n)
    total = 0
    for lo in range(0, len(k), step):
        c = k[lo] + 1
        rows = u[j[lo:lo + step], c:] & u[k[lo:lo + step], c:]
        total += _edges_in_rows(rows, f[c:, c:])
    return total


def _pivot_count(u: np.ndarray, r: int) -> int:
    """4-cliques (r = 4) or 5-cliques (r = 5) of a strictly upper triangular
    boolean oriented matrix, each counted at its vertex k with two clique
    vertices after it (see the module docstring)."""
    n = len(u)
    # the edges a -> k into each k: Z's rows at r = 4, B's vertices at r = 5
    rows = u.sum(0, dtype=np.uint16).tolist()
    total = 0
    k0 = r - 3
    while k0 < n - 2:
        # the longest run [k0, k1) whose Z and U[F][:, F], on n - k0 - 1
        # columns, fit _Z_ENTRIES each; at r = 5 no row fits
        width = n - 1 - k0
        room = _Z_ENTRIES // width if r == 4 and width * width <= _Z_ENTRIES else 0
        k1, held = k0, 0
        while k1 < n - 2 and held + rows[k1] <= room:
            held += rows[k1]
            k1 += 1
        if k1 < k0 + 3:  # one or two vertices go one at a time
            if rows[k0] >= r - 3:
                total += _pivot_at(u, k0, r)
            k1 = k0 + 1
        elif held:
            # a vertex with no edge in counts nothing, and adds no column
            total += _run_at(u, k0, np.flatnonzero(rows[k0:k1]) + k0)
        k0 = k1
    return total


def _run_at(u: np.ndarray, k0: int, heads: np.ndarray) -> int:
    """The 4-cliques counted at ``heads``, vertices k >= k0 in increasing
    order, in one GEMM; its temporaries go when it returns."""
    # F: the union of the heads' forward sets
    c = k0 + 1
    fwd = np.flatnonzero(u.take(heads, 0)[:, c:].any(0)) + c
    inner = u.take(fwd, 0).take(fwd, 1)
    if not inner.any():
        return 0
    # one row per edge a -> k: the common forward neighbours of a and k
    k, a = np.nonzero(u[:heads[-1] + 1].take(heads, 1).T)
    cols = u.take(fwd, 1)
    return _edges_in_rows(cols.take(a, 0) & cols.take(heads[k], 0), inner.astype(np.float32))


def _pivot_at(u: np.ndarray, k: int, r: int) -> int:
    """The r-cliques counted at k; its temporaries go when it returns."""
    fwd = u[k, k + 1:].nonzero()[0] + (k + 1)
    back = u[:k, k].nonzero()[0]
    if len(fwd) < 2 or len(back) < r - 3:
        return 0
    inner = u.take(fwd, 0).take(fwd, 1)
    if not inner.any():
        return 0
    inner = inner.astype(np.float32)
    rows = u.take(back, 0)
    if r == 4:
        # one row per a in B: at most n of them, so no chunks
        return _edges_in_rows(rows.take(fwd, 1), inner)
    # the edges a -> b inside B, by flat index a * |B| + b
    edges = np.flatnonzero(rows.take(back, 1))
    rows = rows.take(fwd, 1)
    step = max(1, _Z_ENTRIES // len(fwd))
    total = 0
    for lo in range(0, len(edges), step):
        a, b = np.divmod(edges[lo:lo + step], len(back))
        total += _edges_in_rows(rows.take(a, 0) & rows.take(b, 0), inner)
    return total


def _edges_in_rows(z: np.ndarray, inner: np.ndarray) -> int:
    """``sum((Z @ inner) * Z)`` for 0/1 rows Z: each row's count of
    edges c -> d inside it.  A product entry is at most |F| and a row's count
    at most C(|F|, 2), both below 2^24 for |F| <= 2048, so float32 holds
    every one exactly, and the whole sum too while rows * C(|F|, 2) < 2^24;
    past that, the rows are summed in float64."""
    z = z.astype(np.float32, copy=False)
    product = z @ inner
    f = len(inner)
    if len(z) * f * (f - 1) < 1 << 25:
        return int(np.vdot(product, z))
    return int(np.einsum("ij,ij->i", product, z).sum(dtype=np.float64))


def _forward_triangles(forward: Sequence[int], n: int) -> int:
    """Triangles of a graph oriented by ``forward`` (bit h of forward[t] is
    the edge t -> h), each once at its earliest vertex: the sum over edges
    t -> h of ``popcount(forward[t] & forward[h])`` (see the module
    docstring)."""
    words = (n + 63) // 64 or 1
    # rows per block: ROW_BLOCK bits, and under ROW_BLOCK bytes unpacked
    step = max(1, ROW_BLOCK // (64 * words))
    # little-endian words, so byte i of a row holds its bits 8i..8i+7
    packed = np.empty((n, words), dtype="<u8")
    for lo in range(0, n, step):
        rows = b"".join(mask.to_bytes(8 * words, "little") for mask in forward[lo:lo + step])
        packed[lo:lo + step] = np.frombuffer(rows, dtype="<u8").reshape(-1, words)
    total = 0
    for lo in range(0, n, step):
        bits = np.unpackbits(packed[lo:lo + step].view(np.uint8), axis=1, count=n,
                             bitorder="little").view(np.bool_)
        tail, head = np.divmod(np.flatnonzero(bits), n)
        tail += lo
        # one gather of ``step`` rows per operand: ROW_BLOCK bits each
        for e in range(0, len(tail), step):
            common = packed[tail[e:e + step]] & packed[head[e:e + step]]
            total += int(np.bitwise_count(common).sum())
    return total


def _walk(g: Graph, r: int, order: list[int], m: int) -> int:
    """r-cliques by bitset extension along ``order`` (see the module
    docstring), for 3 <= r <= n."""
    n = g.n
    # forward[v] = neighbors of v that come later in the orientation order
    forward = [0] * n
    later = 0
    for v in reversed(order):
        forward[v] = g.row(v) & later
        later |= 1 << v
    if r == 3:
        return _forward_triangles(forward, n)
    density = 2 * m / (n * (n - 1))
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
        idx = np.flatnonzero(unpack_rows([cand], n)[0])
        idx = idx[np.argsort(pos[idx])]
        return _blas_count(oriented.take(idx, 0).take(idx, 1), need)

    total = 0
    # sets to extend, each with the k >= 3 vertices it needs and at least k
    # vertices, on an explicit stack: no recursion, so no limit on r
    stack = [(cand, r - 1) for cand in forward if cand.bit_count() >= r - 1]
    while stack:
        cand, need = stack.pop()
        size = cand.bit_count()
        if size == need:
            # the whole set or nothing: one clique if all its pairs are edges
            total += edges(cand) == size * (size - 1) // 2
            continue
        if need <= 4 and size <= _DENSE_LIMIT:
            target = _BLAS_MIN_EDGES
            if need == 4:
                target = max(target, _BLAS_EDGES_PER_VERTEX * size)
            if density * size * (size - 1) >= 2 * target and edges(cand) >= target:
                total += blas(cand, need)
                continue
        m = cand
        while m:
            b = m & -m
            m ^= b
            sub = forward[b.bit_length() - 1] & cand
            if need == 3:
                total += edges(sub)
            elif sub.bit_count() >= need - 1:
                stack.append((sub, need - 1))
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

    order = sorted(range(n), key=g.degree)
    m = g.edge_count()
    if r <= 5 and n <= _DENSE_LIMIT and 4 * m >= n * (n - 1):
        u = np.triu(g.to_bits(order)[:, order], 1)
        total = _blas_count(u, 3) if r == 3 else _pivot_count(u, r)
    else:
        total = _walk(g, r, order, m)
    if total >= _COUNT_LIMIT:
        raise CliqueCountOverflowError(
            f"clique count exceeds {COUNT_BITS}-bit limit"
        )
    return total
