"""Exact r-clique counting by ordered bitset extension."""

from __future__ import annotations

from .graphs import Graph

COUNT_BITS = 128
_COUNT_LIMIT = 1 << COUNT_BITS


class CliqueCountOverflowError(OverflowError):
    """Clique count exceeds the 128-bit counter contract."""


def degeneracy_order(g: Graph) -> list[int]:
    """Vertices in degeneracy order (repeatedly remove a min-degree vertex).

    Ties break on the smallest label, so the order is deterministic.  A
    bucket queue (Matula & Beck, JACM 1983) keeps ``bucket[d]`` as the
    bitmask of remaining vertices of degree d: each step pops the lowest
    set bit of the lowest nonempty bucket, and since a removal lowers
    degrees by at most one, the bucket pointer then drops by at most one.
    """
    n = g.n
    degs = [g.degree(v) for v in range(n)]
    bucket = [0] * max(n, 1)
    for v, d in enumerate(degs):
        bucket[d] |= 1 << v
    alive = (1 << n) - 1
    order = []
    d = 0
    for _ in range(n):
        while not bucket[d]:
            d += 1
        b = bucket[d] & -bucket[d]
        bucket[d] ^= b
        alive ^= b
        v = b.bit_length() - 1
        order.append(v)
        m = g.row(v) & alive
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            du = degs[u]
            bucket[du] ^= b
            bucket[du - 1] |= b
            degs[u] = du - 1
        d = max(d - 1, 0)
    return order


def count_cliques(g: Graph, r: int) -> int:
    """Exact number of r-vertex cliques.

    Recursion extends partial cliques in increasing position of a degeneracy
    order; the candidate set is the bit-intersection of forward neighborhoods,
    so each clique is generated exactly once.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = g.n
    if r > n:
        return 0
    if r == 1:
        return n
    if r == 2:
        return g.edge_count()

    # forward[v] = neighbors of v that come later in the degeneracy order
    forward = [0] * n
    later = 0
    for v in reversed(degeneracy_order(g)):
        forward[v] = g.row(v) & later
        later |= 1 << v

    def extend(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        if cand.bit_count() < need:
            return 0
        total = 0
        m = cand
        while m:
            b = m & -m
            m ^= b
            total += extend(forward[b.bit_length() - 1] & cand, need - 1)
        return total

    total = extend((1 << n) - 1, r)
    if total >= _COUNT_LIMIT:
        raise CliqueCountOverflowError(
            f"clique count exceeds {COUNT_BITS}-bit limit"
        )
    return total
