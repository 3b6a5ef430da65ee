import itertools
import math
import random

import pytest

from spectral_turan import (
    Graph,
    complete_graph,
    complete_multipartite,
    count_cliques,
    cycle_graph,
    gnp,
    turan_graph,
)

import spectral_turan.cliques as cl

from oracles import (
    all_graphs,
    oracle_count_cliques,
    oracle_count_cliques_bitset,
    petersen,
    seeded_graph_sample,
)


def test_examples():
    assert count_cliques(complete_graph(5), 3) == 10
    assert count_cliques(turan_graph(6, 2), 3) == 0
    assert count_cliques(complete_graph(9), 3) == 84
    assert oracle_count_cliques(cycle_graph(5), 3) == 0
    assert oracle_count_cliques(complete_multipartite((2, 2, 2)), 3) == 8
    assert count_cliques(petersen(), 3) == 0
    assert oracle_count_cliques(petersen(), 3) == 0


def test_degenerate_orders():
    g = gnp(10, 0.5, 3)
    assert count_cliques(g, 1) == 10
    assert count_cliques(g, 2) == g.edge_count()
    assert count_cliques(g, 11) == 0
    assert count_cliques(complete_graph(7), 7) == 1
    with pytest.raises(ValueError):
        count_cliques(g, 0)


def test_exhaustive_oracle_equivalence_n_le_5():
    for n in range(6):
        for g in all_graphs(n):
            for r in range(2, 6):
                assert count_cliques(g, r) == oracle_count_cliques(g, r)


def test_seeded_oracle_equivalence_up_to_n12():
    for g in seeded_graph_sample(60, 6, 12):
        for r in range(2, 6):
            assert count_cliques(g, r) == oracle_count_cliques(g, r)


def test_monotone_under_edge_addition():
    g = gnp(11, 0.4, 8)
    for r in (3, 4):
        base = count_cliques(g, r)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert count_cliques(g.add_edge(u, v), r) >= base


def test_upper_bound_binomial():
    for g in [gnp(12, 0.7, 2), complete_graph(10), turan_graph(12, 4)]:
        for r in range(1, 6):
            assert count_cliques(g, r) <= math.comb(g.n, r)


def test_complete_graph_counts_are_binomials():
    for n in range(1, 13):
        g = complete_graph(n)
        for r in range(1, n + 1):
            assert count_cliques(g, r) == math.comb(n, r)
    for n, rs in ((40, range(3, 9)), (300, (4, 5))):
        for r in rs:
            assert count_cliques(complete_graph(n), r) == math.comb(n, r)


def _multipartite_cliques(sizes, r):
    """e_r of the part sizes: an r-clique takes one vertex from each of r parts."""
    e = [1] + [0] * r
    for s in sizes:
        for k in range(r, 0, -1):
            e[k] += s * e[k - 1]
    return e[r]


def test_turan_graph_counts():
    # r-cliques of a complete multipartite graph pick at most one vertex per part
    g = complete_multipartite((3, 2, 2))
    assert count_cliques(g, 3) == 3 * 2 * 2
    assert count_cliques(g, 4) == 0
    assert count_cliques(turan_graph(60, 5), 4) == _multipartite_cliques((12,) * 5, 4)
    # (25, 25) is dense, but every forward set is independent
    for sizes in ((12,) * 5, (25, 25), (9, 8, 7, 5, 3, 1), (20, 1, 1, 1, 17)):
        g = complete_multipartite(sizes)
        for r in range(3, 7):
            want = _multipartite_cliques(sizes, r)
            assert count_cliques(g, r) == want == oracle_count_cliques_bitset(g, r)


def test_oracle_domain_limit():
    with pytest.raises(ValueError):
        oracle_count_cliques(Graph.empty(17), 2)


def test_overflow_guard(monkeypatch):
    # the 128-bit counter limit is unreachable at desk scale; exercise the
    # guard by shrinking the limit
    import spectral_turan.cliques as cl

    monkeypatch.setattr(cl, "_COUNT_LIMIT", 5)
    with pytest.raises(cl.CliqueCountOverflowError):
        cl.count_cliques(complete_graph(5), 3)


def _planted_clique(g, vertices):
    """g with every pair of ``vertices`` joined."""
    return Graph.from_edges(g.n, [*g.edges(), *itertools.combinations(vertices, 2)])


def _preferential_attachment(n, m, seed):
    """K_{m+1}, then each new vertex joins m distinct earlier vertices drawn
    with probability proportional to degree."""
    rnd = random.Random(seed)
    edges = list(itertools.combinations(range(m + 1), 2))
    ends = [v for e in edges for v in e]
    for v in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rnd.choice(ends))
        for u in sorted(targets):
            edges.append((u, v))
            ends += (u, v)
    return Graph.from_edges(n, edges)


# skewed degree sequences are where a degree order and a degeneracy order
# (the oracle's) differ most
@pytest.mark.parametrize("g, rs", [
    (gnp(80, 0.8, 1), (3, 4, 5, 6)),
    (gnp(120, 0.9, 2), (5,)),
    (gnp(700, 0.1, 3), (4, 5)),
    (gnp(200, 0.3, 4), (4, 5)),
    (complete_graph(40), (3, 4, 5)),
    (_planted_clique(gnp(1000, 0.01, 1), range(0, 1000, 25)), (3, 4, 5)),
    (_preferential_attachment(2000, 8, 7), (4, 5)),
], ids=["G(80,.8)", "G(120,.9)", "G(700,.1)", "G(200,.3)", "K40",
        "K40-in-G(1000,.01)", "PA(2000,8)"])
def test_bitset_oracle_equivalence_beyond_brute_force(g, rs):
    for r in rs:
        assert count_cliques(g, r) == oracle_count_cliques_bitset(g, r), r


def _record_blocks(monkeypatch):
    blocks = []
    real = cl._blas_count

    def spy(block, need):
        blocks.append((len(block), need))
        return real(block, need)

    monkeypatch.setattr(cl, "_blas_count", spy)
    return blocks


@pytest.mark.parametrize("r", [4, 5])
def test_blas_switch_at_threshold_vertices(r, monkeypatch):
    # the forward sets of K_n are cliques of every size below n; one of
    # t = 12 vertices, the least with C(t, 2) >= _BLAS_MIN_EDGES, has 66
    # edges and switches, one of t - 1 vertices (55 edges) walks
    t = next(t for t in itertools.count() if math.comb(t, 2) >= cl._BLAS_MIN_EDGES)
    assert t == 12
    blocks = _record_blocks(monkeypatch)
    assert count_cliques(complete_graph(t), r) == math.comb(t, r)
    assert blocks == []
    assert count_cliques(complete_graph(t + 1), r) == math.comb(t + 1, r)
    assert blocks == [(t, r - 1)]


def test_sparse_sets_keep_the_bitset_walk(monkeypatch):
    # G(700, .1): forward sets of ~40 vertices with ~2 edges per vertex; the
    # 4-clique GEMM would cost more than the walk, so none is built
    blocks = _record_blocks(monkeypatch)
    count_cliques(gnp(700, 0.1, 3), 5)
    assert blocks == []
    assert count_cliques(complete_multipartite((25, 25)), 4) == 0
    assert blocks == []
    # every forward set of K40 would qualify for a block at need 3, but r = 3
    # needs 2 below the top level, and need 2 is the walk's own base case
    assert count_cliques(complete_graph(40), 3) == math.comb(40, 3)
    assert blocks == []


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_every_set_through_blas(chunk, monkeypatch):
    # drive every candidate set that needs 3 or 4 vertices through the
    # base cases, at several Y chunk sizes, empty and tiny blocks included
    monkeypatch.setattr(cl, "_BLAS_MIN_EDGES", 0)
    monkeypatch.setattr(cl, "_BLAS_EDGES_PER_VERTEX", 0)
    monkeypatch.setattr(cl, "_EDGE_CHUNK", chunk)
    blocks = _record_blocks(monkeypatch)
    for g in seeded_graph_sample(40, 4, 14, base_seed=9100):
        for r in (4, 5, 6):
            assert count_cliques(g, r) == oracle_count_cliques(g, r)
    for g in (gnp(60, 0.5, 5), gnp(50, 0.9, 6), petersen(), turan_graph(30, 4)):
        for r in (4, 5, 6):
            assert count_cliques(g, r) == oracle_count_cliques_bitset(g, r)
    assert {need for _, need in blocks} == {3, 4}
