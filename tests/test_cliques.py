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

from spectral_turan.cliques import degeneracy_order

from oracles import (
    all_graphs,
    oracle_count_cliques,
    oracle_degeneracy_order,
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


def test_degeneracy_order_matches_scan_oracle():
    rnd = random.Random(77)
    star = Graph.from_edges(9, [(0, v) for v in range(1, 9)])
    corpus = [Graph.empty(0), Graph.empty(6), complete_graph(12), petersen(),
              turan_graph(30, 4), cycle_graph(11), star]
    for i in range(40):
        p = rnd.choice([0.01, 0.05, 0.3, 0.7, 0.95])
        corpus.append(gnp(rnd.randint(1, 300), p, i))
    for g in corpus:
        assert degeneracy_order(g) == oracle_degeneracy_order(g), g


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


def test_turan_graph_counts():
    # r-cliques of a complete multipartite graph pick at most one vertex per part
    g = complete_multipartite((3, 2, 2))
    assert count_cliques(g, 3) == 3 * 2 * 2
    assert count_cliques(g, 4) == 0


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
