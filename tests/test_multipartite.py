from itertools import islice

import pytest

from spectral_turan import (
    Graph,
    MultipartiteWitness,
    SearchBudgetExceeded,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    find_complete_multipartite,
    gnp,
    max_balanced_biclique,
    turan_graph,
    verify_witness,
)

from oracles import (
    all_graphs,
    brute_least_witness,
    brute_multipartite_exists,
    least_family_table,
    oracle_find_complete_multipartite,
    partitions_upto,
)


def test_verify_witness_examples():
    k23 = complete_multipartite((3, 2))
    sides = MultipartiteWitness(((0, 1, 2), (3, 4)))
    assert verify_witness(k23, sides)
    # delete one cross edge: the same parts no longer verify
    rows = list(k23.row(v) for v in range(5))
    rows[0] &= ~(1 << 3)
    rows[3] &= ~(1 << 0)
    damaged = Graph(5, rows)
    assert not verify_witness(damaged, sides)
    assert verify_witness(complete_graph(6), MultipartiteWitness(((0, 1), (2, 3), (4, 5))))


def test_verify_witness_rejects_overlap_and_range():
    g = complete_graph(4)
    assert not verify_witness(g, MultipartiteWitness(((0, 1), (1, 2))))
    with pytest.raises(ValueError):
        verify_witness(g, MultipartiteWitness(((0,), (7,))))


def test_find_examples():
    k23 = complete_multipartite((3, 2))
    w = find_complete_multipartite(k23, (2, 3))
    assert w is not None
    assert w.to_lists() == [[0, 1, 2], [3, 4]]
    assert find_complete_multipartite(cycle_graph(5), (2, 2)) is None
    # extra intra-part edges cannot destroy cross-completeness
    g = complete_multipartite((5, 2, 2)).add_edge(0, 1).add_edge(2, 3).add_edge(5, 6)
    w = find_complete_multipartite(g, (2, 2, 5))
    assert w is not None
    assert w.sizes() == (5, 2, 2)
    assert verify_witness(g, w)


def test_find_builds_parts_largest_first_deterministically():
    w = find_complete_multipartite(complete_graph(6), (1, 2, 3))
    assert w is not None
    assert w.sizes() == (3, 2, 1)
    assert w.to_lists() == [[0, 1, 2], [3, 4], [5]]


def test_find_oversized_request_rejected():
    with pytest.raises(ValueError):
        find_complete_multipartite(complete_graph(4), (3, 2))


def test_budget_exhaustion_is_distinct_from_absent():
    with pytest.raises(SearchBudgetExceeded):
        find_complete_multipartite(gnp(14, 0.5, 1), (3, 3), budget=2)


def test_permutation_coherence():
    hosts = [gnp(9, 0.6, s) for s in range(4)] + [complete_multipartite((3, 3, 2))]
    for g in hosts:
        for sizes in [(1, 2, 3), (3, 2, 1), (2, 3, 1)]:
            a = find_complete_multipartite(g, sizes)
            b = find_complete_multipartite(g, tuple(reversed(sizes)))
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b  # both normalize to nonincreasing order


def test_monotone_in_host():
    for seed in range(4):
        g = gnp(8, 0.5, 100 + seed)
        if find_complete_multipartite(g, (2, 2)) is None:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert find_complete_multipartite(g.add_edge(u, v), (2, 2)) is not None


def test_completeness_exhaustive_small():
    # n <= 4 exhaustively here; the full n <= 6 sweep is acceptance criterion 7
    for n in range(1, 5):
        tuples = [t for t in partitions_upto(n) if sum(t) <= n]
        for g in all_graphs(n):
            for sizes in tuples:
                w = find_complete_multipartite(g, sizes)
                assert (w is not None) == brute_multipartite_exists(g, sizes)
                if w is not None:
                    assert verify_witness(g, w)


def test_least_family_tables_agree_with_brute_force():
    # criterion 7's oracle: every graph at n <= 5, every 64th at n = 6
    cases = 0
    for n in range(1, 7):
        step = 64 if n == 6 else 1
        graphs = list(islice(all_graphs(n), 0, None, step))
        for sizes in partitions_upto(n):
            for g, want in zip(graphs, least_family_table(n, sizes)[::step]):
                assert (want is not None) == brute_multipartite_exists(g, sizes), (n, sizes)
                assert want == brute_least_witness(g, sizes), (n, sizes)
                cases += 1
    assert cases == 19_191 + 14_848


def test_completeness_seeded_up_to_n10():
    tuples = [(2, 2), (3, 2), (3, 3), (2, 2, 2), (4, 3), (1, 1, 1), (5, 5)]
    for i in range(40):
        n = 7 + i % 4
        g = gnp(n, (0.3, 0.5, 0.8)[i % 3], 7000 + i)
        for sizes in tuples:
            if sum(sizes) > n:
                continue
            w = find_complete_multipartite(g, sizes)
            assert (w is not None) == brute_multipartite_exists(g, sizes), (i, sizes)
            if w is not None:
                assert verify_witness(g, w)


def _minimal_budget(search, g, sizes):
    """Smallest budget under which ``search`` finishes, by bisection."""
    lo, hi = -1, 1  # search(lo) raises (or lo < 0), search(hi) is untested
    while True:
        try:
            search(g, sizes, budget=hi)
            break
        except SearchBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            search(g, sizes, budget=mid)
            hi = mid
        except SearchBudgetExceeded:
            lo = mid
    return hi


def test_search_matches_mask_rebuilding_oracle():
    # same witness and same minimal budget: same visit order, same counter
    cases = found = 0
    for i in range(150):
        n = 8 + i % 17
        r = 2 + i % 3
        g = gnp(n, (0.3, 0.5, 0.7, 0.9)[i % 4], 900 + i)
        base = 1 + i // 3 % 3
        sizes = (base,) * r if i % 2 else tuple(base + k % 2 for k in range(r))
        if sum(sizes) > n:
            continue
        w = find_complete_multipartite(g, sizes)
        assert w == oracle_find_complete_multipartite(g, sizes), (i, sizes)
        assert _minimal_budget(find_complete_multipartite, g, sizes) == _minimal_budget(
            oracle_find_complete_multipartite, g, sizes
        ), (i, sizes)
        cases += 1
        found += w is not None
    assert cases >= 140 and 0 < found < cases


def test_witness_deeper_than_the_recursion_limit():
    # 1,100 one-vertex parts: one search frame per part, past Python's
    # default recursion limit of 1,000
    g = turan_graph(1100, 1100)
    w = find_complete_multipartite(g, (1,) * 1100)
    assert w.parts == tuple((v,) for v in range(1100))
    assert verify_witness(g, w)


def test_max_balanced_biclique_examples():
    assert max_balanced_biclique(complete_multipartite((4, 4))).side == 4
    assert max_balanced_biclique(cycle_graph(5)).side == 1
    assert max_balanced_biclique(Graph.empty(4)).side == 0
    res = max_balanced_biclique(complete_multipartite((4, 4)))
    assert res.exact
    assert res.witness is not None
    assert verify_witness(complete_multipartite((4, 4)), res.witness)


def test_max_balanced_biclique_budget_flag():
    res = max_balanced_biclique(gnp(20, 0.5, 9), budget=3)
    assert not res.exact


def test_max_balanced_biclique_domain():
    with pytest.raises(ValueError):
        max_balanced_biclique(Graph.empty(1))


LEAST_SIZES = [(1, 1), (2, 2), (3, 3), (3, 2), (2, 2, 2), (2, 2, 1), (3, 3, 2)]


def test_witness_is_the_least_family_on_seeded_graphs():
    cases = found = 0
    for i in range(36):
        n = 7 + i % 6
        g = gnp(n, (0.4, 0.6, 0.8)[i % 3], 4200 + i)
        for sizes in LEAST_SIZES:
            if sum(sizes) > n:
                continue
            w = find_complete_multipartite(g, sizes)
            assert w == brute_least_witness(g, sizes), (i, sizes)
            cases += 1
            found += w is not None
    assert 0 < found < cases
