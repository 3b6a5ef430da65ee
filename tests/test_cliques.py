import functools
import gc
import itertools
import math
import random
import tracemalloc

import numpy as np
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


def test_counting_leaves_no_reference_cycles():
    # a cycle would hold the walk's bitsets and matrix until the collector
    # ran, so a campaign's memory would grow with the time between runs
    gc.collect()
    gc.disable()
    try:
        for g, r in ((gnp(300, 0.2, 1), 4), (gnp(60, 0.8, 1), 6), (gnp(60, 0.8, 1), 5)):
            count_cliques(g, r)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_walk_depth_is_not_bounded_by_recursion():
    # the walk extends one clique vertex per level: above ~1,000 levels a
    # recursive walk raised RecursionError instead of counting
    assert count_cliques(complete_graph(1010), 1010) == 1


@pytest.mark.parametrize("n", [8, 30])
def test_sets_of_exactly_the_needed_size(n):
    # at r = n - 1 and n - 2 most sets on the stack hold exactly the vertices
    # they need: such a set is one clique if all its pairs are edges and
    # none otherwise, with and without missing edges among them
    for k in (0, 1, 2, n // 2):
        g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if not (v == u + 1 and u % 2 == 0 and u < 2 * k)])
        assert g.edge_count() == math.comb(n, 2) - k
        for r in (n - 1, n - 2):
            assert count_cliques(g, r) == oracle_count_cliques_bitset(g, r), (k, r)


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


def _padded(g, isolated):
    """g plus ``isolated`` vertices with no edges."""
    return Graph.from_edges(g.n + isolated, list(g.edges()))


@pytest.mark.parametrize("r", [4, 5])
def test_blas_switch_at_threshold_vertices(r, monkeypatch):
    # below half full the density promise decides the switch.  K_s plus s
    # isolated vertices has density (s - 1) / (2(2s - 1)), and the forward
    # set of its first vertex is a clique of s - 1 vertices; at need r - 1 it
    # switches once density * (s - 1)(s - 2) reaches 2 * 64 (need 3) or
    # 2 * 4(s - 1) (need 4).  t is the least such set, and one of t - 1
    # vertices walks (at r = 5 its inner sets may still switch at need 3)
    t = {4: 24, 5: 34}[r]
    blocks = _record_blocks(monkeypatch)
    for s, want in ((t, []), (t + 1, [(t, r - 1)])):
        g = _padded(complete_graph(s), s)
        assert 4 * g.edge_count() < g.n * (g.n - 1)
        assert count_cliques(g, r) == math.comb(s, r)
        assert [b for b in blocks if b[1] == r - 1] == want
        blocks.clear()


def test_sparse_sets_keep_the_bitset_walk(monkeypatch):
    # G(700, .1): forward sets of ~40 vertices with ~2 edges per vertex; the
    # 4-clique GEMM would cost more than the walk, so none is built
    blocks = _record_blocks(monkeypatch)
    count_cliques(gnp(700, 0.1, 3), 5)
    assert blocks == []
    # two isolated vertices put K_{25,25} below half full; its forward sets
    # are big enough for the density promise, but independent
    g = _padded(complete_multipartite((25, 25)), 2)
    assert 4 * g.edge_count() < g.n * (g.n - 1)
    assert count_cliques(g, 4) == 0
    assert blocks == []
    # below half full, every forward set of K40 would qualify for a block at
    # need 3, but r = 3 never reaches the switch: the walk counts it whole in
    # its packed popcount kernel, _forward_triangles
    g = _padded(complete_graph(40), 20)
    assert 4 * g.edge_count() < g.n * (g.n - 1)
    assert count_cliques(g, 3) == math.comb(40, 3)
    assert blocks == []


# Z entries per need-4 chunk: one row, a few rows, the default
@pytest.mark.parametrize("entries", [1, 280, cl._Z_ENTRIES])
def test_every_set_through_blas(entries, monkeypatch):
    # drive every candidate set that needs 3 or 4 vertices through the
    # base cases, at several chunk sizes, empty and tiny blocks included
    monkeypatch.setattr(cl, "_BLAS_MIN_EDGES", 0)
    monkeypatch.setattr(cl, "_BLAS_EDGES_PER_VERTEX", 0)
    monkeypatch.setattr(cl, "_Z_ENTRIES", entries)
    blocks = _record_blocks(monkeypatch)
    for g in seeded_graph_sample(40, 4, 14, base_seed=9100):
        for r in (4, 5, 6):
            assert count_cliques(g, r) == oracle_count_cliques(g, r)
    for g in (gnp(60, 0.5, 5), gnp(50, 0.9, 6), petersen(), turan_graph(30, 4)):
        for r in (4, 5, 6):
            assert count_cliques(g, r) == oracle_count_cliques_bitset(g, r)
    assert {need for _, need in blocks} == {3, 4}


@pytest.mark.parametrize("r", [4, 5])
def test_sets_above_the_dense_cap_walk(r, monkeypatch):
    # K40 plus 40 isolated vertices walks at a cap of 30; its forward sets
    # of 31 to 39 vertices would qualify for a base case, but every GEMM
    # operand must stay within the cap, so they recurse instead
    monkeypatch.setattr(cl, "_DENSE_LIMIT", 30)
    blocks = _record_blocks(monkeypatch)
    assert count_cliques(_padded(complete_graph(40), 40), r) == math.comb(40, r)
    assert max(size for size, _ in blocks) == 30


def _record_paths(monkeypatch):
    """Spy on the whole-graph base cases and the walk: one name per call
    from count_cliques; calls made inside them, such as the walk's to
    ``_blas_count``, are not recorded."""
    calls = []
    active = []
    for name in ("_edges_in_rows", "_pivot_count", "_walk", "_blas_count"):
        def spy(*args, real=getattr(cl, name), name=name):
            if not active:
                calls.append(name)
            active.append(name)
            try:
                return real(*args)
            finally:
                active.pop()

        monkeypatch.setattr(cl, name, spy)
    return calls


def _dense_path(r):
    return "_blas_count" if r == 3 else "_pivot_count"


@pytest.mark.parametrize("r", [3, 4, 5])
def test_dense_path_from_half_full(r, monkeypatch):
    # at n = 20, 4m = n(n - 1) is 95 edges: one edge less walks, and from
    # there on the whole-graph base case counts
    pairs = list(itertools.combinations(range(20), 2))
    random.Random(5).shuffle(pairs)
    calls = _record_paths(monkeypatch)
    for m, path in ((94, "_walk"), (95, _dense_path(r)), (96, _dense_path(r))):
        g = Graph.from_edges(20, pairs[:m])
        assert 4 * g.edge_count() - g.n * (g.n - 1) == 4 * (m - 95)
        want = oracle_count_cliques_bitset(g, r)
        assert want > 0
        assert count_cliques(g, r) == want
        assert calls == [path]
        calls.clear()


@functools.cache
def _dense_cases():
    """(graph, {r: oracle count}) for graphs at least half full."""
    graphs = [gnp(80, 0.8, seed) for seed in (1, 2, 3)]
    graphs += [complete_graph(n) for n in range(1, 41)]
    graphs += [turan_graph(60, 4), complete_multipartite((25, 25, 25)), _padded(gnp(40, 0.9, 2), 10)]
    cases = [(g, {r: oracle_count_cliques_bitset(g, r) for r in range(3, 7)}) for g in graphs]
    # r = 6 walks, and its oracle takes ~20 s here
    g = gnp(150, 0.8, 1)
    return cases + [(g, {r: oracle_count_cliques_bitset(g, r) for r in range(3, 6)})]


# Z entries per chunk: one row, a few rows (7 at |F| = 40), the default
@pytest.mark.parametrize("entries", [1, 280, cl._Z_ENTRIES])
def test_dense_path_matches_the_bitset_oracle(entries, monkeypatch):
    monkeypatch.setattr(cl, "_Z_ENTRIES", entries)
    calls = _record_paths(monkeypatch)
    for g, want in _dense_cases():
        assert 4 * g.edge_count() >= g.n * (g.n - 1)
        for r, count in want.items():
            assert count_cliques(g, r) == count, (g, r)
            assert calls == ([] if r > g.n else ["_walk"] if r == 6 else [_dense_path(r)])
            calls.clear()
    assert count_cliques(turan_graph(60, 4), 5) == 0  # T(60, 4) is K5-free


def _oriented(g):
    """The dense path's U: g's adjacency in degree order, upper triangle."""
    order = sorted(range(g.n), key=g.degree)
    return np.triu(g.to_bits(order)[:, order], 1)


def _record_runs(monkeypatch):
    """Spy on the r = 4 kernel's one-vertex pivots and merged runs: one
    (first vertex, vertices) pair per call."""
    runs = []
    real_pivot, real_run = cl._pivot_at, cl._run_at

    def pivot(u, k, r):
        runs.append((k, 1))
        return real_pivot(u, k, r)

    def run(u, k0, heads):
        runs.append((k0, len(heads)))
        return real_run(u, k0, heads)

    monkeypatch.setattr(cl, "_pivot_at", pivot)
    monkeypatch.setattr(cl, "_run_at", run)
    return runs


def _record_gemms(monkeypatch):
    """Spy on ``_edges_in_rows``: one (rows, columns) pair per GEMM."""
    gemms = []
    real = cl._edges_in_rows

    def spy(z, inner):
        gemms.append((len(z), len(inner)))
        return real(z, inner)

    monkeypatch.setattr(cl, "_edges_in_rows", spy)
    return gemms


@pytest.mark.parametrize("n", [5, 40, 80, 150, 300])
@pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
def test_merged_pivots_match_the_bitset_oracle(n, p, monkeypatch):
    # at n <= 181 every run may span several vertices; at n = 300 the first
    # vertices, whose U[F][:, F] alone exceeds _Z_ENTRIES, pivot one at a
    # time and the later ones merge
    g = gnp(n, p, n)
    runs = _record_runs(monkeypatch)
    want = math.comb(n, 4) if p == 1 else oracle_count_cliques_bitset(g, 4)
    assert cl._pivot_count(_oriented(g), 4) == want
    assert sum(size for _, size in runs) <= max(0, n - 3)
    if n >= 40:
        assert max(size for _, size in runs) > 1
    if n == 300:
        # a run merges once its U[F][:, F], at most (n - k0 - 1)^2 entries,
        # fits _Z_ENTRIES: from n - 1 - 181 on
        assert min(k0 for k0, size in runs if size > 1) >= n - 1 - math.isqrt(cl._Z_ENTRIES)
        # and a run of two vertices, all with an edge in here, goes as two
        assert all(size >= 3 for _, size in runs if size > 1)


def test_merged_runs_sum_in_float64_past_2_24(monkeypatch):
    # runs of 2^20 entries on K150: a run's rows times C(|F|, 2) passes 2^24,
    # so its sum takes the float64 row sums, and still counts exactly
    monkeypatch.setattr(cl, "_Z_ENTRIES", 1 << 20)
    gemms = _record_gemms(monkeypatch)
    runs = _record_runs(monkeypatch)
    for g in (complete_graph(150), gnp(150, 0.8, 3)):
        want = math.comb(150, 4) if g.edge_count() == math.comb(150, 2) else oracle_count_cliques_bitset(g, 4)
        assert cl._pivot_count(_oriented(g), 4) == want
    assert any(size > 1 for _, size in runs)
    assert any(rows * f * (f - 1) >= 1 << 25 for rows, f in gemms)


@pytest.mark.parametrize("n", [40, 128, 301, 600])
def test_k4_free_turan_graphs_run_no_gemm(n, monkeypatch):
    # every F of T(n, 2) and T(n, 3), and every merged run's union of them,
    # lies inside one part or is empty
    gemms = _record_gemms(monkeypatch)
    runs = _record_runs(monkeypatch)
    for parts in (2, 3):
        assert cl._pivot_count(_oriented(turan_graph(n, parts)), 4) == 0
    assert gemms == []
    assert any(size > 1 for _, size in runs)
    # T(n, 5) has K4s: one per choice of four parts and a vertex in each
    sizes = [len(range(i, n, 5)) for i in range(5)]
    want = sum(math.prod(four) for four in itertools.combinations(sizes, 4))
    assert cl._pivot_count(_oriented(turan_graph(n, 5)), 4) == want


def test_run_temporaries_are_bounded(monkeypatch):
    # beyond U a merged run holds U[:, F] and blocks of its heads' rows and
    # columns (under n * width bytes each, with width = n - k0 - 1 at most
    # sqrt(_Z_ENTRIES)), Z, U[F][:, F] and Z's product (_Z_ENTRIES entries
    # each, bool and float32) and three index arrays of Z's rows: no block
    # of U's n^2 bytes
    monkeypatch.setattr(cl, "_pivot_at", lambda u, k, r: 0)  # runs only
    real = cl._run_at
    peaks = []

    def run(u, k0, heads):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total = real(u, k0, heads)
        peaks.append((tracemalloc.get_traced_memory()[1] - base, len(u) - k0 - 1, int(u[:, heads].sum())))
        return total

    monkeypatch.setattr(cl, "_run_at", run)
    u = _oriented(gnp(2000, 0.05, 1))
    n, entries = len(u), cl._Z_ENTRIES
    tracemalloc.start()
    try:
        cl._pivot_count(u, 4)
    finally:
        tracemalloc.stop()
    assert len(peaks) > 10
    for peak, width, rows in peaks:
        # a run of vertices with no edge in, the isolated ones first, holds
        # no row and may be wider
        assert rows == 0 or width * width <= entries and rows * width <= entries
        assert peak <= 3 * n * min(width, math.isqrt(entries)) + 16 * entries + 24 * rows, (peak, width, rows)
    assert max(peak for peak, _, _ in peaks) < n * n // 2


def _sizing_runs(u):
    """The pivots and runs of ``_pivot_count(u, 4)`` that hold a row, as
    (first vertex, vertices with an edge in) pairs, by its sizing rules: a
    run [k0, k1) holds the edges into it as rows on n - k0 - 1 columns, and
    its Z and U[F][:, F] fit _Z_ENTRIES each unless it holds no row; it
    grows as far as they fit, and with fewer than three vertices its first
    vertex goes alone"""
    n, entries = len(u), cl._Z_ENTRIES
    indeg = u.sum(0).tolist()
    ends = [0, *itertools.accumulate(indeg)]
    runs = []
    k0 = 1
    while k0 < n - 2:
        width = n - 1 - k0
        fits = [k1 for k1 in range(k0 + 3, n - 1)
                if ends[k1] == ends[k0]
                or width * width <= entries and (ends[k1] - ends[k0]) * width <= entries]
        k1 = fits[-1] if fits else k0 + 1
        heads = sum(1 for rows in indeg[k0:k1] if rows)
        if heads:
            runs.append((k0, heads))
        k0 = k1
    return runs


def test_pivot_runs_follow_the_sizing_rules(monkeypatch):
    runs = _record_runs(monkeypatch)
    held = []
    record_pivot, record_run = cl._pivot_at, cl._run_at

    def pivot(u, k, r):
        held.append(u[:, k].any())
        return record_pivot(u, k, r)

    def run(u, k0, heads):
        held.append(len(heads) > 0)
        return record_run(u, k0, heads)

    monkeypatch.setattr(cl, "_pivot_at", pivot)
    monkeypatch.setattr(cl, "_run_at", run)
    # on G(300, .8) and K400 the first vertices' U[F][:, F] does not fit
    graphs = [gnp(80, 0.8, seed) for seed in (1, 2, 3)]
    graphs += [gnp(300, 0.8, 300), complete_graph(60), turan_graph(128, 3),
               _padded(gnp(40, 0.9, 2), 10), complete_graph(400)]
    for g in graphs:
        u = _oriented(g)
        runs.clear()
        held.clear()
        cl._pivot_count(u, 4)
        assert [run for run, rows in zip(runs, held) if rows] == _sizing_runs(u), g.n
        assert any(size > 1 for _, size in runs)


def _low_first():
    """20 isolated vertices, a matching on 120 and G(160, .5): in degree
    order the first 140 vertices have 0 or 1 edge in, and the first 118 of
    them more than sqrt(_Z_ENTRIES) columns after them, where a run has
    room for no row"""
    edges = [(a, a + 1) for a in range(20, 140, 2)]
    edges += [(a + 140, b + 140) for a, b in gnp(160, 0.5, 3).edges()]
    return Graph.from_edges(300, edges)


def test_pivots_without_rows_call_no_kernel(monkeypatch):
    # a pivot counts nothing with no edge in at r = 4, or fewer than the two
    # an edge inside B needs at r = 5, so neither kernel is called there
    calls = []
    real_pivot, real_run = cl._pivot_at, cl._run_at

    def pivot(u, k, r):
        calls.append((r, int(u[:, k].sum())))
        return real_pivot(u, k, r)

    def run(u, k0, heads):
        calls.append((4, int(u[:, heads].sum())))
        return real_run(u, k0, heads)

    monkeypatch.setattr(cl, "_pivot_at", pivot)
    monkeypatch.setattr(cl, "_run_at", run)
    for g in (turan_graph(60, 2), _low_first()):
        u = _oriented(g)
        for r in (4, 5):
            assert cl._pivot_count(u, r) == oracle_count_cliques_bitset(g, r), (g.n, r)
    assert calls
    assert all(rows >= r - 3 for r, rows in calls), calls


def test_above_the_dense_cap_the_walk_counts(monkeypatch):
    g = gnp(80, 0.8, 1)
    calls = _record_paths(monkeypatch)
    for cap, path in ((g.n - 1, "_walk"), (g.n, None)):
        monkeypatch.setattr(cl, "_DENSE_LIMIT", cap)
        for r in (3, 4, 5):
            assert count_cliques(g, r) == oracle_count_cliques_bitset(g, r)
            assert calls == [path or _dense_path(r)]
            calls.clear()


def test_float32_rows_are_exact_at_the_cap():
    # at n = 2048 a forward set has at most 2047 vertices: its product
    # entries reach 2046 and a full row's count C(2047, 2), both below 2^24,
    # while the odd total of these rows is above 2^24, where float32 has no
    # odd integers
    f = cl._DENSE_LIMIT - 1
    inner = np.triu(np.ones((f, f), dtype=np.float32), 1)
    z = np.ones((9, f), dtype=bool)
    z[8, ::2] = False
    want = 8 * math.comb(f, 2) + math.comb(f // 2, 2)
    assert want > 2**24 and want % 2 == 1
    assert cl._edges_in_rows(z, inner) == want


def test_pivot_temporaries_are_chunk_bounded(monkeypatch):
    # beyond U itself, the 5-clique kernel holds U[F][:, F] in float32 and
    # B's edge list (under 4n^2 bytes together), boolean blocks of U (under
    # 2n^2 bytes) and one chunk of Z; unchunked, Z alone would take
    # |edges in B| x |F| floats, ~0.3 MB at a middle vertex here
    g = gnp(120, 0.9, 3)
    n = g.n
    order = sorted(range(n), key=g.degree)
    u = np.triu(g.to_bits(order)[:, order], 1)
    entries = 1024
    monkeypatch.setattr(cl, "_Z_ENTRIES", entries)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total = cl._pivot_count(u, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert total == count_cliques(g, 5)
    assert peak <= 6 * n * n + 16 * (entries + n)


def test_triangle_temporaries_are_row_block_bounded(monkeypatch):
    # beyond U itself, the r = 3 kernel holds one float32 copy of U (4n^2
    # bytes) and one row block's product; the whole n x n product would add
    # another 4n^2
    g = gnp(300, 0.6, 3)
    n = g.n
    order = sorted(range(n), key=g.degree)
    u = np.triu(g.to_bits(order)[:, order], 1)
    block = 16 * n
    monkeypatch.setattr(cl, "ROW_BLOCK", block)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total = cl._blas_count(u, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert total == count_cliques(g, 3)
    assert peak <= 4 * n * n + 16 * block


def _forward_rows(g):
    """The walk's forward rows: bit h of row t marks an edge t -> h along the
    vertices sorted by degree."""
    forward = [0] * g.n
    later = 0
    for v in reversed(sorted(range(g.n), key=g.degree)):
        forward[v] = g.row(v) & later
        later |= 1 << v
    return forward


def test_forward_triangles_match_the_brute_force_oracle():
    for g in seeded_graph_sample(60, 0, 16, base_seed=9300):
        assert cl._forward_triangles(_forward_rows(g), g.n) == oracle_count_cliques(g, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 129, 700])
def test_sparse_triangles_match_the_bitset_oracle(n, monkeypatch):
    # a quarter of the vertices isolated, so their forward rows are empty,
    # as is the last row of every orientation; 63 to 129 put the rows on
    # either side of a word boundary
    g = _padded(gnp(n - (n + 3) // 4, 0.5, n), (n + 3) // 4)
    assert 4 * g.edge_count() < max(1, g.n * (g.n - 1))
    want = oracle_count_cliques_bitset(g, 3)
    assert cl._forward_triangles(_forward_rows(g), g.n) == want
    calls = _record_paths(monkeypatch)
    assert count_cliques(g, 3) == want
    assert calls == (["_walk"] if n >= 3 else [])


def _gather_cuts(forward, step):
    """Whether some gather of ``step`` edges ends inside a row's edges, and
    whether some other ends at a row's last edge (a block's last gather
    aside).  Blocks hold whole rows, so only the gathers can split a row."""
    mid = end = False
    for lo in range(0, len(forward), step):
        tails = [t for t in range(lo, min(lo + step, len(forward)))
                 for _ in range(forward[t].bit_count())]
        for e in range(step, len(tails), step):
            mid |= tails[e - 1] == tails[e]
            end |= tails[e - 1] != tails[e]
    return mid, end


# ROW_BLOCK bits per block and per gather: one row, two and three rows of
# two words each, and three rows and a few bits
@pytest.mark.parametrize("bits", [1, 128, 256, 389])
def test_forward_triangles_in_short_blocks(bits, monkeypatch):
    g = _planted_clique(_padded(gnp(80, 0.3, 7), 21), range(0, 101, 9))
    forward = _forward_rows(g)
    step = max(1, bits // 128)
    if step > 1:
        assert g.n % step and _gather_cuts(forward, step) == (True, True)
    monkeypatch.setattr(cl, "ROW_BLOCK", bits)
    assert cl._forward_triangles(forward, g.n) == oracle_count_cliques_bitset(g, 3)


def test_forward_triangle_temporaries_are_row_block_bounded(monkeypatch):
    # the kernel holds its packed rows, 8n * ceil(n / 64) bytes (~n^2 / 8),
    # and one block's temporaries.  A block of ``step`` rows holds at most
    # ROW_BLOCK bits: their bytes and the join of them while packing
    # (ROW_BLOCK / 4 bytes), ROW_BLOCK bools unpacked, and at most ROW_BLOCK
    # edges as an int64 index and its int64 tails and heads (24 ROW_BLOCK);
    # a gather of ``step`` edges adds two operands and their AND (3 ROW_BLOCK
    # / 8) and one byte per word (ROW_BLOCK / 64).  That is under 26
    # ROW_BLOCK, 1.25 MB here, beside ~1.13 MB of packed rows; unpacking the
    # n x n matrix whole would add another n^2 = 9 MB
    g = gnp(3000, 0.05, 3)
    n = g.n
    forward = _forward_rows(g)
    block = 16 * n
    monkeypatch.setattr(cl, "ROW_BLOCK", block)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total = cl._forward_triangles(forward, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert total == oracle_count_cliques_bitset(g, 3)
    assert peak <= 8 * n * -(-n // 64) + 26 * block
