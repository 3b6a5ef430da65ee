import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spectral_turan import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnp,
    spectral_radius,
    turan_graph,
)

from spectral_turan import spectral
from spectral_turan.spectral import _DENSE_LIMIT, _block_matvec

from oracles import (
    all_graphs,
    certify_largest_root,
    charpoly,
    exceeds_all_roots,
    poly_derivatives,
    quotient_mu_multipartite,
)

SAMPLE = [
    complete_graph(5),
    complete_multipartite((2, 3)),
    cycle_graph(5),
    turan_graph(10, 3),
    gnp(20, 0.3, 1),
    gnp(30, 0.6, 2),
    Graph.empty(7),
    Graph.from_edges(5, [(0, 1)]),  # disconnected with isolated vertices
]


def test_known_values():
    assert abs(spectral_radius(complete_graph(5)).value - 4.0) <= 1e-9
    assert abs(spectral_radius(complete_multipartite((2, 3))).value - math.sqrt(6)) <= 1e-8
    assert abs(spectral_radius(cycle_graph(5)).value - 2.0) <= 1e-9


def test_complete_graphs_up_to_50():
    for n in range(1, 51):
        est = spectral_radius(complete_graph(n))
        assert est.converged
        assert abs(est.value - (n - 1)) <= 1e-9


def test_certified_enclosure_small_graphs():
    # exhaustive n <= 4 here; the full n <= 6 sweep runs in the acceptance suite
    for n in range(1, 5):
        for g in all_graphs(n):
            est = spectral_radius(g)
            assert est.converged
            assert certify_largest_root(g, est.value, 1e-8)


def test_average_degree_floor_and_ceiling():
    for g in SAMPLE:
        est = spectral_radius(g)
        assert est.converged
        assert est.value + est.residual >= 2 * g.edge_count() / g.n - 1e-9
        assert est.value - est.residual <= g.n - 1 + 1e-9


def test_residual_invariants():
    for g in SAMPLE:
        est = spectral_radius(g)
        assert est.residual >= 0.0
        assert est.iterations >= 1


def test_edge_monotonicity():
    g = gnp(12, 0.3, 4)
    before = spectral_radius(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            after = spectral_radius(g.add_edge(u, v))
            slack = before.residual + after.residual + 1e-9
            assert after.value >= before.value - slack


def test_sparse_matvec_path():
    # above _DENSE_LIMIT the matvec accumulates edge arrays instead
    g = gnp(2100, 0.002, 5)
    assert g.n > _DENSE_LIMIT
    a = g.to_bits().astype(float)
    matvec = _block_matvec(g, range(g.n))
    for x in (np.ones(g.n), np.random.default_rng(0).random(g.n) + 0.5):
        np.testing.assert_allclose(matvec(x), a @ x, rtol=1e-12)
    est = spectral_radius(g)
    assert est.converged
    mu = np.linalg.eigvalsh(a)[-1]
    assert est.lower - 1e-9 <= mu <= est.upper + 1e-9


def test_unconverged_flag_on_tiny_iteration_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITER", 1)
    g = gnp(25, 0.4, 3)
    est = spectral_radius(g)
    assert not est.converged
    assert est.iterations == 1
    # the capped bracket is wider but still encloses the Perron root
    assert est.lower <= np.linalg.eigvalsh(g.to_bits().astype(float))[-1] <= est.upper


def test_domain_errors():
    with pytest.raises(ValueError):
        spectral_radius(Graph.empty(0))
    with pytest.raises(TypeError):
        spectral_radius(complete_graph(3), tol=1e-10)  # the stopping rule is fixed


def _union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return Graph.from_edges(offset, edges)


def _assert_encloses_perron_root(g: Graph, est) -> None:
    """Exact check that the float interval ends bracket the largest root."""
    polys = poly_derivatives(charpoly(g))
    assert not exceeds_all_roots(polys, Fraction(est.lower))
    assert exceeds_all_roots(polys, Fraction(est.upper))


# networkx's graph_atlas(759) and graph_atlas(979): 7 vertices each, with
# spectral radii 8.6e-6 apart
ATLAS_759 = Graph.from_edges(7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5),
                                 (1, 6), (2, 3), (2, 5), (3, 4)])
ATLAS_979 = Graph.from_edges(7, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (1, 6), (2, 3),
                                 (2, 4), (2, 6), (3, 4), (3, 5), (4, 5)])


def test_near_tie_union_converges_quickly():
    g = _union(ATLAS_759, ATLAS_979)
    t0 = time.perf_counter()
    est = spectral_radius(g)
    elapsed = time.perf_counter() - t0
    assert est.converged
    assert elapsed < 1.0
    mu = np.linalg.eigvalsh(g.to_bits().astype(float))[-1]
    assert est.lower <= mu <= est.upper
    _assert_encloses_perron_root(g, est)


@pytest.mark.parametrize("g", [
    _union(complete_graph(4), Graph.empty(3), complete_graph(4)),
    # the star K_{1,4} and the 4-cycle both have mu = 2
    _union(Graph.empty(2), complete_multipartite((1, 4)), cycle_graph(4), Graph.empty(1)),
    _union(ATLAS_979, Graph.empty(4)),
])
def test_components_and_isolated_vertices_enclose(g):
    est = spectral_radius(g)
    assert est.converged
    mu = np.linalg.eigvalsh(g.to_bits().astype(float))[-1]
    assert est.lower <= mu <= est.upper
    _assert_encloses_perron_root(g, est)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 11])
def test_components_at_the_minimum_degree_boundary(k):
    # two disjoint K_k have minimum degree (n - 2)/2, just below the
    # (n - 1)/2 that forces connectivity, and must split
    two = _union(complete_graph(k), complete_graph(k))
    assert spectral._components(two) == ([list(range(k)), list(range(k, 2 * k))] if k > 1 else [])
    # K_{k, k+1} sits at minimum degree k = (n - 1)/2: connected
    assert spectral._components(complete_multipartite((k, k + 1))) == []


def _lollipop(clique: int, tail: int) -> Graph:
    """K_clique with a path of ``tail`` more vertices hanging off its last vertex."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(v, v + 1) for v in range(clique - 1, clique + tail - 1)]
    return Graph.from_edges(clique + tail, edges)


# the Perron vector decays by a factor ~19 per step along the tail, so past
# ~240 steps its entries are below the smallest double; a tail of 300 or of
# 2100 moves the Perron root by less than 19^-600
@pytest.mark.parametrize("g", [
    _lollipop(20, 300),  # whole-graph edge arrays, density 0.01
    _union(_lollipop(20, 300), Graph.empty(1)),  # a component's edge arrays
    _lollipop(20, 2100),  # whole-graph edge arrays, above _DENSE_LIMIT
])
def test_perron_vector_past_the_float_range_is_rescaled(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no underflow to 0/0
        est = spectral_radius(g)
    assert est.converged
    mu = np.linalg.eigvalsh(_lollipop(20, 300).to_bits().astype(float))[-1]
    assert est.lower <= mu <= est.upper


# exact (value, residual, iterations, converged), one graph per matvec path:
# a change in the order of the loop's float operations would move them
@pytest.mark.parametrize("g, value, residual, iterations", [
    (gnp(80, 0.8, 1), "0x1.f8a7c543641a9p+5", "0x1.3c46400000000p-28", 10),  # dense
    (gnp(1000, 0.002, 1), "0x1.b3f335d1ad552p+1", "0x1.48def0a000000p-24", 730),  # components
    (_union(complete_graph(5), Graph.empty(2), complete_graph(4)),
     "0x1.0000000000000p+2", "0x1.4000000000000p-48", 2),  # dense component blocks
    (gnp(2100, 0.002, 5), "0x1.5bb4fab832aafp+2", "0x1.b7abdec000000p-23", 89),  # > _DENSE_LIMIT
    (_lollipop(20, 300), "0x1.300ad5a3e3744p+4", "0x1.586b740000000p-26", 475),  # sparse, rescaled
    (_lollipop(20, 2100), "0x1.300ad59b8722ep+4", "0x1.b7c8420000000p-25", 3265),  # both
    (_lollipop(80, 200), "0x1.3c00297d2710ep+6", "0x1.5bcdc00000000p-27", 273),  # dense, rescaled
])
def test_spectral_radius_pins_floats_per_matvec_path(g, value, residual, iterations):
    est = spectral_radius(g)
    assert (est.value, est.residual, est.iterations, est.converged) == (
        float.fromhex(value), float.fromhex(residual), iterations, True)


def test_a_component_block_gives_the_bits_of_the_whole_graph():
    # G(80, .8, 1) beside a K2 is cut from wider rows; its dense block must
    # be the same C-ordered matrix, so BLAS rounds as for the whole graph
    g = gnp(80, 0.8, 1)
    u = _union(g, complete_graph(2))
    x = np.random.default_rng(1).random(80) + 0.5
    assert np.array_equal(_block_matvec(u, list(range(80)))(x), _block_matvec(g, range(80))(x))
    est = spectral_radius(u)
    assert (est.value, est.residual) == (
        float.fromhex("0x1.f8a7c543641a9p+5"), float.fromhex("0x1.3c46400000000p-28"))


def test_many_components_unpack_only_their_own_rows():
    # 1,000 disjoint K10: the whole boolean matrix alone would be 100 MB
    g = Graph.from_edges(10_000, [(10 * b + u, 10 * b + v)
                                  for b in range(1000) for u in range(10) for v in range(u + 1, 10)])
    tracemalloc.start()
    try:
        est = spectral_radius(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.value == 9.0
    assert peak < 8 * 10**6


# seeded G(n, p), all but G(40, .3) disconnected (G(200, .01) has five
# components with an edge), and two lollipops, one past the float range
CEILING_GRAPHS = [gnp(12, 0.15, 3), gnp(25, 0.1, 7), gnp(40, 0.3, 2), gnp(200, 0.01, 4),
                  _lollipop(6, 10), _lollipop(20, 300)]
# ceilings from well below mu to well above it
CEILING_OFFSETS = [-1.0, -1e-3, -1e-9, 0.0, 1e-9, 1e-6, 1e-3, 0.5, 5.0]


def _ceilings(g: Graph) -> tuple[float, list[float]]:
    mu = np.linalg.eigvalsh(g.to_bits().astype(float))[-1]
    return mu, [mu + d for d in CEILING_OFFSETS]


@pytest.mark.parametrize("g", CEILING_GRAPHS)
def test_a_stopped_run_still_encloses_the_root(g):
    mu, ceilings = _ceilings(g)
    for ceiling in ceilings:
        est = spectral_radius(g, ceiling)
        assert est.lower <= mu <= est.upper, ceiling


@pytest.mark.parametrize("g", CEILING_GRAPHS)
def test_a_run_that_reaches_the_ceiling_is_the_run_without_one(g):
    full = spectral_radius(g)
    for ceiling in _ceilings(g)[1]:
        est = spectral_radius(g, ceiling)
        if est.upper >= ceiling:
            assert est == full, ceiling


@pytest.mark.parametrize("g", CEILING_GRAPHS)
def test_a_run_below_the_ceiling_could_not_have_reached_it(g):
    full = spectral_radius(g)
    for ceiling in _ceilings(g)[1]:
        est = spectral_radius(g, ceiling)
        if est.upper < ceiling:
            assert full.value < ceiling + 1e-10 * g.n, ceiling


@pytest.mark.parametrize("g", CEILING_GRAPHS)
def test_the_ceilings_stop_some_runs_and_not_others(g):
    stopped = [spectral_radius(g, c).upper < c for c in _ceilings(g)[1]]
    assert any(stopped) and not all(stopped)
    assert not spectral_radius(g, _ceilings(g)[0] + 5.0).converged


def test_a_tie_within_the_margin_is_left_to_the_float_run():
    # C4 and K3 share mu = 2, and C4's exact ratios (2) are below K3's upper
    # end; but a settled bracket could still reach that end, so the exact
    # stop must not answer, or C4 could no longer raise a spex maximum
    ceiling = spectral_radius(complete_graph(3)).upper
    assert spectral_radius(cycle_graph(4), ceiling) == spectral_radius(cycle_graph(4))


def _at_least_every_root(polys: list[list[int]], x: Fraction) -> bool:
    """x >= the largest root of a real-rooted monic polynomial: p(x + t) has
    only nonnegative Taylor coefficients at x, so no root lies above x."""
    for p in polys:
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        if acc < 0:
            return False
    return True


# ceilings from well below mu to well above it, around the no-ceiling
# value; its upper end is added as a ceiling too, the one a spex tie meets
EXACT_OFFSETS = [-1.0, -1e-9, 0.0, 1e-9, 1e-6, 0.5, 1.0]


@pytest.mark.parametrize("n", range(1, 6))
def test_the_exact_stop_encloses_and_answers_only_below_every_reach(n):
    answered = fell_through = 0
    for g in all_graphs(n):
        polys = poly_derivatives(charpoly(g))
        full = spectral_radius(g)
        for ceiling in [full.value + d for d in EXACT_OFFSETS] + [full.upper]:
            est = spectral_radius(g, ceiling)
            assert not exceeds_all_roots(polys, Fraction(est.lower)), (g, ceiling)
            assert _at_least_every_root(polys, Fraction(est.upper)), (g, ceiling)
            assert est.converged or est.upper < ceiling, (g, ceiling)
            exact = spectral._exact_stop(g, ceiling) if ceiling > 0 else None
            if exact is not None:
                assert est == exact
                assert full.upper < ceiling, (g, ceiling)
            answered += exact is not None
            fell_through += exact is None and ceiling > 0
    # the one-vertex graph has mu = 0, below every positive ceiling's margin
    assert answered and (fell_through or n == 1)


def test_a_dominated_component_runs_once(monkeypatch):
    # the P5 (mu = sqrt 3) comes first in vertex order, but K4 (mu = 3) is
    # denser, so it runs first and settles at once; the path then runs once,
    # under K4's lower end, and stops below it
    g = _union(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), complete_graph(4))
    runs, perron = [], spectral._perron

    def counted(scaled, m, ceiling=-math.inf):
        bracket = perron(scaled, m, ceiling)
        runs.append((m, ceiling, bracket))
        return bracket

    monkeypatch.setattr(spectral, "_perron", counted)
    est = spectral_radius(g, 2.9)
    assert [(m, ceiling, bracket.converged) for m, ceiling, bracket in runs] == [
        (4, 2.9, True), (5, runs[0][2].lower, False)]
    assert runs[1][2].upper < runs[0][2].lower  # the path's upper end, K4's lower end
    monkeypatch.undo()
    assert est == spectral_radius(g)
    assert est.converged


def test_a_dominated_component_settles_under_the_iteration_cap(monkeypatch):
    # a long path converges slowly, but its first upper end (2) is already
    # below K4's lower end, so it stops there and the cap is never reached
    monkeypatch.setattr(spectral, "_MAX_ITER", 5)
    g = _union(complete_graph(4), Graph.from_edges(60, [(i, i + 1) for i in range(59)]))
    est = spectral_radius(g)
    assert est.converged
    assert est.iterations == 2
    assert est.lower <= 3.0 <= est.upper


@pytest.mark.parametrize("g", [gnp(200, 0.05, 1), gnp(1000, 0.002, 1), _lollipop(6, 10)])
def test_the_degree_certificate_answers_at_every_n(g):
    # [min degree, max degree] is the Collatz–Wielandt bracket of x = 1; it
    # answers below a ceiling past the margin, float or exact
    degrees = [g.degree(v) for v in range(g.n)]
    lo, hi = min(degrees), max(degrees)
    for est in (spectral_radius(g, hi + 1e-6), spectral_radius(g, Fraction(hi) + Fraction(1, 10**6))):
        assert (est.lower, est.upper, est.iterations, est.converged) == (lo, hi, 1, False)
    # within the margin of a settled bracket the float run decides
    assert spectral._exact_stop(g, hi + 1e-12 * g.n) is None


def test_an_exact_ceiling_is_rounded_down_whatever_its_size_or_sign():
    # the float 43/6 lies above 43/6, so -43/6 rounds to the float below it
    assert spectral._outward(43, 6, -math.inf) == math.nextafter(43 / 6, 0) < Fraction(43, 6)
    assert spectral._outward(-43, 6, -math.inf) == -43 / 6 < Fraction(-43, 6)
    assert spectral._outward(3, 4, -math.inf) == 0.75
    # past the float range: the largest float below, or -inf
    assert spectral._outward(10**400, 1, -math.inf) == sys.float_info.max
    assert spectral._outward(-(10**400), 1, -math.inf) == -math.inf
    assert spectral._outward(10**400, 1, math.inf) == math.inf
    assert spectral._outward(-(10**400), 1, math.inf) == -sys.float_info.max


def test_edgeless_graph_runs_once_on_its_zero_matrix():
    est = spectral_radius(Graph.empty(5))
    assert (est.value, est.residual, est.iterations, est.converged) == (0.0, 0.0, 1, True)


def test_complete_bipartite_encloses_exact_root():
    est = spectral_radius(complete_multipartite((20, 21)))
    assert est.converged
    assert type(est.value) is float and type(est.residual) is float  # repr in csv output
    # mu(K_{20,21}) = sqrt(420), compared exactly through squares
    assert Fraction(est.lower) ** 2 <= 420 <= Fraction(est.upper) ** 2


def test_quotient_examples():
    assert abs(quotient_mu_multipartite((3, 3)) - 3.0) <= 1e-10
    assert abs(quotient_mu_multipartite((2, 3)) - math.sqrt(6)) <= 1e-10
    assert abs(quotient_mu_multipartite((1, 1, 1)) - 2.0) <= 1e-10


def test_quotient_rejects_single_part():
    with pytest.raises(ValueError):
        quotient_mu_multipartite((4,))


def test_quotient_agreement_with_power_iteration():
    import random

    rng = random.Random(20240)
    for _ in range(25):
        r = rng.randint(2, 8)
        sizes = [rng.randint(1, 30) for _ in range(r)]
        while sum(sizes) > 200:
            sizes[sizes.index(max(sizes))] -= 1
        est = spectral_radius(complete_multipartite(sizes))
        assert est.converged
        assert abs(est.value - quotient_mu_multipartite(sizes)) <= est.residual + 1e-6


def test_quotient_tracks_turan_average_degree():
    # mu(T_r(n)) >= 2e/n, with equality exactly when the parts are equal
    from spectral_turan import turan_part_sizes

    for n, r in [(12, 3), (13, 3), (20, 4), (30, 7)]:
        sizes = turan_part_sizes(n, r)
        mu = quotient_mu_multipartite(sizes)
        t = turan_graph(n, r)
        assert mu >= 2 * t.edge_count() / n - 1e-9
