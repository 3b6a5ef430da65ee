import math

import numpy as np
import pytest

from spectral_turan import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnp,
    quotient_mu_multipartite,
    spectral_radius,
    turan_graph,
)

from spectral_turan.spectral import _DENSE_LIMIT, _adjacency_matvec

from oracles import all_graphs, certify_largest_root

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
    matvec = _adjacency_matvec(g)
    for x in (np.ones(g.n), np.random.default_rng(0).random(g.n) + 0.5):
        np.testing.assert_allclose(matvec(x), a @ x, rtol=1e-12)
    est = spectral_radius(g)
    assert est.converged
    mu = np.linalg.eigvalsh(a)[-1]
    assert est.lower - 1e-9 <= mu <= est.upper + 1e-9


def test_unconverged_flag_on_tiny_iteration_cap():
    est = spectral_radius(gnp(25, 0.4, 3), max_iter=1)
    assert not est.converged


def test_domain_errors():
    with pytest.raises(ValueError):
        spectral_radius(Graph.empty(0))
    with pytest.raises(ValueError):
        spectral_radius(complete_graph(3), tol=0.0)


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
