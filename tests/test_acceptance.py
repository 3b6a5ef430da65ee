"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Stated runtime limits are asserted; criteria without one are untimed.
"""

import math
import time

from spectral_turan import (
    Graph,
    Verdict,
    complete_graph,
    complete_multipartite,
    count_cliques,
    cycle_graph,
    fact1_check,
    fact2_check,
    fact3_check,
    find_complete_multipartite,
    gnp,
    max_balanced_biclique,
    parse_graph6,
    proof_chain_check,
    spectral_radius,
    spex_scan,
    theorem2_gap,
    to_graph6,
    turan_graph,
    verify_witness,
)
from spectral_turan.cli import cli_main

from oracles import (
    all_graphs,
    brute_spex,
    certify_largest_root,
    k100_minus_50_edges,
    least_family_table,
    oracle_count_cliques,
    partitions_upto,
    quotient_mu_multipartite,
)

GNP_GRID = [(n, p, r) for n in (10, 20, 40, 60) for p in (0.2, 0.5, 0.8) for r in (2, 3, 4)]

# golden values, frozen after the first computation with the shipped generator
BICLIQUE_SIDES_N40_P05 = {
    1: 5, 2: 5, 3: 6, 4: 6, 5: 6, 6: 6, 7: 6, 8: 5, 9: 6, 10: 6,
    11: 6, 12: 6, 13: 6, 14: 5, 15: 6, 16: 5, 17: 6, 18: 6, 19: 6, 20: 6,
}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_fact1_sweep():
    t0 = time.time()
    checked = 0
    for i in range(1000):
        n, p, r = GNP_GRID[i % len(GNP_GRID)]
        rep = fact1_check(gnp(n, p, i), r)
        assert rep.verdict is Verdict.CONFIRMED, (i, n, p, r, rep.verdict)
        checked += 1
    for rt in range(1, 6):
        for n in range(1, 61):
            g = turan_graph(n, rt)
            for r in (2, 3, 4):
                rep = fact1_check(g, r)
                assert rep.verdict is Verdict.CONFIRMED, (n, rt, r, rep.verdict)
                checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 120
    _line(1, ok, f"fact1 confirmed on {checked} instances in {elapsed:.1f}s (< 120s)")
    assert ok


def test_criterion_2_proof_chain_sweep():
    t0 = time.time()
    checked = 0
    for n in range(6, 41):
        for r in (3, 4):
            c = 0.9 * ((n - 1) / n - 1 + 1 / (r - 1))
            if c <= 0:
                continue
            rep = proof_chain_check(complete_graph(n), r, c)
            assert rep.hypothesis_satisfied, (n, r, c)
            assert rep.verdict is Verdict.CONFIRMED, (n, r, c, rep.verdict)
            checked += 1
    rep = proof_chain_check(complete_graph(9), 3, 0.3)
    assert rep.kr == 84
    assert abs(rep.quantities["bound_strict"] - 8.1) <= 1e-9
    assert rep.verdict is Verdict.CONFIRMED
    _line(2, True, f"chain confirmed on {checked} K_n instances; K9/r3/c0.3 gives 84 > 8.1 ({time.time()-t0:.1f}s)")


def test_criterion_3_fact3_exact_sweep():
    t0 = time.time()
    for r in range(1, 13):
        for n in range(0, 2001):
            rep = fact3_check(n, r)
            assert rep.verdict is Verdict.CONFIRMED, (n, r)
    elapsed = time.time() - t0
    ok = elapsed < 5
    _line(3, ok, f"fact3 confirmed for r <= 12, n <= 2000 in {elapsed:.2f}s (< 5s)")
    assert ok


def test_criterion_4_fact2_desk_check():
    g = k100_minus_50_edges()
    t0 = time.time()
    rep = fact2_check(g, 2, 0.49)
    elapsed = time.time() - t0
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.witness is not None
    sizes = sorted(rep.witness.sizes())
    assert sizes[0] == 1 and sizes[1] >= 11, sizes
    assert verify_witness(g, rep.witness)
    ok = elapsed < 1
    _line(4, ok, f"fact2 confirmed on K100-minus-50 with K_2(1,{sizes[1]}) witness in {elapsed:.3f}s (< 1s)")
    assert ok


def test_criterion_5_spectral_exactness():
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            est = spectral_radius(g)
            assert est.converged
            assert certify_largest_root(g, est.value, 1e-8), to_graph6(g)
            checked += 1

    import random

    rng = random.Random(20240)
    agree = 0
    while agree < 50:
        r = rng.randint(2, 8)
        sizes = [rng.randint(1, 40) for _ in range(r)]
        if sum(sizes) > 200:
            continue
        est = spectral_radius(complete_multipartite(sizes))
        assert est.converged
        assert abs(est.value - quotient_mu_multipartite(sizes)) <= est.residual + 1e-6, sizes
        agree += 1

    est = spectral_radius(complete_multipartite((2, 3)))
    assert abs(est.value - math.sqrt(6)) <= 1e-8
    for n in range(1, 51):
        est = spectral_radius(complete_graph(n))
        assert abs(est.value - (n - 1)) <= 1e-9
    _line(5, True, f"charpoly certificate on {checked} graphs (n<=6), 50 quotient agreements, K_n and K_23 exact ({time.time()-t0:.1f}s)")


def test_criterion_6_clique_oracle_equivalence():
    t0 = time.time()
    for g in all_graphs(5):
        for r in range(2, 6):
            assert count_cliques(g, r) == oracle_count_cliques(g, r)
    ps = (0.2, 0.5, 0.8)
    for i in range(200):
        n = 6 + i % 7
        g = gnp(n, ps[i % 3], 9000 + i)
        for r in range(2, 6):
            assert count_cliques(g, r) == oracle_count_cliques(g, r), (i, n, r)
    elapsed = time.time() - t0
    ok = elapsed < 60
    _line(6, ok, f"count_cliques = oracle on 1024 + 200 graphs in {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_7_multipartite_completeness():
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        graphs = list(all_graphs(n))
        for sizes in partitions_upto(n):
            for g, want in zip(graphs, least_family_table(n, sizes)):
                w = find_complete_multipartite(g, sizes)
                assert (w is not None) == (want is not None), (n, to_graph6(g), sizes)
                assert w == want, (n, to_graph6(g), sizes)
                if w is not None:
                    assert verify_witness(g, w)
                checked += 1
    assert checked == 969_463
    assert find_complete_multipartite(cycle_graph(5), (2, 2)) is None
    _line(7, True, f"search = least family on {checked} (graph, sizes) cases ({time.time()-t0:.1f}s)")


def test_criterion_8_spex_finite_values_and_gap():
    t0 = time.time()
    k3 = complete_graph(3)
    assert abs(spex_scan(4, k3).mu.value - 2.0) <= 1e-6
    assert abs(spex_scan(5, k3).mu.value - math.sqrt(6)) <= 1e-6
    assert abs(spex_scan(6, k3).mu.value - 3.0) <= 1e-6
    for f in [k3, complete_graph(4), cycle_graph(5)]:
        for n in (1, 2, 3, 4, 5):
            assert abs(spex_scan(n, f).mu.value - brute_spex(n, f)) <= 1e-8, (n,)
    rep = theorem2_gap(6, k3)
    assert rep.verdict is Verdict.CONFIRMED
    assert abs(rep.quantities["lower"] - 0.5) <= 1e-9
    assert abs(rep.quantities["upper"] - 0.5) <= 1e-9
    assert rep.quantities["lower"] >= 0.5 - 2 / (4 * 36) - 1e-12
    elapsed = time.time() - t0
    ok = elapsed < 180
    _line(8, ok, f"spex(4,5,6 | K3) = 2, sqrt(6), 3; pruned = brute force at n <= 5; gap(6,K3) = 0.5/0.5 in {elapsed:.1f}s (< 180s)")
    assert ok


def test_criterion_9_biclique_experiment():
    t0 = time.time()
    alarm = 4 * math.log(40)
    for seed in range(1, 21):
        res = max_balanced_biclique(gnp(40, 0.5, seed))
        assert res.exact, seed
        assert 2 <= res.side <= alarm, (seed, res.side)
        assert res.side == BICLIQUE_SIDES_N40_P05[seed], (seed, res.side)
        assert res.witness is not None and verify_witness(gnp(40, 0.5, seed), res.witness)
    _line(9, True, f"biclique sides match goldens, all within [2, {alarm:.1f}] ({time.time()-t0:.1f}s)")


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    t0 = time.time()
    blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}.jsonl"
        code = cli_main(
            [
                "verify", "fact1", "--gnp", "20,0.5", "--count", "30", "--seed", "11",
                "--r", "2,3", "--threads", str(threads), "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    corpus = [gnp(n, p, s) for (n, p, _r) in GNP_GRID for s in (0, 1)]
    corpus += [turan_graph(n, r) for n in range(1, 63) for r in (1, 2, 3, 5)]
    corpus += [complete_graph(9), cycle_graph(5), complete_multipartite((2, 2, 5))]
    for g in corpus:
        if g.n <= 62:
            assert parse_graph6(to_graph6(g)) == g
    _line(10, True, f"byte-identical JSONL at 1/4/8 threads; graph6 round-trip on {len(corpus)} corpus graphs ({time.time()-t0:.1f}s)")
