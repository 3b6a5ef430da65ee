import gc
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from spectral_turan import (
    Graph,
    MultipartiteWitness,
    Verdict,
    chromatic_number,
    complete_graph,
    complete_multipartite,
    count_cliques,
    cycle_graph,
    fact1_check,
    fact1_rhs,
    fact2_check,
    fact3_check,
    gnp,
    parse_graph6,
    proof_chain_check,
    spectral_radius,
    spex_scan,
    theorem1_check,
    theorem2_gap,
    to_graph6,
    turan_graph,
    turan_part_sizes,
    verify_witness,
)

from spectral_turan import SpectralEstimate, SpexResult, spectral, theorems

from oracles import (
    all_graphs,
    brute_contains_injection,
    brute_spex,
    contains_subgraph,
    k100_minus_50_edges,
    oracle_chromatic_number,
    oracle_spex_scan,
    petersen,
    quotient_mu_multipartite,
)


# ---------------------------------------------------------------------------
# clique lower bound from the spectral radius
# ---------------------------------------------------------------------------

def test_fact1_rhs_hand_values():
    assert abs(fact1_rhs(4, 3, 3.0) - 8 / 27) <= 1e-12
    assert abs(fact1_rhs(5, 2, 2.0) - (-5 / 12)) <= 1e-12
    for n, r in [(10, 3), (7, 2), (50, 4)]:
        assert abs(fact1_rhs(n, r, n * (1 - 1 / r))) <= 1e-9


def test_fact1_check_examples():
    rep = fact1_check(complete_graph(4), 3)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.kr == 4
    assert abs(rep.quantities["rhs_low"] - 8 / 27) <= 1e-6

    rep = fact1_check(cycle_graph(5), 2)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.kr == 5
    assert rep.quantities["rhs_low"] < 0

    rep = fact1_check(Graph.empty(10), 2)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.kr == 0
    assert rep.quantities["rhs_low"] < 0


def test_fact1_bound_saturates_past_the_float_range():
    # (n/r)^r = 9.375^320 > 1e308, with a negative factor in front
    rep = fact1_check(Graph.empty(3000), 320)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.quantities["rhs_low"] == rep.quantities["rhs_high"] == -math.inf
    assert fact1_rhs(3000, 320, 2999.0) == math.inf


def test_capped_iteration_still_decides_at_the_interval_ends(monkeypatch):
    # one iteration brackets mu by about the min and max degree; that interval is
    # wide but certified, so the checkers decide at its ends
    monkeypatch.setattr(spectral, "_MAX_ITER", 1)
    # the star K_{1,8} has mu = sqrt 8 and k_3 = 0, so Fact 1 turns at
    # mu_t = 9 (1 - 1/3) = 6; its maximum degree 8 does not decide that, and
    # the capped run's ends, just outside [1, 8], straddle 6
    rep = fact1_check(complete_multipartite((8, 1)), 3)
    assert not rep.mu.converged and rep.mu.lower < 1.0 < 8.0 < rep.mu.upper
    assert rep.verdict is Verdict.INDETERMINATE and "straddles 6," in rep.notes
    g = Graph.from_edges(9, [e for e in complete_graph(9).edges() if e != (0, 1)])
    # threshold 6.3 is below the min degree 7: the hypothesis holds at the lower end
    rep = theorem1_check(g, 3, 0.2)
    assert rep.hypothesis_satisfied and rep.verdict is Verdict.VACUOUS
    assert "precondition" in rep.notes
    # threshold 7.2 lies inside the capped interval, so it is not established
    rep = proof_chain_check(g, 3, 0.3)
    assert not rep.mu.converged and rep.mu.lower < 7.0 < 8.0 < rep.mu.upper
    assert rep.verdict is Verdict.VACUOUS and "not established" in rep.notes


def test_fact1_domain():
    with pytest.raises(ValueError):
        fact1_check(complete_graph(3), 1)


def test_fact1_is_decided_in_exact_rationals(monkeypatch):
    # K4 at r = 3: rhs(L) = 8 L/9 - 64/27 is exactly 4 = k_3 at L = 43/6; the
    # float 43/6 lies above it, so its exact rhs exceeds k_3 by 2.6e-16 while
    # the float rhs rounds to 3.999999999999999; one ulp lower it falls below 4
    def stub(mu):
        monkeypatch.setattr(theorems, "spectral_radius",
                            lambda g, ceiling: SpectralEstimate(mu, mu, 1, True))
        return fact1_check(complete_graph(4), 3)

    rep = stub(43 / 6)
    assert rep.quantities["rhs_low"] < rep.kr == 4
    assert rep.verdict is Verdict.VIOLATION
    assert stub(math.nextafter(43 / 6, 1)).verdict is Verdict.CONFIRMED


def test_fact1_is_confirmed_only_where_the_whole_interval_is(monkeypatch):
    # K4 at r = 3 meets its bound at mu_t = 43/6; an interval that reaches
    # past it proves the bound at neither end, whichever end lies below
    ceilings = []

    def stub(g, ceiling):
        ceilings.append(ceiling)
        return SpectralEstimate(7.0, 7.5, 5, True)

    monkeypatch.setattr(theorems, "spectral_radius", stub)
    rep = fact1_check(complete_graph(4), 3)
    assert rep.verdict is Verdict.INDETERMINATE and rep.kr == 4
    assert rep.quantities["rhs_low"] < 4 < rep.quantities["rhs_high"]
    assert rep.notes == "mu interval straddles 7.166666666666667, where the bound meets k_r"
    # the ceiling is mu_t itself, exact
    assert ceilings == [Fraction(43, 6)]


def test_fact1_on_a_disconnected_graph_builds_no_matrix(monkeypatch):
    # G(1000, .002) has many components and maximum degree far below
    # mu_t >= 1000 (1 - 1/3): its degree sequence decides Fact 1
    g = gnp(1000, 0.002, 1)

    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(spectral, "_components", refuse)
    monkeypatch.setattr(spectral, "_block_matvec", refuse)
    rep = fact1_check(g, 3)
    degrees = [g.degree(v) for v in range(g.n)]
    assert rep.verdict is Verdict.CONFIRMED
    assert (rep.mu.lower, rep.mu.upper, rep.mu.iterations) == (min(degrees), max(degrees), 1)


def test_a_hypothesis_below_its_threshold_builds_no_matrix(monkeypatch):
    # G(200, .05) has maximum degree far below the threshold (1/2 + c) 200
    # at c = 0.3: its degree sequence decides the hypothesis
    g = gnp(200, 0.05, 1)
    monkeypatch.setattr(spectral, "_perron", None)
    degrees = [g.degree(v) for v in range(g.n)]
    for check in (theorem1_check, proof_chain_check):
        rep = check(g, 3, 0.3)
        assert not rep.hypothesis_satisfied and "not established" in rep.notes
        assert (rep.mu.lower, rep.mu.upper, rep.mu.iterations) == (min(degrees), max(degrees), 1)
    # a threshold the graph reaches is settled as before
    monkeypatch.undo()
    rep = theorem1_check(complete_graph(10), 3, 0.3)
    assert rep.hypothesis_satisfied and rep.mu.converged


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_non_finite_c_is_rejected(c):
    g = complete_graph(5)
    for check, name in [(theorem1_check, "theorem1"), (proof_chain_check, "proof chain"),
                        (fact2_check, "fact2")]:
        with pytest.raises(ValueError, match=f"^{name} requires a finite c$"):
            check(g, 3, c)
    # c <= 0, -inf included, keeps its own message
    with pytest.raises(ValueError, match="^fact2 requires c > 0$"):
        fact2_check(g, 2, -math.inf)


# ---------------------------------------------------------------------------
# parameter arithmetic
# ---------------------------------------------------------------------------

def test_theorem1_params_examples():
    s, t, pre = theorems._part_targets(0.3, 3, 3, 10**6)
    assert s == 0 and not pre

    _, t, _ = theorems._part_targets(0.3, 3, 3, 100)
    assert abs(t - 100**0.91) <= 1e-9 * 100**0.91


def test_theorem1_params_precondition_boundary_huge_n():
    # (c/r^r)^r = 1/729 at r=3, c=3, so the precondition flips at ln n = 729
    n_above = 2**1052  # ln = 729.15...
    n_below = 2**1051  # ln = 728.46...
    s, _, pre = theorems._part_targets(3.0, 3, 3, n_above)
    assert pre and s == 1
    s, _, pre = theorems._part_targets(3.0, 3, 3, n_below)
    assert not pre and s == 0


def test_theorem1_params_monotone():
    # s_target nondecreasing in c
    n = 2**1060
    prev = -1
    for c in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]:
        s, _, _ = theorems._part_targets(c, 3, 3, n)
        assert s >= prev
        prev = s
    # s_target nondecreasing in n
    prev = -1
    for k in [1040, 1051, 1052, 1100, 1500]:
        s, _, _ = theorems._part_targets(3.0, 3, 3, 2**k)
        assert s >= prev
        prev = s
    # t_target decreasing in c
    prev = math.inf
    for c in [0.1, 0.3, 0.5, 0.7, 0.9]:
        _, t, _ = theorems._part_targets(c, 3, 3, 100)
        assert t < prev
        prev = t


def test_theorem1_params_floor_positive_when_precondition_holds():
    for c, n in [(3.0, 2**1052), (2.0, 2**3000), (1.0, 2**30000)]:
        s, _, pre = theorems._part_targets(c, 3, 3, n)
        if pre:
            assert s >= 1


def test_theorem1_params_decide_huge_powers_by_their_logarithm():
    # c^(r-1) = 1e390 is past the float range, so n^(1 - c^(r-1)) is 0
    assert theorems._part_targets(1e10, 40, 40, 10) == (0, 0.0, False)
    assert theorems._part_targets(1e10, 40, 40, 1) == (0, 1.0, False)
    # r^r at r = 2000 is past it too; (c/r^r)^r ln n is then 0
    assert theorems._part_targets(2.0, 2000, 2000, 10) == (0, 0.0, False)


def test_theorem1_huge_r_is_vacuous():
    rep = theorem1_check(turan_graph(10, 2), 2000, 2.0)
    assert rep.verdict is Verdict.VACUOUS
    assert (rep.quantities["s_target"], rep.quantities["t_target"]) == (0, 0.0)


def test_a_threshold_past_the_float_range_is_decided_by_degrees():
    # (1/2 + 1e308) 10 exceeds every float: the eigen-solve's ceiling is the
    # largest float, which the maximum degree is below
    for check in (theorem1_check, proof_chain_check):
        rep = check(complete_graph(10), 3, 1e308)
        assert not rep.hypothesis_satisfied and rep.verdict is Verdict.VACUOUS
        assert (rep.mu.lower, rep.mu.upper, rep.mu.iterations) == (9.0, 9.0, 1)


def test_theorem1_check_vacuous_paths():
    # K9 satisfies the spectral hypothesis at c = 0.3 but fails the precondition
    rep = theorem1_check(complete_graph(9), 3, 0.3)
    assert rep.verdict is Verdict.VACUOUS
    assert rep.hypothesis_satisfied
    assert "precondition" in rep.notes

    # hypothesis fails outright
    rep = theorem1_check(turan_graph(10, 2), 3, 0.01)
    assert rep.verdict is Verdict.VACUOUS
    assert not rep.hypothesis_satisfied

    # c outside (0, 1/(r-1)) is flagged, not rejected, in the hypothesis
    # notes, which come before the conclusion's
    rep = theorem1_check(complete_graph(9), 3, 0.9)
    assert rep.verdict is Verdict.VACUOUS
    assert rep.notes == (
        "c=0.9 outside (0, 1/(r-1)) = (0, 0.5); spectral hypothesis unsatisfiable; "
        "hypothesis mu >= 12.6 not established; precondition (c/r^r)^r ln n >= 1 fails"
    )


@pytest.mark.parametrize("targets, budget, verdict, note", [
    ((2, 2.0, True), theorems.DEFAULT_BUDGET, Verdict.CONFIRMED, ""),
    ((2, 2.0, True), 1, Verdict.INDETERMINATE, "witness search budget exhausted"),
    ((4, 4.0, True), theorems.DEFAULT_BUDGET, Verdict.VIOLATION, "required subgraph larger than host"),
], ids=["confirmed", "budget", "larger-than-host"])
def test_theorem1_conclusion_searches_once_the_precondition_holds(
    targets, budget, verdict, note, monkeypatch
):
    # the precondition needs ln n >= 157,464 at r = 3, so stub the targets
    # to reach the witness search on K9, which meets the hypothesis at c = 0.3
    def stub(c, root, r, n):
        assert (c, root, r, n) == (0.3, 3, 3, 9)
        return targets

    monkeypatch.setattr(theorems, "_part_targets", stub)
    g = complete_graph(9)
    rep = theorem1_check(g, 3, 0.3, budget=budget)
    assert (rep.verdict, rep.hypothesis_satisfied, rep.notes) == (verdict, True, note)
    assert rep.quantities["t_part"] == targets[1] + 1
    if verdict is Verdict.CONFIRMED:
        assert sorted(rep.witness.sizes()) == [2, 2, 3]
        assert verify_witness(g, rep.witness)
    else:
        assert rep.witness is None


# ---------------------------------------------------------------------------
# proof chain
# ---------------------------------------------------------------------------

def test_proof_chain_examples():
    rep = proof_chain_check(complete_graph(9), 3, 0.3)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.kr == 84
    assert abs(rep.quantities["bound_strict"] - 8.1) <= 1e-9

    rep = proof_chain_check(turan_graph(10, 2), 3, 0.01)
    assert rep.verdict is Verdict.VACUOUS  # mu = 5 < 5.1

    rep = proof_chain_check(complete_graph(12), 4, 0.2)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.kr == 495
    assert abs(rep.quantities["bound_strict"] - 32.4) <= 1e-9


def test_proof_chain_bounds_past_the_float_range():
    # K_150 meets the hypothesis at r = 149, c = 5e-5, where r^r > 1e308
    c = 5e-5
    rep = proof_chain_check(complete_graph(150), 149, c)
    assert rep.verdict is Verdict.CONFIRMED and rep.kr == 150
    weak = c * (150 / 149) ** 149
    assert abs(rep.quantities["bound_weak"] - weak) <= 1e-12 * weak
    assert abs(rep.quantities["bound_strict"] - 147 * weak) <= 1e-12 * 147 * weak


def test_proof_chain_never_violates_on_complete_graphs():
    for n in range(6, 26):
        for r in (3, 4):
            c = 0.9 * (1 / (r - 1) - 1 / n)
            rep = proof_chain_check(complete_graph(n), r, c)
            assert rep.verdict is Verdict.CONFIRMED
            assert rep.hypothesis_satisfied


def test_proof_chain_bounds_are_decided_in_exact_rationals(monkeypatch):
    # K9 at r = 3 meets the hypothesis; both bounds are 27 c, and a stubbed
    # k_3 = 10 must exceed it: 27 c > 10 exactly one ulp above c = 10/27,
    # and 27 c < 10 at the float 10/27, whose float bound rounds to 10.0
    monkeypatch.setattr(theorems, "count_cliques", lambda g, r: 10)
    rep = proof_chain_check(complete_graph(9), 3, math.nextafter(10 / 27, 1))
    assert rep.hypothesis_satisfied and rep.verdict is Verdict.VIOLATION
    rep = proof_chain_check(complete_graph(9), 3, 10 / 27)
    assert rep.quantities["bound_strict"] == 10.0
    assert rep.verdict is Verdict.CONFIRMED


@pytest.mark.parametrize("check", [proof_chain_check, theorem1_check])
def test_spectral_hypothesis_is_decided_exactly(check):
    # mu(K10) = 9 exactly, below the threshold (1/2 + c) * 10 = 9.0000000005;
    # a 1e-9 slack on the comparison let the hypothesis pass
    rep = check(complete_graph(10), 3, 0.40000000005)
    assert rep.mu.lower <= 9 <= rep.mu.upper
    assert rep.quantities["threshold"] > 9
    assert (rep.hypothesis_satisfied, rep.verdict) == (False, Verdict.VACUOUS)


# ---------------------------------------------------------------------------
# clique density forces a multipartite subgraph
# ---------------------------------------------------------------------------

def test_fact2_desk_instance():
    g = k100_minus_50_edges()
    assert g.edge_count() == 4900
    rep = fact2_check(g, 2, 0.49)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.quantities["s_target"] == 1
    assert rep.quantities["t_part"] == 11
    assert rep.witness is not None
    assert sorted(rep.witness.sizes()) == [1, 11]


def test_fact2_vacuous_paths():
    rep = fact2_check(cycle_graph(5), 2, 0.49)
    assert rep.verdict is Verdict.VACUOUS  # k_2 = 5 < 12.25
    assert rep.notes == "k_r = 5 below c n^r = 12.25; precondition c^r ln n >= 1 fails"

    # r = 3 at desk scale: c <= 1/6 forces ln n >= 216
    rep = fact2_check(complete_graph(30), 3, 1 / 6)
    assert rep.verdict is Verdict.VACUOUS
    assert "precondition" in rep.notes

    # the count hypothesis holds (k_2 = 435 >= 270) and is reported as such
    rep = fact2_check(complete_graph(30), 2, 0.3)
    assert (rep.verdict, rep.hypothesis_satisfied, rep.notes) == (
        Verdict.VACUOUS, True, "precondition c^r ln n >= 1 fails")


def test_fact2_hypothesis_is_decided_exactly():
    # k_2 = 4900 < c * 100^2 exactly one ulp above c = 0.49; a 1e-9 slack on
    # the float threshold let the hypothesis pass
    rep = fact2_check(k100_minus_50_edges(), 2, math.nextafter(0.49, 1))
    assert (rep.hypothesis_satisfied, rep.verdict) == (False, Verdict.VACUOUS)
    assert rep.notes == "k_r = 4900 below c n^r = 4900.000000000001"


def test_fact2_huge_r_saturates_and_is_vacuous():
    # c n^r = 2 * 10^2000 and c^r ln n = 2^2000 ln 10 are past the float range
    rep = fact2_check(turan_graph(10, 2), 2000, 2.0)
    assert rep.verdict is Verdict.VACUOUS
    q = rep.quantities
    assert q["count_threshold"] == math.inf
    assert (q["s_target"], q["t_target"], q["precondition_met"]) == (math.inf, 0.0, True)


def test_fact2_witness_budget_exhausted_is_indeterminate():
    # the witness search that fact2 shares with theorem1, cut off by its budget
    rep = fact2_check(k100_minus_50_edges(), 2, 0.49, budget=1)
    assert rep.verdict is Verdict.INDETERMINATE
    assert rep.notes == "witness search budget exhausted"
    assert rep.quantities["t_part"] == 11
    assert rep.witness is None


def test_invalid_witness_raises_without_asserts(monkeypatch):
    g = k100_minus_50_edges()
    u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v))
    broken = MultipartiteWitness(((u,), (v,)))  # the cross edge uv is missing
    monkeypatch.setattr(theorems, "find_complete_multipartite", lambda *a, **k: broken)
    with pytest.raises(RuntimeError, match="invalid witness"):
        fact2_check(g, 2, 0.49)


def test_fact2_search_parameters_monotone_in_smaller_sizes():
    # the searched size is the floor; any smaller K_2(s', t) follows by
    # deleting vertices from the found witness
    g = k100_minus_50_edges()
    rep = fact2_check(g, 2, 0.49)
    w = rep.witness
    big = max(w.parts, key=len)
    assert len(big) >= 11


# ---------------------------------------------------------------------------
# Turan edge bound
# ---------------------------------------------------------------------------

def test_fact3_examples():
    rep = fact3_check(7, 3)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.quantities["edges"] == 16
    assert rep.quantities["lhs_8re"] == 384
    assert rep.quantities["rhs_4r1nn_rr"] == 383  # slack below 1: integers matter

    assert fact3_check(6, 2).verdict is Verdict.CONFIRMED
    assert fact3_check(5, 5).verdict is Verdict.CONFIRMED
    assert fact3_check(0, 1).verdict is Verdict.CONFIRMED


def test_fact3_tightness_on_balanced_instances():
    # equality of 2e = (1 - 1/r) n^2 when r divides n; slack is exactly r^2/(4r)
    rep = fact3_check(12, 3)
    e = rep.quantities["edges"]
    assert 2 * e * 3 == 2 * 12 * 12  # 2e = (2/3) * 144


# ---------------------------------------------------------------------------
# chromatic number and containment
# ---------------------------------------------------------------------------

def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(petersen()) == 3
    assert chromatic_number(complete_multipartite((3, 3))) == 2
    assert chromatic_number(Graph.empty(5)) == 1
    assert chromatic_number(Graph.empty(0)) == 0


def test_chromatic_at_least_clique_number():
    for g in [petersen(), gnp(10, 0.5, 2), turan_graph(9, 3), cycle_graph(7)]:
        clique = max(r for r in range(1, g.n + 1) if count_cliques(g, r) > 0)
        assert chromatic_number(g) >= clique


def test_chromatic_number_matches_brute_force():
    named = [
        cycle_graph(5), complete_graph(4), petersen(), complete_multipartite((3, 3)),
        Graph.empty(5), Graph.empty(0), gnp(10, 0.5, 2), turan_graph(9, 3), cycle_graph(7),
        complete_graph(3), complete_graph(6), cycle_graph(4), complete_multipartite((2, 2)),
        complete_multipartite((2, 3)), complete_multipartite((3, 1)),
        complete_multipartite((2, 2, 5)), parse_graph6("D|s"), parse_graph6("Cz"),  # W4, diamond
    ]
    seeded = [gnp(n, p, seed) for n in range(8) for p in (0.3, 0.6, 0.9) for seed in range(3)]
    for g in named + seeded:
        assert chromatic_number(g) == oracle_chromatic_number(g), g


def test_chromatic_domain():
    with pytest.raises(ValueError):
        chromatic_number(Graph.empty(17))


def test_contains_examples():
    assert not contains_subgraph(complete_multipartite((3, 3)), complete_graph(3))
    assert contains_subgraph(petersen(), cycle_graph(5))
    assert not contains_subgraph(cycle_graph(5), complete_multipartite((2, 2)))


def test_contains_agrees_with_injection_enumerator():
    patterns = [
        complete_graph(3),
        complete_graph(4),
        cycle_graph(4),
        cycle_graph(5),
        complete_multipartite((3, 1)),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # path
    ]
    hosts = [gnp(7, p, s) for p in (0.3, 0.6) for s in range(3)]
    hosts += [cycle_graph(7), turan_graph(7, 3), complete_graph(6)]
    for g in hosts:
        for f in patterns:
            assert contains_subgraph(g, f) == brute_contains_injection(g, f)


def test_contains_domain():
    with pytest.raises(ValueError):
        contains_subgraph(complete_graph(12), Graph.empty(11))


# ---------------------------------------------------------------------------
# spectral extremal scan and gap
# ---------------------------------------------------------------------------

def test_spex_triangle_free_values():
    assert abs(spex_scan(4, complete_graph(3)).mu.value - 2.0) <= 1e-6
    assert abs(spex_scan(5, complete_graph(3)).mu.value - math.sqrt(6)) <= 1e-6
    assert abs(spex_scan(6, complete_graph(3)).mu.value - 3.0) <= 1e-6


def test_spex_matches_brute_force_small():
    for f in [complete_graph(3), complete_graph(4), cycle_graph(5)]:
        for n in (1, 2, 3, 4, 5):
            assert abs(spex_scan(n, f).mu.value - brute_spex(n, f)) <= 1e-8


def test_spex_witness_is_f_free():
    res = spex_scan(6, complete_graph(3))
    assert not contains_subgraph(res.witness, complete_graph(3))


def test_spex_domain():
    with pytest.raises(ValueError):
        spex_scan(9, complete_graph(3))
    with pytest.raises(ValueError, match="pattern is contained in every graph of this order"):
        spex_scan(4, Graph.empty(1))
    with pytest.raises(ValueError, match="pattern limited to n <= 10"):
        spex_scan(4, complete_graph(11))


@pytest.mark.parametrize("n", range(1, 9))
def test_spex_domain_from_the_copy_set(n):
    # an edgeless pattern is contained in every graph of order >= its own;
    # a larger one is in none, so K_n is the only maximal graph
    for k in range(12):
        f = Graph.empty(k)
        if k > 10:
            with pytest.raises(ValueError, match="pattern limited to n <= 10"):
                spex_scan(n, f)
        elif k <= n:
            with pytest.raises(ValueError, match="pattern is contained in every graph of this order"):
                spex_scan(n, f)
        else:
            res = spex_scan(n, f)
            assert res.witness == complete_graph(n), k
            assert res.maximal_graphs == 1


# the gap-spex patterns: K3, K4, C5, the wheel W4 and the diamond
GAP_PATTERNS = [complete_graph(3), complete_graph(4), cycle_graph(5),
                parse_graph6("D|s"), parse_graph6("Cz")]


def test_spex_scan_matches_decision_tree_oracle():
    nx = pytest.importorskip("networkx")
    # every pattern on 2..5 vertices with an edge, at every order up to 5
    atlas = [
        Graph.from_edges(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if 2 <= h.number_of_nodes() <= 5 and h.number_of_edges() >= 1
    ]
    cases = [(n, f) for f in atlas for n in range(1, 6)]
    cases += [(6, f) for f in GAP_PATTERNS]
    for n, f in cases:
        got, want = spex_scan(n, f), oracle_spex_scan(n, f)
        assert got.maximal_graphs == want.maximal_graphs, (n, to_graph6(f))
        assert got.witness == want.witness, (n, to_graph6(f))
        # the whole estimate, iterations and converged included: the winner's
        # solve is never cut short by the ceiling
        assert got.mu == want.mu, (n, to_graph6(f))


@pytest.mark.parametrize("call", [
    lambda: spex_scan(6, complete_graph(3)),
    lambda: chromatic_number(cycle_graph(5)),
    lambda: theorem2_gap(6, parse_graph6("D|s")),  # W4
], ids=["spex_scan-K3", "chromatic_number-C5", "theorem2_gap-W4"])
def test_scans_leave_no_reference_cycles(call):
    # as for count_cliques' walk: a recursive closure that refers to itself
    # would hold the scan's tables until the collector ran
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _maximal_free_graphs(n: int, f: Graph) -> list[Graph]:
    """Every maximal F-free graph on n labeled vertices, by brute force over
    the edge masks of ``all_graphs``."""
    graphs = list(all_graphs(n))
    free = [not contains_subgraph(g, f) for g in graphs]
    pairs = range(n * (n - 1) // 2)
    return [g for mask, g in enumerate(graphs)
            if free[mask] and not any(free[mask | 1 << i] for i in pairs if not mask >> i & 1)]


@pytest.mark.parametrize("n, f", [(5, f) for f in GAP_PATTERNS]
                         + [(6, cycle_graph(5)), (6, parse_graph6("D|s")), (6, cycle_graph(6))])
def test_spex_interval_encloses_every_maximal_graph(n, f):
    # ties between copies, or between unions of cycles, put some leaves'
    # upper ends above the witness's; the reported interval must reach them,
    # and widening it must keep the witness's proved lower end bit for bit
    res = spex_scan(n, f)
    for g in _maximal_free_graphs(n, f):
        assert spectral_radius(g).upper <= res.mu.upper, to_graph6(g)
    assert res.mu.lower == spectral_radius(res.witness).lower


# K2 and an edge plus three isolated vertices: every pair completes a copy on its own
@pytest.mark.parametrize("f", [complete_graph(2), parse_graph6("D_?")])
def test_one_edge_pattern_leaves_only_the_empty_graph(f):
    for n in range(f.n, theorems.SPEX_MAX_N + 1):
        res = spex_scan(n, f)
        assert res.witness == Graph.empty(n), n
        assert res.maximal_graphs == 1
        assert res.mu.value == 0.0


def test_pattern_larger_than_n_leaves_the_complete_graph():
    res = spex_scan(4, complete_graph(5))
    assert res.witness == complete_graph(4)
    assert res.maximal_graphs == 1
    assert res.mu.lower <= 3.0 <= res.mu.upper


def _pair_vector(g: Graph) -> tuple[bool, ...]:
    return tuple(g.has_edge(u, v) for u, v in combinations(range(g.n), 2))


def _scan_first_copy(g: Graph) -> bool:
    """Whether g's pair vector is the largest over its relabelings: the
    scan meets the leaves in decreasing order of it, so such a g is the
    first copy of its class that the scan meets."""
    edges = list(g.edges())
    vec = _pair_vector(g)
    return all(
        _pair_vector(Graph.from_edges(g.n, [(p[u], p[v]) for u, v in edges])) <= vec
        for p in permutations(range(g.n))
    )


def test_spex_witness_is_the_first_copy_of_its_class():
    nx = pytest.importorskip("networkx")
    # the three cases whose witness the former midpoint rule took from a
    # later copy, then every pattern on 2..5 vertices with an edge at every
    # order up to 5
    cases = [(5, parse_graph6("D|s")), (6, cycle_graph(4)), (6, cycle_graph(6))]
    cases += [
        (n, Graph.from_edges(h.number_of_nodes(), h.edges()))
        for h in nx.graph_atlas_g()
        if 2 <= h.number_of_nodes() <= 5 and h.number_of_edges() >= 1
        for n in range(1, 6)
    ]
    for n, f in cases:
        assert _scan_first_copy(spex_scan(n, f).witness), (n, to_graph6(f))


def test_spex_n7_pins_parent_values():
    res = spex_scan(7, complete_graph(3))
    assert res.maximal_graphs == 1743
    assert res.mu.lower <= math.sqrt(12) <= res.mu.upper
    # K_{3,4}: the triangle-free graph on 7 vertices with the most edges
    assert sorted(map(res.witness.degree, range(7))) == [3, 3, 3, 3, 4, 4, 4]
    assert not contains_subgraph(res.witness, complete_graph(3))


# exact results of the full labeled tree for K4 and the diamond, the
# patterns whose maximality look-ahead cuts most of it
@pytest.mark.parametrize("f, maximal, value, residual, witness", [
    (complete_graph(4), 2173, "0x1.26c15a2321feep+2", "0x1.4e61c00000000p-32", "F}qzw"),
    (parse_graph6("Cz"), 11711, "0x1.bb67ae8584cabp+1", "0x1.fb53c00000000p-32", "Fs`zo"),
])
def test_spex_n7_pins_parent_values_of_pruned_patterns(f, maximal, value, residual, witness):
    res = spex_scan(7, f)
    assert res.maximal_graphs == maximal
    assert (res.mu.value, res.mu.residual) == (float.fromhex(value), float.fromhex(residual))
    assert to_graph6(res.witness) == witness


def test_theorem2_gap_examples():
    rep = theorem2_gap(6, complete_graph(3))
    assert rep.verdict is Verdict.CONFIRMED
    assert abs(rep.quantities["lower"] - 0.5) <= 1e-9
    assert abs(rep.quantities["upper"] - 0.5) <= 1e-9
    assert abs(rep.quantities["gap"]) <= 1e-9
    assert rep.quantities["lower"] >= 0.5 - 2 / (4 * 36) - 1e-9

    rep = theorem2_gap(5, complete_graph(3))
    assert abs(rep.quantities["lower"] - math.sqrt(6) / 5) <= 1e-9
    assert abs(rep.quantities["upper"] - math.sqrt(6) / 5) <= 1e-9


def _spex_with_upper(upper: float):
    return lambda n, f: SpexResult(SpectralEstimate(upper, upper, 1, True), complete_graph(n), 1)


def test_gap_sandwich_is_decided_without_tolerance(monkeypatch):
    # K3 at n = 4: mu(T_2(4)) = mu(K_{2,2}) = 2 exactly; a spex maximum whose
    # upper end lies one ulp below it breaks the sandwich, one at it does not
    monkeypatch.setattr(theorems, "spex_scan", _spex_with_upper(math.nextafter(2.0, -math.inf)))
    rep = theorem2_gap(4, complete_graph(3))
    assert (rep.verdict, rep.notes) == (Verdict.VIOLATION, "lower bound exceeds the exhaustive maximum")
    monkeypatch.setattr(theorems, "spex_scan", _spex_with_upper(2.0))
    rep = theorem2_gap(4, complete_graph(3))
    assert (rep.verdict, rep.notes) == (Verdict.CONFIRMED, "")


def test_gap_floor_is_decided_in_exact_rationals(monkeypatch):
    # K3 at n = 4: floor * n = 2 - 2/16 = 1.875 exactly; a Turan root a hair
    # below it, (0 + sqrt(disc))/2 with disc = 3.75^2 - 2^-80, falls short of
    # the floor, and one exactly at it does not
    exact = Fraction(15, 4) ** 2
    monkeypatch.setattr(theorems, "_turan_root", lambda n, k: (0, exact - Fraction(1, 2**80)))
    rep = theorem2_gap(4, complete_graph(3))
    assert (rep.verdict, rep.notes) == (Verdict.VIOLATION, "Turan root fell below its guaranteed floor")
    monkeypatch.setattr(theorems, "_turan_root", lambda n, k: (0, exact))
    rep = theorem2_gap(4, complete_graph(3))
    assert (rep.verdict, rep.notes) == (Verdict.CONFIRMED, "")


def test_gap_lower_is_the_turan_root(monkeypatch):
    # the scan is stubbed with 8 > mu of every graph on n <= 8 vertices:
    # only the Turan side of the sandwich is under test
    monkeypatch.setattr(theorems, "spex_scan", _spex_with_upper(8.0))
    ulps = Fraction(4, 2**53)
    for r in range(3, 11):
        for n in range(r - 1, 9):
            rep = theorem2_gap(n, complete_graph(r))
            assert rep.verdict is Verdict.CONFIRMED, (n, r)
            sizes = turan_part_sizes(n, r - 1)
            mu = rep.quantities["lower"] * n
            assert abs(mu - quotient_mu_multipartite(sizes)) <= 1e-11 * n, (n, r)
            # lower * n lies within 4 ulps of the root of
            # sum s/(x + s) = 1, decided exactly by signs ...
            lo, hi = Fraction(mu) * (1 - ulps), Fraction(mu) * (1 + ulps)
            assert sum(Fraction(s) / (lo + s) for s in sizes) >= 1 >= sum(
                Fraction(s) / (hi + s) for s in sizes), (n, r)
            # ... and through squares: 2x - b >= sqrt(disc) at hi, not at lo
            b, disc = theorems._turan_root(n, r - 1)
            assert (2 * lo - b) ** 2 <= disc <= (2 * hi - b) ** 2 and 2 * hi >= b, (n, r)


def test_theorem2_gap_rejects_bipartite_pattern():
    with pytest.raises(ValueError):
        theorem2_gap(6, complete_multipartite((2, 2)))


# ---------------------------------------------------------------------------
# no-violation meta-invariant on a mixed mini corpus
# ---------------------------------------------------------------------------

def test_no_violations_across_checkers():
    corpus = [gnp(18, p, s) for p in (0.2, 0.5, 0.8) for s in (1, 2)]
    corpus += [turan_graph(n, r) for n in (10, 17) for r in (2, 3, 5)]
    corpus += [complete_graph(9), petersen()]
    for g in corpus:
        for r in (2, 3, 4):
            assert fact1_check(g, r).verdict is not Verdict.VIOLATION
        for c in (0.05, 0.3):
            assert proof_chain_check(g, 3, c).verdict is not Verdict.VIOLATION
            assert theorem1_check(g, 3, c).verdict is not Verdict.VIOLATION
        assert fact2_check(g, 2, 0.49).verdict is not Verdict.VIOLATION
    for n in range(0, 40):
        for r in range(1, 8):
            assert fact3_check(n, r).verdict is Verdict.CONFIRMED
