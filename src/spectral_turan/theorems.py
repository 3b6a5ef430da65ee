"""Checkable forms of the spectral/clique/multipartite inequality chain.

Every checker consumes certified eigenvalue intervals and exact integer
clique counts, and emits a structured report.  Verdicts compare integers
with exact ``Fraction`` values taken at certified interval ends; floats are
only reported.  A confirmed fact1 verdict holds at every point of its
certified interval, and a VIOLATION verdict needs the inequality to fail at
every point of every certified interval; search budget shortfalls are
``indeterminate``.  fact1, theorem1 and the chain ask ``spectral_radius``
only for the bracket their verdict needs: they pass the exact value of mu
at which the verdict turns as a ceiling, so a graph whose mu lies below it
is often decided by its degree sequence, and the reported mu is just tight
enough for the verdict; the ``mu`` subcommand settles mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations

from .cliques import count_cliques
from .graphs import Graph, iter_bits, part_sizes, turan_part_sizes
from .multipartite import (
    DEFAULT_BUDGET,
    MultipartiteWitness,
    SearchBudgetExceeded,
    checked_witness,
    find_complete_multipartite,
)
from .spectral import SpectralEstimate, spectral_radius

SPEX_MAX_N = 8


class Verdict(str, Enum):
    CONFIRMED = "confirmed"
    VACUOUS = "vacuous"
    INDETERMINATE = "indeterminate"
    VIOLATION = "VIOLATION"


@dataclass
class TheoremReport:
    """Outcome of one checker applied to one instance."""

    params: dict
    hypothesis_satisfied: bool
    verdict: Verdict
    mu: SpectralEstimate | None = None
    kr: int | None = None
    quantities: dict = field(default_factory=dict)
    witness: MultipartiteWitness | None = None
    notes: str = ""

    def note(self, text: str) -> None:
        """Append text, if any, to the notes; notes are joined with "; "."""
        self.notes = "; ".join(filter(None, (self.notes, text)))


def _spectral_hypothesis(g: Graph, r: int, c: float) -> TheoremReport:
    """The hypothesis mu(G) >= (1 - 1/(r-1) + c) n of theorem1 and the chain.

    Returns a vacuous report for r >= 3 with mu and quantities["threshold"].
    The hypothesis holds when the certified lower interval end, converged or
    not, reaches the threshold, compared as exact rationals (the reported
    threshold is its float).  The exact threshold is the eigen-solve's
    ceiling, so a mu below it is solved only until that is certain.  The
    notes open with one on c outside (0, 1/(r-1)), then say when the
    threshold is not reached.
    """
    threshold = (1.0 - 1.0 / (r - 1) + c) * g.n
    exact = (1 - Fraction(1, r - 1) + Fraction(c)) * g.n
    mu = spectral_radius(g, exact)
    hyp = Fraction(mu.lower) >= exact
    rep = TheoremReport(
        {"n": g.n, "r": r, "c": c}, hyp, Verdict.VACUOUS,
        mu=mu, quantities={"threshold": threshold},
    )
    if not 0.0 < c < 1.0 / (r - 1):
        rep.note(
            f"c={c} outside (0, 1/(r-1)) = (0, {1.0 / (r - 1):.6g}); "
            "spectral hypothesis unsatisfiable"
        )
    if not hyp:
        rep.note(f"hypothesis mu >= {threshold:.6g} not established")
    return rep


def _require_domain(check: str, g: Graph, r: int, r_min: int, c: float | None = None) -> None:
    """Raise ValueError for an instance outside a checker's domain."""
    if r < r_min:
        raise ValueError(f"{check} requires r >= {r_min}")
    if c is not None and not 0 < c < math.inf:
        raise ValueError(f"{check} requires " + ("c > 0" if c <= 0 else "a finite c"))
    if g.n < 1:
        raise ValueError(f"{check} requires n >= 1")


# ---------------------------------------------------------------------------
# clique lower bound from the spectral radius
# ---------------------------------------------------------------------------

def fact1_rhs(n: int, r: int, mu: float) -> float:
    """Clique-count lower bound (mu/n - 1 + 1/r) * r(r-1)/(r+1) * (n/r)^r.

    May be negative, in which case the bound is vacuously true.
    """
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    return _scaled_power((mu / n - 1.0 + 1.0 / r) * (r * (r - 1) / (r + 1)), n / r, r)


def _scaled_power(coef: float, base: float, r: int) -> float:
    """coef * base**r for base >= 0; where base**r overflows, through logarithms,
    saturating to +-inf from e^709 on."""
    try:
        return coef * base**r
    except OverflowError:
        if coef == 0.0:
            return 0.0
        log_value = math.log(abs(coef)) + r * math.log(base)
        return math.copysign(math.exp(log_value) if log_value < 709.0 else math.inf, coef)


def fact1_check(g: Graph, r: int) -> TheoremReport:
    """Check k_r >= clique lower bound at the spectral radius.

    The bound rises with mu and meets k_r at mu_t = n (k_r/K + 1 - 1/r),
    K = r(r-1)/(r+1) (n/r)^r, so k_r is counted first and mu_t is the
    eigen-solve's ceiling: a graph whose maximum degree is below mu_t is
    decided by its degree sequence.  Decided in exact
    rationals (rhs_low and rhs_high are floats): confirmed means the bound
    holds at every point of the certified interval (upper end <= mu_t),
    VIOLATION that it fails at every point (lower end > mu_t), and an
    interval that straddles mu_t is indeterminate.
    """
    _require_domain("fact1", g, r, 2)
    kr = count_cliques(g, r)
    mu_t = g.n * (1 - Fraction(1, r))
    if kr:  # kr > 0 forces r <= n, so the power stays small
        mu_t += g.n * kr / (Fraction(r * (r - 1), r + 1) * Fraction(g.n, r) ** r)
    mu = spectral_radius(g, mu_t)
    rep = TheoremReport(
        {"n": g.n, "r": r}, True, Verdict.CONFIRMED, mu=mu, kr=kr,
        quantities={"rhs_low": fact1_rhs(g.n, r, mu.lower), "rhs_high": fact1_rhs(g.n, r, mu.upper)},
    )
    if Fraction(mu.lower) > mu_t:
        rep.verdict = Verdict.VIOLATION
    elif Fraction(mu.upper) > mu_t:
        rep.verdict = Verdict.INDETERMINATE
        rep.note(f"mu interval straddles {float(mu_t):.17g}, where the bound meets k_r")
    return rep


# ---------------------------------------------------------------------------
# main theorem: spectral hypothesis forces a large complete r-partite subgraph
# ---------------------------------------------------------------------------

def _part_targets(c: float, root: int, r: int, n: int) -> tuple[int | float, float, bool]:
    """Part sizes of K_r(s,..,s,t): (s_target, t_target, precondition_met).

    With base = c/root^r (root = r for the main theorem, 1 for fact2):
    s_target = floor(base^r * ln n), inf past the float range;
    t_target = n^(1 - c^(r-1)); precondition_met iff base^r * ln n >= 1.
    """
    log_n = math.log(n)
    # root^r past the float range needs r >= 144, and then base^r < 1e-360
    base = c / root**r if r * math.log(root) < 709.78 else 0.0
    product = _scaled_power(log_n, base, r)
    t_target = math.exp((1.0 - _scaled_power(1.0, c, r - 1)) * log_n) if n > 1 else 1.0
    s_target = math.floor(product) if product < math.inf else math.inf
    return s_target, t_target, product >= 1.0


def _multipartite_conclusion(g: Graph, rep: TheoremReport, root: int, budget: int) -> TheoremReport:
    """Fact 2's conclusion at base c/root^r, shared by theorem1 and fact2.

    Completes the vacuous hypothesis report ``rep`` in place and returns it.
    Records s_target, t_target and precondition_met in its quantities.  It
    stays vacuous unless its hypothesis holds and base^r ln n >= 1;
    otherwise g is searched for r-1 parts of size s_target plus one of size
    floor(t_target) + 1, recorded as quantities["t_part"].  A witness that
    fails the edge-by-edge check raises.
    """
    r, c = rep.params["r"], rep.params["c"]
    s_target, t_target, precondition = _part_targets(c, root, r, g.n)
    rep.quantities.update(s_target=s_target, t_target=t_target, precondition_met=precondition)
    if not precondition:
        rep.note(f"precondition {'c^r' if root == 1 else '(c/r^r)^r'} ln n >= 1 fails")
    if not (rep.hypothesis_satisfied and precondition):
        return rep
    t_part = math.floor(t_target) + 1
    rep.quantities["t_part"] = t_part
    sizes = part_sizes((s_target,) * (r - 1) + (t_part,))
    if sum(sizes) > g.n:
        rep.verdict, note = Verdict.VIOLATION, "required subgraph larger than host"
    else:
        try:
            rep.witness = checked_witness(g, find_complete_multipartite(g, sizes, budget=budget))
            rep.verdict, note = Verdict.VIOLATION, "exhaustive search found no witness"
        except SearchBudgetExceeded:
            rep.verdict, note = Verdict.INDETERMINATE, "witness search budget exhausted"
    if rep.witness is not None:
        rep.verdict, note = Verdict.CONFIRMED, ""
    rep.note(note)
    return rep


def theorem1_check(g: Graph, r: int, c: float, budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Full hypothesis-to-witness check: a large spectral radius forces a
    large complete r-partite subgraph.

    The spectral hypothesis mu(G) >= (1 - 1/(r-1) + c) n, decided at the
    certified lower interval end, gives k_r >= (c/r^r) n^r (fact1 and the
    proof chain), so the conclusion is fact2's at base c/r^r: vacuous unless
    the (c/r^r)^r ln n >= 1 precondition is met as well.
    """
    _require_domain("theorem1", g, r, 3, c)
    return _multipartite_conclusion(g, _spectral_hypothesis(g, r, c), r, budget)


def proof_chain_check(g: Graph, r: int, c: float) -> TheoremReport:
    """Clique-count inequalities linking the spectral hypothesis to the
    multipartite conclusion.

    Under the spectral hypothesis, asserts k_r > c (r-2)/r^r * n^r and
    k_r >= (c/r^r) * n^r in exact rationals (the reported bounds are
    floats).  Desk-checkable at every n, unlike the full conclusion.
    """
    _require_domain("proof chain", g, r, 3, c)
    rep = _spectral_hypothesis(g, r, c)
    if not rep.hypothesis_satisfied:
        return rep
    rep.kr = count_cliques(g, r)
    bound_weak = _scaled_power(c, g.n / r, r)
    rep.quantities.update(bound_strict=(r - 2) * bound_weak, bound_weak=bound_weak)
    # reached only under the hypothesis, which forces r <= n: the power stays small
    w = Fraction(c) * Fraction(g.n, r) ** r
    ok = rep.kr > (r - 2) * w and rep.kr >= w
    rep.verdict = Verdict.CONFIRMED if ok else Verdict.VIOLATION
    return rep


# ---------------------------------------------------------------------------
# clique density forces a large complete r-partite subgraph
# ---------------------------------------------------------------------------

def fact2_check(g: Graph, r: int, c: float, budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Check: k_r >= c n^r (with c^r ln n >= 1) forces K_r(s,..,s,t).

    Searches for r-1 parts of size exactly floor(c^r ln n) and one part of
    size floor(t_target) + 1; smaller sizes are certified by monotonicity.
    No eigenvalue is involved: the hypothesis compares the integer k_r with
    c n^r as an exact rational (the reported count_threshold is its float).
    """
    _require_domain("fact2", g, r, 2, c)
    n = g.n
    kr = count_cliques(g, r)
    count_threshold = _scaled_power(c, float(n), r)
    # kr > 0 forces r <= n, so the power stays small
    hyp = kr > 0 and kr >= Fraction(c) * n ** r
    rep = TheoremReport(
        {"n": n, "r": r, "c": c}, hyp, Verdict.VACUOUS,
        kr=kr, quantities={"count_threshold": count_threshold},
        notes="" if hyp else f"k_r = {kr} below c n^r = {count_threshold!r}",
    )
    return _multipartite_conclusion(g, rep, 1, budget)


# ---------------------------------------------------------------------------
# Turan graph edge bound, exact integer arithmetic
# ---------------------------------------------------------------------------

def fact3_check(n: int, r: int) -> TheoremReport:
    """Check 2 e(T_r(n)) >= (1 - 1/r) n^2 - r/4 exactly.

    Cleared of denominators (multiply by 4r):
    8 r e(T_r(n)) >= 4 (r-1) n^2 - r^2, compared in exact integers; the
    slack can be below 1, so floating point is never used here.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    sizes = turan_part_sizes(n, r)
    e = (n * n - sum(s * s for s in sizes)) // 2
    lhs = 8 * r * e
    rhs = 4 * (r - 1) * n * n - r * r
    verdict = Verdict.CONFIRMED if lhs >= rhs else Verdict.VIOLATION
    return TheoremReport(
        {"n": n, "r": r}, True, verdict,
        quantities={"edges": e, "lhs_8re": lhs, "rhs_4r1nn_rr": rhs},
    )


# ---------------------------------------------------------------------------
# chromatic number (for the spectral extremal limit)
# ---------------------------------------------------------------------------

def chromatic_number(f: Graph) -> int:
    """Exact chromatic number: the least k with a k-coloring; limited to n <= 16.

    Each k = 0, 1, ... is decided by k-colorability backtracking over the
    vertices in descending degree order.
    """
    if f.n > 16:
        raise ValueError("chromatic_number limited to n <= 16")
    order = sorted(range(f.n), key=lambda v: (-f.degree(v), v))
    return next(k for k in range(f.n + 1) if _colorable(f, order, k, [-1] * f.n, 0, 0))


def _colorable(f: Graph, order: list[int], k: int, colors: list[int], idx: int, used: int) -> bool:
    """Whether ``colors`` (-1 for none), which gives order[:idx] colors
    0..used-1, extends to a proper k-coloring of f."""
    if idx == len(order):
        return True
    v = order[idx]
    forbidden = {colors[u] for u in iter_bits(f.row(v)) if colors[u] >= 0}
    # new colors are introduced in order, killing color-permutation symmetry
    for color in range(min(used + 1, k)):
        if color in forbidden:
            continue
        colors[v] = color
        if _colorable(f, order, k, colors, idx + 1, max(used, color + 1)):
            return True
        colors[v] = -1
    return False


# ---------------------------------------------------------------------------
# finite-n spectral extremal scan and the limit sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpexResult:
    """Maximum spectral radius over F-free graphs of a given order: ``mu``
    encloses it, and ``witness`` is a maximal F-free graph whose mu is at
    least ``mu.lower``.  ``mu.iterations`` and ``mu.converged`` are the
    witness's solve."""

    mu: SpectralEstimate
    witness: Graph
    maximal_graphs: int


def spex_scan(
    n: int,
    f: Graph,
) -> SpexResult:
    """Maximize mu(G) over all F-free graphs on n labeled vertices.

    mu is monotone under edge addition and F-freeness survives edge
    deletion, so only maximal F-free graphs (no addable edge) need their
    eigenvalue computed.  The scan decides the C(n, 2) vertex pairs in
    lexicographic order, first with the pair as an edge, then without it.

    Graphs are masks over the pair indices.  Every labeled copy of F in K_n
    is listed once, as the mask of the pairs it uses, and filed under each
    of its pairs.  The copies filed under a pair are also sliced by pair:
    for each other pair p, the bitset of those copies that use p.  Along the
    search path the scan keeps the edge mask and a ``blocked`` mask: the
    pairs whose addition would complete a copy.  When a pair becomes an
    edge, a copy through it with exactly one pair still missing blocks that
    pair; two bitsets, "missing one or more" and "missing two or more",
    built by OR-ing the slices of the missing pairs, find those copies all
    at once.  A copy of a one-edge pattern is blocked from the start.  Since
    the graph stays F-free, G + e contains F exactly when e is blocked.  So
    a blocked pair, or a run of them, is excluded without branching, and a
    leaf is maximal exactly when every non-edge is blocked; its adjacency
    rows are read straight off the edge mask.  These are the
    answers subgraph embedding gives for the same questions, so the tree,
    the order of the maximal leaves and the single spectral_radius call per
    leaf are those of the embedding-driven scan, and with them the witness
    and every reported number.  The copy set also decides the domain: F is
    contained in every graph on n vertices exactly when the empty pair mask
    is a copy, i.e. when F has no edge and at most n vertices.

    Maximality look-ahead: the scan also carries ``open_``, the excluded
    pairs not yet blocked.  Each must end up blocked in a maximal leaf, so
    some copy through it must fit in its final edges, and those lie among
    the current edges and the unblocked pairs after i (blocked pairs never
    become edges).  Before excluding pair i the scan looks for such a copy
    through i and through every open pair, and skips the branch if one has
    none.  It first re-checks the copy that last fit the pair; only if that
    one no longer fits does it OR the slices of the pairs that can no longer
    become edges, which leaves the copies that still fit.  Only non-maximal
    leaves are cut, so the maximal leaves, their order and every reported
    number stay as above.

    A leaf replaces the best so far only when its certified lower end is
    above the best's upper end, which is each later leaf's ceiling.
    Isomorphic copies share mu, so none replaces another: unless two
    classes' intervals overlap, the witness is the first copy of its class
    in leaf order.  The reported interval is [the witness's lower end, the
    largest upper end over all leaves], which encloses the maximum; a leaf
    stopped under the ceiling can move neither end.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > SPEX_MAX_N:
        raise ValueError(f"n = {n} exceeds exhaustive scan bound {SPEX_MAX_N}")
    if f.n > 10:
        raise ValueError("pattern limited to n <= 10")
    pairs = list(combinations(range(n), 2))
    bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        bit[u][v] = bit[v][u] = 1 << i
    f_edges = list(f.edges())
    copies = {sum(bit[p[u]][p[v]] for u, v in f_edges) for p in permutations(range(n), f.n)}
    if 0 in copies:
        raise ValueError("pattern is contained in every graph of this order")
    last = len(pairs)
    # through[i]: the other pairs of each copy that uses pair i
    through = [[m ^ 1 << i for m in copies if m >> i & 1] for i in range(last)]
    # sliced[i]: (1 << p, the copies of through[i] that use p, as a bitset
    # over their positions there) for each pair p that one of them uses
    sliced = []
    for rests in through:
        users: dict[int, int] = {}
        for j, rest in enumerate(rests):
            for p in iter_bits(rest):
                users[p] = users.get(p, 0) | 1 << j
        sliced.append([(1 << p, users[p]) for p in sorted(users)])
    fits = [-1] * last  # the copy of through[x] that last fit pair x; -1 fits nothing
    ends = [(u, v, 1 << u, 1 << v) for u, v in pairs]
    everything = (1 << last) - 1
    after = [everything >> i + 1 << i + 1 for i in range(last)]  # the pairs after i
    best: tuple[SpectralEstimate, Graph] | None = None
    top = -math.inf  # the largest upper end over the leaves
    maximal = 0

    def decide(i: int, edges: int, blocked: int, open_: int) -> None:
        nonlocal best, top, maximal
        while i < last and blocked >> i & 1:
            i += 1
        if i == last:
            if edges | blocked != everything:
                return  # an edge is still addable: dominated by a supergraph
            maximal += 1
            rows = [0] * n
            m = edges
            while m:
                u, v, bu, bv = ends[(m & -m).bit_length() - 1]
                rows[u] |= bv
                rows[v] |= bu
                m &= m - 1
            g = Graph(n, rows, validate=False)
            est = spectral_radius(g, -math.inf if best is None else best[0].upper)
            top = max(top, est.upper)
            if best is None or est.lower > best[0].upper:
                best = (est, g)
            return
        # with pair i: a copy through it with exactly one pair still absent
        # blocks that pair; count absent pairs per copy in two bit slices
        grown = edges | 1 << i
        ones = twos = 0
        for pb, users in sliced[i]:
            if not pb & grown:
                twos |= ones & users
                ones |= users
        one = ones & ~twos
        now_blocked = blocked
        while one:
            now_blocked |= through[i][(one & -one).bit_length() - 1] & ~grown
            one &= one - 1
        decide(i + 1, grown, now_blocked, open_)
        # without pair i: every excluded, unblocked pair still needs a copy
        # of F through it inside the pairs that can yet become edges
        open_ = (open_ | 1 << i) & ~blocked
        gone = ~(edges | after[i] & ~blocked)
        m = open_
        while m:
            x = (m & -m).bit_length() - 1
            m &= m - 1
            if fits[x] & gone:
                dead = 0
                for pb, users in sliced[x]:
                    if pb & gone:
                        dead |= users
                alive = ~dead & (1 << len(through[x])) - 1
                if not alive:
                    return  # x stays addable below: no maximal leaf
                fits[x] = through[x][(alive & -alive).bit_length() - 1]
        decide(i + 1, edges, blocked, open_)

    decide(0, 0, sum(m for m in copies if m & (m - 1) == 0), 0)
    del decide  # decide refers to itself: break the cycle that holds the tables
    est, witness = best
    if top > est.upper:  # another leaf's interval reaches above the witness's
        est = SpectralEstimate(est.lower, top, est.iterations, est.converged)
    return SpexResult(est, witness, maximal)


def _turan_root(n: int, k: int) -> tuple[int, int]:
    """(b, disc) with mu(T_k(n)) = (b + sqrt(disc))/2, for 1 <= k <= n.

    mu is the largest root of sum_i s_i/(x + s_i) = 1 over the part sizes:
    a parts of p = q + 1 and k - a of q = n // k.  Times (x + p)(x + q)
    this is x^2 - b x - c = 0, b = n - p - q, c = (k - 1) p q, whatever a.
    """
    q = n // k
    p = q + 1
    b = n - p - q
    return b, b * b + 4 * (k - 1) * p * q


def theorem2_gap(n: int, f: Graph) -> TheoremReport:
    """Finite-n sandwich around the spectral extremal limit 1 - 1/(r-1).

    lower = mu(T_{r-1}(n))/n, a root in closed form; upper = spex(n, F)/n
    from the exhaustive scan.  Certifies mu(T_{r-1}(n)) <= the scan's upper
    end and the floor lower >= 1 - 1/(r-1) - (r-1)/(4 n^2) exactly, by signs
    of integers and rationals.  Reports upper minus the limit as the
    finite-n gap (its sign is unconstrained at small n).
    """
    r = chromatic_number(f)
    if r < 3:
        raise ValueError("limit statement needs chromatic number >= 3")
    if n < r - 1:
        raise ValueError("need n >= r - 1 so the Turan graph has r - 1 parts")
    b, disc = _turan_root(n, r - 1)
    spex = spex_scan(n, f)
    upper = spex.mu.value / n
    limit = 1.0 - 1.0 / (r - 1)
    # x >= (b + sqrt(disc))/2 iff 2x - b >= 0 and (2x - b)^2 >= disc; the
    # floor times n is (4 n^2 (r-2) - (r-1)^2) / (4 n (r-1))
    t = 2 * Fraction(spex.mu.upper) - b
    u = 2 * Fraction(4 * n * n * (r - 2) - (r - 1) ** 2, 4 * n * (r - 1)) - b
    sandwich_ok = t >= 0 and t * t >= disc
    floor_ok = u <= 0 or u * u <= disc
    verdict = Verdict.CONFIRMED if sandwich_ok and floor_ok else Verdict.VIOLATION
    rep = TheoremReport(
        {"n": n, "r": r}, True, verdict,
        quantities={
            "lower": (b + math.sqrt(disc)) / 2 / n,
            "upper": upper,
            "limit": limit,
            "gap": upper - limit,
            "turan_floor": limit - (r - 1) / (4.0 * n * n),
            "maximal_graphs": spex.maximal_graphs,
        },
    )
    if not sandwich_ok:
        rep.note("lower bound exceeds the exhaustive maximum")
    if not floor_ok:
        rep.note("Turan root fell below its guaranteed floor")
    return rep
