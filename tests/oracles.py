"""Independent oracles shared by the test modules.

Everything here deliberately avoids the production code paths it checks:
the characteristic polynomial is built in exact integer arithmetic, root
enclosures are certified by exact sign tests, the subgraph/multipartite
enumerators are plain itertools sweeps with pairwise adjacency probes, the
bit-matrix layer (G(n, p), graph6 decoding) is checked against scalar
pair-by-pair loops, clique counting against pure bitset extension along a
degeneracy order (not a degree order) without numpy base cases, the
multipartite search against a version that rebuilds every part's cross mask
per step and against the least family an itertools walk meets (for every
graph at n <= 6 at once: the table oracle ``least_family_table``), and the
spectral extremal scan against its decision tree driven by subgraph
embedding (the backtracking embedder ``contains_subgraph``) instead of
precomputed F-copies.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations

import numpy as np

from spectral_turan import (
    Graph,
    SpectralEstimate,
    SpexResult,
    gnp,
    spectral_radius,
)
from spectral_turan.graphs import (
    _G6_HEADER,
    MAX_VERTICES,
    Graph6Error,
    _g6_decode_size,
    iter_bits,
    pair_uniform,
    part_sizes,
)
from spectral_turan.multipartite import (
    DEFAULT_BUDGET,
    MultipartiteWitness,
    SearchBudgetExceeded,
)
from spectral_turan.theorems import SPEX_MAX_N


def all_graphs(n):
    """Every labeled graph on n vertices, one per edge-subset mask."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def k100_minus_50_edges(seed: int = 2024) -> Graph:
    """K_100 with 50 edges removed, chosen by seeded pair hashing."""
    edges = list(itertools.combinations(range(100), 2))
    ranked = sorted(range(len(edges)), key=lambda i: pair_uniform(seed, i))
    removed = set(ranked[:50])
    return Graph.from_edges(100, [e for i, e in enumerate(edges) if i not in removed])


# ---------------------------------------------------------------------------
# exact characteristic polynomial and largest-root certificates
# ---------------------------------------------------------------------------

def charpoly(g: Graph) -> list[int]:
    """Exact integer coefficients of det(xI - A), index k = coefficient of x^k.

    Faddeev-LeVerrier recurrence; all divisions are exact for integer
    matrices, asserted rather than assumed.
    """
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0
        c = -tr // k
        coeffs[n - k] = c
        if k < n:
            m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def poly_derivatives(coeffs: list[int]) -> list[list[int]]:
    """The polynomial and all its derivatives down to degree 1."""
    out = [coeffs]
    cur = coeffs
    while len(cur) > 2:
        cur = [cur[k] * k for k in range(1, len(cur))]
        out.append(cur)
    return out


def exceeds_all_roots(polys: list[list[int]], x: Fraction) -> bool:
    """Exact test: x strictly exceeds every real root of the monic polynomial.

    A real-rooted p satisfies p(x) > 0, p'(x) > 0, ..., all simultaneously,
    iff x is beyond the largest root (positive Taylor expansion rightwards).
    Symmetric adjacency matrices are real-rooted, so this characterizes the
    spectral radius side exactly.
    """
    for p in polys:
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        if acc <= 0:
            return False
    return True


def certify_largest_root(g: Graph, value: float, width: float) -> bool:
    """Certify |largest adjacency eigenvalue - value| < width, exactly."""
    polys = poly_derivatives(charpoly(g))
    hi = Fraction(value) + Fraction(width)
    lo = Fraction(value) - Fraction(width)
    return exceeds_all_roots(polys, hi) and not exceeds_all_roots(polys, lo)



def quotient_mu_multipartite(sizes: Iterable[int]) -> float:
    """Exact Perron root of a complete multipartite graph via its quotient.

    The parts form an equitable partition with r x r quotient matrix
    B[i][j] = s_j for i != j, zero diagonal, whose Perron root equals mu of
    the full graph.  The matrix determinant lemma factors the
    characteristic polynomial as

        det(xI - B) = prod_i (x + s_i) * (1 - sum_i s_i / (x + s_i)),

    and on x > 0 the second factor is strictly increasing with a single
    sign change at the Perron root, so bisection over [0, sum(sizes)] is
    sound.  Absolute error <= 1e-12 * sum(sizes).
    """
    szs = part_sizes(sizes)
    if len(szs) < 2:
        raise ValueError("quotient needs r >= 2 parts (single part => mu = 0)")
    total = sum(szs)

    def above(x: float) -> bool:
        # sign of det(xI - B) for x > 0: positive iff x exceeds the Perron root
        return sum(s / (x + s) for s in szs) < 1.0

    lo, hi = 0.0, float(total)
    target = 1e-12 * total
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution reached
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)

# ---------------------------------------------------------------------------
# brute-force enumerators
# ---------------------------------------------------------------------------

def brute_multipartite_exists(g: Graph, sizes: tuple[int, ...]) -> bool:
    """Enumerate ordered set families and probe every cross pair."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)

    def rec(parts: list[tuple[int, ...]], idx: int) -> bool:
        if idx == len(sizes):
            return True
        s = sizes[idx]
        used = {v for p in parts for v in p}
        # equal-size parts ascend by first element: same witness either way
        prev_min = parts[-1][0] if idx > 0 and sizes[idx - 1] == s else -1
        for combo in combinations(range(g.n), s):
            if combo[0] <= prev_min:
                continue
            if any(v in used for v in combo):
                continue
            if all(v in adj[u] for p in parts for u in p for v in combo):
                if rec(parts + [combo], idx + 1):
                    return True
        return False

    return rec([], 0)


def ordered_families(n: int, sizes, rows=None):
    """Families of disjoint ascending parts on range(n), part sizes in
    nonincreasing order, in lexicographic order, by itertools.combinations.

    With adjacency ``rows`` only complete multipartite families are yielded:
    a part is skipped unless each of its vertices is adjacent to every
    vertex of the parts before it, which no extension can repair."""
    szs = sorted(sizes, reverse=True)
    if rows is None:
        rows = [(1 << n) - 1] * n

    def walk(prefix, free, joined):
        if len(prefix) == len(szs):
            yield prefix
            return
        for part in combinations(free, szs[len(prefix)]):
            if all(joined >> v & 1 for v in part):
                common = joined
                for v in part:
                    common &= rows[v]
                rest = [v for v in free if v not in part]
                yield from walk(prefix + (part,), rest, common)

    return walk((), list(range(n)), (1 << n) - 1)


def least_family_table(n: int, sizes) -> list[MultipartiteWitness | None]:
    """``brute_least_witness`` of every graph of ``all_graphs(n)`` (edge mask
    i is the i-th): each family, in reverse, labels the masks that hold its
    cross pairs, so the least family that fits has the last word."""
    index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    masks = np.arange(1 << len(index))
    families = list(ordered_families(n, sizes))
    least = np.full(len(masks), -1)
    for i in reversed(range(len(families))):
        cross = 0
        for pa, pb in combinations(families[i], 2):
            for u, v in itertools.product(pa, pb):
                cross |= 1 << index[min(u, v), max(u, v)]
        least[masks & cross == cross] = i
    witnesses = [MultipartiteWitness(f) for f in families] + [None]
    return [witnesses[i] for i in least]


def brute_least_witness(g: Graph, sizes) -> MultipartiteWitness | None:
    """The lexicographically least witness in search order: the first family
    ``ordered_families`` meets.  Swapping two equal-size parts keeps a
    witness, so the least one already has them ascending by first element,
    as the search's symmetry cut asks."""
    first = next(ordered_families(g.n, sizes, [g.row(v) for v in range(g.n)]), None)
    return None if first is None else MultipartiteWitness(first)


def oracle_count_cliques(g: Graph, r: int) -> int:
    """Brute force over all C(n, r) vertex subsets; test oracle, n <= 16."""
    if g.n > 16:
        raise ValueError("oracle limited to n <= 16")
    if r < 1:
        raise ValueError("r must be >= 1")
    count = 0
    for subset in combinations(range(g.n), r):
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            count += 1
    return count


def oracle_count_cliques_bitset(g: Graph, r: int) -> int:
    """Exact r-clique count by ordered bitset extension alone, at any n:
    partial cliques grow in increasing position of a degeneracy order, the
    candidate set being the bit-intersection of forward neighbourhoods, so
    each clique is generated exactly once.  No numpy base case."""
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
    for v in reversed(oracle_degeneracy_order(g)):
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

    return extend((1 << n) - 1, r)


def oracle_chromatic_number(g: Graph) -> int:
    """Least k for which one of the k^n vertex colourings is proper."""
    edges = list(g.edges())
    for k in itertools.count():
        for colors in itertools.product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in edges):
                return k


def brute_contains_injection(g: Graph, f: Graph) -> bool:
    """Subgraph containment by brute force over all injections."""
    if f.n > g.n:
        return False
    f_edges = list(f.edges())
    for images in itertools.permutations(range(g.n), f.n):
        if all(g.has_edge(images[u], images[v]) for u, v in f_edges):
            return True
    return False


def contains_subgraph(g: Graph, f: Graph) -> bool:
    """True iff g has a (not necessarily induced) subgraph isomorphic to f.

    Backtracking embedding: pattern vertices in descending degree order,
    candidates filtered by degree and by adjacency to already-placed
    neighbors, tried in ascending host label order.
    """
    if f.n > 10:
        raise ValueError("pattern limited to n <= 10")
    if f.n > g.n:
        return False
    order = sorted(range(f.n), key=lambda v: (-f.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    placed_nbrs: list[list[int]] = []
    for i, v in enumerate(order):
        placed_nbrs.append([u for u in iter_bits(f.row(v)) if pos[u] < i])
    f_degs = [f.degree(v) for v in order]
    g_rows = [g.row(v) for v in range(g.n)]
    g_degs = [g.degree(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    images = [0] * f.n  # images[i] = host vertex for order[i]

    def embed(i: int, used: int) -> bool:
        if i == f.n:
            return True
        cand = full & ~used
        for u in placed_nbrs[i]:
            cand &= g_rows[images[pos[u]]]
        need = f_degs[i]
        m = cand
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            if g_degs[w] < need:
                continue
            images[i] = w
            if embed(i + 1, used | b):
                return True
        return False

    return embed(0, 0)


def brute_spex(n: int, f: Graph) -> float:
    """Unpruned scan: max eigenvalue over all F-free labeled graphs on n vertices.

    Eigenvalues come from numpy's dense symmetric solver, containment from
    the injection enumerator: independent of the pruned production scan.
    """
    best = -1.0
    for g in all_graphs(n):
        if brute_contains_injection(g, f):
            continue
        a = np.array(
            [[1.0 if g.has_edge(i, j) else 0.0 for j in range(n)] for i in range(n)]
        )
        mu = float(np.linalg.eigvalsh(a)[-1]) if n else 0.0
        best = max(best, mu)
    return best


def oracle_spex_scan(n: int, f: Graph) -> SpexResult:
    """The labeled decision tree of ``spex_scan`` with every question put to
    ``contains_subgraph``: each pair is tried as an edge by re-embedding F in
    the grown graph, and each excluded pair is rechecked at the leaf.  The
    tree, the leaf order, the eigenvalue calls and the rule that a leaf
    replaces the best only when its interval lies wholly above the best's
    are those of the scan, and so is the widening of the best's interval to
    the largest upper end over the leaves, so the results must be identical,
    not merely close.  Every solve here runs without a ceiling."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > SPEX_MAX_N:
        raise ValueError(f"n = {n} exceeds exhaustive scan bound {SPEX_MAX_N}")
    if contains_subgraph(Graph.empty(n), f):
        raise ValueError("pattern is contained in every graph of this order")
    pairs = list(combinations(range(n), 2))
    rows = [0] * n
    best: tuple[SpectralEstimate, Graph] | None = None
    top = -math.inf
    maximal = 0

    def current() -> Graph:
        return Graph(n, list(rows), validate=False)

    def leaf(excluded: list[tuple[int, int]]) -> None:
        nonlocal best, top, maximal
        g = current()
        for u, v in excluded:
            if not contains_subgraph(g.add_edge(u, v), f):
                return  # an edge is still addable: dominated by a supergraph
        maximal += 1
        est = spectral_radius(g)
        top = max(top, est.upper)
        if best is None or est.lower > best[0].upper:  # provably larger mu
            best = (est, g)

    def decide(i: int, excluded: list[tuple[int, int]]) -> None:
        if i == len(pairs):
            leaf(excluded)
            return
        u, v = pairs[i]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        creates = contains_subgraph(current(), f)
        if not creates:
            decide(i + 1, excluded)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        if creates:
            # justified exclusion: adding this edge creates F in the current
            # graph, hence in every supergraph; no recheck needed at leaves
            decide(i + 1, excluded)
        else:
            excluded.append((u, v))
            decide(i + 1, excluded)
            excluded.pop()

    decide(0, [])
    est, witness = best
    if top > est.upper:
        est = SpectralEstimate(est.lower, top, est.iterations, est.converged)
    return SpexResult(est, witness, maximal)


def partitions_upto(nmax: int) -> list[tuple[int, ...]]:
    """All nonincreasing tuples of positive integers with sum <= nmax."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, maxpart: int) -> None:
        for s in range(min(remaining, maxpart), 0, -1):
            t = prefix + (s,)
            out.append(t)
            rec(t, remaining - s, s)

    rec((), nmax, nmax)
    return sorted(set(out))


def seeded_graph_sample(count: int, n_lo: int, n_hi: int, base_seed: int = 5000):
    """Deterministic mixed-density corpus for equivalence tests."""
    ps = (0.2, 0.5, 0.8)
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        yield gnp(n, ps[i % 3], base_seed + i)


# ---------------------------------------------------------------------------
# scalar references for the vectorised bit-matrix layer
# ---------------------------------------------------------------------------

def oracle_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) by its definition: pair i, in lexicographic (u, v) order with
    u < v, is an edge iff ``pair_uniform(seed, i) < p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rows = [0] * n
    index = 0
    for u in range(n):
        for v in range(u + 1, n):
            if pair_uniform(seed, index) < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            index += 1
    return Graph(n, rows, validate=False)


def graph6_large(g):
    """graph6 text with the 4-byte size field (63 <= n < 2^18)."""
    bits = [g.has_edge(i, j) for j in range(g.n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    size = "~" + "".join(chr(63 + (g.n >> k & 63)) for k in (12, 6, 0))
    body = "".join(
        chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])))
        for i in range(0, len(bits), 6)
    )
    return size + body


def oracle_parse_graph6(text: str) -> Graph:
    """Byte-by-byte graph6 decoder with the same errors and offsets as
    ``parse_graph6``; each set bit walks the triangle to find its pair."""
    s = text.strip()
    base = 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
        base = len(_G6_HEADER)
    data = bytes(min(ord(c), 255) for c in s)
    try:
        n, pos = _g6_decode_size(data, 0)
    except Graph6Error as exc:
        # size-field offsets count the header, as every other offset does
        raise Graph6Error(exc.args[0], base + exc.offset) from None
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds {MAX_VERTICES}", base)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"body length {len(data) - pos} != expected {nbytes}", base + pos
        )
    rows = [0] * n
    bit = 0
    for i in range(pos, pos + nbytes):
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside [63, 126]", base + i)
        group = b - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if group >> k & 1:
                    raise Graph6Error("nonzero padding bits", base + i)
                continue
            if group >> k & 1:
                u, v = _g6_pair(bit)
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    return Graph(n, rows, validate=False)


def _g6_pair(bit: int) -> tuple[int, int]:
    # column-major upper triangle: x(0,1), x(0,2), x(1,2), x(0,3), ...
    v = 1
    while v * (v - 1) // 2 + v <= bit:
        v += 1
    return bit - v * (v - 1) // 2, v


def oracle_degeneracy_order(g: Graph) -> list[int]:
    """Degeneracy order by rescanning every remaining vertex at each step;
    ties break on the smallest label."""
    n = g.n
    alive = (1 << n) - 1
    degs = [g.degree(v) for v in range(n)]
    order = []
    for _ in range(n):
        best = -1
        best_deg = n + 1
        m = alive
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if degs[v] < best_deg:
                best_deg = degs[v]
                best = v
        order.append(best)
        alive ^= 1 << best
        m = g.row(best) & alive
        while m:
            b = m & -m
            m ^= b
            degs[b.bit_length() - 1] -= 1
    return order


# ---------------------------------------------------------------------------
# reference for the multipartite search's incremental masks
# ---------------------------------------------------------------------------

def oracle_find_complete_multipartite(g: Graph, sizes, budget: int = DEFAULT_BUDGET):
    """``find_complete_multipartite`` with one cross mask per part, rebuilt
    for every part at every expansion, a used-vertex mask, a feasibility
    scan over all later parts at every slot, and recursion.  Placing a
    part's first vertex v narrows an equal-size next part's mask to the
    vertices above v; a part that still needs vertices after v recurses on
    the candidates above v that fit every later part.  It visits vertices in
    the production order and counts expansions at the same point (one per
    candidate tried, none for the filter), so witnesses and budget
    exhaustion must match exactly."""
    szs = part_sizes(sizes)
    if sum(szs) > g.n:
        raise ValueError("total part size exceeds host order")
    r = len(szs)
    n = g.n
    full = (1 << n) - 1
    rows = [g.row(v) for v in range(n)]
    parts: list[list[int]] = [[] for _ in range(r)]
    expansions = 0

    def fits(u: int, cross: list[int], used: int, pi: int) -> bool:
        return all(
            (cross[j] & ~used & rows[u]).bit_count() >= szs[j] for j in range(pi + 1, r)
        )

    def search(pi: int, slot: int, cand: int, cross: list[int], used: int) -> bool:
        nonlocal expansions
        if slot == szs[pi]:
            ni = pi + 1
            if ni == r:
                return True
            return search(ni, 0, cross[ni] & ~used, cross, used)
        need = szs[pi] - slot
        m = cand
        while m:
            if m.bit_count() < need:
                return False
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            expansions += 1
            if expansions > budget:
                raise SearchBudgetExceeded(budget)
            row_v = rows[v]
            ncross = [c if j == pi else c & row_v for j, c in enumerate(cross)]
            if slot == 0 and pi + 1 < r and szs[pi + 1] == szs[pi]:
                ncross[pi + 1] &= -(1 << (v + 1))
            nused = used | b
            if any(
                (ncross[j] & ~nused).bit_count() < szs[j] for j in range(pi + 1, r)
            ):
                continue
            nm = m
            if slot + 1 < szs[pi]:
                nm = 0
                for u in range(v + 1, n):
                    if m >> u & 1 and fits(u, ncross, nused, pi):
                        nm |= 1 << u
            parts[pi].append(v)
            if search(pi, slot + 1, nm, ncross, nused):
                return True
            parts[pi].pop()
        return False

    if search(0, 0, full, [full] * r, 0):
        return MultipartiteWitness(tuple(tuple(p) for p in parts))
    return None
