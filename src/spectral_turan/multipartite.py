"""Search for complete r-partite subgraphs inside a host graph.

A witness is a family of pairwise-disjoint vertex classes with every
cross-class pair adjacent.  Classes need not be independent inside the
host: the target is a subgraph, not an induced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, part_sizes

DEFAULT_BUDGET = 10**8


class SearchBudgetExceeded(Exception):
    """Exhaustive search ran out of node expansions (one per candidate vertex
    tried); result is indeterminate."""

    def __init__(self, budget: int):
        # the constructor's argument as args, so the error survives pickling
        super().__init__(budget)
        self.budget = budget

    def __str__(self) -> str:
        return (f"search budget of {self.budget} node expansions"
                " (candidate vertices tried) exhausted")


@dataclass(frozen=True)
class MultipartiteWitness:
    """Vertex classes, in search order, demonstrating a complete r-partite subgraph."""

    parts: tuple[tuple[int, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def to_lists(self) -> list[list[int]]:
        """Serialization used in reports: list of lists, part order as searched."""
        return [list(p) for p in self.parts]


def verify_witness(g: Graph, witness: MultipartiteWitness) -> bool:
    """True iff the parts are disjoint and every cross pair is an edge.

    Raises ValueError for a vertex outside range(g.n)."""
    seen = 0
    for p in witness.parts:
        for v in p:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if seen >> v & 1:
                return False
            seen |= 1 << v
    for pa, pb in combinations(witness.parts, 2):
        for u in pa:
            row = g.row(u)
            for v in pb:
                if not row >> v & 1:
                    return False
    return True


def checked_witness(g: Graph, witness: MultipartiteWitness | None) -> MultipartiteWitness | None:
    """``witness`` (or None) once it passes the edge-by-edge check of
    ``verify_witness``; every witness in a report comes through here.
    Raises RuntimeError for one that fails."""
    if witness is not None and not verify_witness(g, witness):
        raise RuntimeError(f"search returned an invalid witness {witness.to_lists()}")
    return witness


def find_complete_multipartite(
    g: Graph,
    sizes,
    budget: int = DEFAULT_BUDGET,
) -> MultipartiteWitness | None:
    """Exhaustive backtracking search for a complete multipartite subgraph.

    Parts are built in nonincreasing size order, vertices tried in ascending
    label order, so a returned witness is the lexicographically least one.
    Candidates for a new vertex are the bit-intersection of the neighborhoods
    of everything placed in *other* parts; a vertex is rejected when some
    later part can no longer be filled from its narrowed mask, and a part is
    pruned when its candidates cannot fill the remaining slots.  Consecutive
    equal-size parts ascend by first element, which removes
    permutation-equivalent branches without losing witnesses: placing a
    part's first vertex v at once restricts an equal-size next part to the
    vertices above v, so the prune of the placing frame sees the cut.

    A part-opening frame tests each candidate as it is tried, by one rule:
    every later part's mask, narrowed by the candidate's row and, for an
    equal-size next part, cut to the vertices above it, must still hold
    that part.  Once a part holds a vertex and still needs k more, one pass
    keeps only the candidates after it that fit every later part under the
    narrowed masks, giving up once fewer than k can remain; the frames that
    fill the part pop from this filtered set without testing again.  A
    vertex that fails at a frame fails at every frame below it, whose masks
    are narrower, so the visit order is unchanged.

    One node expansion is one candidate vertex tried, i.e. popped from a
    frame.  The filter pass is not charged; its work per expansion is at
    most n * r popcounts, so the budget still bounds time.  Returns a
    witness, or None after exhausting the space.  Raises
    SearchBudgetExceeded when the budget runs out first: an indeterminate
    outcome, deliberately distinct from None.
    """
    szs = part_sizes(sizes)
    if sum(szs) > g.n:
        raise ValueError("total part size exceeds host order")
    r = len(szs)
    n = g.n
    full = (1 << n) - 1
    rows = [g.row(v) for v in range(n)]
    parts: list[list[int]] = [[] for _ in range(r)]
    expansions = 0

    # later[k] = bit-intersection of the neighborhoods of all placed vertices,
    # for part pi + 1 + k.  Every placed vertex lies in a part before it, so
    # later masks never hold a used vertex.  Parts before pi are complete, and
    # the current part's own candidates are the frame's: placing a vertex only
    # narrows the masks of the parts after it.
    #
    # depth-first on an explicit stack, one frame per placed vertex, so a
    # witness with a thousand parts does not exhaust Python's recursion;
    # a frame is (part, candidates not yet tried, later masks), it fills
    # slot len(parts[part]), and a frame past slot 0 holds only candidates
    # that fit every later part
    stack = [(0, full, [full] * (r - 1))]
    while stack:
        pi, m, later = stack[-1]
        slot = len(parts[pi])
        need = szs[pi] - slot  # >= 1: a frame has a slot to fill
        rest = szs[pi + 1:]
        while m.bit_count() >= need:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            expansions += 1
            if expansions > budget:
                raise SearchBudgetExceeded(budget)
            row_v = rows[v]
            nlater = [c & row_v for c in later]
            if not slot:
                if rest and rest[0] == need:
                    # equal-size parts ascend by first element (pure symmetry
                    # cut): the next part lies above this part's first vertex
                    nlater[0] &= -(b << 1)
                # the one test of a part-opening vertex
                if any(c.bit_count() < s for c, s in zip(nlater, rest)):
                    continue
            keep = m
            if need > 1 and rest:
                # one pass keeps the rest of this part's candidates that fit
                # every later part under the new masks; it gives up once
                # fewer than need - 1 can remain
                keep = 0
                room = m.bit_count()  # candidates kept or not yet tested
                rm = m
                fit = list(zip(nlater, rest))
                while rm and room >= need - 1:
                    u = rm & -rm
                    rm ^= u
                    row_u = rows[u.bit_length() - 1]
                    for c, s in fit:
                        if (c & row_u).bit_count() < s:
                            room -= 1
                            break
                    else:
                        keep |= u
                if room < need - 1:
                    continue
            break
        else:
            stack.pop()  # frame exhausted: undo the vertex its parent placed
            if stack:
                parts[stack[-1][0]].pop()
            continue
        stack[-1] = (pi, m, later)
        parts[pi].append(v)
        if need > 1:
            stack.append((pi, keep, nlater))
        elif rest:
            stack.append((pi + 1, nlater[0], nlater[1:]))
        else:
            return MultipartiteWitness(tuple(tuple(p) for p in parts))
    return None


@dataclass(frozen=True)
class BicliqueResult:
    """Largest balanced biclique side found; exact=False means budget ran out."""

    side: int
    exact: bool
    witness: MultipartiteWitness | None


def max_balanced_biclique(g: Graph, budget: int = DEFAULT_BUDGET) -> BicliqueResult:
    """Largest s with a K_2(s, s) subgraph, by increasing exhaustive probes.

    Existence of K_2(s, s) is monotone decreasing in s, so the scan stops at
    the first absent size.  A budget exhaustion yields a lower bound flagged
    inexact rather than a claim of absence.
    """
    if g.n < 2:
        raise ValueError("max_balanced_biclique requires n >= 2")
    witness: MultipartiteWitness | None = None
    s = 1
    while 2 * s <= g.n:
        try:
            found = find_complete_multipartite(g, (s, s), budget=budget)
        except SearchBudgetExceeded:
            return BicliqueResult(s - 1, False, witness)
        if found is None:
            break
        witness = found
        s += 1
    return BicliqueResult(s - 1, True, witness)
