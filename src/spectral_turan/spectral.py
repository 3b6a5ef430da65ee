"""One certified Perron routine, ``_perron``, which ``spectral_radius`` runs
once per connected component of an adjacency matrix.  Every answer is a
``SpectralEstimate`` holding the two float ends of a proved bracket; its
``value`` and ``residual`` are derived from them for reports only.

A run may be given a ``ceiling``: it then stops, unconverged, as soon as its
certified upper end falls below it, since it can no longer raise a maximum
that is known to reach the ceiling.  ``spectral_radius`` passes the largest
lower end of the components solved so far, and ``theorems.spex_scan`` the
best leaf's upper end, so a component or leaf that cannot win costs a few
iterations, not a full 1e-10 bracket.  ``theorems`` passes the exact value
of mu at which a verdict turns, as a ``Fraction`` that is rounded down here.

Before any matrix is built, ``spectral_radius`` tries an exact stop,
``_exact_stop``: the Collatz–Wielandt bounds of the integer walk counts
w = (A + I)^(k-1) 1, in Python ints, with no numpy call.  It answers only
when every ratio (Aw)_v/w_v is below the ceiling by more than a settled
bracket's width, _SETTLED_WIDTH n, so wherever it answers the float runs
would also have ended below the ceiling; otherwise they run as before.  At
k = 1 the ratios are the degrees, and this degree certificate,
[min degree, max degree], is tried at every n; k = 2, ..., _EXACT_STEPS
only on at most _EXACT_MAX_N vertices under a finite, positive ceiling.

Each component with an edge, or the whole graph when it is connected or
edgeless, is one block whose matvec, ``_block_matvec``, is a dense float64
matrix when the block has m <= _DENSE_LIMIT vertices and is at least 1/16
full, and otherwise its nonzero entries summed by ``np.bincount``.  It
unpacks only the block's rows (``Graph.to_bits(rows)``), so memory is
O(edges) at any n.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .graphs import ROW_BLOCK, Graph, iter_bits

_MAX_ITER = 10**6

# a bracket has settled once its width is at most this per vertex
_SETTLED_WIDTH = 2e-10
# a dense block above this order would not fit desk memory budgets
_DENSE_LIMIT = 2048
# integer walks beat numpy's per-call dispatch only on tiny graphs (spex's n <= 8);
# 2,006 of the 2,071 spex leaves at n = 6 that stop below their ceiling
# do so within 3 iterations
_EXACT_MAX_N = 8
_EXACT_STEPS = 3
_NEIGHBORS = tuple(tuple(iter_bits(row)) for row in range(1 << _EXACT_MAX_N))


@dataclass(frozen=True)
class SpectralEstimate:
    """Certified enclosure [lower, upper] of the Perron root.

    The float ends ``lower`` and ``upper`` are the proved ends themselves,
    rounding included, whether or not the iteration converged, and every
    verdict reads them; reports print the interval as ``value`` ±
    ``residual``, derived from them.  ``iterations`` counts matrix-vector
    products, float or, on the exact stop, integer.
    ``converged`` means every component's run either settled to a
    half-width of 1e-10 per vertex or stopped below the upper end of one
    that did, so the enclosure is no wider than a settled bracket.  It is
    False only if a run hit the iteration cap or the whole graph stayed
    below the ceiling passed to ``spectral_radius``; the degree
    certificate's [min degree, max degree] is one such answer.
    """

    lower: float
    upper: float
    iterations: int
    converged: bool

    @property
    def value(self) -> float:
        """The midpoint of [lower, upper]."""
        return 0.5 * (self.lower + self.upper)

    @property
    def residual(self) -> float:
        """The half-width about ``value``, rounded up until value ∓ residual
        encloses [lower, upper]."""
        value = self.value
        residual = max(value - self.lower, self.upper - value)
        while value - residual > self.lower or value + residual < self.upper:
            residual = math.nextafter(residual, math.inf)
        return residual


def _perron(scaled, m: int, ceiling: float = -math.inf) -> SpectralEstimate:
    """A certified bracket [lower, upper] on the Perron root of the
    adjacency matrix A of an m-vertex block, whose scaled
    diag(2^-e) A diag(2^e) has the matvec ``scaled(e)`` (A itself at None).

    Power iteration on A + I from the all-ones vector keeps the iterate x
    positive, and for any positive x, min (Ax)_i/x_i <= rho <= max (Ax)_i/x_i
    (Collatz–Wielandt; Horn & Johnson, Matrix Analysis, 8.1.26).  Both ends
    are widened by gamma_{m+5} = (m+5)u / (1 - (m+5)u): m - 1 roundings in
    the sum of each (Ax)_i, one in the ratio, three in forming and applying
    the widening (Higham, Accuracy and Stability, 3.1); the entries of A and
    their power-of-two scalings are exact, and the two spare roundings stay
    because the widening enters every reported bit.  A Perron vector can
    span more than the float range, so once an entry of x falls below
    2^-700 the exponents of x move into e, an exact similarity.  Stops at
    half-width <= 1e-10 m, or after _MAX_ITER iterations with the wider
    bracket and converged=False, or with converged=False as soon as an
    unsettled bracket's upper end is below ``ceiling``; every bracket
    returned is certified.
    """
    ku = (m + 5) * math.ulp(1.0) / 2  # (m + 5) u, u = 2^-53
    slack = ku / (1.0 - ku)
    # loop invariants bound once: the loop is most of a tiny graph's cost
    down, up, width = 1.0 - slack, 1.0 + slack, _SETTLED_WIDTH * m
    least, most = np.minimum.reduce, np.maximum.reduce
    e, matvec = 0, scaled(None)
    x = np.ones(m)
    floor = 1.0  # a lower bound on min(x); max(x) <= 1
    for iterations in range(1, _MAX_ITER + 1):
        y = matvec(x)
        ratios = y / x
        lo, hi = float(least(ratios)), float(most(ratios))
        lower, upper = lo * down, hi * up
        if upper - lower <= width:
            return SpectralEstimate(lower, upper, iterations, True)
        if upper < ceiling:
            return SpectralEstimate(lower, upper, iterations, False)
        y += x  # shift by +1; entry i scales by (r_i + 1) / (hi + 1)
        y /= hi + 1.0
        x = y
        floor *= (lo + 1.0) / (hi + 1.0)
        if floor < 2.0**-700 and (floor := float(x.min())) < 2.0**-700:
            x, shift = np.frexp(x)  # x = mantissas in [0.5, 1) times 2^shift
            e = e + shift
            matvec, floor = scaled(e), 0.5
    return SpectralEstimate(lower, upper, _MAX_ITER, False)


def _outward(p: int, q: int, toward: float) -> float:
    """p/q for ints p and q > 0, rounded to the float next to it on the
    side of ``toward``; past the float range, the largest float or an
    infinity on that side."""
    try:
        x = p / q  # int true division rounds correctly
    except OverflowError:
        x = math.inf if p > 0 else -math.inf
        return x if (x > 0) == (toward > 0) else math.nextafter(x, 0.0)
    xp, xq = x.as_integer_ratio()
    off = xp * q - p * xq  # the sign of x - p/q
    return math.nextafter(x, toward) if off and (off > 0) == (toward < x) else x


def _exact_stop(g: Graph, ceiling: float) -> SpectralEstimate | None:
    """An unconverged estimate [min (Aw)_v/w_v, max (Aw)_v/w_v], rounded
    outward, at the first k <= _EXACT_STEPS whose w = (A + I)^(k-1) 1 has
    every ratio below ceiling - _SETTLED_WIDTH n, with ``iterations = k``;
    None if no k has.

    At k = 1, w = 1 and the ratios are the degrees: this degree certificate
    is tried at every n.  The walks for k >= 2 run only on at most
    _EXACT_MAX_N vertices under a finite, positive ceiling.  w is positive
    and integral, so the Collatz–Wielandt bounds are exact rationals,
    decided by cross-multiplying with the margin's ``as_integer_ratio()``.
    The margin is the widest settled bracket: a float run that settles
    within it could reach the ceiling, so the exact stop leaves it to that
    run.  It must stay until the exact cells of ROADMAP item 2 land:
    ``spex_scan`` must equal ``oracle_spex_scan``, which solves every leaf
    without a ceiling, and a leaf that ties the best within a settled
    bracket widens the reported upper end.  Without the margin a tied leaf
    stops here and no longer widens it: at n = 4 and F = K_{1,3} the
    witness K3 + K1 would report upper 2.0000000000000018 against the
    oracle's 2.000000000000002 (C4 ties it).
    """
    below = ceiling - _SETTLED_WIDTH * g.n
    aw = [g.degree(v) for v in range(g.n)]
    if max(aw) < below:
        return SpectralEstimate(float(min(aw)), float(max(aw)), 1, False)
    if g.n > _EXACT_MAX_N or not 0 < ceiling < math.inf:
        return None
    a, b = below.as_integer_ratio()
    rows = [_NEIGHBORS[g.row(v)] for v in range(g.n)]
    w = [1] * g.n
    for k in range(2, _EXACT_STEPS + 1):
        w = [p + q for p, q in zip(aw, w)]
        aw = [sum(map(w.__getitem__, row)) for row in rows]
        for p, q in zip(aw, w):
            if p * b >= a * q:
                break
        else:  # every ratio is below the margin
            lo = hi = (aw[0], w[0])
            for p, q in zip(aw, w):
                if p * lo[1] < lo[0] * q:
                    lo = (p, q)
                if p * hi[1] > hi[0] * q:
                    hi = (p, q)
            return SpectralEstimate(_outward(*lo, -math.inf), _outward(*hi, math.inf), k, False)
    return None


def _block_matvec(g: Graph, c: Sequence[int], e: np.ndarray | None = None):
    """x -> B @ x for B = A, or for diag(2^-e) A diag(2^e) when e is given,
    where A is g's adjacency matrix on the ascending vertex list c, which no
    edge leaves; the rows of c are unpacked ROW_BLOCK entries at a time."""
    m = len(c)
    step = max(1, ROW_BLOCK // g.n)
    # below 1/16 full, np.bincount beats the dense product (measured at m >= 700)
    if m <= _DENSE_LIMIT and 16 * sum(map(g.degree, c)) >= m * m:
        a = np.empty((m, m))  # C order: BLAS picks its kernel, so its rounding, by layout
        for lo in range(0, m, step):
            bits = g.to_bits(c[lo:lo + step])
            a[lo:lo + step] = bits if m == g.n else bits[:, c]
        return (a if e is None else np.ldexp(a, e[None, :] - e[:, None])).dot
    local = np.empty(g.n, dtype=np.intp)  # vertex -> its position in c
    local[c] = np.arange(m)
    rows, cols = [], []  # row-major, as bincount's summation order fixes the bits
    for lo in range(0, m, step):
        r, k = np.nonzero(g.to_bits(c[lo:lo + step]))
        rows.append(r + lo)
        cols.append(local[k])
    ra, ca = np.concatenate(rows), np.concatenate(cols)
    w = 1.0 if e is None else np.ldexp(1.0, e[ca] - e[ra])
    return lambda x: np.bincount(ra, weights=w * x[ca], minlength=m)


def _components(g: Graph) -> list[list[int]]:
    """Vertex lists of the components with an edge, by bitset BFS; [] if g is
    connected or edgeless."""
    unseen = full = (1 << g.n) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier and comp != full:
            grown = 0
            for v in iter_bits(frontier):
                grown |= g.row(v)
            frontier = grown & ~comp
            comp |= frontier
        unseen &= ~comp
        if comp != full and comp & (comp - 1):  # more than one vertex
            comps.append(list(iter_bits(comp)))
    return comps


def spectral_radius(g: Graph, ceiling: float | Fraction = -math.inf) -> SpectralEstimate:
    """Certified enclosure of mu(G): [max lower end, max upper end] over the
    components with an edge, or over the whole graph as one block if it is
    connected or edgeless.

    The components run once each, densest first: a component's average
    degree 2e/m is a lower bound on its mu, so the likely maximum comes
    first.  Each runs under the larger of ``ceiling`` and the largest lower
    end so far, and a run stopped under the latter can move neither end of
    the enclosure.  The enclosure is converged when every run either
    settled or stopped below the upper end of one that did; so it is
    unconverged only if a run hit the iteration cap or if mu(G) < ceiling.

    ``_exact_stop`` comes first: the degree certificate at every n, and on
    at most _EXACT_MAX_N vertices under a finite, positive ceiling the
    integer walks.  Its answer is unconverged, with upper end below the
    ceiling, and its ``iterations`` counts the exact products Aw, as a float
    run counts matrix-vector products; it answers only where the float run
    would also have stopped below the ceiling.  A ``Fraction`` ceiling is
    first rounded down to a float, so a stop below that float is a stop
    below the exact value.
    """
    if g.n < 1:
        raise ValueError("spectral_radius requires n >= 1")
    if isinstance(ceiling, Fraction):
        ceiling = _outward(ceiling.numerator, ceiling.denominator, -math.inf)
    est = _exact_stop(g, ceiling)
    if est is not None:
        return est
    blocks = sorted(_components(g), key=lambda c: -sum(map(g.degree, c)) / len(c)) or [range(g.n)]
    runs, lower = [], -math.inf
    for c in blocks:
        runs.append(_perron(partial(_block_matvec, g, c), len(c), max(ceiling, lower)))
        lower = max(lower, runs[-1].lower)
    settled = max((run.upper for run in runs if run.converged), default=-math.inf)
    return SpectralEstimate(
        lower, max(run.upper for run in runs), sum(run.iterations for run in runs),
        all(run.converged or run.upper < settled for run in runs))
