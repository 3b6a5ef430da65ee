"""Largest adjacency eigenvalue with a certified residual enclosure.

Two routes: shifted power iteration for arbitrary graphs, and an exact
secular-equation bisection for complete multipartite graphs via their
equitable-partition quotient matrix.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, part_sizes

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6

# dense adjacency above this order would not fit desk memory budgets;
# fall back to edge-array accumulation
_DENSE_LIMIT = 2048
# matrix entries unpacked per block when building the sparse edge arrays
_SPARSE_BLOCK = 1 << 20


@dataclass(frozen=True)
class SpectralEstimate:
    """Estimated largest eigenvalue with a certified residual bound.

    For a symmetric adjacency matrix some eigenvalue lies within
    ``residual`` of ``value`` (residual 2-norm perturbation bound); when
    ``converged`` is true the positive iterate pins that eigenvalue to the
    Perron root, so [value - residual, value + residual] encloses mu(G).
    """

    value: float
    residual: float
    iterations: int
    converged: bool

    @property
    def lower(self) -> float:
        return self.value - self.residual

    @property
    def upper(self) -> float:
        return self.value + self.residual


def _adjacency_matvec(g: Graph):
    """Return a function computing A @ x for the graph's adjacency matrix."""
    n = g.n
    if n <= _DENSE_LIMIT:
        a = g.to_bits().astype(np.float64)
        return lambda x: a @ x
    # (row, column) of every nonzero entry, unpacked a block of rows at a time
    step = max(1, _SPARSE_BLOCK // n)
    rows, cols = [], []
    for lo in range(0, n, step):
        r, c = np.nonzero(g.to_bits(lo, lo + step))
        rows.append(r + lo)
        cols.append(c)
    ra = np.concatenate(rows)
    ca = np.concatenate(cols)
    return lambda x: np.bincount(ra, weights=x[ca], minlength=n)


def spectral_radius(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralEstimate:
    """Power iteration from the all-ones vector with Rayleigh-quotient readout.

    The iteration runs on A + I: the shift breaks the +/-mu modulus tie on
    bipartite graphs without moving eigenvectors, so the entrywise-positive
    iterate converges to the Perron eigenvector of A.  Convergence means
    residual = ||A v - rho v||_2 / ||v||_2 <= tol * max(1, n); hitting
    max_iter first returns converged=False rather than raising.
    """
    if g.n < 1:
        raise ValueError("spectral_radius requires n >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    matvec = _adjacency_matvec(g)
    n = g.n
    threshold = tol * max(1, n)
    v = np.full(n, 1.0 / np.sqrt(n))
    rho = 0.0
    residual = float(n)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        av = matvec(v)
        rho = float(v @ av)
        residual = float(np.linalg.norm(av - rho * v))
        if residual <= threshold:
            return SpectralEstimate(rho, residual, iterations, True)
        w = av + v  # shift by +1
        norm = float(np.linalg.norm(w))  # nonzero: the shift keeps the iterate positive
        v = w / norm
    return SpectralEstimate(rho, residual, iterations, False)


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
