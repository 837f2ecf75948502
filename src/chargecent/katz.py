"""Katz-style centrality from damped feasible-walk counts.

The charge-aware variant sums alpha^k over all feasible walks leaving each
node at full charge (length-0 walk included). That sum is the row sums of
(I - alpha B)^-1, with B the 0/1 state-graph adjacency, so the scores are the
full-charge block of the solution x of (I - alpha B) x = 1. The standard
variant runs the same kernel, ``_katz``, on the adjacency of the base graph.

The kernel checks alpha against 1/upper, where ``graph.radius_bracket``
certifies lower <= rho(B) <= upper; the default alpha is 0.9/upper. It takes one
BiCGSTAB solve of v -> v - alpha B v and checks the true residual
r = 1 - (I - alpha B) x: a solve that stops early or breaks down, ends with
max|r| > tol, or leaves a score <= 0 raises NumericalError. A positive x with
(I - alpha B) x = 1 - r > 0 certifies that alpha < 1/rho(B), so
(I - alpha B)^-1 is nonnegative and its infinity norm is max|x*|; hence
max|x - x*| <= max|x| max|r| / (1 - max|r|). ``meta`` records ``max_residual``
and that bound as ``error_bound``, with max|r| widened by the rounding of its
own evaluation; it is about tol * max|x*| at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import NumericalError
from .graph import Graph, radius_bracket
from .scores import ScoreVector
from .statespace import SocInstance

SOLVE_MAX_ITER = 10_000  # BiCGSTAB iterations before the solve counts as failed


@dataclass(frozen=True)
class KatzParams:
    alpha: float | None  # None: 0.9 of the bound 1/upper, or 0.03 when the bound is infinite
    tol: float = 1e-10  # bound on max|r| of the solve; the score error is then about tol * max score

    def __post_init__(self):
        if self.alpha is not None and not 0 <= self.alpha < math.inf:  # also false for nan
            raise ValueError(f"Katz alpha must be a finite number >= 0, not {self.alpha}")


@dataclass(frozen=True)
class AlphaBound:
    """Usable damping-factor bound 1/upper from the bracket lower <= rho <= upper; +inf if upper is 0."""

    max_alpha: float
    lower: float
    upper: float


def max_alpha(adj: scipy.sparse.csr_array) -> AlphaBound:
    """Bound on usable alpha for the 0/1 matrix ``adj``: every alpha below it is below 1/rho."""
    lower, upper = radius_bracket(adj)
    return AlphaBound(1.0 / upper if upper > 0.0 else math.inf, lower, upper)


def _katz(adj: scipy.sparse.csr_array, p: KatzParams, meta: dict) -> np.ndarray:
    """Solve (I - alpha adj) x = 1 at the given or default alpha, recording the run in ``meta``."""
    import scipy.sparse.linalg  # here, so that importing the package does not load it

    bound = max_alpha(adj)
    alpha = p.alpha
    if alpha is None:
        alpha = 0.03 if math.isinf(bound.max_alpha) else 0.9 * bound.max_alpha
    if alpha >= bound.max_alpha:
        raise ValueError(f"alpha={alpha} is not below the certified bound 1/rho_upper={bound.max_alpha:.6g}")
    meta.update(alpha=alpha, tol=p.tol, radius_lower=bound.lower, radius_upper=bound.upper)
    n, tol = adj.shape[0], p.tol
    op = scipy.sparse.linalg.LinearOperator((n, n), lambda v: v - alpha * (adj @ v), dtype=float)
    ones, steps = np.ones(n), []
    x, info = scipy.sparse.linalg.bicgstab(op, ones, rtol=0.0, atol=tol, maxiter=SOLVE_MAX_ITER,
                                           callback=steps.append)
    ax = adj @ x
    r = float(np.abs(ones - (x - alpha * ax)).max())
    # x > 0 with (I - alpha adj) x = 1 - r > 0 certifies alpha < 1/rho, on which the bound rests.
    if info != 0 or not r <= tol or not x.min() > 0.0:
        raise NumericalError(
            f"{meta['measure']}: bicgstab stopped with info {info} after {len(steps)} iterations,"
            f" residual {r:.3e} (tol {tol:.3e}), min score {x.min():.3e}"
        )
    # r itself is rounded: a row of d arcs is off by at most (d + 3) eps (1 + x + alpha adj x).
    slack = (np.diff(adj.indptr) + 3) * (ones + x + alpha * ax)
    r_max = r + float(np.finfo(float).eps * slack.max(initial=0.0))
    err = float(x.max()) * r_max / (1.0 - r_max) if r_max < 1.0 else math.inf
    meta.update(solver="bicgstab", iterations=len(steps), max_residual=r, error_bound=err)
    return x


def soc_katz(inst: SocInstance, p: KatzParams) -> ScoreVector:
    """Charge-aware Katz scores, read off the full-charge block of the state-graph solve."""
    g = inst.graph
    meta = {"measure": "soc-katz", **inst.meta}
    x = _katz(inst.state_graph.adjacency, p, meta)
    return ScoreVector.for_graph(g, x[: g.n], meta)


def standard_katz(g: Graph, p: KatzParams) -> ScoreVector:
    """Row sums of the resolvent of the plain adjacency, by the same kernel."""
    meta = {"measure": "katz"}
    return ScoreVector.for_graph(g, _katz(g.adjacency, p, meta), meta)
