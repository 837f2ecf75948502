"""Katz-style centrality from damped feasible-walk counts.

The charge-aware variant sums alpha^k over all feasible walks leaving each
node at full charge (length-0 walk included). That sum is the row sums of
(I - alpha B)^-1, with B the 0/1 state-graph adjacency, so the scores are the
full-charge block of the solution x of (I - alpha B) x = 1. The standard
variant solves the same system over the adjacency of the base graph.

Both take one BiCGSTAB solve of the implicit operator v -> v - alpha B v and
then check the true residual r = 1 - (I - alpha B) x: a solve that stops
early or breaks down, ends with max|r| > tol, or leaves a score <= 0 raises
NumericalError. A positive x with (I - alpha B) x = 1 - r > 0 certifies that
alpha < 1/rho(B), so (I - alpha B)^-1 is nonnegative and its infinity norm is
max|x*|; hence max|x - x*| <= max|x| max|r| / (1 - max|r|). ``meta`` records
``max_residual`` and that bound as ``error_bound``, with max|r| widened by the
rounding of its own evaluation; it is about tol * max|x*| at most.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .errors import NumericalError
from .graph import Graph, PowerIterationResult, SocInstance, power_iteration_radius
from .scores import ScoreVector
from .statespace import StateGraph, build_state_graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KatzParams:
    alpha: float | None  # None: 0.9 of the measured bound, or 0.03 when the bound is infinite
    tol: float = 1e-10  # bound on max|r| of the solve; the score error is then about tol * max score
    max_iter: int = 10_000  # solver iterations


@dataclass(frozen=True)
class AlphaBound:
    """Usable damping-factor bound 1/lambda_max; +inf for acyclic state graphs."""

    max_alpha: float
    radius: float
    converged: bool
    acyclic: bool


def state_graph_radius(
    inst: SocInstance, tol: float = 1e-10, max_iter: int = 100_000, sg: StateGraph | None = None
) -> PowerIterationResult:
    """Spectral radius of the state-graph adjacency via power iteration."""
    if sg is None:
        sg = build_state_graph(inst, starred=False)
    return power_iteration_radius(sg.adjacency, tol, max_iter)


def max_alpha(inst: SocInstance, tol: float = 1e-10, sg: StateGraph | None = None) -> AlphaBound:
    """Upper bound on usable alpha, estimated over the implicit state adjacency."""
    res = state_graph_radius(inst, tol=tol, sg=sg)
    if res.value <= 0.0:
        return AlphaBound(math.inf, 0.0, res.converged, True)
    return AlphaBound(1.0 / res.value, res.value, res.converged, False)


def _resolve_alpha(alpha: float | None, bound: float) -> float:
    """The given damping factor, else the default: 0.9 * bound, or 0.03 if the bound is infinite."""
    if alpha is not None:
        return alpha
    return 0.03 if not math.isfinite(bound) else 0.9 * bound


def _check_radius(converged: bool, radius: float, meta: dict) -> None:
    """Record whether the radius estimate behind the bound converged; warn when it did not."""
    meta["radius_converged"] = converged
    if not converged:
        logger.warning(
            "%s: power iteration did not converge; the damping bound rests on the estimate %.6g",
            meta["measure"], radius,
        )


def _katz_solve(
    adj: scipy.sparse.csr_array, alpha: float, tol: float, max_iter: int, meta: dict
) -> np.ndarray:
    """Solve (I - alpha adj) x = 1, check its residual and record the solve in ``meta``."""
    n = adj.shape[0]
    op = scipy.sparse.linalg.LinearOperator((n, n), lambda v: v - alpha * (adj @ v), dtype=float)
    ones, steps = np.ones(n), []
    x, info = scipy.sparse.linalg.bicgstab(op, ones, rtol=0.0, atol=tol, maxiter=max_iter,
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
    bound = float(x.max()) * r_max / (1.0 - r_max) if r_max < 1.0 else math.inf
    meta.update(solver="bicgstab", iterations=len(steps), max_residual=r, error_bound=bound)
    return x


def soc_katz(inst: SocInstance, p: KatzParams) -> ScoreVector:
    """Charge-aware Katz scores, read off the full-charge block of the state solve."""
    sg = build_state_graph(inst, starred=False)
    bound = max_alpha(inst, sg=sg)
    alpha = _resolve_alpha(p.alpha, bound.max_alpha)
    if not (0.0 <= alpha < bound.max_alpha):
        raise ValueError(
            f"alpha={alpha} is not below the measured bound 1/lambda_max={bound.max_alpha:.6g}"
        )
    g = inst.graph
    meta = {
        "measure": "soc-katz",
        "alpha": alpha,
        "kappa": inst.kappa,
        "omega": inst.omega.sorted_members(),
        "tol": p.tol,
    }
    _check_radius(bound.converged, bound.radius, meta)
    x = _katz_solve(sg.adjacency, alpha, p.tol, p.max_iter, meta)
    return ScoreVector(x[: g.n], list(g.labels), meta)


def standard_katz(
    g: Graph, alpha: float | None, tol: float = 1e-10, max_iter: int = 10_000
) -> ScoreVector:
    """Row sums of the resolvent of the plain adjacency, by the same solve.

    ``alpha=None`` takes the same default as ``KatzParams``, from the plain bound.
    """
    radius = power_iteration_radius(g.adjacency)
    bound = math.inf if radius.value <= 0 else 1.0 / radius.value
    alpha = _resolve_alpha(alpha, bound)
    if not (0.0 <= alpha < bound):
        raise ValueError(f"alpha={alpha} is not below the measured bound 1/lambda_max={bound:.6g}")
    meta = {"measure": "katz", "alpha": alpha, "tol": tol}
    _check_radius(radius.converged, radius.value, meta)
    return ScoreVector(_katz_solve(g.adjacency, alpha, tol, max_iter, meta), list(g.labels), meta)
