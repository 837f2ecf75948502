"""Katz-style centrality from damped feasible-walk counts.

The charge-aware variant sums alpha^k over all feasible walks leaving each
node at full charge (length-0 walk included), accumulated as a Neumann series
over the state-graph adjacency; the standard variant does the same over all
walks of the base graph.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .graph import Graph, PowerIterationResult, SocInstance, power_iteration_radius
from .scores import ScoreVector
from .statespace import StateGraph, apply_bkappa, build_state_graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KatzParams:
    alpha: float | None  # None: 0.9 of the measured bound, or 0.03 when the bound is infinite
    tol: float = 1e-10
    max_iter: int = 10_000


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
    return power_iteration_radius(sg.n_states, sg.indptr, sg.indices, sg.arc_src, tol, max_iter)


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


def _neumann_series(
    n_states: int,
    matvec,
    read_out,
    alpha: float,
    tol: float,
    max_iter: int,
    meta: dict,
    labels: list[str],
) -> ScoreVector:
    term = np.ones(n_states)
    total = term.copy()
    for it in range(1, max_iter + 1):
        term = alpha * matvec(term)
        total += term
        norm = float(np.abs(term).max())
        if norm < tol:
            meta["iterations"] = it
            return ScoreVector(read_out(total), labels, meta)
    partial = ScoreVector(read_out(total), labels, dict(meta, iterations=max_iter, converged=False))
    raise NumericalError(
        f"series did not converge within {max_iter} iterations (last term {norm:.3e})",
        partial=partial,
    )


def soc_katz(inst: SocInstance, p: KatzParams) -> ScoreVector:
    """Charge-aware Katz scores, read off the full-charge block of the series."""
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
    return _neumann_series(
        sg.n_states,
        lambda x: apply_bkappa(sg, x),
        lambda tot: tot[: g.n],
        alpha,
        p.tol,
        p.max_iter,
        meta,
        list(g.labels),
    )


def standard_katz(
    g: Graph, alpha: float | None, tol: float = 1e-10, max_iter: int = 10_000
) -> ScoreVector:
    """Row sums of the resolvent of the plain adjacency, same series scheme.

    ``alpha=None`` takes the same default as ``KatzParams``, from the plain bound.
    """
    radius = power_iteration_radius(g.n, g.indptr, g.indices, g.arc_src)
    bound = math.inf if radius.value <= 0 else 1.0 / radius.value
    alpha = _resolve_alpha(alpha, bound)
    if not (0.0 <= alpha < bound):
        raise ValueError(f"alpha={alpha} is not below the measured bound 1/lambda_max={bound:.6g}")
    meta = {"measure": "katz", "alpha": alpha, "tol": tol}
    _check_radius(radius.converged, radius.value, meta)
    return _neumann_series(
        g.n,
        lambda x: np.bincount(g.arc_src, weights=x[g.indices], minlength=g.n),
        lambda tot: tot,
        alpha,
        tol,
        max_iter,
        meta,
        list(g.labels),
    )
