"""Charge-aware network centrality and validation simulators.

Centrality measures for networks where a commodity consumes one unit of a
resource per hop and refills at designated nodes: walk counting happens on a
directed state graph over (node, charge) pairs. Includes charge-aware Katz,
betweenness, and random-walk betweenness, the plain baselines, spreading and
traffic simulators for realized scores, and Kendall-tau comparison.
"""

__version__ = "0.1.0"

from .betweenness import soc_betweenness, soc_betweenness_scores, standard_betweenness
from .errors import NumericalError
from .graph import Graph, GraphParseError, load_edge_list, write_snap_tsv
from .katz import AlphaBound, KatzParams, max_alpha, soc_katz, standard_katz
from .rwbc import rwbc_all_pairs, soc_rwbc
from .scores import ScoreVector, align_scores, kendall_tau
from .simulate import HoppingParams, SirParams, particle_hopping, sir_influence
from .statespace import SocInstance, StateGraph, make_instance, sample_feasible_pairs

__all__ = [
    "AlphaBound",
    "Graph",
    "GraphParseError",
    "HoppingParams",
    "KatzParams",
    "NumericalError",
    "ScoreVector",
    "SirParams",
    "SocInstance",
    "StateGraph",
    "align_scores",
    "kendall_tau",
    "load_edge_list",
    "make_instance",
    "max_alpha",
    "particle_hopping",
    "rwbc_all_pairs",
    "sample_feasible_pairs",
    "sir_influence",
    "soc_betweenness",
    "soc_betweenness_scores",
    "soc_katz",
    "soc_rwbc",
    "standard_betweenness",
    "standard_katz",
    "write_snap_tsv",
]
