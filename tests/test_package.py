"""Package-wide guards: invariants that survive ``python -O`` and a clean public surface."""

import ast
import subprocess
import sys
from pathlib import Path

import chargecent
import chargecent.betweenness
import chargecent.graph
import chargecent.katz
import chargecent.rwbc
import chargecent.statespace

SRC = Path(chargecent.__file__).parent


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts; invariants must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_failures_raise_exceptions_the_cli_maps():
    # The CLI maps ValueError to exit 1 and NumericalError to exit 2; a bare
    # RuntimeError or Exception would end the run with a traceback.
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and raised(node) in ("RuntimeError", "Exception")
    ]
    assert found == []


def test_public_names_resolve_and_exclude_reference_code():
    for name in chargecent.__all__:
        assert hasattr(chargecent, name), name
    for name in ("bfs_shortest_paths", "target_restricted_dependency", "DependencyState"):
        assert name not in chargecent.__all__


def test_removed_names_stay_out_of_the_package():
    # One entry point per measure and simulator: pair-level rwbc is
    # ``rwbc_all_pairs(g, [(s, t)])``, walk subgraphs live in ``oracles``, and
    # the simulators return ``ScoreVector``; the scalar SIR episode is
    # reference code in ``oracles``, as is exact walk counting
    # (``count_feasible_walks``). A spectral radius is the certified bracket
    # ``graph.radius_bracket(adjacency)``, and the Katz bound ``max_alpha``.
    # The state graph has one shape, with no sink states: soc-bc credits each
    # pair at its arrival states in its one accumulation (the sink-augmented
    # graph is test reference code), and "which states reach t" is
    # ``StateGraph.toward(t)``. The B_kappa action is
    # ``sg.adjacency @ x``, and the quadratic Kendall tau is reference code in
    # ``oracles``.
    for name in ("directed_rwbc_pair", "FlowSolution", "StPair", "SimOutcome",
                 "walk_subgraph", "WalkSubgraph", "run_sir_episode",
                 "spectral_radius", "state_graph_radius",
                 "STAR", "apply_bkappa", "shortest_feasible_walk_length", "kendall_tau_naive",
                 "PowerIterationResult", "count_feasible_walks", "WalkCounts"):
        assert not hasattr(chargecent, name), name
        assert name not in chargecent.__all__, name
    # Names that lived in a module or class rather than at the package root.
    sg = chargecent.build_state_graph(chargecent.make_instance(chargecent.Graph(2, [(0, 1)], False), [], 1))
    for owner, name in ((chargecent.graph, "spectral_radius"), (chargecent.katz, "state_graph_radius"),
                        (chargecent.graph, "power_iteration_radius"), (chargecent.graph, "_is_acyclic"),
                        (chargecent.rwbc, "_contract_target"), (chargecent.Graph, "out_degree"),
                        (chargecent.statespace, "reachable_nodes"),
                        (chargecent.betweenness, "_with_sinks"), (chargecent.betweenness, "_arrival_debit"),
                        (chargecent.betweenness, "_target_credit"),
                        (sg, "starred"), (sg, "n_numeric"), (sg, "state_of"), (sg, "out_states")):
        assert not hasattr(owner, name), name


def test_importing_the_package_does_not_load_sparse_linalg():
    # Katz, rwbc and the radius bracket import scipy.sparse.linalg (csgraph loads
    # it too) where they use it, so a run that needs none of them skips its import.
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import chargecent, chargecent.cli; "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Defaulted function parameters plus defaulted dataclass fields in the package.
# A change that needs a new option raises this in the same diff and says why.
MAX_OPTIONS = 60


def test_options_do_not_grow():
    def is_dataclass(node):
        for dec in node.decorator_list:
            f = dec.func if isinstance(dec, ast.Call) else dec
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
                return True
        return False

    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    assert count <= MAX_OPTIONS, count
