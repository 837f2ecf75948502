"""Package-wide guards: invariants that survive ``python -O`` and a clean public surface."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import chargecent
import chargecent.betweenness
import chargecent.graph
import chargecent.katz
import chargecent.oracles
import chargecent.rwbc
import chargecent.scores
import chargecent.statespace

SRC = Path(chargecent.__file__).parent


def _calls(node, names, scope=()):
    """The dotted class and function scope of each call to one of ``names`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        func = getattr(child, "func", None)
        if isinstance(child, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) in names:
            yield ".".join(scope)
        yield from _calls(child, names, inner)


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts; invariants must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_instance_builds_its_state_graph():
    # One state graph per instance: only ``SocInstance.state_graph`` builds one, through
    # ``build_state_graph``, and every measure, sampler and simulator reads that property.
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _calls(ast.parse(path.read_text(), str(path)), ("build_state_graph", "StateGraph"))
    ]
    assert found == ["statespace.py:SocInstance.state_graph", "statespace.py:build_state_graph"]


def test_one_driver_runs_the_absorbing_solves():
    # Plain rwbc is soc-rwbc's driver on one charge block: one target loop serves both.
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _calls(ast.parse(path.read_text(), str(path)), ("_absorbing_flows",))
    ]
    assert found == ["rwbc.py:_pair_flows"]


def test_one_rule_reads_node_ids():
    # ``graph.integer`` alone calls ``operator.index``: ``graph.node_id`` reads every node
    # id through it (``Graph``'s edges, ``check_pairs`` and every other entry point), and
    # the hop budget, SIR runs, hopping duration and injection cap are read by it too.
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _calls(ast.parse(path.read_text(), str(path)), ("index",))
    ]
    assert found == ["graph.py:integer"]


def test_one_reader_numbers_the_lines_of_text_inputs():
    # ``graph.records`` alone numbers, strips and skips lines: the edge-list parsers,
    # the refill and pairs files and ``ScoreVector.read_csv`` read their lines through it.
    def numbers_lines(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate"
                and (len(node.args) > 1 or any(k.arg == "start" for k in node.keywords)))

    found = [
        f"{path.name}:{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef) and any(numbers_lines(node) for node in ast.walk(fn))
    ]
    assert found == ["graph.py:records"]


def test_one_dense_solve_checks_the_radius():
    # ``dense_soc_katz`` and the tests' reference ``dense_katz`` share one eigenvalue
    # check and dense solve.
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _calls(ast.parse(path.read_text(), str(path)), ("eigvals",))
    ]
    assert found == ["oracles.py:_dense_resolvent"]


def test_oracles_hold_only_what_verify_runs():
    # The package ships the oracles the CLI's ``--verify`` runs and what they reach:
    # every top-level name ``oracles.py`` defines is reached from a name another module
    # of the package imports from it. Reference code that only the tests run lives in
    # ``tests/reference.py``.
    def tree(name):
        return ast.parse((SRC / name).read_text(), name)

    defs = {}
    for node in tree("oracles.py").body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((target.id, node) for target in node.targets)
    roots = {alias.name for path in sorted(SRC.glob("*.py")) for node in ast.walk(tree(path.name))
             if isinstance(node, ast.ImportFrom) and node.module == "oracles" for alias in node.names}
    assert roots == {"brute_soc_bc", "dense_soc_katz"}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs]
    assert sorted(set(defs) - reached) == []


def test_graph_imports_nothing_from_statespace():
    # graph.py holds graphs only, and statespace builds on it: an import back, at
    # module level, under TYPE_CHECKING or inside a function, is an import cycle.
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [f"{node.module or ''}.{alias.name}" for alias in node.names]
        return []

    path = SRC / "graph.py"
    found = [
        f"graph.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in imported(node) if "statespace" in name.split(".")
    ]
    assert found == []


def test_the_instance_layer_is_defined_in_statespace_alone():
    # The instance, pair sampling and the one pair check sit next to the state graph.
    names = ("SocInstance", "check_pairs", "draw_feasible_pair", "make_instance", "sample_feasible_pairs")
    found = sorted(
        f"{path.name}:{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in names
    )
    assert found == [f"statespace.py:{name}" for name in names]
    for name in ("SocInstance", "make_instance", "sample_feasible_pairs"):
        assert getattr(chargecent, name) is getattr(chargecent.statespace, name)


def test_only_the_digraph_builds_a_csr():
    # One CSR builder: the base graph, the state graph and each one's reverse are
    # ``Digraph``s, which alone call ``csr`` and own the arc tails, the 0/1 matrix
    # and the reverse.
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _calls(ast.parse(path.read_text(), str(path)), ("csr",))
    ]
    assert found == ["graph.py:Digraph.__init__"]
    for cls in (chargecent.Graph, chargecent.StateGraph):
        assert issubclass(cls, chargecent.graph.Digraph)
        for name in ("n_arcs", "arc_src", "adjacency", "reverse"):
            assert name not in vars(cls), (cls.__name__, name)
    g = chargecent.Graph(3, [(0, 1), (1, 2)], False)
    assert "arc_src" not in vars(g) and "arc_src" not in vars(g.reverse)


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
    # ``rwbc_all_pairs(g, [(s, t)])``, walk subgraphs are test reference code, and
    # the simulators return ``ScoreVector``; the scalar SIR episode is
    # reference code too, as is exact walk counting
    # (``count_feasible_walks``). A spectral radius is the certified bracket
    # ``graph.radius_bracket(adjacency)``, and the Katz bound ``max_alpha``.
    # The state graph has one shape, with no sink states: soc-bc credits each
    # pair at its arrival states in its one accumulation (the sink-augmented
    # graph is test reference code), and "which states reach t" is
    # ``StateGraph.toward(t)``. The B_kappa action is
    # ``sg.adjacency @ x``, and the quadratic Kendall tau is reference code.
    # An instance holds its refill set as the boolean mask ``refill``, and a
    # state graph keeps no reference to its instance. An
    # instance's state graph is ``inst.state_graph``. A digraph's 0/1 matrix is
    # its ``adjacency``. The instance and pair sampling live in ``statespace``,
    # and soc-bc's per-state scores come as ``soc_betweenness_scores``'s pair.
    # Both rwbc measures run one driver, which groups the pairs and builds the meta.
    # ``oracles`` keeps only what ``--verify`` runs; the rest is in ``tests/reference.py``.
    for name in ("directed_rwbc_pair", "FlowSolution", "StPair", "SimOutcome",
                 "walk_subgraph", "WalkSubgraph", "run_sir_episode",
                 "spectral_radius", "state_graph_radius",
                 "STAR", "apply_bkappa", "shortest_feasible_walk_length", "kendall_tau_naive",
                 "PowerIterationResult", "count_feasible_walks", "WalkCounts", "RefillSet",
                 "build_state_graph", "BcScores"):
        assert not hasattr(chargecent, name), name
        assert name not in chargecent.__all__, name
    # Names that lived in a module or class rather than at the package root.
    sg = chargecent.make_instance(chargecent.Graph(2, [(0, 1)], False), [], 1).state_graph
    for owner, name in ((chargecent.graph, "spectral_radius"), (chargecent.katz, "state_graph_radius"),
                        (chargecent.graph, "power_iteration_radius"), (chargecent.graph, "_is_acyclic"),
                        (chargecent.rwbc, "_contract_target"), (chargecent.Graph, "out_degree"),
                        (chargecent.statespace, "reachable_nodes"),
                        (chargecent.betweenness, "_with_sinks"), (chargecent.betweenness, "_arrival_debit"),
                        (chargecent.betweenness, "_target_credit"),
                        (chargecent.graph, "RefillSet"), (chargecent.graph, "adjacency_matrix"),
                        (chargecent.graph, "SocInstance"), (chargecent.graph, "make_instance"),
                        (chargecent.rwbc, "sample_feasible_pairs"),
                        (chargecent.rwbc, "_solver_meta"), (chargecent.rwbc, "_sources_by_target"),
                        (chargecent.oracles, "_state_distances"), (chargecent.scores, "concordance_excess"),
                        *((chargecent.oracles, name) for name in (
                            "enumerate_feasible_walks", "WalkCounts", "count_feasible_walks", "DependencyState",
                            "bfs_shortest_paths", "target_restricted_dependency", "dense_katz", "WalkSubgraph",
                            "walk_subgraph", "MonteCarloRwbc", "monte_carlo_rwbc", "current_flow_throughflow",
                            "run_sir_episode", "plain_sir_outbreaks", "kendall_tau_naive",
                            "DEFAULT_MAX_WALKS", "MC_CHUNK", "_U64_MAX")),
                        (sg, "instance"), (sg, "_build"),
                        (sg, "starred"), (sg, "n_numeric"), (sg, "state_of"), (sg, "out_states")):
        assert not hasattr(owner, name), name
    # Kendall's tau sits beside the score vectors it compares.
    assert importlib.util.find_spec("chargecent.stats") is None


def test_importing_the_package_does_not_load_sparse_linalg():
    # Katz, rwbc and the radius bracket import scipy.sparse.linalg (csgraph loads
    # it too) where they use it, so a run that needs none of them skips its import.
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import chargecent, chargecent.cli; "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Defaulted function parameters plus defaulted dataclass fields in the package.
# A change that needs a new option raises this in the same diff and says why.
MAX_OPTIONS = 49
# Non-blank lines of the package's modules, as ``grep -c .`` counts them. A
# change that needs more lines raises this in the same diff and says why.
MAX_SRC_LINES = 1991


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


def test_source_lines_do_not_grow():
    count = sum(1 for path in SRC.glob("*.py") for line in path.read_text().split("\n") if line)
    assert count <= MAX_SRC_LINES, count
