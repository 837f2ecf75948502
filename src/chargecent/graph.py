"""Base graph representation, edge-list ingestion, and a certified spectral-radius bracket.

Node ids are dense integers in [0, n); external labels are kept as strings
and mapped bijectively. Undirected edges are stored once but expanded to two
arcs in the adjacency view, since every downstream kernel works on arcs.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

logger = logging.getLogger(__name__)

FORMATS = ("snap-tsv", "matrix-market", "csv")

_CSV_HEADERS = {("u", "v"), ("source", "target"), ("src", "dst"), ("from", "to")}


class GraphParseError(ValueError):
    """Edge-list file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency of the arcs ``src -> dst`` over nodes [0, n).

    Arcs are sorted by (tail, head), so every node's out-neighbors ascend.
    Returns ``indptr``, ``indices`` (the heads) and ``arc_src`` (the tails),
    the latter two aligned arc by arc.
    """
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], src[order]


def adjacency_matrix(n: int, indptr: np.ndarray, indices: np.ndarray) -> scipy.sparse.csr_array:
    """The 0/1 matrix of a CSR arc set: row u holds a 1 at each head of u's out-arcs."""
    return scipy.sparse.csr_array((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))


def disjoint_copies(indptr: np.ndarray, indices: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of c disjoint copies of a digraph on N nodes; copy i holds node v at i*N + v.

    Copies share no arc, so one ``bfs`` from sources in several copies runs as
    many independent searches, one numpy pass per level for all of them. Each
    copy's nodes, arcs and tree arcs keep their relative order, so its
    distances and float path counts are bit-identical to a search of its own.
    """
    n, arcs = indptr.shape[0] - 1, indices.shape[0]
    copy = np.arange(c)
    cptr = np.append((indptr[:-1] + arcs * copy[:, None]).ravel(), c * arcs)
    return cptr, (indices + n * copy[:, None]).ravel()


def bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    source: int | np.ndarray,
    dominance: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Level-synchronous BFS over a CSR digraph from one source or an array of them.

    Level 0 is the unique sources, each with one path. Returns distances (-1
    where unreached), shortest-path counts, and per level the tree arcs
    (tails, heads) into the next one. Level L's nodes, sorted, are
    ``np.flatnonzero(d == L)``. Path counts are float64, as in networkx: exact
    below 2**53 and beyond that rounded rather than wrapped (a 40x40 grid
    already exceeds int64).

    ``dominance`` is an optional per-node (group, rank) pair of nonnegative
    int64 arrays. A head whose group was labelled at an earlier level with a
    rank at most the head's own is dropped: it stays unlabelled and gets no
    tree arcs. Without it, every reachable node is labelled.
    """
    n = indptr.shape[0] - 1
    d = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    frontier = np.unique(np.asarray(source, dtype=np.int64).reshape(-1))
    d[frontier] = 0
    sigma[frontier] = 1.0
    tree_arcs: list[tuple[np.ndarray, np.ndarray]] = []
    if dominance is not None:
        group, rank = dominance
        # best[g]: the lowest rank of group g labelled so far.
        best = np.full(int(group.max()) + 1, np.iinfo(np.int64).max)
    level = 0
    while True:
        starts = indptr[frontier]
        cnt = indptr[frontier + 1] - starts
        # Arc j of the frontier's k-th node sits at starts[k] + (j - first arc of k).
        arcs = np.arange(int(cnt.sum())) + np.repeat(starts - (np.cumsum(cnt) - cnt), cnt)
        heads = indices[arcs]  # heads of the frontier's arcs, in CSR order
        new = d[heads] == -1  # arcs into unlabelled nodes: the tree arcs into the next level
        tsrc, tdst = np.repeat(frontier, cnt)[new], heads[new]
        if dominance is not None:
            np.minimum.at(best, group[frontier], rank[frontier])
            live = best[group[tdst]] > rank[tdst]
            tsrc, tdst = tsrc[live], tdst[live]
        if tdst.size == 0:
            break
        d[tdst] = level + 1
        np.add.at(sigma, tdst, sigma[tsrc])
        tree_arcs.append((tsrc, tdst))
        fresh = np.sort(tdst)  # sort, then drop repeats: np.unique's frontier without its hash pass
        frontier = np.concatenate((fresh[:1], fresh[1:][fresh[1:] != fresh[:-1]]))
        level += 1
    return d, sigma, tree_arcs


class Graph:
    """Unweighted graph over dense node ids with a CSR arc view.

    Duplicate edges are collapsed (counted in ``duplicates_collapsed``);
    self-loops are kept but counted once in degrees. Instances are immutable
    after construction and safe to share across workers.
    """

    def __init__(
        self,
        n: int,
        edges: Sequence[tuple[int, int]],
        directed: bool,
        labels: Sequence[str] | None = None,
    ):
        if n <= 0:
            raise ValueError("graph must have at least one node")
        self.n = int(n)
        self.directed = bool(directed)
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n:
            raise ValueError("labels length must equal n")
        self.labels: list[str] = [str(x) for x in labels]
        self.label_to_id: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_to_id) != n:
            raise ValueError("labels must be unique")

        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero(((arr < 0) | (arr >= n)).any(axis=1))
        if bad.size:
            u, v = arr[bad[0]]
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        lo, hi = (arr[:, 0], arr[:, 1]) if directed else (arr.min(axis=1), arr.max(axis=1))
        # np.unique sorts stably for return_index, so each key keeps its first occurrence.
        first = np.sort(np.unique(lo * n + hi, return_index=True)[1])
        kept = arr[first]
        dupes = arr.shape[0] - kept.shape[0]
        if dupes:
            logger.warning("collapsed %d duplicate edge(s)", dupes)
        self.edges: list[tuple[int, int]] = list(zip(kept[:, 0].tolist(), kept[:, 1].tolist()))
        self.m = len(self.edges)
        self.duplicates_collapsed = dupes
        self.self_loop_count = int((kept[:, 0] == kept[:, 1]).sum())

        # Arc view: undirected edges become two arcs (self-loops one).
        src, dst = kept[:, 0], kept[:, 1]
        if not directed:
            mask = src != dst
            src, dst = np.concatenate([src, dst[mask]]), np.concatenate([dst, src[mask]])
        # arc_src[a] is the tail of arc a; handy for vectorized matvecs.
        self.indptr, self.indices, self.arc_src = csr(n, src, dst)

    @property
    def n_arcs(self) -> int:
        return int(self.indices.shape[0])

    @functools.cached_property
    def adjacency(self) -> scipy.sparse.csr_array:
        return adjacency_matrix(self.n, self.indptr, self.indices)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` in ascending order (all neighbors if undirected)."""
        if not (0 <= v < self.n):
            raise ValueError(f"node id {v} out of range [0,{self.n})")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


class RefillSet:
    """Set of refill node ids with O(1) membership via a boolean mask."""

    def __init__(self, members: Iterable[int], n: int):
        self.n = int(n)
        mem = sorted({int(v) for v in members})
        if mem and not (0 <= mem[0] and mem[-1] < n):
            raise ValueError("refill node id out of range")
        self.members: frozenset[int] = frozenset(mem)
        self.mask = np.zeros(n, dtype=bool)
        if mem:
            self.mask[mem] = True

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask[v])

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __repr__(self) -> str:
        return f"RefillSet({len(self.members)} of {self.n})"


@dataclass(frozen=True)
class SocInstance:
    """A graph plus refill set and hop budget; the unit all measures consume."""

    graph: Graph
    omega: RefillSet
    kappa: int

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.omega.n != self.graph.n:
            raise ValueError("refill set sized for a different graph")


def make_instance(graph: Graph, omega: Iterable[int], kappa: int) -> SocInstance:
    return SocInstance(graph, RefillSet(omega, graph.n), int(kappa))


def _finish(
    pairs: list[tuple[str, str]], directed: bool, n_hint: int | None = None
) -> Graph:
    labels: list[str] = []
    ids: dict[str, int] = {}
    if n_hint is not None:
        labels = [str(i + 1) for i in range(n_hint)]
        ids = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for a, b in pairs:
        for lab in (a, b):
            if lab not in ids:
                ids[lab] = len(labels)
                labels.append(lab)
        edges.append((ids[a], ids[b]))
    if not labels:
        raise GraphParseError("empty graph: no nodes found")
    return Graph(len(labels), edges, directed, labels)


def _parse_snap(lines: Iterable[str]) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise GraphParseError(f"expected two fields, got {len(toks)}", lineno)
        try:
            int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"non-integer node id in {toks!r}", lineno) from None
        pairs.append((toks[0], toks[1]))
    return pairs


def _parse_csv(lines: Iterable[str]) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        toks = [t.strip() for t in line.split(",")]
        if lineno == 1 and tuple(t.lower() for t in toks) in _CSV_HEADERS:
            continue
        if len(toks) != 2:
            raise GraphParseError(f"expected two comma-separated fields, got {len(toks)}", lineno)
        pairs.append((toks[0], toks[1]))
    return pairs


def _parse_matrix_market(lines: list[str]) -> tuple[list[tuple[str, str]], int, bool]:
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise GraphParseError("missing %%MatrixMarket header", 1)
    header = lines[0].lower().split()
    if "matrix" not in header or "coordinate" not in header:
        raise GraphParseError("only coordinate matrices are supported", 1)
    symmetric = "symmetric" in header
    dims = None
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        toks = line.split()
        if dims is None:
            if len(toks) < 3:
                raise GraphParseError("expected 'rows cols nnz' size line", lineno)
            try:
                rows, cols = int(toks[0]), int(toks[1])
            except ValueError:
                raise GraphParseError("non-integer size line", lineno) from None
            dims = max(rows, cols)
            continue
        if len(toks) < 2:
            raise GraphParseError("expected at least two fields", lineno)
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"non-integer coordinate in {toks!r}", lineno) from None
        if dims and not (1 <= i <= dims and 1 <= j <= dims):
            raise GraphParseError(f"coordinate ({i},{j}) outside {dims}x{dims}", lineno)
        pairs.append((str(i), str(j)))
    if dims is None or dims == 0:
        raise GraphParseError("empty graph: no size line or zero dimensions")
    return pairs, dims, symmetric


def load_edge_list(path: str | Path, format: str = "snap-tsv", directed: bool = False) -> Graph:
    """Load a graph from a file in one of: snap-tsv, matrix-market, csv."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if format == "snap-tsv":
        g = _finish(_parse_snap(lines), directed)
    elif format == "csv":
        g = _finish(_parse_csv(lines), directed)
    else:
        pairs, dims, symmetric = _parse_matrix_market(lines)
        if directed and symmetric:
            pairs = pairs + [(b, a) for a, b in pairs if a != b]
        g = _finish(pairs, directed, n_hint=dims)
    logger.info("loaded %s from %s", g, path)
    return g


def write_snap_tsv(g: Graph, path: str | Path) -> None:
    """Write edges as whitespace pairs of external labels, one per line."""
    with open(path, "w") as fh:
        fh.write(f"# nodes: {g.n} edges: {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{g.labels[u]}\t{g.labels[v]}\n")


# Steps of x <- (B_C + I) x after which ``radius_bracket`` returns the bracket it
# has: 0.6 s on path_graph(2000) (2 vCPUs); 10x10-grid state graphs need 3,261.
RADIUS_MAX_ITER = 20_000
# ``radius_bracket`` stops once upper - lower <= RADIUS_RTOL * upper.
RADIUS_RTOL = 1e-10


def radius_bracket(adj: scipy.sparse.csr_array) -> tuple[float, float]:
    """Certified bracket ``(lower, upper)`` on the spectral radius of a nonnegative 0/1 matrix.

    rho(B) is the largest rho(B_C) over the strong components C, each with its
    inner arcs only. A single node has rho 1 with a self-loop and 0 without,
    so an acyclic arc set returns exactly (0, 0). The larger components iterate
    x <- (B_C + I) x together; for any x > 0, min_i ((B_C + I) x)_i / x_i - 1
    <= rho(B_C) <= max_i ((B_C + I) x)_i / x_i - 1 (Collatz-Wielandt; Meyer,
    *Matrix Analysis and Applied Linear Algebra*, section 8.3). So, up to the
    rounding of the ratios, the bracket holds when it narrows to ``RADIUS_RTOL``
    and, wider, when the loop stops at ``RADIUS_MAX_ITER`` steps.
    """
    # Imported here: csgraph loads scipy.sparse.linalg, which only Katz and rwbc need.
    from scipy.sparse.csgraph import connected_components

    n = adj.shape[0]
    comp = connected_components(adj, directed=True, connection="strong")[1]
    tails = np.repeat(np.arange(n), np.diff(adj.indptr))
    inside = comp[tails] == comp[adj.indices]
    multi = np.bincount(comp)[comp] > 1
    if not multi.any():  # every inner arc is a self-loop
        return (1.0, 1.0) if inside.any() else (0.0, 0.0)
    # The larger components' nodes, sorted once by component for the segment
    # reductions, and their inner arcs.
    nodes = np.flatnonzero(multi)[np.argsort(comp[multi], kind="stable")]
    inner = scipy.sparse.csr_array((inside.astype(float), adj.indices, adj.indptr), shape=adj.shape)
    b = inner[nodes][:, nodes]
    sizes = np.unique(comp[nodes], return_counts=True)[1]
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    x = np.ones(nodes.shape[0])
    for _ in range(RADIUS_MAX_ITER):
        y = b @ x + x
        ratio = y / x
        lower = float(np.minimum.reduceat(ratio, starts).max()) - 1.0
        upper = float(np.maximum.reduceat(ratio, starts).max()) - 1.0
        if upper - lower <= RADIUS_RTOL * upper:
            break
        x = y / np.repeat(np.maximum.reduceat(y, starts), sizes)
    return lower, upper
