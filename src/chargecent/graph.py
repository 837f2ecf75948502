"""CSR digraphs, the base graph, edge-list ingestion, and a certified spectral-radius bracket.

``Digraph`` is the one CSR arc set: the base graph and the state graph are
both digraphs, and each digraph's reverse is one too. Node ids are dense
integers in [0, n); external labels are kept as strings and mapped
bijectively. Undirected edges are stored once but expanded to two arcs in the
adjacency view, since every downstream kernel works on arcs. Nothing here
knows of charge: the instance and its state graph are in ``statespace``.
"""

from __future__ import annotations

import functools
import logging
import operator
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse

from .errors import NumericalError

logger = logging.getLogger(__name__)

FORMATS = ("snap-tsv", "matrix-market", "csv")

_CSV_HEADERS = {("u", "v"), ("source", "target"), ("src", "dst"), ("from", "to")}


class GraphParseError(ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def records(lines: Iterable[str], comment: str | None) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of each line neither blank nor led by ``comment`` (None: no comments)."""
    # compress picks the kept lines in C; a per-line generator added 2-3 ms to a 48,000-line load (2 vCPUs).
    lines = list(map(str.strip, lines))
    keep = lines if comment is None else [line and not line.startswith(comment) for line in lines]
    return compress(enumerate(lines, start=1), keep)


def integer(v, what: str) -> int:
    """``v`` read by ``operator.index`` (neither 2.5, 2.0 nor "2" is an integer), else a ``ValueError`` naming ``what``."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} {v.item() if isinstance(v, np.generic) else v!r} is not an integer") from None


def node_id(v, n: int) -> int:
    """``v`` as a node id in [0, n), read by ``integer``, else ``ValueError``."""
    v = integer(v, "node id")
    if not 0 <= v < n:
        raise ValueError(f"node id {v} out of range [0,{n})")
    return v


def node_pair(row, n: int, record: str) -> tuple[int, int]:
    """``row`` as two node ids read by ``node_id``; a ``ValueError`` names the ``record`` (edge, pair) and the id."""
    try:
        u, v = row
    except (TypeError, ValueError):
        raise ValueError(f"{record} {row} must hold two node ids") from None
    try:
        return node_id(u, n), node_id(v, n)
    except ValueError as exc:
        raise ValueError(f"{record} ({u}, {v}): {exc}") from None


def csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``indptr``, ``indices`` (the heads) of the arcs ``src -> dst`` over nodes [0, n).

    Arcs are sorted by (tail, head), so every node's out-neighbors ascend.
    """
    if n * n >= 2**63:
        raise NumericalError(f"sort keys tail * n + head overflow int64 at n={n}")
    order = np.argsort(np.asarray(src, dtype=np.int64) * n + dst, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


class Digraph:
    """Arcs over the ids [0, size) in CSR form: the base graph, the state graph and their reverses.

    Immutable after construction. The 0/1 matrix and the reverse are built on
    first use and kept; the arc tails are derived, not kept (8 bytes an arc).
    """

    def __init__(self, size: int, src: np.ndarray, dst: np.ndarray):
        self.indptr, self.indices = csr(size, src, dst)

    @property
    def size(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_arcs(self) -> int:
        return int(self.indices.shape[0])

    @property
    def arc_src(self) -> np.ndarray:
        """The tail of each arc, aligned with ``indices``."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr))

    @functools.cached_property
    def adjacency(self) -> scipy.sparse.csr_array:
        """The 0/1 matrix: row u holds a 1 at each head of u's out-arcs."""
        return scipy.sparse.csr_array((np.ones(self.n_arcs), self.indices, self.indptr), shape=(self.size,) * 2)

    @functools.cached_property
    def reverse(self) -> Digraph:
        """Every arc turned around: searches toward a node run on it, and its adjacency is A^T."""
        return Digraph(self.size, self.indices, self.arc_src)


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

    A 2-D ``source`` runs one independent search per row over the same graph,
    with one numpy pass per level for all of them. Row i's node v is labelled
    at i*N + v for the graph's N nodes: its frontier node g expands the arcs
    of g % N, shifted by g - g % N. Each row's labels and tree arcs, less i*N,
    are bit-identical to a search from that row alone.

    ``dominance`` is an optional per-node (group, rank) pair of nonnegative
    int64 arrays. A head whose group was labelled at an earlier level with a
    rank at most the head's own is dropped: it stays unlabelled and gets no
    tree arcs. Without it, every reachable node is labelled. Each row has
    groups of its own.
    """
    n = indptr.shape[0] - 1
    source = np.asarray(source, dtype=np.int64)
    rows = source.shape[0] if source.ndim == 2 else 1
    d = np.full(rows * n, -1, dtype=np.int64)
    sigma = np.zeros(rows * n)
    frontier = np.unique(source.reshape(rows, -1) + n * np.arange(rows)[:, None])
    d[frontier] = 0
    sigma[frontier] = 1.0
    tree_arcs: list[tuple[np.ndarray, np.ndarray]] = []
    if dominance is not None:
        group, rank = dominance
        span = int(group.max()) + 1
        group, rank = (group + span * np.arange(rows)[:, None]).ravel(), np.tile(rank, rows)
        # best[g]: the lowest rank of group g labelled so far.
        best = np.full(span * rows, np.iinfo(np.int64).max)
    level = 0
    while True:
        local = frontier % n
        starts = indptr[local]
        cnt = indptr[local + 1] - starts
        # Arc j of the frontier's k-th node sits at starts[k] + (j - first arc of k).
        arcs = np.arange(int(cnt.sum())) + np.repeat(starts - (np.cumsum(cnt) - cnt), cnt)
        heads = indices[arcs] + np.repeat(frontier - local, cnt)  # in CSR order, in the tails' rows
        # The arcs into unlabelled nodes, the tree arcs into the next level, by
        # position: np.flatnonzero and a take beat a boolean mask's indexing.
        new = np.flatnonzero(d[heads] == -1)
        tdst = heads[new]
        if dominance is not None:
            np.minimum.at(best, group[frontier], rank[frontier])
            live = np.flatnonzero(best[group[tdst]] > rank[tdst])
            new, tdst = new[live], tdst[live]
        if tdst.size == 0:
            break
        tsrc = np.repeat(frontier, cnt)[new]
        d[tdst] = level + 1
        np.add.at(sigma, tdst, sigma[tsrc])
        tree_arcs.append((tsrc, tdst))
        fresh = np.sort(tdst)  # sort, then drop repeats: np.unique's frontier without its hash pass
        frontier = np.concatenate((fresh[:1], fresh[1:][fresh[1:] != fresh[:-1]]))
        level += 1
    return d, sigma, tree_arcs


class Graph(Digraph):
    """Unweighted graph over dense node ids with a CSR arc view.

    ``edges`` is an int ``(m, 2)`` array of (u, v) ids or a sequence of pairs.
    Each id is read by ``node_id``, so 2.5, 2.0 and "2" are not ids; a row that
    is not two ids, or holds a bad id, raises ``ValueError`` naming the row and
    the id. Duplicate edges are collapsed (counted in
    ``duplicates_collapsed``); self-loops are kept but counted once in degrees.
    Instances are immutable after construction and safe to share across workers.
    """

    def __init__(
        self,
        n: int,
        edges: np.ndarray | Sequence[tuple[int, int]],
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

        try:  # the common path: integer pairs in range, tested in one pass
            arr = np.asarray(edges)
            fast = arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "iu" and 0 <= arr.min() and arr.max() < n
        except ValueError:  # rows of unequal lengths, or no rows for min
            fast = False
        if not fast:  # the first bad row or id, named as the caller wrote it
            rows = edges.tolist() if isinstance(edges, np.ndarray) else edges
            arr = np.array([node_pair(row, n, "edge") for row in rows], dtype=np.int64).reshape(-1, 2)
        arr = np.asarray(arr, dtype=np.int64)  # an int64 array is not copied
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
        super().__init__(n, src, dst)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` in ascending order (all neighbors if undirected)."""
        v = node_id(v, self.n)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def _finish(tokens: list[str], directed: bool, labels: Sequence[str] = ()) -> Graph:
    """Graph of the flat tokens u1, v1, u2, v2, ...; ids by first appearance after ``labels``."""
    ids = {lab: i for i, lab in enumerate(labels)}
    edges = np.array([ids.setdefault(tok, len(ids)) for tok in tokens], dtype=np.int64).reshape(-1, 2)
    if not ids:
        raise GraphParseError("empty graph: no nodes found")
    return Graph(len(ids), edges, directed, list(ids))


def _parse_snap(lines: Iterable[str]) -> list[str]:
    tokens: list[str] = []
    for lineno, line in records(lines, "#"):
        toks = line.split()
        if len(toks) != 2:
            raise GraphParseError(f"expected two fields, got {len(toks)}", lineno)
        try:
            int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"non-integer node id in {toks!r}", lineno) from None
        tokens += toks
    return tokens


def _parse_csv(lines: Iterable[str]) -> list[str]:
    tokens: list[str] = []
    for lineno, line in records(lines, None):
        toks = [t.strip() for t in line.split(",")]
        if not tokens and tuple(t.lower() for t in toks) in _CSV_HEADERS:  # a header comes before any edge
            continue
        if len(toks) != 2:
            raise GraphParseError(f"expected two comma-separated fields, got {len(toks)}", lineno)
        tokens += toks
    return tokens


def _parse_matrix_market(lines: list[str]) -> tuple[list[str], int, bool]:
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise GraphParseError("missing %%MatrixMarket header", 1)
    header = lines[0].lower().split()
    if "matrix" not in header or "coordinate" not in header:
        raise GraphParseError("only coordinate matrices are supported", 1)
    symmetric = "symmetric" in header
    dims = None
    tokens: list[str] = []
    for lineno, line in records(lines, "%"):  # the %%MatrixMarket header too
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
        tokens += (str(i), str(j))
    if dims is None or dims == 0:
        raise GraphParseError("empty graph: no size line or zero dimensions")
    return tokens, dims, symmetric


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
        tokens, dims, symmetric = _parse_matrix_market(lines)
        if directed and symmetric:  # the mirror of each stored off-diagonal entry, after all of them
            tokens += [tok for a, b in zip(tokens[::2], tokens[1::2]) if a != b for tok in (b, a)]
        g = _finish(tokens, directed, [str(i + 1) for i in range(dims)])
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
