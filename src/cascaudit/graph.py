"""Directed social graph and bounded source-to-edge path enumeration.

The graph stores followee -> follower edges plus a per-node feature vector.
Node ids may be ints or strings, mixed freely; they are interned to dense
integer indices at ingestion, and every query speaks original ids.  Ids sort
with ints before strings, each in natural order.

The one non-trivial query is :func:`enumerate_paths`: all simple directed
paths that start at a source node and end with a given target edge, with a
depth bound.  The inference engine treats each such path as a candidate route
the information took, so the enumeration order must be deterministic
(lexicographic by vertex sequence) and truncation, when the path count
explodes, must keep the shortest paths, which carry the bulk of the
probability mass.

On a single-followee graph (every node has at most one followee, as in every
trace's implied graph) a target has at most one candidate, found by walking
up the followee chain from ``u`` in O(path length), with no masks or
memoized search.  Elsewhere every target edge ``(u, v)`` with the same tail
``u`` shares one search for the prefixes ``source ~> u``: the graph memoizes
them lazily per ``(source, u, length)``, and each target drops the prefixes
that pass through its own ``v``.  The search is pruned by walk-length
bitmasks held only for the ball of radius ``max_path_length - 1`` around
``u``.  A prefix carries its vertex and edge tuples, built once by the search,
and an enumeration holds its candidates as prefixes plus the target edge; the
:class:`DirectedPath` objects of :attr:`PathEnumeration.paths` are built only
when first read.
On an acyclic graph where a node has two followees, :func:`forward_ball`
lays out all walks from the source within the path bound by depth instead,
once per ``(source, max_path_length)``, for the engine's forward recursion,
which no ``max_paths`` cap limits.  Queries therefore write to the graph's
memos and to the enumerations they return, so they must not run
concurrently; a new edge clears any memo a query filled.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, tee
from typing import Hashable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from cascaudit.errors import GraphError, read_text

NodeId = Hashable
Edge = tuple  # (u, v) in original ids


def _id_key(node_id: NodeId) -> tuple:
    """Total-order sort key for node ids that may mix ints and strings."""
    return (isinstance(node_id, str), node_id)


@dataclass(frozen=True)
class DirectedPath:
    """A simple directed path, held as its vertex sequence; ``edges`` is
    derived from it once, at construction."""

    vertices: tuple
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise GraphError("a path needs at least one edge")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError(f"path revisits a vertex: {self.vertices!r}")
        object.__setattr__(self, "edges", tuple(zip(self.vertices[:-1], self.vertices[1:])))

    def __len__(self) -> int:
        """Length in edges."""
        return len(self.vertices) - 1


@dataclass(frozen=True)
class PathEnumConfig:
    """Bounds for path enumeration.

    ``max_path_length`` caps the number of edges per path; ``max_paths`` caps
    how many paths are returned (shortest first when the cap binds).
    """

    max_path_length: int = 8
    max_paths: int = 512

    def __post_init__(self):
        if self.max_path_length < 1:
            raise GraphError("max_path_length must be >= 1")
        if self.max_paths < 1:
            raise GraphError("max_paths must be >= 1")


class Prefix(NamedTuple):
    """A simple path ``source ~> u`` that visits ``u`` only at its end."""

    vertices: tuple
    edges: tuple


@dataclass(frozen=True)
class PathEnumeration:
    """Result of a bounded enumeration: each candidate path is a prefix
    ``source ~> u`` followed by ``target_edge`` ``(u, v)``, in path order,
    plus a truncation flag."""

    prefixes: tuple
    target_edge: tuple
    truncated: bool = False

    @cached_property
    def paths(self) -> tuple:
        """The candidates as :class:`DirectedPath` objects, built on first read."""
        v = self.target_edge[1]
        return tuple(DirectedPath(prefix.vertices + (v,)) for prefix in self.prefixes)

    def __iter__(self) -> Iterator[DirectedPath]:
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.prefixes)


class SocialGraph:
    """Directed graph with node features.

    The CLI builds each graph in one pass with :meth:`from_edges` and never
    mutates it; :meth:`add_node` / :meth:`add_edge` grow a graph one item at
    a time, and :meth:`freeze` forbids later mutation.  Follower lists are
    appended unsorted and sorted once, on the first query after a mutation
    or at :meth:`freeze`.  Queries fill memos (sorted followers, the
    walk-length masks of the nodes within the path bound of a tail, the lazy
    ``source ~> u`` prefix search, forward balls) and are single-threaded: do
    not query one graph from several threads.  Any new edge clears the memos
    (a test when none is filled); a new node, without edges, leaves them
    exact.
    """

    def __init__(self):
        self._index: dict = {}          # original id -> dense index
        self._ids: list = []            # dense index -> original id
        self._features: list = []       # dense index -> np.ndarray
        self._out: list = []            # dense index -> list of follower ids
        self._unsorted: set = set()     # dense indices whose follower list grew unsorted
        self._pred: dict = {}           # node -> list of predecessors
        self._edges: set = set()        # (u, v) original-id pairs
        self._frozen = False
        self._mask_cache: dict = {}
        self._prefix_cache: dict = {}
        self._ball_cache: dict = {}
        self._shape_memo: Optional[str] = None

    def _clear_memos(self):
        self._mask_cache.clear()
        self._prefix_cache.clear()
        self._ball_cache.clear()
        self._shape_memo = None

    # ---- mutation ---------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise GraphError("graph is frozen; mutation is pre-inference only")

    def add_node(self, node_id: NodeId, features: Sequence[float]) -> None:
        """Add a node with its feature vector.

        The first insertion fixes the feature dimension for the whole graph.
        """
        self._check_mutable()
        if node_id in self._index:
            raise GraphError(f"duplicate node id: {node_id!r}")
        vec = np.asarray(features, dtype=float)
        if vec.ndim != 1:
            raise GraphError(f"features for {node_id!r} must be a flat vector")
        if self._features and vec.shape[0] != self._features[0].shape[0]:
            raise GraphError(
                f"feature dimension {vec.shape[0]} for {node_id!r} does not match "
                f"graph dimension {self._features[0].shape[0]}"
            )
        self._index[node_id] = len(self._ids)
        self._ids.append(node_id)
        self._features.append(vec)
        self._out.append([])
        self._pred[node_id] = []

    @classmethod
    def from_edges(cls, edges: Sequence[Edge], nodes=(), feature_dim: int = 1,
                   features: Optional[dict] = None) -> "SocialGraph":
        """The graph of ``edges``, built in one pass over them, with the nodes
        ``nodes`` first and then each endpoint in order of first appearance.

        A node in the table ``features`` takes its vector there, which must
        have ``feature_dim`` entries; every other node shares one read-only
        zero vector of ``feature_dim``.  As with :meth:`add_edge`, a self-loop
        raises :class:`GraphError` and a repeated edge is skipped.
        """
        graph = cls()
        ids = graph._ids = list(dict.fromkeys(chain(nodes, chain.from_iterable(edges))))
        index = graph._index = dict(zip(ids, range(len(ids))))
        zeros = np.zeros(feature_dim)
        zeros.flags.writeable = False
        graph._features = [zeros] * len(ids)
        for node, vec in (features or {}).items():
            if node in index:
                vec = np.asarray(vec, dtype=float)
                if vec.shape != (feature_dim,):
                    raise GraphError(
                        f"feature dimension {vec.size} for {node!r} does not match "
                        f"graph dimension {feature_dim}"
                    )
                graph._features[index[node]] = vec
        out = graph._out = [[] for _ in ids]
        pred = graph._pred = {node: [] for node in ids}
        unique = dict.fromkeys(edges)
        for u, v in unique:
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            out[index[u]].append(v)
            pred[v].append(u)
        graph._edges = set(unique)
        graph._unsorted = {i for i, followers in enumerate(out) if len(followers) > 1}
        return graph

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the directed followee -> follower edge (u, v)."""
        self._check_mutable()
        if u == v:
            raise GraphError(f"self-loop on {u!r}")
        for endpoint in (u, v):
            if endpoint not in self._index:
                raise GraphError(f"edge endpoint {endpoint!r} is not a node")
        if (u, v) in self._edges:
            return
        self._edges.add((u, v))
        self._out[self._index[u]].append(v)
        self._unsorted.add(self._index[u])
        self._pred[v].append(u)
        if (self._shape_memo is not None or self._mask_cache or self._prefix_cache
                or self._ball_cache):
            self._clear_memos()

    def freeze(self) -> "SocialGraph":
        self._sorted_out()
        self._frozen = True
        return self

    # ---- queries ----------------------------------------------------------

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._index

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self._edges

    def _sorted_out(self) -> list:
        """The follower lists (by dense index), each sorted on the id key."""
        for i in self._unsorted:
            self._out[i].sort(key=_id_key)
        self._unsorted.clear()
        return self._out

    def followers(self, u: NodeId) -> list:
        """Out-neighbors of ``u`` in sorted order."""
        return list(self._sorted_out()[self._index[u]])

    def features(self, node_id: NodeId) -> np.ndarray:
        return self._features[self._index[node_id]]

    @property
    def feature_dim(self) -> Optional[int]:
        return self._features[0].shape[0] if self._features else None

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def nodes(self) -> list:
        return sorted(self._ids, key=_id_key)

    def edges(self) -> list:
        return sorted(self._edges, key=lambda e: (_id_key(e[0]), _id_key(e[1])))

    def _walk_masks(self, target: NodeId, max_path_length: int) -> dict:
        """Node -> bitmask whose bit ``k`` is set when a walk of exactly
        ``k < max_path_length`` edges leads from the node to ``target``.

        Built by ``max_path_length - 1`` reverse frontier steps, so the memo
        holds only the ball of that radius around ``target``.  Every simple
        path is a walk, so an unset bit is an admissible pruning bound.
        """
        key = (target, max_path_length)
        masks = self._mask_cache.get(key)
        if masks is None:
            masks = self._mask_cache[key] = {target: 1}
            frontier = {target}
            for k in range(1, max_path_length):
                frontier = {pred for node in frontier for pred in self._pred[node]}
                for pred in frontier:
                    masks[pred] = masks.get(pred, 0) | 1 << k
        return masks

    def _shape(self) -> str:
        """``"single"`` when every node has at most one followee (then no
        target has two candidate paths), else ``"dag"`` when the graph is
        acyclic (one Kahn pass), else ``"cyclic"``; memoized."""
        if self._shape_memo is None:
            if max(map(len, self._pred.values()), default=0) <= 1:
                self._shape_memo = "single"
            else:
                indegree = [len(self._pred[node]) for node in self._ids]
                removed = [i for i, degree in enumerate(indegree) if not degree]
                for i in removed:  # grows as the pass removes nodes
                    for child in self._out[i]:
                        indegree[self._index[child]] -= 1
                        if not indegree[self._index[child]]:
                            removed.append(self._index[child])
                self._shape_memo = "dag" if len(removed) == len(indegree) else "cyclic"
        return self._shape_memo


def enumerate_paths(
    graph: SocialGraph,
    source: NodeId,
    target_edge: Edge,
    cfg: PathEnumConfig = PathEnumConfig(),
) -> PathEnumeration:
    """All simple directed paths from ``source`` whose final edge is ``target_edge``.

    Paths are returned in lexicographic order of their vertex sequences.  When
    more than ``cfg.max_paths`` paths exist within the depth bound, the
    shortest paths (ties broken lexicographically) are kept and the result is
    flagged as truncated.  An unreachable target yields an empty result, not
    an error.
    """
    u, v = target_edge
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} is not a node")
    if not graph.has_edge(u, v):
        raise GraphError(f"target edge {target_edge!r} is not in the graph")

    found: list = []
    truncated = False
    if graph._shape() == "single":
        found = _followee_chain(graph._pred, source, u, v, cfg.max_path_length)
    elif v != source:  # a simple path cannot return to its own source
        masks = graph._walk_masks(u, cfg.max_path_length)
        # Exploring one exact length at a time yields the shortest-first order
        # needed for truncation without ranking the full (potentially huge)
        # path set.  A prefix length with no walk from the source is skipped.
        for length in range(cfg.max_path_length):
            if not masks.get(source, 0) >> length & 1:
                continue
            for prefix in _prefixes(graph, masks, source, u, length):
                if v in prefix.vertices:
                    continue
                if len(found) == cfg.max_paths:
                    truncated = True
                    break
                found.append(prefix)
            if truncated:
                break

    if found and len(found[0].edges) != len(found[-1].edges):
        # each length's run is already lexicographic; only mixed runs need a
        # sort, and the prefixes alone rank the paths, since no prefix is a
        # proper prefix of another (each visits u only at its end)
        found.sort(key=lambda prefix: [_id_key(x) for x in prefix.vertices])
    return PathEnumeration(prefixes=tuple(found), target_edge=(u, v), truncated=truncated)


def _followee_chain(pred, source, u, v, max_path_length) -> list:
    """The one prefix ``source ~> u`` avoiding ``v``, as a list of zero or one
    :class:`Prefix`, when every node has at most one followee: the walk up
    ``u``'s followees, which ends without a prefix where the chain ends,
    repeats (a cycle that misses the source) or exceeds the path bound."""
    walk = [u]
    on_walk = {u}
    node = u
    while node != source:
        followees = pred[node]
        if len(walk) == max_path_length or not followees:
            return []
        node = followees[0]
        if node in on_walk:
            return []
        walk.append(node)
        on_walk.add(node)
    if v in on_walk:
        return []
    vertices = tuple(reversed(walk))
    return [Prefix(vertices, tuple(zip(vertices[:-1], vertices[1:])))]


class ForwardBall(NamedTuple):
    """All walks from a source within the path bound on a DAG: layer ``d``
    holds the nodes with a walk of exactly ``d`` edges from the source, and
    ``steps[d - 1]`` leads from layer ``d - 1`` to ``d`` as ``(src_rows,
    starts)``: each edge's tail row, edges grouped by head, each group's
    start.  ``edge_rows`` maps an edge to its ``(depth, slot)`` pairs and
    ``node_rows`` a node to its ``(depth, row)`` pairs, in depth order."""

    steps: tuple
    edge_rows: dict
    node_rows: dict


def forward_ball(graph: SocialGraph, source: NodeId, max_path_length: int):
    """The memoized :class:`ForwardBall` of radius ``max_path_length - 1``
    around ``source``, or None unless the graph is acyclic with a node of two
    followees (then a missing source errors as in enumerate_paths)."""
    if graph._shape() != "dag":
        return None
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} is not a node")
    key = (source, max_path_length)
    if key not in graph._ball_cache:
        out, index = graph._sorted_out(), graph._index
        layer, steps, edge_rows, node_rows = [source], [], {}, {}
        for depth in range(1, max_path_length):
            into: dict = {}  # head -> rows of its tails, in layer order
            for row, node in enumerate(layer):
                for child in out[index[node]]:
                    into.setdefault(child, []).append(row)
            if not into:
                break
            src_rows, starts = [], []
            for head, rows in into.items():
                node_rows.setdefault(head, []).append((depth, len(starts)))
                starts.append(len(src_rows))
                for row in rows:
                    edge_rows.setdefault((layer[row], head), []).append((depth, len(src_rows)))
                    src_rows.append(row)
            layer = list(into)
            steps.append((np.array(src_rows, dtype=np.intp), np.array(starts, dtype=np.intp)))
        graph._ball_cache[key] = ForwardBall(tuple(steps), edge_rows, node_rows)
    return graph._ball_cache[key]


def _prefixes(graph, masks, source, u, length):
    """Iterate the simple paths source ~> u of exactly ``length`` edges, as
    :class:`Prefix` records in lexicographic order.

    The search runs lazily and is memoized per ``(source, u, length)``: a
    ``tee`` iterator that is never advanced keeps every prefix produced so far,
    and each caller reads a copy of it, so the search goes only as far as the
    furthest reader has needed.  The key needs no path bound: the search reads
    bits up to ``length`` of ``masks``, the same under every bound above it.
    """
    key = (source, u, length)
    memo = graph._prefix_cache.get(key)
    if memo is None:
        # the search holds the graph's tables, not the graph, so the memo
        # forms no reference cycle through the graph
        search = _prefix_search(graph._sorted_out(), graph._index, masks, source, u, length)
        memo = graph._prefix_cache[key] = tee(search, 1)[0]
    return copy(memo)


def _prefix_search(out, index, masks, source, u, length):
    """Yield the simple paths source ~> u of exactly ``length`` edges, as
    :class:`Prefix` records.

    ``out`` holds the sorted follower lists by dense ``index``, so yields are
    lexicographic.  A prefix ends at its first visit to u, and the search
    enters a child only when the walk masks ``masks`` admit a walk of exactly
    the remaining length from it to u.  The edge pairs of the current branch
    are built once and shared by every prefix yielded below it.
    """
    if source == u:
        if length == 0:
            yield Prefix((source,), ())
        return
    path = [source]
    edges = []
    on_path = {source}
    children = [iter(out[index[source]])]
    while children:
        remaining = length - len(path)  # edges left after stepping to a child
        bit = 1 << remaining
        for child in children[-1]:
            if child in on_path or not masks.get(child, 0) & bit:
                continue
            if remaining == 0:  # the masks admit only u itself here
                yield Prefix((*path, child), (*edges, (path[-1], child)))
            elif child != u:
                edges.append((path[-1], child))
                path.append(child)
                on_path.add(child)
                children.append(iter(out[index[child]]))
                break
        else:
            children.pop()
            on_path.remove(path.pop())
            if edges:
                edges.pop()


# ---- flat-file ingestion ----------------------------------------------------
#
# Edge list: one record per line, "u<TAB>v".  Node features: "id<TAB>f1,f2,...".
# Both UTF-8 with LF line endings.  Numeric-looking ids are read as ints so the
# two files and JSON trace files agree on id identity.


def _parse_id(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def read_node_features(path) -> dict:
    """Read an ``id<TAB>f1,f2,...,fd`` feature file into {id: vector}.

    Every record has the length of the first.  The fields of all records are
    converted in one array, whose rows are the vectors.
    """
    ids, linenos, rows = [], [], []
    for lineno, line in enumerate(read_text(path, GraphError).split("\n"), start=1):
        if not line:
            continue
        try:
            raw_id, raw_vec = line.split("\t")
        except ValueError as exc:
            raise GraphError(f"{path}:{lineno}: bad feature record: {exc}") from exc
        node, row = _parse_id(raw_id), raw_vec.split(",")
        if rows and len(row) != len(rows[0]):
            raise GraphError(
                f"{path}:{lineno}: feature dimension {len(row)} for {node!r} does not match "
                f"the first record's {len(rows[0])}"
            )
        ids.append(node)
        linenos.append(lineno)
        rows.append(row)
    try:
        vectors = np.array(rows, dtype=float)
    except ValueError:
        # convert row by row only to name the first line with a field that is no float
        for lineno, row in zip(linenos, rows):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: bad feature record: {exc}") from exc
        raise
    return dict(zip(ids, vectors))


def load_graph(edge_path, feature_path=None, feature_dim: int = 1) -> SocialGraph:
    """Build a graph from an edge-list file plus an optional feature file.

    Nodes missing from the feature file (or all nodes, when no feature file is
    given) share one read-only zero vector of ``feature_dim`` so the graph
    stays usable for inference, which never reads features.  With a feature
    file, ``feature_dim`` is the length of its first vector.
    """
    features = read_node_features(feature_path) if feature_path else None
    if features:
        feature_dim = len(next(iter(features.values())))
    edges = []
    for lineno, line in enumerate(read_text(edge_path, GraphError).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphError(f"{edge_path}:{lineno}: expected 'u<TAB>v'")
        edges.append((_parse_id(parts[0]), _parse_id(parts[1])))
    return SocialGraph.from_edges(edges, feature_dim=feature_dim, features=features)


def save_graph(graph: SocialGraph, edge_path, feature_path=None) -> None:
    with open(edge_path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v in graph.edges():
            fh.write(f"{u}\t{v}\n")
    if feature_path is not None:
        with open(feature_path, "w", encoding="utf-8", newline="\n") as fh:
            for node in graph.nodes():
                vec = ",".join(repr(float(x)) for x in graph.features(node))
                fh.write(f"{node}\t{vec}\n")
