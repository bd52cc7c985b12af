"""Directed social graph and bounded source-to-edge path enumeration.

The graph stores followee -> follower edges and nothing else about a node.
Node ids may be ints or strings, mixed freely, and every table is keyed by
them.  Ids sort with ints before strings, each in natural order.

The one non-trivial query is :func:`enumerate_paths`: all simple directed
paths that start at a source node and end with a given target edge, with a
depth bound.  The inference engine treats each such path as a candidate route
the information took, so the enumeration order must be deterministic
(lexicographic by vertex sequence) and truncation, when the path count
explodes, must keep the shortest paths, which carry the bulk of the
probability mass.

On a single-followee graph (every node has at most one followee, as in every
trace's implied graph) a target has at most one candidate, which
:func:`followee_path` finds by walking up the followee chain from ``u`` in
O(path length), with no masks, memoized search or enumeration records; the
engine asks it first.  :func:`enumerate_paths` runs the general search on every
graph: every target edge ``(u, v)`` with the same tail ``u`` shares one search
for the prefixes ``source ~> u``: the graph memoizes them lazily per ``(source, u, length)``, and each target drops the
prefixes that pass through its own ``v``.  The search is pruned by walk-length
bitmasks held only for the ball of radius ``max_path_length - 1`` around
``u``.  A prefix carries its vertex and edge tuples, built once by the search,
and an enumeration holds its candidates as prefixes plus the target edge. On
an acyclic graph where a node has two followees, :func:`forward_ball` lays out
all walks from the source within the path bound by depth instead, once per
``(source, max_path_length)``, for the engine's forward recursion, which no
``max_paths`` cap limits.  A graph never changes once built, so each memo is
filled once and never cleared.  Queries write to the graph's memos and to the
enumerations they return, so they must not run concurrently.
"""

from __future__ import annotations

from copy import copy
from itertools import chain, tee
from typing import Hashable, NamedTuple, Optional, Sequence

import numpy as np

from cascaudit.errors import GraphError, Record, read_text

NodeId = Hashable
Edge = tuple  # (u, v) in original ids


def _id_key(node_id: NodeId) -> tuple:
    """Total-order sort key for node ids that may mix ints and strings."""
    return (isinstance(node_id, str), node_id)


class PathEnumConfig(Record):
    """Bounds for path enumeration.

    ``max_path_length`` caps the number of edges per path; ``max_paths`` caps
    how many paths are returned (shortest first when the cap binds).
    """

    _fields = ("max_path_length", "max_paths")

    def __init__(self, max_path_length: int = 8, max_paths: int = 512):
        if max_path_length < 1:
            raise GraphError("max_path_length must be >= 1")
        if max_paths < 1:
            raise GraphError("max_paths must be >= 1")
        self.__dict__.update(max_path_length=max_path_length, max_paths=max_paths)


class Prefix(NamedTuple):
    """A simple path ``source ~> u`` that visits ``u`` only at its end."""

    vertices: tuple
    edges: tuple


class PathEnumeration(Record):
    """Result of a bounded enumeration: each candidate path is a prefix
    ``source ~> u`` followed by ``target_edge`` ``(u, v)``, in path order,
    plus a truncation flag."""

    _fields = ("prefixes", "target_edge", "truncated")

    def __init__(self, prefixes: tuple, target_edge: tuple, truncated: bool = False):
        self.__dict__.update(prefixes=prefixes, target_edge=target_edge, truncated=truncated)

    def __len__(self) -> int:
        return len(self.prefixes)


class SocialGraph:
    """Directed graph, built once and never changed.

    ``SocialGraph(edges, nodes)`` takes the nodes ``nodes`` first and then
    each endpoint in order of first appearance, in one pass over ``edges``,
    and keys its follower and followee lists by node id in that order.  A
    self-loop raises :class:`GraphError` and a repeated edge is skipped.
    Every follower list is sorted once, on the first query that reads one.
    Queries fill memos (sorted followers, the walk-length masks of the nodes
    within the path bound of a tail, the lazy ``source ~> u`` prefix search,
    forward balls) that stay exact for the graph's lifetime, and are
    single-threaded: do not query one graph from several threads.
    """

    def __init__(self, edges: Sequence[Edge], nodes=()):
        out = self._out = {node: [] for node in chain(nodes, chain.from_iterable(edges))}
        pred = self._pred = {node: [] for node in out}  # node -> followees
        unique = self._edges = dict.fromkeys(edges)
        for u, v in unique:
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            out[u].append(v)
            pred[v].append(u)
        self._sorted = False  # whether the follower lists are sorted yet
        self._mask_cache: dict = {}
        self._prefix_cache: dict = {}
        self._ball_cache: dict = {}
        self._shape_memo: Optional[str] = None

    # ---- queries ----------------------------------------------------------

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._out

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self._edges

    def _sorted_out(self) -> dict:
        """The follower lists by node, each sorted on the id key."""
        if not self._sorted:
            for followers in self._out.values():
                if len(followers) > 1:
                    followers.sort(key=_id_key)
            self._sorted = True
        return self._out

    def followers(self, u: NodeId) -> list:
        """Out-neighbors of ``u`` in sorted order."""
        return list(self._sorted_out()[u])

    @property
    def node_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def nodes(self) -> list:
        return sorted(self._out, key=_id_key)

    def edges(self) -> list:
        return sorted(self._edges, key=lambda e: (_id_key(e[0]), _id_key(e[1])))

    def _walk_masks(self, target: NodeId, max_path_length: int) -> dict:
        """Node -> bitmask whose bit ``k`` is set when a walk of exactly
        ``k < max_path_length`` edges leads from the node to ``target``.

        Built by ``max_path_length - 1`` reverse frontier steps, so the memo
        holds only the ball of that radius around ``target``.  Every simple
        path is a walk, so an unset bit is an admissible pruning bound.
        :func:`enumerate_paths` passes a bound of at most ``node_count - 1``.
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
                indegree = {node: len(followees) for node, followees in self._pred.items()}
                removed = [node for node, degree in indegree.items() if not degree]
                for node in removed:  # grows as the pass removes nodes
                    for child in self._out[node]:
                        indegree[child] -= 1
                        if not indegree[child]:
                            removed.append(child)
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
    an error.  No simple path has more than ``node_count - 1`` edges, so the
    depth bound is clamped to that.
    """
    u, v = target_edge
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} is not a node")
    if not graph.has_edge(u, v):
        raise GraphError(f"target edge {target_edge!r} is not in the graph")
    max_path_length = min(cfg.max_path_length, graph.node_count - 1)

    found: list = []
    truncated = False
    if v != source:  # a simple path cannot return to its own source
        masks = graph._walk_masks(u, max_path_length)
        # Exploring one exact length at a time yields the shortest-first order
        # needed for truncation without ranking the full (potentially huge)
        # path set.  A prefix length with no walk from the source is skipped.
        for length in range(max_path_length):
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


def followee_path(graph: SocialGraph, source: NodeId, target_edge: Edge, max_path_length: int):
    """The edges of the one candidate path from ``source`` ending with the
    graph's edge ``target_edge`` ``(u, v)``, in path order, or ``()`` when
    there is none; None unless every node has at most one followee (then a
    missing source errors as in enumerate_paths).  The walk up ``u``'s
    followees ends without a path where the chain ends, reaches ``v`` or a
    node it passed (a cycle that misses the source), or would exceed
    ``max_path_length`` edges; it visits no node twice, so no bound needs
    clamping."""
    if graph._shape() != "single":
        return None
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} is not a node")
    pred = graph._pred
    node = target_edge[0]
    walk = [target_edge]  # the path's edges, last first
    seen = {node, target_edge[1]}
    while node != source:
        followees = pred[node]
        if len(walk) == max_path_length or not followees or followees[0] in seen:
            return ()
        walk.append((followees[0], node))
        node = followees[0]
        seen.add(node)
    return tuple(reversed(walk))


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
    followees (then a missing source errors as in enumerate_paths).  The
    memo holds only balls of a DAG's nodes, so a hit needs no other check.
    The bound is clamped to ``node_count - 1``, the most edges of any walk
    on a DAG."""
    max_path_length = min(max_path_length, graph.node_count - 1)
    key = (source, max_path_length)
    ball = graph._ball_cache.get(key)
    if ball is not None:
        return ball
    if graph._shape() != "dag":
        return None
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} is not a node")
    out = graph._sorted_out()
    layer, steps, edge_rows, node_rows = [source], [], {}, {}
    for depth in range(1, max_path_length):
        into: dict = {}  # head -> rows of its tails, in layer order
        for row, node in enumerate(layer):
            for child in out[node]:
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
    ball = graph._ball_cache[key] = ForwardBall(tuple(steps), edge_rows, node_rows)
    return ball


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
        search = _prefix_search(graph._sorted_out(), masks, source, u, length)
        memo = graph._prefix_cache[key] = tee(search, 1)[0]
    return copy(memo)


def _prefix_search(out, masks, source, u, length):
    """Yield the simple paths source ~> u of exactly ``length`` edges, as
    :class:`Prefix` records.

    ``out`` holds the sorted follower lists by node, so yields are
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
    children = [iter(out[source])]
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
                children.append(iter(out[child]))
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

    The file holds at least one record, every record has the length of the
    first, and every feature is finite.  The fields of all records are
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
    if not rows:
        raise GraphError(f"{path}: no feature records")
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
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=-1))
    if bad.size:
        lineno, node = linenos[bad[0]], ids[bad[0]]
        raise GraphError(f"{path}:{lineno}: features of node {node!r} are not finite")
    return dict(zip(ids, vectors))


def load_graph(edge_path) -> SocialGraph:
    """Build a graph from an edge-list file."""
    edges = []
    for lineno, line in enumerate(read_text(edge_path, GraphError).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphError(f"{edge_path}:{lineno}: expected 'u<TAB>v'")
        edges.append((_parse_id(parts[0]), _parse_id(parts[1])))
    return SocialGraph(edges)


def save_graph(edges, edge_path) -> None:
    """Write ``edges`` to an edge-list file, in the order given."""
    with open(edge_path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v in edges:
            fh.write(f"{u}\t{v}\n")
