"""Seeded input generators for the benchmark workloads.

Every input is made here from the workload seed with the standard library's
``random.Random`` (string-seeded, stable across Python versions), never with
``cascaudit.markov.sample_trace``: a change to the package's simulator or RNG
plumbing must not shift the inputs a benchmark run feeds it.  The edge classes
follow the package's built-in four-class reference chains, copied below.

Files use the package's documented formats: trace JSONL, graph TSV
(``u<TAB>v``), node-feature TSV (``id<TAB>f1,...,fd``) and observation-stream
JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

_ETA = (
    (0.872, 0.004, 0.003, 0.120),  # genuine
    (0.101, 0.006, 0.015, 0.876),  # fake
)
_ALPHA = (
    (
        (0.159, 0.029, 0.191, 0.621),
        (0.959, 0.001, 0.001, 0.039),
        (0.057, 0.017, 0.016, 0.910),
        (0.057, 0.145, 0.027, 0.771),
    ),
    (
        (0.659, 0.017, 0.028, 0.297),
        (0.065, 0.015, 0.021, 0.899),
        (0.064, 0.011, 0.075, 0.850),
        (0.026, 0.004, 0.006, 0.964),
    ),
)

# Workload shapes.  The "why" of each shape is recorded in metric_map.json.
TREE = {"traces": 100, "max_events": 60, "mean_children": 1.6,
        "min_children": 1, "max_children": 6, "feature_dim": 4}
LAYERED = {"layers": 8, "width": 30, "out_degree": 4, "traces": 24,
           "max_events": 100, "mean_children": 2.0, "min_children": 2, "max_children": 2}

TREE_ID_STRIDE = 1_000_000
# The CLI's default --max-path-len: eval skips observations deeper than this
# and rejects a stream in which it can process none.
MAX_PATH_LEN = 8


def _cumulative(row):
    total = sum(row)
    acc, out = 0.0, []
    for p in row:
        acc += p / total
        out.append(acc)
    return out


_ETA_CUM = [_cumulative(r) for r in _ETA]
_ALPHA_CUM = [[_cumulative(r) for r in rows] for rows in _ALPHA]


def _draw_class(rng, label, parent_cls):
    cum = _ETA_CUM[label] if parent_cls is None else _ALPHA_CUM[label][parent_cls]
    u = rng.random()
    for cls, edge in enumerate(cum):
        if u < edge:
            return cls
    return len(cum) - 1


def _geometric(rng, mean):
    """Draw on {0, 1, ...} with the given mean."""
    p = 1.0 / (1.0 + mean)
    return int(math.log(1.0 - rng.random()) / math.log(1.0 - p))


def _children(rng, mean, lo, hi):
    return min(max(_geometric(rng, mean), lo), hi)


def _rng(workload, seed, stream):
    return random.Random(f"cascaudit-bench/{workload}/{seed}/{stream}")


def _tree_trace(rng, label, base, shape):
    events = []
    infecting = {base: None}
    frontier = [(base, None)]
    next_id = base + 1
    head = 0
    while head < len(frontier) and len(events) < shape["max_events"]:
        node, in_cls = frontier[head]
        head += 1
        k = _children(rng, shape["mean_children"], shape["min_children"], shape["max_children"])
        k = min(k, shape["max_events"] - len(events))
        for _ in range(k):
            child = next_id
            next_id += 1
            cls = _draw_class(rng, label, in_cls)
            events.append((node, child, cls, infecting[node]))
            infecting[child] = (node, child)
            frontier.append((child, cls))
    return {"label": label, "source": base, "events": events}


def _graph_trace(rng, label, source, followers, shape):
    """Cascade over a real graph: each node infects at most once."""
    events = []
    infecting = {source: None}
    frontier = [(source, None)]
    head = 0
    while head < len(frontier) and len(events) < shape["max_events"]:
        node, in_cls = frontier[head]
        head += 1
        candidates = [w for w in followers.get(node, ()) if w not in infecting]
        if not candidates:
            continue
        k = _children(rng, shape["mean_children"], shape["min_children"], shape["max_children"])
        k = min(k, len(candidates), shape["max_events"] - len(events))
        for child in rng.sample(candidates, k):
            cls = _draw_class(rng, label, in_cls)
            events.append((node, child, cls, infecting[node]))
            infecting[child] = (node, child)
            frontier.append((child, cls))
    return {"label": label, "source": source, "events": events}


def _write_traces(traces, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in traces:
            record = {
                "label": t["label"],
                "source": t["source"],
                "events": [
                    {"u": u, "v": v, "class": c, "parent": None if p is None else list(p)}
                    for u, v, c, p in t["events"]
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _write_edges(edges, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v in sorted(edges):
            fh.write(f"{u}\t{v}\n")


def _write_features(nodes, rng, dim, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for node in nodes:
            vec = ",".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(dim))
            fh.write(f"{node}\t{vec}\n")


def _write_stream(trace, path):
    """One-observation stream: the trace's first (source-adjacent) event."""
    u, v, c, _ = trace["events"][0]
    record = {"source": trace["source"], "observations": [{"u": u, "v": v, "class": c}]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


def _labels(rng, n):
    """Exactly half fake, in seeded order: the label mix drives how long dp
    and convergence streams run, so it is held fixed across seeds."""
    labels = [i % 2 for i in range(n)]
    rng.shuffle(labels)
    return labels


def _shallow_events(trace):
    depth = {trace["source"]: 0}
    for u, v, _, _ in trace["events"]:
        depth[v] = depth[u] + 1
    return sum(depth[v] <= MAX_PATH_LEN for _, v, _, _ in trace["events"])


def _reachable_tree_trace(rng, label, base, shape):
    """A tree trace at least half of whose events lie within MAX_PATH_LEN of
    the source.  eval subsamples each trace at rho 0.5 and rejects the corpus
    when a stream keeps no reachable observation; a near-chain trace with 8
    reachable events of 60 loses them all with probability 1/256, which made
    seed 43 fail.  At half the events the chance is 2^-30 per trace."""
    while True:
        trace = _tree_trace(rng, label, base, shape)
        if 2 * _shallow_events(trace) >= len(trace["events"]):
            return trace


def make_tree(seed, out):
    rng = _rng("tree", seed, "traces")
    labels = _labels(rng, TREE["traces"])
    traces = [
        _reachable_tree_trace(rng, label, i * TREE_ID_STRIDE, TREE)
        for i, label in enumerate(labels)
    ]
    _write_traces(traces, out / "traces.jsonl")
    edges = {(u, v) for t in traces for u, v, _, _ in t["events"]}
    nodes = sorted({node for edge in edges for node in edge})
    _write_edges(edges, out / "graph.tsv")
    # features drawn from their own stream, so the traces do not depend on them
    _write_features(nodes, _rng("tree", seed, "features"), TREE["feature_dim"],
                    out / "features.tsv")
    _write_stream(traces[0], out / "stream.json")
    return {"traces": len(traces), "events": sum(len(t["events"]) for t in traces),
            "nodes": len(nodes)}


def make_layered(seed, out):
    """Single source followed by all of layer 1; between consecutive layers a
    shuffled circulant wiring gives every node exactly ``out_degree``
    followers and followees, so a node in layer k has exactly
    ``out_degree ** (k - 1)`` source paths whatever the seed."""
    shape = LAYERED
    rng = _rng("layered", seed, "graph")
    width, degree = shape["width"], shape["out_degree"]
    layer = [[0]] + [
        [l * 1000 + j for j in range(width)] for l in range(1, shape["layers"] + 1)
    ]
    followers = {0: list(layer[1])}
    for l in range(1, shape["layers"]):
        nxt = list(layer[l + 1])
        rng.shuffle(nxt)
        for i, node in enumerate(layer[l]):
            followers[node] = sorted(nxt[(i + d) % width] for d in range(degree))
    edges = {(u, v) for u, vs in followers.items() for v in vs}
    _write_edges(edges, out / "graph.tsv")
    rng = _rng("layered", seed, "traces")
    labels = _labels(rng, shape["traces"])
    traces = [_graph_trace(rng, label, 0, followers, shape) for label in labels]
    _write_traces(traces, out / "traces.jsonl")
    _write_stream(traces[0], out / "stream.json")
    return {"nodes": 1 + width * shape["layers"], "edges": len(edges),
            "traces": len(traces), "events": sum(len(t["events"]) for t in traces)}


MAKERS = {"tree": make_tree, "layered": make_layered}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_inputs(workload, seed, out: Path) -> tuple:
    """Write the workload's inputs into ``out``; return (summary, {file: sha256})."""
    out.mkdir(parents=True, exist_ok=True)
    summary = MAKERS[workload](seed, out)
    digests = {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    return summary, digests
