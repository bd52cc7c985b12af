"""Edge-type Markov chains, the cascade simulator, and trace/model files.

Information of type ``hyp`` (0 = genuine, 1 = fake) spreads over a graph; each
retweet event occupies one directed edge, and every edge carries a class in
``{0, ..., Z-1}``.  Along any directed path the classes form a first-order
Markov chain: source-adjacent edges draw their class from an initial
distribution, every other edge from a transition row conditioned on its parent
edge's class.  Genuine and fake items use different parameter sets, which is
the entire statistical signal the detector works with.
"""

from __future__ import annotations

import gc
import json
import math
from bisect import bisect_right
from collections import deque
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from cascaudit.errors import INFO, ModelError, Record, TraceError, log, read_text
from cascaudit.graph import SocialGraph
from cascaudit.rng import derive_rng

GENUINE, FAKE = 0, 1

_ROW_SUM_TOL = 1e-9

# The largest number of edge classes Z.  The threshold solve holds Z^2
# outcomes per posterior grid point: 33 MB per array at Z = 64 on the
# default grid of 1001 points.
MAX_CLASSES = 64

# JSON decoding yields exact types, so ``type(x) in _NUMBER_TYPES`` excludes bools.
_NUMBER_TYPES = (int, float)


class SpreadModel(Record):
    """Parameters of the two edge-type chains plus the fake-news prior.

    ``initial_probs[hyp]`` is the class distribution of source-adjacent edges
    and ``transition_probs[hyp][z'][z]`` the probability that an edge of class
    ``z'`` is followed by one of class ``z``, for ``hyp`` genuine (0) or fake
    (1).  Rows must be stochastic to 1e-9; use :meth:`from_unnormalized` for
    rounded published tables.  A model that fails a check raises one
    :class:`ModelError` naming every issue found.
    """

    _fields = ("num_classes", "initial_probs", "transition_probs", "prior_fake")

    def __init__(self, num_classes: int,
                 initial_probs: np.ndarray,     # shape (2, Z)
                 transition_probs: np.ndarray,  # shape (2, Z, Z)
                 prior_fake: float = 0.5):
        self.__dict__.update(num_classes=num_classes,
                             initial_probs=np.asarray(initial_probs, dtype=float),
                             transition_probs=np.asarray(transition_probs, dtype=float),
                             prior_fake=prior_fake)
        if not 2 <= num_classes <= MAX_CLASSES:
            raise ModelError(f"need 2..{MAX_CLASSES} edge classes, got {num_classes}")
        eta, alpha = self.initial_probs, self.transition_probs
        issues = []
        if eta.shape != (2, num_classes):
            issues.append(f"initial probabilities have shape {eta.shape}, expected (2, {num_classes})")
        if alpha.shape != (2, num_classes, num_classes):
            issues.append(
                f"transition probabilities have shape {alpha.shape}, "
                f"expected (2, {num_classes}, {num_classes})"
            )
        if not issues and not (np.isfinite(eta).all() and np.isfinite(alpha).all()):
            issues.append("initial and transition probabilities must be finite")
        if not issues:
            for hyp in (GENUINE, FAKE):
                for z in range(num_classes):
                    if eta[hyp][z] < 0:
                        issues.append(f"initial_probs[{hyp}][{z}] is negative")
                    for z2 in range(num_classes):
                        if alpha[hyp][z][z2] < 0:
                            issues.append(f"transition_probs[{hyp}][{z}][{z2}] is negative")
            for hyp in (GENUINE, FAKE):
                row_sum = float(eta[hyp].sum())
                if abs(row_sum - 1.0) > _ROW_SUM_TOL:
                    issues.append(f"initial row {hyp} sums to {row_sum:.6f}")
                for z in range(num_classes):
                    row_sum = float(alpha[hyp][z].sum())
                    if abs(row_sum - 1.0) > _ROW_SUM_TOL:
                        issues.append(f"transition row [{hyp}][{z}] sums to {row_sum:.6f}")
        if not 0.0 <= prior_fake <= 1.0:
            issues.append(f"prior_fake {prior_fake} outside [0, 1]")
        if issues:
            raise ModelError("; ".join(issues))

    @classmethod
    def from_unnormalized(
        cls,
        initial_probs,
        transition_probs,
        prior_fake: float = 0.5,
    ) -> "SpreadModel":
        """Build a model from rows that sum to 1 only up to rounding.

        Each row is renormalized; the worst deviation is logged so silently
        fixing a genuinely broken table is impossible to miss.
        """
        eta = np.asarray(initial_probs, dtype=float)
        alpha = np.asarray(transition_probs, dtype=float)
        if np.any(eta < 0) or np.any(alpha < 0):
            raise ModelError("negative probability entries cannot be renormalized")
        deviations = [
            float(np.abs(eta.sum(axis=-1) - 1.0).max()),
            float(np.abs(alpha.sum(axis=-1) - 1.0).max()),
        ]
        worst = max(deviations)
        if worst > _ROW_SUM_TOL:
            log(__name__, INFO, "renormalizing model rows (worst row-sum deviation %.3g)",
                worst)
        eta = eta / eta.sum(axis=-1, keepdims=True)
        alpha = alpha / alpha.sum(axis=-1, keepdims=True)
        return cls(
            num_classes=eta.shape[-1],
            initial_probs=eta,
            transition_probs=alpha,
            prior_fake=prior_fake,
        )

    def to_dict(self) -> dict:
        return {
            "Z": int(self.num_classes),
            "eta0": [float(x) for x in self.initial_probs[GENUINE]],
            "eta1": [float(x) for x in self.initial_probs[FAKE]],
            "alpha0": [[float(x) for x in row] for row in self.transition_probs[GENUINE]],
            "alpha1": [[float(x) for x in row] for row in self.transition_probs[FAKE]],
            "prior_fake": float(self.prior_fake),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpreadModel":
        """The model of a model file's JSON: ``Z`` must be an integer, and
        ``prior_fake`` and every probability a number (never a bool)."""
        try:
            num_classes, prior_fake = data["Z"], data.get("prior_fake", 0.5)
            if type(num_classes) is not int:
                raise ValueError(f"Z {num_classes!r} is not an integer")
            if type(prior_fake) not in _NUMBER_TYPES:
                raise ValueError(f"prior_fake {prior_fake!r} is not a number")
            tables = [data["eta0"], data["eta1"]], [data["alpha0"], data["alpha1"]]
            eta, alpha = (np.array(table, dtype=float) for table in tables)  # ragged raises
            for table in tables:
                for p in np.array(table, dtype=object).flat:
                    if type(p) not in _NUMBER_TYPES:
                        raise ValueError(f"probability {p!r} is not a number")
            return cls(num_classes, eta, alpha, float(prior_fake))
        except KeyError as exc:
            raise ModelError(f"model file missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"model file is malformed: {exc}") from exc


# ---- reference parameters ----------------------------------------------------
#
# Built-in four-class parameters estimated on a large labeled microblog rumor
# corpus.  Genuine spread concentrates on low classes while fake spread is
# nearly absorbed in the top class, which is what makes the two chains
# statistically separable.  Rows are rounded to three decimals and are
# renormalized on load.

REFERENCE_TRANSITIONS_GENUINE = [
    [0.159, 0.029, 0.191, 0.621],
    [0.959, 0.001, 0.001, 0.039],
    [0.057, 0.017, 0.016, 0.910],
    [0.057, 0.145, 0.027, 0.771],
]

REFERENCE_TRANSITIONS_FAKE = [
    [0.659, 0.017, 0.028, 0.297],
    [0.065, 0.015, 0.021, 0.899],
    [0.064, 0.011, 0.075, 0.850],
    [0.026, 0.004, 0.006, 0.964],
]

REFERENCE_INITIAL_GENUINE = [0.872, 0.004, 0.003, 0.120]
REFERENCE_INITIAL_FAKE = [0.101, 0.006, 0.015, 0.876]


def reference_model(prior_fake: float = 0.5) -> SpreadModel:
    """The built-in four-class model (rows renormalized)."""
    return SpreadModel.from_unnormalized(
        initial_probs=[REFERENCE_INITIAL_GENUINE, REFERENCE_INITIAL_FAKE],
        transition_probs=[REFERENCE_TRANSITIONS_GENUINE, REFERENCE_TRANSITIONS_FAKE],
        prior_fake=prior_fake,
    )


# ---- traces and observation streams ------------------------------------------


class TraceEvent(NamedTuple):
    """One retweet: an edge, its class (None when unclassified), its parent edge."""

    edge: tuple
    cls: Optional[int]
    parent_edge: Optional[tuple] = None


class Trace(Record):
    """A full cascade in generation order, labeled 0, 1 or None.  As read from
    a file, an event names no parent exactly when its tail is the source, and
    any other event's parent is an earlier event's edge ending at its tail."""

    _fields = ("label", "source", "events")

    def __init__(self, label: Optional[int], source, events: tuple):
        self.__dict__.update(label=label, source=source, events=events)

    def __len__(self) -> int:
        return len(self.events)

    def implied_graph(self) -> SocialGraph:
        """Graph formed by exactly this trace's nodes and edges."""
        return SocialGraph([ev.edge for ev in self.events], (self.source,))


class Observation(NamedTuple):
    """An observed retweet: edge identity plus edge class."""

    u: object
    v: object
    cls: int

    @property
    def edge(self) -> tuple:
        return (self.u, self.v)


class ObservationStream(Record):
    """The detector's input: an ordered, possibly subsampled event sequence."""

    _fields = ("source", "observations")

    def __init__(self, source, observations: tuple):
        self.__dict__.update(source=source, observations=observations)

    def __len__(self) -> int:
        return len(self.observations)


# ---- simulation ---------------------------------------------------------------


class GrowthConfig(Record):
    """Branching behavior of the simulator.

    Each infected node retweets to ``k`` followers with ``k`` drawn from a
    geometric distribution of mean ``mean_children``, clamped to
    ``[min_children, max_children]`` and to the available followers.  The
    source always spawns at least one event when it has followers, so a trace
    is never empty.  Without a real graph the simulator grows a fresh tree,
    minting node ids ``id_base, id_base + 1, ...`` with the source at
    ``id_base``.
    """

    _fields = ("max_events", "mean_children", "max_children", "min_children", "id_base")

    def __init__(self, max_events: int = 200, mean_children: float = 1.6,
                 max_children: int = 6, min_children: int = 0, id_base: int = 0):
        if max_events < 1:
            raise TraceError("max_events must be >= 1")
        if not 0 < mean_children < math.inf:
            raise TraceError("mean_children must be positive and finite")
        if not 0 <= min_children <= max_children:
            raise TraceError("need 0 <= min_children <= max_children")
        self.__dict__.update(max_events=max_events, mean_children=mean_children,
                             max_children=max_children, min_children=min_children,
                             id_base=id_base)


def _child_count(rng: np.random.Generator, growth: GrowthConfig) -> int:
    # geometric on {1, 2, ...} shifted to {0, 1, ...}; mean = mean_children
    draw = int(rng.geometric(1.0 / (1.0 + growth.mean_children))) - 1
    return min(max(draw, growth.min_children), growth.max_children)


def sample_trace(
    graph: Optional[SocialGraph],
    model: SpreadModel,
    label: int,
    seed: int,
    growth: GrowthConfig = GrowthConfig(),
    source=None,
) -> Trace:
    """Simulate one labeled cascade in generation order.

    With a real ``graph`` the cascade spreads from ``source`` over actual
    edges, infecting each node at most once; with ``graph=None`` it grows a
    synthetic tree.  Source-adjacent edge classes follow the initial
    distribution of ``label``'s chain, every other edge class follows the
    transition row of its parent edge's class.
    """
    if label not in (GENUINE, FAKE):
        raise TraceError(f"label must be 0 or 1, got {label!r}")
    rng = derive_rng(seed)
    eta_cum = np.cumsum(model.initial_probs[label]).tolist()
    alpha_cum = np.cumsum(model.transition_probs[label], axis=1).tolist()

    def draw_class(in_class):
        cum = eta_cum if in_class is None else alpha_cum[in_class]
        return min(bisect_right(cum, rng.random()), len(cum) - 1)

    if graph is None:
        source = last_id = growth.id_base
    elif source is None or not graph.has_node(source):
        raise TraceError(f"source {source!r} is not a graph node")
    events = []
    infecting_edge = {source: None}  # infected node -> edge it was infected through
    frontier = deque([(source, None)])  # (node, class of the edge that infected it)
    while frontier and len(events) < growth.max_events:
        node, in_class = frontier.popleft()
        if graph is not None:
            candidates = [w for w in graph.followers(node) if w not in infecting_edge]
            if not candidates:
                if in_class is None:
                    raise TraceError(f"source {source!r} has no uninfected followers")
                continue
        k = _child_count(rng, growth)
        if in_class is None:
            k = max(k, 1)
        k = min(k, growth.max_events - len(events))
        if graph is None:  # a tree: every child is a new node
            children = range(last_id + 1, last_id + k + 1)
            last_id += k
        else:
            k = min(k, len(candidates))
            children = [candidates[i] for i in rng.permutation(len(candidates))[:k]]
        for child in children:
            cls = draw_class(in_class)
            edge = (node, child)
            events.append(TraceEvent(edge=edge, cls=cls, parent_edge=infecting_edge[node]))
            infecting_edge[child] = edge
            frontier.append((child, cls))
    return Trace(label=label, source=source, events=tuple(events))


# Draws of the keep mask per trace: a keep fraction of 0.001 on a one-event
# trace exhausts them with probability 0.999^100000, below 4e-44.
MAX_SUBSAMPLE_DRAWS = 100_000


def subsample(trace: Trace, keep_fraction: float, seed: int) -> ObservationStream:
    """Keep each event independently with probability ``keep_fraction``.

    Relative order is preserved and parent pointers are dropped: the detector
    must reconstruct lineage itself.  An all-dropped draw is redrawn so the
    stream is never empty, at most :data:`MAX_SUBSAMPLE_DRAWS` times in all,
    after which :class:`TraceError` is raised.  Every event must carry a class.
    """
    if not trace.events:
        raise TraceError("cannot subsample an empty trace")
    if not 0.0 < keep_fraction <= 1.0:
        raise TraceError("keep_fraction must be in (0, 1]")
    if any(ev.cls is None for ev in trace.events):
        raise TraceError("cannot subsample a trace with unclassified events")
    rng = derive_rng(seed)
    for _ in range(MAX_SUBSAMPLE_DRAWS):
        mask = rng.random(len(trace.events)) < keep_fraction
        if mask.any():
            break
    else:
        raise TraceError(f"rho {keep_fraction!r} kept no event of a {len(trace.events)}-event "
                         f"trace in {MAX_SUBSAMPLE_DRAWS} draws")
    observations = tuple(
        Observation(u=ev.edge[0], v=ev.edge[1], cls=int(ev.cls))
        for ev, keep in zip(trace.events, mask.tolist())
        if keep
    )
    return ObservationStream(source=trace.source, observations=observations)


# ---- file formats -------------------------------------------------------------


def save_model(model: SpreadModel, path, classifier: Optional[dict] = None) -> None:
    """Write the model file; ``classifier`` is an optional extra section."""
    data = model.to_dict()
    if classifier is not None:
        data["classifier"] = classifier
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> SpreadModel:
    """Read a model file.  Its ``"classifier"`` section, which ``train``
    writes, is not read."""
    try:
        data = json.loads(read_text(path, ModelError))
    except RecursionError:
        raise ModelError(f"{path}: model file is nested too deeply to parse") from None
    return SpreadModel.from_dict(data)


def _edge_to_json(edge):
    return None if edge is None else list(edge)


# JSON decoding yields exact types, so ``type(x) is int`` also excludes bools.
_ID_TYPES = (int, str)


def _node_from_json(node):
    """A node id is a JSON integer or string."""
    if type(node) in _ID_TYPES:
        return node
    raise ValueError(f"node id {node!r} is not an integer or string")


def _label_from_json(label):
    """A trace label is 0 (genuine), 1 (fake), or null when unlabeled."""
    if type(label) is not int and label is not None:
        raise ValueError(f"label {label!r} is not an integer or null")
    if label not in (None, GENUINE, FAKE):
        raise ValueError(f"label {label} is not 0, 1 or null")
    return label


_new_event = partial(tuple.__new__, TraceEvent)  # TraceEvent(*fields), minus a Python call


def _event_from_json(record) -> TraceEvent:
    """An event's ends are node ids, its class an integer or null, and its
    parent edge null or a ``[u, v]`` pair of node ids."""
    u, v, cls, parent = record["u"], record["v"], record.get("class"), record.get("parent")
    if parent is not None:
        if not (type(parent) is list and len(parent) == 2
                and type(parent[0]) in _ID_TYPES and type(parent[1]) in _ID_TYPES):
            raise ValueError(f"parent edge {parent!r} is not a [u, v] pair of node ids")
        parent = tuple(parent)
    if type(u) not in _ID_TYPES or type(v) not in _ID_TYPES:
        raise ValueError(f"edge ({u!r}, {v!r}) has a node id that is not an integer or string")
    if cls is not None and type(cls) is not int:
        raise ValueError(f"event class {cls!r} is not an integer or null")
    return _new_event(((u, v), cls, parent))


def _check_lineage(source, events) -> None:
    """Each node is infected once: an event names no parent exactly when its
    tail is the source, and otherwise the earlier event that infected its
    tail; its head is neither the source nor a node infected before."""
    infecting = {source: None}  # infected node -> the edge that infected it
    for edge, _, parent in events:
        tail, head = edge
        if tail not in infecting or infecting[tail] != parent:
            if tail == source:
                raise ValueError(f"edge {edge!r} leaves the source but names parent {parent!r}")
            raise ValueError(f"edge {edge!r} does not leave source {source!r}, and its parent "
                             f"{parent!r} is not an earlier event's edge ending at {tail!r}")
        if head in infecting:
            raise ValueError(f"edge {edge!r} enters {head!r}, which is already infected")
        infecting[head] = edge


def write_traces(traces: Sequence[Trace], path) -> None:
    """One JSON record per line per trace."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for trace in traces:
            record = {
                "label": trace.label,
                "source": trace.source,
                "events": [
                    {
                        "u": ev.edge[0],
                        "v": ev.edge[1],
                        "class": ev.cls,
                        "parent": _edge_to_json(ev.parent_edge),
                    }
                    for ev in trace.events
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_traces(path) -> list:
    """The traces of a JSONL file, one record per nonblank line.

    The cyclic garbage collector is paused while the records are parsed (and
    restored as it was): they hold no reference cycles, and the collections
    that their many small containers would trigger cost about a tenth of the
    parse, even with the import-time heap frozen as ``cli.main`` leaves it
    (1.2 of 12.9 ms for 6000 events, median of 30 fresh processes on one
    Xeon vCPU; the paused parse was faster in 26 of them).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse_traces(path)
    finally:
        if collecting:
            gc.enable()


def _parse_traces(path) -> list:
    traces = []
    for lineno, line in enumerate(read_text(path, TraceError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            events = tuple(map(_event_from_json, record["events"]))
            label = _label_from_json(record.get("label"))
            source = _node_from_json(record["source"])
            _check_lineage(source, events)
            traces.append(Trace(label=label, source=source, events=events))
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise TraceError(f"{path}:{lineno}: bad trace record: {exc}") from exc
    return traces


def write_stream(stream: ObservationStream, path) -> None:
    record = {
        "source": stream.source,
        "observations": [{"u": o.u, "v": o.v, "class": o.cls} for o in stream.observations],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _observation_from_json(record) -> Observation:
    """An observation's class is a JSON integer; its ends are node ids."""
    cls = record["class"]
    if type(cls) is not int:
        raise ValueError(f"observation class {cls!r} is not an integer")
    return Observation(u=_node_from_json(record["u"]), v=_node_from_json(record["v"]), cls=cls)


def read_stream(path) -> ObservationStream:
    try:
        record = json.loads(read_text(path, TraceError))
        observations = tuple(map(_observation_from_json, record["observations"]))
        source = _node_from_json(record["source"])
        seen: set = set()
        for obs in observations:  # the whole stream: a detector may stop before a repeat
            if obs.edge in seen:
                raise ValueError(f"edge {obs.edge!r} observed twice; "
                                 "a stream observes each edge at most once")
            seen.add(obs.edge)
        return ObservationStream(source=source, observations=observations)
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        raise TraceError(f"{path}: bad observation stream: {exc}") from exc
