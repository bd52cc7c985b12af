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

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from cascaudit.errors import INFO, ModelError, TraceError, log, read_text
from cascaudit.graph import SocialGraph
from cascaudit.rng import derive_rng

GENUINE, FAKE = 0, 1

_ROW_SUM_TOL = 1e-9

# The largest number of edge classes Z.  The threshold solve holds Z^2
# outcomes per posterior grid point: 33 MB per array at Z = 64 on the
# default grid of 1001 points.
MAX_CLASSES = 64


@dataclass(frozen=True)
class SpreadModel:
    """Parameters of the two edge-type chains plus the fake-news prior.

    ``initial_probs[hyp]`` is the class distribution of source-adjacent edges
    and ``transition_probs[hyp][z'][z]`` the probability that an edge of class
    ``z'`` is followed by one of class ``z``, for ``hyp`` genuine (0) or fake
    (1).  Rows must be stochastic to 1e-9; use :meth:`from_unnormalized` for
    rounded published tables.
    """

    num_classes: int
    initial_probs: np.ndarray      # shape (2, Z)
    transition_probs: np.ndarray   # shape (2, Z, Z)
    prior_fake: float = 0.5

    def __post_init__(self):
        eta = np.asarray(self.initial_probs, dtype=float)
        alpha = np.asarray(self.transition_probs, dtype=float)
        object.__setattr__(self, "initial_probs", eta)
        object.__setattr__(self, "transition_probs", alpha)
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise ModelError(f"need 2..{MAX_CLASSES} edge classes, got {self.num_classes}")
        diagnostics = validate_model(self)
        if not diagnostics.ok:
            raise ModelError("; ".join(diagnostics.issues))

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
        try:
            return cls(
                num_classes=int(data["Z"]),
                initial_probs=np.array([data["eta0"], data["eta1"]], dtype=float),
                transition_probs=np.array([data["alpha0"], data["alpha1"]], dtype=float),
                prior_fake=float(data.get("prior_fake", 0.5)),
            )
        except KeyError as exc:
            raise ModelError(f"model file missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"model file is malformed: {exc}") from exc


class ModelDiagnostics(NamedTuple):
    """Structured validation outcome; empty ``issues`` means the model is sound."""

    ok: bool
    issues: tuple


def validate_model(model) -> ModelDiagnostics:
    """Check finiteness and stochasticity of a model without raising.

    Accepts a :class:`SpreadModel` or a mapping in the model-file schema
    (``Z``/``eta0``/``eta1``/``alpha0``/``alpha1``/``prior_fake``), so raw
    rounded tables can be diagnosed before renormalization.
    """
    if isinstance(model, SpreadModel):
        num_classes = model.num_classes
        eta = model.initial_probs
        alpha = model.transition_probs
        prior = model.prior_fake
    else:
        num_classes = int(model["Z"])
        eta = np.array([model["eta0"], model["eta1"]], dtype=float)
        alpha = np.array([model["alpha0"], model["alpha1"]], dtype=float)
        prior = float(model.get("prior_fake", 0.5))

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
            dev = abs(float(eta[hyp].sum()) - 1.0)
            if dev > _ROW_SUM_TOL:
                issues.append(f"initial row {hyp} sums to {float(eta[hyp].sum()):.6f}")
            for z in range(num_classes):
                row_sum = float(alpha[hyp][z].sum())
                if abs(row_sum - 1.0) > _ROW_SUM_TOL:
                    issues.append(f"transition row [{hyp}][{z}] sums to {row_sum:.6f}")
    if not 0.0 <= prior <= 1.0:
        issues.append(f"prior_fake {prior} outside [0, 1]")
    return ModelDiagnostics(ok=not issues, issues=tuple(issues))


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


@dataclass(frozen=True)
class Trace:
    """A full cascade in generation order, optionally labeled."""

    label: Optional[int]
    source: object
    events: tuple

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, num_classes: Optional[int] = None) -> None:
        """Check lineage invariants; raises TraceError on the first violation."""
        seen_followers = {self.source}
        seen_edges = set()
        for i, ev in enumerate(self.events):
            u, v = ev.edge
            if u not in seen_followers:
                raise TraceError(
                    f"event {i}: edge {ev.edge!r} does not descend from the source"
                )
            if ev.parent_edge is not None:
                if ev.parent_edge not in seen_edges:
                    raise TraceError(f"event {i}: parent edge {ev.parent_edge!r} not seen earlier")
                if ev.parent_edge[1] != u:
                    raise TraceError(
                        f"event {i}: parent edge {ev.parent_edge!r} does not end at {u!r}"
                    )
            elif u != self.source:
                raise TraceError(f"event {i}: non-source edge {ev.edge!r} lacks a parent")
            if ev.cls is not None and num_classes is not None and not 0 <= ev.cls < num_classes:
                raise TraceError(f"event {i}: class {ev.cls} out of range")
            seen_followers.add(v)
            seen_edges.add(ev.edge)

    def implied_graph(self, feature_dim: int = 1) -> SocialGraph:
        """Graph formed by exactly this trace's nodes and edges (zero features)."""
        return SocialGraph.from_edges([ev.edge for ev in self.events], (self.source,), feature_dim)


class Observation(NamedTuple):
    """An observed retweet: edge identity plus edge class."""

    u: object
    v: object
    cls: int

    @property
    def edge(self) -> tuple:
        return (self.u, self.v)


@dataclass(frozen=True)
class ObservationStream:
    """The detector's input: an ordered, possibly subsampled event sequence."""

    source: object
    observations: tuple

    def __len__(self) -> int:
        return len(self.observations)


# ---- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class GrowthConfig:
    """Branching behavior of the simulator.

    Each infected node retweets to ``k`` followers with ``k`` drawn from a
    geometric distribution of mean ``mean_children``, clamped to
    ``[min_children, max_children]`` and to the available followers.  The
    source always spawns at least one event when it has followers, so a trace
    is never empty.  Without a real graph the simulator grows a fresh tree,
    minting node ids ``id_base, id_base + 1, ...`` with the source at
    ``id_base``.
    """

    max_events: int = 200
    mean_children: float = 1.6
    max_children: int = 6
    min_children: int = 0
    id_base: int = 0

    def __post_init__(self):
        if self.max_events < 1:
            raise TraceError("max_events must be >= 1")
        if not 0 < self.mean_children < math.inf:
            raise TraceError("mean_children must be positive and finite")
        if not 0 <= self.min_children <= self.max_children:
            raise TraceError("need 0 <= min_children <= max_children")


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
    eta_cum = np.cumsum(model.initial_probs[label])
    alpha_cum = np.cumsum(model.transition_probs[label], axis=1)

    def draw_class(in_class):
        cum = eta_cum if in_class is None else alpha_cum[in_class]
        return min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)

    events = []
    infecting_edge = {}  # node -> edge it was infected through (None for source)
    if graph is None:
        source = growth.id_base
        next_id = growth.id_base + 1
        infecting_edge[source] = None
        # frontier entries: (node, class of the edge that infected it)
        frontier = [(source, None)]
        while frontier and len(events) < growth.max_events:
            node, in_class = frontier.pop(0)
            k = _child_count(rng, growth)
            if in_class is None:
                k = max(k, 1)
            k = min(k, growth.max_events - len(events))
            for _ in range(k):
                child = next_id
                next_id += 1
                cls = draw_class(in_class)
                edge = (node, child)
                events.append(TraceEvent(edge=edge, cls=cls, parent_edge=infecting_edge[node]))
                infecting_edge[child] = edge
                frontier.append((child, cls))
    else:
        if source is None or not graph.has_node(source):
            raise TraceError(f"source {source!r} is not a graph node")
        infected = {source}
        infecting_edge[source] = None
        frontier = [(source, None)]
        while frontier and len(events) < growth.max_events:
            node, in_class = frontier.pop(0)
            candidates = [w for w in graph.followers(node) if w not in infected]
            if not candidates:
                if in_class is None and not events:
                    raise TraceError(f"source {source!r} has no uninfected followers")
                continue
            k = _child_count(rng, growth)
            if in_class is None:
                k = max(k, 1)
            k = min(k, len(candidates), growth.max_events - len(events))
            chosen = [candidates[i] for i in rng.permutation(len(candidates))[:k]]
            for child in chosen:
                cls = draw_class(in_class)
                edge = (node, child)
                infected.add(child)
                events.append(TraceEvent(edge=edge, cls=cls, parent_edge=infecting_edge[node]))
                infecting_edge[child] = edge
                frontier.append((child, cls))
    if not events:
        raise TraceError("simulation produced no events")
    return Trace(label=label, source=source, events=tuple(events))


def subsample(trace: Trace, keep_fraction: float, seed: int) -> ObservationStream:
    """Keep each event independently with probability ``keep_fraction``.

    Relative order is preserved and parent pointers are dropped: the detector
    must reconstruct lineage itself.  An all-dropped draw is redrawn so the
    stream is never empty.  Every event must carry a class.
    """
    if not trace.events:
        raise TraceError("cannot subsample an empty trace")
    if not 0.0 < keep_fraction <= 1.0:
        raise TraceError("keep_fraction must be in (0, 1]")
    if any(ev.cls is None for ev in trace.events):
        raise TraceError("cannot subsample a trace with unclassified events")
    rng = derive_rng(seed)
    while True:
        mask = rng.random(len(trace.events)) < keep_fraction
        if mask.any():
            break
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


def load_model(path) -> tuple:
    """Read a model file; returns (SpreadModel, classifier section or None)."""
    data = json.loads(read_text(path, ModelError))
    return SpreadModel.from_dict(data), data.get("classifier")


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
    """A trace label is a JSON integer, or null when unlabeled."""
    if label is None or type(label) is int:
        return label
    raise ValueError(f"label {label!r} is not an integer or null")


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
    return TraceEvent(edge=(u, v), cls=cls, parent_edge=parent)


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
    traces = []
    for lineno, line in enumerate(read_text(path, TraceError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            events = tuple(map(_event_from_json, record["events"]))
            traces.append(
                Trace(
                    label=_label_from_json(record.get("label")),
                    source=_node_from_json(record["source"]),
                    events=events,
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
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
        return ObservationStream(source=source, observations=observations)
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceError(f"{path}: bad observation stream: {exc}") from exc
