"""Offline training: edge classifier plus spread-parameter estimation.

The pipeline mirrors how the detector will consume its inputs:

1. every labeled cascade is summarized by one feature vector, the mean of the
   concatenated (followee, follower) node-feature pairs over its events;
2. a linear classifier is fit to those vectors by hinge-loss subgradient
   descent, and its margins are calibrated to [0, 1] by a percentile min-max
   map;
3. calibrated scores bin into ``num_classes`` equal intervals, assigning every
   graph edge a class;
4. initial and transition probabilities are estimated by counting classes on
   source-adjacent edges and on parent-child edge pairs, per label.

Estimation works from recorded event classes when traces carry them (the
synthetic path) or from classifier-assigned classes (the real-data path).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from cascaudit.errors import WARNING, DegenerateDataError, EstimationError, TraceError, log
from cascaudit.graph import SocialGraph
from cascaudit.markov import FAKE, GENUINE, SpreadModel, Trace
from cascaudit.rng import derive_rng


class TrainingConfig(NamedTuple):
    """Hinge-loss subgradient descent settings; the seed is mandatory."""

    seed: int
    epochs: int = 50
    learning_rate: float = 0.01
    l2: float = 1e-4
    standardize: bool = False


class EdgeClassifier(NamedTuple):
    """Linear scorer over concatenated (followee, follower) features.

    ``weights``/``bias`` define the margin; ``cal_low``/``cal_high`` are the
    percentile calibration endpoints mapping margins onto [0, 1]; scores bin
    into ``num_classes`` equal intervals (class = floor(score * Z), with a
    score of exactly 1 clamped into the top class).
    """

    weights: np.ndarray
    bias: float
    cal_low: float
    cal_high: float
    num_classes: int
    feature_mean: Optional[np.ndarray] = None
    feature_scale: Optional[np.ndarray] = None

    def _pair(self, x_followee, x_follower) -> np.ndarray:
        pair = np.concatenate([np.asarray(x_followee, float), np.asarray(x_follower, float)])
        if pair.shape[0] != self.weights.shape[0]:
            raise DegenerateDataError(
                f"feature pair has dimension {pair.shape[0]}, classifier expects "
                f"{self.weights.shape[0]}"
            )
        if self.feature_mean is not None:
            pair = (pair - self.feature_mean) / self.feature_scale
        return pair

    def margin(self, x_followee, x_follower) -> float:
        return float(self.weights @ self._pair(x_followee, x_follower) + self.bias)

    def score(self, x_followee, x_follower) -> float:
        margin = self.margin(x_followee, x_follower)
        span = self.cal_high - self.cal_low
        return float(np.clip((margin - self.cal_low) / span, 0.0, 1.0))

    def classify(self, x_followee, x_follower) -> int:
        return score_to_class(self.score(x_followee, x_follower), self.num_classes)

    def to_dict(self) -> dict:
        data = {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "cal_low": float(self.cal_low),
            "cal_high": float(self.cal_high),
            "num_classes": int(self.num_classes),
        }
        if self.feature_mean is not None:
            data["feature_mean"] = [float(x) for x in self.feature_mean]
            data["feature_scale"] = [float(x) for x in self.feature_scale]
        return data


def score_to_class(score: float, num_classes: int) -> int:
    """Equal-interval binning of a [0, 1] score into a class index."""
    return min(int(score * num_classes), num_classes - 1)


def _vectors(features: dict):
    """Node -> its row of the non-empty table ``features {node: vector}``, or
    else one shared read-only zero vector of the table's dimension."""
    zeros = np.zeros(len(next(iter(features.values()))))
    zeros.flags.writeable = False
    return lambda node: features.get(node, zeros)


def build_trace_feature(trace: Trace, features: dict) -> np.ndarray:
    """Mean concatenated (followee, follower) pair of ``features`` rows over the events.

    A cascade with n events (n + 1 users) averages n pairs; the follower half
    keeps the information the edge pair carries about who retweeted.
    """
    if len(trace.events) < 1:
        raise TraceError("trace too short: need at least one event (two users)")
    vector = _vectors(features)
    total = None
    for ev in trace.events:
        u, v = ev.edge
        pair = np.concatenate([vector(u), vector(v)])
        total = pair if total is None else total + pair
    return total / len(trace.events)


# overflow is checked once, on the fitted classifier, so numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def train_classifier(traces, features: dict, config: TrainingConfig,
                     num_classes: int) -> EdgeClassifier:
    """Fit the linear edge scorer on the per-trace features of the labeled
    ``traces`` under the node-feature table ``features``, binning scores into
    ``num_classes`` classes.

    Minimizes the L2-regularized hinge loss by per-sample subgradient steps
    (epoch-indexed 1/t decay on the learning rate), then calibrates margins so
    the 1st and 99th percentile of training margins map to 0 and 1.  Raises
    :class:`EstimationError` when the weights, the bias or the calibration
    span is not finite, as huge features or a huge learning rate make them.
    """
    if not {GENUINE, FAKE} <= {t.label for t in traces}:
        raise DegenerateDataError("classifier training needs both labels present")
    samples = np.stack([build_trace_feature(t, features) for t in traces])
    labels = np.array([1.0 if t.label == FAKE else -1.0 for t in traces])

    mean = scale = None
    if config.standardize:
        mean = samples.mean(axis=0)
        scale = samples.std(axis=0)
        scale[scale == 0.0] = 1.0
        samples = (samples - mean) / scale

    rng = derive_rng(config.seed)
    n, dim = samples.shape
    weights = np.zeros(dim)
    bias = 0.0
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate / epoch
        for i in rng.permutation(n):
            x, y = samples[i], labels[i]
            decay = 1.0 - lr * config.l2
            if y * (weights @ x + bias) < 1.0:
                weights = decay * weights + lr * y * x
                bias += lr * y
            else:
                weights = decay * weights

    margins = np.sort(samples @ weights + bias)
    cal_low = _percentile(margins, 1.0)
    cal_high = _percentile(margins, 99.0)
    if cal_high - cal_low < 1e-12:
        log(__name__, WARNING, "degenerate margin spread; calibration widened artificially")
        cal_high = cal_low + 1.0
    if not (np.isfinite(weights).all() and math.isfinite(bias) and math.isfinite(cal_high - cal_low)):
        raise EstimationError("classifier weights, bias or calibration are not finite; "
                              "the features or the learning rate are too large")
    return EdgeClassifier(
        weights=weights,
        bias=bias,
        cal_low=cal_low,
        cal_high=cal_high,
        num_classes=num_classes,
        feature_mean=mean,
        feature_scale=scale,
    )


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of ``ordered = np.sort(values)``, bit for
    bit, by numpy's linear method (only where ``0.0`` and ``-0.0`` tie may
    the sign of a zero differ, as sort and partition order them apart).

    ``np.percentile`` of a float array calls ``np.unique``, which imports
    ``numpy.ma`` (about 13 ms of a process).
    """
    last = len(ordered) - 1
    index = last * (q / 100)
    if index < last:
        below = math.floor(index)
        above = below + 1
    else:  # numpy reads the top entry twice, at weight index + 1
        below = above = -1
    a, b, t = float(ordered[below]), float(ordered[above]), index - below
    value = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return float(ordered[-1]) if math.isnan(ordered[-1]) else value


def classify_graph_edges(classifier: EdgeClassifier, graph: SocialGraph,
                         features: dict) -> dict:
    """Class of every graph edge under the classifier, over the table ``features``."""
    vector = _vectors(features)
    return {(u, v): classifier.classify(vector(u), vector(v)) for u, v in graph.edges()}


# ---- parameter estimation ---------------------------------------------------------


def _event_class(event, edge_classes) -> int:
    if edge_classes is not None:
        try:
            return edge_classes[event.edge]
        except KeyError:
            raise EstimationError(f"edge {event.edge!r} has no assigned class") from None
    if event.cls is None:
        raise EstimationError(f"event on edge {event.edge!r} carries no class")
    return event.cls


def _checked_label(trace) -> int:
    if trace.label not in (GENUINE, FAKE):
        raise EstimationError(f"trace with source {trace.source!r} is unlabeled")
    return trace.label


def estimate_eta(
    traces,
    num_classes: int,
    edge_classes: Optional[dict] = None,
    smoothing: bool = False,
) -> np.ndarray:
    """Initial-probability estimates: class frequencies of source-adjacent
    edges, separately per label.  ``smoothing`` adds one to every count."""
    counts = np.zeros((2, num_classes))
    for trace in traces:
        label = _checked_label(trace)
        for ev in trace.events:
            if ev.edge[0] == trace.source:
                counts[label][_event_class(ev, edge_classes)] += 1
    if smoothing:
        counts += 1.0
    totals = counts.sum(axis=1)
    for label in (GENUINE, FAKE):
        if totals[label] == 0:
            raise EstimationError(
                f"label {label} has no source-adjacent edges to estimate from"
            )
    return counts / totals[:, None]


def estimate_alpha(
    traces,
    num_classes: int,
    edge_classes: Optional[dict] = None,
    smoothing: bool = False,
) -> np.ndarray:
    """Transition estimates from parent-child class pairs, per label.

    Source-adjacent events have no parent and are excluded.  Rows whose
    parent class never occurs stay all-zero (:func:`build_spread_model`
    fills them, with a warning); with ``smoothing`` they become uniform
    instead.
    """
    counts = np.zeros((2, num_classes, num_classes))
    for trace in traces:
        label = _checked_label(trace)
        class_of = {}
        for ev in trace.events:
            cls = _event_class(ev, edge_classes)
            if ev.parent_edge is not None:
                counts[label][class_of[ev.parent_edge]][cls] += 1
            class_of[ev.edge] = cls
    if smoothing:
        counts += 1.0
    row_totals = counts.sum(axis=2)
    for label in (GENUINE, FAKE):
        if row_totals[label].sum() == 0:
            raise EstimationError(f"label {label} has no parent-child edge pairs")
    estimates = np.zeros_like(counts)
    for label in (GENUINE, FAKE):
        for z in range(num_classes):
            total = row_totals[label][z]
            if total > 0:
                estimates[label][z] = counts[label][z] / total
    return estimates


def build_spread_model(eta_hat: np.ndarray, alpha_hat: np.ndarray,
                       prior_fake: float) -> SpreadModel:
    """Assemble estimates into a usable model, filling each all-zero
    (never observed) transition row uniformly, with a warning."""
    alpha = np.array(alpha_hat, dtype=float)
    num_classes = alpha.shape[-1]
    for label in (GENUINE, FAKE):
        for z in range(num_classes):
            if alpha[label][z].sum() == 0.0:
                log(__name__, WARNING, "filling unseen transition row [%d][%d] uniformly",
                    label, z)
                alpha[label][z] = 1.0 / num_classes
    return SpreadModel.from_unnormalized(
        initial_probs=eta_hat, transition_probs=alpha, prior_fake=prior_fake
    )
