"""Exact Bayesian posterior over the fake/genuine hypothesis.

Given a known source and a stream of observed retweets, the engine maintains
the posterior probability that the spreading item is fake.  A retweet is one
event on one edge, so a stream observes each edge at most once: the engine
refuses a repeated edge with :class:`InvalidEvidenceError` before scoring it,
and never skips one.  Each observation multiplies the running likelihood
ratio by ``a_fake / a_genuine``, where ``a_hyp`` is the probability of the
observed edge class given everything seen so far under hypothesis ``hyp``:

* a source-adjacent edge has probability ``initial_probs[hyp][class]``;
* any other edge is explained through the candidate directed paths from the
  source to it.  Each candidate path is weighted by how well it accounts for
  the previously observed classes lying on it (its path score), and
  contributes the chain probability of reaching the new class from the last
  observed class on the path, with unobserved intermediate edges marginalized
  out via k-step transitions.

Paths carrying no previous observation are anchored at the source: the class
marginal ``initial_probs @ transition^(depth-1)`` replaces the empty product,
which keeps the single-edge case consistent with the source-adjacent rule.

On an acyclic graph where a node has two followees, an observation off the
source is scored exactly, with no path cap, by the HMM forward recursion over
the source's memoized forward ball, rescaled per layer.  The engine keeps the
per-depth messages across its stream and recomputes only the depths a newly
accepted edge made stale, each in O(layer edges x Z^2) for both hypotheses.
On a single-followee graph, as every trace's implied graph is, an
observation has at most one candidate, which :func:`followee_path` finds
first; it costs O(path length) in plain floats, with no enumeration, masks or
arrays, as does an enumeration that finds one candidate.  Any other (a cyclic
graph with a node of two followees, a zero denominator, or an entry too far
below its layer's peak) costs one pass over its capped path enumeration,
O(paths x length), in log space.  Each candidate looks up its edges in the
engine's index of accepted observations to form its evidence key: the path
depth plus the ``(position, class)`` pairs of the earlier observations on it.
Each distinct key is scored once and expanded back to one entry per path, in
path order, before the log-sum-exp.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from cascaudit.errors import (
    WARNING,
    InvalidEvidenceError,
    ModelError,
    Record,
    UnreachableObservationError,
    log,
)
from cascaudit.graph import (
    PathEnumConfig,
    SocialGraph,
    enumerate_paths,
    followee_path,
    forward_ball,
)
from cascaudit.markov import FAKE, GENUINE, Observation, SpreadModel

_NEG_INF = float("-inf")
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else _NEG_INF


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a nonempty 1-d array.

    The maximum is shifted out and its ties are counted apart from the other
    terms.  Keep this order of operations: recorded posteriors and verdicts
    are reproduced bit for bit only with it.  For one entry ``x`` the formula
    reduces exactly to ``x + 0.0`` (``-0.0`` becomes ``0.0``; infinities and
    NaN pass through), which the scorer of one candidate computes directly.
    """
    a_max = a.max()
    if not np.isfinite(a_max):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(np.log(np.exp(a).sum()))
    at_max = a == a_max
    m = np.count_nonzero(at_max)
    s = np.exp(np.where(at_max, _NEG_INF, a) - a_max).sum()
    if s != 0:
        s /= m
    return float(np.log1p(s) + np.log(m) + a_max)


# ---- belief state -------------------------------------------------------------


class BeliefState(Record):
    """Running posterior, represented canonically by the log likelihood ratio.

    The posterior is always derived from ``log_lr`` through the prior-odds
    identity ``posterior = prior * lr / (prior * lr + 1 - prior)``, so the
    identity holds exactly at every step.  A state made by an update records
    that update's two conditionals and links the state before it, so an
    update costs O(1) and the audit history is read back along the links.
    The link takes no part in equality, hash or repr.
    """

    _fields = ("prior", "log_lr", "step", "a_genuine", "a_fake", "previous")
    _compare = _fields[:-1]

    def __init__(self, prior: float, log_lr: float = 0.0, step: int = 0,
                 a_genuine: Optional[float] = None, a_fake: Optional[float] = None,
                 previous: Optional[BeliefState] = None):
        if not 0.0 <= prior <= 1.0:
            raise ModelError(f"prior {prior} outside [0, 1]")
        self.__dict__.update(prior=prior, log_lr=log_lr, step=step, a_genuine=a_genuine,
                             a_fake=a_fake, previous=previous)

    @property
    def posterior(self) -> float:
        return posterior_from_log_lr(self.log_lr, self.prior)

    @property
    def history(self) -> tuple:
        """The state after each update, oldest first; built on each read."""
        states = []
        state = self
        while state.previous is not None:
            states.append(state)
            state = state.previous
        return tuple(reversed(states))

    def trajectory(self) -> list:
        """Posterior sequence: index 0 is the prior, index l the belief after
        observation l."""
        return [self.prior] + [state.posterior for state in self.history]


def posterior_from_log_lr(log_lr: float, prior: float) -> float:
    """Stable evaluation of ``prior * e^log_lr / (prior * e^log_lr + 1 - prior)``."""
    if prior <= 0.0:
        return 0.0
    if prior >= 1.0:
        return 1.0
    x = log_lr + math.log(prior / (1.0 - prior))
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _update_from_logs(belief, log_a_genuine, log_a_fake) -> BeliefState:
    """Fold one observation's log conditionals into the belief."""
    if log_a_genuine == _NEG_INF and log_a_fake == _NEG_INF:
        raise InvalidEvidenceError("observation impossible under both hypotheses")
    log_lr = belief.log_lr + (log_a_fake - log_a_genuine)
    if math.isnan(log_lr):
        # previous evidence already ruled one hypothesis out and this
        # observation rules out the other
        raise InvalidEvidenceError("contradictory evidence stream")
    return BeliefState(
        prior=belief.prior,
        log_lr=log_lr,
        step=belief.step + 1,
        a_genuine=math.exp(log_a_genuine),
        a_fake=math.exp(log_a_fake),
        previous=belief,
    )


# ---- path contexts ------------------------------------------------------------


class OnPathObservation(NamedTuple):
    """A previous observation that lies on a candidate path."""

    index: int      # position in the observation stream (0-based)
    position: int   # 1-based edge position along the path
    cls: int


class PathContext(NamedTuple):
    """A candidate path together with the previous observations lying on it,
    sorted by position along the path."""

    path: object  # any path with an ``edges`` tuple, such as a Prefix
    on_path: tuple


def build_path_contexts(paths, prior_observations: Sequence[Observation]) -> list:
    """One :class:`PathContext` per path; a path is anything whose ``edges``
    lists its edges from the source on.

    The prior observations repeat no edge, as the engine requires.  They are
    indexed once by edge; each path then looks up its own edges in order, so
    its entries come out sorted by position without a scan of the whole
    prefix per path.  The engine builds no contexts (it scores evidence
    keys); a context is the per-path view of the same evidence.
    """
    by_edge = {obs.edge: (idx, obs.cls) for idx, obs in enumerate(prior_observations)}
    contexts = []
    for path in paths:
        entries = []
        for position, edge in enumerate(path.edges, start=1):
            if edge in by_edge:
                idx, cls = by_edge[edge]
                entries.append(OnPathObservation(idx, position, cls))
        contexts.append(PathContext(path=path, on_path=tuple(entries)))
    return contexts


# ---- chain probabilities -------------------------------------------------------


class ChainTables:
    """Cached matrix powers per hypothesis, plus tables of the log entries of
    each power and of the log source-anchored class marginals.

    One instance can be shared across engines over the same model (e.g. in a
    Monte Carlo sweep) to avoid recomputing powers per trace.
    """

    def __init__(self, model: SpreadModel):
        self.model = model
        self._powers: dict = {}
        self._log_gaps: dict = {}       # (hyp, k) -> nested list of log entries
        self._log_marginals: dict = {}  # (hyp, position) -> list of log entries
        self._stacked: Optional[tuple] = None

    def power(self, hyp: int, k: int) -> np.ndarray:
        key = (hyp, k)
        mat = self._powers.get(key)
        if mat is None:
            mat = np.linalg.matrix_power(self.model.transition_probs[hyp], k)
            self._powers[key] = mat
        return mat

    def log_gap(self, hyp: int, k: int, frm: int, to: int) -> float:
        """log P(class moves frm -> to across k edges); k = 0 is the identity."""
        table = self._log_gaps.get((hyp, k))
        if table is None:
            table = [[_safe_log(float(x)) for x in row] for row in self.power(hyp, k)]
            self._log_gaps[(hyp, k)] = table
        return table[frm][to]

    def log_marginal(self, hyp: int, position: int, cls: int) -> float:
        """log P(edge at this path depth has class cls), anchored at the source."""
        logs = self._log_marginals.get((hyp, position))
        if logs is None:
            vec = self.model.initial_probs[hyp]
            if position > 1:
                vec = vec @ self.power(hyp, position - 1)
            logs = [_safe_log(float(x)) for x in vec]
            self._log_marginals[(hyp, position)] = logs
        return logs[cls]

    def stacked(self) -> tuple:
        """(block-diagonal transition, joined seeds, class indicators, floors):
        both hypotheses side by side, for the forward recursion.  Indicator
        row ``c`` keeps class ``c``; an entry at or above its hypothesis's
        floor times any positive transition entry is a normal double."""
        if self._stacked is None:
            z = self.model.num_classes
            transition = np.zeros((2 * z, 2 * z))
            transition[:z, :z], transition[z:, z:] = self.model.transition_probs
            seed = self.model.initial_probs.reshape(-1)
            floors = np.array([_TINY / t[t > 0.0].min() for t in self.model.transition_probs])
            self._stacked = (transition, seed, np.tile(np.eye(z), 2), floors)
        return self._stacked


# An evidence key is (depth, ((position, cls), ...)): the length of a
# candidate path and the classes of the earlier observations on it, by 1-based
# edge position, in position order.  Everything a path contributes to the
# mixture is a function of its key.


def _log_chain(tables: ChainTables, hyp: int, entries: tuple) -> float:
    """log probability of the previously observed classes along a path."""
    if not entries:
        return 0.0
    position, cls = entries[0]
    total = tables.log_marginal(hyp, position, cls)
    for (prev_pos, prev_cls), (pos, cls) in zip(entries, entries[1:]):
        total += tables.log_gap(hyp, pos - prev_pos, prev_cls, cls)
    return total


def _log_arrival(tables: ChainTables, hyp: int, depth: int, entries: tuple, cls: int) -> float:
    """log probability of the new observation's class at the end of a path."""
    if not entries:
        return tables.log_marginal(hyp, depth, cls)
    last_pos, last_cls = entries[-1]
    return tables.log_gap(hyp, depth - last_pos, last_cls, cls)


def _distinct_keys(keys) -> tuple:
    """(distinct keys in first-seen order, each path's slot among them).

    The slots are None when every key is distinct, since they would then be
    the identity (always so with one candidate path).
    """
    slots: dict = {}
    key_of_path = [slots.setdefault(key, len(slots)) for key in keys]
    if len(slots) == len(key_of_path):
        return list(slots), None
    return list(slots), np.array(key_of_path, dtype=np.intp)


def _per_path(per_key: list, key_of_path) -> np.ndarray:
    """Per-key scores expanded to one entry per path, in path order."""
    values = np.array(per_key)
    return values if key_of_path is None else values[key_of_path]


def _evidence_key(edges: tuple, by_edge: dict) -> tuple:
    """Evidence key of the candidate path whose edges before its target are
    ``edges``; ``by_edge`` maps an observed edge to its class, and holds no
    target edge."""
    entries = []
    if not by_edge.keys().isdisjoint(edges):
        for position, edge in enumerate(edges, start=1):
            cls = by_edge.get(edge)
            if cls is not None:
                entries.append((position, cls))
    return len(edges) + 1, tuple(entries)


def _log_weights(tables, hyp, distinct, key_of_path) -> tuple:
    """Chain log-weight of each path, scored once per distinct key, and their
    log normalizer."""
    log_nums = _per_path(
        [_log_chain(tables, hyp, entries) for _, entries in distinct], key_of_path
    )
    return log_nums, _logsumexp(log_nums)


def _log_a(tables, hyp, distinct, key_of_path, cls) -> float:
    """log probability of class ``cls`` at the end of the candidate mixture."""
    log_nums, log_denom = _log_weights(tables, hyp, distinct, key_of_path)
    log_arrivals = _per_path(
        [_log_arrival(tables, hyp, depth, entries, cls) for depth, entries in distinct],
        key_of_path,
    )
    if log_denom == _NEG_INF:
        log(
            __name__, WARNING,
            "all %d candidate paths have zero score; falling back to a uniform mixture",
            len(log_arrivals),
        )
        return _logsumexp(log_arrivals) - math.log(len(log_arrivals))
    return _logsumexp(log_nums + log_arrivals) - log_denom


def _one_log_a(tables, hyp, depth, entries, cls) -> float:
    """:func:`_log_a` of one candidate, in the same float operations on
    scalars that it applies to one-entry arrays."""
    log_num = _log_chain(tables, hyp, entries)
    log_arrival = _log_arrival(tables, hyp, depth, entries, cls)
    if log_num == _NEG_INF:
        log(
            __name__, WARNING,
            "all %d candidate paths have zero score; falling back to a uniform mixture", 1,
        )
        return log_arrival + 0.0 - 0.0
    return (log_num + log_arrival) + 0.0 - (log_num + 0.0)


# ---- the engine -----------------------------------------------------------------


class PosteriorEngine:
    """Streaming posterior computation for one observation stream.

    Holds the per-trace state (belief, accepted observations indexed by
    edge, forward messages) plus caches of matrix powers and enumerations.
    The model and graph are shared immutable inputs; one engine per trace.
    """

    def __init__(
        self,
        model: SpreadModel,
        graph: SocialGraph,
        source,
        cfg: PathEnumConfig = PathEnumConfig(),
        tables: Optional[ChainTables] = None,
    ):
        self.model = model
        self.graph = graph
        self.source = source
        self.cfg = cfg
        self.belief = BeliefState(prior=model.prior_fake)
        self.accepted = ()
        self.skipped: list = []  # stream indices dropped as unreachable
        self._tables = ChainTables(model) if tables is None else tables

    @property
    def accepted(self) -> tuple:
        """The observations folded in so far, in stream order."""
        return tuple(Observation(u, v, cls) for (u, v), cls in self._by_edge.items())

    @accepted.setter
    def accepted(self, observations: Sequence[Observation]) -> None:
        """Replace the accepted observations, and their index with them."""
        self._by_edge: dict = {}  # edge -> its observed class, in stream order
        self._ball = None  # forward ball; per depth, slot -> class and (message, log scale)
        for obs in observations:
            self._refuse_repeat(obs)
            self._accept(obs)

    def _refuse_repeat(self, obs: Observation) -> None:
        if obs.edge in self._by_edge:
            raise InvalidEvidenceError(
                f"edge {obs.edge!r} observed twice; a stream observes each edge at most once"
            )

    def _accept(self, obs: Observation) -> None:
        self._by_edge[obs.edge] = obs.cls
        if self._ball is not None:
            rows = self._ball.edge_rows.get(obs.edge)
            if rows:
                for depth, slot in rows:
                    self._evidence[depth - 1][slot] = obs.cls
                del self._messages[rows[0][0] - 1:]  # stale from the edge's shallowest depth on

    def log_conditionals(self, obs: Observation) -> tuple:
        """(log a_genuine, log a_fake) for the next observation: by the initial
        distribution, the one followee path, the exact forward recursion or
        the enumeration scorer."""
        if not 0 <= obs.cls < self.model.num_classes:
            raise ModelError(f"observed class {obs.cls} out of range")
        if not self.graph.has_edge(obs.u, obs.v):  # a source-adjacent edge too
            raise UnreachableObservationError(obs.edge, self.cfg.max_path_length)
        self._refuse_repeat(obs)
        if obs.u == self.source:
            eta = self.model.initial_probs
            return _safe_log(float(eta[GENUINE][obs.cls])), _safe_log(float(eta[FAKE][obs.cls]))
        path = followee_path(self.graph, self.source, obs.edge, self.cfg.max_path_length)
        if path is None:
            logs = self._forward_logs(obs)
            return self._enumeration_logs(obs) if logs is None else logs
        return self._keyed_logs(obs, [path[:-1]] if path else [])

    def _forward_logs(self, obs: Observation) -> Optional[tuple]:
        """(log a_genuine, log a_fake) by the forward recursion, or None where
        the enumeration scorer runs: cyclic graph or forest, a tail out of
        reach, a zero denominator (the uniform fallback needs per-path
        arrivals), or a rescaled entry so far below its layer's peak that the
        next step's products could leave the normal doubles and lose mass
        silently.  Per depth, the stacked transition moves each node's class
        vector onto its out-edges, an observed edge keeps only its class,
        and each head sums its in-edges.  The transition is row-stochastic,
        so a vector's mass is its paths' chain score.  A depth's messages
        depend only on the evidence at it and above, so only depths at or
        below a newly accepted edge rerun.

        Each ``(depth, row)`` of the tail then adds its log arrival and log
        chain mass per hypothesis, in depth order.  The sum starts from the
        first row's logs plus 0.0, which is bit for bit what ``np.logaddexp``
        from -inf gives, so a tail at one depth pays no ``logaddexp``."""
        ball = forward_ball(self.graph, self.source, self.cfg.max_path_length)
        if ball is None or obs.u not in ball.node_rows:
            return None
        if ball is not self._ball:  # the first pass, or a new prefix
            self._ball, self._evidence, self._messages = ball, [{} for _ in ball.steps], []
            for edge, cls in self._by_edge.items():
                for depth, slot in ball.edge_rows.get(edge, ()):
                    self._evidence[depth - 1][slot] = cls
        rows = ball.node_rows[obs.u]
        transition, seed, indicators, floors = self._tables.stacked()
        messages = self._messages
        for depth in range(len(messages) + 1, rows[-1][0] + 1):
            src_rows, starts = ball.steps[depth - 1]
            # the source's row of out-edge classes is the seed
            edges = (seed[None] if depth == 1 else messages[-1][0] @ transition)[src_rows]
            for slot, cls in self._evidence[depth - 1].items():
                edges[slot] *= indicators[cls]
            msg = np.add.reduceat(edges, starts)
            blocks = msg.reshape(len(msg), 2, -1)
            peak = np.maximum.reduce(blocks, axis=(0, 2))
            peak[peak == 0.0] = 1.0
            blocks /= peak[:, None]
            if ((blocks > 0.0) & (blocks < floors[:, None])).any():
                return None
            messages.append((msg, (messages[-1][1] if messages else 0.0) + np.log(peak)))
        logs = np.empty((2, 2))  # log (chain x arrival, chain) per hypothesis
        log_sums = None
        with np.errstate(divide="ignore"):
            for depth, row in rows:
                msg, log_scale = messages[depth - 1]
                vec = (msg[row] @ transition).reshape(2, -1)
                logs[0] = vec[:, obs.cls]
                vec.sum(axis=1, out=logs[1])
                np.log(logs, out=logs)
                logs += log_scale
                if log_sums is None:
                    log_sums = logs + 0.0
                else:
                    np.logaddexp(log_sums, logs, out=log_sums)
        arrival, chain = log_sums.tolist()
        if not (math.isfinite(chain[GENUINE]) and math.isfinite(chain[FAKE])):
            return None
        return arrival[GENUINE] - chain[GENUINE], arrival[FAKE] - chain[FAKE]

    def _enumeration_logs(self, obs: Observation) -> tuple:
        """(log a_genuine, log a_fake) scored over the enumerated candidate
        paths; exact up to the path cap.  The observation is off the source,
        and :meth:`log_conditionals` checked it."""
        enumeration = enumerate_paths(self.graph, self.source, obs.edge, self.cfg)
        return self._keyed_logs(obs, [prefix.edges for prefix in enumeration.prefixes])

    def _keyed_logs(self, obs: Observation, prefixes: list) -> tuple:
        """(log a_genuine, log a_fake) over the candidate paths whose edges
        before ``obs``'s edge are each of ``prefixes``, once per distinct
        evidence key; unreachable when there is no candidate."""
        if not prefixes:
            raise UnreachableObservationError(obs.edge, self.cfg.max_path_length)
        keys = [_evidence_key(edges, self._by_edge) for edges in prefixes]
        if len(keys) == 1:
            [(depth, entries)] = keys
            return (
                _one_log_a(self._tables, GENUINE, depth, entries, obs.cls),
                _one_log_a(self._tables, FAKE, depth, entries, obs.cls),
            )
        distinct, key_of_path = _distinct_keys(keys)
        return (
            _log_a(self._tables, GENUINE, distinct, key_of_path, obs.cls),
            _log_a(self._tables, FAKE, distinct, key_of_path, obs.cls),
        )

    def observe(self, obs: Observation) -> BeliefState:
        """Fold one observation into the belief (raises if unreachable or
        repeated, and leaves the belief as it was)."""
        log_a0, log_a1 = self.log_conditionals(obs)
        self.belief = _update_from_logs(self.belief, log_a0, log_a1)
        self._accept(obs)
        return self.belief

    def beliefs(self, observations: Sequence[Observation], on_unreachable: str = "skip"):
        """Yield the current belief, then the belief after each accepted observation.

        ``on_unreachable`` is ``"skip"`` (drop the observation with a warning
        and record its index in :attr:`skipped`, the robust default for
        partial real-world data) or ``"fail"`` (raise).  A repeated edge is
        never skipped: it raises :class:`InvalidEvidenceError`.  The stream is
        read lazily, so a consumer that stops early leaves the rest
        unprocessed.
        """
        if on_unreachable not in ("skip", "fail"):
            raise ValueError(f"unknown unreachable policy {on_unreachable!r}")
        yield self.belief
        for idx, obs in enumerate(observations):
            try:
                yield self.observe(obs)
            except UnreachableObservationError:
                if on_unreachable == "fail":
                    raise
                self.skipped.append(idx)
                log(__name__, WARNING, "skipping unreachable observation %d on edge %r",
                    idx, obs.edge)


# ---- trajectory export -----------------------------------------------------------


def write_trajectory(belief: BeliefState, path) -> None:
    """CSV export of the belief trajectory (one row per step, prior first)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,a0,a1,posterior,log_lr\n")
        fh.write(f"0,,,{belief.prior!r},0.0\n")
        for state in belief.history:
            fh.write(
                f"{state.step},{state.a_genuine!r},{state.a_fake!r},"
                f"{state.posterior!r},{state.log_lr!r}\n"
            )
