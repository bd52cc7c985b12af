"""Decision layer: when to stop auditing and which verdict to issue.

Stopping a trace at posterior ``p`` costs ``min(miss_cost * p,
false_alarm_cost * (1 - p))`` in expectation (declare whichever hypothesis is
cheaper to be wrong about), while every further step on a fake item costs
``per_step``.  Three stopping rules are provided:

* ``dp_threshold`` -- the Bayes-optimal rule: value-iterate the stationary
  Bellman equation on a posterior grid and stop once the posterior leaves the
  continuation interval ``(pi_low, pi_up)``;
* ``sprt``         -- the same rule expressed on the likelihood ratio with
  boundaries ``(b_low, b_up)``, equivalent via the prior-odds bijection and
  usable with Wald boundaries picked from target error rates;
* ``convergence``  -- the first-order rule: stop once consecutive posteriors
  move less than epsilon, then compare the posterior to a fixed threshold.

Finite streams that never trigger a rule fall back to a forced decision at
the final step (``rule_used = "horizon"``) so evaluations can segregate
forced stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from cascaudit.errors import DegenerateDataError, ModelError, read_text
from cascaudit.graph import PathEnumConfig, SocialGraph
from cascaudit.inference import ChainTables, PosteriorEngine
from cascaudit.markov import FAKE, GENUINE, ObservationStream, SpreadModel

RULE_DP = "dp_threshold"
RULE_SPRT = "sprt"
RULE_CONVERGENCE = "convergence"
RULE_HORIZON = "horizon"


@dataclass(frozen=True)
class CostSpec:
    """Error and delay costs.

    ``false_alarm`` is the cost of declaring genuine news fake (type I),
    ``miss`` the cost of declaring fake news genuine (type II), ``per_step``
    the cost of each step a fake item keeps spreading.
    """

    false_alarm: float = 10.0
    miss: float = 10.0
    per_step: float = 0.05

    def __post_init__(self):
        if not all(map(math.isfinite, (self.false_alarm, self.miss, self.per_step))):
            raise ModelError("costs must be finite")
        if self.false_alarm < 0 or self.miss < 0 or self.per_step < 0:
            raise ModelError("costs must be nonnegative")
        if self.false_alarm + self.miss <= 0:
            raise ModelError("at least one error cost must be positive")

    @property
    def decision_ratio(self) -> float:
        """Posterior at which the two stopping verdicts cost the same."""
        return self.false_alarm / (self.false_alarm + self.miss)


def stop_cost(pi: float, costs: CostSpec) -> float:
    """Expected cost of stopping now at posterior ``pi`` with the better verdict."""
    return min(costs.miss * pi, costs.false_alarm * (1.0 - pi))


def bayes_verdict(pi: float, costs: CostSpec) -> int:
    """Cost-optimal verdict at posterior ``pi``; ties resolve to genuine."""
    return 1 if costs.miss * pi > costs.false_alarm * (1.0 - pi) else 0


@dataclass(frozen=True)
class DecisionOutcome:
    """A stopping decision: when, what, and which rule fired."""

    step: int
    verdict: int
    rule: str

    def __post_init__(self):
        if self.step < 1:
            raise ModelError("stopping step must be >= 1")
        if self.verdict not in (0, 1):
            raise ModelError("verdict must be 0 (genuine) or 1 (fake)")
        if self.rule not in (RULE_DP, RULE_SPRT, RULE_CONVERGENCE, RULE_HORIZON):
            raise ModelError(f"unknown rule {self.rule!r}")


# ---- dynamic-programming threshold solver ---------------------------------------


_TABLE_FIELDS = ("ci", "cii", "c", "pi_low", "pi_up", "converged", "sweeps")
# At most 10^5 grid intervals.  For k static outcomes the solver holds five
# arrays of k x grid points (weights, brackets, offsets, the stacked buffer
# and one gathered temporary per sweep), about 13 MB each for k = 16.
MIN_GRID_STEP = 1e-5


@dataclass(frozen=True)
class ThresholdTable:
    """Grid solution of the stopping value function plus the two thresholds."""

    grid: np.ndarray
    values: np.ndarray
    pi_low: float
    pi_up: float
    costs: CostSpec
    converged: bool
    sweeps: int

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ModelError("grid and values must align")
        if not 0.0 <= self.pi_low <= self.pi_up <= 1.0:
            raise ModelError(f"need 0 <= pi_low <= pi_up <= 1, got ({self.pi_low}, {self.pi_up})")
        if np.any(np.asarray(self.values) < 0):
            raise ModelError("stopping values must be nonnegative")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(
                f"# ci={self.costs.false_alarm!r} cii={self.costs.miss!r} "
                f"c={self.costs.per_step!r} pi_low={self.pi_low!r} pi_up={self.pi_up!r} "
                f"converged={str(self.converged).lower()} sweeps={self.sweeps}\n"
            )
            fh.write("pi,s_bar\n")
            for pi, value in zip(self.grid, self.values):
                fh.write(f"{float(pi)!r},{float(value)!r}\n")

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        """Read a table written by :meth:`save`.

        A missing header field, a non-numeric or non-finite number, or a row
        that is not two numbers raises :class:`ModelError`.
        """
        lines = read_text(path, ModelError).split("\n")
        header = lines[0].strip()
        # lines[1] holds the column names
        rows = [line.strip().split(",") for line in lines[2:] if line.strip()]
        if not header.startswith("#"):
            raise ModelError(f"{path}: missing threshold-table header")
        fields = dict(item.split("=", 1) for item in header[1:].split() if "=" in item)
        missing = [name for name in _TABLE_FIELDS if name not in fields]
        if missing:
            raise ModelError(f"{path}: threshold-table header lacks {', '.join(missing)}")
        if fields["converged"] not in ("true", "false"):
            raise ModelError(f"{path}: converged={fields['converged']!r} is not true or false")
        sweeps = fields["sweeps"]  # int() reads non-ASCII digits, and refuses 4301 or more
        if not (sweeps.isascii() and sweeps.isdigit() and len(sweeps) < 19):
            raise ModelError(f"{path}: sweeps={sweeps[:20]!r} is not a count")
        for n, row in enumerate(rows, start=1):
            if len(row) != 2:
                raise ModelError(f"{path}: table row {n} is not 'pi,s_bar'")

        def number(text, where):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ModelError(f"{path}: {where} {text!r} is not a finite number")
            return value

        return cls(
            grid=np.array([number(r[0], "pi") for r in rows]),
            values=np.array([number(r[1], "s_bar") for r in rows]),
            pi_low=number(fields["pi_low"], "pi_low"),
            pi_up=number(fields["pi_up"], "pi_up"),
            costs=CostSpec(
                false_alarm=number(fields["ci"], "ci"),
                miss=number(fields["cii"], "cii"),
                per_step=number(fields["c"], "c"),
            ),
            converged=fields["converged"] == "true",
            sweeps=int(sweeps),
        )


NextObsModel = Union[Sequence, Callable[[float], Sequence]]


def single_step_outcomes(model: SpreadModel, last_class: Optional[int] = None):
    """Next-observation model: one Markov step of the edge-type chains.

    Returns the finite list of ``(a_genuine, a_fake)`` pairs for the next
    observed class.  With ``last_class`` given, the pair for class ``z`` is
    the transition row entry; otherwise the context class is marginalized
    uniformly, an approximation for multi-path graphs where no single context
    class exists.  Each coordinate sums to one across outcomes.
    """
    alpha = model.transition_probs
    num = model.num_classes
    if last_class is not None:
        return [
            (float(alpha[GENUINE][last_class][z]), float(alpha[FAKE][last_class][z]))
            for z in range(num)
        ]
    return [
        (float(alpha[GENUINE][ctx][z]) / num, float(alpha[FAKE][ctx][z]) / num)
        for ctx in range(num)
        for z in range(num)
    ]


def solve_thresholds(
    costs: CostSpec,
    next_obs_model: NextObsModel,
    grid_step: float = 0.001,
    max_sweeps: int = 10_000,
    tol: float = 1e-7,
) -> ThresholdTable:
    """Value-iterate the stationary stopping recursion on a posterior grid.

    Each sweep applies ``value = min(stop_cost, per_step * pi + E[value'])``
    where the expectation runs over the next-observation outcomes, the updated
    posterior follows the Bayes recursion, and off-grid posteriors are
    linearly interpolated.  Iteration stops when the sup-norm change drops
    below ``tol``; hitting ``max_sweeps`` first yields a best-effort table
    flagged unconverged.

    ``next_obs_model`` is either a fixed sequence of ``(a_genuine, a_fake)``
    pairs or a callable ``pi -> sequence`` for posterior-dependent models.
    """
    if not MIN_GRID_STEP <= grid_step <= 0.1:
        raise ModelError(f"grid_step must be in [{MIN_GRID_STEP}, 0.1]")
    if max_sweeps < 1:
        raise ModelError("max_sweeps must be >= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ModelError(f"tol must be positive and finite, got {tol}")
    n = round(1.0 / grid_step)
    grid = np.linspace(0.0, 1.0, n + 1)
    stop_values = np.minimum(costs.miss * grid, costs.false_alarm * (1.0 - grid))

    static_outcomes = None if callable(next_obs_model) else np.asarray(next_obs_model, dtype=float)
    if static_outcomes is not None and (
        static_outcomes.ndim != 2 or static_outcomes.shape[1] != 2
    ):
        raise ModelError("next_obs_model must be a sequence of (a_genuine, a_fake) pairs")

    if static_outcomes is not None:
        # Each outcome's weight, updated posterior and interpolation bracket
        # do not depend on the values, so they are found once per solve, not
        # in every sweep.  Row k of ``brackets`` holds, per grid point, the
        # index j with grid[j] <= x < grid[j + 1], where x is outcome k's
        # updated posterior clamped to [0, 1] as np.interp clamps it (x = 1 is
        # its own bracket, with a zero slope past it); row k of ``offsets``
        # holds x - grid[j].
        a_genuine, a_fake = static_outcomes[:, :1], static_outcomes[:, 1:]  # columns
        weights = grid * a_fake + (1.0 - grid) * a_genuine
        with np.errstate(invalid="ignore", divide="ignore"):
            offsets = np.where(weights > 0, grid * a_fake / weights, grid)
        np.clip(offsets, 0.0, 1.0, out=offsets)  # x, made an offset in place below
        brackets = np.searchsorted(grid, offsets, side="right") - 1
        offsets -= grid[brackets]
        grid_steps = np.diff(grid)
        slopes = np.zeros(n + 1)
        stacked = np.empty_like(offsets)  # one buffer, reused by every sweep

    values = stop_values.copy()
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        continuation = costs.per_step * grid
        if static_outcomes is not None:
            # np.interp(updated, grid, values) of every outcome at once, with
            # its float operations: slope * offset + value, and the value
            # itself on an exact grid hit (a zero offset)
            np.divide(np.diff(values), grid_steps, out=slopes[:-1])
            np.take(slopes, brackets, out=stacked)
            stacked *= offsets
            stacked += values[brackets]
            stacked *= weights
            for row in stacked:  # in outcome order, as one sum per outcome
                continuation += row
        else:
            for i, pi in enumerate(grid):
                total = 0.0
                for a_genuine, a_fake in next_obs_model(float(pi)):
                    weight = pi * a_fake + (1.0 - pi) * a_genuine
                    if weight <= 0:
                        continue
                    updated = pi * a_fake / weight
                    total += weight * float(np.interp(updated, grid, values))
                continuation[i] += total
        new_values = np.minimum(stop_values, continuation)
        delta = float(np.abs(new_values - values).max())
        values = new_values
        if delta < tol:
            converged = True
            break

    ratio = costs.decision_ratio
    atol = max(10.0 * tol, 1e-9) * max(1.0, costs.false_alarm, costs.miss)
    low_side = (grid <= ratio + 1e-15) & (np.abs(values - costs.miss * grid) <= atol)
    up_side = (grid >= ratio - 1e-15) & (
        np.abs(values - costs.false_alarm * (1.0 - grid)) <= atol
    )
    pi_low = float(grid[low_side].max()) if low_side.any() else 0.0
    pi_up = float(grid[up_side].min()) if up_side.any() else 1.0
    return ThresholdTable(
        grid=grid,
        values=values,
        pi_low=pi_low,
        pi_up=pi_up,
        costs=costs,
        converged=converged,
        sweeps=sweeps,
    )


# ---- SPRT boundaries -------------------------------------------------------------


def wald_bounds(p_target: float, q_target: float) -> tuple:
    """Likelihood-ratio boundaries hitting approximate error targets.

    ``p_target`` bounds the false-alarm rate, ``q_target`` the miss rate; the
    classical approximations give ``(q / (1 - p), (1 - q) / p)``.
    """
    if not (0.0 < p_target < 0.5 and 0.0 < q_target < 0.5):
        raise ModelError("error targets must lie in (0, 0.5)")
    return q_target / (1.0 - p_target), (1.0 - q_target) / p_target


@dataclass(frozen=True)
class SprtConfig:
    """Likelihood-ratio stopping boundaries with ``lower <= 1 <= upper``."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= 1.0 <= self.upper < math.inf):
            raise ModelError(f"need 0 < lower <= 1 <= upper < inf, got ({self.lower}, {self.upper})")

    @classmethod
    def from_error_targets(cls, p_target: float, q_target: float) -> "SprtConfig":
        lower, upper = wald_bounds(p_target, q_target)
        return cls(lower=lower, upper=upper)

    @classmethod
    def from_posterior_thresholds(cls, pi_low: float, pi_up: float, prior: float) -> "SprtConfig":
        """Boundaries equivalent to posterior thresholds under ``prior``.

        Valid when ``pi_low < prior < pi_up`` (otherwise the equivalent test
        would stop before the first observation).
        """
        if not 0.0 < prior < 1.0:
            raise ModelError("prior must be interior for the odds transform")
        if not 0.0 < pi_low < prior < pi_up < 1.0:
            raise ModelError("need 0 < pi_low < prior < pi_up < 1")
        odds = (1.0 - prior) / prior
        return cls(
            lower=odds * pi_low / (1.0 - pi_low),
            upper=odds * pi_up / (1.0 - pi_up),
        )


# ---- streaming policies ---------------------------------------------------------


class DpThresholdPolicy:
    rule = RULE_DP

    def __init__(self, table: ThresholdTable):
        self.table = table

    def check(self, step, posterior, log_lr, prev_posterior) -> Optional[int]:
        if posterior <= self.table.pi_low or posterior >= self.table.pi_up:
            return 0 if posterior <= self.table.pi_low else 1
        return None

    def horizon_verdict(self, posterior) -> int:
        return bayes_verdict(posterior, self.table.costs)


class SprtPolicy:
    rule = RULE_SPRT

    def __init__(self, cfg: SprtConfig, costs: CostSpec):
        self.cfg = cfg
        self.costs = costs
        self._log_low = math.log(cfg.lower)
        self._log_up = math.log(cfg.upper)

    def check(self, step, posterior, log_lr, prev_posterior) -> Optional[int]:
        if log_lr <= self._log_low:
            return 0
        if log_lr >= self._log_up:
            return 1
        return None

    def horizon_verdict(self, posterior) -> int:
        return bayes_verdict(posterior, self.costs)


class ConvergencePolicy:
    rule = RULE_CONVERGENCE

    def __init__(self, epsilon: float, threshold: float):
        if not 0 < epsilon < math.inf:
            raise ModelError("epsilon must be positive and finite")
        if not math.isfinite(threshold):
            raise ModelError("decision threshold must be finite")
        self.epsilon = epsilon
        self.threshold = threshold

    def check(self, step, posterior, log_lr, prev_posterior) -> Optional[int]:
        if abs(posterior - prev_posterior) < self.epsilon:
            return 1 if posterior >= self.threshold else 0
        return None

    def horizon_verdict(self, posterior) -> int:
        return 1 if posterior >= self.threshold else 0


def decide(policy, beliefs: Iterable) -> DecisionOutcome:
    """First verdict of ``policy`` over a sequence of belief states.

    Each state carries ``step``, ``posterior`` and ``log_lr``; index 0 is the
    prior and is never checked.  The scan stops at the first verdict, so a
    lazy sequence is consumed only up to the stopping step.  A sequence that
    never triggers the policy ends in a forced decision at its last state
    (``rule_used = "horizon"``).  Raises :class:`DegenerateDataError` when the
    sequence holds no state after the prior.
    """
    states = iter(beliefs)
    prior = next(states, None)
    posterior = None if prior is None else prior.posterior
    state = None
    for state in states:
        prev_posterior, posterior = posterior, state.posterior  # each read once
        verdict = policy.check(state.step, posterior, state.log_lr, prev_posterior)
        if verdict is not None:
            return DecisionOutcome(step=state.step, verdict=verdict, rule=policy.rule)
    if state is None:
        raise DegenerateDataError("no observation could be processed")
    return DecisionOutcome(
        step=state.step, verdict=policy.horizon_verdict(posterior), rule=RULE_HORIZON
    )


def run_detection(
    model: SpreadModel,
    graph: SocialGraph,
    stream: ObservationStream,
    policy,
    cfg: PathEnumConfig = PathEnumConfig(),
    on_unreachable: str = "skip",
    prior: Optional[float] = None,
    anchor: bool = True,
    tables: Optional[ChainTables] = None,
) -> tuple:
    """Stream observations through the engine, stopping as soon as the policy fires.

    Returns ``(DecisionOutcome, BeliefState)``; the belief is the one at the
    stopping step.  Raises :class:`DegenerateDataError` when no observation
    could be processed.  ``tables`` over ``model`` may be shared across runs.
    """
    engine = PosteriorEngine(
        model, graph, stream.source, cfg, anchor=anchor, prior=prior, tables=tables
    )
    outcome = decide(policy, engine.beliefs(stream.observations, on_unreachable))
    return outcome, engine.belief
