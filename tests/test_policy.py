import hashlib
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cascaudit.errors import DegenerateDataError, ModelError
from cascaudit.inference import BeliefState, posterior_from_log_lr
from cascaudit.markov import FAKE, GrowthConfig
from cascaudit.policy import (
    ConvergencePolicy,
    CostSpec,
    DecisionOutcome,
    DpThresholdPolicy,
    SprtPolicy,
    ThresholdTable,
    bayes_verdict,
    decide,
    run_detection,
    single_step_outcomes,
    solve_thresholds,
    stop_cost,
    wald_bounds,
)
from cascaudit.rng import derive_rng

from .oracles import solve_thresholds_interp
from .conftest import random_model

# posterior trajectory published for an eight-event fake-news run; the deltas
# never drop below 1e-3, so the convergence rule stays live through step 8
FAKE_NEWS_CURVE = [
    0.5,
    0.8796690694959185,
    0.766147458417471,
    0.3226277144757841,
    0.7768803411661945,
    0.9621987260629985,
    0.9946547016351934,
    0.9881506494402302,
    0.9983623633791093,
]

EQUAL_COSTS = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.05)


State = namedtuple("State", "step posterior log_lr")


def states(trajectory, log_lrs=None):
    """Belief states for a posterior trajectory; index 0 is the prior."""
    log_lrs = log_lrs if log_lrs is not None else [0.0] * len(trajectory)
    return [State(i, p, x) for i, (p, x) in enumerate(zip(trajectory, log_lrs))]


def dp_stop(trajectory, table):
    return decide(DpThresholdPolicy(table), states(trajectory))


def convergence_stop(trajectory, epsilon, threshold):
    return decide(ConvergencePolicy(epsilon, threshold), states(trajectory))


def table_with(pi_low, pi_up, costs=EQUAL_COSTS):
    grid = np.linspace(0.0, 1.0, 11)
    return ThresholdTable(
        grid=grid,
        values=np.minimum(costs.miss * grid, costs.false_alarm * (1 - grid)),
        pi_low=pi_low,
        pi_up=pi_up,
        costs=costs,
        converged=True,
        sweeps=1,
    )


# ---- stopping cost and verdicts ----


def test_stop_cost_endpoints_and_values():
    assert stop_cost(0.0, EQUAL_COSTS) == 0.0
    assert stop_cost(1.0, EQUAL_COSTS) == 0.0
    assert stop_cost(0.5, EQUAL_COSTS) == 5.0
    assert stop_cost(0.3, EQUAL_COSTS) == pytest.approx(3.0)


def test_stop_cost_peaks_at_decision_ratio():
    costs = CostSpec(false_alarm=4.0, miss=12.0, per_step=0.0)
    ratio = costs.decision_ratio
    assert ratio == pytest.approx(0.25)
    assert stop_cost(ratio, costs) == pytest.approx(
        costs.false_alarm * costs.miss / (costs.false_alarm + costs.miss)
    )
    grid = np.linspace(0, 1, 101)
    assert max(stop_cost(p, costs) for p in grid) <= stop_cost(ratio, costs) + 1e-12


def test_bayes_verdict_cases():
    assert bayes_verdict(0.6, EQUAL_COSTS) == 1
    assert bayes_verdict(0.5, EQUAL_COSTS) == 0  # tie resolves to genuine
    assert bayes_verdict(0.9, CostSpec(false_alarm=19.0, miss=1.0, per_step=0.0)) == 0


def test_cost_spec_validation():
    with pytest.raises(ModelError):
        CostSpec(false_alarm=0.0, miss=0.0, per_step=0.1)
    with pytest.raises(ModelError):
        CostSpec(false_alarm=-1.0, miss=1.0, per_step=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError):
            CostSpec(false_alarm=bad, miss=10.0, per_step=0.05)
        with pytest.raises(ModelError):
            CostSpec(false_alarm=10.0, miss=10.0, per_step=bad)


# ---- Wald boundaries and SPRT config ----


def test_wald_bounds_values():
    low, up = wald_bounds(0.05, 0.05)
    assert low == pytest.approx(0.05 / 0.95, abs=1e-12)
    assert up == pytest.approx(19.0, abs=1e-12)
    low2, up2 = wald_bounds(0.01, 0.1)
    assert low2 == pytest.approx(0.1 / 0.99, abs=1e-12)
    assert up2 == pytest.approx(90.0, abs=1e-12)


def test_wald_bounds_monotone_in_targets():
    lows, ups = zip(*(wald_bounds(p, p) for p in (0.2, 0.1, 0.05, 0.01, 0.001)))
    assert list(lows) == sorted(lows, reverse=True)
    assert list(ups) == sorted(ups)


@given(
    p=st.floats(min_value=1e-4, max_value=0.499),
    q=st.floats(min_value=1e-4, max_value=0.499),
)
def test_wald_bounds_bracket_one(p, q):
    low, up = wald_bounds(p, q)
    assert 0.0 < low < 1.0 < up


@given(
    pi=st.floats(min_value=0.0, max_value=1.0),
    fa=st.floats(min_value=0.1, max_value=50.0),
    miss=st.floats(min_value=0.1, max_value=50.0),
)
def test_stop_cost_bounded_by_peak(pi, fa, miss):
    costs = CostSpec(false_alarm=fa, miss=miss, per_step=0.0)
    peak = fa * miss / (fa + miss)
    value = stop_cost(pi, costs)
    assert 0.0 <= value <= peak + 1e-12
    # the verdict minimizing the stop cost is the one bayes_verdict picks
    verdict = bayes_verdict(pi, costs)
    chosen = miss * pi if verdict == 0 else fa * (1.0 - pi)
    assert chosen == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-7])
def test_solver_rejects_a_tolerance_that_is_not_positive_and_finite(ref_model, tol):
    # a NaN tolerance never stops the sweeps, and one of zero or less barely does
    with pytest.raises(ModelError, match="tol must be positive and finite"):
        solve_thresholds(EQUAL_COSTS, single_step_outcomes(ref_model), tol=tol)


def test_sprt_policy_validation():
    for lower, upper in [(1.5, 2.0), (0.5, math.inf), (0.0, 10.0)]:
        with pytest.raises(ModelError, match="need 0 < lower <= 1 <= upper < inf"):
            SprtPolicy(lower, upper, EQUAL_COSTS)
    lower, upper = wald_bounds(0.05, 0.05)
    assert lower <= 1.0 <= upper
    SprtPolicy(lower, upper, EQUAL_COSTS)


def test_sprt_step_continue_and_stop():
    policy = SprtPolicy(1 / 19, 19.0, EQUAL_COSTS)
    prior = BeliefState(prior=0.5)
    inside = BeliefState(prior=0.5, log_lr=0.0, step=3)
    assert decide(policy, [prior, inside]).rule == "horizon"
    above = BeliefState(prior=0.5, log_lr=math.log(20.0), step=4)
    outcome = decide(policy, [prior, above])
    assert outcome == DecisionOutcome(step=4, verdict=1, rule="sprt")
    below = BeliefState(prior=0.5, log_lr=math.log(1 / 25), step=2)
    assert decide(policy, [prior, below]).verdict == 0
    # the prior is never checked, even beyond a boundary
    fresh = BeliefState(prior=0.5, log_lr=5.0, step=0)
    assert decide(policy, [fresh, inside]).rule == "horizon"


# ---- threshold solver ----


def test_immediate_stop_regime(ref_model):
    costs = CostSpec(false_alarm=10.0, miss=10.0, per_step=20.0)
    table = solve_thresholds(costs, single_step_outcomes(ref_model))
    assert table.converged
    assert table.pi_low == pytest.approx(0.5, abs=1e-12)
    assert table.pi_up == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(
        table.values, np.minimum(10 * table.grid, 10 * (1 - table.grid)), atol=1e-12
    )


def test_free_sampling_fills_unit_interval(ref_model):
    costs = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.0)
    table = solve_thresholds(costs, single_step_outcomes(ref_model))
    assert table.pi_low <= 0.001
    assert table.pi_up >= 0.999


def test_reference_costs_give_interior_interval(ref_model):
    table = solve_thresholds(EQUAL_COSTS, single_step_outcomes(ref_model))
    assert table.converged
    # the lower threshold sits below the grid step for these parameters: the
    # per-step cost is charged only in proportion to the posterior, so
    # continuing is asymptotically free as the posterior approaches zero
    assert 0.0 <= table.pi_low < 0.5 < table.pi_up < 1.0
    assert table.pi_up - table.pi_low < 1.0


def test_dp_table_solves_the_uniform_context_surrogate_to_a_zero_pi_low(ref_model):
    # the table is optimal for single_step_outcomes's surrogate, whose context
    # class is uniform; under it a step costs per_step * pi, so auditing an
    # item that is almost surely genuine is almost free, and pi_low is that
    # surrogate's optimum at every grid, not a grid artifact
    outcomes = single_step_outcomes(ref_model)
    for grid_step in (1e-3, 1e-4, 1e-5):
        table = solve_thresholds(EQUAL_COSTS, outcomes, grid_step=grid_step)
        assert table.converged and table.pi_low == 0.0
        # continuing beats a "genuine" verdict at the first positive grid point
        assert table.values[1] < EQUAL_COSTS.miss * table.grid[1]
    assert table.values[1] == pytest.approx(9.71e-6, rel=1e-3)  # 1e-5 grid
    costly = solve_thresholds(CostSpec(false_alarm=10.0, miss=10.0, per_step=2.0), outcomes)
    assert costly.pi_low == pytest.approx(0.104)  # off zero once steps are costly


def test_doubling_step_cost_shrinks_interval(ref_model):
    outcomes = single_step_outcomes(ref_model)
    base = solve_thresholds(EQUAL_COSTS, outcomes)
    doubled = solve_thresholds(
        CostSpec(false_alarm=10.0, miss=10.0, per_step=0.1), outcomes
    )
    assert doubled.pi_low >= base.pi_low
    assert doubled.pi_up <= base.pi_up
    assert (doubled.pi_up - doubled.pi_low) < (base.pi_up - base.pi_low)


def test_values_below_stop_cost_and_concave(ref_model):
    table = solve_thresholds(EQUAL_COSTS, single_step_outcomes(ref_model))
    g = np.minimum(10 * table.grid, 10 * (1 - table.grid))
    assert np.all(table.values <= g + 1e-9)
    second_diff = np.diff(table.values, 2)
    assert second_diff.max() <= 1e-6


def test_threshold_invariant_brackets_ratio(ref_model):
    costs = CostSpec(false_alarm=3.0, miss=7.0, per_step=0.05)
    table = solve_thresholds(costs, single_step_outcomes(ref_model))
    assert table.pi_low <= costs.decision_ratio <= table.pi_up


@pytest.mark.parametrize(
    "costs, pi_low, pi_up, sweeps, values_sha256",
    [
        (EQUAL_COSTS, 0.0, 0.987, 61,
         "5bcc3762bf72133efc87577ca679d7ea2a8888c357502b2466648273ab3b143d"),
        (CostSpec(false_alarm=3.0, miss=7.0, per_step=0.05), 0.0, 0.9570000000000001, 57,
         "119f5ab5f0c697e5f913d32fe6e81e46ea1d7f12aa13703defc8ffc3b02c3dd5"),
    ],
)
def test_reference_model_table_is_golden(ref_model, costs, pi_low, pi_up, sweeps, values_sha256):
    # recorded before the sweep-invariant outcome arrays were hoisted out of
    # the value-iteration loop; the table must stay bit-identical
    table = solve_thresholds(costs, single_step_outcomes(ref_model))
    assert (table.pi_low, table.pi_up, table.sweeps) == (pi_low, pi_up, sweeps)
    assert hashlib.sha256(table.values.tobytes()).hexdigest() == values_sha256


def context_outcomes(model, last_class):
    """The ``(a_genuine, a_fake)`` pair of each next class after an edge of
    ``last_class``: that transition row of each hypothesis."""
    return model.transition_probs[:, last_class].T.copy()


@pytest.mark.parametrize("grid_step", [0.1, 0.01, 0.001, 0.0003])
@pytest.mark.parametrize("seed", range(16))
def test_stacked_sweep_matches_per_outcome_interp_bit_for_bit(grid_step, seed):
    # kinds by seed % 4: marginalized outcomes, one context's row, two
    # outcomes of zero weight (their updated posterior is the grid point
    # itself, an exact hit), and three hostile pairs: a negative a_genuine,
    # a negative a_fake (updated posteriors above 1 and below 0) and both
    # entries above 1
    rng = np.random.default_rng([seed, round(grid_step * 1e4)])
    model = random_model(rng, int(rng.integers(2, 5)))
    kind = seed % 4
    if kind == 1:
        outcomes = context_outcomes(model, int(rng.integers(model.num_classes)))
    else:
        outcomes = np.array(single_step_outcomes(model))
    if kind == 2:
        outcomes[rng.integers(len(outcomes), size=2)] = 0.0
    if kind == 3:
        low, high = rng.uniform(-0.3, -0.01, size=2), rng.uniform(0.1, 1.3, size=2)
        hostile = [(low[0], high[0]), (high[1], low[1]), rng.uniform(1.0, 1.3, size=2)]
        outcomes[rng.choice(len(outcomes), size=3, replace=False)] = hostile
        grid = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
        weight = grid * outcomes[:, 1:] + (1.0 - grid) * outcomes[:, :1]
        with np.errstate(invalid="ignore", divide="ignore"):
            updated = np.where(weight > 0, grid * outcomes[:, 1:] / weight, grid)
        assert ((updated < 0) | (updated > 1)).any()  # np.interp clamps these
    costs = CostSpec(*rng.uniform(0.0, 20.0, size=2), float(rng.uniform(0.0, 1.0)))
    max_sweeps = int(rng.choice([5, 300]))
    values, sweeps, converged, pi_low, pi_up = solve_thresholds_interp(
        costs, outcomes, grid_step, max_sweeps)
    table = solve_thresholds(costs, outcomes, grid_step=grid_step, max_sweeps=max_sweeps)
    assert table.values.tobytes() == values.tobytes()
    assert (table.sweeps, table.converged, table.pi_low, table.pi_up) == (
        sweeps, converged, pi_low, pi_up)


def test_unconverged_flag(ref_model):
    table = solve_thresholds(EQUAL_COSTS, single_step_outcomes(ref_model), max_sweeps=1)
    assert not table.converged
    assert table.sweeps == 1


@pytest.mark.parametrize("outcomes", [[], [0.5, 0.5], [(0.5, 0.5, 0.0)]])
def test_solver_rejects_outcomes_that_are_not_pairs(outcomes):
    with pytest.raises(ModelError, match="sequence of \\(a_genuine, a_fake\\) pairs"):
        solve_thresholds(EQUAL_COSTS, outcomes, grid_step=0.01)


def test_per_context_tables_differ_by_context(ref_model):
    by_context = [
        solve_thresholds(EQUAL_COSTS, context_outcomes(ref_model, z), grid_step=0.01)
        for z in range(4)
    ]
    intervals = {(t.pi_low, t.pi_up) for t in by_context}
    assert len(intervals) > 1


def test_threshold_table_round_trip(tmp_path, ref_model):
    table = solve_thresholds(EQUAL_COSTS, single_step_outcomes(ref_model), grid_step=0.01)
    path = tmp_path / "table.csv"
    table.save(path)
    loaded = ThresholdTable.load(path)
    np.testing.assert_allclose(loaded.grid, table.grid)
    np.testing.assert_allclose(loaded.values, table.values)
    assert loaded.pi_low == table.pi_low
    assert loaded.pi_up == table.pi_up
    assert loaded.costs == table.costs
    assert loaded.converged == table.converged


# ---- trajectory stopping rules ----


def test_dp_stop_upper_exit():
    outcome = dp_stop([0.5, 0.5, 0.7, 0.96], table_with(0.05, 0.95))
    assert outcome == DecisionOutcome(step=3, verdict=1, rule="dp_threshold")


def test_dp_stop_lower_exit():
    outcome = dp_stop([0.5, 0.5, 0.04], table_with(0.05, 0.95))
    assert outcome == DecisionOutcome(step=2, verdict=0, rule="dp_threshold")


def test_dp_stop_horizon_fallback():
    outcome = dp_stop([0.5, 0.6, 0.7], table_with(0.05, 0.95))
    assert outcome.rule == "horizon"
    assert outcome.step == 2
    assert outcome.verdict == 1  # bayes verdict at 0.7 under equal costs


def test_dp_stop_needs_observations():
    with pytest.raises(DegenerateDataError):
        dp_stop([0.5], table_with(0.1, 0.9))
    with pytest.raises(DegenerateDataError):
        dp_stop([], table_with(0.1, 0.9))


def test_convergence_stop_first_small_delta():
    outcome = convergence_stop([0.5, 0.5005, 0.9], epsilon=0.001, threshold=0.5)
    assert outcome == DecisionOutcome(step=1, verdict=1, rule="convergence")


def test_convergence_stop_constant_trajectory():
    outcome = convergence_stop([0.4, 0.4, 0.4], epsilon=0.001, threshold=0.5)
    assert outcome.step == 1
    assert outcome.verdict == 0


def test_convergence_keeps_running_on_published_fake_curve():
    # every delta through step 8 exceeds 1e-3 (the step-8 delta is 0.0102),
    # so the rule must not fire and the horizon fallback decides
    outcome = convergence_stop(FAKE_NEWS_CURVE, epsilon=0.001, threshold=0.5)
    assert outcome.rule == "horizon"
    assert outcome.step == 8
    assert outcome.verdict == 1


def test_convergence_verdict_uses_threshold():
    low = convergence_stop([0.5, 0.5005], epsilon=0.001, threshold=0.6)
    assert low.verdict == 0
    high = convergence_stop([0.5, 0.5005], epsilon=0.001, threshold=0.5)
    assert high.verdict == 1


# ---- posterior/likelihood-ratio equivalence ----


def test_dp_and_sprt_rules_agree_on_random_trajectories():
    rng = derive_rng(1234)
    for _ in range(200):
        prior = float(rng.uniform(0.15, 0.85))
        pi_low = float(rng.uniform(0.02, prior - 0.05))
        pi_up = float(rng.uniform(prior + 0.05, 0.98))
        steps = int(rng.integers(1, 30))
        log_lrs = [0.0]
        for _ in range(steps):
            log_lrs.append(log_lrs[-1] + float(rng.normal(0.0, 0.8)))
        posts = [posterior_from_log_lr(x, prior) for x in log_lrs]
        table = table_with(pi_low, pi_up)
        odds = (1.0 - prior) / prior  # the thresholds' likelihood ratios under the prior odds
        lower, upper = odds * pi_low / (1.0 - pi_low), odds * pi_up / (1.0 - pi_up)
        trajectory = states(posts, log_lrs)
        dp = decide(DpThresholdPolicy(table), trajectory)
        sprt = decide(SprtPolicy(lower, upper, table.costs), trajectory)
        assert (dp.step, dp.verdict) == (sprt.step, sprt.verdict)


def test_posterior_threshold_transform_matches_identity():
    # at prior 0.5 the prior odds are 1, so each boundary is its threshold's odds
    lower, upper = 0.3 / (1.0 - 0.3), 0.8 / (1.0 - 0.8)
    # the posterior of a likelihood ratio sitting exactly on a boundary is the
    # corresponding posterior threshold
    assert posterior_from_log_lr(math.log(lower), 0.5) == pytest.approx(0.3, abs=1e-12)
    assert posterior_from_log_lr(math.log(upper), 0.5) == pytest.approx(0.8, abs=1e-12)


# ---- streaming detection and risk ----


def test_decide_consumes_beliefs_only_up_to_the_verdict():
    consumed = []

    def lazy():
        for state in states([0.5, 0.5, 0.04, 0.5, 0.5]):
            consumed.append(state.step)
            yield state

    outcome = decide(DpThresholdPolicy(table_with(0.05, 0.95)), lazy())
    assert outcome == DecisionOutcome(step=2, verdict=0, rule="dp_threshold")
    assert consumed == [0, 1, 2]


def test_convergence_policy_rejects_non_finite_parameters():
    for epsilon, threshold in ((math.nan, 0.5), (math.inf, 0.5), (0.001, math.nan),
                               (0.001, math.inf), (0.001, 2.0), (0.001, -1.0)):
        with pytest.raises(ModelError):
            ConvergencePolicy(epsilon=epsilon, threshold=threshold)
    for threshold in (0.0, 1.0):
        assert ConvergencePolicy(epsilon=0.001, threshold=threshold).threshold == threshold


def test_run_detection_with_convergence_policy(ref_model):
    from cascaudit.markov import sample_trace, subsample

    growth = GrowthConfig(max_events=40, min_children=1)
    trace = sample_trace(None, ref_model, FAKE, seed=77, growth=growth)
    stream = subsample(trace, 1.0, seed=0)
    policy = ConvergencePolicy(epsilon=0.001, threshold=0.5)
    outcome, belief = run_detection(ref_model, trace.implied_graph(), stream, policy)
    assert 1 <= outcome.step <= 40
    assert outcome.rule in ("convergence", "horizon")
    assert belief.step >= outcome.step
