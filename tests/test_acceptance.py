"""Acceptance suite: the quantitative gates the package must clear.

Each criterion runs at its stated tolerance and prints one pass line (visible
with ``pytest tests/test_acceptance.py -v -s``).  Heavy Monte Carlo sweeps use
frozen seeds, so outcomes are deterministic across reruns.
"""

import json
import math
import time

import numpy as np
import pytest

from cascaudit.graph import PathEnumConfig, enumerate_paths, followee_path
from cascaudit.inference import (
    BeliefState,
    ChainTables,
    PosteriorEngine,
    _distinct_keys,
    _log_weights,
    posterior_from_log_lr,
)
from cascaudit.markov import (
    FAKE,
    GENUINE,
    GrowthConfig,
    Observation,
    SpreadModel,
    read_traces,
    reference_model,
    sample_trace,
    subsample,
)
from cascaudit.offline import estimate_alpha, estimate_eta
from cascaudit.policy import (
    CostSpec,
    DpThresholdPolicy,
    SprtPolicy,
    ThresholdTable,
    decide,
    run_detection,
    single_step_outcomes,
    solve_thresholds,
    wald_bounds,
)
from cascaudit.rng import derive_rng, derive_seed

from .conftest import (
    build_chain_graph,
    build_graph,
    evidence_keys,
    random_inference_instance,
    random_model,
)
from .oracles import kstep_brute, posterior_brute

REF = reference_model()

CHAIN = GrowthConfig(max_events=24, mean_children=1.0, max_children=1, min_children=1)


def _chain_growth(length):
    return GrowthConfig(max_events=length, mean_children=1.0, max_children=1, min_children=1)


def _announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS - {detail}")


# ---- criteria 1 and 3 share one sweep over random instances ----


@pytest.fixture(scope="module")
def oracle_suite():
    rng = derive_rng(2026)
    posterior_errors = []
    score_sum_errors = []
    start = time.monotonic()
    for _ in range(200):
        graph, edges, model, stream = random_inference_instance(
            rng, max_nodes=8, max_obs=6, max_classes=3
        )
        cfg = PathEnumConfig(max_path_length=graph.node_count, max_paths=100_000)
        engine = PosteriorEngine(model, graph, stream.source, cfg)
        observations = stream.observations
        for belief in engine.beliefs(observations, "fail"):
            # the path weights that the enumeration scorer mixes for the next
            # observation, given the observations the engine has accepted
            if belief.step == len(observations) or observations[belief.step].u == stream.source:
                continue
            enumeration = enumerate_paths(graph, stream.source, observations[belief.step].edge, cfg)
            distinct, key_of_path = _distinct_keys(evidence_keys(enumeration, engine._by_edge))
            for hyp in (GENUINE, FAKE):
                log_nums, log_denom = _log_weights(engine._tables, hyp, distinct, key_of_path)
                score_sum_errors.append(abs(float(np.exp(log_nums - log_denom).sum()) - 1.0))
        expected = posterior_brute(
            model, edges, stream.source, stream.observations, graph.node_count
        )
        posterior_errors.append(abs(engine.belief.posterior - expected))
    elapsed = time.monotonic() - start
    return posterior_errors, score_sum_errors, elapsed


def test_c1_posterior_oracle_equivalence(oracle_suite):
    posterior_errors, _, elapsed = oracle_suite
    assert len(posterior_errors) == 200
    worst = max(posterior_errors)
    assert worst <= 1e-9
    assert elapsed <= 120.0
    _announce("C1", f"200 instances, max |recursive - brute| = {worst:.2e}, {elapsed:.1f}s")


def _single_followee_instance(rng, max_nodes=8):
    """Random (graph, edges, source, model, observations) on a graph where each
    node follows at most one other: a tree from node 0 (a chain in a third of
    the instances), plus in half of them a 2-4-node cycle with one follower,
    which no walk from the source reaches.  The source is node 0 or, now and
    then, a tree node whose ancestors are then out of reach."""
    n = int(rng.integers(3, max_nodes + 1))
    chain = rng.random() < 1 / 3
    edges = [(v - 1 if chain else int(rng.integers(v)), v) for v in range(1, n)]
    if rng.random() < 0.5:
        cycle = list(range(n, n + int(rng.integers(2, 5))))
        edges += [(cycle[i - 1], cycle[i]) for i in range(len(cycle))]
        edges.append((cycle[int(rng.integers(len(cycle)))], cycle[-1] + 1))
    source = 0 if rng.random() < 0.75 else int(rng.integers(n))
    model = random_model(rng, int(rng.integers(2, 4)))
    observations = [
        Observation(*edges[i], int(rng.integers(model.num_classes)))
        for i in rng.permutation(len(edges))[:int(rng.integers(1, 7))]
    ]
    return build_graph(edges), edges, source, model, observations


def test_c1_followee_walk_posterior_oracle_equivalence(monkeypatch):
    # C1's instances score few observations by the followee walk, the route
    # tree traffic takes; single-followee graphs score most of theirs by it
    walked = []

    def counting_followee_path(*args):
        path = followee_path(*args)
        walked.append(bool(path))
        return path

    monkeypatch.setattr("cascaudit.inference.followee_path", counting_followee_path)
    rng = derive_rng(4711)
    worst = 0.0
    start = time.monotonic()
    for _ in range(300):
        graph, edges, source, model, observations = _single_followee_instance(rng)
        bound = int(rng.integers(1, graph.node_count + 1))
        engine = PosteriorEngine(model, graph, source, PathEnumConfig(bound))
        for _ in engine.beliefs(observations, "skip"):
            pass
        # an observation the engine accepted with no path within the bound
        # would leave the oracle without one, and raise
        expected = posterior_brute(model, edges, source, engine.accepted, bound)
        worst = max(worst, abs(engine.belief.posterior - expected))
    elapsed = time.monotonic() - start
    assert sum(walked) >= 100
    assert worst <= 1e-9
    _announce("C1 followee walk", f"{sum(walked)} of {len(walked)} walks scored, "
              f"max |recursive - brute| = {worst:.2e}, {elapsed:.1f}s")


def _dag_instance(rng, max_nodes=8):
    """Random (graph, edges, source, model, observations) on an acyclic graph
    where some node follows two others: each node ``v > 0`` follows one
    earlier node, a node ``v >= 2`` follows two more, and every other
    forward pair is an edge with probability 0.2.  The source is node 0 or,
    now and then, a later node, whose followees are then out of reach."""
    n = int(rng.integers(3, max_nodes + 1))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    head = int(rng.integers(2, n))
    edges.update((int(u), head) for u in rng.choice(head, 2, replace=False))
    edges.update((u, v) for v in range(n) for u in range(v) if rng.random() < 0.2)
    edges = sorted(edges)
    source = 0 if rng.random() < 0.75 else int(rng.integers(n))
    model = random_model(rng, int(rng.integers(2, 4)))
    observations = [
        Observation(*edges[i], int(rng.integers(model.num_classes)))
        for i in rng.permutation(len(edges))[:int(rng.integers(1, 7))]
    ]
    return build_graph(edges), edges, source, model, observations


def test_c1_forward_recursion_posterior_oracle_equivalence(monkeypatch):
    # C1's instances score few observations by the forward recursion, the
    # route layered traffic takes; DAGs with a node of two followees score
    # most of theirs by it
    forwarded = []
    forward_logs = PosteriorEngine._forward_logs

    def counting_forward_logs(engine, obs):
        logs = forward_logs(engine, obs)
        forwarded.append(logs is not None)
        return logs

    monkeypatch.setattr(PosteriorEngine, "_forward_logs", counting_forward_logs)
    rng = derive_rng(5813)
    worst = 0.0
    start = time.monotonic()
    for _ in range(300):
        graph, edges, source, model, observations = _dag_instance(rng)
        bound = int(rng.integers(1, graph.node_count + 1))
        engine = PosteriorEngine(model, graph, source, PathEnumConfig(bound))
        for _ in engine.beliefs(observations, "skip"):
            pass
        expected = posterior_brute(model, edges, source, engine.accepted, bound)
        worst = max(worst, abs(engine.belief.posterior - expected))
    elapsed = time.monotonic() - start
    assert sum(forwarded) >= 100
    assert worst <= 1e-9
    _announce("C1 forward recursion", f"{sum(forwarded)} of {len(forwarded)} recursions "
              f"scored, max |recursive - brute| = {worst:.2e}, {elapsed:.1f}s")


def test_c3_path_weight_normalization(oracle_suite):
    _, score_sum_errors, _ = oracle_suite
    assert score_sum_errors, "suite produced no multi-path enumerations"
    worst = max(score_sum_errors)
    assert worst <= 1e-12
    _announce("C3", f"{len(score_sum_errors)} enumerations, max |sum - 1| = {worst:.2e}")


def test_c2_k_step_transition_equivalence():
    rng = derive_rng(7)
    chains = [(ChainTables(REF), GENUINE), (ChainTables(REF), FAKE)]
    for num in (2, 3, 4):
        raw = rng.uniform(0.02, 1.0, size=(num, num))
        alpha = raw / raw.sum(axis=1, keepdims=True)
        model = SpreadModel(
            num_classes=num,
            initial_probs=np.full((2, num), 1.0 / num),
            transition_probs=np.array([alpha, alpha]),
        )
        chains.append((ChainTables(model), GENUINE))
    worst = 0.0
    checked = 0
    for tables, hyp in chains:
        listed = tables.model.transition_probs[hyp].tolist()
        num = len(listed)
        for k in range(1, 7):
            power = tables.power(hyp, k)
            for frm in range(num):
                for to in range(num):
                    brute = kstep_brute(listed, k, frm, to)
                    worst = max(worst, abs(float(power[frm, to]) - brute))
                    checked += 1
    assert worst <= 1e-12
    _announce("C2", f"{checked} (matrix, k, from, to) cells, max error = {worst:.2e}")


# ---- criterion 4: the posterior is a martingale under the mixture ----


def test_c4_posterior_martingale():
    n_traces = 10_000
    max_step = 10
    seed = 404
    graph = build_chain_graph(CHAIN.max_events)
    tables = ChainTables(REF)
    label_rng = derive_rng(seed, 0)
    labels = (label_rng.random(n_traces) < 0.5).astype(int)
    per_step = [[] for _ in range(max_step + 1)]
    for i in range(n_traces):
        trace = sample_trace(None, REF, int(labels[i]), derive_seed(seed, i, 1), CHAIN)
        stream = subsample(trace, 0.5, derive_seed(seed, i, 2))
        engine = PosteriorEngine(
            REF, graph, 0, PathEnumConfig(max_path_length=CHAIN.max_events + 1),
            tables=tables,
        )
        for step, obs in enumerate(stream.observations[:max_step], start=1):
            belief = engine.observe(obs)
            per_step[step].append(belief.posterior)
    worst_sigma = 0.0
    for step in range(1, max_step + 1):
        values = np.array(per_step[step])
        stderr = values.std() / math.sqrt(len(values))
        deviation = abs(values.mean() - 0.5)
        assert deviation <= 3 * stderr, f"step {step}: |mean - 0.5| = {deviation:.4f} > 3 s.e."
        worst_sigma = max(worst_sigma, deviation / stderr if stderr else 0.0)
    _announce(
        "C4",
        f"{n_traces} mixture traces, worst |mean - 0.5| = {worst_sigma:.2f} s.e. over 10 steps",
    )


# ---- criterion 5: likelihood ratio diverges in the right direction ----


def test_c5_likelihood_divergence():
    n_traces = 10_000
    length = 20
    seed = 505
    graph = build_chain_graph(length)
    tables = ChainTables(REF)
    cfg = PathEnumConfig(max_path_length=length + 1)
    fractions = {}
    for label in (FAKE, GENUINE):
        correct_sign = 0
        for i in range(n_traces):
            trace = sample_trace(None, REF, label, derive_seed(seed, label, i), _chain_growth(length))
            stream = subsample(trace, 1.0, 0)
            engine = PosteriorEngine(REF, graph, 0, cfg, tables=tables)
            for obs in stream.observations:
                engine.observe(obs)
            assert engine.belief.step == length
            if label == FAKE:
                correct_sign += engine.belief.log_lr > 0
            else:
                correct_sign += engine.belief.log_lr < 0
        fractions[label] = correct_sign / n_traces
        assert fractions[label] >= 0.95, f"label {label}: {fractions[label]:.4f} < 0.95"
    _announce(
        "C5",
        f"sign of log LR at step 20 correct on {fractions[FAKE]:.3f} of fake and "
        f"{fractions[GENUINE]:.3f} of genuine traces",
    )


# ---- criterion 6: boundary-crossing error bounds ----


def test_c6_wald_boundary_error_bounds():
    n_traces = 10_000
    length = 60
    seed = 606
    graph = build_chain_graph(length)
    tables = ChainTables(REF)
    cfg = PathEnumConfig(max_path_length=length + 1)
    costs = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.05)
    policy = SprtPolicy(*wald_bounds(0.05, 0.05), costs)
    errors = {}
    for label in (GENUINE, FAKE):
        wrong = 0
        for i in range(n_traces):
            trace = sample_trace(None, REF, label, derive_seed(seed, label, i), _chain_growth(length))
            stream = subsample(trace, 1.0, 0)
            outcome, _ = run_detection(REF, graph, stream, policy, cfg)
            wrong += outcome.verdict != label
        errors[label] = wrong / n_traces
    pe_false_alarm, pe_miss = errors[GENUINE], errors[FAKE]
    se_fa = math.sqrt(pe_false_alarm * (1 - pe_false_alarm) / n_traces)
    se_miss = math.sqrt(pe_miss * (1 - pe_miss) / n_traces)
    assert pe_false_alarm <= (1 - pe_miss) / 19.0 + 3 * se_fa
    assert pe_miss <= (1 / 19.0) * (1 - pe_false_alarm) + 3 * se_miss
    _announce(
        "C6",
        f"false-alarm {pe_false_alarm:.4f} <= {(1 - pe_miss) / 19.0:.4f} (+3 s.e.), "
        f"miss {pe_miss:.4f} <= {(1 - pe_false_alarm) / 19.0:.4f} (+3 s.e.)",
    )


# ---- criterion 7: posterior-threshold and likelihood-ratio rules coincide ----


def test_c7_threshold_rule_equivalence():
    rng = derive_rng(707)
    costs = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.05)
    grid = np.linspace(0.0, 1.0, 11)
    agreements = 0
    for _ in range(1000):
        prior = float(rng.uniform(0.15, 0.85))
        pi_low = float(rng.uniform(0.02, prior - 0.05))
        pi_up = float(rng.uniform(prior + 0.05, 0.98))
        steps = int(rng.integers(1, 40))
        log_lrs = [0.0]
        for _ in range(steps):
            log_lrs.append(log_lrs[-1] + float(rng.normal(0.0, 0.7)))
        posteriors = [posterior_from_log_lr(x, prior) for x in log_lrs]
        table = ThresholdTable(
            grid=grid,
            values=np.minimum(costs.miss * grid, costs.false_alarm * (1 - grid)),
            pi_low=pi_low,
            pi_up=pi_up,
            costs=costs,
            converged=True,
            sweeps=1,
        )
        # the likelihood-ratio boundaries of the posterior thresholds under the prior odds
        odds = (1.0 - prior) / prior
        lower, upper = odds * pi_low / (1.0 - pi_low), odds * pi_up / (1.0 - pi_up)
        states = [
            BeliefState(prior=prior, log_lr=x, step=step) for step, x in enumerate(log_lrs)
        ]
        assert [state.posterior for state in states] == posteriors
        dp = decide(DpThresholdPolicy(table), states)
        lr = decide(SprtPolicy(lower, upper, costs), states)
        assert (dp.step, dp.verdict) == (lr.step, lr.verdict)
        agreements += 1
    assert agreements == 1000
    _announce("C7", "1000 random trajectories, (step, verdict) agree exactly")


# ---- criterion 8: threshold solver sanity ----


def test_c8_threshold_solver_sanity():
    outcomes = single_step_outcomes(REF)
    immediate = solve_thresholds(CostSpec(10.0, 10.0, 20.0), outcomes)
    assert abs(immediate.pi_low - 0.5) <= 0.001
    assert abs(immediate.pi_up - 0.5) <= 0.001

    base = solve_thresholds(CostSpec(10.0, 10.0, 0.05), outcomes)
    assert base.pi_low < 0.5 < base.pi_up

    doubled = solve_thresholds(CostSpec(10.0, 10.0, 0.10), outcomes)
    assert doubled.pi_low >= base.pi_low
    assert doubled.pi_up <= base.pi_up
    assert (doubled.pi_up - doubled.pi_low) < (base.pi_up - base.pi_low)

    for table in (immediate, base, doubled):
        g = np.minimum(
            table.costs.miss * table.grid, table.costs.false_alarm * (1 - table.grid)
        )
        assert np.all(table.values <= g + 1e-9)
    _announce(
        "C8",
        f"immediate-stop at 0.5, interval ({base.pi_low:.3f}, {base.pi_up:.3f}) contains "
        f"0.5, doubling c shrinks to ({doubled.pi_low:.3f}, {doubled.pi_up:.3f}), "
        f"values <= stop cost",
    )


# ---- criterion 9: planted-parameter recovery ----


def test_c9_planted_parameter_recovery():
    seed = 909
    growth = GrowthConfig(max_events=200, min_children=1)
    traces = []
    for label in (GENUINE, FAKE):
        for i in range(1000):
            traces.append(sample_trace(None, REF, label, derive_seed(seed, label, i), growth))
    eta_hat = estimate_eta(traces, 4)
    alpha_hat = estimate_alpha(traces, 4)
    eta_err = float(np.abs(eta_hat - REF.initial_probs).max())
    alpha_err = float(np.abs(alpha_hat - REF.transition_probs).max())
    assert eta_err <= 0.05
    assert alpha_err <= 0.05
    _announce(
        "C9", f"2000 traces: max |initial error| = {eta_err:.4f}, "
        f"max |transition error| = {alpha_err:.4f}"
    )


# ---- criterion 10: end-to-end synthetic band through the CLI ----


def test_c10_end_to_end_synthetic_band(tmp_path):
    # fake cascades spread wider and shallower than genuine ones, the
    # empirical signature of misinformation diffusion; with a common shape
    # these transition tables make genuine evidence strictly stronger per
    # event and the detection-time ordering cannot hold
    from cascaudit.cli import main

    start = time.monotonic()
    fake_dir = tmp_path / "fake"
    genuine_dir = tmp_path / "genuine"
    assert main([
        "simulate", "--n", "250", "--label", "1", "--seed", "1010",
        "--max-events", "30", "--min-children", "4", "--mean-children", "4.0",
        "--max-children", "8", "--out", str(fake_dir),
    ]) == 0
    assert main([
        "simulate", "--n", "250", "--label", "0", "--seed", "1011",
        "--max-events", "60", "--min-children", "1", "--out", str(genuine_dir),
    ]) == 0
    corpus = tmp_path / "traces.jsonl"
    corpus.write_bytes(
        (fake_dir / "traces.jsonl").read_bytes()
        + (genuine_dir / "traces.jsonl").read_bytes()
    )
    out_dir = tmp_path / "eval"
    assert main([
        "eval", "--traces", str(corpus), "--seed", "2020",
        "--rho", "0.5", "--policy", "convergence", "--epsilon", "0.001",
        "--max-path-len", "64", "--out", str(out_dir),
    ]) == 0
    elapsed = time.monotonic() - start
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 500
    assert report["accuracy"] >= 0.8
    assert report["mean_detection_events"] <= 20.0
    assert report["mean_events_fake"] <= report["mean_events_genuine"]
    assert elapsed <= 600.0
    _announce(
        "C10",
        f"accuracy {report['accuracy']:.3f}, mean events {report['mean_detection_events']:.2f}, "
        f"fake {report['mean_events_fake']:.2f} <= genuine {report['mean_events_genuine']:.2f}, "
        f"{elapsed:.0f}s",
    )


# ---- criterion 11: CLI byte determinism ----


def test_c11_cli_byte_determinism(tmp_path):
    from cascaudit.cli import main

    def run_all(base):
        base.mkdir()
        sim = base / "sim"
        assert main(["simulate", "--n", "20", "--seed", "3", "--min-children", "1",
                     "--max-events", "30", "--out", str(sim)]) == 0
        model = base / "model.json"
        assert main(["train", "--traces", str(sim / "traces.jsonl"), "--seed", "4",
                     "--smoothing", "--out", str(model)]) == 0
        ev = base / "eval"
        assert main(["eval", "--traces", str(sim / "traces.jsonl"), "--model", str(model),
                     "--seed", "5", "--policy", "sprt", "--out", str(ev)]) == 0
        table = base / "table.csv"
        assert main(["thresholds", "--model", str(model), "--out", str(table)]) == 0
        # detect on the first simulated trace
        trace = read_traces(sim / "traces.jsonl")[0]
        stream = subsample(trace, 0.7, seed=8)
        from cascaudit.graph import save_graph
        from cascaudit.markov import write_stream

        graph_path = base / "graph.tsv"
        stream_path = base / "stream.json"
        save_graph(trace.implied_graph().edges(), graph_path)
        write_stream(stream, stream_path)
        traj = base / "trajectory.csv"
        assert main(["detect", "--graph", str(graph_path), "--stream", str(stream_path),
                     "--model", str(model), "--max-path-len", "40",
                     "--out", str(traj)]) == 0
        return {
            "traces": (sim / "traces.jsonl").read_bytes(),
            "graph": (sim / "graph.tsv").read_bytes(),
            "model": model.read_bytes(),
            "report": (ev / "report.json").read_bytes(),
            "per_trace": (ev / "per_trace.csv").read_bytes(),
            "curve": (ev / "accuracy_curve.csv").read_bytes(),
            "table": table.read_bytes(),
            "trajectory": traj.read_bytes(),
        }

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    mismatched = [name for name in first if first[name] != second[name]]
    assert not mismatched, f"outputs differ: {mismatched}"
    _announce("C11", f"{len(first)} output files byte-identical across reruns")
