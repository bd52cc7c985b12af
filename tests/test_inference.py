import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cascaudit.errors import GraphError, InvalidEvidenceError, UnreachableObservationError
from cascaudit.graph import PathEnumConfig, Prefix, enumerate_paths, forward_ball
from cascaudit.inference import (
    BeliefState,
    ChainTables,
    PosteriorEngine,
    _distinct_keys,
    _log_a,
    _log_weights,
    _logsumexp,
    _one_log_a,
    _safe_log,
    _update_from_logs,
    build_path_contexts,
    posterior_from_log_lr,
    write_trajectory,
)
from cascaudit.markov import (
    FAKE,
    GENUINE,
    GrowthConfig,
    Observation,
    SpreadModel,
    reference_model,
    sample_trace,
    subsample,
)
from cascaudit.rng import derive_rng

from .conftest import (
    build_chain_graph,
    build_graph,
    candidates,
    evidence_keys,
    random_digraph,
    random_inference_instance,
    random_model,
)
from .oracles import (
    all_simple_paths_to_edge,
    conditional_prob_brute,
    forward_arrival_logs,
    log_conditionals_per_path,
    path_contexts_brute,
    posterior_brute,
)


def obs(u, v, cls):
    return Observation(u=u, v=v, cls=cls)


def distinct_prefix(rng, edges, size, num_classes):
    """Up to ``size`` observations of random classes on distinct ``edges``,
    in random order: a stream observes each edge at most once."""
    picks = rng.permutation(len(edges))[:size]
    return [obs(*edges[int(i)], int(rng.integers(num_classes))) for i in picks]


# ---- belief updates ----


def test_uninformative_observation_leaves_belief_unchanged():
    belief = BeliefState(prior=0.37)
    updated = _update_from_logs(belief, math.log(0.4), math.log(0.4))
    assert updated.posterior == pytest.approx(0.37, abs=1e-12)
    assert updated.log_lr == pytest.approx(0.0, abs=1e-12)
    assert updated.step == 1


def test_update_direct_evaluation():
    belief = BeliefState(prior=0.5)
    updated = _update_from_logs(belief, math.log(0.2), math.log(0.8))
    assert updated.posterior == pytest.approx(0.8, abs=1e-12)


def test_first_reference_observation_matches_published_curve(ref_model):
    # a source-adjacent top-class event under the reference initial rows
    a_genuine = float(ref_model.initial_probs[GENUINE][3])
    a_fake = float(ref_model.initial_probs[FAKE][3])
    assert a_fake == pytest.approx(0.876, abs=2e-3)
    assert a_genuine == pytest.approx(0.120, abs=2e-3)
    updated = _update_from_logs(BeliefState(prior=0.5), math.log(a_genuine), math.log(a_fake))
    assert updated.posterior == pytest.approx(0.876 / (0.876 + 0.120), abs=1e-3)
    # the corresponding published trajectory point, from unrounded parameters
    assert updated.posterior == pytest.approx(0.8797, abs=1e-3)


def test_update_links_the_previous_belief_instead_of_copying_its_history():
    # an update is O(1): the new state links the old one, and the history is
    # read back along the links; a copied history made a stream quadratic
    first = _update_from_logs(BeliefState(prior=0.5), math.log(0.2), math.log(0.8))
    belief = first
    for _ in range(19_999):
        belief = _update_from_logs(belief, math.log(0.4), math.log(0.6))
    assert belief.previous.previous.step == 19_998
    history = belief.history
    assert len(history) == 20_000
    assert history[0] is first and history[-1] is belief
    assert [state.step for state in history[:3]] == [1, 2, 3]
    assert (first.a_genuine, first.a_fake) == pytest.approx((0.2, 0.8))
    assert belief.trajectory() == [0.5] + [state.posterior for state in history]
    # the link takes no part in equality or repr, so neither walks the stream
    assert belief == belief._replace(previous=None)
    assert "previous" not in repr(belief)


def test_update_rejects_double_zero():
    with pytest.raises(InvalidEvidenceError):
        _update_from_logs(BeliefState(prior=0.5), -math.inf, -math.inf)


def test_posterior_log_lr_identity_random_walk():
    rng = derive_rng(99)
    belief = BeliefState(prior=0.3)
    for _ in range(50):
        a0, a1 = rng.uniform(1e-6, 1.0, size=2)
        belief = _update_from_logs(belief, math.log(a0), math.log(a1))
        expected = (belief.prior * math.exp(belief.log_lr)) / (
            belief.prior * math.exp(belief.log_lr) + 1 - belief.prior
        )
        assert abs(belief.posterior - expected) <= 1e-9


def test_extreme_log_lr_is_stable():
    assert posterior_from_log_lr(900.0, 0.5) == 1.0
    assert posterior_from_log_lr(-900.0, 0.5) == pytest.approx(0.0, abs=1e-200)
    assert posterior_from_log_lr(0.0, 0.0) == 0.0
    assert posterior_from_log_lr(0.0, 1.0) == 1.0


@given(
    log_lr=st.floats(min_value=-50.0, max_value=50.0),
    prior=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_posterior_identity_property(log_lr, prior):
    posterior = posterior_from_log_lr(log_lr, prior)
    lr = math.exp(log_lr)
    expected = prior * lr / (prior * lr + 1.0 - prior)
    assert abs(posterior - expected) <= 1e-9
    assert 0.0 <= posterior <= 1.0


@given(
    prior=st.floats(min_value=0.05, max_value=0.95),
    a_genuine=st.floats(min_value=1e-6, max_value=1.0),
    a_fake=st.floats(min_value=1e-6, max_value=1.0),
)
def test_update_moves_posterior_with_evidence_direction(prior, a_genuine, a_fake):
    updated = _update_from_logs(BeliefState(prior=prior), math.log(a_genuine), math.log(a_fake))
    if a_fake > a_genuine:
        assert updated.posterior >= prior - 1e-12
    elif a_fake < a_genuine:
        assert updated.posterior <= prior + 1e-12


# ---- path contexts and scores ----


def test_path_context_positions_and_gaps(ref_model, demo_graph):
    enumeration = enumerate_paths(demo_graph, 1, (6, 14))
    paths = candidates(enumeration)
    at = next(i for i, p in enumerate(paths) if len(p.edges) == 3)  # 1 -> 2 -> 6 -> 14
    prefix = [obs(1, 2, 3), obs(7, 16, 0), obs(2, 6, 2)]
    [ctx] = build_path_contexts((paths[at],), prefix)
    assert ctx.on_path == ((0, 1, 3), (2, 2, 2))  # (index, position, cls): gaps of one edge
    # the engine's evidence key of the same path: its depth and (position, cls) pairs
    engine = PosteriorEngine(ref_model, demo_graph, 1)
    engine.accepted = prefix
    assert evidence_keys(enumeration, engine._by_edge)[at] == (3, ((1, 3), (2, 2)))


def test_path_contexts_match_direct_scan():
    rng = derive_rng(17)
    checked = on_path = 0
    for _ in range(40):
        graph, edges, model, stream = random_inference_instance(rng, max_obs=4)
        target = stream.observations[-1].edge
        if target[0] == stream.source:
            continue
        paths = candidates(enumerate_paths(graph, stream.source, target))
        # draw the prefix without replacement from every edge but the target,
        # on the paths or not: an observed stream repeats no edge
        others = [e for e in edges if e != target]
        prefix = [
            obs(*others[i], int(rng.integers(model.num_classes)))
            for i in rng.permutation(len(others))[:int(rng.integers(0, 12))]
        ]
        contexts = build_path_contexts(paths, prefix)
        expected = path_contexts_brute([p.vertices for p in paths], prefix)
        assert [ctx.path for ctx in contexts] == paths
        assert [
            [(e.position, e.index, e.cls) for e in ctx.on_path] for ctx in contexts
        ] == expected
        checked += 1
        on_path += any(ctx.on_path for ctx in contexts)
    assert checked >= 20
    assert on_path >= 10


def test_chain_log_tables_equal_logs_of_matrix_powers_bit_for_bit():
    # zero entries in eta and in the transitions give -inf table entries
    alpha = np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]])
    model = SpreadModel(
        num_classes=3,
        initial_probs=np.array([[0.6, 0.4, 0.0], [0.1, 0.2, 0.7]]),
        transition_probs=np.array([alpha, alpha.T / alpha.T.sum(axis=1, keepdims=True)]),
        prior_fake=0.5,
    )
    tables = ChainTables(model)
    zeros = 0
    for _ in range(2):  # the second pass reads the cached tables
        for hyp in (GENUINE, FAKE):
            eta, mat = model.initial_probs[hyp], model.transition_probs[hyp]
            for k in range(7):
                power = np.linalg.matrix_power(mat, k)
                marginal = eta if k == 0 else eta @ power
                for i in range(3):
                    assert tables.log_marginal(hyp, k + 1, i) == _safe_log(float(marginal[i]))
                    for j in range(3):
                        expected = _safe_log(float(power[i, j]))
                        assert tables.log_gap(hyp, k, i, j) == expected
                        zeros += expected == float("-inf")
    assert zeros > 0


def test_keyed_scores_equal_per_path_scoring_bit_for_bit(caplog):
    # the enumeration scorer scores each distinct evidence key once and
    # expands the scores to one entry per path; the per-path reference must
    # agree exactly
    rng = derive_rng(41)
    # class 1 is impossible at the source and the chain never changes class,
    # so anchored paths carrying a class-1 observation all score zero
    zero = SpreadModel(
        num_classes=2,
        initial_probs=np.array([[1.0, 0.0], [1.0, 0.0]]),
        transition_probs=np.array([np.eye(2), np.eye(2)]),
        prior_fake=0.5,
    )
    seen = dict.fromkeys(("checked", "mixed_lengths", "truncated", "long"), 0)
    with caplog.at_level("WARNING", logger="cascaudit.inference"):
        while seen["checked"] < 400:
            edge_prob = float(rng.choice([0.3, 0.6]))
            graph, edges = random_digraph(rng, max_nodes=8, edge_prob=edge_prob)
            source = int(rng.integers(graph.node_count))
            targets = [e for e in edges if e[0] != source]
            if not targets:
                continue
            target = targets[int(rng.integers(len(targets)))]
            # a cap of 1-5 binds often; an unbounded run compares long arrays,
            # whose sums would show a change of path order
            if rng.random() < 0.5:
                cfg = PathEnumConfig(
                    max_path_length=int(rng.integers(1, graph.node_count + 1)),
                    max_paths=int(rng.integers(1, 6)),
                )
            else:
                cfg = PathEnumConfig(max_path_length=graph.node_count, max_paths=512)
            enumeration = enumerate_paths(graph, source, target, cfg)
            if not enumeration:
                continue
            model = zero if rng.random() < 0.3 else random_model(rng, int(rng.integers(2, 4)))
            others = [e for e in edges if e != target]
            prefix = distinct_prefix(rng, others, int(rng.integers(0, 10)), model.num_classes)
            new = obs(*target, int(rng.integers(model.num_classes)))
            engine = PosteriorEngine(model, graph, source, cfg)
            engine.accepted = prefix
            expected = log_conditionals_per_path(
                ChainTables(model), candidates(enumeration), prefix, new
            )
            assert engine._enumeration_logs(new) == expected
            seen["checked"] += 1
            seen["mixed_lengths"] += len({len(p.edges) for p in enumeration.prefixes}) > 1
            seen["truncated"] += enumeration.truncated
            seen["long"] += len(enumeration) > 8
    fallbacks = caplog.text.count("zero score")
    assert min(seen.values()) >= 30, seen
    assert fallbacks >= 30


def test_one_candidate_scalar_scoring_equals_the_array_scorer(caplog):
    # the one-candidate scorer must repeat _log_a's float operations exactly,
    # zero-score fallback and its warning included
    rng = derive_rng(43)
    zero = SpreadModel(num_classes=2, initial_probs=np.array([[1.0, 0.0], [1.0, 0.0]]),
                       transition_probs=np.array([np.eye(2), np.eye(2)]), prior_fake=0.5)
    fallbacks = 0
    for trial in range(600):
        model = zero if trial % 3 == 0 else random_model(rng, int(rng.integers(2, 5)))
        tables = ChainTables(model)
        depth = int(rng.integers(1, 9))
        positions = sorted(int(p) for p in rng.integers(1, depth + 1, size=rng.integers(0, 5)))
        entries = tuple((p, int(rng.integers(model.num_classes))) for p in positions)
        cls = int(rng.integers(model.num_classes))
        rng.random()  # unused; it keeps the seeded instances the counts were set on
        for hyp in (GENUINE, FAKE):
            with caplog.at_level("WARNING", logger="cascaudit.inference"):
                caplog.clear()
                expected = _log_a(tables, hyp, [(depth, entries)], None, cls)
                expected_warnings = [r.getMessage() for r in caplog.records]
                caplog.clear()
                got = _one_log_a(tables, hyp, depth, entries, cls)
                warnings = [r.getMessage() for r in caplog.records]
            assert type(got) is float
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)
            assert warnings == expected_warnings
            assert len(warnings) <= 1
            fallbacks += len(warnings)
    assert fallbacks >= 50


@st.composite
def followee_instances(draw):
    """(edges, source, target edge, path bound, accepted ``((u, v), cls)``
    pairs, target class, model seed) on a random graph in which every node has
    at most one followee, so directed cycles are common.  The source is most
    often on the followee chain above the target edge's tail, else any other
    node, or rarely ``n``, which is no node; it is never the tail."""
    n = draw(st.integers(2, 10))
    edges = []
    for v in range(n):
        u = draw(st.integers(0, n - 1))  # n - 1: v has no followee
        if u < n - 1:
            edges.append((u + (u >= v), v))
    assume(edges)
    target = draw(st.sampled_from(edges))
    followee, chain = {v: u for u, v in edges}, [target[0]]
    while chain[-1] in followee and followee[chain[-1]] not in chain:
        chain.append(followee[chain[-1]])
    pick = draw(st.integers(0, 9))
    if pick < 5 and len(chain) > 1:
        source = draw(st.sampled_from(chain[1:]))
    else:
        source = n if pick == 9 else draw(st.integers(0, n - 1))
    assume(target[0] != source)
    others = [e for e in edges if e != target]
    accepted = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    classes = draw(st.lists(st.integers(0, 2), min_size=len(accepted), max_size=len(accepted)))
    return (edges, source, target, draw(st.integers(1, 9)), tuple(zip(accepted, classes)),
            draw(st.integers(0, 2)), draw(st.integers(0, 2**16)))


ZERO_MODEL = SpreadModel(num_classes=3, initial_probs=np.array([[1.0, 0.0, 0.0]] * 2),
                         transition_probs=np.array([np.eye(3)] * 2), prior_fake=0.5)


@settings(max_examples=300, deadline=None)
@given(instance=followee_instances())
# a cycle that misses the source, entered below it
@example(instance=([(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)], 0, (4, 5), 9, (), 0, 1))
# v on the walk: the cycle closed by (u, v)
@example(instance=([(0, 4), (1, 2), (2, 3), (3, 1)], 0, (2, 3), 9, (((3, 1), 1),), 2, 1))
# v is the source
@example(instance=([(0, 1), (1, 2), (2, 0)], 0, (2, 0), 9, (((0, 1), 0),), 1, 1))
# a chain of nine edges, with its first edge observed, under bounds that cut
# it and under the bound that keeps it
@example(instance=([(i, i + 1) for i in range(9)], 0, (8, 9), 1, (((0, 1), 2),), 1, 7))
@example(instance=([(i, i + 1) for i in range(9)], 0, (8, 9), 8, (((0, 1), 2),), 1, 7))
@example(instance=([(i, i + 1) for i in range(9)], 0, (8, 9), 9, (((0, 1), 2),), 1, 7))
# a missing source, and the zero-score fallback
@example(instance=([(0, 1), (1, 2)], 3, (1, 2), 9, (), 0, 1))
@example(instance=([(0, 1), (1, 2), (2, 3)], 0, (2, 3), 9, (((0, 1), 1),), 0, 4))
def test_followee_walk_scores_as_the_enumeration_scorer_bit_for_bit(instance):
    # _enumeration_logs scores the general prefix search's candidates, and
    # the oracle's path, scored path by path, checks both
    edges, source, target, bound, accepted, cls, model_seed = instance
    model = ZERO_MODEL if model_seed % 4 == 0 else random_model(derive_rng(model_seed), 3)
    graph = build_graph(edges)
    engine = PosteriorEngine(model, graph, source, PathEnumConfig(bound))
    engine.accepted = [obs(u, v, c) for (u, v), c in accepted]
    new = obs(*target, cls)
    outcomes = []
    for score in (engine.log_conditionals, engine._enumeration_logs):
        try:
            outcomes.append([x.hex() for x in score(new)])
        except (UnreachableObservationError, GraphError) as exc:
            outcomes.append(repr(exc))
    assert outcomes[0] == outcomes[1]
    paths = all_simple_paths_to_edge(edges, source, target, bound)
    if paths:
        [path] = paths
        expected = log_conditionals_per_path(
            engine._tables, [Prefix(path, tuple(zip(path[:-1], path[1:])))], engine.accepted, new
        )
        assert outcomes[0] == [x.hex() for x in expected]
    else:
        error = "UnreachableObservationError" if graph.has_node(source) else "GraphError"
        assert outcomes[0].startswith(error)


def test_a_single_followee_observation_is_never_enumerated(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a single-followee observation")

    monkeypatch.setattr("cascaudit.inference.enumerate_paths", refuse)
    graph = build_graph([(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)])
    engine = PosteriorEngine(reference_model(), graph, 0, PathEnumConfig(max_path_length=2))
    stream = [obs(0, 1, 0), obs(1, 2, 1), obs(2, 3, 2), obs(5, 6, 0), obs(1, 4, 3)]
    list(engine.beliefs(stream))
    assert engine.belief.step == 3 and engine.skipped == [2, 3]


# A path's weight in the mixture: its chain weight (the evidence key of the
# path, scored once per distinct key) over their log normalizer.


def test_path_weight_single_candidate_is_one(ref_model, demo_graph):
    keys = evidence_keys(enumerate_paths(demo_graph, 1, (2, 5)), {})
    log_nums, log_denom = _log_weights(ChainTables(ref_model), FAKE, *_distinct_keys(keys))
    np.testing.assert_allclose(np.exp(log_nums - log_denom), [1.0])


def test_path_weights_symmetric_paths_split_evenly(ref_model, demo_graph):
    # no prior evidence on either path
    keys = evidence_keys(enumerate_paths(demo_graph, 1, (6, 14)), {})
    log_nums, log_denom = _log_weights(ChainTables(ref_model), FAKE, *_distinct_keys(keys))
    weights = np.exp(log_nums - log_denom)
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_path_weights_hand_evaluated_two_gap_case():
    # two routes to the same edge; the prior observation sits one step before
    # the route end on each, with classes 0 and 0 -> transition rows decide
    alpha = np.array([[0.9, 0.1], [0.1, 0.9]])
    model = SpreadModel(
        num_classes=2,
        initial_probs=np.array([[0.5, 0.5], [0.5, 0.5]]),
        transition_probs=np.array([alpha, alpha]),
        prior_fake=0.5,
    )
    graph = build_graph([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"), ("t", "w")])
    engine = PosteriorEngine(model, graph, "s")
    # path via a: observed (a, t) class 0 ; path via b: observed (b, t) class 1
    engine.accepted = [obs("s", "a", 0), obs("s", "b", 0), obs("a", "t", 0), obs("b", "t", 1)]
    keys = evidence_keys(enumerate_paths(graph, "s", ("t", "w")), engine._by_edge)
    log_nums, log_denom = _log_weights(engine._tables, FAKE, *_distinct_keys(keys))
    # both routes anchor identically (class 0 at depth 1, eta uniform), then
    # one gap each: 0 -> 0 vs 0 -> 1
    np.testing.assert_allclose(sorted(np.exp(log_nums - log_denom)), [0.1, 0.9], atol=1e-12)


def test_path_weights_normalize_on_random_instances():
    rng = derive_rng(5)
    for _ in range(25):
        graph, edges, model, stream = random_inference_instance(rng)
        last = stream.observations[-1]
        if last.u == stream.source:
            continue
        engine = PosteriorEngine(model, graph, stream.source)
        engine.accepted = stream.observations[:-1]
        keys = evidence_keys(enumerate_paths(graph, stream.source, last.edge), engine._by_edge)
        log_nums, log_denom = _log_weights(engine._tables, FAKE, *_distinct_keys(keys))
        assert np.exp(log_nums - log_denom).sum() == pytest.approx(1.0, abs=1e-12)


# ---- conditional observation probabilities ----


def test_source_adjacent_probability_is_initial_row(ref_model, demo_graph):
    log_a = PosteriorEngine(ref_model, demo_graph, 1).log_conditionals(obs(1, 2, 3))
    assert math.exp(log_a[FAKE]) == pytest.approx(0.876, abs=2e-3)
    assert math.exp(log_a[GENUINE]) == pytest.approx(0.120, abs=2e-3)


def test_single_path_gap_one_collapses_to_transition(ref_model):
    engine = PosteriorEngine(ref_model, build_chain_graph(3), 0)  # 0 -> 1 -> 2 -> 3
    engine.accepted = [obs(0, 1, 3), obs(1, 2, 2)]
    got = math.exp(engine.log_conditionals(obs(2, 3, 0))[FAKE])
    assert got == pytest.approx(float(ref_model.transition_probs[FAKE][2][0]), abs=1e-15)


def test_single_path_gap_two_uses_two_step_power(ref_model):
    engine = PosteriorEngine(ref_model, build_chain_graph(3), 0)
    engine.accepted = [obs(0, 1, 3)]  # the middle edge is unobserved
    got = math.exp(engine.log_conditionals(obs(2, 3, 3))[FAKE])
    expected = float(np.linalg.matrix_power(ref_model.transition_probs[FAKE], 2)[3][3])
    assert got == pytest.approx(expected, abs=1e-15)


def test_diamond_matches_brute_force(diamond_graph, ref_model):
    prefix = [obs("s", "a", 3), obs("a", "t", 2)]
    target = obs("t", "w", 1)
    engine = PosteriorEngine(ref_model, diamond_graph, "s")
    engine.accepted = prefix
    log_a = engine.log_conditionals(target)
    for hyp in (GENUINE, FAKE):
        expected = conditional_prob_brute(
            ref_model.initial_probs[hyp].tolist(),
            ref_model.transition_probs[hyp].tolist(),
            diamond_graph.edges(),
            "s",
            prefix,
            target,
            max_len=8,
        )
        assert math.exp(log_a[hyp]) == pytest.approx(expected, abs=1e-9)


def test_conditional_probabilities_sum_to_one(ref_model, demo_graph):
    engine = PosteriorEngine(ref_model, demo_graph, 1)
    engine.accepted = [obs(1, 2, 3), obs(1, 6, 0)]
    logs = [engine.log_conditionals(obs(6, 14, cls)) for cls in range(4)]
    for hyp in (GENUINE, FAKE):
        assert sum(math.exp(log_a[hyp]) for log_a in logs) == pytest.approx(1.0, abs=1e-12)


def test_unreachable_observation_raises(ref_model):
    graph = build_graph([(0, 1), (2, 3)])
    with pytest.raises(UnreachableObservationError):
        PosteriorEngine(ref_model, graph, 0).log_conditionals(obs(2, 3, 0))


# ---- full posterior runs ----


def test_all_unreachable_observations_keep_prior(ref_model):
    graph = build_graph([(0, 1), (5, 6), (6, 7)])
    engine = PosteriorEngine(ref_model, graph, 0)
    *_, belief = engine.beliefs((obs(5, 6, 1), obs(6, 7, 2)), on_unreachable="skip")
    assert engine.skipped == [0, 1]
    assert belief.posterior == ref_model.prior_fake
    assert belief.trajectory() == [ref_model.prior_fake]


def test_unreachable_fail_policy_raises(ref_model):
    engine = PosteriorEngine(ref_model, build_graph([(0, 1), (5, 6)]), 0)
    with pytest.raises(UnreachableObservationError):
        list(engine.beliefs((obs(5, 6, 1),), on_unreachable="fail"))


def test_recursive_posterior_matches_brute_force_small_instances():
    rng = derive_rng(314)
    for _ in range(25):
        graph, edges, model, stream = random_inference_instance(rng)
        cfg = PathEnumConfig(max_path_length=graph.node_count, max_paths=100000)
        engine = PosteriorEngine(model, graph, stream.source, cfg)
        *_, belief = engine.beliefs(stream.observations, on_unreachable="fail")
        expected = posterior_brute(
            model, edges, stream.source, stream.observations, graph.node_count
        )
        assert belief.posterior == pytest.approx(expected, abs=1e-9)


def test_posterior_matches_brute_force_on_a_second_seed():
    rng = derive_rng(271)
    for _ in range(10):
        graph, edges, model, stream = random_inference_instance(rng)
        cfg = PathEnumConfig(max_path_length=graph.node_count, max_paths=100000)
        engine = PosteriorEngine(model, graph, stream.source, cfg)
        *_, belief = engine.beliefs(stream.observations, on_unreachable="fail")
        expected = posterior_brute(
            model, edges, stream.source, stream.observations, graph.node_count
        )
        assert belief.posterior == pytest.approx(expected, abs=1e-9)


def test_six_observation_demo_layout_matches_brute_force(ref_model, demo_graph):
    observations = (
        obs(1, 2, 3),
        obs(1, 23, 0),
        obs(3, 7, 3),
        obs(7, 19, 3),
        obs(4, 24, 2),
        obs(6, 14, 3),
    )
    engine = PosteriorEngine(ref_model, demo_graph, 1)
    *_, belief = engine.beliefs(observations, on_unreachable="fail")
    expected = posterior_brute(ref_model, demo_graph.edges(), 1, observations, 8)
    assert belief.posterior == pytest.approx(expected, abs=1e-9)


def test_engine_streaming_matches_batch(ref_model, demo_graph):
    observations = (obs(1, 2, 3), obs(2, 6, 3), obs(6, 14, 3))
    engine = PosteriorEngine(ref_model, demo_graph, 1)
    streamed = [engine.observe(o) for o in observations]
    batch = list(PosteriorEngine(ref_model, demo_graph, 1).beliefs(observations))
    assert batch[1:] == streamed
    assert batch[-1].history == engine.belief.history


def test_fake_trees_push_posterior_high_quickly(ref_model):
    # full observation of shallow, wide fake cascades: the posterior should be
    # nearly certain within eight events on the vast majority of them.  Width
    # matters: each source-adjacent edge contributes an initial-distribution
    # likelihood ratio, the strongest single piece of evidence available.
    growth = GrowthConfig(max_events=8, min_children=4, mean_children=4.0, max_children=8)
    high = 0
    n = 200
    for seed in range(n):
        trace = sample_trace(None, ref_model, FAKE, seed=seed, growth=growth)
        stream = subsample(trace, 1.0, seed=seed)
        engine = PosteriorEngine(ref_model, trace.implied_graph(), stream.source)
        *_, belief = engine.beliefs(stream.observations, on_unreachable="fail")
        if belief.trajectory()[8] > 0.99:
            high += 1
    assert high / n >= 0.9


def test_trajectory_export(tmp_path, ref_model):
    engine = PosteriorEngine(ref_model, build_chain_graph(4), 0)
    *_, belief = engine.beliefs((obs(0, 1, 3), obs(2, 3, 3)))
    out = tmp_path / "trajectory.csv"
    write_trajectory(belief, out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "step,a0,a1,posterior,log_lr"
    assert lines[1].startswith("0,,,")
    assert len(lines) == 4
    final = lines[-1].split(",")
    assert float(final[3]) == pytest.approx(belief.posterior, abs=1e-15)


# ---- log-sum-exp ----


def test_logsumexp_all_neg_inf_is_neg_inf():
    assert _logsumexp(np.array([-np.inf])) == -np.inf
    assert _logsumexp(np.array([-np.inf, -np.inf, -np.inf])) == -np.inf


def test_logsumexp_single_entry_is_exact():
    for x in (-745.25, -3.1, 0.0, 0.7, 123.456):
        assert _logsumexp(np.array([x])) == x
    # a -inf entry adds nothing, so [x, -inf] takes the general formula to
    # the value a one-entry array must give, sign of zero included
    for x in (-745.25, -0.0, 0.0, 1e-300, 123.456, np.inf, -np.inf, np.nan):
        got = _logsumexp(np.array([x]))
        expected = _logsumexp(np.array([x, -np.inf]))
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_logsumexp_tied_pair_adds_log_two():
    for x in (-60.5, -0.3, 0.0, 12.0):
        assert _logsumexp(np.array([x, x])) == x + math.log(2.0)


def test_logsumexp_ignores_neg_inf_entries():
    finite = np.array([-1.5, 0.25, -7.0])
    padded = np.array([-np.inf, -1.5, -np.inf, 0.25, -7.0])
    assert _logsumexp(padded) == _logsumexp(finite)


def test_logsumexp_matches_fsum_reference_on_long_arrays():
    rng = derive_rng(512)
    for scale in (0.5, 30.0, 700.0):
        a = rng.normal(0.0, scale, size=512)
        a_max = float(a.max())
        reference = a_max + math.log(math.fsum(math.exp(float(x) - a_max) for x in a))
        assert _logsumexp(a) == pytest.approx(reference, rel=1e-15)


def test_engine_beliefs_record_skips_and_stop_lazily(ref_model, caplog):
    graph = build_graph([(0, 1), (1, 2), (5, 6)])
    observations = (obs(0, 1, 3), obs(5, 6, 1), obs(1, 2, 3), obs(5, 6, 2))
    engine = PosteriorEngine(ref_model, graph, 0)
    with caplog.at_level("WARNING", logger="cascaudit.inference"):
        beliefs = engine.beliefs(observations)
        assert next(beliefs).step == 0
        assert next(beliefs).step == 1
        assert next(beliefs).step == 2  # index 1 skipped on the way
    assert engine.skipped == [1]
    assert len(engine.accepted) == 2
    assert "skipping unreachable observation 1" in caplog.text
    with pytest.raises(ValueError):
        next(engine.beliefs(observations, on_unreachable="ignore"))


@pytest.mark.parametrize("repeat", [obs(0, 1, 3), obs(0, 1, 0), obs(1, 2, 2), obs(1, 2, 1)],
                         ids=["source-same", "source-other", "deeper-same", "deeper-other"])
def test_engine_refuses_a_repeated_edge_and_keeps_its_belief(ref_model, repeat):
    stream = [obs(0, 1, 3), obs(1, 2, 2)]
    engine = PosteriorEngine(ref_model, build_chain_graph(3), 0)
    *_, belief = engine.beliefs(stream)
    refused = re.escape(f"edge {repeat.edge!r} observed twice")
    with pytest.raises(InvalidEvidenceError, match=refused):
        engine.observe(repeat)
    with pytest.raises(InvalidEvidenceError, match=refused):
        list(engine.beliefs([repeat]))  # never skipped
    assert engine.belief is belief and engine.skipped == []
    assert engine.accepted == tuple(stream)
    fresh = PosteriorEngine(ref_model, build_chain_graph(3), 0)
    with pytest.raises(InvalidEvidenceError, match=refused):
        fresh.accepted = stream + [repeat]
    assert fresh.belief == BeliefState(prior=ref_model.prior_fake)


# ---- truncated multi-path golden trajectory ----


def _layered_dag_edges():
    """Source 0, four layers of three nodes fully wired layer to layer, and
    three skip edges, so that paths of different lengths reach one edge."""
    layers = [[0]] + [[10 * k + j for j in range(3)] for k in range(1, 5)]
    edges = [(a, b) for up, down in zip(layers, layers[1:]) for a in up for b in down]
    return edges + [(0, 21), (11, 32), (20, 41)]


# log_lr after each observation, recorded with the per-path context scan
# that preceded the edge-indexed contexts and the shared prefix search.
GOLDEN_TRUNCATED_LOG_LR = [
    1.9888758504914352, 0.48479845371516106, 0.7259467610565091, -2.575511220295307,
    -3.056433874532399, -2.649967264087145, 0.4877541242548289, -1.2176482564873554,
    -1.7172512324591827, -1.3902761568829916, -1.1654762601913033, -4.7559156414919865,
]


def test_truncated_multi_path_trajectory_is_golden(ref_model):
    graph = build_graph(_layered_dag_edges())
    cfg = PathEnumConfig(max_path_length=6, max_paths=5)
    observations = (
        obs(0, 11, 3), obs(11, 21, 2), obs(21, 32, 3), obs(32, 41, 1), obs(20, 30, 0),
        obs(0, 10, 1), obs(10, 20, 3), obs(30, 42, 2), obs(12, 22, 0), obs(22, 31, 3),
        obs(31, 40, 3), obs(11, 32, 1),
    )
    truncated = [enumerate_paths(graph, 0, o.edge, cfg).truncated for o in observations]
    assert sum(truncated) == 3  # the cap binds on (32, 41), (30, 42) and (31, 40)
    # the graph is acyclic, so the engine would score these by the forward
    # recursion; the golden values pin the enumeration scorer
    engine = PosteriorEngine(ref_model, graph, 0, cfg)
    for o in observations:
        engine.belief = _update_from_logs(engine.belief, *engine._enumeration_logs(o))
        engine._accept(o)
    assert [rec.log_lr for rec in engine.belief.history] == GOLDEN_TRUNCATED_LOG_LR


# ---- forward recursion on acyclic graphs ----


def _random_dag(rng, max_nodes=9):
    """Random DAG whose ids are not in topological order."""
    order = [int(x) for x in rng.permutation(int(rng.integers(4, max_nodes + 1)))]
    return [(a, b) for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < 0.5]


def _relative_gap(logs, expected) -> float:
    """Largest relative difference of the conditionals behind two log pairs."""
    return max(0.0 if x == y else abs(math.expm1(x - y)) for x, y in zip(logs, expected))


def test_forward_pass_matches_uncapped_enumeration_on_random_dags():
    rng = derive_rng(53)
    seen = dict.fromkeys(("forward", "on_path", "mixed_lengths"), 0)
    bounds = set()
    while seen["forward"] < 300:
        edges = _random_dag(rng)
        if not edges:
            continue
        graph = build_graph(edges)
        source = edges[int(rng.integers(len(edges)))][0]
        targets = [e for e in edges if e[0] != source]
        if not targets:
            continue
        target = targets[int(rng.integers(len(targets)))]
        cfg = PathEnumConfig(max_path_length=int(rng.integers(1, 7)), max_paths=10**6)
        enumeration = enumerate_paths(graph, source, target, cfg)
        if not enumeration:
            continue
        model = random_model(rng, int(rng.integers(2, 4)))
        on_paths = sorted({e for p in enumeration.prefixes for e in p.edges})
        off_paths = [e for e in edges if e not in on_paths and e != target]
        prefix = distinct_prefix(rng, off_paths, int(rng.integers(0, 6)), model.num_classes)
        prefix += distinct_prefix(rng, on_paths, int(rng.integers(0, 4)), model.num_classes)
        prefix = [prefix[int(i)] for i in rng.permutation(len(prefix))]
        engine = PosteriorEngine(model, graph, source, cfg)
        engine.accepted = prefix
        new = obs(*target, int(rng.integers(model.num_classes)))
        logs, expected = engine.log_conditionals(new), engine._enumeration_logs(new)
        assert _relative_gap(logs, expected) <= 1e-12, (edges, source, target, prefix, new)
        if engine._forward_logs(new) is None:
            continue
        seen["forward"] += 1
        seen["on_path"] += any(o.edge in on_paths for o in prefix)
        seen["mixed_lengths"] += len({len(p.edges) for p in enumeration.prefixes}) > 1
        bounds.add(cfg.max_path_length)
    assert min(seen.values()) >= 30, seen
    assert bounds == {2, 3, 4, 5, 6}  # no target off the source is one edge away


def _fallback_case(case):
    """(model, edges, prefix, new) for one fallback from source 0."""
    dag, model = _layered_dag_edges(), reference_model()
    prefix, new = [obs(0, 11, 3), obs(11, 21, 2), obs(20, 30, 0)], obs(31, 40, 1)
    if case == "cyclic":
        return model, dag + [(41, 10)], prefix, new
    if case == "forest":
        tree = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (5, 6)]
        return model, tree, [obs(1, 3, 2)], obs(5, 6, 1)
    # class 1 is impossible at the source and the chain never changes class,
    # so every candidate, each entering the tail 31 by a class-1 edge, scores zero
    zero = SpreadModel(num_classes=2, initial_probs=np.array([[1.0, 0.0], [1.0, 0.0]]),
                       transition_probs=np.array([np.eye(2), np.eye(2)]), prior_fake=0.5)
    return zero, dag, [obs(20, 31, 1), obs(21, 31, 1), obs(22, 31, 1)], obs(31, 40, 0)


def _bits(logs):
    return None if logs is None else tuple(map(float.hex, logs))


def test_forward_arrival_fold_equals_the_earlier_fold_bit_for_bit():
    # tails at one depth and at several, and models with zero entries; the
    # earlier fold ran a np.logaddexp from -inf for every row, the engine
    # starts from the first row's logs plus 0.0
    rng = derive_rng(71)
    seen = dict.fromkeys(("several_depths", "zero", "no_mass"), 0)
    forward = 0
    while forward < 400 or min(seen.values()) < 20:
        edges = _random_dag(rng, max_nodes=10)
        graph = build_graph(edges)
        if not edges or graph._shape() != "dag":
            continue
        source = edges[int(rng.integers(len(edges)))][0]
        targets = [e for e in edges if e[0] != source]
        if not targets:
            continue
        model = random_model(rng, int(rng.integers(2, 4)))
        if rng.random() < 0.3:  # zero entries, each row keeping its largest
            for table in (model.initial_probs, *model.transition_probs):
                below_max = table < table.max(axis=-1, keepdims=True)
                table[below_max & (rng.random(table.shape) < 0.4)] = 0.0
                table /= table.sum(axis=-1, keepdims=True)
        cfg = PathEnumConfig(max_path_length=int(rng.integers(2, 8)), max_paths=10**6)
        target = targets[int(rng.integers(len(targets)))]
        others = [e for e in edges if e != target]
        engine = PosteriorEngine(model, graph, source, cfg)
        engine.accepted = distinct_prefix(rng, others, int(rng.integers(0, 8)), model.num_classes)
        new = obs(*target, int(rng.integers(model.num_classes)))
        logs = engine._forward_logs(new)
        ball = forward_ball(graph, source, cfg.max_path_length)
        if new.u not in ball.node_rows or len(engine._messages) < ball.node_rows[new.u][-1][0]:
            assert logs is None  # out of reach, or the floor check sent it to enumeration
            continue
        assert _bits(logs) == _bits(forward_arrival_logs(engine, new)), (
            edges, source, engine.accepted, new)
        forward += 1
        seen["several_depths"] += len(ball.node_rows[new.u]) > 1
        seen["zero"] += logs is not None and -math.inf in logs
        seen["no_mass"] += logs is None


@pytest.mark.parametrize("case", ["cyclic", "forest", "zero_chain"])
def test_forward_fallbacks_equal_the_enumeration_scorer(case, caplog):
    model, edges, prefix, new = _fallback_case(case)
    engine = PosteriorEngine(model, build_graph(edges), 0)
    engine.accepted = prefix
    expected = engine._enumeration_logs(new)
    assert engine.log_conditionals(new) == expected
    assert engine._forward_logs(new) is None
    assert ("zero score" in caplog.text) == (case == "zero_chain")


@pytest.mark.parametrize("source", [1, 777])
def test_a_source_edge_off_the_graph_is_unreachable(source):
    # the source rule needs the edge too; 777 is not a node at all
    engine = PosteriorEngine(reference_model(), build_graph([(1, 2), (2, 3)]), source)
    with pytest.raises(UnreachableObservationError):
        engine.log_conditionals(obs(source, 99, 3))


def test_single_candidate_on_a_multi_path_dag_takes_the_forward_pass():
    model, dag = reference_model(), _layered_dag_edges()
    engine = PosteriorEngine(model, build_graph(dag), 0)
    engine.accepted = [obs(0, 11, 3), obs(11, 21, 2), obs(20, 30, 0)]
    new = obs(10, 20, 2)  # only 0 -> 10 reaches (10, 20)
    assert len(enumerate_paths(engine.graph, 0, new.edge, engine.cfg)) == 1
    forward = engine._forward_logs(new)
    assert forward is not None
    assert _relative_gap(forward, engine._enumeration_logs(new)) <= 1e-12


def test_forward_ball_memo_returns_one_ball_per_key():
    graph = build_graph(_layered_dag_edges())
    assert graph._shape() == "dag"
    ball = forward_ball(graph, 0, 8)
    assert forward_ball(graph, 0, 8) is ball
    assert forward_ball(graph, 0, 3) is not ball and forward_ball(graph, 10, 8) is not ball
    with pytest.raises(GraphError, match="source"):
        forward_ball(graph, 7, 8)
    enumeration = enumerate_paths(graph, 0, (31, 40), PathEnumConfig(max_paths=10**6))
    depths = [depth for depth, _ in ball.node_rows[31]]
    assert depths == sorted({len(prefix.edges) for prefix in enumeration.prefixes}) == [2, 3]
    cyclic = build_graph(_layered_dag_edges() + [(41, 10)])
    assert cyclic._shape() == "cyclic"
    assert forward_ball(cyclic, 0, 8) is None


def test_forward_pass_survives_path_products_below_the_double_range():
    # two candidates through a diamond, then a 400-edge chain whose observed
    # classes alternate against a sticky chain: each path's score is about
    # 0.05 ** 400, far below the smallest double
    chain = list(range(3, 404))
    graph = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)] + list(zip(chain, chain[1:])))
    model = SpreadModel(
        num_classes=2,
        initial_probs=np.array([[0.5, 0.5], [0.3, 0.7]]),
        transition_probs=np.array([[[0.95, 0.05], [0.05, 0.95]], [[0.9, 0.1], [0.2, 0.8]]]),
        prior_fake=0.5,
    )
    cfg = PathEnumConfig(max_path_length=420)
    engine = PosteriorEngine(model, graph, 0, cfg)
    engine.accepted = [obs(1, 3, 0)] + [obs(a, a + 1, a % 2) for a in chain[:-2]]
    new = obs(402, 403, 1)
    forward = engine._forward_logs(new)
    assert forward is not None
    assert _relative_gap(forward, engine._enumeration_logs(new)) <= 1e-12


def test_forward_pass_falls_back_before_the_rescaling_drops_a_path():
    # two 30-edge branches from 0 meet at u = 300.  The first 12 observed
    # edges leave branch B about 1e-330 below branch A, past the double
    # range at the same depth; the rest cut A to about 1e-570, so that B
    # carries the mixture and the recursion must not drop it on the way
    a, b = list(range(100, 130)), list(range(200, 230))
    edges = [(0, 100), (0, 200)] + list(zip(a, a[1:])) + list(zip(b, b[1:]))
    edges += [(129, 300), (229, 300), (300, 301)]
    sticky = np.array([[1.0 - 1e-30, 1e-30], [1e-30, 1.0 - 1e-30]])
    model = SpreadModel(num_classes=2, initial_probs=np.full((2, 2), 0.5),
                        transition_probs=np.array([sticky, sticky]), prior_fake=0.5)
    branch_a, branch_b = [(0, 100)] + edges[2:31], [(0, 200)] + edges[31:60] + [(229, 300)]
    branch_a.append((129, 300))
    engine = PosteriorEngine(model, build_graph(edges), 0, PathEnumConfig(max_path_length=40))
    engine.accepted = [obs(*e, 0 if i < 12 else i % 2) for i, e in enumerate(branch_a)] + [
        obs(*e, i % 2 if i < 12 else 1) for i, e in enumerate(branch_b)]
    new = obs(300, 301, 1)
    expected = engine._enumeration_logs(new)
    assert engine._forward_logs(new) is None
    assert engine.log_conditionals(new) == expected
    assert expected[GENUINE] > -1e-20  # B's class carries on to the target



def _incremental_case(rng, order):
    """(graph, source, cfg, model, stream) on a random multi-path DAG whose
    nodes sit at several depths.  The stream observes every edge below the
    source once, by its tail's least depth (``"time"``) or shuffled."""
    while True:
        edges = _random_dag(rng, max_nodes=12)
        if not edges or build_graph(edges)._shape() != "dag":
            continue
        graph = build_graph(edges)
        source = edges[int(rng.integers(len(edges)))][0]
        depth, queue = {source: 0}, [source]
        for u in queue:  # breadth first, so each node gets its least depth
            for v in graph.followers(u):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        below = [e for e in edges if e[0] in depth]
        if len({depth[u] for u, _ in below}) >= 3:
            break
    model = random_model(rng, int(rng.integers(2, 4)))
    cfg = PathEnumConfig(max_path_length=int(rng.integers(2, 7)), max_paths=10**6)
    if order == "time":
        below.sort(key=lambda e: depth[e[0]])
    else:
        below = [below[int(i)] for i in rng.permutation(len(below))]
    stream = [obs(*e, int(rng.integers(model.num_classes))) for e in below]
    return graph, source, cfg, model, stream


@pytest.mark.parametrize("order", ["time", "shuffled"])
def test_incremental_forward_state_equals_a_fresh_pass(order):
    rng = derive_rng(97 if order == "time" else 98)
    seen = dict.fromkeys(("forward", "reused", "recomputed", "reset"), 0)
    while min(seen.values()) < 40:
        graph, source, cfg, model, stream = _incremental_case(rng, order)
        engine = PosteriorEngine(model, graph, source, cfg)
        reset_at = int(rng.integers(1, len(stream)))
        for step, new in enumerate(stream):
            if step == reset_at:  # a new prefix, one observation shorter
                engine.accepted = engine.accepted[:-1]
                seen["reset"] += 1
            ball = forward_ball(graph, source, cfg.max_path_length)
            held = len(engine._messages) if engine._ball is ball else 0
            fresh = PosteriorEngine(model, graph, source, cfg)
            fresh.accepted = engine.accepted
            try:
                expected = fresh.log_conditionals(new)
            except UnreachableObservationError:
                with pytest.raises(UnreachableObservationError):
                    engine.log_conditionals(new)
                continue
            logs = engine.log_conditionals(new)
            assert logs == expected, (stream, step)
            if new.u == source:  # scored from the initial distribution, not by enumeration
                reference = tuple(_safe_log(float(p)) for p in model.initial_probs[:, new.cls])
            else:
                reference = fresh._enumeration_logs(new)
            assert _relative_gap(logs, reference) <= 1e-12, (stream, step)
            if new.u != source and engine._forward_logs(new) is not None:
                seen["forward"] += 1
                seen["reused" if held >= ball.node_rows[new.u][-1][0] else "recomputed"] += 1
            engine._accept(new)
