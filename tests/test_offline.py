import json

import numpy as np
import pytest

from cascaudit.errors import DegenerateDataError, EstimationError, TraceError
from cascaudit.graph import SocialGraph, read_node_features
from cascaudit.markov import (
    FAKE,
    GENUINE,
    GrowthConfig,
    SpreadModel,
    Trace,
    TraceEvent,
    reference_model,
    sample_trace,
    save_model,
)
from cascaudit.offline import (
    EdgeClassifier,
    TrainingConfig,
    _percentile,
    _vectors,
    build_spread_model,
    build_trace_feature,
    classify_graph_edges,
    estimate_alpha,
    estimate_eta,
    score_to_class,
    train_classifier,
)
from cascaudit.rng import derive_rng


def chain_trace(label, source, node_ids, classes=None):
    events = []
    prev_edge = None
    for i, (a, b) in enumerate(zip(node_ids[:-1], node_ids[1:])):
        cls = None if classes is None else classes[i]
        events.append(TraceEvent(edge=(a, b), cls=cls, parent_edge=prev_edge))
        prev_edge = (a, b)
    return Trace(label=label, source=source, events=tuple(events))


def featured_corpus(n_per_label=30, users_per_trace=5, seed=0, spread=0.4):
    """Synthetic ``(traces, graph, features)``: genuine user features cluster
    at -1, fake at +1; the events carry no class."""
    rng = derive_rng(seed)
    features, edges, traces = {}, [], []
    uid = 0
    for label in (GENUINE, FAKE):
        center = -1.0 if label == GENUINE else 1.0
        for _ in range(n_per_label):
            ids = list(range(uid, uid + users_per_trace))
            uid += users_per_trace
            for node in ids:
                features[node] = rng.normal(center, spread, size=2)
            edges += zip(ids[:-1], ids[1:])
            traces.append(chain_trace(label, ids[0], ids))
    return traces, SocialGraph(edges, features), features


# ---- trace features ----


def test_single_event_trace_feature():
    trace = chain_trace(FAKE, 0, [0, 1])
    features = {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])}
    np.testing.assert_allclose(build_trace_feature(trace, features), [1.0, 2.0, 3.0, 4.0])


def test_identical_features_average_to_themselves():
    trace = chain_trace(GENUINE, 0, [0, 1, 2, 3])
    features = dict.fromkeys(range(4), np.array([0.7, -0.2]))
    np.testing.assert_allclose(build_trace_feature(trace, features), [0.7, -0.2, 0.7, -0.2])


def test_three_event_trace_feature_hand_average():
    features = {node: np.array([x]) for node, x in enumerate([1.0, 2.0, 4.0, 8.0])}
    trace = chain_trace(FAKE, 0, [0, 1, 2, 3])
    # pairs: (1,2), (2,4), (4,8) -> mean (7/3, 14/3)
    np.testing.assert_allclose(build_trace_feature(trace, features), [7.0 / 3.0, 14.0 / 3.0])


def test_empty_trace_feature_rejected():
    with pytest.raises(TraceError, match="too short"):
        build_trace_feature(Trace(label=FAKE, source=0, events=()), {0: np.array([1.0])})


def test_nodes_without_a_record_share_one_zero_vector_of_the_table_dimension(tmp_path):
    feat_file = tmp_path / "features.tsv"
    feat_file.write_text("2\t0.5,1.5\n9\t1.0,1.0\n", encoding="utf-8")
    vector = _vectors(read_node_features(feat_file))
    assert vector(2).tolist() == [0.5, 1.5] and vector(2).flags.writeable
    zeros = vector(1)
    assert zeros.tolist() == [0.0, 0.0] and not zeros.flags.writeable
    assert vector(3) is zeros and vector("x") is zeros
    assert vector(9).tolist() == [1.0, 1.0]  # a record needs no edge
    bare = _vectors({1: np.ones(3)})
    assert bare(2).shape == (3,) and not bare(2).flags.writeable
    assert all(bare(node) is bare(2) for node in (3, 4))
    # nodes without a record pair as zeros in the trace feature and in edge classes
    features = read_node_features(feat_file)
    trace = chain_trace(FAKE, 1, [1, 2, 3])
    np.testing.assert_allclose(build_trace_feature(trace, features), [0.25, 0.75, 0.25, 0.75])
    clf = EdgeClassifier(weights=np.array([0.0, 0.0, 1.0, 0.0]), bias=0.0, cal_low=0.0,
                         cal_high=1.0, num_classes=4)
    classes = classify_graph_edges(clf, SocialGraph([(1, 2), (2, 3)]), features)
    assert classes == {(1, 2): 2, (2, 3): 0}


# ---- classifier training ----


def test_separable_corpus_trains_to_perfect_accuracy():
    traces, _, features = featured_corpus(n_per_label=25, seed=3)
    clf = train_classifier(traces, features, TrainingConfig(seed=11), 4)
    correct = 0
    for trace in traces:
        feature = build_trace_feature(trace, features)
        margin = float(clf.weights @ feature + clf.bias)
        predicted = FAKE if margin > 0 else GENUINE
        correct += predicted == trace.label
    assert correct == len(traces)


def test_label_flip_negates_weights_exactly():
    traces, _, features = featured_corpus(n_per_label=20, seed=5)
    flipped = [Trace(label=1 - t.label, source=t.source, events=t.events) for t in traces]
    config = TrainingConfig(seed=21)
    clf = train_classifier(traces, features, config, 4)
    clf_flipped = train_classifier(flipped, features, config, 4)
    np.testing.assert_array_equal(clf_flipped.weights, -clf.weights)
    assert clf_flipped.bias == -clf.bias


def test_score_distributions_separate_by_label():
    traces, _, features = featured_corpus(n_per_label=40, seed=9)
    clf = train_classifier(traces, features, TrainingConfig(seed=1), 4)
    scores = {GENUINE: [], FAKE: []}
    for trace in traces:
        for ev in trace.events:
            u, v = ev.edge
            scores[trace.label].append(clf.score(features[u], features[v]))
    genuine, fake = np.array(scores[GENUINE]), np.array(scores[FAKE])
    assert genuine.mean() < fake.mean()
    # mass concentrates at the ends of the calibrated range
    assert (genuine < 0.25).mean() > 0.5
    assert (fake > 0.75).mean() > 0.5


def test_single_label_corpus_rejected():
    traces, _, features = featured_corpus(n_per_label=10)
    only_fake = [t for t in traces if t.label == FAKE]
    with pytest.raises(DegenerateDataError, match="both labels"):
        train_classifier(only_fake, features, TrainingConfig(seed=0), 4)


def test_training_determinism():
    traces, _, features = featured_corpus(n_per_label=15, seed=2)
    a = train_classifier(traces, features, TrainingConfig(seed=7), 4)
    b = train_classifier(traces, features, TrainingConfig(seed=7), 4)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert (a.cal_low, a.cal_high) == (b.cal_low, b.cal_high)


def test_classifier_round_trip(tmp_path):
    # the model file's classifier section holds every field of the
    # classifier exactly
    traces, _, features = featured_corpus(n_per_label=10, seed=4)
    clf = train_classifier(traces, features, TrainingConfig(seed=2, standardize=True), 4)
    path = tmp_path / "model.json"
    save_model(reference_model(), path, classifier=clf.to_dict())
    section = json.loads(path.read_text(encoding="utf-8"))["classifier"]
    assert section == clf.to_dict()
    assert set(section) == set(EdgeClassifier._fields)
    for field, value in zip(EdgeClassifier._fields, clf):
        assert section[field] == (value.tolist() if isinstance(value, np.ndarray) else value)


# ---- score binning ----


def test_calibration_percentiles_equal_numpy_bit_for_bit():
    rng = derive_rng(17)
    arrays = [rng.normal(size=int(n)) * 10.0 ** int(e)
              for n, e in zip(rng.integers(1, 400, size=200), rng.integers(-6, 7, size=200))]
    arrays += [np.array([0.7]), np.array([2.5, -1.0]), np.array([3.0, 3.0]),
               rng.integers(-3, 4, size=101).astype(float), np.repeat([1.5, -0.5, 2.0], 40)]
    for values in arrays:
        ordered = np.sort(values)
        for q in (1.0, 99.0):
            expected = np.float64(np.percentile(values, q))
            assert np.float64(_percentile(ordered, q)).tobytes() == expected.tobytes()


def test_score_binning_quarters():
    assert score_to_class(0.3, 4) == 1
    assert score_to_class(1.0, 4) == 3
    assert score_to_class(0.0, 4) == 0
    assert score_to_class(0.26, 4) == 1
    assert score_to_class(0.75, 4) == 3


def test_classify_edge_uses_calibrated_margin():
    clf = EdgeClassifier(
        weights=np.array([1.0, 0.0]),
        bias=0.0,
        cal_low=0.0,
        cal_high=1.0,
        num_classes=4,
    )
    assert clf.classify([0.3], [0.0]) == 1
    assert clf.classify([1.0], [0.0]) == 3
    assert clf.classify([0.0], [0.0]) == 0
    assert clf.classify([-5.0], [0.0]) == 0  # clamped below
    assert clf.classify([9.0], [0.0]) == 3   # clamped above


def test_classify_graph_edges_covers_all_edges():
    traces, graph, features = featured_corpus(n_per_label=5, seed=6)
    clf = train_classifier(traces, features, TrainingConfig(seed=3), 3)
    assert clf.num_classes == 3
    classes = classify_graph_edges(clf, graph, features)
    assert set(classes) == set(graph.edges())
    assert all(0 <= cls < 3 for cls in classes.values())
    assert 2 in classes.values()  # the top class of three is in use


# ---- parameter estimation ----


def star_trace(label, source, classes):
    """Trace whose events are all source-adjacent with the given classes."""
    events = tuple(
        TraceEvent(edge=(source, source + i + 1), cls=cls, parent_edge=None)
        for i, cls in enumerate(classes)
    )
    return Trace(label=label, source=source, events=events)


def test_estimate_eta_hand_count():
    traces = [star_trace(FAKE, 0, [3, 3, 0]), star_trace(GENUINE, 100, [0, 0])]
    eta = estimate_eta(traces, num_classes=4)
    np.testing.assert_allclose(eta[FAKE], [1 / 3, 0.0, 0.0, 2 / 3])
    np.testing.assert_allclose(eta[GENUINE], [1.0, 0.0, 0.0, 0.0])
    assert eta.shape == (2, 4)


def test_estimate_eta_single_class_indicator():
    traces = [star_trace(FAKE, 0, [2, 2, 2]), star_trace(GENUINE, 10, [1])]
    eta = estimate_eta(traces, num_classes=3)
    np.testing.assert_allclose(eta[FAKE], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(eta[GENUINE], [0.0, 1.0, 0.0])


def test_estimate_eta_zero_denominator_names_label():
    # missing genuine traces entirely
    with pytest.raises(EstimationError, match="label 0"):
        estimate_eta([star_trace(FAKE, 0, [1])], num_classes=4)


def test_estimate_alpha_chain_of_threes():
    trace = chain_trace(FAKE, 0, [0, 1, 2, 3], classes=[3, 3, 3])
    genuine = chain_trace(GENUINE, 10, [10, 11, 12], classes=[0, 0])
    alpha = estimate_alpha([trace, genuine], num_classes=4)
    assert alpha[FAKE][3][3] == 1.0
    assert alpha[FAKE][0].sum() == 0.0  # unseen row flagged as all-zero
    assert alpha[GENUINE][0][0] == 1.0


def test_estimate_alpha_smoothing_fills_unseen_rows():
    trace = chain_trace(FAKE, 0, [0, 1, 2], classes=[3, 3])
    genuine = chain_trace(GENUINE, 10, [10, 11, 12], classes=[0, 0])
    alpha = estimate_alpha([trace, genuine], num_classes=4, smoothing=True)
    np.testing.assert_allclose(alpha[FAKE][1], [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_allclose(alpha[FAKE].sum(axis=1), 1.0, atol=1e-12)


def test_estimation_uses_edge_class_map_when_given():
    trace = chain_trace(FAKE, 0, [0, 1, 2], classes=None)
    genuine = chain_trace(GENUINE, 10, [10, 11, 12], classes=None)
    traces = [trace, genuine]
    edge_classes = {(0, 1): 3, (1, 2): 2, (10, 11): 0, (11, 12): 0}
    eta = estimate_eta(traces, num_classes=4, edge_classes=edge_classes)
    assert eta[FAKE][3] == 1.0
    alpha = estimate_alpha(traces, num_classes=4, edge_classes=edge_classes)
    assert alpha[FAKE][3][2] == 1.0


def test_estimation_without_classes_raises():
    traces = [chain_trace(FAKE, 0, [0, 1], classes=None),
              chain_trace(GENUINE, 5, [5, 6], classes=None)]
    with pytest.raises(EstimationError, match="carries no class"):
        estimate_eta(traces, num_classes=4)


def test_estimates_are_order_invariant(ref_model):
    traces = [
        sample_trace(None, ref_model, label, seed=s, growth=GrowthConfig(max_events=30))
        for label in (GENUINE, FAKE)
        for s in range(8)
    ]
    forward, backward = traces, traces[::-1]
    np.testing.assert_array_equal(
        estimate_eta(forward, 4), estimate_eta(backward, 4)
    )
    np.testing.assert_array_equal(
        estimate_alpha(forward, 4), estimate_alpha(backward, 4)
    )


def simulate_corpus(model, n_per_label, seed, max_events=120):
    growth = GrowthConfig(max_events=max_events, min_children=1)
    traces = []
    for label in (GENUINE, FAKE):
        for i in range(n_per_label):
            traces.append(sample_trace(None, model, label, seed * 100_000 + label * 50_000 + i, growth))
    return traces


def test_planted_parameter_recovery_small(ref_model):
    corpus = simulate_corpus(ref_model, n_per_label=250, seed=1)
    eta = estimate_eta(corpus, 4)
    alpha = estimate_alpha(corpus, 4)
    assert np.abs(eta - ref_model.initial_probs).max() <= 0.05
    assert np.abs(alpha - ref_model.transition_probs).max() <= 0.08
    # estimates are probability vectors wherever their denominators are positive
    np.testing.assert_allclose(eta.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(alpha.sum(axis=2), 1.0, atol=1e-12)


def test_recovery_error_shrinks_with_more_data(ref_model):
    small = simulate_corpus(ref_model, n_per_label=60, seed=2)
    large = simulate_corpus(ref_model, n_per_label=240, seed=3)
    err_small = np.abs(estimate_alpha(small, 4) - ref_model.transition_probs).max()
    err_large = np.abs(estimate_alpha(large, 4) - ref_model.transition_probs).max()
    assert err_large <= err_small + 0.01


def test_build_spread_model_fills_unseen_rows(caplog):
    trace = chain_trace(FAKE, 0, [0, 1, 2], classes=[3, 3])
    genuine = chain_trace(GENUINE, 10, [10, 11, 12], classes=[0, 0])
    with caplog.at_level("WARNING", logger="cascaudit.offline"):
        eta = estimate_eta([trace, genuine], num_classes=4)
        alpha = estimate_alpha([trace, genuine], num_classes=4)
        model = build_spread_model(eta, alpha, prior_fake=0.5)
    assert isinstance(model, SpreadModel)
    np.testing.assert_allclose(model.transition_probs[FAKE][1], 0.25)
    # one warning per unseen row, where the row is filled
    unseen = [(GENUINE, z) for z in (1, 2, 3)] + [(FAKE, z) for z in (0, 1, 2)]
    assert [r.getMessage() for r in caplog.records] == [
        f"filling unseen transition row [{label}][{z}] uniformly" for label, z in unseen
    ]
