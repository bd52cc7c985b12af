import json
from types import SimpleNamespace

import numpy as np
import pytest

from cascaudit.errors import ModelError, TraceError
from cascaudit.inference import ChainTables
from cascaudit.markov import (
    FAKE,
    GENUINE,
    MAX_CLASSES,
    GrowthConfig,
    REFERENCE_INITIAL_FAKE,
    REFERENCE_INITIAL_GENUINE,
    REFERENCE_TRANSITIONS_FAKE,
    REFERENCE_TRANSITIONS_GENUINE,
    SpreadModel,
    Trace,
    TraceEvent,
    load_model,
    read_stream,
    read_traces,
    reference_model,
    sample_trace,
    save_model,
    subsample,
    validate_model,
    write_stream,
    write_traces,
)

from .oracles import kstep_brute

CHAIN_GROWTH = GrowthConfig(max_events=50, mean_children=1.0, max_children=1, min_children=1)


def two_class_model(eta_rows, alpha_rows, prior=0.5):
    return SpreadModel(
        num_classes=2,
        initial_probs=np.array(eta_rows, dtype=float),
        transition_probs=np.array(alpha_rows, dtype=float),
        prior_fake=prior,
    )


# ---- k-step transitions ----


def k_step_transition(transition, k, frm, to):
    """Entry (frm, to) of the k-th power of one chain, through ChainTables."""
    chain = SimpleNamespace(transition_probs=np.asarray([transition], dtype=float))
    return float(ChainTables(chain).power(0, k)[frm, to])


def test_k_step_one_is_the_matrix_entry():
    alpha = np.array(REFERENCE_TRANSITIONS_FAKE)
    assert k_step_transition(alpha, 1, 0, 3) == alpha[0][3]


def test_k_step_uniform_chain_is_stationary():
    alpha = np.full((3, 3), 1.0 / 3.0)
    for k in (1, 2, 5):
        for frm in range(3):
            for to in range(3):
                assert k_step_transition(alpha, k, frm, to) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_k_step_two_matches_hand_sum():
    alpha = REFERENCE_TRANSITIONS_FAKE
    hand = (
        alpha[3][0] * alpha[0][3]
        + alpha[3][1] * alpha[1][3]
        + alpha[3][2] * alpha[2][3]
        + alpha[3][3] * alpha[3][3]
    )
    got = k_step_transition(np.array(alpha), 2, 3, 3)
    assert got == pytest.approx(hand, abs=1e-12)
    assert got == pytest.approx(0.9457, abs=5e-4)


def test_k_step_matches_literal_sum_small_chains():
    rng = np.random.default_rng(7)
    for num in (2, 3, 4):
        raw = rng.uniform(0.05, 1.0, size=(num, num))
        alpha = raw / raw.sum(axis=1, keepdims=True)
        listed = alpha.tolist()
        for k in range(1, 7):
            for frm in range(num):
                for to in range(num):
                    assert k_step_transition(alpha, k, frm, to) == pytest.approx(
                        kstep_brute(listed, k, frm, to), abs=1e-12
                    )


def test_k_step_rows_remain_stochastic(ref_model):
    for hyp in (GENUINE, FAKE):
        for k in range(1, 12):
            rows = np.linalg.matrix_power(ref_model.transition_probs[hyp], k).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)


# ---- model construction and validation ----


def test_reference_model_rows_normalized(ref_model):
    assert ref_model.num_classes == 4
    np.testing.assert_allclose(ref_model.initial_probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ref_model.transition_probs.sum(axis=2), 1.0, atol=1e-12)


def test_reference_model_logs_its_renormalization(caplog):
    with caplog.at_level("INFO", logger="cascaudit.markov"):
        reference_model()
    [record] = caplog.records
    assert record.name == "cascaudit.markov" and record.levelname == "INFO"
    assert record.getMessage().startswith("renormalizing model rows")
    assert record.funcName == "from_unnormalized"  # the caller, not the log helper


@pytest.mark.parametrize("z", [2, MAX_CLASSES])
def test_class_counts_up_to_the_maximum_are_accepted(z):
    assert SpreadModel(z, np.full((2, z), 1.0 / z), np.full((2, z, z), 1.0 / z)).num_classes == z


@pytest.mark.parametrize("z", [1, MAX_CLASSES + 1])
def test_class_counts_outside_the_bounds_are_rejected(z):
    with pytest.raises(ModelError, match=f"need 2..{MAX_CLASSES} edge classes, got {z}"):
        SpreadModel(z, np.full((2, z), 1.0 / z), np.full((2, z, z), 1.0 / z))


def test_raw_reference_tables_need_renormalization():
    raw = {
        "Z": 4,
        "eta0": REFERENCE_INITIAL_GENUINE,
        "eta1": REFERENCE_INITIAL_FAKE,
        "alpha0": REFERENCE_TRANSITIONS_GENUINE,
        "alpha1": REFERENCE_TRANSITIONS_FAKE,
        "prior_fake": 0.5,
    }
    diagnostics = validate_model(raw)
    assert not diagnostics.ok
    assert any("sums to" in issue for issue in diagnostics.issues)
    assert validate_model(reference_model()).ok


def test_validate_model_rejects_non_finite_parameters():
    eta = np.full((2, 2), 0.5)
    alpha = np.full((2, 2, 2), 0.5)
    nan_eta = eta.copy()
    nan_eta[1] = np.nan
    nan_alpha = alpha.copy()
    nan_alpha[1][0] = np.nan
    for bad_eta, bad_alpha in ((nan_eta, alpha), (eta, nan_alpha)):
        with pytest.raises(ModelError, match="finite"):
            SpreadModel(num_classes=2, initial_probs=bad_eta, transition_probs=bad_alpha)
    raw = {"Z": 2, "eta0": [0.5, 0.5], "eta1": [0.5, 0.5],
           "alpha0": [[0.5, 0.5], [0.5, 0.5]], "alpha1": [[np.inf, 0.5], [0.5, 0.5]]}
    diagnostics = validate_model(raw)
    assert not diagnostics.ok
    assert any("finite" in issue for issue in diagnostics.issues)


def test_validate_model_names_negative_cell():
    raw = {
        "Z": 2,
        "eta0": [0.5, 0.5],
        "eta1": [0.5, 0.5],
        "alpha0": [[1.1, -0.1], [0.5, 0.5]],
        "alpha1": [[0.5, 0.5], [0.5, 0.5]],
    }
    diagnostics = validate_model(raw)
    assert not diagnostics.ok
    assert any("[0][0][1]" in issue and "negative" in issue for issue in diagnostics.issues)


def test_validate_model_flags_short_row():
    raw = {
        "Z": 2,
        "eta0": [0.4, 0.5],
        "eta1": [0.5, 0.5],
        "alpha0": [[0.5, 0.5], [0.5, 0.5]],
        "alpha1": [[0.5, 0.5], [0.5, 0.5]],
    }
    diagnostics = validate_model(raw)
    assert any("initial row 0 sums to 0.9" in issue for issue in diagnostics.issues)


def test_spread_model_rejects_bad_rows():
    with pytest.raises(ModelError):
        two_class_model([[0.6, 0.5], [0.5, 0.5]], [[[0.5, 0.5], [0.5, 0.5]]] * 2)
    with pytest.raises(ModelError):
        SpreadModel(
            num_classes=1,
            initial_probs=np.array([[1.0], [1.0]]),
            transition_probs=np.ones((2, 1, 1)),
        )


# ---- simulation ----


def test_single_event_classes_follow_initial_distribution(ref_model):
    counts = np.zeros(4)
    n = 10_000
    for seed in range(n):
        trace = sample_trace(None, ref_model, FAKE, seed, GrowthConfig(max_events=1))
        assert len(trace) == 1
        counts[trace.events[0].cls] += 1
    freq = counts / n
    eta = ref_model.initial_probs[FAKE]
    sigma = np.sqrt(eta * (1 - eta) / n)
    assert np.all(np.abs(freq - eta) <= 3 * sigma + 1e-12)


def test_identity_transitions_freeze_first_class():
    model = two_class_model(
        [[0.5, 0.5], [0.5, 0.5]],
        [np.eye(2).tolist(), np.eye(2).tolist()],
    )
    trace = sample_trace(None, model, GENUINE, seed=3, growth=CHAIN_GROWTH)
    first = trace.events[0].cls
    assert all(ev.cls == first for ev in trace.events)


def test_deterministic_alternation_on_three_edge_path():
    model = two_class_model(
        [[1.0, 0.0], [1.0, 0.0]],
        [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
    )
    growth = GrowthConfig(max_events=3, mean_children=1.0, max_children=1, min_children=1)
    trace = sample_trace(None, model, FAKE, seed=0, growth=growth)
    assert [ev.cls for ev in trace.events] == [0, 1, 0]


def test_trace_structure_and_validation(ref_model):
    growth = GrowthConfig(max_events=40, min_children=1)
    trace = sample_trace(None, ref_model, FAKE, seed=11, growth=growth)
    trace.validate(num_classes=4)
    assert trace.events[0].parent_edge is None
    assert len(trace) == 40
    # every non-source event's parent is an earlier event's edge
    seen = set()
    for ev in trace.events:
        if ev.parent_edge is not None:
            assert ev.parent_edge in seen
        seen.add(ev.edge)


def test_sample_trace_on_real_graph(demo_graph, ref_model):
    trace = sample_trace(demo_graph, ref_model, GENUINE, seed=5,
                         growth=GrowthConfig(max_events=30), source=1)
    trace.validate(num_classes=4)
    for ev in trace.events:
        assert demo_graph.has_edge(*ev.edge)


def test_isolated_source_raises(ref_model, diamond_graph):
    with pytest.raises(TraceError, match="no uninfected followers"):
        sample_trace(diamond_graph, ref_model, FAKE, seed=1, source="w")


def test_sample_trace_determinism(ref_model):
    a = sample_trace(None, ref_model, FAKE, seed=42)
    b = sample_trace(None, ref_model, FAKE, seed=42)
    assert a == b


def test_transition_counts_converge_to_parameters(ref_model):
    # one long synthetic chain: 20k transitions pin every row of the matrix
    growth = GrowthConfig(max_events=20_001, mean_children=1.0, max_children=1, min_children=1)
    trace = sample_trace(None, ref_model, GENUINE, seed=9, growth=growth)
    counts = np.zeros((4, 4))
    for prev, cur in zip(trace.events[:-1], trace.events[1:]):
        counts[prev.cls][cur.cls] += 1
    estimate = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(estimate - ref_model.transition_probs[GENUINE]).max() <= 0.05


# ---- subsampling ----


def test_subsample_keep_all(ref_model):
    growth = GrowthConfig(max_events=25, min_children=1)
    trace = sample_trace(None, ref_model, FAKE, seed=2, growth=growth)
    stream = subsample(trace, 1.0, seed=0)
    assert len(stream) == 25
    assert [o.edge for o in stream.observations] == [ev.edge for ev in trace.events]


def test_subsample_half_keeps_binomial_mean(ref_model):
    growth = GrowthConfig(max_events=100, min_children=1)
    trace = sample_trace(None, ref_model, FAKE, seed=2, growth=growth)
    n = 2000
    kept = np.array([len(subsample(trace, 0.5, seed=s)) for s in range(n)])
    # mean of Binomial(100, 0.5) is 50 with sd 5; the s.e. of the MC mean is 5/sqrt(n)
    assert abs(kept.mean() - 50.0) <= 3 * 5.0 / np.sqrt(n)


def test_subsample_single_event_always_kept(ref_model):
    trace = sample_trace(None, ref_model, FAKE, seed=4, growth=GrowthConfig(max_events=1))
    for seed in range(50):
        stream = subsample(trace, 0.01, seed=seed)
        assert len(stream) >= 1


def test_subsample_preserves_order_and_drops_parents(ref_model):
    trace = sample_trace(None, ref_model, FAKE, seed=8, growth=GrowthConfig(max_events=60))
    stream = subsample(trace, 0.5, seed=1)
    positions = {ev.edge: i for i, ev in enumerate(trace.events)}
    observed = [positions[o.edge] for o in stream.observations]
    assert observed == sorted(observed)
    assert not hasattr(stream.observations[0], "parent_edge")


def test_subsample_rejects_bad_fraction(ref_model):
    trace = sample_trace(None, ref_model, FAKE, seed=4, growth=GrowthConfig(max_events=5))
    with pytest.raises(TraceError):
        subsample(trace, 0.0, seed=1)
    with pytest.raises(TraceError):
        subsample(Trace(label=None, source=0, events=()), 0.5, seed=1)


# ---- files ----


def test_model_file_round_trip(tmp_path, ref_model):
    path = tmp_path / "model.json"
    save_model(ref_model, path, classifier={"weights": [1.0, 2.0], "bias": 0.1})
    loaded, classifier = load_model(path)
    np.testing.assert_allclose(loaded.initial_probs, ref_model.initial_probs)
    np.testing.assert_allclose(loaded.transition_probs, ref_model.transition_probs)
    assert loaded.prior_fake == ref_model.prior_fake
    assert classifier == {"weights": [1.0, 2.0], "bias": 0.1}


def test_trace_file_round_trip(tmp_path, ref_model):
    traces = [
        sample_trace(None, ref_model, FAKE, seed=1, growth=GrowthConfig(max_events=12)),
        sample_trace(None, ref_model, GENUINE, seed=2, growth=GrowthConfig(max_events=7)),
    ]
    path = tmp_path / "traces.jsonl"
    write_traces(traces, path)
    loaded = read_traces(path)
    assert loaded == traces


def test_stream_file_round_trip(tmp_path, ref_model):
    trace = sample_trace(None, ref_model, FAKE, seed=3, growth=GrowthConfig(max_events=9))
    stream = subsample(trace, 0.6, seed=5)
    path = tmp_path / "stream.json"
    write_stream(stream, path)
    assert read_stream(path) == stream


def test_read_traces_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"label": 1, "source": 0, "events": [{"u": 0}]}\n', encoding="utf-8")
    with pytest.raises(TraceError, match="bad.jsonl:1"):
        read_traces(path)


def test_trace_validate_rejects_orphan_event():
    trace = Trace(
        label=FAKE,
        source=0,
        events=(
            TraceEvent(edge=(0, 1), cls=0, parent_edge=None),
            TraceEvent(edge=(5, 6), cls=1, parent_edge=None),
        ),
    )
    with pytest.raises(TraceError, match="descend"):
        trace.validate(num_classes=4)


def _one_event_trace_line(cls):
    return json.dumps({"label": 1, "source": 0, "events": [{"u": 0, "v": 1, "class": cls}]})


def test_read_traces_accepts_integer_or_null_classes(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text(_one_event_trace_line(2) + "\n" + _one_event_trace_line(None) + "\n",
                    encoding="utf-8")
    first, second = read_traces(path)
    assert first.events[0].cls == 2
    assert second.events[0].cls is None


@pytest.mark.parametrize("cls", ["x", "2", 1.5, 2.0, True, [1]])
def test_read_traces_rejects_non_integer_classes(tmp_path, cls):
    path = tmp_path / "bad.jsonl"
    path.write_text(_one_event_trace_line(cls) + "\n", encoding="utf-8")
    with pytest.raises(TraceError, match="bad.jsonl:1"):
        read_traces(path)


def test_subsample_rejects_unclassified_events():
    trace = Trace(
        label=FAKE,
        source=0,
        events=(TraceEvent(edge=(0, 1), cls=1), TraceEvent(edge=(1, 2), cls=None,
                                                           parent_edge=(0, 1))),
    )
    with pytest.raises(TraceError, match="unclassified"):
        subsample(trace, 1.0, seed=0)
