import gc
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from cascaudit.errors import ModelError, TraceError, read_lines
from cascaudit.graph import SocialGraph
from cascaudit.inference import ChainTables
from cascaudit.markov import (
    FAKE,
    GENUINE,
    MAX_CLASSES,
    MAX_SUBSAMPLE_DRAWS,
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
    write_stream,
    write_traces,
)

from cascaudit.rng import derive_rng

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
    with pytest.raises(ModelError, match="sums to"):
        SpreadModel.from_dict(raw)
    SpreadModel.from_dict(reference_model().to_dict())  # the renormalized rows pass


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
    with pytest.raises(ModelError, match="initial and transition probabilities must be finite"):
        SpreadModel.from_dict(raw)


def test_validate_model_names_negative_cell():
    raw = {
        "Z": 2,
        "eta0": [0.5, 0.5],
        "eta1": [0.5, 0.5],
        "alpha0": [[1.1, -0.1], [0.5, 0.5]],
        "alpha1": [[0.5, 0.5], [0.5, 0.5]],
    }
    with pytest.raises(ModelError, match=r"transition_probs\[0\]\[0\]\[1\] is negative"):
        SpreadModel.from_dict(raw)


def test_validate_model_flags_short_row():
    raw = {
        "Z": 2,
        "eta0": [0.4, 0.5],
        "eta1": [0.5, 0.5],
        "alpha0": [[0.5, 0.5], [0.5, 0.5]],
        "alpha1": [[0.5, 0.5], [0.5, 0.5]],
    }
    with pytest.raises(ModelError, match="initial row 0 sums to 0.9"):
        SpreadModel.from_dict(raw)


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


def _read_back(tmp_path, trace):
    """``trace`` through its file format: written, then read with every check."""
    path = tmp_path / "trace.jsonl"
    write_traces([trace], path)
    [loaded] = read_traces(path)
    return loaded


def test_trace_structure_and_validation(tmp_path, ref_model):
    growth = GrowthConfig(max_events=40, min_children=1)
    trace = sample_trace(None, ref_model, FAKE, seed=11, growth=growth)
    assert _read_back(tmp_path, trace) == trace
    assert all(0 <= ev.cls < 4 for ev in trace.events)
    assert trace.events[0].parent_edge is None
    assert len(trace) == 40
    # every non-source event's parent is an earlier event's edge
    seen = set()
    for ev in trace.events:
        if ev.parent_edge is not None:
            assert ev.parent_edge in seen
        seen.add(ev.edge)


def test_sample_trace_on_real_graph(tmp_path, demo_graph, ref_model):
    trace = sample_trace(demo_graph, ref_model, GENUINE, seed=5,
                         growth=GrowthConfig(max_events=30), source=1)
    assert _read_back(tmp_path, trace) == trace
    assert all(0 <= ev.cls < 4 for ev in trace.events)
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


def test_subsample_gives_up_after_its_redraw_cap(ref_model):
    # a keep fraction of 1e-300 drops every event of every draw
    trace = sample_trace(None, ref_model, FAKE, seed=4,
                         growth=GrowthConfig(max_events=3, min_children=1))
    assert len(trace) == 3
    with pytest.raises(TraceError, match="rho 1e-300 kept no event of a 3-event trace in "
                                         f"{MAX_SUBSAMPLE_DRAWS} draws"):
        subsample(trace, 1e-300, seed=1)


def test_subsample_rejects_bad_fraction(ref_model):
    trace = sample_trace(None, ref_model, FAKE, seed=4, growth=GrowthConfig(max_events=5))
    with pytest.raises(TraceError):
        subsample(trace, 0.0, seed=1)
    with pytest.raises(TraceError):
        subsample(Trace(label=None, source=0, events=()), 0.5, seed=1)


# ---- files ----


def test_model_file_round_trip(tmp_path, ref_model):
    path = tmp_path / "model.json"
    save_model(ref_model, path)
    assert "classifier" not in json.loads(path.read_text(encoding="utf-8"))
    # older versions of train wrote a "classifier" section, which is ignored
    older = tmp_path / "older.json"
    older.write_text(json.dumps({**ref_model.to_dict(),
                                 "classifier": {"weights": [1.0, 2.0], "bias": 0.1}}),
                     encoding="utf-8")
    for loaded in (load_model(path), load_model(older)):
        np.testing.assert_allclose(loaded.initial_probs, ref_model.initial_probs)
        np.testing.assert_allclose(loaded.transition_probs, ref_model.transition_probs)
        assert loaded.prior_fake == ref_model.prior_fake


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


def test_trace_validate_rejects_orphan_event(tmp_path):
    trace = Trace(
        label=FAKE,
        source=0,
        events=(
            TraceEvent(edge=(0, 1), cls=0, parent_edge=None),
            TraceEvent(edge=(5, 6), cls=1, parent_edge=None),
        ),
    )
    with pytest.raises(TraceError, match="trace.jsonl:1: .* does not leave source 0"):
        _read_back(tmp_path, trace)


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


_GOOD_EVENT = {"u": 0, "v": 1, "class": 2, "parent": None}


def _type_error(operation, value):
    """The message of the TypeError that ``operation(value)`` raises, as this
    Python words it (3.11 reworded some of them)."""
    with pytest.raises(TypeError) as info:
        operation(value)
    return str(info.value)


def _index(value):
    return value["u"]


# (event or record, message after "bad trace record: ")
_BAD_TRACE_RECORDS = {
    "missing-u": ({"v": 1, "class": 2}, "'u'"),
    "missing-v": ({"u": 0, "class": 2}, "'v'"),
    "float-u": ({"u": 1.5, "v": 1},
                "edge (1.5, 1) has a node id that is not an integer or string"),
    "bool-v": ({"u": 0, "v": True},
               "edge (0, True) has a node id that is not an integer or string"),
    "null-u": ({"u": None, "v": 1},
               "edge (None, 1) has a node id that is not an integer or string"),
    "list-v": ({"u": 0, "v": [1]},
               "edge (0, [1]) has a node id that is not an integer or string"),
    "bool-class": ({"u": 0, "v": 1, "class": True},
                   "event class True is not an integer or null"),
    "float-class": ({"u": 0, "v": 1, "class": 2.0},
                    "event class 2.0 is not an integer or null"),
    "string-class": ({"u": 0, "v": 1, "class": "x"},
                     "event class 'x' is not an integer or null"),
    "short-parent": ({"u": 1, "v": 2, "class": 1, "parent": [0]},
                     "parent edge [0] is not a [u, v] pair of node ids"),
    "long-parent": ({"u": 1, "v": 2, "class": 1, "parent": [0, 1, 2]},
                    "parent edge [0, 1, 2] is not a [u, v] pair of node ids"),
    "float-parent-end": ({"u": 1, "v": 2, "class": 1, "parent": [0, 1.0]},
                         "parent edge [0, 1.0] is not a [u, v] pair of node ids"),
    "dict-parent": ({"u": 1, "v": 2, "class": 1, "parent": {"u": 0}},
                    "parent edge {'u': 0} is not a [u, v] pair of node ids"),
    "string-parent": ({"u": 1, "v": 2, "class": 1, "parent": "01"},
                      "parent edge '01' is not a [u, v] pair of node ids"),
    "bad-parent-and-u": ({"u": 1.5, "v": 2, "class": 1, "parent": [0]},
                         "parent edge [0] is not a [u, v] pair of node ids"),
    "bad-u-and-class": ({"u": 1.5, "v": 2, "class": "x"},
                        "edge (1.5, 2) has a node id that is not an integer or string"),
    "list-event": ([0, 1], _type_error(_index, [0, 1])),
    "int-event": (7, _type_error(_index, 7)),
    "null-event": (None, _type_error(_index, None)),
}
_BAD_TRACE_FIELDS = {
    "missing-events": ({"label": 1, "source": 0}, "'events'"),
    "int-events": ({"label": 1, "source": 0, "events": 5}, _type_error(iter, 5)),
    # iterating a dict yields its keys, so the first "event" is the string "u"
    "dict-events": ({"label": 1, "source": 0, "events": {"u": 0}}, _type_error(_index, "u")),
    "null-events": ({"label": 1, "source": 0, "events": None}, _type_error(iter, None)),
    "float-source": ({"label": 1, "source": 1.0, "events": [_GOOD_EVENT]},
                     "node id 1.0 is not an integer or string"),
    "string-label": ({"label": "x", "source": 0, "events": [_GOOD_EVENT]},
                     "label 'x' is not an integer or null"),
    "int-label": ({"label": 2, "source": 0, "events": [_GOOD_EVENT]},
                  "label 2 is not 0, 1 or null"),
    "negative-label": ({"label": -1, "source": 0, "events": [_GOOD_EVENT]},
                       "label -1 is not 0, 1 or null"),
    "list-record": ([1, 2], _type_error(_index, [1, 2])),
}


# (events after _GOOD_EVENT on edge (0, 1) from source 0, message): each
# event's fields parse, and the first lineage fault is named
_BAD_LINEAGES = {
    "orphan": ([{"u": 5, "v": 6, "class": 1}],
               "edge (5, 6) does not leave source 0, and its parent None is not an "
               "earlier event's edge ending at 5"),
    "parent-ends-elsewhere": ([{"u": 2, "v": 3, "class": 1, "parent": [0, 1]}],
                              "edge (2, 3) does not leave source 0, and its parent (0, 1) is "
                              "not an earlier event's edge ending at 2"),
    "later-parent": ([{"u": 2, "v": 3, "class": 1, "parent": [1, 2]},
                      {"u": 1, "v": 2, "class": 1, "parent": [0, 1]}],
                     "edge (2, 3) does not leave source 0, and its parent (1, 2) is not an "
                     "earlier event's edge ending at 2"),
    "self-parent": ([{"u": 1, "v": 1, "class": 1, "parent": [1, 1]}],
                    "edge (1, 1) does not leave source 0, and its parent (1, 1) is not an "
                    "earlier event's edge ending at 1"),
    "source-edge-with-parent": ([{"u": 0, "v": 2, "class": 1, "parent": [0, 1]}],
                                "edge (0, 2) leaves the source but names parent (0, 1)"),
    # a node is infected once, and the source is infected from the start
    "repeated-edge": ([{"u": 0, "v": 1, "class": 3}],
                      "edge (0, 1) enters 1, which is already infected"),
    "second-infection": ([{"u": 1, "v": 2, "class": 1, "parent": [0, 1]},
                          {"u": 0, "v": 2, "class": 1}],
                         "edge (0, 2) enters 2, which is already infected"),
    "edge-into-source": ([{"u": 1, "v": 0, "class": 1, "parent": [0, 1]}],
                         "edge (1, 0) enters 0, which is already infected"),
    "self-loop-with-valid-parent": ([{"u": 1, "v": 1, "class": 1, "parent": [0, 1]}],
                                    "edge (1, 1) enters 1, which is already infected"),
    # field checks run first, over every event of the record
    "orphan-then-bad-field": ([{"u": 5, "v": 6, "class": 1}, {"u": 1, "v": 2, "class": 2.0}],
                              "event class 2.0 is not an integer or null"),
}


def _second_record_file(tmp_path, record):
    path = tmp_path / "traces.jsonl"
    first = {"label": 0, "source": 0, "events": [_GOOD_EVENT]}
    path.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", [*_BAD_TRACE_RECORDS, *_BAD_TRACE_FIELDS, *_BAD_LINEAGES])
def test_read_traces_errors_name_the_first_bad_field(tmp_path, case):
    if case in _BAD_TRACE_RECORDS:
        event, message = _BAD_TRACE_RECORDS[case]
        record = {"label": 1, "source": 0, "events": [_GOOD_EVENT, event]}
    elif case in _BAD_LINEAGES:
        events, message = _BAD_LINEAGES[case]
        record = {"label": 1, "source": 0, "events": [_GOOD_EVENT, *events]}
    else:
        record, message = _BAD_TRACE_FIELDS[case]
    path = _second_record_file(tmp_path, record)
    with pytest.raises(TraceError) as info:
        read_traces(path)
    assert str(info.value) == f"{path}:2: bad trace record: {message}"


def test_read_traces_builds_the_records_of_the_per_event_parser(tmp_path):
    events = [_GOOD_EVENT, {"u": 1, "v": "b", "class": None, "parent": [0, 1]},
              {"u": "b", "v": 3, "parent": [1, "b"]}, {"u": 0, "v": 4, "class": 0}]
    [_, trace] = read_traces(_second_record_file(tmp_path, {"source": 0, "events": events}))
    assert trace.events == (((0, 1), 2, None), ((1, "b"), None, (0, 1)),
                            (("b", 3), None, (1, "b")), ((0, 4), 0, None))
    for event in trace.events:
        assert type(event) is TraceEvent and type(event.edge) is tuple
        assert event.parent_edge is None or type(event.parent_edge) is tuple


def test_read_traces_shares_each_parent_edge(tmp_path, ref_model):
    # a parent edge is the very tuple of the event that infected the tail,
    # not an equal copy of it; source-adjacent events keep None
    traces = [sample_trace(None, ref_model, label, seed=seed, growth=GrowthConfig(max_events=40))
              for seed, label in enumerate([GENUINE, FAKE] * 3)]
    path = tmp_path / "traces.jsonl"
    write_traces(traces, path)
    with open(path, "a", encoding="utf-8") as fh:  # string ids too
        fh.write(json.dumps({"label": 1, "source": "s", "events": [
            {"u": "s", "v": 1}, {"u": 1, "v": "b", "parent": ["s", 1]},
            {"u": "b", "v": 3, "parent": [1, "b"]}, {"u": 1, "v": 4, "parent": ["s", 1]}]}) + "\n")
    loaded = read_traces(path)
    assert loaded[:len(traces)] == traces
    with_parent = 0
    for trace in loaded:
        infecting = {}
        for event in trace.events:
            if event.edge[0] == trace.source:
                assert event.parent_edge is None
            else:
                assert event.parent_edge is infecting[event.edge[0]]
                with_parent += 1
            infecting[event.edge[1]] = event.edge
    assert with_parent > len(loaded)


@pytest.mark.parametrize("data", [
    b"", b"\n", b"a", b"a\n", b"a\r\nb\rc\n\nd", b"a\r", b"\r\r\n\n\r", b"a\rb\r\n",
    "x\u2028y\x85z\x0cw\n".encode("utf-8"), b"\xef\xbb\xbfbom\r\n",
])
def test_read_lines_splits_where_text_mode_does(tmp_path, data):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        assert list(read_lines(path, TraceError)) == [line.removesuffix("\n") for line in fh]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_read_traces_numbers_lines_as_text_mode_does(tmp_path, ending):
    good = json.dumps({"label": 0, "source": 0, "events": [_GOOD_EVENT]})
    path = tmp_path / "traces.jsonl"
    path.write_bytes(ending.join([good, "", good, '{"label": 0}', good]).encode("utf-8"))
    with pytest.raises(TraceError) as info:
        read_traces(path)
    assert str(info.value) == f"{path}:4: bad trace record: 'events'"
    path.write_bytes(ending.join([good, "", good, ""]).encode("utf-8"))
    assert len(read_traces(path)) == 2


def test_read_traces_names_the_first_faulty_line_in_file_order(tmp_path):
    good = json.dumps({"label": 0, "source": 0, "events": [_GOOD_EVENT]}).encode("utf-8")
    path = tmp_path / "traces.jsonl"
    # the bad record on line 2 is named, not the undecodable bytes on line 3
    path.write_bytes(b"\n".join([good, b'{"label": 0}', good + b"\xff", good]))
    with pytest.raises(TraceError) as info:
        read_traces(path)
    assert str(info.value) == f"{path}:2: bad trace record: 'events'"


@pytest.mark.parametrize("collecting", [True, False])
def test_read_traces_restores_the_collector_state(tmp_path, collecting):
    good = _second_record_file(tmp_path, {"label": 1, "source": 0, "events": [_GOOD_EVENT]})
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"label": 1, "source": 0, "events": [{"u": 0}]}\n', encoding="utf-8")
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert len(read_traces(good)) == 2
        assert gc.isenabled() is collecting
        with pytest.raises(TraceError):
            read_traces(bad)
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()


def test_subsample_rejects_unclassified_events():
    trace = Trace(
        label=FAKE,
        source=0,
        events=(TraceEvent(edge=(0, 1), cls=1), TraceEvent(edge=(1, 2), cls=None,
                                                           parent_edge=(0, 1))),
    )
    with pytest.raises(TraceError, match="unclassified"):
        subsample(trace, 1.0, seed=0)


# ---- simulator output bytes ----


def _pinned_graph(seed, acyclic):
    """A 40-node random digraph: every forward edge, or every ordered pair,
    drawn with the same probability."""
    rng = derive_rng(seed)
    edges = [(u, v) for u in range(40) for v in range(40)
             if (u < v if acyclic else u != v) and rng.random() < (0.2 if acyclic else 0.08)]
    return SocialGraph(edges, range(40))


# sha256 of write_traces over 24 graph-mode cascades (both labels, binding and
# slack event caps, every child bound), recorded while synthetic trees and
# graph cascades still grew in two separate loops
@pytest.mark.parametrize("acyclic, digest", [
    (False, "1e7321e7bf239a6a41e008ec8b42d1b3a4b81f23b12852ab18c3eeceb2d810b7"),
    (True, "d44ee44e4150c6c9c09361ceeb62c17d2b826721863640ca2f729926d45cc8e2"),
])
def test_graph_cascades_keep_their_bytes(tmp_path, ref_model, acyclic, digest):
    graph = _pinned_graph(72 if acyclic else 71, acyclic)
    assert graph._shape() == ("dag" if acyclic else "cyclic")
    sources = [u for u in range(10) if graph.followers(u)]
    traces = [
        sample_trace(
            graph, ref_model, i % 2, 1000 + i,
            GrowthConfig(max_events=(5, 30, 200)[i % 3], mean_children=(0.8, 1.6, 3.0)[i % 3],
                         max_children=(1, 3, 6)[i // 3 % 3], min_children=i % 2),
            source=sources[i % len(sources)],
        )
        for i in range(24)
    ]
    path = tmp_path / "traces.jsonl"
    write_traces(traces, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
