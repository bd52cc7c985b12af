import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascaudit
from cascaudit import cli
from cascaudit.cli import TraceResult, count_errors, main, risk_estimate, summarize_risk
from cascaudit.graph import SocialGraph, save_graph
from cascaudit.inference import BeliefState
from cascaudit.offline import classify_graph_edges
from cascaudit.markov import (
    FAKE,
    GENUINE,
    MAX_CLASSES,
    GrowthConfig,
    load_model,
    read_traces,
    reference_model,
    sample_trace,
    save_model,
    subsample,
    write_stream,
    write_traces,
)
from cascaudit.policy import CostSpec, DecisionOutcome, SprtConfig, SprtPolicy

WIDE = GrowthConfig(max_events=20, min_children=2, mean_children=3.0)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_detect_inputs(tmp_path, label, seed=0, growth=WIDE, rho=1.0):
    model = reference_model()
    trace = sample_trace(None, model, label, seed=seed, growth=growth)
    stream = subsample(trace, rho, seed=seed + 1)
    graph_path = tmp_path / f"graph_{label}_{seed}.tsv"
    stream_path = tmp_path / f"stream_{label}_{seed}.json"
    save_graph(trace.implied_graph(), graph_path)
    write_stream(stream, stream_path)
    return graph_path, stream_path


# ---- simulate ----


def test_simulate_is_byte_deterministic(tmp_path):
    for name in ("a", "b"):
        code = run_cli(
            "simulate", "--n", 12, "--seed", 7, "--out", tmp_path / name,
            "--max-events", 30,
        )
        assert code == 0
    for fname in ("traces.jsonl", "graph.tsv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_simulate_forced_label(tmp_path):
    assert run_cli("simulate", "--n", 8, "--seed", 3, "--label", 1,
                   "--out", tmp_path / "forced") == 0
    traces = read_traces(tmp_path / "forced" / "traces.jsonl")
    assert len(traces) == 8
    assert all(t.label == 1 for t in traces)


def test_simulate_label_frequency_tracks_prior(tmp_path):
    assert run_cli("simulate", "--n", 2000, "--seed", 11, "--prior", 0.5,
                   "--max-events", 1, "--out", tmp_path / "freq") == 0
    traces = read_traces(tmp_path / "freq" / "traces.jsonl")
    frac = sum(t.label for t in traces) / len(traces)
    assert abs(frac - 0.5) <= 3 * 0.5 / np.sqrt(2000)


def test_simulate_node_ids_disjoint_across_traces(tmp_path):
    assert run_cli("simulate", "--n", 5, "--seed", 1, "--out", tmp_path / "dis") == 0
    traces = read_traces(tmp_path / "dis" / "traces.jsonl")
    node_sets = [
        {n for ev in t.events for n in ev.edge} | {t.source} for t in traces
    ]
    for i in range(len(node_sets)):
        for j in range(i + 1, len(node_sets)):
            assert not (node_sets[i] & node_sets[j])


# ---- train ----


def test_train_recovers_planted_parameters(tmp_path):
    assert run_cli("simulate", "--n", 600, "--seed", 21, "--min-children", 1,
                   "--max-events", 80, "--out", tmp_path / "corpus") == 0
    model_path = tmp_path / "model.json"
    assert run_cli("train", "--traces", tmp_path / "corpus" / "traces.jsonl",
                   "--seed", 5, "--out", model_path) == 0
    trained, classifier = load_model(model_path)
    reference = reference_model()
    assert classifier is None  # no features, so no classifier section
    assert np.abs(trained.initial_probs - reference.initial_probs).max() <= 0.05
    assert np.abs(trained.transition_probs - reference.transition_probs).max() <= 0.06
    assert abs(trained.prior_fake - 0.5) <= 0.1


def test_train_single_label_corpus_exits_3(tmp_path):
    assert run_cli("simulate", "--n", 10, "--seed", 2, "--label", 1,
                   "--out", tmp_path / "single") == 0
    code = run_cli("train", "--traces", tmp_path / "single" / "traces.jsonl",
                   "--seed", 1, "--out", tmp_path / "model.json")
    assert code == 3


def test_train_is_byte_deterministic(tmp_path):
    assert run_cli("simulate", "--n", 40, "--seed", 9, "--min-children", 1,
                   "--out", tmp_path / "corpus") == 0
    for name in ("m1.json", "m2.json"):
        assert run_cli("train", "--traces", tmp_path / "corpus" / "traces.jsonl",
                       "--seed", 4, "--smoothing", "--out", tmp_path / name) == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_train_with_features_runs_full_pipeline(tmp_path):
    # two-cluster featured corpus written through the file formats; the traces
    # carry no classes, so estimation must use classifier-assigned classes
    from .test_offline import featured_corpus

    corpus = featured_corpus(n_per_label=15, seed=8)
    traces_path = tmp_path / "traces.jsonl"
    edges_path = tmp_path / "graph.tsv"
    feats_path = tmp_path / "features.tsv"
    write_traces(corpus.traces, traces_path)
    save_graph(corpus.graph, edges_path, feats_path)
    model_path = tmp_path / "model.json"
    code = run_cli("train", "--traces", traces_path, "--graph", edges_path,
                   "--features", feats_path, "--seed", 6, "--smoothing",
                   "--out", model_path)
    assert code == 0
    model, classifier = load_model(model_path)
    assert classifier is not None
    assert len(classifier["weights"]) == 4  # concatenated 2-dim feature pair
    assert model.num_classes == 4
    # genuine spread concentrates in low classes, fake in high ones
    genuine_low = model.initial_probs[GENUINE][:2].sum()
    fake_high = model.initial_probs[FAKE][2:].sum()
    assert genuine_low > 0.5
    assert fake_high > 0.5


def _write_featured_corpus(tmp_path, recorded):
    """Featured corpus files; with ``recorded``, every event carries a class."""
    from .test_offline import featured_corpus

    corpus = featured_corpus(n_per_label=15, seed=8)
    traces = corpus.traces
    if recorded:
        traces = [
            dataclasses.replace(trace, events=tuple(
                ev._replace(cls=(2 * trace.label + i) % 4)
                for i, ev in enumerate(trace.events)
            ))
            for trace in traces
        ]
    paths = tmp_path / "traces.jsonl", tmp_path / "graph.tsv", tmp_path / "features.tsv"
    write_traces(traces, paths[0])
    save_graph(corpus.graph, paths[1], paths[2])
    return paths


@pytest.mark.parametrize("recorded", [True, False])
def test_train_classifies_edges_only_for_unclassified_events(tmp_path, monkeypatch, recorded):
    calls = []

    def counting(classifier, graph):
        calls.append(graph)
        return classify_graph_edges(classifier, graph)

    monkeypatch.setattr(cli, "classify_graph_edges", counting)
    traces_path, edges_path, feats_path = _write_featured_corpus(tmp_path, recorded)
    model_path = tmp_path / "model.json"
    assert run_cli("train", "--traces", traces_path, "--graph", edges_path,
                   "--features", feats_path, "--seed", 6, "--smoothing",
                   "--out", model_path) == 0
    assert len(calls) == (0 if recorded else 1)
    # recorded before edge classification was skipped for classified corpora
    digest = {
        True: "b21e2434e04a048528b91351a0d06642bcc39bbb8af6ebea972f3e802f3bf7b9",
        False: "de498c2c640d6095ecfbd9d730ae88b71db6b7a1b1b858c3ff3baa0ca2249d64",
    }[recorded]
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == digest


def test_train_without_classes_or_features_exits_3(tmp_path):
    from .test_offline import featured_corpus

    corpus = featured_corpus(n_per_label=5, seed=8)
    traces_path = tmp_path / "traces.jsonl"
    write_traces(corpus.traces, traces_path)
    code = run_cli("train", "--traces", traces_path, "--seed", 6,
                   "--out", tmp_path / "m.json")
    assert code == 3


def test_train_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert run_cli("train", "--traces", bad, "--seed", 1,
                   "--out", tmp_path / "m.json") == 2


def _assert_one_line_usage_error(capsys, code, flag):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"{flag} must be >= 0" in captured.err


@pytest.mark.parametrize("flag,seed,n", [("--seed", -5, 2), ("--n", 1, -1)], ids=["seed", "n"])
def test_simulate_negative_seed_or_count_exits_2(tmp_path, capsys, flag, seed, n):
    code = run_cli("simulate", "--seed", seed, "--n", n, "--out", tmp_path / "sim")
    _assert_one_line_usage_error(capsys, code, flag)
    assert not (tmp_path / "sim").exists()


def test_train_negative_seed_exits_2(tmp_path, capsys):
    traces_path, edges_path, feats_path = _write_featured_corpus(tmp_path, recorded=False)
    code = run_cli("train", "--traces", traces_path, "--graph", edges_path,
                   "--features", feats_path, "--seed", -1, "--out", tmp_path / "m.json")
    _assert_one_line_usage_error(capsys, code, "--seed")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["train", "--zclasses", 0], "--zclasses must be >= 2"),
    (["train", "--zclasses", 1], "--zclasses must be >= 2"),
    (["train", "--zclasses", -1], "--zclasses must be >= 2"),
    (["train", "--zclasses", 2], "event class 2 is outside 0..1"),
    (["simulate", "--mean-children", "nan"], "mean_children must be positive and finite"),
    (["simulate", "--mean-children", "inf"], "mean_children must be positive and finite"),
    (["thresholds", "--grid-step", 1e-9], "grid_step must be in [1e-05, 0.1]"),
    # only the guarded path: a huge --zclasses must be refused before any allocation
    (["train", "--zclasses", 100_000_000], "--zclasses must be <= 64"),
    (["train", "--learning-rate", "nan"], "--learning-rate must be finite and > 0"),
    (["train", "--learning-rate", 0], "--learning-rate must be finite and > 0"),
    (["train", "--l2", "nan"], "--l2 must be finite and >= 0"),
    (["train", "--l2", -1e-4], "--l2 must be finite and >= 0"),
    (["train", "--epochs", 0], "--epochs must be >= 1"),
    (["train", "--epochs", -1], "--epochs must be >= 1"),
    (["thresholds", "--tol", "nan"], "tol must be positive and finite"),
    (["thresholds", "--tol", 0], "tol must be positive and finite"),
], ids=["zclasses-0", "zclasses-1", "zclasses-negative", "class-above-zclasses",
        "mean-children-nan", "mean-children-inf", "grid-step-tiny", "zclasses-huge",
        "learning-rate-nan", "learning-rate-zero", "l2-nan", "l2-negative", "epochs-zero",
        "epochs-negative", "tol-nan", "tol-zero"])
def test_hostile_flag_exits_2_with_one_line(tmp_path, capsys, argv, message):
    command, *flags = argv
    out = tmp_path / "out"
    required = {
        "train": ["--traces", _write_featured_corpus(tmp_path, recorded=True)[0], "--seed", 1],
        "simulate": ["--seed", 1, "--n", 3],
        "thresholds": [],
    }[command]
    code = run_cli(command, *flags, *required, "--out", out)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not out.exists()


def test_train_feature_dimension_mismatch_exits_2(tmp_path, capsys):
    traces_path, edges_path, feats_path = _write_featured_corpus(tmp_path, recorded=False)
    lines = feats_path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t1.0"  # one component where the rest have two
    feats_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code = run_cli("train", "--traces", traces_path, "--graph", edges_path,
                   "--features", feats_path, "--seed", 6, "--out", tmp_path / "m.json")
    assert code == 2 and "feature dimension 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


# ---- detect ----


def test_detect_fake_stream_verdict(tmp_path, capsys):
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=3)
    code = run_cli("detect", "--graph", graph_path, "--stream", stream_path,
                   "--out", tmp_path / "traj.csv")
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["verdict"] == 1
    assert record["T"] >= 1
    assert (tmp_path / "traj.csv").exists()


def test_detect_majority_verdicts_match_labels(tmp_path, capsys):
    correct = {GENUINE: 0, FAKE: 0}
    n_each = 10
    for label in (GENUINE, FAKE):
        for seed in range(n_each):
            graph_path, stream_path = write_detect_inputs(tmp_path, label, seed=seed)
            assert run_cli("detect", "--graph", graph_path, "--stream", stream_path) == 0
            record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            correct[label] += record["verdict"] == label
    assert correct[GENUINE] >= 8
    assert correct[FAKE] >= 8


def test_detect_with_presolved_threshold_table(tmp_path, capsys):
    table_path = tmp_path / "table.csv"
    assert run_cli("thresholds", "--ci", 10, "--cii", 10, "--c", 0.05,
                   "--out", table_path) == 0
    capsys.readouterr()
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=2)
    code = run_cli("detect", "--graph", graph_path, "--stream", stream_path,
                   "--policy", "dp", "--threshold-table", table_path)
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["rule_used"] in ("dp_threshold", "horizon")
    assert record["verdict"] == 1


@pytest.mark.parametrize("fault", [
    "header lacks pi_low", "header value is not a number", "header value is nan",
    "row value is inf", "row value is not a number", "row has three cells",
    "sweeps has a superscript digit", "sweeps has 5000 digits",
])
def test_detect_rejects_malformed_threshold_table_without_verdict(tmp_path, capsys, fault):
    table_path = tmp_path / "table.csv"
    assert run_cli("thresholds", "--out", table_path) == 0
    header, columns, row, *rest = table_path.read_text(encoding="utf-8").splitlines()
    if fault == "header lacks pi_low":
        header = " ".join(f for f in header.split() if not f.startswith("pi_low="))
    elif fault == "header value is not a number":
        header = header.replace(" c=", " c=cheap")
    elif fault == "header value is nan":
        header = header.replace("pi_up=", "pi_up=nan ignored=")
    elif fault == "sweeps has a superscript digit":
        header = header.replace(" sweeps=", " sweeps=\u00b2")
    elif fault == "sweeps has 5000 digits":
        header = header.replace(" sweeps=", " sweeps=" + "9" * 5000)
    elif fault == "row value is inf":
        row = row.split(",")[0] + ",inf"
    elif fault == "row value is not a number":
        row = "zero," + row.split(",")[1]
    else:
        row = row + ",0.0"
    table_path.write_text("\n".join([header, columns, row, *rest]) + "\n", encoding="utf-8")
    capsys.readouterr()
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=2)
    code = run_cli("detect", "--graph", graph_path, "--stream", stream_path,
                   "--policy", "dp", "--threshold-table", table_path)
    captured = capsys.readouterr()
    assert code == 2
    assert "verdict" not in captured.out
    assert str(table_path) in captured.err


@pytest.mark.parametrize("graph, edge", [
    ("0\t1\n0\t2\n1\t3\n2\t3\n3\t4\n", (3, 4)),  # acyclic, two candidates
    ("0\t1\n1\t2\n2\t0\n2\t3\n", (2, 3)),  # cyclic
])
def test_detect_with_a_source_that_is_not_a_node_exits_2(tmp_path, capsys, graph, edge):
    graph_path, stream_path = tmp_path / "graph.tsv", tmp_path / "stream.json"
    graph_path.write_text(graph, encoding="utf-8")
    stream_path.write_text(json.dumps({"source": 9, "observations": [_observation(edge, 1)]}),
                           encoding="utf-8")
    assert run_cli("detect", "--graph", graph_path, "--stream", stream_path) == 2
    assert "source 9 is not a node" in capsys.readouterr().err


def test_detect_empty_stream_exits_2(tmp_path):
    graph_path, _ = write_detect_inputs(tmp_path, FAKE, seed=1)
    empty = tmp_path / "empty.json"
    empty.write_text('{"source": 0, "observations": []}\n', encoding="utf-8")
    assert run_cli("detect", "--graph", graph_path, "--stream", empty) == 2


@pytest.mark.parametrize("source, observations", [
    (0, [{"u": 0, "v": 1, "class": 3.9}, {"u": 1, "v": 2, "class": True}]),
    (0, [{"u": 0, "v": 1, "class": 3.9}]),
    (0, [{"u": 0, "v": 1, "class": True}]),
    (0, [{"u": 0, "v": 1, "class": None}]),
    (0, [{"u": 0, "v": 1, "class": "1"}]),
    ([0], [{"u": 0, "v": 1, "class": 1}]),
    (0, [{"u": [0], "v": 1, "class": 1}]),
    (0, [{"u": 0, "v": [1], "class": 1}]),
    (0, [{"u": 0.0, "v": 1, "class": 1}]),
    (True, [{"u": 0, "v": 1, "class": 1}]),
], ids=["float-and-bool-class", "float-class", "bool-class", "null-class", "string-class",
        "list-source", "list-u", "list-v", "float-u", "bool-source"])
def test_detect_rejects_malformed_stream_without_verdict(tmp_path, capsys, source, observations):
    graph_path = tmp_path / "graph.tsv"
    graph_path.write_text("0\t1\n1\t2\n", encoding="utf-8")
    stream_path = tmp_path / "stream.json"
    stream_path.write_text(json.dumps({"source": source, "observations": observations}),
                           encoding="utf-8")
    code = run_cli("detect", "--graph", graph_path, "--stream", stream_path)
    captured = capsys.readouterr()
    assert code == 2
    assert "verdict" not in captured.out
    assert "bad observation stream" in captured.err


def test_detect_rejects_nan_model_without_verdict(tmp_path, capsys):
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=3)
    data = reference_model().to_dict()
    data["eta1"] = [math.nan] * 4
    model_path = tmp_path / "nan_model.json"
    model_path.write_text(json.dumps(data), encoding="utf-8")
    code = run_cli("detect", "--model", model_path, "--graph", graph_path,
                   "--stream", stream_path, "--policy", "sprt")
    captured = capsys.readouterr()
    assert code == 2
    assert "verdict" not in captured.out
    assert "finite" in captured.err
    assert "Traceback" not in captured.err


def _model_with(**fields):
    return {**reference_model().to_dict(), **fields}


@pytest.mark.parametrize("document", [
    0, [], "model", _model_with(Z="four"), _model_with(Z=[4]),
    _model_with(eta0=[0.5, [0.5]]), _model_with(prior_fake="half"),
    _model_with(prior_fake=None),
], ids=["int", "list", "string", "string-Z", "list-Z", "ragged-eta0", "string-prior",
        "null-prior"])
def test_detect_rejects_malformed_model_with_exit_2(tmp_path, capsys, document):
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=3)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(document), encoding="utf-8")
    code = run_cli("detect", "--model", model_path, "--graph", graph_path,
                   "--stream", stream_path)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cascaudit: error: model file")


def test_model_file_above_the_class_maximum_exits_2(tmp_path, capsys):
    z = MAX_CLASSES + 1
    row = [1.0 / z] * z
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"Z": z, "eta0": row, "eta1": row, "alpha0": [row] * z,
                                      "alpha1": [row] * z}), encoding="utf-8")
    code = run_cli("thresholds", "--model", model_path, "--out", tmp_path / "table.csv")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"need 2..{MAX_CLASSES} edge classes, got {z}" in captured.err
    assert not (tmp_path / "table.csv").exists()


def test_detect_rejects_nan_cost_without_verdict(tmp_path, capsys):
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=3)
    for flags in (("--ci", "nan"), ("--c", "inf"), ("--epsilon", "nan"),
                  ("--decision-threshold", "nan")):
        code = run_cli("detect", "--graph", graph_path, "--stream", stream_path, *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert "verdict" not in captured.out
        assert "Traceback" not in captured.err


def test_detect_on_mixed_int_and_string_ids(tmp_path, capsys):
    graph_path = tmp_path / "mixed.tsv"
    graph_path.write_text("0\t1\n0\ta\n1\t2\n", encoding="utf-8")
    stream_path = tmp_path / "mixed.json"
    stream_path.write_text(json.dumps({"source": 0, "observations": [
        {"u": 0, "v": 1, "class": 3}, {"u": 0, "v": "a", "class": 3},
        {"u": 1, "v": 2, "class": 3},
    ]}), encoding="utf-8")
    code = run_cli("detect", "--graph", graph_path, "--stream", stream_path, "--policy", "sprt")
    captured = capsys.readouterr()
    assert code == 0
    record = json.loads(captured.out.strip().splitlines()[-1])
    assert record["verdict"] in (0, 1)
    assert "Traceback" not in captured.err


def test_cli_import_does_not_load_scipy():
    src = str(Path(cascaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, cascaudit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def _loaded_after_command(tmp_path, *argv) -> list:
    """Which of ``logging`` and ``cascaudit.offline`` a fresh process holds
    after running one CLI command, which must exit 0."""
    src = str(Path(cascaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys; from cascaudit.cli import main; code = main(sys.argv[1:]); "
             "print(code, sorted({'logging', 'cascaudit.offline'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=env,
                            capture_output=True, text=True, check=True, cwd=tmp_path)
    code, loaded = result.stdout.strip().splitlines()[-1].split(" ", 1)
    assert code == "0", result.stderr
    return loaded


def test_detect_loads_neither_logging_nor_offline(tmp_path):
    # the reference model's renormalization record is below WARNING and
    # nothing configured logging, so it is dropped without the import
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=4)
    assert _loaded_after_command(tmp_path, "detect", "--graph", graph_path,
                                 "--stream", stream_path) == "[]"


def test_eval_without_unreachable_observations_loads_neither_logging_nor_offline(tmp_path):
    traces = [sample_trace(None, reference_model(), i % 2, seed=30 + i, growth=WIDE)
              for i in range(6)]
    write_traces(traces, tmp_path / "traces.jsonl")
    assert _loaded_after_command(
        tmp_path, "eval", "--traces", tmp_path / "traces.jsonl", "--seed", 2, "--policy",
        "convergence", "--max-path-len", WIDE.max_events, "--on-unreachable", "fail",
        "--out", tmp_path / "ev",
    ) == "[]"


def test_offline_names_bind_on_first_lookup_and_keep_a_replacement(monkeypatch):
    from cascaudit import offline

    monkeypatch.delitem(vars(cli), "estimate_eta", raising=False)
    monkeypatch.delitem(vars(cli), "train_classifier", raising=False)
    assert cli.estimate_eta is offline.estimate_eta
    monkeypatch.setattr(cli, "train_classifier", len)
    cli._bind_offline()
    assert cli.train_classifier is len
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def _bench_traced():
    traced_path = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
    spec = importlib.util.spec_from_file_location("bench_traced", traced_path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_benchmark_trace_targets_resolve_to_callables():
    # the benchmark drops every per-layer metric whose traced functions are
    # all missing, so a rename or removal must show up here first
    traced = _bench_traced()
    assert traced.TARGETS
    for module_name, attr, _ in traced.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attr}"


# the two targets that no bench command reaches: the engine builds no path
# contexts, and train classifies edges only for an unclassified corpus
UNREACHED_TARGETS = {
    "cascaudit.inference.build_path_contexts",
    "cascaudit.cli.classify_graph_edges",
}


def test_benchmark_trace_targets_are_reached(tmp_path, monkeypatch, capsys):
    # a target that resolves but is no longer called records no span, and the
    # benchmark's per-layer metric then reads zero: run every bench command
    # in-process under the benchmark's own wrappers
    traced = _bench_traced()
    for module_name, attr, _ in traced.TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))  # restored at teardown
    recorder = traced.Recorder()
    assert traced.install(recorder) == []
    traces_path, edges_path, feats_path = _write_featured_corpus(tmp_path, recorded=True)
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=3)
    sim, model = tmp_path / "sim", tmp_path / "model.json"
    commands = [
        ["simulate", "--n", 4, "--seed", 1, "--min-children", 1, "--max-events", 20, "--out", sim],
        ["train", "--traces", traces_path, "--graph", edges_path, "--features", feats_path,
         "--seed", 6, "--out", model],
        ["thresholds", "--model", model, "--out", tmp_path / "table.csv"],
        ["eval", "--traces", sim / "traces.jsonl", "--seed", 1, "--policy", "dp",
         "--out", tmp_path / "eval_implied"],
        ["eval", "--traces", sim / "traces.jsonl", "--graph", sim / "graph.tsv", "--seed", 1,
         "--policy", "dp", "--out", tmp_path / "eval_shared"],
        ["detect", "--graph", graph_path, "--stream", stream_path, "--policy", "dp"],
    ]
    for argv in commands:
        assert cli.main([str(a) for a in argv]) == 0, argv
    targets = {f"{module_name}.{attr}" for module_name, attr, _ in traced.TARGETS}
    assert targets - set(recorder.names) <= UNREACHED_TARGETS


def test_detect_deterministic_output(tmp_path, capsys):
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=5)
    outputs = []
    for rerun in ("r1", "r2"):
        out = tmp_path / rerun / "trajectory.csv"
        out.parent.mkdir()
        assert run_cli("detect", "--graph", graph_path, "--stream", stream_path,
                       "--policy", "sprt", "--out", out) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        record.pop("trajectory_csv")
        outputs.append((record, out.read_bytes()))
    assert outputs[0] == outputs[1]


# ---- eval ----


def make_eval_corpus(tmp_path, n=40, seed=31):
    assert run_cli("simulate", "--n", n, "--seed", seed, "--min-children", 1,
                   "--max-events", 40, "--out", tmp_path / "eval_corpus") == 0
    return tmp_path / "eval_corpus" / "traces.jsonl"


def test_eval_report_identity_and_files(tmp_path, capsys):
    traces = make_eval_corpus(tmp_path)
    out_dir = tmp_path / "eval_out"
    assert run_cli("eval", "--traces", traces, "--seed", 1, "--rho", 0.5,
                   "--out", out_dir) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    n0, n1, n = report["n_genuine"], report["n_fake"], report["n"]
    assert n0 + n1 == n
    expected_accuracy = 1.0 - (report["fp"] * n0 + report["fn"] * n1) / n
    assert report["accuracy"] == pytest.approx(expected_accuracy, abs=1e-12)
    assert report["mean_detection_events"] >= 1.0
    assert sum(report["per_rule"].values()) == n
    per_trace = (out_dir / "per_trace.csv").read_text(encoding="utf-8").splitlines()
    assert len(per_trace) == n + 1
    curve = (out_dir / "accuracy_curve.csv").read_text(encoding="utf-8").splitlines()
    assert curve[0] == "events,accuracy"
    assert len(curve) >= 2


@pytest.mark.parametrize("cls", ["x", None])
def test_eval_rejects_non_integer_event_class_with_exit_2(tmp_path, capsys, cls):
    traces = make_eval_corpus(tmp_path, n=3)
    records = [json.loads(line) for line in traces.read_text(encoding="utf-8").splitlines()]
    records[1]["events"][-1]["class"] = cls
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("eval", "--traces", traces, "--seed", 1, "--out", tmp_path / "eval_out")
    captured = capsys.readouterr()
    assert code == 2
    assert "accuracy" not in captured.out
    assert "class" in captured.err


def _set_source(record, value):
    record["source"] = value


def _set_last_event(key, value):
    def mutate(record):
        record["events"][-1][key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    lambda record: _set_source(record, [0]),
    _set_last_event("u", [1]),
    _set_last_event("v", [2]),
    _set_last_event("v", 2.5),
    _set_last_event("parent", [[0], 1]),
    _set_last_event("parent", "ab"),
    lambda record: record.update(label=True),
], ids=["list-source", "list-u", "list-v", "float-v", "list-in-parent", "string-parent",
        "bool-label"])
def test_eval_rejects_malformed_trace_with_exit_2(tmp_path, capsys, mutate):
    traces = make_eval_corpus(tmp_path, n=3)
    records = [json.loads(line) for line in traces.read_text(encoding="utf-8").splitlines()]
    mutate(records[1])
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("eval", "--traces", traces, "--seed", 1, "--out", tmp_path / "eval_out")
    captured = capsys.readouterr()
    assert code == 2
    assert "accuracy" not in captured.out
    assert "bad trace record" in captured.err


def test_eval_negative_seed_exits_2(tmp_path, capsys):
    traces = make_eval_corpus(tmp_path, n=3)
    capsys.readouterr()
    code = run_cli("eval", "--traces", traces, "--seed", -1, "--out", tmp_path / "eval_out")
    _assert_one_line_usage_error(capsys, code, "--seed")
    assert not (tmp_path / "eval_out").exists()


def test_eval_byte_deterministic(tmp_path):
    traces = make_eval_corpus(tmp_path, n=16, seed=13)
    for name in ("e1", "e2"):
        assert run_cli("eval", "--traces", traces, "--seed", 5, "--policy", "sprt",
                       "--out", tmp_path / name) == 0
    for fname in ("report.json", "per_trace.csv"):
        assert (tmp_path / "e1" / fname).read_bytes() == (tmp_path / "e2" / fname).read_bytes()


# sha256 of (report.json, per_trace.csv), recorded before the single-followee
# chain walk, scalar one-candidate scoring and shared chain tables landed
TREE_EVAL_DIGESTS = {
    "convergence": ("7b932386888337518b474862e7ff0d1430e8a2d744581129e5b65e295caf7498",
                    "f88641c3c2a18aa4abe18d7cfab3b924e48fb1a10bc2360c21608337d61ef031"),
    "sprt": ("87f7663afa2163e751973d0e7240ede4a1c31d641d9de6d03f4f3f9e42d34efc",
             "7790ff2586aeb1ed23d04c48a5ab58afc4e569885b47b1465b77f7b8e51639f8"),
    "dp": ("827cb68daa18b07b38a529e428cdc667b60812ad9ca682e6d57e9afae1e2814d",
           "c219eb17b4ab022663778ac1308ebc19add0d807c9b10f5b03f680ba3970d68f"),
}


@pytest.mark.parametrize("policy", sorted(TREE_EVAL_DIGESTS))
def test_eval_on_a_tree_corpus_reproduces_recorded_outputs(tmp_path, policy):
    # one candidate path per observation, with unreachable ones past the bound
    traces = make_eval_corpus(tmp_path, n=24)
    out_dir = tmp_path / policy
    assert run_cli("eval", "--traces", traces, "--seed", 4, "--rho", 0.5,
                   "--policy", policy, "--out", out_dir) == 0
    digests = tuple(hashlib.sha256((out_dir / fname).read_bytes()).hexdigest()
                    for fname in ("report.json", "per_trace.csv"))
    assert digests == TREE_EVAL_DIGESTS[policy]


# eval --policy dp on the layered DAG below, recorded with the per-tail
# forward regions that preceded the per-source forward ball: the sha256 of
# report.json, then per trace (verdict, steps, rule) and final_posterior
DAG_EVAL_REPORT = "88d507dce379595ef3771517fd845cf44df7a5d4389ce2835f777555e2e432d2"
DAG_EVAL_DECISIONS = [
    (0, 20, "horizon"), (1, 13, "horizon"), (1, 7, "horizon"), (1, 5, "horizon"),
    (0, 20, "horizon"), (1, 23, "horizon"), (0, 9, "horizon"), (1, 18, "horizon"),
    (0, 4, "horizon"), (1, 21, "horizon"), (0, 23, "horizon"), (1, 3, "horizon"),
    (0, 8, "horizon"), (1, 4, "dp_threshold"), (0, 14, "horizon"), (1, 4, "dp_threshold"),
    (0, 20, "horizon"), (1, 3, "dp_threshold"), (0, 13, "horizon"), (1, 17, "dp_threshold"),
]
DAG_EVAL_POSTERIORS = [
    0.008942305068677553, 0.7894619844695311, 0.6405100290007016, 0.9513042669607705,
    3.781122208738615e-07, 0.7493381847029613, 0.05766468287372273, 0.9401130463535452,
    0.08653531228605134, 0.9250047457282056, 4.150843587315903e-07, 0.9237410965100908,
    0.052209896033691, 0.9878467951435392, 0.059514510302888804, 0.9881622993144551,
    0.0005430846129034126, 0.9974436815037462, 0.028615121885434698, 0.9888445389803655,
]


def test_dp_eval_on_a_layered_dag_reproduces_recorded_outputs(tmp_path):
    # source 0 followed by layer 1; each node of layers 1-4 followed by three
    # nodes of the next layer, and each of layer 1 also by one of layer 3, so
    # most tails have several candidate paths, some of two lengths
    rng = np.random.default_rng(5)
    layers = [[0]] + [[100 * k + j for j in range(8)] for k in range(1, 6)]
    edges = [(0, v) for v in layers[1]] + [(a, int(rng.choice(layers[3]))) for a in layers[1]]
    for up, down in zip(layers[1:], layers[2:]):
        for a in up:
            edges += [(a, int(b)) for b in sorted(rng.choice(down, 3, replace=False))]
    graph = SocialGraph.from_edges(edges)
    growth = GrowthConfig(max_events=30, min_children=1)
    traces = [sample_trace(graph, reference_model(), label, seed=s, growth=growth, source=0)
              for s, label in enumerate([GENUINE, FAKE] * 10)]
    write_traces(traces, tmp_path / "traces.jsonl")
    save_graph(graph, tmp_path / "graph.tsv")
    out_dir = tmp_path / "dag_eval"
    assert run_cli("eval", "--traces", tmp_path / "traces.jsonl", "--graph", tmp_path / "graph.tsv",
                   "--seed", 4, "--rho", 0.7, "--policy", "dp", "--out", out_dir) == 0
    report = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
    rows = [line.split(",") for line in
            (out_dir / "per_trace.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert report == DAG_EVAL_REPORT
    assert [(int(r[2]), int(r[3]), r[4]) for r in rows] == DAG_EVAL_DECISIONS
    for row, expected in zip(rows, DAG_EVAL_POSTERIORS, strict=True):
        assert math.isclose(float(row[5]), expected, rel_tol=1e-12, abs_tol=0.0)


def test_eval_with_shared_graph(tmp_path):
    # cascades simulated on one real graph, evaluated against that graph file
    from .conftest import DEMO_CROSS_EDGES, DEMO_TREE_EDGES, build_graph

    graph = build_graph(DEMO_TREE_EDGES + DEMO_CROSS_EDGES)
    model = reference_model()
    traces = [
        sample_trace(graph, model, label, seed=s + 10 * label,
                     growth=GrowthConfig(max_events=15, min_children=1), source=1)
        for label in (GENUINE, FAKE)
        for s in range(6)
    ]
    traces_path = tmp_path / "traces.jsonl"
    graph_path = tmp_path / "graph.tsv"
    write_traces(traces, traces_path)
    save_graph(graph, graph_path)
    out_dir = tmp_path / "shared_eval"
    assert run_cli("eval", "--traces", traces_path, "--graph", graph_path,
                   "--seed", 3, "--rho", 0.6, "--out", out_dir) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 12


def test_eval_sprt_errors_within_wald_bounds(tmp_path):
    # single-path corpus, full observation: boundary-crossing error rates must
    # respect the Wald inequalities up to Monte Carlo noise
    assert run_cli("simulate", "--n", 400, "--seed", 19, "--min-children", 1,
                   "--max-children", 1, "--mean-children", 1.0,
                   "--max-events", 50, "--out", tmp_path / "chains") == 0
    out_dir = tmp_path / "wald_eval"
    assert run_cli("eval", "--traces", tmp_path / "chains" / "traces.jsonl",
                   "--seed", 23, "--rho", 1.0, "--policy", "sprt",
                   "--wald-p", 0.05, "--wald-q", 0.05,
                   "--max-path-len", 51, "--out", out_dir) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    fp, fn = report["fp"], report["fn"]
    se_fp = (fp * (1 - fp) / report["n_genuine"]) ** 0.5
    se_fn = (fn * (1 - fn) / report["n_fake"]) ** 0.5
    assert fp <= (1 - fn) / 19.0 + 3 * se_fp
    assert fn <= (1 / 19.0) * (1 - fp) + 3 * se_fn


# ---- Monte Carlo risk ----


RISK_COSTS = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.05)


def test_summarize_risk_oracle_policy_is_free():
    costs = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.0)
    results = [
        TraceResult(label=lab, outcome=DecisionOutcome(step=3, verdict=lab, rule="sprt"),
                    belief=BeliefState(prior=float(lab)))
        for lab in (0, 1, 0, 1, 1)
    ]
    report = summarize_risk(count_errors(results), costs, prior=0.5)
    assert report.risk == 0.0
    assert report.pe_false_alarm == 0.0
    assert report.pe_miss == 0.0


def test_summarize_risk_counts_errors():
    costs = CostSpec(false_alarm=10.0, miss=10.0, per_step=0.0)
    results = [
        TraceResult(0, DecisionOutcome(step=2, verdict=1, rule="sprt"), BeliefState(prior=0.9)),
        TraceResult(0, DecisionOutcome(step=2, verdict=0, rule="sprt"), BeliefState(prior=0.1)),
        TraceResult(1, DecisionOutcome(step=4, verdict=1, rule="sprt"), BeliefState(prior=0.9)),
    ]
    report = summarize_risk(count_errors(results), costs, prior=0.5)
    assert report.pe_false_alarm == 0.5
    assert report.pe_miss == 0.0
    assert report.mean_steps_fake == pytest.approx(0.5 * 4.0)
    assert report.risk == pytest.approx(10 * 0.5 * 0.5)


def test_sprt_risk_respects_wald_bounds_smoke(ref_model, caplog):
    # single-path cascades, fully observed: the likelihood ratio is exact and
    # the boundary-crossing bounds must hold up to Monte Carlo noise
    costs = RISK_COSTS
    policy = SprtPolicy(SprtConfig.from_error_targets(0.05, 0.05), costs)
    growth = GrowthConfig(max_events=40, mean_children=1.0, max_children=1, min_children=1)
    with caplog.at_level(logging.WARNING, logger="cascaudit"):
        report, results = risk_estimate(
            policy, ref_model, n_traces=300, seed=5150, costs=costs, growth=growth
        )
    # the path bound reaches every event of the 40-event chains, so the
    # streams are not cut short and nearly every trace stops by the SPRT rule
    assert not [r for r in caplog.records if "unreachable" in r.getMessage()]
    assert sum(r.outcome.rule == "sprt" for r in results) >= 0.95 * len(results)
    assert report.pe_false_alarm <= (1 - report.pe_miss) / 19.0 + 3 * report.se_false_alarm
    assert report.pe_miss <= (1 / 19.0) * (1 - report.pe_false_alarm) + 3 * report.se_miss


def test_tighter_boundaries_do_not_increase_errors(ref_model):
    costs = RISK_COSTS
    growth = GrowthConfig(max_events=40, mean_children=1.0, max_children=1, min_children=1)
    loose = SprtPolicy(SprtConfig.from_error_targets(0.15, 0.15), costs)
    tight = SprtPolicy(SprtConfig.from_error_targets(0.03, 0.03), costs)
    report_loose, _ = risk_estimate(loose, ref_model, 300, seed=42, costs=costs, growth=growth)
    report_tight, _ = risk_estimate(tight, ref_model, 300, seed=42, costs=costs, growth=growth)
    noise = 3 * math.sqrt(
        report_loose.se_false_alarm**2
        + report_loose.se_miss**2
        + report_tight.se_false_alarm**2
        + report_tight.se_miss**2
    )
    total_loose = report_loose.pe_false_alarm + report_loose.pe_miss
    total_tight = report_tight.pe_false_alarm + report_tight.pe_miss
    assert total_tight <= total_loose + noise


# ---- thresholds ----


def test_thresholds_immediate_stop_regime(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = run_cli("thresholds", "--ci", 10, "--cii", 10, "--c", 20, "--out", out)
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "pi_low=0.5" in line and "pi_up=0.5" in line
    from cascaudit.policy import ThresholdTable

    table = ThresholdTable.load(out)
    assert table.pi_low == table.pi_up == 0.5


def test_thresholds_reference_costs_and_shrinkage(tmp_path, capsys):
    assert run_cli("thresholds", "--c", 0.05, "--out", tmp_path / "t1.csv") == 0
    first = capsys.readouterr().out
    assert run_cli("thresholds", "--c", 0.1, "--out", tmp_path / "t2.csv") == 0
    second = capsys.readouterr().out
    from cascaudit.policy import ThresholdTable

    base = ThresholdTable.load(tmp_path / "t1.csv")
    doubled = ThresholdTable.load(tmp_path / "t2.csv")
    assert base.pi_low <= 0.5 <= base.pi_up
    assert doubled.pi_low >= base.pi_low
    assert doubled.pi_up <= base.pi_up
    assert (doubled.pi_up - doubled.pi_low) < (base.pi_up - base.pi_low)


def test_thresholds_unconverged_exits_4(tmp_path):
    code = run_cli("thresholds", "--max-sweeps", 1, "--out", tmp_path / "partial.csv")
    assert code == 4
    assert (tmp_path / "partial.csv").exists()


# ---- hostile input: generated stream and trace files ----

# ---- hostile input ----


def _inputs_for_every_reader(tmp_path):
    """Valid inputs for the five file readers the commands share; returns
    {reader: (argv, the file that reader parses)}."""
    graph_path, stream_path = write_detect_inputs(tmp_path, FAKE, seed=3)
    traces_path, edges_path, feats_path = _write_featured_corpus(tmp_path, recorded=True)
    model_path, table_path = tmp_path / "model.json", tmp_path / "table.csv"
    save_model(reference_model(), model_path)
    assert run_cli("thresholds", "--out", table_path) == 0
    detect = ["detect", "--graph", graph_path, "--stream", stream_path]
    return {
        "traces": (["eval", "--traces", traces_path, "--seed", 1,
                    "--out", tmp_path / "out"], traces_path),
        "graph": (detect, graph_path),
        "features": (["train", "--traces", traces_path, "--graph", edges_path,
                      "--features", feats_path, "--seed", 1, "--out", tmp_path / "m.json"],
                     feats_path),
        "model": (detect + ["--model", model_path], model_path),
        "threshold-table": (detect + ["--policy", "dp", "--threshold-table", table_path],
                            table_path),
    }


@pytest.mark.parametrize("reader", ["traces", "graph", "features", "model", "threshold-table"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, reader):
    argv, path = _inputs_for_every_reader(tmp_path)[reader]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cascaudit: error: {path}: not UTF-8 text")
    assert captured.err.count("\n") == 1


# two routes from 0 to 3, plus a string-id branch
FUZZ_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, "a"), ("a", "b")]
FUZZ_GRAPH = "".join(f"{u}\t{v}\n" for u, v in FUZZ_EDGES)
NODE = st.sampled_from([0, 1, 2, 3, 4, "a", "b", 7])
EDGE = st.one_of(st.sampled_from(FUZZ_EDGES), st.sampled_from(FUZZ_EDGES), st.tuples(NODE, NODE))
CLASS = st.integers(0, 3)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _observation(edge, cls):
    return {"u": edge[0], "v": edge[1], "class": cls}


def _event(edge, cls, parent):
    return {"u": edge[0], "v": edge[1], "class": cls, "parent": parent and list(parent)}


VALID_STREAM = st.builds(
    lambda source, observations: {"source": source, "observations": observations},
    st.one_of(st.just(0), NODE),
    st.lists(st.builds(_observation, EDGE, CLASS), min_size=1, max_size=6),
)
VALID_TRACE = st.builds(
    lambda label, source, events: {"label": label, "source": source, "events": events},
    st.sampled_from([0, 1]),
    st.one_of(st.just(0), NODE),
    st.lists(st.builds(_event, EDGE, CLASS, st.one_of(st.none(), EDGE)), min_size=1, max_size=6),
)


def _corrupt(draw, node):
    """Replace one value somewhere inside ``node`` with junk, or drop one key."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if not keys:
        return
    key = draw(st.sampled_from(keys))
    child = node[key]
    if isinstance(child, (dict, list)) and child and draw(st.booleans()):
        _corrupt(draw, child)
    elif isinstance(node, dict) and draw(st.integers(0, 3)) == 0:
        del node[key]
    else:
        node[key] = draw(JUNK)


@st.composite
def corrupted(draw, valid):
    """A valid document with up to two values replaced by junk or dropped,
    or, rarely, junk in its place."""
    if draw(st.integers(0, 19)) == 0:
        return draw(JUNK)
    document = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        _corrupt(draw, document)
    return document


STREAM = corrupted(VALID_STREAM)
TRACE = corrupted(VALID_TRACE)
POLICY = st.sampled_from(["convergence", "sprt", "dp"])


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(*argv)


@settings(max_examples=150, deadline=None)
@given(stream=STREAM, policy=POLICY)
def test_detect_on_generated_streams_exits_cleanly(stream, policy):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, stream_path = Path(tmp, "graph.tsv"), Path(tmp, "stream.json")
        graph_path.write_text(FUZZ_GRAPH, encoding="utf-8")
        stream_path.write_text(json.dumps(stream), encoding="utf-8")
        code = _run_quietly(["detect", "--graph", graph_path, "--stream", stream_path,
                             "--policy", policy])
    assert code in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(traces=st.lists(TRACE, min_size=1, max_size=3), policy=POLICY,
       shared_graph=st.booleans())
def test_eval_on_generated_traces_exits_cleanly(traces, policy, shared_graph):
    with tempfile.TemporaryDirectory() as tmp:
        traces_path = Path(tmp, "traces.jsonl")
        traces_path.write_text("".join(json.dumps(t) + "\n" for t in traces), encoding="utf-8")
        argv = ["eval", "--traces", traces_path, "--seed", 1, "--rho", 1.0,
                "--policy", policy, "--out", Path(tmp, "out")]
        if shared_graph:
            Path(tmp, "graph.tsv").write_text(FUZZ_GRAPH, encoding="utf-8")
            argv += ["--graph", Path(tmp, "graph.tsv")]
        code = _run_quietly(argv)
    assert code in (0, 2, 3)


FUZZ_STREAM = json.dumps({"source": 0, "observations": [
    _observation(edge, 1) for edge in ((0, 1), (1, 3), (3, 4), (0, "a"))
]})
FUZZ_FEATURES = "".join(
    f"{node}\t{0.5 * i - 1.0},{1.0 - 0.25 * i}\n"
    for i, node in enumerate([0, 1, 2, 3, 4, "a", "b"])
)
FUZZ_TRACES = "".join(
    json.dumps({"label": label, "source": 0, "events": [
        _event(edge, (cls + label) % 4, parent)
        for cls, (edge, parent) in enumerate(zip(route, (None,) + route[:-1]))
    ]}) + "\n"
    for label, route in ((0, ((0, 1), (1, 3), (3, 4))), (1, ((0, 2), (2, 3), (0, "a"))))
)
FUZZ_MODEL = json.dumps(reference_model().to_dict(), indent=2, sort_keys=True) + "\n"
FUZZ_TABLE = (
    "# ci=1.0 cii=1.0 c=0.01 pi_low=0.2 pi_up=0.8 converged=true sweeps=12\n"
    "pi,s_bar\n0.0,0.0\n0.5,0.25\n1.0,0.0\n"
)


@st.composite
def spliced(draw, valid: str):
    """Random bytes, or the UTF-8 bytes of ``valid`` with a short run of them
    replaced by random bytes."""
    junk = draw(st.binary(max_size=12))
    data = valid.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        return junk
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 6)))
    return data[:start] + junk + data[end:]


def _parser_run(parsed, data, tmp):
    """argv that feeds ``data`` to the ``parsed`` file's reader, with valid
    files everywhere else."""
    files = {"graph": FUZZ_GRAPH, "features": FUZZ_FEATURES, "model": FUZZ_MODEL,
             "stream": FUZZ_STREAM, "traces": FUZZ_TRACES, "table": FUZZ_TABLE}
    paths = {}
    for name, text in files.items():
        paths[name] = Path(tmp, name)
        paths[name].write_bytes(data if name == parsed else text.encode("utf-8"))
    if parsed == "features":
        return ["train", "--traces", paths["traces"], "--graph", paths["graph"],
                "--features", paths["features"], "--seed", 1, "--epochs", 5,
                "--out", Path(tmp, "m.json")]
    argv = ["detect", "--graph", paths["graph"], "--stream", paths["stream"],
            "--model", paths["model"]]
    if parsed == "table":
        argv += ["--policy", "dp", "--threshold-table", paths["table"]]
    return argv


@pytest.mark.parametrize("parsed, valid", [
    ("graph", FUZZ_GRAPH), ("features", FUZZ_FEATURES), ("model", FUZZ_MODEL),
    ("table", FUZZ_TABLE),
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsers_on_random_bytes_exit_cleanly(parsed, valid, data):
    with tempfile.TemporaryDirectory() as tmp:
        code = _run_quietly(_parser_run(parsed, data.draw(spliced(valid)), tmp))
    assert code in (0, 2, 3)
