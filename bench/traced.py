"""Run one cascaudit CLI command with spans around each layer's public functions.

Usage: python3 bench/traced.py SPANS_JSON -- <cascaudit arguments>

The wrappers are installed from outside the package, at the names where the
package looks the functions up (``cascaudit.cli.run_detection``, not
``cascaudit.policy.run_detection``), so the command runs the code a user runs.
A target that no longer exists is reported as absent instead of failing, so a
later rename or fold only drops the metrics that depend on it.

Each span is (target, start, end, parent); the benchmark computes self times
from them after the process exits.  Counters (paths per enumeration, sweeps,
horizon stops, unreachable observations, zero-score fallbacks) are taken from
return values, exceptions and log records at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import sys
import time

# (module, attribute path, layer metric whose self time the span adds to)
TARGETS = (
    ("cascaudit.cli", "main", "cli.self_s"),
    ("cascaudit.cli", "load_graph", "graph.ingest_s"),
    ("cascaudit.markov", "Trace.implied_graph", "graph.ingest_s"),
    ("cascaudit.inference", "enumerate_paths", "graph.enum_s"),
    ("cascaudit.inference", "build_path_contexts", "inference.context_s"),
    ("cascaudit.inference", "PosteriorEngine.log_conditionals", "inference.score_s"),
    ("cascaudit.inference", "PosteriorEngine.observe", "inference.update_s"),
    ("cascaudit.cli", "solve_thresholds", "policy.solve_s"),
    ("cascaudit.cli", "run_detection", "policy.check_s"),
    ("cascaudit.cli", "sample_trace", "markov.simulate_s"),
    ("cascaudit.cli", "subsample", "markov.subsample_s"),
    ("cascaudit.cli", "read_traces", "markov.io_s"),
    ("cascaudit.cli", "write_traces", "markov.io_s"),
    ("cascaudit.cli", "load_model", "markov.io_s"),
    ("cascaudit.cli", "save_model", "markov.io_s"),
    ("cascaudit.cli", "read_stream", "markov.io_s"),
    ("cascaudit.cli", "train_classifier", "offline.classifier_s"),
    ("cascaudit.cli", "classify_graph_edges", "offline.classify_edges_s"),
    ("cascaudit.cli", "estimate_eta", "offline.estimate_s"),
    ("cascaudit.cli", "estimate_alpha", "offline.estimate_s"),
    ("cascaudit.cli", "build_spread_model", "offline.estimate_s"),
)
IMPORT_SPAN = "import cascaudit.cli"
IMPORT_METRIC = "cli.import_s"


class Recorder:
    """Spans kept in memory as parallel lists and written once at exit."""

    def __init__(self):
        self.names: list = []
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.stack: list = []
        self.counters = {
            "ingest_edges": 0, "enum_calls": 0, "paths": [], "truncated": 0,
            "solve_sweeps": 0, "verdicts": 0, "horizon_stops": 0,
            "observations": 0, "unreachable": 0, "zero_score_fallbacks": 0,
        }

    def _name_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def open(self, name):
        idx = len(self.start)
        self.name.append(self._name_index(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, on_result, on_error):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                on_error(exc)
                raise
            finally:
                self.close(idx)
            on_result(result)
            return result

        return traced

    def dump(self, path, absent, exit_code):
        record = {
            "names": self.names, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "counters": self.counters,
            "absent": absent, "exit_code": exit_code,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _hooks(counters, attr):
    """Counters taken from a target's return value or exception."""

    def ignore(_):
        pass

    def add_edges(graph):
        counters["ingest_edges"] += getattr(graph, "edge_count", 0)

    def enum(result):
        counters["enum_calls"] += 1
        counters["paths"].append(len(result))
        counters["truncated"] += bool(getattr(result, "truncated", False))

    def sweeps(table):
        counters["solve_sweeps"] += getattr(table, "sweeps", 0)

    def verdict(result):
        counters["verdicts"] += 1
        counters["horizon_stops"] += getattr(result[0], "rule", None) == "horizon"

    def observed(_):
        counters["observations"] += 1

    def unreachable(exc):
        if type(exc).__name__ == "UnreachableObservationError":
            counters["unreachable"] += 1

    return {
        "load_graph": (add_edges, ignore),
        "Trace.implied_graph": (add_edges, ignore),
        "enumerate_paths": (enum, ignore),
        "solve_thresholds": (sweeps, ignore),
        "run_detection": (verdict, ignore),
        "PosteriorEngine.observe": (observed, unreachable),
    }.get(attr, (ignore, ignore))


def install(recorder) -> list:
    """Wrap every target that exists; return the ones that do not."""
    absent = []
    for module_name, attr, _ in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        on_result, on_error = _hooks(recorder.counters, attr)
        setattr(owner, leaf, recorder.wrap(fn, f"{module_name}.{attr}", on_result, on_error))
    return absent


class _FallbackCounter(logging.Handler):
    """Counts the engine's zero-score uniform-fallback warnings."""

    def __init__(self, counters):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        if "zero score" in record.getMessage():
            self.counters["zero_score_fallbacks"] += 1


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <cascaudit arguments>")
    recorder = Recorder()
    idx = recorder.open(IMPORT_SPAN)
    cli = importlib.import_module("cascaudit.cli")
    recorder.close(idx)
    absent = install(recorder)
    logging.getLogger("cascaudit").addHandler(_FallbackCounter(recorder.counters))
    code = 1
    try:
        code = cli.main(argv)
    finally:
        recorder.dump(spans_path, absent, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
