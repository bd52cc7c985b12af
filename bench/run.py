"""cascaudit benchmark: seeded inputs, closed-loop CLI workloads, checked outputs.

Usage (from the root of a checkout that holds ``src/cascaudit``):

    python3 bench/run.py --workload {tree,layered} --seed N \\
        --seconds S --trace {0,1} [--record]

One client drives one fresh ``python3 -m cascaudit.cli`` process at a time
(closed loop, no ``--jobs``).  A repeat runs the workload's command sequence
and then ``SETUP_PROBES`` set-up probes: a ``detect`` on a one-observation
stream over the workload's graph and model, which measures the fixed cost of
one invocation.  Repeats continue for ``--seconds`` (at least
``MIN_REPEATS``) and every timing is the median over repeats, corrected
for the speed the host gave the command (see ``PROBE_S``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` pairs each
untraced repeat with a traced one, in which every command runs under
``bench/traced.py``, and reports per-layer self times and counters.

Every command's exit code and outputs are checked; eval outputs must be
byte-identical across repeats and between traced and untraced runs.  The
output digests are compared with ``bench/reference.json`` when it holds a
record for this workload and seed with the same input digests (``--record``
writes that record).  The last line of standard output is the result object;
the lines before it are the detail: host stamp, input and output digests,
checks, sample counts and the per-command breakdown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import inputs
from traced import IMPORT_METRIC, IMPORT_SPAN, TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

MIN_REPEATS = {0: 3, 1: 1}
# On a shared host the speed a CPU gives changes by up to a factor of two
# within seconds, and each CPU changes on its own.  So the benchmark pins
# itself and its commands to one CPU (the workloads are single-process
# closed loops), and while a command runs, a thread of the benchmark times
# speed_probe() on that CPU every PROBE_EVERY_S.  Every timing is scaled to
# a host on which speed_probe() takes PROBE_S seconds:
# wall * PROBE_S / (mean probe time during the command).  A change to the
# package moves the command and not the probe.  Raw wall times are in the
# detail under "commands".
PROBE_ITERS = 1000
PROBE_S = 0.0007
PROBE_EVERY_S = 0.05
SETUP_PROBES = 3  # set-up probes per repeat; setup_s is their median over the run
COMMAND_TIMEOUT_S = 150
TREE_POLICIES = ("convergence", "sprt", "dp")
# C10's synthetic band, which C10 applies to the convergence rule
TREE_BAND = {"accuracy": 0.8, "mean_detection_events": 20.0}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
DETECTION_LAYERS = ("graph.enum_s", "inference.context_s", "inference.score_s",
                    "inference.update_s", "policy.check_s")

E2E_UNITS = {"setup_s": "s", "run_s": "s", "eval_s": "s", "obs_per_s": "1/s",
             "peak_rss_mb": "MB", "accuracy": "ratio", "events_to_verdict": "count"}
COMMANDS = ("simulate", "train", "thresholds", "eval", "detect")
LAYER_UNITS = {
    IMPORT_METRIC: "s", "cli.self_s": "s",
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "graph.ingest_s": "s", "graph.ingest_edges": "count", "graph.enum_s": "s",
    "graph.enum_calls": "count", "graph.paths_mean": "count", "graph.paths_max": "count",
    "graph.truncated_ratio": "ratio",
    "inference.context_s": "s", "inference.score_s": "s", "inference.update_s": "s",
    "inference.observe_ms_p50": "ms", "inference.observe_ms_tail": "ms",
    "inference.observations": "count", "inference.unreachable": "count",
    "inference.zero_score_fallbacks": "count",
    "policy.solve_s": "s", "policy.solve_sweeps": "count", "policy.check_s": "s",
    "policy.verdict_ms_p50": "ms", "policy.verdict_ms_tail": "ms",
    "policy.horizon_ratio": "ratio",
    "markov.simulate_s": "s", "markov.subsample_s": "s", "markov.io_s": "s",
    "offline.classifier_s": "s", "offline.classify_edges_s": "s", "offline.estimate_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}
OBSERVE = "cascaudit.inference.PosteriorEngine.observe"
VERDICT = "cascaudit.cli.run_detection"
# metrics computed from a target's counters or span durations, not self time
COUNTER_TARGETS = {
    "graph.ingest_edges": ("cascaudit.cli.load_graph", "cascaudit.markov.Trace.implied_graph"),
    "graph.enum_calls": ("cascaudit.inference.enumerate_paths",),
    "graph.paths_mean": ("cascaudit.inference.enumerate_paths",),
    "graph.paths_max": ("cascaudit.inference.enumerate_paths",),
    "graph.truncated_ratio": ("cascaudit.inference.enumerate_paths",),
    "inference.observe_ms_p50": (OBSERVE,),
    "inference.observe_ms_tail": (OBSERVE,),
    "inference.observations": (OBSERVE,),
    "inference.unreachable": (OBSERVE,),
    "policy.solve_sweeps": ("cascaudit.cli.solve_thresholds",),
    "policy.verdict_ms_p50": (VERDICT,),
    "policy.verdict_ms_tail": (VERDICT,),
    "policy.horizon_ratio": (VERDICT,),
}
SPAN_METRIC = {f"{module}.{attr}": metric for module, attr, metric in TARGETS}
SPAN_METRIC[IMPORT_SPAN] = IMPORT_METRIC


@dataclass
class Command:
    label: str                      # unique within a workload, e.g. "eval:dp"
    argv: list
    outputs: tuple = ()             # files whose sha256 is part of the result
    eval_dir: Optional[Path] = None
    band: Optional[dict] = None     # quality band the eval report must meet


@dataclass
class Run:
    label: str
    command: str
    wall: float
    code: int
    rss_mb: float
    cpu_s: float
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    report: Optional[dict] = None
    steps: int = 0
    spans: Optional[dict] = None
    probe_s: float = PROBE_S        # mean speed_probe() time while the command ran

    @property
    def scaled(self) -> float:
        """Wall time at the host speed on which speed_probe() takes PROBE_S."""
        return self.wall * PROBE_S / self.probe_s


# ---- workloads ------------------------------------------------------------------


def _eval(inp, out, seed, policy, extra, band=None):
    d = out / f"eval_{policy}"
    argv = ["eval", "--traces", inp / "traces.jsonl", *extra, "--seed", seed,
            "--rho", "0.5", "--policy", policy, "--out", d]
    return Command(f"eval:{policy}", argv, (d / "report.json", d / "per_trace.csv"), d, band)


def tree_plan(inp, out, seed):
    model, sim = out / "model.json", out / "sim"
    shape = inputs.TREE
    seq = [
        Command("simulate", ["simulate", "--n", shape["traces"], "--seed", seed,
                             "--min-children", shape["min_children"],
                             "--max-events", shape["max_events"], "--out", sim],
                (sim / "traces.jsonl", sim / "graph.tsv")),
        Command("train", ["train", "--traces", inp / "traces.jsonl", "--graph", inp / "graph.tsv",
                          "--features", inp / "features.tsv", "--seed", seed,
                          "--out", model], (model,)),
        Command("thresholds", ["thresholds", "--model", model, "--out", out / "table.csv"],
                (out / "table.csv",)),
    ]
    seq += [_eval(inp, out, seed, p, ["--model", model], TREE_BAND if p == "convergence" else None)
            for p in TREE_POLICIES]
    setup = Command("detect", ["detect", "--model", model, "--graph", inp / "graph.tsv",
                               "--stream", inp / "stream.json", "--policy", "dp"])
    return seq, setup


def layered_plan(inp, out, seed):
    seq = [_eval(inp, out, seed, "dp", ["--graph", inp / "graph.tsv"])]
    setup = Command("detect", ["detect", "--graph", inp / "graph.tsv",
                               "--stream", inp / "stream.json"])
    return seq, setup


PLANS = {"tree": tree_plan, "layered": layered_plan}


# ---- running and checking one command ---------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _env()


def speed_probe() -> float:
    """Wall time of a fixed pure-Python task that uses nothing of the package.

    Like the CLI it hashes, allocates, does float arithmetic and sorts; its
    time grew in proportion to an eval's as the host's speed changed.
    """
    start = time.perf_counter()
    table, rows = {}, []
    for i in range(PROBE_ITERS):
        k = (i * 2654435761) & 4095
        table[k] = table.get(k, 0.0) * 0.5 + i
        rows.append((k, i & 7))
    rows.sort()
    return time.perf_counter() - start


def _sample_speed(samples: list, done: threading.Event) -> None:
    while not done.wait(PROBE_EVERY_S):
        samples.append(speed_probe())


def execute(cmd: Command, log_dir: Path, stem: str, traced: bool) -> Run:
    argv = [str(a) for a in cmd.argv]
    spans_path = log_dir / f"{stem}.spans.json" if traced else None
    if spans_path is None:
        full = [sys.executable, "-m", "cascaudit.cli", *argv]
    else:
        full = [sys.executable, str(BENCH / "traced.py"), str(spans_path), "--", *argv]
    out_path, err_path = log_dir / f"{stem}.out", log_dir / f"{stem}.err"
    samples, done = [], threading.Event()
    prober = threading.Thread(target=_sample_speed, args=(samples, done))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(full, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        prober.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no command running behind us
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            done.set()
            prober.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(cmd.label, argv[0], wall, proc.returncode, usage.ru_maxrss / 1024.0,
              usage.ru_utime + usage.ru_stime,
              probe_s=statistics.fmean(samples or [speed_probe()]))
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if run.code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        run.problems.append(f"exit code {run.code}: {tail}")
        return run
    try:
        _check(cmd, run, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"output check could not read outputs: {exc!r}")
    for path in cmd.outputs:
        if path.exists():
            run.digests[path.name] = inputs.sha256(path)
    if argv[0] == "detect":
        run.digests["stdout"] = inputs.sha256_bytes(stdout.encode("utf-8"))
    if spans_path is not None:
        with open(spans_path, encoding="utf-8") as fh:
            run.spans = json.load(fh)
    return run


def _check(cmd: Command, run: Run, stdout: str) -> None:
    kind = run.command
    if kind == "simulate":
        lines = cmd.outputs[0].read_text(encoding="utf-8").splitlines()
        if len(lines) != inputs.TREE["traces"]:
            run.problems.append(f"simulate wrote {len(lines)} traces")
    elif kind == "train":
        model = json.loads(cmd.outputs[0].read_text(encoding="utf-8"))
        if not 0.0 < model["prior_fake"] < 1.0 or model["Z"] != 4:
            run.problems.append("trained model has a degenerate prior or class count")
    elif kind == "thresholds":
        if "converged=true" not in stdout:
            run.problems.append("threshold solver did not converge")
    elif kind == "detect":
        record = json.loads(stdout.strip().splitlines()[-1])
        if record["T"] != 1 or record["verdict"] not in (0, 1):
            run.problems.append(f"detect record {record!r} is not a one-step verdict")
    elif kind == "eval":
        _check_eval(cmd, run)


def _check_eval(cmd: Command, run: Run) -> None:
    corpus = len((Path(cmd.argv[cmd.argv.index("--traces") + 1]))
                 .read_text(encoding="utf-8").splitlines())
    report = json.loads((cmd.eval_dir / "report.json").read_text(encoding="utf-8"))
    rows = (cmd.eval_dir / "per_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    steps = [int(row.split(",")[3]) for row in rows]
    run.report, run.steps = report, sum(steps)
    if report["n"] != corpus or len(rows) != corpus:
        run.problems.append(f"eval rows: report {report['n']}, csv {len(rows)}, corpus {corpus}")
    if not 0.0 <= report["accuracy"] <= 1.0 or min(steps, default=0) < 1:
        run.problems.append("eval accuracy or step counts out of range")
    if cmd.band and (report["accuracy"] < cmd.band["accuracy"] or
                     report["mean_detection_events"] > cmd.band["mean_detection_events"]):
        run.problems.append(f"accuracy {report['accuracy']} or mean events "
                            f"{report['mean_detection_events']} outside the band {cmd.band}")


def run_repeat(plan, inp: Path, rep_dir: Path, seed: int, traced: bool) -> list:
    rep_dir.mkdir(parents=True)
    seq, setup = plan(inp, rep_dir, str(seed))
    return [
        execute(cmd, rep_dir, f"{i:02d}_{cmd.label.replace(':', '_')}", traced)
        for i, cmd in enumerate([*seq, *[setup] * SETUP_PROBES])
    ]


# ---- statistics -----------------------------------------------------------------


def quantile(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, quantile(values, pct)
    return 100.0, max(values)


def summary(values):
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr"] = q3 - q1
    return out


# ---- end-to-end metrics -----------------------------------------------------------


def sequence(runs: list) -> list:
    """The workload's commands of one repeat, without its set-up probes."""
    return [r for r in runs if r.command != "detect"]


def e2e_repeat(runs: list) -> dict:
    evals = [r for r in runs if r.command == "eval"]
    eval_s = sum(r.scaled for r in evals)
    return {
        "run_s": sum(r.scaled for r in sequence(runs)),
        "eval_s": eval_s,
        "obs_per_s": sum(r.steps for r in evals) / eval_s,
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


def quality(runs: list) -> dict:
    """Pooled over the workload's eval commands (deterministic per input)."""
    reports = [r.report for r in runs if r.report is not None]
    n = sum(rep["n"] for rep in reports)
    if not n:
        return {}
    return {
        "accuracy": sum(rep["accuracy"] * rep["n"] for rep in reports) / n,
        "events_to_verdict": sum(rep["mean_detection_events"] * rep["n"] for rep in reports) / n,
    }


# ---- per-layer metrics from spans -------------------------------------------------


def self_times(spans: dict, wall: float) -> tuple:
    """({layer metric: self seconds}, unattributed seconds, problems)."""
    names = [spans["names"][i] for i in spans["name"]]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    duration = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(duration)
    problems = []
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
            if start[i] < start[p] or end[i] > end[p]:
                problems.append(f"span {names[i]} leaves its parent {names[p]}")
    layers = {}
    for i, name in enumerate(names):
        own = duration[i] - covered[i]
        if duration[i] < 0 or own < -1e-9:
            problems.append(f"span {names[i]} has negative self time")
        metric = SPAN_METRIC[name]
        layers[metric] = layers.get(metric, 0.0) + own
    unattributed = wall - sum(layers.values())
    if unattributed < 0:
        problems.append("spans cover more than the process wall time")
    return layers, unattributed, problems[:5]


def layer_repeat(traced_runs: list, untraced_runs: list) -> tuple:
    """Per-layer metrics of one traced repeat, the per-command breakdown, problems."""
    metrics = {m: 0.0 for m in LAYER_UNITS if m not in COUNTER_TARGETS}
    counters = {}
    observe_ms, verdict_ms, paths = [], [], []
    breakdown, problems, absent = [], [], set()
    for run in traced_runs:
        metrics[f"cli.{run.command}_s"] += run.scaled
        if run.spans is None:
            continue
        absent.update(run.spans["absent"])
        layers, unattributed, bad = self_times(run.spans, run.wall)
        problems += [f"{run.label}: {p}" for p in bad]
        scale = run.scaled / run.wall
        for metric, value in layers.items():
            metrics[metric] += scale * value
        metrics["trace.unattributed_s"] += scale * unattributed
        breakdown.append({"command": run.label, "wall_s": run.wall,
                          "unattributed_s": unattributed, "self_s": layers})
        for key, value in run.spans["counters"].items():
            if key == "paths":
                paths += value
            else:
                counters[key] = counters.get(key, 0) + value
        names = run.spans["names"]
        for idx, s, e in zip(run.spans["name"], run.spans["start"], run.spans["end"]):
            if names[idx] == OBSERVE:
                observe_ms.append(scale * (e - s) * 1e3)
            elif names[idx] == VERDICT:
                verdict_ms.append(scale * (e - s) * 1e3)
    metrics["trace.overhead_ratio"] = (sum(r.scaled for r in sequence(traced_runs))
                                       / sum(r.scaled for r in sequence(untraced_runs)))
    metrics.update({
        "graph.ingest_edges": counters.get("ingest_edges", 0),
        "graph.enum_calls": counters.get("enum_calls", 0),
        "graph.paths_mean": statistics.fmean(paths) if paths else 0.0,
        "graph.paths_max": max(paths, default=0),
        "graph.truncated_ratio": counters.get("truncated", 0) / len(paths) if paths else 0.0,
        "inference.observations": counters.get("observations", 0),
        "inference.unreachable": counters.get("unreachable", 0),
        "inference.zero_score_fallbacks": counters.get("zero_score_fallbacks", 0),
        "policy.solve_sweeps": counters.get("solve_sweeps", 0),
        "policy.horizon_ratio": (counters.get("horizon_stops", 0) / counters["verdicts"]
                                 if counters.get("verdicts") else 0.0),
    })
    tails = {}
    for prefix, samples in (("inference.observe_ms", observe_ms), ("policy.verdict_ms", verdict_ms)):
        metrics[f"{prefix}_p50"] = quantile(samples, 50.0) if samples else 0.0
        pct, value = tail(samples) if samples else (None, 0.0)
        metrics[f"{prefix}_tail"] = value
        tails[f"{prefix}_tail"] = {"percentile": pct, "samples": len(samples)}
    for metric, targets in COUNTER_TARGETS.items():
        if all(t in absent for t in targets):
            metrics.pop(metric, None)
    for metric in set(SPAN_METRIC.values()):
        if all(span in absent for span, m in SPAN_METRIC.items() if m == metric):
            metrics.pop(metric, None)
    return metrics, breakdown, tails, problems, sorted(absent)


def findings(workload: str, layers: dict) -> dict:
    """The layer split the ROADMAP predicts, reported as found."""
    detection = {m: layers.get(m, 0.0) for m in DETECTION_LAYERS}
    total = sum(detection.values()) or 1.0
    if workload == "tree":
        largest = max(detection, key=detection.get)
        return {"claim": "inference.score_s is the largest detection layer",
                "holds": largest == "inference.score_s", "largest": largest,
                "shares": {m: v / total for m, v in detection.items()}}
    share = (detection["graph.enum_s"] + detection["inference.context_s"]) / total
    return {"claim": "graph.enum_s + inference.context_s dominate detection",
            "holds": share > 0.5, "share": share}


# ---- host stamp -------------------------------------------------------------------


def host_state() -> dict:
    state = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
        state["steal_ticks"], state["total_ticks"] = ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return state


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def host_stamp(before: dict, after: dict, nproc: int, cpu: int) -> dict:
    stamp = {"nproc": nproc, "cpu_count": os.cpu_count(), "pinned_cpu": cpu,
             "python": platform.python_version(), "numpy": _version("numpy"),
             "scipy": _version("scipy"), "before": before, "after": after}
    steal_share = None
    if "total_ticks" in before and "total_ticks" in after:
        dt = after["total_ticks"] - before["total_ticks"]
        steal_share = (after["steal_ticks"] - before["steal_ticks"]) / dt if dt else 0.0
    stamp["steal_share"] = steal_share
    # one benchmark process keeps one core busy; more load than the cores, or
    # noticeable steal, means other work shared the host during the run
    stamp["busy_host"] = bool(before["loadavg"][0] > nproc or after["loadavg"][0] > nproc + 1
                              or (steal_share or 0.0) > 0.05)
    return stamp


# ---- reference digests ------------------------------------------------------------


def compare_reference(key: str, input_digests: dict, output_digests: dict) -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(key)
    except FileNotFoundError:
        reference = None
    if reference is None:
        return {"outputs_match": None, "note": f"no reference record for {key}"}
    if reference["inputs"] != input_digests:
        return {"outputs_match": None, "note": "inputs differ from the reference; not compared"}
    mismatched = sorted(
        label for label in set(reference["outputs"]) | set(output_digests)
        if reference["outputs"].get(label) != output_digests.get(label)
    )
    return {"outputs_match": not mismatched, "mismatched": mismatched}


def record_reference(key: str, input_digests: dict, output_digests: dict) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    reference[key] = {"inputs": input_digests, "outputs": output_digests}
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---- main -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's input and output digests in reference.json")
    return parser.parse_args(argv)


def measure(plan, inp: Path, work: Path, seed: int, seconds: float, trace: int) -> tuple:
    """Repeat the workload until the next repeat would end after ``seconds``."""
    start = time.perf_counter()
    repeats, traced = [], []
    while True:
        rep_start = time.perf_counter()
        n = len(repeats)
        repeats.append(run_repeat(plan, inp, work / f"rep{n}", seed, False))
        if trace:
            traced.append(run_repeat(plan, inp, work / f"rep{n}_traced", seed, True))
        now = time.perf_counter()
        if len(repeats) >= MIN_REPEATS[trace] and (now - start) + (now - rep_start) > seconds:
            return repeats, traced


def check_repeats(repeats: list, traced: list) -> dict:
    """Flag outputs that differ from the first repeat; return its digests."""
    first = {r.label: r.digests for r in repeats[0]}
    for run in (r for rep in repeats + traced for r in rep):
        if run.digests and run.digests != first.get(run.label):
            run.problems.append("outputs differ from the first repeat")
    return {f"{label}/{name}": digest for label, d in first.items() for name, digest in d.items()}


def end_to_end(repeats: list, detail: dict) -> dict:
    per_repeat = [e2e_repeat(rep) for rep in repeats]
    samples = {m: [rep[m] for rep in per_repeat] for m in per_repeat[0]}
    samples["setup_s"] = [r.scaled for rep in repeats for r in rep if r.command == "detect"]
    values = {m: statistics.median(v) for m, v in samples.items()}
    values.update(quality(repeats[0]))
    detail["end_to_end"] = {m: summary(v) for m, v in samples.items()}
    return {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in values.items()}


def per_layer(workload: str, repeats: list, traced: list, detail: dict) -> tuple:
    """(metrics, span problems) from the traced repeats."""
    layer_reps = [layer_repeat(t, u) for t, u in zip(traced, repeats)]
    problems = [p for rep in layer_reps for p in rep[3]]
    names = set.intersection(*(set(rep[0]) for rep in layer_reps))
    values = {m: statistics.median(rep[0][m] for rep in layer_reps) for m in sorted(names)}
    _, breakdown, tails, _, absent = layer_reps[0]
    detail.update({
        "span_problems": problems[:10], "absent_targets": absent, "tails": tails,
        "per_command": breakdown, "findings": findings(workload, values),
    })
    return {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in values.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cascaudit" / "cli.py").is_file():
        print(f"bench: no cascaudit package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    before = host_state()
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # see PROBE_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inp = work / "inputs"
    shape, input_digests = inputs.make_inputs(args.workload, args.seed, inp)

    # compile the package once so no repeat pays for writing bytecode
    warm = subprocess.run([sys.executable, "-c", "import cascaudit.cli"], cwd=ROOT, env=ENV,
                          capture_output=True, timeout=COMMAND_TIMEOUT_S)
    if warm.returncode != 0:
        print(warm.stderr.decode(errors="replace"), file=sys.stderr)
        return 2

    repeats, traced = measure(PLANS[args.workload], inp, work, args.seed, args.seconds,
                              args.trace)
    after = host_state()
    output_digests = check_repeats(repeats, traced)
    all_runs = [r for rep in repeats + traced for r in rep]
    failed = [r for r in all_runs if r.problems]
    key = f"{args.workload}/{args.seed}"
    if args.record and not failed:
        record_reference(key, input_digests, output_digests)

    walls, cpus, probes = {}, {}, {}
    for run in (r for rep in repeats for r in rep):
        walls.setdefault(run.label, []).append(run.wall)
        cpus.setdefault(run.label, []).append(run.cpu_s)
        probes.setdefault(run.label, []).append(run.probe_s)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "shape": shape, "host": host_stamp(before, after, nproc, cpu),
        "inputs_sha256": input_digests, "outputs_sha256": output_digests,
        **compare_reference(key, input_digests, output_digests),
        "checks": {"attempted": len(all_runs), "failed": len(failed),
                   "problems": [f"{r.label}: {p}" for r in failed for p in r.problems][:20],
                   "error_ratio": len(failed) / len(all_runs)},
        "repeats": len(repeats),
        "commands": {label: {"wall_s": summary(walls[label]), "cpu_s": summary(cpus[label]),
                             "probe_s": summary(probes[label])} for label in walls},
    }
    correct = not failed
    if args.trace:
        metrics, span_problems = per_layer(args.workload, repeats, traced, detail)
        correct = correct and not span_problems
    else:
        metrics = end_to_end(repeats, detail)
    if correct:
        shutil.rmtree(work)  # keep the logs of a failed run only
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(all_runs),
                      "failed": len(failed), "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
