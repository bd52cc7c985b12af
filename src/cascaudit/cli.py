"""Command-line pipeline: simulate, train, detect, eval, thresholds.

Exit codes: 0 success, 2 usage or parse failure, 3 degenerate data,
4 unconverged threshold solver.  Every command is deterministic given its
flags and ``--seed``: all randomness derives from that one seed by counters,
and outputs are byte-stable across reruns.

``simulate``, ``eval`` and the Monte Carlo risk (:func:`risk_estimate`) share
one evaluation path: :func:`simulate_corpus` draws a labeled corpus,
:func:`detect_corpus` runs the detector on each trace, and
:func:`count_errors` turns the results into the report and the risk terms.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from cascaudit.errors import (
    CascauditError,
    DegenerateDataError,
    EstimationError,
    ModelError,
    TraceError,
)
from cascaudit.graph import PathEnumConfig, load_graph
from cascaudit.inference import BeliefState, ChainTables, write_trajectory
from cascaudit.markov import (
    FAKE,
    GENUINE,
    MAX_CLASSES,
    GrowthConfig,
    SpreadModel,
    load_model,
    read_stream,
    read_traces,
    reference_model,
    sample_trace,
    save_model,
    subsample,
    write_traces,
)
from cascaudit.policy import (
    ConvergencePolicy,
    CostSpec,
    DecisionOutcome,
    DpThresholdPolicy,
    SprtConfig,
    SprtPolicy,
    ThresholdTable,
    bayes_verdict,
    run_detection,
    single_step_outcomes,
    solve_thresholds,
)
from cascaudit.rng import derive_rng, derive_seed

if TYPE_CHECKING:
    from cascaudit.offline import (
        TrainingConfig,
        TrainingCorpus,
        build_spread_model,
        classify_graph_edges,
        estimate_alpha,
        estimate_eta,
        train_classifier,
    )

# Only ``train`` uses cascaudit.offline, so no other command imports it: these
# names are bound into this module on first use, by ``cmd_train`` or by an
# attribute lookup, and stay replaceable here like the names imported above.
_OFFLINE_NAMES = ("TrainingConfig", "TrainingCorpus", "build_spread_model",
                  "classify_graph_edges", "estimate_alpha", "estimate_eta", "train_classifier")


def _bind_offline() -> None:
    """Bind the names of :data:`_OFFLINE_NAMES` that are not bound yet."""
    from cascaudit import offline

    namespace = globals()
    for name in _OFFLINE_NAMES:
        namespace.setdefault(name, getattr(offline, name))


def __getattr__(name: str):
    if name in _OFFLINE_NAMES:
        _bind_offline()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_UNCONVERGED = 4

TRACE_ID_STRIDE = 1_000_000  # keeps node ids of simulated cascades disjoint


def _err(message: str) -> None:
    print(f"cascaudit: error: {message}", file=sys.stderr)


def _load_model_arg(args) -> tuple:
    if getattr(args, "model", None):
        return load_model(args.model)
    prior = getattr(args, "prior", None)
    return reference_model(prior_fake=0.5 if prior is None else prior), None


def _costs(args) -> CostSpec:
    return CostSpec(false_alarm=args.ci, miss=args.cii, per_step=args.c)


def _enum_cfg(args) -> PathEnumConfig:
    return PathEnumConfig(max_path_length=args.max_path_len, max_paths=args.max_paths)


def _make_policy(args, model: SpreadModel, costs: CostSpec):
    """Build the stopping policy; returns (policy, exit_code_or_None)."""
    if args.policy == "convergence":
        threshold = args.decision_threshold
        if threshold is None:
            threshold = costs.decision_ratio
        return ConvergencePolicy(epsilon=args.epsilon, threshold=threshold), None
    if args.policy == "sprt":
        cfg = SprtConfig.from_error_targets(args.wald_p, args.wald_q)
        return SprtPolicy(cfg, costs), None
    if args.threshold_table:
        table = ThresholdTable.load(args.threshold_table)
    else:
        table = solve_thresholds(costs, single_step_outcomes(model))
        if not table.converged:
            _err("threshold solver did not converge; rerun thresholds with more sweeps")
            return None, EXIT_UNCONVERGED
    return DpThresholdPolicy(table), None


# ---- the evaluation path: detection over a corpus, its errors and its risk --------


def simulate_corpus(model: SpreadModel, n: int, seed: int, growth: GrowthConfig,
                    label=None) -> list:
    """``n`` synthetic cascades of ``model``.  Each label is ``label``, or else
    drawn from the model's prior; trace ``i`` grows from seed
    ``derive_seed(seed, i, 1)`` with node ids from ``i * TRACE_ID_STRIDE``."""
    draws = derive_rng(seed, 0).random(n)
    return [
        sample_trace(
            None,
            model,
            label if label is not None else int(draws[i] < model.prior_fake),
            derive_seed(seed, i, 1),
            dataclasses.replace(growth, id_base=i * TRACE_ID_STRIDE),
        )
        for i in range(n)
    ]


class TraceResult(NamedTuple):
    """One trace's detection: its label, the stopping decision, and the belief
    at the stopping step."""

    label: int
    outcome: DecisionOutcome
    belief: BeliefState


def detect_corpus(model: SpreadModel, traces, policy, rho: float, seed: int, graph=None,
                  cfg: PathEnumConfig = PathEnumConfig(), on_unreachable: str = "skip",
                  prior=None) -> list:
    """One :class:`TraceResult` per trace.  Trace ``i`` is subsampled to keep
    ``rho`` of its events with seed ``derive_seed(seed, i, 2)`` and detected
    on ``graph``, or on its own implied graph when ``graph`` is None; every
    run shares one set of chain tables."""
    tables = ChainTables(model)
    results = []
    for index, trace in enumerate(traces):
        stream = subsample(trace, rho, derive_seed(seed, index, 2))
        outcome, belief = run_detection(
            model, graph if graph is not None else trace.implied_graph(), stream, policy,
            cfg=cfg, on_unreachable=on_unreachable, prior=prior, tables=tables,
        )
        results.append(TraceResult(trace.label, outcome, belief))
    return results


def count_errors(results) -> dict:
    """Error rates and detection times of labeled results: the metrics of
    ``report.json``, from which the risk is also built."""
    n = len(results)
    n_fake = sum(1 for r in results if r.label == FAKE)
    n_genuine = n - n_fake
    fp = sum(1 for r in results if r.label == GENUINE and r.outcome.verdict == 1)
    fn = sum(1 for r in results if r.label == FAKE and r.outcome.verdict == 0)
    steps_fake = sum(r.outcome.step for r in results if r.label == FAKE)
    steps_genuine = sum(r.outcome.step for r in results if r.label == GENUINE)
    per_rule = {}
    for r in results:
        per_rule[r.outcome.rule] = per_rule.get(r.outcome.rule, 0) + 1
    return {
        "accuracy": 1.0 - (fp + fn) / n,
        "fp": fp / n_genuine if n_genuine else 0.0,
        "fn": fn / n_fake if n_fake else 0.0,
        "mean_detection_events": (steps_fake + steps_genuine) / n,
        "mean_events_fake": steps_fake / n_fake if n_fake else None,
        "mean_events_genuine": steps_genuine / n_genuine if n_genuine else None,
        "per_rule": per_rule,
        "n": n,
        "n_fake": n_fake,
        "n_genuine": n_genuine,
    }


class RiskReport(NamedTuple):
    """Empirical risk decomposition with binomial standard errors."""

    risk: float
    pe_false_alarm: float       # P(verdict fake | genuine)
    pe_miss: float              # P(verdict genuine | fake)
    se_false_alarm: float
    se_miss: float
    mean_steps_fake: float      # E[steps * 1{fake}] over all traces
    n_genuine: int
    n_fake: int


def summarize_risk(count: dict, costs: CostSpec, prior: float) -> RiskReport:
    """The evaluation objective from an error count of :func:`count_errors`:

    risk = false_alarm * (1 - prior) * fp + miss * prior * fn
         + per_step * prior * mean_events_fake
    """
    pe_fa, pe_miss = count["fp"], count["fn"]
    n0, n1 = count["n_genuine"], count["n_fake"]
    mean_steps_fake = prior * count["mean_events_fake"] if n1 else 0.0
    return RiskReport(
        risk=(
            costs.false_alarm * (1.0 - prior) * pe_fa
            + costs.miss * prior * pe_miss
            + costs.per_step * mean_steps_fake
        ),
        pe_false_alarm=pe_fa,
        pe_miss=pe_miss,
        se_false_alarm=math.sqrt(pe_fa * (1 - pe_fa) / n0) if n0 else 0.0,
        se_miss=math.sqrt(pe_miss * (1 - pe_miss) / n1) if n1 else 0.0,
        mean_steps_fake=mean_steps_fake,
        n_genuine=n0,
        n_fake=n1,
    )


def risk_estimate(policy, model: SpreadModel, n_traces: int, seed: int, costs: CostSpec,
                  growth: GrowthConfig = GrowthConfig()) -> tuple:
    """Monte Carlo estimate of the sequential risk for ``policy``.

    Simulates a labeled corpus from the model's prior mixture as ``simulate``
    does, detects on each fully observed trace over its implied graph, with a
    path bound of ``growth.max_events`` edges so that no event of a trace is
    out of reach, and returns ``(RiskReport, list[TraceResult])``.
    """
    if n_traces < 1:
        raise ModelError("n_traces must be >= 1")
    results = detect_corpus(model, simulate_corpus(model, n_traces, seed, growth), policy,
                            1.0, seed, cfg=PathEnumConfig(max_path_length=growth.max_events))
    return summarize_risk(count_errors(results), costs, model.prior_fake), results


# ---- simulate ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    model, _ = _load_model_arg(args)
    growth = GrowthConfig(
        max_events=args.max_events,
        mean_children=args.mean_children,
        max_children=args.max_children,
        min_children=args.min_children,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = simulate_corpus(model, args.n, args.seed, growth, args.label)
    write_traces(traces, out_dir / "traces.jsonl")
    union = {}
    for trace in traces:
        for ev in trace.events:
            union[ev.edge] = True
    with open(out_dir / "graph.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for u, v in sorted(union):
            fh.write(f"{u}\t{v}\n")
    print(f"wrote {len(traces)} traces to {out_dir / 'traces.jsonl'}")
    return EXIT_OK


# ---- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    _bind_offline()
    traces = read_traces(args.traces)
    if not traces:
        raise DegenerateDataError("corpus is empty")
    graph = None
    if args.graph:
        graph = load_graph(args.graph, args.features)
    corpus = TrainingCorpus(traces=tuple(traces), graph=graph)
    if not corpus.has_both_labels():
        raise DegenerateDataError("training needs both genuine and fake traces")

    classes = {ev.cls for trace in traces for ev in trace.events}
    have_recorded = None not in classes
    if have_recorded and not classes <= set(range(args.zclasses)):
        bad = min(classes - set(range(args.zclasses)))
        raise TraceError(f"event class {bad} is outside 0..{args.zclasses - 1} (--zclasses)")
    classifier = None
    class_map = None
    if graph is not None and args.features:
        classifier = train_classifier(
            corpus,
            TrainingConfig(
                seed=args.seed,
                epochs=args.epochs,
                learning_rate=args.learning_rate,
                l2=args.l2,
                standardize=args.standardize,
            ),
        )
        classifier = classifier._replace(num_classes=args.zclasses)
        if not have_recorded:  # the classifier's classes serve only unclassified corpora
            class_map = classify_graph_edges(classifier, graph)

    if not have_recorded and class_map is None:
        raise DegenerateDataError(
            "traces carry no edge classes and no featured graph was given to train a classifier"
        )

    labels = [t.label for t in traces]
    prior = sum(1 for lab in labels if lab == FAKE) / len(labels)
    eta = estimate_eta(corpus, args.zclasses, edge_classes=class_map, smoothing=args.smoothing)
    alpha = estimate_alpha(corpus, args.zclasses, edge_classes=class_map, smoothing=args.smoothing)
    model = build_spread_model(eta, alpha, prior_fake=prior)
    save_model(model, args.out, classifier=classifier.to_dict() if classifier else None)
    print(f"wrote model to {args.out} (prior_fake={prior!r})")
    return EXIT_OK


# ---- detect -----------------------------------------------------------------------


def cmd_detect(args) -> int:
    model, _ = _load_model_arg(args)
    graph = load_graph(args.graph)
    stream = read_stream(args.stream)
    if len(stream) == 0:
        _err("observation stream is empty")
        return EXIT_USAGE
    costs = _costs(args)
    policy, code = _make_policy(args, model, costs)
    if policy is None:
        return code
    outcome, belief = run_detection(
        model,
        graph,
        stream,
        policy,
        cfg=_enum_cfg(args),
        on_unreachable=args.on_unreachable,
        prior=args.prior,
    )
    trajectory_path = None
    if args.out:
        trajectory_path = str(args.out)
        write_trajectory(belief, args.out)
    record = {
        "T": outcome.step,
        "verdict": outcome.verdict,
        "rule_used": outcome.rule,
        "final_posterior": belief.posterior,
        "trajectory_csv": trajectory_path,
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


# ---- eval -------------------------------------------------------------------------


def cmd_eval(args) -> int:
    model, _ = _load_model_arg(args)
    traces = read_traces(args.traces)
    if not traces:
        raise DegenerateDataError("corpus is empty")
    if any(t.label not in (GENUINE, FAKE) for t in traces):
        raise DegenerateDataError("evaluation needs labeled traces")
    shared_graph = load_graph(args.graph) if args.graph else None
    costs = _costs(args)
    policy, code = _make_policy(args, model, costs)
    if policy is None:
        return code

    results = detect_corpus(
        model, traces, policy, args.rho, args.seed, graph=shared_graph, cfg=_enum_cfg(args),
        on_unreachable=args.on_unreachable, prior=args.prior,
    )
    report = {**count_errors(results), "seed": args.seed, "rho": args.rho, "policy": args.policy}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "per_trace.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,label,verdict,steps,rule,final_posterior\n")
        for index, result in enumerate(results):
            outcome = result.outcome
            fh.write(
                f"{index},{result.label},{outcome.verdict},{outcome.step},"
                f"{outcome.rule},{result.belief.posterior!r}\n"
            )
    _write_accuracy_curve(results, costs, out_dir / "accuracy_curve.csv")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _write_accuracy_curve(results, costs, path) -> None:
    """Accuracy of a forced decision after l events, for l = 1..max steps.

    Traces that already stopped keep their verdict; still-running traces
    decide with the cost-optimal verdict at their current posterior.
    """
    horizon = max(result.outcome.step for result in results)
    trajectories = [result.belief.trajectory() for result in results]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("events,accuracy\n")
        for ell in range(1, horizon + 1):
            correct = 0
            for result, trajectory in zip(results, trajectories):
                if result.outcome.step <= ell:
                    verdict = result.outcome.verdict
                else:
                    verdict = bayes_verdict(trajectory[ell], costs)
                correct += verdict == result.label
            fh.write(f"{ell},{correct / len(results)!r}\n")


# ---- thresholds -------------------------------------------------------------------


def cmd_thresholds(args) -> int:
    model, _ = _load_model_arg(args)
    costs = _costs(args)
    table = solve_thresholds(
        costs,
        single_step_outcomes(model),
        grid_step=args.grid_step,
        max_sweeps=args.max_sweeps,
        tol=args.tol,
    )
    if args.out:
        table.save(args.out)
    print(
        f"pi_low={table.pi_low!r} pi_up={table.pi_up!r} "
        f"converged={str(table.converged).lower()} sweeps={table.sweeps}"
    )
    if not table.converged:
        _err(f"solver unconverged after {table.sweeps} sweeps; partial table written")
        return EXIT_UNCONVERGED
    return EXIT_OK


# ---- parser -----------------------------------------------------------------------


def _add_policy_flags(sub) -> None:
    sub.add_argument("--policy", choices=["dp", "sprt", "convergence"], default="convergence")
    sub.add_argument("--ci", type=float, default=10.0, help="type-I (false alarm) cost")
    sub.add_argument("--cii", type=float, default=10.0, help="type-II (miss) cost")
    sub.add_argument("--c", type=float, default=0.05, help="per-step propagation cost")
    sub.add_argument("--epsilon", type=float, default=0.001, help="convergence tolerance")
    sub.add_argument("--decision-threshold", type=float, default=None,
                     help="posterior threshold for the convergence verdict "
                          "(default: cost ratio)")
    sub.add_argument("--wald-p", type=float, default=0.05, help="SPRT false-alarm target")
    sub.add_argument("--wald-q", type=float, default=0.05, help="SPRT miss target")
    sub.add_argument("--threshold-table", default=None,
                     help="CSV table from the thresholds command (dp policy)")
    sub.add_argument("--max-path-len", type=int, default=8)
    sub.add_argument("--max-paths", type=int, default=512, help="candidate-path cap; binds "
                     "only on cyclic graphs and in fallbacks (acyclic graphs are exact)")
    sub.add_argument("--on-unreachable", choices=["skip", "fail"], default="skip")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascaudit",
        description="Sequential fake-news detection from partially observed cascades.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="generate labeled synthetic cascades")
    sim.add_argument("--model", default=None, help="model JSON (default: built-in reference)")
    sim.add_argument("--n", type=int, default=100, help="number of traces")
    sim.add_argument("--label", type=int, choices=[0, 1], default=None,
                     help="force every trace to this label")
    sim.add_argument("--prior", type=float, default=0.5)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--max-events", type=int, default=200)
    sim.add_argument("--mean-children", type=float, default=1.6)
    sim.add_argument("--max-children", type=int, default=6)
    sim.add_argument("--min-children", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    train = commands.add_parser("train", help="estimate a model from labeled traces")
    train.add_argument("--traces", required=True, help="trace JSONL corpus")
    train.add_argument("--graph", default=None, help="edge-list TSV")
    train.add_argument("--features", default=None, help="node-feature TSV")
    train.add_argument("--zclasses", type=int, default=4,
                       help=f"number of edge classes, 2..{MAX_CLASSES}")
    train.add_argument("--seed", type=int, required=True)
    train.add_argument("--epochs", type=int, default=50)
    train.add_argument("--learning-rate", type=float, default=0.01)
    train.add_argument("--l2", type=float, default=1e-4)
    train.add_argument("--standardize", action="store_true")
    train.add_argument("--smoothing", action="store_true")
    train.add_argument("--out", required=True, help="output model JSON")
    train.set_defaults(func=cmd_train)

    detect = commands.add_parser("detect", help="classify one observation stream")
    detect.add_argument("--model", default=None)
    detect.add_argument("--graph", required=True)
    detect.add_argument("--stream", required=True, help="observation-stream JSON")
    detect.add_argument("--prior", type=float, default=None)
    detect.add_argument("--out", default=None, help="trajectory CSV path")
    _add_policy_flags(detect)
    detect.set_defaults(func=cmd_detect)

    ev = commands.add_parser("eval", help="evaluate detection over a labeled corpus")
    ev.add_argument("--model", default=None)
    ev.add_argument("--traces", required=True)
    ev.add_argument("--graph", default=None,
                    help="shared edge-list TSV (default: per-trace implied graphs)")
    ev.add_argument("--rho", type=float, default=0.5, help="observation keep fraction")
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--prior", type=float, default=None)
    ev.add_argument("--out", required=True, help="output directory")
    _add_policy_flags(ev)
    ev.set_defaults(func=cmd_eval)

    thr = commands.add_parser("thresholds", help="solve the stopping-threshold table")
    thr.add_argument("--model", default=None)
    thr.add_argument("--ci", type=float, default=10.0)
    thr.add_argument("--cii", type=float, default=10.0)
    thr.add_argument("--c", type=float, default=0.05)
    thr.add_argument("--grid-step", type=float, default=0.001)
    thr.add_argument("--tol", type=float, default=1e-7)
    thr.add_argument("--max-sweeps", type=int, default=10_000)
    thr.add_argument("--prior", type=float, default=0.5)
    thr.add_argument("--out", default=None, help="output CSV path")
    thr.set_defaults(func=cmd_thresholds)

    return parser


# (flag, test, requirement) per checked flag; a flag a command lacks is skipped
_FLAG_RULES = (
    ("seed", lambda v: v >= 0, ">= 0"),
    ("n", lambda v: v >= 0, ">= 0"),
    ("zclasses", lambda v: v >= 2, ">= 2"),
    ("zclasses", lambda v: v <= MAX_CLASSES, f"<= {MAX_CLASSES}"),
    ("epochs", lambda v: v >= 1, ">= 1"),
    ("learning_rate", lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    ("l2", lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
)


def _check_flags(args) -> None:
    """Reject a flag value that would fail late or write nonsense: a negative
    ``--seed`` or ``--n``, which numpy refuses with a traceback; a
    ``--zclasses`` outside ``2..MAX_CLASSES``, whose count tables are
    allocated first; and ``train`` settings that leave the classifier
    untrained or its weights not finite."""
    for flag, test, requirement in _FLAG_RULES:
        value = getattr(args, flag, None)
        if value is not None and not test(value):
            raise CascauditError(f"--{flag.replace('_', '-')} must be {requirement}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (DegenerateDataError, EstimationError) as exc:
        _err(str(exc))
        return EXIT_DEGENERATE
    except (CascauditError, OSError, json.JSONDecodeError) as exc:
        _err(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
