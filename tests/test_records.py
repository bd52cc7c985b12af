"""The validated records: signatures, checks, immutability, equality and
``_replace``, the same for every class."""

import pickle

import numpy as np
import pytest

from cascaudit.errors import GraphError, ModelError, TraceError
from cascaudit.graph import PathEnumConfig, PathEnumeration, Prefix
from cascaudit.inference import BeliefState
from cascaudit.markov import (
    GrowthConfig,
    Observation,
    ObservationStream,
    SpreadModel,
    Trace,
    TraceEvent,
    reference_model,
)
from cascaudit.policy import CostSpec, DecisionOutcome, ThresholdTable

MODEL = reference_model()
TRACE = Trace(1, 0, (TraceEvent((0, 1), 2),))
GRID = np.array([0.0, 0.5, 1.0])
VALUES = np.array([0.0, 1.0, 0.0])

# class: (required arguments in positional order, defaults in positional
# order, invalid changes with the exception each raises, one valid change)
RECORDS = {
    PathEnumConfig: ({}, {"max_path_length": 8, "max_paths": 512},
                     [({"max_path_length": 0}, GraphError), ({"max_paths": 0}, GraphError)],
                     {"max_paths": 9}),
    PathEnumeration: ({"prefixes": (Prefix((0, 1), ((0, 1),)),), "target_edge": (1, 2)},
                      {"truncated": False}, [], {"truncated": True}),
    BeliefState: ({"prior": 0.5},
                  {"log_lr": 0.0, "step": 0, "a_genuine": None, "a_fake": None, "previous": None},
                  [({"prior": 1.5}, ModelError), ({"prior": -0.1}, ModelError)],
                  {"log_lr": 0.25}),
    SpreadModel: ({"num_classes": 4, "initial_probs": MODEL.initial_probs,
                       "transition_probs": MODEL.transition_probs}, {"prior_fake": 0.5},
                      [({"num_classes": 1}, ModelError),
                       ({"initial_probs": MODEL.initial_probs * 2}, ModelError)],
                      {"prior_fake": 0.25}),
    Trace: ({"label": 1, "source": 0, "events": TRACE.events}, {}, [], {"label": 0}),
    ObservationStream: ({"source": 0, "observations": (Observation(0, 1, 2),)}, {}, [],
                        {"source": 5}),
    GrowthConfig: ({}, {"max_events": 200, "mean_children": 1.6, "max_children": 6,
                        "min_children": 0, "id_base": 0},
                   [({"max_events": 0}, TraceError), ({"mean_children": float("inf")}, TraceError),
                    ({"min_children": 7}, TraceError)],
                   {"id_base": 1000}),
    CostSpec: ({}, {"false_alarm": 10.0, "miss": 10.0, "per_step": 0.05},
               [({"miss": float("nan")}, ModelError), ({"per_step": -1.0}, ModelError),
                ({"false_alarm": 0.0, "miss": 0.0}, ModelError)],
               {"miss": 3.0}),
    DecisionOutcome: ({"step": 2, "verdict": 1, "rule": "sprt"}, {},
                      [({"step": 0}, ModelError), ({"verdict": 2}, ModelError),
                       ({"rule": "vote"}, ModelError)],
                      {"rule": "horizon"}),
    ThresholdTable: ({"grid": GRID, "values": VALUES, "pi_low": 0.2, "pi_up": 0.8,
                      "costs": CostSpec(), "converged": True, "sweeps": 3}, {},
                     [({"values": VALUES[:2]}, ModelError), ({"pi_low": 0.9}, ModelError),
                      ({"values": -VALUES - 1}, ModelError)],
                     {"sweeps": 4}),
}
# records holding arrays hash and compare their fields as the tuple would
UNHASHABLE = {SpreadModel, ThresholdTable}
CASES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def _record(cls):
    return cls(**RECORDS[cls][0])


@CASES
def test_positional_and_keyword_construction_with_defaults(cls):
    required, defaults, _, _ = RECORDS[cls]
    record = cls(**required)
    assert cls(*required.values()) == record
    assert cls(*required.values(), *defaults.values()) == record
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) is value or getattr(record, name) == value


@CASES
def test_invalid_fields_raise_on_construction_and_on_replace(cls):
    required, _, invalid, _ = RECORDS[cls]
    record = cls(**required)
    for changes, error in invalid:
        with pytest.raises(error):
            cls(**{**required, **changes})
        with pytest.raises(error):
            record._replace(**changes)


@CASES
def test_assignment_and_deletion_raise(cls):
    record = _record(cls)
    required, defaults, _, change = RECORDS[cls]
    for name in {**required, **defaults, **change}:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.new_field = 1


@CASES
def test_equality_hash_and_replace(cls):
    record = _record(cls)
    change = RECORDS[cls][3]
    same, other = record._replace(), record._replace(**change)
    assert same == record and same is not record
    assert other != record and record != tuple(vars(record).values())
    for name, value in change.items():
        assert getattr(other, name) == value
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(same) == hash(record)
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_repr_names_each_compared_field():
    assert repr(DecisionOutcome(2, 1, "sprt")) == "DecisionOutcome(step=2, verdict=1, rule='sprt')"


def test_previous_takes_no_part_in_comparison():
    prior = BeliefState(0.5)
    linked = BeliefState(0.5, 0.25, 1, 0.4, 0.6, previous=prior)
    unlinked = linked._replace(previous=None)
    assert linked == unlinked and hash(linked) == hash(unlinked)
    assert linked._replace().previous is prior
