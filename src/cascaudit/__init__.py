"""Sequential fake-news detection from partially observed retweet cascades.

The package follows one pipeline:

* ``graph``     -- the social graph and bounded source-to-edge path enumeration
* ``markov``    -- edge-type chain parameters, cascade simulator, subsampling
* ``inference`` -- exact Bayesian posterior over the fake/genuine hypothesis
* ``policy``    -- stopping rules: DP thresholds, SPRT, convergence
* ``offline``   -- training: edge classifier and parameter estimation
* ``cli``       -- command-line pipeline (simulate / train / detect / eval /
  thresholds) and the evaluation path that ``simulate`` and ``eval`` share
"""

from cascaudit.errors import (
    CascauditError,
    DegenerateDataError,
    EstimationError,
    GraphError,
    InvalidEvidenceError,
    ModelError,
    TraceError,
    UnreachableObservationError,
)

__version__ = "0.1.0"

__all__ = [
    "CascauditError",
    "DegenerateDataError",
    "EstimationError",
    "GraphError",
    "InvalidEvidenceError",
    "ModelError",
    "TraceError",
    "UnreachableObservationError",
    "__version__",
]
