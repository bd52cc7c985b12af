"""Exception hierarchy shared across the package, the one text reader that
turns undecodable input into one of its errors, and the one log call."""

import sys

INFO, WARNING = 20, 30  # the levels of :mod:`logging`, named without importing it


class CascauditError(Exception):
    """Base class for all package-specific errors."""


class GraphError(CascauditError):
    """Invalid graph construction or query (duplicate node, self loop, ...)."""


class ModelError(CascauditError):
    """Spread-model parameters violate their invariants."""


class TraceError(CascauditError):
    """Malformed cascade trace or an impossible simulation request."""


class UnreachableObservationError(CascauditError):
    """An observed edge has no directed source path within the search bounds."""

    def __init__(self, edge, max_path_length):
        self.edge = edge
        self.max_path_length = max_path_length
        super().__init__(
            f"no source path to edge {edge!r} within {max_path_length} edges"
        )


class InvalidEvidenceError(CascauditError):
    """An observation has zero probability under both hypotheses."""


class DegenerateDataError(CascauditError):
    """Training/evaluation input cannot support the requested computation."""


class EstimationError(CascauditError):
    """Parameter estimation has an empty denominator for some label."""


def read_text(path, error: type) -> str:
    """The UTF-8 text of ``path``, with newlines translated as text mode does.

    Bytes that are not UTF-8 raise ``error``, naming the file, in place of a
    bare :class:`UnicodeDecodeError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def log(name: str, level: int, msg: str, *args) -> None:
    """Emit ``msg % args`` at ``level`` on ``logging.getLogger(name)``, and
    import :mod:`logging` only for a record that can be seen.

    Until :mod:`logging` is imported no handler or level can have been set,
    and the default root level, WARNING, drops every lower record; so such a
    record is dropped here without the import.
    """
    if level < WARNING and "logging" not in sys.modules:
        return
    import logging

    logging.getLogger(name).log(level, msg, *args, stacklevel=2)
