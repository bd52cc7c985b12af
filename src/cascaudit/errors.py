"""Exception hierarchy shared across the package, the base of its validated
records, the one text reader that turns undecodable input into one of its
errors, and the one log call."""

import sys

INFO, WARNING = 20, 30  # the levels of :mod:`logging`, named without importing it


class Record:
    """Base of the validated records: immutable objects whose ``__init__``
    checks its arguments and then writes them to the instance ``__dict__``.

    ``_fields`` names the constructor's parameters in order.  Equality, hash
    and repr use the fields of ``_compare``, which defaults to ``_fields``.
    A changed copy is ``record._replace(**changes)``, which validates again,
    the same idiom as the value-only ``NamedTuple`` records.  Assignment and
    deletion raise :class:`AttributeError`.
    """

    _fields = ()

    def __init_subclass__(cls):
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compare)
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        values = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**values, **changes})


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
    import :mod:`logging` only where it is already loaded.

    Until :mod:`logging` is imported no handler or level can have been set,
    so the default root level, WARNING, drops every lower record, and
    ``logging.lastResort`` writes every other one to stderr as its message
    and a newline; those are the bytes written here without the import.
    """
    if "logging" in sys.modules:
        import logging

        logging.getLogger(name).log(level, msg, *args, stacklevel=2)
    elif level >= WARNING:
        sys.stderr.write(f"{msg % args if args else msg}\n")
        sys.stderr.flush()
