"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`ArcadeError` so CLI
and test code can map failures to exit codes without string matching.
"""

import functools
import inspect


class ArcadeError(Exception):
    """Base class for all library errors."""


class ConfigError(ArcadeError):
    """Invalid configuration: bad partition, unknown family, grid mismatch."""


class DomainError(ArcadeError):
    """A time or probability argument lies outside its admissible range."""


class DegenerateError(ArcadeError):
    """An operation hit a zero-variance state where its formula is undefined."""


class NumericError(ArcadeError):
    """A numerical routine failed to converge or produced non-finite output."""


class InfeasibleError(ArcadeError):
    """A transport problem has an empty feasible set.

    Carries an optional human-readable witness (e.g. the violated call-function
    inequality) in :attr:`witness`.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class UnboundedError(ArcadeError):
    """A linear program is unbounded below."""


_signature = functools.cache(inspect.signature)


def call_preset(kind: str, factories: dict, name: str, params: dict):
    """``factories[name](**params)``; an unknown name or parameter is a ``ConfigError``."""
    if name not in factories:
        raise ConfigError(f"unknown {kind} preset {name!r}")
    try:
        _signature(factories[name]).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"{kind} preset {name!r}: {exc}") from None
    return factories[name](**params)


def check_keys(doc: dict, known, context: str) -> None:
    """Reject a key of the JSON object ``doc`` that is not in ``known``: a
    misspelled key must not silently drop what it asked for."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {context}; known: {sorted(known)}")
