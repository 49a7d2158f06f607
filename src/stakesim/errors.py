"""Exception hierarchy shared by every module.

Every error message names the offending record or field so that a failing
scenario can be fixed from the message alone.
"""

from __future__ import annotations


class StakesimError(Exception):
    """Base class for all domain errors raised by this package."""


class InvariantViolationError(StakesimError):
    """A record, or a value a call is given, breaks a structural invariant."""


class InvariantBreachError(StakesimError):
    """A runtime conservation or coverage invariant broke mid-run.

    Maps to CLI exit code 2. The run halts with a diagnostic rather than
    continuing on corrupted accounting.
    """


class ScenarioError(StakesimError):
    """A scenario document failed to parse or validate.

    Carries the JSON-path-like location of the offending field when known.
    """

    def __init__(self, message: str, *, path: str | None = None):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
