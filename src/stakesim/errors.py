"""Exception hierarchy shared by every module.

Every error message names the offending record or field so that a failing
scenario can be fixed from the message alone.
"""

from __future__ import annotations


class StakesimError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateIdError(StakesimError):
    """Two records in the same collection share an id."""


class TimestampOutOfRangeError(StakesimError):
    """A tick is negative or beyond the timeline horizon."""


class InvariantViolationError(StakesimError):
    """A record violates one of its structural invariants."""


class EmptyIntervalError(StakesimError):
    """A half-open interval [t0, t1) was requested with t0 >= t1."""


class NotHybridError(StakesimError):
    """A confirmation rule was asked to decide a non-hybrid transaction."""


class UnknownTransactorError(StakesimError):
    """A transactor id is not known to the insurance ledger."""


class SettleOnUnslashableError(StakesimError):
    """Slash settlement was requested for a non-slashable resolution."""


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
