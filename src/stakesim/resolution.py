"""Classification of fork reveals and what each class makes slashable.

A reveal is timed relative to T0, the finalization tick of the common
ancestor block the competing fork builds on. Four regimes, half-open:

    [T0,                 T0 + t_fin)          PRE_FINALITY
    [T0 + t_fin,         T0 + t_fin + t_rev)  AMBIGUOUS_WINDOW
    [T0 + t_fin + t_rev, T0 + t_ws)           SOCIALLY_RESOLVED
    [T0 + t_ws,          infinity)            LONG_RANGE

Double-sign evidence is punishable exactly in the middle two regimes. In the
ambiguous window the canonical fork is genuinely undetermined (the adversary
may win); once socially resolved, the first fork stays canonical. A
long-range fork is rejected outright and its signers, having exited, are
beyond slashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .chain import ForkRevealEvent, TimingParams, ValidatorState
from .errors import InvariantViolationError
from .rational import exact_sum


class RevealClass(str, Enum):
    PRE_FINALITY = "pre_finality"
    AMBIGUOUS_WINDOW = "ambiguous_window"
    SOCIALLY_RESOLVED = "socially_resolved"
    LONG_RANGE = "long_range"


SLASHABLE_CLASSES = (RevealClass.AMBIGUOUS_WINDOW, RevealClass.SOCIALLY_RESOLVED)


def classify_reveal(ev: ForkRevealEvent, tp: TimingParams) -> RevealClass:
    """Which regime the reveal lands in, per the interval table above."""
    offset = ev.revealed_at - ev.diverges_from_block_finalized_at
    if offset < tp.t_fin:
        return RevealClass.PRE_FINALITY
    if offset < tp.t_fin + tp.t_rev:
        return RevealClass.AMBIGUOUS_WINDOW
    if offset < tp.t_ws:
        return RevealClass.SOCIALLY_RESOLVED
    return RevealClass.LONG_RANGE


@dataclass(frozen=True)
class ResolutionOutcome:
    """What the protocol concludes from one reveal: who is slashed, and for
    how much.

    `slashed` maps each double signer still staked when the slashing
    snapshot is taken to the stake it loses, in id order; it is empty for an
    unslashable reveal. canonical_is_first_fork is True once social
    consensus keeps the original fork (SOCIALLY_RESOLVED, LONG_RANGE) and
    None while the outcome is genuinely open (PRE_FINALITY,
    AMBIGUOUS_WINDOW).
    """

    event_id: str
    reveal_class: RevealClass
    slashed: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "slashed", MappingProxyType(dict(sorted(self.slashed.items()))))
        if not self.slashable and self.slashed:
            raise InvariantViolationError(
                f"outcome for {self.event_id!r}: stake attached to unslashable reveal"
            )

    @property
    def slashable(self) -> bool:
        return self.reveal_class in SLASHABLE_CLASSES

    @cached_property
    def slashable_stake(self) -> Fraction:
        """The stake `slashed` takes in all, summed once per outcome."""
        return exact_sum(self.slashed.values())

    @property
    def canonical_is_first_fork(self) -> Optional[bool]:
        if self.reveal_class in (RevealClass.SOCIALLY_RESOLVED, RevealClass.LONG_RANGE):
            return True
        return None


def resolve(
    ev: ForkRevealEvent,
    tp: TimingParams,
    validators: Sequence[ValidatorState],
) -> ResolutionOutcome:
    """Resolve one reveal against the validator set.

    The slashing snapshot is taken at revealed_at + slash_delay; a double
    signer who exited at or before that tick loses nothing.
    """
    cls = classify_reveal(ev, tp)
    slashed = {}
    if cls in SLASHABLE_CLASSES:
        snapshot = ev.revealed_at + tp.slash_delay
        slashed = {
            v.id: v.stake
            for v in validators
            if v.id in ev.double_signers and v.active_at(snapshot)
        }
    return ResolutionOutcome(event_id=ev.id, reveal_class=cls, slashed=slashed)
