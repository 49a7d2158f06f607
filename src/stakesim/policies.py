"""Scripted behaviors: what the adversary does."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .chain import EconParams, EpochIndex, Tick
from .econ import Mechanism
from .errors import InvariantViolationError
from .insurance import PURCHASE_LEAD_EPOCHS
from .rational import as_fraction


class StrategyKind(str, Enum):
    NONE = "none"
    DOUBLE_SIGN_AT = "double_sign_at"
    LONG_RANGE_AT = "long_range_at"
    GRIEVING_BUYOUT = "grieving_buyout"
    BRIBERY_PROBE = "bribery_probe"


@dataclass(frozen=True)
class AdversaryStrategy:
    """One scripted adversary. Which fields matter depends on `kind`.

    DOUBLE_SIGN_AT: reveal a double-signed fork at `tick`, diverging from
        the block finalized at `target_t0`, signed by validators holding
        `stake_fraction` of total stake (must exceed 1/3).
    LONG_RANGE_AT: reveal a fork at `tick` against an ancient block
        (`target_t0`, default 0) signed by the already-exited `exited_set`.
    GRIEVING_BUYOUT: bid for the entire available coverage every epoch at
        `premium_rate`, then double-sign inside `attack_epoch`'s ambiguous
        window with every controlled validator.
    BRIBERY_PROBE: evaluate whether bribes (bribe_fail, bribe_success) make
        defection dominant under `mechanism`; run the scripted double-sign
        only if they do, and log the evaluation either way.
    """

    kind: StrategyKind = StrategyKind.NONE
    tick: Optional[Tick] = None
    target_t0: Tick = 0
    stake_fraction: Optional[Fraction] = None
    exited_set: frozenset[str] = frozenset()
    premium_rate: Optional[Fraction] = None
    attack_epoch: EpochIndex = 2
    bribe_fail: Optional[Fraction] = None
    bribe_success: Optional[Fraction] = None
    mechanism: Mechanism = Mechanism.SLASHING

    def __post_init__(self):
        object.__setattr__(self, "kind", StrategyKind(self.kind))
        object.__setattr__(self, "mechanism", Mechanism(self.mechanism))
        object.__setattr__(self, "exited_set", frozenset(self.exited_set))
        for name in ("stake_fraction", "premium_rate", "bribe_fail", "bribe_success"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_fraction(v))
        k = self.kind
        if k in (StrategyKind.DOUBLE_SIGN_AT, StrategyKind.LONG_RANGE_AT, StrategyKind.BRIBERY_PROBE):
            if self.tick is None:
                raise InvariantViolationError(f"strategy {k.value}: tick is required")
        if k in (StrategyKind.DOUBLE_SIGN_AT, StrategyKind.BRIBERY_PROBE):
            f = self.stake_fraction
            if f is None or not EconParams.adversary_threshold < f <= 1:
                raise InvariantViolationError(
                    f"strategy {k.value}: stake_fraction must lie in (1/3, 1]"
                )
        if k is StrategyKind.GRIEVING_BUYOUT:
            if self.premium_rate is None or self.premium_rate < 0:
                raise InvariantViolationError("grieving_buyout: premium_rate must be >= 0")
            if self.attack_epoch < PURCHASE_LEAD_EPOCHS:
                raise InvariantViolationError(
                    f"grieving_buyout: attack_epoch must be >= {PURCHASE_LEAD_EPOCHS} "
                    "(coverage cannot start earlier)"
                )
        if k is StrategyKind.BRIBERY_PROBE:
            if self.bribe_fail is None or self.bribe_success is None:
                raise InvariantViolationError("bribery_probe: both bribe values are required")
