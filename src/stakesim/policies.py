"""Scripted behaviors: what the adversary does, how transactors confirm."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .chain import ConfirmationRule, EconParams, EpochIndex, Tick
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
    mechanism: str = "slashing"

    def __post_init__(self):
        object.__setattr__(self, "kind", StrategyKind(self.kind))
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
            if self.mechanism not in ("slashing", "token_toxicity"):
                raise InvariantViolationError(f"bribery_probe: unknown mechanism {self.mechanism!r}")


class PolicyKind(str, Enum):
    """How a transactor treats its own hybrid flow.

    ALWAYS_SECURE: wait out the reversion window, always.
    INSURED_FAST_UX: act immediately when purchased coverage allows it,
        falling back to the secure rule when it does not.
    UNINSURED_FREERIDER: act immediately, hope someone else pays for safety.
    BRIDGE_CLIENT: remote observer; wait t_rev + t_cr past the header post.
    """

    ALWAYS_SECURE = "always_secure"
    INSURED_FAST_UX = "insured_fast_ux"
    UNINSURED_FREERIDER = "uninsured_freerider"
    BRIDGE_CLIENT = "bridge_client"


_POLICY_DEFAULT_RULE = {
    PolicyKind.ALWAYS_SECURE: ConfirmationRule.SECURE_RULE,
    PolicyKind.INSURED_FAST_UX: ConfirmationRule.INSURED_IMMEDIATE,
    PolicyKind.UNINSURED_FREERIDER: ConfirmationRule.IMMEDIATE,
    PolicyKind.BRIDGE_CLIENT: ConfirmationRule.BRIDGE_RULE,
}


def default_rule(policy: PolicyKind) -> ConfirmationRule:
    return _POLICY_DEFAULT_RULE[policy]
