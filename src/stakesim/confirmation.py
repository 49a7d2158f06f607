"""Client-side confirmation rules for hybrid transactions.

The secure rule waits out one full reversion window after finalization: if
no fork contesting an ancestor of the transaction is revealed during
[finalized_at, finalized_at + t_rev), any later contest is already socially
resolved in the first fork's favor, so acting at finalized_at + t_rev is
unconditionally safe.

The bridge variant watches a remote chain through posted headers and cannot
see reveals directly, only conflicting header posts, which an adversary can
censor for up to t_cr ticks. Waiting t_rev alone is therefore NOT safe; the
rule waits t_rev + t_cr past the header post so that every censored
conflicting post still lands inside the watch window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

from .chain import ChainTimeline, ConfirmationRule, Tick, TimingParams, TransactionRecord, TxKind
from .errors import InvariantViolationError


class DecisionStatus(str, Enum):
    CONFIRMED = "confirmed"
    WAITING = "waiting"
    INVALIDATED = "invalidated"


@dataclass(frozen=True)
class ConfirmationDecision:
    rule: ConfirmationRule
    status: DecisionStatus
    earliest_offchain_tick: Optional[Tick] = None


def contests(tx_finalized_at: Tick, diverges_from: Tick) -> bool:
    """Conservative ancestry test: a fork diverging at or before the
    transaction's finalization tick could contest it."""
    return diverges_from <= tx_finalized_at


def decide_secure(
    tx: TransactionRecord,
    timeline: ChainTimeline,
    tp: TimingParams,
    *,
    window_start: Optional[Tick] = None,
) -> ConfirmationDecision:
    """Secure rule: confirm at window_start + t_rev iff no contesting fork
    is revealed inside [window_start, window_start + t_rev).

    window_start defaults to the transaction's finalization tick; a caller
    re-checking after an attack passes a later start.
    """
    if tx.kind is not TxKind.HYBRID:
        raise InvariantViolationError(f"transaction {tx.id!r} has no off-chain leg to confirm")
    start = tx.finalized_at if window_start is None else window_start
    end = start + tp.t_rev
    for ev in timeline.fork_events:
        if start <= ev.revealed_at < end and contests(tx.finalized_at, ev.diverges_from_block_finalized_at):
            return ConfirmationDecision(
                rule=ConfirmationRule.SECURE_RULE,
                status=DecisionStatus.WAITING,
                earliest_offchain_tick=None,
            )
    return ConfirmationDecision(
        rule=ConfirmationRule.SECURE_RULE,
        status=DecisionStatus.CONFIRMED,
        earliest_offchain_tick=end,
    )


def decide_bridge(
    header_posted_at: Tick,
    conflicting_posts: Iterable[Tick],
    tp: TimingParams,
) -> ConfirmationDecision:
    """Bridge rule: confirm at header_posted_at + t_rev + t_cr iff no
    conflicting header is posted inside that whole window."""
    end = header_posted_at + tp.t_rev + tp.t_cr
    if any(header_posted_at <= p < end for p in conflicting_posts):
        return ConfirmationDecision(
            rule=ConfirmationRule.BRIDGE_RULE,
            status=DecisionStatus.INVALIDATED,
            earliest_offchain_tick=None,
        )
    return ConfirmationDecision(
        rule=ConfirmationRule.BRIDGE_RULE,
        status=DecisionStatus.CONFIRMED,
        earliest_offchain_tick=end,
    )


def decide_bridge_naive(
    header_posted_at: Tick,
    conflicting_posts: Iterable[Tick],
    tp: TimingParams,
) -> ConfirmationDecision:
    """The tempting-but-wrong bridge rule that waits only t_rev.

    Kept as an explicit foil: with t_cr > 0 an adversary can censor the
    conflicting post past this window, so this rule confirms headers that
    later revert. Tests demonstrate the failure; never use for real flow.
    """
    return decide_bridge(header_posted_at, conflicting_posts, replace(tp, t_cr=0))
