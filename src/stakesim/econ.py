"""Corruption economics: attack-game payoffs, cost and profit bounds.

The attack game is played by one validator choosing to stay honest or take
the adversary's bribe, against two outcomes (attack fails / succeeds):

    token toxicity            honest      bribed
        attack fails          S + R       S + B1
        attack succeeds       0           B2

    slashing                  honest      bribed
        attack fails          S + R       B1
        attack succeeds       S           B2

Token toxicity prices a successful attack at a collapsed token (the honest
column loses everything); slashing burns the bribed validator's stake even
when the attack fails.

Cost of corruption and profit from corruption are both exact rationals.
Corruption profit is bounded by what fits inside one reversion window; each
window rung of the ladder (`chain.PfcKind`) counts fewer transactions than
the one before it. See `pfc_ladder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .chain import (
    ChainTimeline,
    EconParams,
    EpochIndex,
    PfcKind,
    Tick,
    TimingParams,
    TransactionRecord,
    WINDOW_KINDS,
    epoch_of,
    gamma_value,
)
from .errors import InvariantViolationError
from .insurance import coverage_check


class Mechanism(str, Enum):
    TOKEN_TOXICITY = "token_toxicity"
    SLASHING = "slashing"


class ValidatorChoice(str, Enum):
    HONEST = "honest"
    BRIBED = "bribed"


class AttackOutcome(str, Enum):
    FAILED = "failed"
    SUCCEEDED = "succeeded"


def payoff(mech: Mechanism, choice: ValidatorChoice, outcome: AttackOutcome, ep: EconParams) -> Fraction:
    """One cell of the attack-game payoff matrix."""
    s, r = ep.stake_per_validator, ep.reward
    b1, b2 = ep.bribe_fail, ep.bribe_success
    if mech is Mechanism.TOKEN_TOXICITY:
        if choice is ValidatorChoice.HONEST:
            return s + r if outcome is AttackOutcome.FAILED else Fraction(0)
        return s + b1 if outcome is AttackOutcome.FAILED else b2
    if choice is ValidatorChoice.HONEST:
        return s + r if outcome is AttackOutcome.FAILED else s
    return b1 if outcome is AttackOutcome.FAILED else b2


def bribe_is_dominant(mech: Mechanism, ep: EconParams) -> bool:
    """True iff taking the bribe strictly beats honesty in both outcomes."""
    return all(
        payoff(mech, ValidatorChoice.BRIBED, o, ep) > payoff(mech, ValidatorChoice.HONEST, o, ep)
        for o in AttackOutcome
    )


def cost_of_corruption(mech: Mechanism, ep: EconParams) -> Fraction:
    """What an attack destroys for the adversary, per mechanism.

    Token toxicity costs nothing in the limit: bribes of B1 > R and any
    B2 > 0 make bribery dominant, and the success bribe needs only be an
    epsilon since bribed validators are never slashed. Slashing destroys the
    equivocation threshold's worth of stake.
    """
    if mech is Mechanism.TOKEN_TOXICITY:
        return Fraction(0)
    return ep.adversary_threshold * ep.s_tot


@dataclass(frozen=True)
class PfcBound:
    kind: PfcKind
    value: Fraction
    witness_window_start: Optional[Tick] = None


def window_sup(
    timeline: ChainTimeline,
    t_rev: int,
    kind: PfcKind = PfcKind.REORG_WINDOW,
) -> PfcBound:
    """Window bound `kind`: the largest value of the transactions it counts
    in any [t, t + t_rev).

    Candidate starts {0} union {finalized_at of each record} suffice: a
    maximizing window shifted right until its earliest record sits at the
    start keeps every record it had. One sweep walks the candidates in
    order with two indices into the counted ticks, `lo` (first tick >= t)
    and `hi` (first tick >= t + t_rev), and compares the timeline's integer
    prefix sums; only a strictly larger total replaces the best, so the
    witness is the smallest maximizing candidate. Its exact value is one
    `gamma_value` call. An empty selection has value 0 and no witness.
    """
    if t_rev < 1:
        raise InvariantViolationError(f"window length must be >= 1, got {t_rev}")
    index = timeline._gamma_index
    ticks, prefix, _ = index[kind]
    # every record's tick, sorted; a repeated start repeats its total
    starts = index[PfcKind.REORG_WINDOW][0]
    n = len(ticks)
    lo = hi = 0
    best, witness = 0, None
    for t in [0, *starts]:
        while lo < n and ticks[lo] < t:
            lo += 1
        end = t + t_rev
        while hi < n and ticks[hi] < end:
            hi += 1
        total = prefix[hi] - prefix[lo]
        if total > best:
            best, witness = total, t
    if witness is None:
        return PfcBound(kind=kind, value=Fraction(0))
    value = gamma_value(timeline, witness, witness + t_rev, kind)
    return PfcBound(kind=kind, value=value, witness_window_start=witness)


def pfc_ladder(timeline: ChainTimeline, tp: TimingParams, ep: EconParams) -> tuple[PfcBound, ...]:
    """All five bounds, loosest to tightest; the window bounds never increase."""
    return (PfcBound(PfcKind.STEAL_TVL, ep.tvl), *(window_sup(timeline, tp.t_rev, kind) for kind in WINDOW_KINDS))


@dataclass(frozen=True)
class SafetyVerdict:
    """Safety of one timeline against one profit bound.

    cryptoeconomically_safe: destroying the attack costs strictly more than
        the bound says it can yield.
    strong_safety: additionally, no honest transactor can end up net losing
        funds: every hybrid transaction either waits out the reversion
        window or is covered by verified insurance, and the burn share of a
        maximal slash strictly exceeds the worst uninsured load.
    """

    coc: Fraction
    pfc: PfcBound
    strong_safety: bool
    uninsured_buffer_ok: bool

    @property
    def bound_kind(self) -> PfcKind:
        return self.pfc.kind

    @property
    def cryptoeconomically_safe(self) -> bool:
        return self.coc > self.pfc.value


def strong_safety_flags(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    ladder: Sequence[PfcBound],
    coverage: Mapping[EpochIndex, Mapping[str, Fraction]],
) -> tuple[bool, bool, frozenset[EpochIndex]]:
    """(strong_safety, uninsured_buffer_ok, uncovered epochs) of a timeline
    against a coverage map, by covering epoch and then buyer.

    Each transactor-epoch of insured immediate flow goes through
    `coverage_check`; an epoch is uncovered if any of its groups fails.
    Strong safety also needs no plain immediate hybrid flow and the burn
    share of a maximal slash strictly above the uninsured load bound.
    """
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    uninsured = next(b for b in ladder if b.kind is PfcKind.UNINSURED_LOAD)
    buffer_ok = (1 - ep.gamma) * coc > uninsured.value
    groups: dict[tuple[str, EpochIndex], list[TransactionRecord]] = {}
    for tx in timeline.transactions:
        if tx.insured:
            groups.setdefault((tx.transactor, epoch_of(tx.finalized_at, tp.t_rev)), []).append(tx)
    uncovered = frozenset(
        e
        for (tr, e), txs in groups.items()
        if not coverage_check(tr, e, txs, coverage.get(e, {}).get(tr, Fraction(0)), tp.t_rev)
    )
    # the uninsured-load rung counts exactly the plain immediate hybrid flow
    immediate = bool(timeline._gamma_index[PfcKind.UNINSURED_LOAD][0])
    return buffer_ok and not immediate and not uncovered, buffer_ok, uncovered


def safety_verdict(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    coverage: Mapping[EpochIndex, Mapping[str, Fraction]],
    bound_kind: PfcKind,
) -> SafetyVerdict:
    """Judge one timeline against the chosen profit bound, with insured
    flow covered by `coverage`, a coverage map by covering epoch and then
    buyer (`{}` when nothing is covered)."""
    ladder = pfc_ladder(timeline, tp, ep)
    bound = next(b for b in ladder if b.kind is bound_kind)
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    strong, buffer_ok, _ = strong_safety_flags(timeline, tp, ep, ladder, coverage)
    return SafetyVerdict(coc, bound, strong, buffer_ok)
