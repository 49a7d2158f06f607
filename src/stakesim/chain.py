"""Core chain-state types and the event timeline every other module reads.

Conventions used throughout the package:

* Time is a discrete integer tick; all windows are half-open [t0, t1).
* Monetary quantities (stake, transaction value, bribes, TVL) are exact
  rationals; see `rational.as_fraction`.
* Types are immutable after construction. Shared freely across analyses.
* Each window rung of the profit-from-corruption ladder (`PfcKind`) names
  the transactions it counts, and `gamma_value` sums them over a window.
  The rungs nest, so one count per transaction (`_rungs`, the one
  definition of rung membership) says which rungs count it: the first
  that many of `WINDOW_KINDS`. A timeline's window index is built from
  that count in one pass over its transactions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import InvariantViolationError
from .rational import as_fraction, exact_sum

Tick = int
EpochIndex = int

# Hard ceiling on timeline length; anything larger is a scenario bug.
MAX_HORIZON: Tick = 2**32


def epoch_of(tick: Tick, t_rev: int) -> EpochIndex:
    """Epoch index covering `tick`; epoch e spans [e*t_rev, (e+1)*t_rev)."""
    return tick // t_rev


def epoch_bounds(epoch: EpochIndex, t_rev: int) -> tuple[Tick, Tick]:
    return epoch * t_rev, (epoch + 1) * t_rev


@dataclass(frozen=True)
class TimingParams:
    """Protocol timing constants, all in ticks.

    t_fin: finality latency of a single block.
    t_rev: reversion period; also the insurance epoch length.
    t_ws:  weak-subjectivity horizon.
    t_cr:  maximum censorship delay for cross-chain header posts.
    slash_delay: ticks between a reveal and the slashing stake snapshot.
    """

    t_fin: int
    t_rev: int
    t_ws: int
    t_cr: int = 0
    slash_delay: int = 0

    def __post_init__(self):
        if self.t_fin < 1:
            raise InvariantViolationError(f"t_fin must be >= 1, got {self.t_fin}")
        if self.t_rev < 1:
            raise InvariantViolationError(f"t_rev must be >= 1, got {self.t_rev}")
        if self.t_cr < 0:
            raise InvariantViolationError(f"t_cr must be >= 0, got {self.t_cr}")
        if self.slash_delay < 0:
            raise InvariantViolationError(f"slash_delay must be >= 0, got {self.slash_delay}")
        if self.t_fin + self.t_rev > self.t_ws:
            raise InvariantViolationError(
                f"t_fin + t_rev must be <= t_ws, got {self.t_fin} + {self.t_rev} > {self.t_ws}"
            )


@dataclass(frozen=True)
class EconParams:
    """Economic constants of one analysis.

    stake_per_validator and n_validators describe the nominal validator set;
    reward is the per-validator honest payoff R for the attack game, and
    bribe_fail / bribe_success are the adversary's B1 / B2 offers.
    gamma is the slashed-stake share routed to insurance payouts (the
    remainder burns). adversary_threshold is the equivocation threshold and
    is fixed at 1/3 of total stake.
    """

    stake_per_validator: Fraction
    n_validators: int
    reward: Fraction = Fraction(0)
    bribe_fail: Fraction = Fraction(0)
    bribe_success: Fraction = Fraction(0)
    gamma: Fraction = Fraction(0)
    tvl: Fraction = Fraction(0)

    adversary_threshold = Fraction(1, 3)

    def __post_init__(self):
        for name in ("stake_per_validator", "reward", "bribe_fail", "bribe_success", "gamma", "tvl"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, as_fraction(value))
        if self.stake_per_validator.numerator <= 0:
            raise InvariantViolationError("stake_per_validator must be > 0")
        if self.n_validators < 1:
            raise InvariantViolationError("n_validators must be >= 1")
        if not 0 <= self.gamma.numerator <= self.gamma.denominator:
            raise InvariantViolationError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("reward", "bribe_fail", "bribe_success", "tvl"):
            if getattr(self, name).numerator < 0:
                raise InvariantViolationError(f"{name} must be >= 0")

    @property
    def s_tot(self) -> Fraction:
        """Total nominal stake securing the chain."""
        return self.stake_per_validator * self.n_validators


class TxKind(str, Enum):
    PURE = "pure"
    HYBRID = "hybrid"


class ConfirmationRule(str, Enum):
    """How a transactor treats a finalized transaction off-chain.

    IMMEDIATE: act as soon as the transaction finalizes (no protection).
    SECURE_RULE: wait out one full reversion period with no conflicting fork.
    BRIDGE_RULE: cross-chain variant; wait t_rev + t_cr past the header post.
    INSURED_IMMEDIATE: act immediately, backed by purchased insurance.
    """

    IMMEDIATE = "immediate"
    SECURE_RULE = "secure"
    BRIDGE_RULE = "bridge"
    INSURED_IMMEDIATE = "insured_immediate"


class PfcKind(str, Enum):
    """The profit-from-corruption bound ladder, loosest to tightest. A
    window rung bounds by the most one reversion window holds of the
    transactions it counts, a subset of those the rung before counts.

    STEAL_TVL: everything of value on the chain is up for grabs (no window).
    REORG_WINDOW: at most one reversion window's flow can be double-spent.
    REORG_HYBRID_WINDOW: only flow with an off-chain leg is irreversible.
    REORG_HYBRID_SECURE_RULE: flow waiting out the reversion window drops
        out; hybrid flow executed immediately, insured or not, remains.
    UNINSURED_LOAD: insured flow is made whole from slashed stake, so only
        uninsured immediate flow remains at risk.
    """

    STEAL_TVL = "steal_tvl"
    REORG_WINDOW = "reorg_window"
    REORG_HYBRID_WINDOW = "reorg_hybrid_window"
    REORG_HYBRID_SECURE_RULE = "reorg_hybrid_secure_rule"
    UNINSURED_LOAD = "uninsured_load"


# the rungs that bound a window, loosest to tightest
WINDOW_KINDS = tuple(PfcKind)[1:]


@dataclass(frozen=True)
class TransactionRecord:
    """One finalized transaction as seen by the settlement layer.

    Pure transactions have no off-chain leg: their rule is normalized to
    IMMEDIATE and any off-chain execution tick is dropped. Hybrid
    transactions trigger an irreversible off-chain action whose timing is
    governed by `rule`. Insured flow is covered in the epoch it finalizes
    in: the lots bought for that epoch back it.
    """

    id: str
    transactor: str
    value: Fraction
    kind: TxKind
    finalized_at: Tick
    rule: ConfirmationRule = ConfirmationRule.IMMEDIATE
    offchain_executed_at: Optional[Tick] = None

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", as_fraction(self.value))
        if type(self.kind) is not TxKind:
            object.__setattr__(self, "kind", TxKind(self.kind))
        if type(self.rule) is not ConfirmationRule:
            object.__setattr__(self, "rule", ConfirmationRule(self.rule))
        if self.value.numerator < 0:
            raise InvariantViolationError(f"transaction {self.id!r}: value must be >= 0")
        if self.finalized_at < 0:
            raise InvariantViolationError(f"transaction {self.id!r}: finalized_at < 0")
        if self.kind is TxKind.PURE:
            # no off-chain leg: rule is irrelevant, normalize
            object.__setattr__(self, "rule", ConfirmationRule.IMMEDIATE)
            object.__setattr__(self, "offchain_executed_at", None)
            return
        if self.offchain_executed_at is not None and self.offchain_executed_at < self.finalized_at:
            raise InvariantViolationError(
                f"transaction {self.id!r}: offchain_executed_at precedes finalized_at"
            )

    @property
    def insured(self) -> bool:
        """Whether this is insured immediate hybrid flow, the flow that bought
        coverage for its epoch."""
        return self.kind is TxKind.HYBRID and self.rule is ConfirmationRule.INSURED_IMMEDIATE


@dataclass(frozen=True)
class ValidatorState:
    """One validator's stake position.

    exit_tick is None while staked; an exited validator cannot be slashed at
    or after exit_tick. earmarked_fraction is the share of its stake pledged
    as insurance backing.
    """

    id: str
    stake: Fraction
    earmarked_fraction: Fraction = Fraction(0)
    exit_tick: Optional[Tick] = None

    def __post_init__(self):
        if type(self.stake) is not Fraction:
            object.__setattr__(self, "stake", as_fraction(self.stake))
        if type(self.earmarked_fraction) is not Fraction:
            object.__setattr__(self, "earmarked_fraction", as_fraction(self.earmarked_fraction))
        if self.stake.numerator <= 0:
            raise InvariantViolationError(f"validator {self.id!r}: stake must be > 0")
        if not 0 <= self.earmarked_fraction.numerator <= self.earmarked_fraction.denominator:
            raise InvariantViolationError(
                f"validator {self.id!r}: earmarked_fraction must lie in [0, 1]"
            )
        if self.exit_tick is not None and self.exit_tick < 0:
            raise InvariantViolationError(f"validator {self.id!r}: exit_tick < 0")

    def active_at(self, tick: Tick) -> bool:
        return self.exit_tick is None or tick < self.exit_tick


@dataclass(frozen=True)
class ForkRevealEvent:
    """A competing fork becoming visible to observers.

    diverges_from_block_finalized_at is the finalization tick of the common
    ancestor block (the fork builds on that block; everything strictly after
    it is contested). double_signer_stake is the summed stake of the signers
    and is cross-checked against the validator set by build_timeline.
    adversary_wins says whether the fork wins when its reveal falls in the
    ambiguous window; bridge_post_delay is the ticks from the reveal until
    the fork's header reaches a bridge client's chain.
    """

    id: str
    diverges_from_block_finalized_at: Tick
    revealed_at: Tick
    double_signers: frozenset[str] = frozenset()
    double_signer_stake: Fraction = Fraction(0)
    adversary_wins: bool = True
    bridge_post_delay: int = 0

    def __post_init__(self):
        if type(self.double_signers) is not frozenset:
            object.__setattr__(self, "double_signers", frozenset(self.double_signers))
        if type(self.double_signer_stake) is not Fraction:
            object.__setattr__(self, "double_signer_stake", as_fraction(self.double_signer_stake))
        if self.diverges_from_block_finalized_at < 0:
            raise InvariantViolationError(f"fork event {self.id!r}: divergence tick < 0")
        if self.revealed_at < self.diverges_from_block_finalized_at:
            raise InvariantViolationError(
                f"fork event {self.id!r}: revealed_at precedes the divergence tick"
            )
        if self.double_signer_stake.numerator < 0:
            raise InvariantViolationError(f"fork event {self.id!r}: negative signer stake")


class _WindowIndex(dict):
    """A timeline's index by window rung; the rung that bounds no window has none."""

    def __missing__(self, kind: PfcKind):
        raise InvariantViolationError(f"pfc kind {kind.value!r} bounds no window")


@dataclass(frozen=True)
class ChainTimeline:
    """Immutable, horizon-bounded record of everything one run observed."""

    horizon: Tick
    transactions: tuple[TransactionRecord, ...] = ()
    fork_events: tuple[ForkRevealEvent, ...] = ()
    validators: tuple[ValidatorState, ...] = ()

    @cached_property
    def _gamma_index(self) -> _WindowIndex:
        """Per window rung: the sorted finalization ticks of the
        transactions it counts, the prefix sums of their values as integers
        over one common denominator (one more entry than ticks), and that
        denominator, the lcm of the values' denominators. Built on first
        use and kept on this object only, outside the fields, so equality,
        hashing and `replace` ignore it. Sorts by tick itself: timelines
        need not come from build_timeline. One pass over the sorted
        transactions classifies each once (`_rungs`) and appends it to the
        rungs that count it. `gamma_value` queries the index, and
        `econ.window_sup` and `report._epoch_rows` sweep it directly."""
        counted = tuple([] for _ in WINDOW_KINDS)
        for tx in sorted(self.transactions, key=attrgetter("finalized_at")):
            for members in counted[: _rungs(tx)]:
                members.append(tx)
        index = _WindowIndex()
        for kind, members in zip(WINDOW_KINDS, counted):
            den = lcm(*(tx.value.denominator for tx in members))
            scaled = (tx.value.numerator * (den // tx.value.denominator) for tx in members)
            index[kind] = ([tx.finalized_at for tx in members], list(accumulate(scaled, initial=0)), den)
        return index


def _check_unique(kind: str, ids: Iterable[str]) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            raise InvariantViolationError(f"duplicate {kind} id {i!r}")
        seen.add(i)


def build_timeline(
    *,
    horizon: Tick,
    transactions: Sequence[TransactionRecord] = (),
    fork_events: Sequence[ForkRevealEvent] = (),
    validators: Sequence[ValidatorState] = (),
) -> ChainTimeline:
    """Validate, normalize and freeze a timeline.

    Sorts transactions by (finalized_at, id) and fork events by
    (revealed_at, id), rejects duplicate ids and out-of-horizon timestamps,
    and fills or cross-checks each fork event's double_signer_stake against
    the validator set. Idempotent: feeding a built timeline's fields back in
    yields an equal timeline.
    """
    if not 0 < horizon <= MAX_HORIZON:
        raise InvariantViolationError(f"horizon must lie in (0, {MAX_HORIZON}], got {horizon}")

    _check_unique("transaction", map(attrgetter("id"), transactions))
    _check_unique("fork event", map(attrgetter("id"), fork_events))
    _check_unique("validator", map(attrgetter("id"), validators))

    vmap = {v.id: v for v in validators}
    for v in validators:
        if v.exit_tick is not None and v.exit_tick > horizon:
            raise InvariantViolationError(f"validator {v.id!r}: exit_tick beyond horizon")

    for t in transactions:
        if t.finalized_at > horizon:
            raise InvariantViolationError(f"transaction {t.id!r}: finalized_at beyond horizon")
        if t.offchain_executed_at is not None and t.offchain_executed_at > horizon:
            raise InvariantViolationError(f"transaction {t.id!r}: offchain tick beyond horizon")

    checked_events = []
    for e in fork_events:
        if e.revealed_at > horizon:
            raise InvariantViolationError(f"fork event {e.id!r}: revealed_at beyond horizon")
        unknown = sorted(s for s in e.double_signers if s not in vmap)
        if unknown:
            raise InvariantViolationError(
                f"fork event {e.id!r}: unknown double signers {unknown}"
            )
        signed = exact_sum(vmap[s].stake for s in e.double_signers)
        if e.double_signers and e.double_signer_stake == 0:
            e = replace(e, double_signer_stake=signed)
        elif e.double_signer_stake != signed:
            raise InvariantViolationError(
                f"fork event {e.id!r}: double_signer_stake {e.double_signer_stake} "
                f"!= sum of signer stakes {signed}"
            )
        checked_events.append(e)

    return ChainTimeline(
        horizon=horizon,
        transactions=tuple(sorted(transactions, key=attrgetter("finalized_at", "id"))),
        fork_events=tuple(sorted(checked_events, key=attrgetter("revealed_at", "id"))),
        validators=tuple(sorted(validators, key=attrgetter("id"))),
    )


_WAITING_RULES = (ConfirmationRule.SECURE_RULE, ConfirmationRule.BRIDGE_RULE)

# The value of every window that holds no counted transaction.
_NO_VALUE = Fraction(0)


def _rungs(tx: TransactionRecord) -> int:
    """How many window rungs count `tx`: the window counts every
    transaction, the hybrid window only hybrid flow, the secure rule's rung
    only hybrid flow that does not wait out the reversion period, and the
    uninsured load only the uninsured part of that. The rungs nest, so
    those are the first that many of `WINDOW_KINDS`, loosest first."""
    if tx.kind is not TxKind.HYBRID:
        return 1
    if tx.rule in _WAITING_RULES:
        return 2
    return 3 if tx.insured else 4


def gamma_value(
    timeline: ChainTimeline,
    t0: Tick,
    t1: Tick,
    kind: PfcKind = PfcKind.REORG_WINDOW,
) -> Fraction:
    """Total value of the transactions finalized in [t0, t1) that window
    rung `kind` counts: two binary searches into the timeline's integer
    prefix sums, and one integer subtraction over their common denominator
    only when the window holds a counted transaction."""
    if t0 >= t1:
        raise InvariantViolationError(f"empty interval [{t0}, {t1})")
    ticks, prefix, den = timeline._gamma_index[kind]
    lo, hi = bisect_left(ticks, t0), bisect_left(ticks, t1)
    if lo == hi:
        return _NO_VALUE
    return Fraction(prefix[hi] - prefix[lo], den)
