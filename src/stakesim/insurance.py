"""Stake-backed transaction insurance.

Validators earmark a fraction of their stake as insurance backing. Each
epoch (one reversion period long) the available backing is auctioned off:
a purchase placed at epoch e covers transactions finalizing in epoch e + 2,
so the purchase itself is irreversibly settled before its coverage starts.
Backing stays locked until the covering window plus one more epoch has
passed with no double-sign reveal, at which point the lot releases and the
stake returns to the pool.

When a double-sign does resolve, the slashed stake settles the damage: a
gamma share funds claims to insured transactors harmed by the reverted
fork (capped by what each bought), and the remainder burns. Conservation is
exact: paid + burned = slashed, always. Burning the remainder is what makes
pure griefing unprofitable: an adversary who buys out the insurance and then
attacks itself still loses the burned share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EconParams,
    EpochIndex,
    TimingParams,
    TransactionRecord,
    TxKind,
    epoch_bounds,
    epoch_of,
)
from .errors import (
    InvariantViolationError,
    NegativeAvailableError,
    SettleOnUnslashableError,
    UnknownTransactorError,
)
from .rational import as_fraction
from .resolution import SLASHABLE_CLASSES, ForkRevealEvent, ResolutionOutcome, classify_reveal

# A purchase at epoch e covers epoch e + 2: one full epoch of gap makes the
# purchase itself irreversible before coverage starts.
PURCHASE_LEAD_EPOCHS = 2
# A lot covering epoch c releases at c + 2 if its watch window stayed quiet.
RELEASE_LAG_EPOCHS = 2


@dataclass(frozen=True)
class InsuranceBid:
    transactor: str
    epoch_placed: EpochIndex
    coverage_requested: Fraction
    premium_rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coverage_requested", as_fraction(self.coverage_requested))
        object.__setattr__(self, "premium_rate", as_fraction(self.premium_rate))
        if self.epoch_placed < 0:
            raise InvariantViolationError(f"bid by {self.transactor!r}: epoch_placed < 0")
        if self.coverage_requested <= 0:
            raise InvariantViolationError(f"bid by {self.transactor!r}: coverage must be > 0")
        if self.premium_rate < 0:
            raise InvariantViolationError(f"bid by {self.transactor!r}: premium_rate < 0")


class LotState(str, Enum):
    PENDING = "pending"
    ACTIVE_COVERAGE = "active_coverage"
    RELEASED = "released"
    PAID_OUT = "paid_out"


_LOT_TRANSITIONS = {
    LotState.PENDING: {LotState.ACTIVE_COVERAGE},
    LotState.ACTIVE_COVERAGE: {LotState.RELEASED, LotState.PAID_OUT},
    LotState.RELEASED: set(),
    LotState.PAID_OUT: set(),
}


@dataclass
class InsuranceLot:
    """One allocated slice of coverage.

    backing maps validator id to the exact amount of its earmarked stake
    locked behind this lot; when non-empty it sums to `coverage`. Lots sold
    by a ledger always carry backing; the standalone auction helper may
    produce backing-free lots for purely analytical use.
    """

    id: str
    buyer: str
    coverage: Fraction
    premium_rate: Fraction
    premium_paid: Fraction
    epoch_placed: EpochIndex
    covering_epoch: EpochIndex
    state: LotState = LotState.PENDING
    backing: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.covering_epoch != self.epoch_placed + PURCHASE_LEAD_EPOCHS:
            raise InvariantViolationError(
                f"lot {self.id!r}: covering_epoch must be epoch_placed + {PURCHASE_LEAD_EPOCHS}"
            )
        if self.coverage <= 0:
            raise InvariantViolationError(f"lot {self.id!r}: coverage must be > 0")
        if self.backing and sum(self.backing.values()) != self.coverage:
            raise InvariantViolationError(f"lot {self.id!r}: backing does not sum to coverage")

    def transition(self, new: LotState) -> None:
        if new not in _LOT_TRANSITIONS[self.state]:
            raise InvariantViolationError(
                f"lot {self.id!r}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new


def purchase_window_check(purchase, target_epoch: EpochIndex) -> bool:
    """True iff a purchase placed at its epoch covers `target_epoch`."""
    return purchase.epoch_placed + PURCHASE_LEAD_EPOCHS == target_epoch


def run_auction(
    bids: Sequence[InsuranceBid],
    available: Fraction,
    earmark: Optional[Mapping[str, Fraction]] = None,
    *,
    start_seq: int = 0,
) -> list[InsuranceLot]:
    """Sell up to `available` coverage to the highest premium rates.

    Greedy by premium_rate descending, ties broken by lexicographic
    transactor id (then submission order); the marginal bid fills partially.
    When `earmark` weights are given, each lot's backing is assigned
    pro-rata across them; sellers with zero weight get nothing.
    """
    available = as_fraction(available)
    if available < 0:
        raise NegativeAvailableError(f"available backing is negative: {available}")
    epochs = {b.epoch_placed for b in bids}
    if len(epochs) > 1:
        raise InvariantViolationError(f"auction mixes placement epochs {sorted(epochs)}")

    weights = {v: w for v, w in (earmark or {}).items() if w > 0}
    total_weight = sum(weights.values(), Fraction(0))

    order = sorted(
        range(len(bids)), key=lambda i: (-bids[i].premium_rate, bids[i].transactor, i)
    )
    lots: list[InsuranceLot] = []
    remaining = available
    seq = start_seq
    for i in order:
        if remaining <= 0:
            break
        bid = bids[i]
        allocated = min(bid.coverage_requested, remaining)
        remaining -= allocated
        backing: dict[str, Fraction] = {}
        if total_weight > 0:
            backing = {v: allocated * w / total_weight for v, w in sorted(weights.items())}
        lots.append(
            InsuranceLot(
                id=f"lot-e{bid.epoch_placed}-{seq}",
                buyer=bid.transactor,
                coverage=allocated,
                premium_rate=bid.premium_rate,
                premium_paid=allocated * bid.premium_rate,
                epoch_placed=bid.epoch_placed,
                covering_epoch=bid.epoch_placed + PURCHASE_LEAD_EPOCHS,
                backing=backing,
            )
        )
        seq += 1
    return lots


class InsuranceLedger:
    """Mutable per-run accounting of earmarks, lots, premiums and claims.

    Single-owner: the simulation engine (or a test) drives it from one
    thread; the chain timeline it references stays immutable.
    """

    def __init__(
        self,
        timeline: ChainTimeline,
        tp: TimingParams,
        ep: EconParams,
        transactors: Optional[Iterable[str]] = None,
    ):
        self.timeline = timeline
        self.tp = tp
        self.ep = ep
        if transactors is None:
            transactors = {t.transactor for t in timeline.transactions}
        self.transactors = frozenset(transactors)
        self.earmark_free: dict[str, Fraction] = {
            v.id: v.earmarked_fraction * v.stake for v in timeline.validators
        }
        self.slashed_amounts: dict[str, Fraction] = {}
        self.lots: list[InsuranceLot] = []
        self.premiums_paid: dict[str, Fraction] = {}
        self.premiums_earned: dict[str, Fraction] = {}
        self.settlements: list[SettlementRecord] = []
        self._lot_seq = 0

    # -- pool -------------------------------------------------------------

    def pool_free(self) -> Fraction:
        return sum(self.earmark_free.values(), Fraction(0))

    def available(self, epoch: EpochIndex) -> Fraction:
        """Backing sellable at `epoch`: the free pool, capped at gamma/3 of
        total stake so one slash can always fund every active claim."""
        cap = self.ep.gamma * self.ep.s_tot / 3
        return min(self.pool_free(), cap)

    # -- purchase pipeline --------------------------------------------------

    def sell(self, epoch: EpochIndex, bids: Sequence[InsuranceBid]) -> list[InsuranceLot]:
        for b in bids:
            if b.transactor not in self.transactors:
                raise UnknownTransactorError(f"bid from unknown transactor {b.transactor!r}")
            if b.epoch_placed != epoch:
                raise InvariantViolationError(
                    f"bid by {b.transactor!r} placed at {b.epoch_placed}, auctioned at {epoch}"
                )
        lots = run_auction(
            bids, self.available(epoch), self.earmark_free, start_seq=self._lot_seq
        )
        self._lot_seq += len(lots)
        for lot in lots:
            for v, amount in lot.backing.items():
                self.earmark_free[v] -= amount
            self.premiums_paid[lot.buyer] = (
                self.premiums_paid.get(lot.buyer, Fraction(0)) + lot.premium_paid
            )
            self.lots.append(lot)
        return lots

    def activate(self, covering_epoch: EpochIndex) -> None:
        for lot in self.lots:
            if lot.covering_epoch == covering_epoch and lot.state is LotState.PENDING:
                lot.transition(LotState.ACTIVE_COVERAGE)

    def u(self, transactor: str, covering_epoch: EpochIndex) -> Fraction:
        """Total coverage `transactor` bought for `covering_epoch`."""
        if transactor not in self.transactors:
            raise UnknownTransactorError(f"unknown transactor {transactor!r}")
        return sum(
            (
                lot.coverage
                for lot in self.lots
                if lot.buyer == transactor and lot.covering_epoch == covering_epoch
            ),
            Fraction(0),
        )

    # -- stake motion -------------------------------------------------------

    def _credit_premium(self, lot: InsuranceLot) -> None:
        if not lot.backing or lot.coverage == 0:
            return
        for v, amount in sorted(lot.backing.items()):
            share = lot.premium_paid * amount / lot.coverage
            self.premiums_earned[v] = self.premiums_earned.get(v, Fraction(0)) + share

    def _window_blockers(self, covering_epoch: EpochIndex) -> list[ForkRevealEvent]:
        """Slashable reveals inside the lot's watch window (the covering
        epoch and the one after it)."""
        start, _ = epoch_bounds(covering_epoch, self.tp.t_rev)
        _, end = epoch_bounds(covering_epoch + 1, self.tp.t_rev)
        return [
            ev
            for ev in self.timeline.fork_events
            if start <= ev.revealed_at < end
            and classify_reveal(ev, self.tp) in SLASHABLE_CLASSES
        ]

    def _release(self, covering_epoch: EpochIndex, excused: AbstractSet[str]) -> list[InsuranceLot]:
        """Release the active lots covering `covering_epoch` if every
        slashable reveal in their watch window is in `excused`.

        Released backing re-enters the pool and the premium pays out to the
        backers.
        """
        lots = [
            lot
            for lot in self.lots
            if lot.covering_epoch == covering_epoch and lot.state is LotState.ACTIVE_COVERAGE
        ]
        if not lots or any(ev.id not in excused for ev in self._window_blockers(covering_epoch)):
            return []
        for lot in lots:
            lot.transition(LotState.RELEASED)
            # a slashed validator's backing is gone; it never re-enters the pool
            for v, amount in lot.backing.items():
                if v not in self.slashed_amounts:
                    self.earmark_free[v] += amount
            self._credit_premium(lot)
        return lots

    def release_after_settlement(self, covering_epoch: EpochIndex) -> list[InsuranceLot]:
        """Release lots whose watch window only saw already-settled attacks.

        Used once the scenario declares the attack over; unclaimed coverage
        unlocks and its backing (minus slashed validators') returns.
        """
        return self._release(covering_epoch, {s.event_id for s in self.settlements})


def release_lots(epoch_now: EpochIndex, ledger: InsuranceLedger) -> list[InsuranceLot]:
    """Release every lot two epochs past its covering window, if quiet.

    A lot covering epoch c releases at epoch c + 2 provided no slashable
    fork reveal landed anywhere in [start of c, end of c + 1). Released
    backing re-enters the pool and the premium pays out to the backers.
    """
    covering = epoch_now - RELEASE_LAG_EPOCHS
    if covering < 0:
        return []
    return ledger._release(covering, frozenset())


def coverage_check(
    transactor: str,
    epoch: EpochIndex,
    executed: Sequence[TransactionRecord],
    ledger: InsuranceLedger,
) -> bool:
    """Insured-execution safety condition for one transactor-epoch.

    True iff the total value already executed immediately this epoch stays
    strictly below the coverage bought for it. Strict: executing exactly up
    to the purchased amount is already unsafe.
    """
    if transactor not in ledger.transactors:
        raise UnknownTransactorError(f"unknown transactor {transactor!r}")
    for tx in executed:
        if tx.transactor != transactor:
            raise InvariantViolationError(f"transaction {tx.id!r} belongs to {tx.transactor!r}")
        if tx.kind is not TxKind.HYBRID or tx.rule is not ConfirmationRule.INSURED_IMMEDIATE:
            raise InvariantViolationError(f"transaction {tx.id!r} is not insured hybrid flow")
        if epoch_of(tx.finalized_at, ledger.tp.t_rev) != epoch:
            raise InvariantViolationError(f"transaction {tx.id!r} finalized outside epoch {epoch}")
    total = sum((tx.value for tx in executed), Fraction(0))
    return total < ledger.u(transactor, epoch)


@dataclass(frozen=True)
class RevertedExecution:
    """An off-chain action already performed against a later-reverted
    transaction; the transactor is out the full value. `covering_epoch` is
    the epoch the transaction finalized in, the one its insurance covers."""

    tx_id: str
    transactor: str
    covering_epoch: EpochIndex
    value: Fraction
    insured: bool


@dataclass(frozen=True)
class Claim:
    transactor: str
    covering_epoch: EpochIndex
    harm: Fraction
    capped: Fraction
    paid: Fraction


@dataclass(frozen=True)
class SettlementRecord:
    """Outcome of distributing one slash.

    paid + burned = slashed exactly, and burned >= (1 - gamma) * slashed.
    invariant_breach marks the pathological case where capped claims exceed
    the gamma budget (coverage was oversold or the safety condition was
    violated); claims are then scaled pro-rata and the run must halt loudly.
    """

    event_id: str
    slashed: Fraction
    insurance_budget: Fraction
    claims: tuple[Claim, ...]
    paid_total: Fraction
    burned: Fraction
    invariant_breach: bool

    def __post_init__(self):
        if self.paid_total + self.burned != self.slashed:
            raise InvariantViolationError(
                f"settlement for {self.event_id!r}: paid + burned != slashed"
            )


def settle_slash(
    ev: ForkRevealEvent,
    outcome: ResolutionOutcome,
    ledger: InsuranceLedger,
    ep: EconParams,
    *,
    harmed: Sequence[RevertedExecution],
) -> SettlementRecord:
    """Distribute one slash: gamma share to claims, remainder burned.

    `harmed` lists the insured executions the reverted fork undid (the
    engine passes the insured ones among the executions it actually
    performed). Claims are grouped per transactor and covering epoch,
    capped at the coverage bought, and paid from the gamma budget; any
    shortfall scales all claims pro-rata and flags the settlement as an
    invariant breach.
    """
    if not outcome.slashable or outcome.event_id != ev.id:
        raise SettleOnUnslashableError(f"event {ev.id!r} is not slashable as resolved")
    slashed = outcome.slashable_stake
    budget = ep.gamma * slashed

    grouped: dict[tuple[str, EpochIndex], Fraction] = {}
    for h in harmed:
        if h.transactor not in ledger.transactors:
            raise UnknownTransactorError(f"harmed transactor {h.transactor!r} unknown")
        key = (h.transactor, h.covering_epoch)
        grouped[key] = grouped.get(key, Fraction(0)) + h.value

    capped = {
        key: min(harm, ledger.u(key[0], key[1])) for key, harm in sorted(grouped.items())
    }
    total_capped = sum(capped.values(), Fraction(0))
    breach = total_capped > budget
    scale = budget / total_capped if breach else Fraction(1)

    claims = tuple(
        Claim(
            transactor=tr,
            covering_epoch=e,
            harm=grouped[(tr, e)],
            capped=c,
            paid=c * scale,
        )
        for (tr, e), c in capped.items()
    )
    paid_total = sum((c.paid for c in claims), Fraction(0))
    burned = slashed - paid_total

    # the slashed validators leave the pool for good
    snapshot = ev.revealed_at + ledger.tp.slash_delay
    vmap = ledger.timeline.validators_by_id()
    for signer in sorted(ev.double_signers):
        v = vmap.get(signer)
        if v is not None and v.active_at(snapshot):
            ledger.earmark_free[signer] = Fraction(0)
            ledger.slashed_amounts[signer] = ledger.slashed_amounts.get(signer, Fraction(0)) + v.stake

    claimed_keys = {(c.transactor, c.covering_epoch) for c in claims if c.paid > 0}
    for lot in ledger.lots:
        if (lot.buyer, lot.covering_epoch) in claimed_keys and lot.state is LotState.ACTIVE_COVERAGE:
            lot.transition(LotState.PAID_OUT)
            ledger._credit_premium(lot)

    record = SettlementRecord(
        event_id=ev.id,
        slashed=slashed,
        insurance_budget=budget,
        claims=claims,
        paid_total=paid_total,
        burned=burned,
        invariant_breach=breach,
    )
    ledger.settlements.append(record)
    return record


@dataclass(frozen=True)
class KarmaEntry:
    """Mechanical value flows for one party across the whole run.

    net = premiums_earned - premiums_paid + compensation - harm - slashed.
    Premiums are the price of the service, so "an honest insured victim
    loses nothing to the attack" is compensation == harm, not net == 0.
    """

    party: str
    premiums_paid: Fraction = Fraction(0)
    premiums_earned: Fraction = Fraction(0)
    compensation: Fraction = Fraction(0)
    harm: Fraction = Fraction(0)
    slashed: Fraction = Fraction(0)

    @property
    def net(self) -> Fraction:
        return (
            self.premiums_earned
            - self.premiums_paid
            + self.compensation
            - self.harm
            - self.slashed
        )


@dataclass(frozen=True)
class KarmaSummary:
    """Who ended up where. The adversary aggregate adds the double-spend
    proceeds (reverted payments whose off-chain goods were already handed
    over do not revert with the chain)."""

    entries: tuple[KarmaEntry, ...]
    adversary_parties: frozenset[str]
    double_spend_gain: Fraction
    adversary_net: Fraction


def karma_report(
    ledger: InsuranceLedger,
    *,
    reverted_executions: Sequence[RevertedExecution] = (),
    adversary_validators: Iterable[str] = (),
    adversary_transactors: Iterable[str] = (),
) -> KarmaSummary:
    """Aggregate per-party flows and the adversary's overall position
    from the ledger's settlements and the run's reverted executions."""
    premiums_paid = dict(ledger.premiums_paid)
    premiums_earned = dict(ledger.premiums_earned)
    slashed = dict(ledger.slashed_amounts)

    compensation: dict[str, Fraction] = {}
    for s in ledger.settlements:
        for c in s.claims:
            compensation[c.transactor] = compensation.get(c.transactor, Fraction(0)) + c.paid

    harm: dict[str, Fraction] = {}
    for r in reverted_executions:
        harm[r.transactor] = harm.get(r.transactor, Fraction(0)) + r.value

    parties = sorted(
        set(premiums_paid) | set(premiums_earned) | set(slashed) | set(compensation) | set(harm)
        | set(ledger.transactors) | {v.id for v in ledger.timeline.validators}
    )
    entries = tuple(
        KarmaEntry(
            party=p,
            premiums_paid=premiums_paid.get(p, Fraction(0)),
            premiums_earned=premiums_earned.get(p, Fraction(0)),
            compensation=compensation.get(p, Fraction(0)),
            harm=harm.get(p, Fraction(0)),
            slashed=slashed.get(p, Fraction(0)),
        )
        for p in parties
    )

    adversary = frozenset(adversary_validators) | frozenset(adversary_transactors)
    double_spend_gain = sum((r.value for r in reverted_executions), Fraction(0))
    adversary_net = (
        sum((e.net for e in entries if e.party in adversary), Fraction(0)) + double_spend_gain
    )
    return KarmaSummary(
        entries=entries,
        adversary_parties=adversary,
        double_spend_gain=double_spend_gain,
        adversary_net=adversary_net,
    )
