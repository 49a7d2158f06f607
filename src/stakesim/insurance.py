"""Stake-backed transaction insurance.

Validators earmark a fraction of their stake as insurance backing. Each
epoch (one reversion period long) the available backing is auctioned off:
a purchase placed at epoch e covers transactions finalizing in epoch e + 2,
so the purchase itself is irreversibly settled before its coverage starts.
Backing stays locked until the covering window plus one more epoch has
passed with no slash settled, at which point the lot releases and the
stake returns to the pool.

When a double-sign does resolve, the slashed stake settles the damage: a
gamma share funds claims to insured transactors harmed by the reverted
fork (capped by what each bought), and the remainder burns. Conservation is
exact: paid + burned = slashed, always. Burning the remainder is what makes
pure griefing unprofitable: an adversary who buys out the insurance and then
attacks itself still loses the burned share.

The ledger files lots by covering epoch, so activating, releasing or paying
out the lots of one epoch reads only that epoch's bucket, and it keeps the
coverage bought per (buyer, covering epoch) and the free pool's total as
running sums. Sales and releases move stake pro rata, so each unslashed
backer's free earmark is its weight share of the free pool: one share map,
replaced only when a slash removes a backer, backs every lot sold under it.
A lot's backing, premium and covering epoch are derived from what its
auction decided. Stake moves once per auction, and the per-backer work is
done once per share map: the map keeps the premium credited through it and
the part its slashed backers hold, so a release or payout costs the same
however many backers there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Sequence

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EconParams,
    EpochIndex,
    TransactionRecord,
    TxKind,
    epoch_of,
)
from .errors import (
    InvariantViolationError,
    NegativeAvailableError,
    SettleOnUnslashableError,
    UnknownTransactorError,
)
from .rational import as_fraction
from .resolution import ResolutionOutcome

# A purchase at epoch e covers epoch e + 2: one full epoch of gap makes the
# purchase itself irreversible before coverage starts.
PURCHASE_LEAD_EPOCHS = 2
# A lot covering epoch c releases at c + 2 unless a slash held it.
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


@dataclass(eq=False)
class _Backers:
    """One map of the backers' weight shares, and what the lots sold under
    it have done with it so far.

    `numerators` holds each share, in id order, as an integer over the one
    `denominator`. `premium` is the premium credited through the map (None
    until a lot sold under it released or paid out), and `slashed` is the
    part of the map that slashed backers hold.
    """

    shares: dict[str, Fraction]
    numerators: tuple[tuple[str, int], ...]
    denominator: int
    premium: Optional[Fraction] = None
    slashed: Fraction = Fraction(0)

    @classmethod
    def of(cls, weights: Mapping[str, Fraction]) -> _Backers:
        """Each positive weight's share of their total, in id order; empty
        when no weight is positive."""
        positive = {v: w for v, w in sorted(weights.items()) if w > 0}
        total = sum(positive.values(), Fraction(0))
        shares = {v: w / total for v, w in positive.items()}
        den = lcm(*(s.denominator for s in shares.values()))
        return cls(shares, tuple((v, s.numerator * (den // s.denominator)) for v, s in shares.items()), den)

    def backing(self, coverage: Fraction) -> Iterator[tuple[str, int, int]]:
        """Each backer's part of `coverage` (coverage * share) in id order,
        as a numerator and denominator in lowest terms."""
        num, den = coverage.numerator, coverage.denominator * self.denominator
        for v, n in self.numerators:
            part = num * n
            g = gcd(part, den)
            yield v, part // g, den // g


_NO_BACKERS = _Backers.of({})


@dataclass
class InsuranceLot:
    """One allocated slice of coverage, as its auction sold it.

    `backers` is the backers' weight shares at the sale, one map that every
    lot sold until a slash removes a backer references: a lot of coverage
    c is backed by c * share of each backer's earmarked stake, so its
    backing sums to `coverage`. Lots sold by a ledger always have backers;
    the standalone auction helper may sell lots nobody backs, for purely
    analytical use, and `InsuranceLedger.record_lot` files only such lots.
    `premium_paid`, coverage times premium rate, is multiplied once, when
    the lot is made.
    """

    id: str
    buyer: str
    coverage: Fraction
    premium_rate: Fraction
    epoch_placed: EpochIndex
    state: LotState = LotState.PENDING
    backers: _Backers = _NO_BACKERS
    premium_paid: Fraction = field(init=False)

    def __post_init__(self):
        if self.coverage <= 0:
            raise InvariantViolationError(f"lot {self.id!r}: coverage must be > 0")
        self.premium_paid = self.coverage * self.premium_rate

    @property
    def backing(self) -> dict[str, Fraction]:
        """Validator id to the exact amount of its earmarked stake locked
        behind this lot."""
        return {v: Fraction(n, d) for v, n, d in self.backers.backing(self.coverage)}

    @property
    def covering_epoch(self) -> EpochIndex:
        return self.epoch_placed + PURCHASE_LEAD_EPOCHS

    def transition(self, new: LotState) -> None:
        if new not in _LOT_TRANSITIONS[self.state]:
            raise InvariantViolationError(
                f"lot {self.id!r}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new


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
    return _allocate(bids, available, _Backers.of(earmark or {}), start_seq)


def _allocate(
    bids: Sequence[InsuranceBid],
    available: Fraction,
    backers: _Backers,
    start_seq: int,
) -> list[InsuranceLot]:
    """`run_auction` with the backers' shares already worked out; every
    lot sold references `backers`."""
    available = as_fraction(available)
    if available < 0:
        raise NegativeAvailableError(f"available backing is negative: {available}")
    epochs = {b.epoch_placed for b in bids}
    if len(epochs) > 1:
        raise InvariantViolationError(f"auction mixes placement epochs {sorted(epochs)}")

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
        lots.append(
            InsuranceLot(
                id=f"lot-e{bid.epoch_placed}-{seq}",
                buyer=bid.transactor,
                coverage=allocated,
                premium_rate=bid.premium_rate,
                epoch_placed=bid.epoch_placed,
                backers=backers,
            )
        )
        seq += 1
    return lots


class InsuranceLedger:
    """Mutable per-run accounting of earmarks, lots, premiums and claims.

    Lots are filed in one bucket per covering epoch, as one list per
    auction that sold them; `lots` lists them all, and `record_lot` is the
    only way to add one outside an auction. Beside the buckets the ledger
    keeps two running sums: the coverage bought per (buyer, covering
    epoch), whatever the lot's state, which `u` and `coverage` read; and
    the free pool's total, which `pool_free` returns and which the
    unslashed backers' weight shares split into `earmark_free`. Each share
    map the ledger builds keeps the premium credited through it, and
    `premiums_earned` splits those sums by the maps' shares: premiums move
    once per closing auction and map, not once per backer.

    Lots are held on settlements, not on the timeline: a slash booked by
    `settle_slash` holds every covering epoch whose lots are active at that
    moment, so `release_lots` leaves them locked, until `end_attack`
    releases them and ends holding for the rest of the run. The ledger
    reads no fork event.

    Single-owner: the simulation engine (or a test) drives it from one
    thread; the chain timeline it references stays immutable.
    """

    def __init__(
        self,
        timeline: ChainTimeline,
        ep: EconParams,
        transactors: Iterable[str],
    ):
        self.timeline = timeline
        self.ep = ep
        self.transactors = frozenset(transactors)
        earmarks = {v.id: v.earmarked_fraction * v.stake for v in timeline.validators}
        self.slashed_amounts: dict[str, Fraction] = {}
        self.premiums_paid: dict[str, Fraction] = {}
        self.settlements: list[SettlementRecord] = []
        self._lot_seq = 0
        self._free_total = sum(earmarks.values(), Fraction(0))
        self._backers = _Backers.of(earmarks)
        self._maps = [self._backers]  # every share map built, the current one last
        self._cap = ep.gamma * ep.adversary_threshold * ep.s_tot
        self._sales: dict[EpochIndex, list[list[InsuranceLot]]] = {}
        self._bought: dict[EpochIndex, dict[str, Fraction]] = {}
        self._open: set[EpochIndex] = set()  # covering epochs activated and not yet released
        self._held: set[EpochIndex] = set()  # open covering epochs a slash held
        self._attack_over = False

    @property
    def lots(self) -> tuple[InsuranceLot, ...]:
        """Every lot sold or recorded, by covering epoch and then in order
        of sale."""
        return tuple(lot for sales in self._sales.values() for sale in sales for lot in sale)

    def record_lot(self, lot: InsuranceLot) -> None:
        """File a lot no validator backs, in whatever state it is in: its
        coverage counts for `u` and `coverage` at once, and it moves no
        stake when it releases or pays out."""
        if lot.backers.shares:
            raise InvariantViolationError(f"lot {lot.id!r}: only an auction sells backed lots")
        self._file(lot.covering_epoch, [lot])
        if lot.state is LotState.ACTIVE_COVERAGE:
            self._open.add(lot.covering_epoch)

    def _file(self, covering_epoch: EpochIndex, lots: list[InsuranceLot]) -> None:
        self._sales.setdefault(covering_epoch, []).append(lots)
        bought = self._bought.setdefault(covering_epoch, {})
        for lot in lots:
            bought[lot.buyer] = bought.get(lot.buyer, Fraction(0)) + lot.coverage

    # -- pool -------------------------------------------------------------

    def pool_free(self) -> Fraction:
        return self._free_total

    @property
    def earmark_free(self) -> dict[str, Fraction]:
        """Each validator's earmarked stake that no lot holds (none once slashed)."""
        shares = self._backers.shares
        return {v.id: self._free_total * shares.get(v.id, 0) for v in self.timeline.validators}

    @property
    def premiums_earned(self) -> dict[str, Fraction]:
        """Each backer's premium from the lots released or paid out so far,
        zero for a backer whose lots brought no premium."""
        earned: dict[str, Fraction] = {}
        for backers in self._maps:
            if backers.premium is not None:
                for v, share in backers.shares.items():
                    earned[v] = earned.get(v, Fraction(0)) + backers.premium * share
        return earned

    def available(self) -> Fraction:
        """Backing sellable now: the free pool, capped at gamma/3 of total
        stake so one slash can always fund every active claim."""
        return min(self._free_total, self._cap)

    # -- purchase pipeline --------------------------------------------------

    def sell(self, epoch: EpochIndex, bids: Sequence[InsuranceBid]) -> list[InsuranceLot]:
        for b in bids:
            if b.transactor not in self.transactors:
                raise UnknownTransactorError(f"bid from unknown transactor {b.transactor!r}")
            if b.epoch_placed != epoch:
                raise InvariantViolationError(
                    f"bid by {b.transactor!r} placed at {b.epoch_placed}, auctioned at {epoch}"
                )
        lots = _allocate(bids, self.available(), self._backers, self._lot_seq)
        if not lots:
            return lots
        self._lot_seq += len(lots)
        for lot in lots:
            self.premiums_paid[lot.buyer] = (
                self.premiums_paid.get(lot.buyer, Fraction(0)) + lot.premium_paid
            )
        # lots sell only from a positive pool, whose backers' shares add up to one
        self._free_total -= sum((lot.coverage for lot in lots), Fraction(0))
        self._file(epoch + PURCHASE_LEAD_EPOCHS, lots)
        return lots

    def activate(self, covering_epoch: EpochIndex) -> None:
        sales = self._sales.get(covering_epoch, ())
        if sales:
            self._open.add(covering_epoch)
        for sale in sales:
            for lot in sale:
                if lot.state is LotState.PENDING:
                    lot.transition(LotState.ACTIVE_COVERAGE)

    def coverage(self) -> dict[EpochIndex, dict[str, Fraction]]:
        """The coverage map of every lot sold so far."""
        return {epoch: dict(bought) for epoch, bought in self._bought.items()}

    def u(self, transactor: str, covering_epoch: EpochIndex) -> Fraction:
        """Total coverage `transactor` bought for `covering_epoch`."""
        if transactor not in self.transactors:
            raise UnknownTransactorError(f"unknown transactor {transactor!r}")
        return self._bought.get(covering_epoch, {}).get(transactor, Fraction(0))

    # -- stake motion -------------------------------------------------------

    def _close(self, lots: list[InsuranceLot]) -> None:
        """Credit the premium of `lots`, sold by one auction and just
        released or paid out, to the share map that backs them."""
        if not lots or not lots[0].backers.shares:
            return
        backers = lots[0].backers
        premium = sum((lot.premium_paid for lot in lots), Fraction(0))
        backers.premium = premium if backers.premium is None else backers.premium + premium

    def _book_slash(self, slashed: Mapping[str, Fraction]) -> None:
        """The slashed validators leave the pool for good, taking their
        share of it; the other backers' shares grow in proportion. Every
        share map adds the newly slashed backers' shares to its slashed
        part, and until the attack ends every open covering epoch is held."""
        if not self._attack_over:
            self._held |= self._open
        fresh = [v for v in slashed if v not in self.slashed_amounts]
        for signer, amount in slashed.items():
            self.slashed_amounts[signer] = self.slashed_amounts.get(signer, Fraction(0)) + amount
        for backers in self._maps:
            backers.slashed += sum((backers.shares.get(v, Fraction(0)) for v in fresh), Fraction(0))
        # the current map held no backer slashed before, so all of its slashed part is new
        gone = self._backers.slashed
        if gone:
            self._free_total -= self._free_total * gone
            self._backers = _Backers.of({v: s for v, s in self._backers.shares.items() if v not in slashed})
            self._maps.append(self._backers)

    def _pay_out(self, claimed: AbstractSet[tuple[str, EpochIndex]]) -> None:
        """Mark the active lots behind paid claims PAID_OUT and pay their
        premium to the backers."""
        for covering_epoch in sorted({e for _, e in claimed}):
            for sale in self._sales.get(covering_epoch, ()):
                lots = [
                    lot
                    for lot in sale
                    if (lot.buyer, covering_epoch) in claimed and lot.state is LotState.ACTIVE_COVERAGE
                ]
                for lot in lots:
                    lot.transition(LotState.PAID_OUT)
                self._close(lots)

    def _release(self, covering_epoch: EpochIndex) -> list[InsuranceLot]:
        """Release the active lots covering `covering_epoch`.

        Released backing re-enters the pool and the premium pays out to the
        backers.
        """
        self._open.discard(covering_epoch)
        by_sale = [
            [lot for lot in sale if lot.state is LotState.ACTIVE_COVERAGE]
            for sale in self._sales.get(covering_epoch, ())
        ]
        released = [lot for lots in by_sale for lot in lots]
        for lot in released:
            lot.transition(LotState.RELEASED)
        for lots in by_sale:
            self._close(lots)
            if lots and lots[0].backers.shares:
                # a slashed backer's part of the backing is gone for good
                lost = lots[0].backers.slashed
                self._free_total += (1 - lost) * sum((lot.coverage for lot in lots), Fraction(0))
        return released

    def end_attack(self, last_covering: EpochIndex) -> list[InsuranceLot]:
        """Release the held covering epochs up to `last_covering`, in
        ascending order, and hold nothing from now on: the unclaimed
        coverage unlocks and its backing (minus slashed validators')
        returns. A held epoch past `last_covering` releases when its
        `release_lots` comes."""
        held, self._held = sorted(self._held), set()
        self._attack_over = True
        return [lot for c in held if c <= last_covering for lot in self._release(c)]


def release_lots(epoch_now: EpochIndex, ledger: InsuranceLedger) -> list[InsuranceLot]:
    """Release every lot two epochs past its covering epoch, unless held.

    A lot covering epoch c releases at epoch c + 2 unless a slash settled
    while it was active held it; `InsuranceLedger.end_attack` releases a
    held lot. Released backing re-enters the pool and the premium pays out
    to the backers.
    """
    covering = epoch_now - RELEASE_LAG_EPOCHS
    if covering < 0 or covering in ledger._held:
        return []
    return ledger._release(covering)


def coverage_map(
    lots: Iterable[tuple[str, EpochIndex, Fraction]],
) -> dict[EpochIndex, dict[str, Fraction]]:
    """Coverage bought, by covering epoch and then buyer, from
    (buyer, covering_epoch, coverage) triples."""
    coverage: dict[EpochIndex, dict[str, Fraction]] = {}
    for buyer, epoch, amount in lots:
        bucket = coverage.setdefault(epoch, {})
        bucket[buyer] = bucket.get(buyer, Fraction(0)) + amount
    return coverage


def coverage_check(
    transactor: str,
    epoch: EpochIndex,
    executed: Sequence[TransactionRecord],
    coverage: Fraction,
    t_rev: int,
) -> bool:
    """Insured-execution safety condition for one transactor-epoch.

    True iff the total value executed immediately in `epoch` (epochs are
    `t_rev` ticks long) stays strictly below the `coverage` bought for it.
    Strict: executing exactly up to the purchased amount is already unsafe.
    """
    for tx in executed:
        if tx.transactor != transactor:
            raise InvariantViolationError(f"transaction {tx.id!r} belongs to {tx.transactor!r}")
        if tx.kind is not TxKind.HYBRID or tx.rule is not ConfirmationRule.INSURED_IMMEDIATE:
            raise InvariantViolationError(f"transaction {tx.id!r} is not insured hybrid flow")
        if epoch_of(tx.finalized_at, t_rev) != epoch:
            raise InvariantViolationError(f"transaction {tx.id!r} finalized outside epoch {epoch}")
    return sum((tx.value for tx in executed), Fraction(0)) < coverage


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
    outcome: ResolutionOutcome,
    ledger: InsuranceLedger,
    *,
    harmed: Sequence[RevertedExecution],
) -> SettlementRecord:
    """Book one slash as `outcome` decided it: gamma share to claims,
    remainder burned.

    `harmed` lists the insured executions the reverted fork undid (the
    engine passes the insured ones among the executions it actually
    performed). Claims are grouped per transactor and covering epoch,
    capped at the coverage bought, and paid from the gamma budget; any
    shortfall scales all claims pro-rata and flags the settlement as an
    invariant breach.
    """
    if not outcome.slashable:
        raise SettleOnUnslashableError(f"event {outcome.event_id!r} is not slashable as resolved")
    slashed = outcome.slashable_stake
    budget = ledger.ep.gamma * slashed

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

    ledger._book_slash(outcome.slashed)
    ledger._pay_out({(c.transactor, c.covering_epoch) for c in claims if c.paid > 0})

    record = SettlementRecord(
        event_id=outcome.event_id,
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
    premiums_earned = ledger.premiums_earned
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
