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
fork (capped by what each bought, by `settle_claims`, which `analyze` runs
too), and the remainder burns. Conservation is exact: paid + burned =
slashed, always. Burning the remainder is what makes pure griefing
unprofitable: an adversary who buys out the insurance and then attacks
itself still loses the burned share.

The ledger (`InsuranceLedger`) files lots by covering epoch, keeps the
free pool as one running total and splits it by one share map, replaced
only when a slash removes a backer; a lot's backing, premium and covering
epoch are derived from what its auction decided. The trace writes a share
map once, at the first auction that sells under it. A total of many terms
is one `exact_sum`: one Fraction normalized per total, not one per term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Sequence

from .chain import (
    EconParams,
    EpochIndex,
    TransactionRecord,
    ValidatorState,
    epoch_of,
)
from .errors import InvariantViolationError
from .rational import as_fraction, exact_sum
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
        if type(self.coverage_requested) is not Fraction:
            object.__setattr__(self, "coverage_requested", as_fraction(self.coverage_requested))
        if type(self.premium_rate) is not Fraction:
            object.__setattr__(self, "premium_rate", as_fraction(self.premium_rate))
        if self.epoch_placed < 0:
            raise InvariantViolationError(f"bid by {self.transactor!r}: epoch_placed < 0")
        if self.coverage_requested.numerator <= 0:
            raise InvariantViolationError(f"bid by {self.transactor!r}: coverage must be > 0")
        if self.premium_rate.numerator < 0:
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
    """One map of the backers' weight shares, in id order."""

    shares: dict[str, Fraction]

    @classmethod
    def of(cls, weights: Mapping[str, Fraction]) -> _Backers:
        """Each positive weight's share of their total, in id order; empty
        when no weight is positive."""
        positive = {v: w for v, w in sorted(weights.items()) if w > 0}
        total = exact_sum(positive.values())
        return cls({v: w / total for v, w in positive.items()})

    def part(self, ids: Iterable[str]) -> Fraction:
        """The shares of those of `ids` that back under this map, summed."""
        shares = self.shares
        return exact_sum(shares[v] for v in ids if v in shares)


@dataclass
class InsuranceLot:
    """One allocated slice of coverage, as its auction sold it.

    `backers` is the backers' weight shares at the sale, one map that every
    lot sold until a slash removes a backer references: a lot of coverage
    c is backed by c * share of each backer's earmarked stake, so its
    backing sums to `coverage`. `premium_paid`, coverage times premium
    rate, is multiplied once, when the lot is made.
    """

    id: str
    buyer: str
    coverage: Fraction
    premium_rate: Fraction
    epoch_placed: EpochIndex
    backers: _Backers
    state: LotState = LotState.PENDING
    premium_paid: Fraction = field(init=False)

    def __post_init__(self):
        if self.coverage.numerator <= 0:
            raise InvariantViolationError(f"lot {self.id!r}: coverage must be > 0")
        self.premium_paid = self.coverage * self.premium_rate

    @property
    def backing(self) -> dict[str, Fraction]:
        """Validator id to the exact amount of its earmarked stake locked
        behind this lot."""
        return {v: self.coverage * share for v, share in self.backers.shares.items()}

    @property
    def covering_epoch(self) -> EpochIndex:
        return self.epoch_placed + PURCHASE_LEAD_EPOCHS

    def transition(self, new: LotState) -> None:
        if new not in _LOT_TRANSITIONS[self.state]:
            raise InvariantViolationError(
                f"lot {self.id!r}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new


def _allocate(
    bids: Sequence[InsuranceBid],
    available: Fraction,
    backers: _Backers,
    start_seq: int,
) -> tuple[list[InsuranceLot], Fraction]:
    """Sell up to `available` coverage to the highest premium rates, every
    lot backed by `backers`.

    Greedy by premium_rate descending, ties broken by lexicographic
    transactor id (then submission order); the marginal bid fills
    partially, taking what remains. Returns the lots and the coverage left
    unsold.
    """
    lots: list[InsuranceLot] = []
    if available <= 0:
        return lots, available
    # two stable sorts give the order of the key (-rate, transactor, index)
    order = sorted(bids, key=attrgetter("transactor"))
    order.sort(key=attrgetter("premium_rate"), reverse=True)
    remaining = available
    for seq, bid in enumerate(order, start_seq):
        coverage = bid.coverage_requested
        filled = coverage >= remaining
        lots.append(
            InsuranceLot(
                id=f"lot-e{bid.epoch_placed}-{seq}",
                buyer=bid.transactor,
                coverage=remaining if filled else coverage,
                premium_rate=bid.premium_rate,
                epoch_placed=bid.epoch_placed,
                backers=backers,
            )
        )
        if filled:
            return lots, Fraction(0)
        remaining -= coverage
    return lots, remaining


class InsuranceLedger:
    """Mutable per-run accounting of earmarks, lots, premiums and claims.

    Lots are filed in one list per covering epoch, in order of sale;
    `sell` is the only way to make one, and `lots` lists them all. Beside
    the lists the ledger keeps one running sum, the free pool's total,
    which `pool_free` returns and which the unslashed backers' weight
    shares split into `earmark_free`. The coverage bought (`u`, `coverage`)
    and the premiums paid and earned are read off the lots, whatever their
    state: the earned premium is summed per share map and split by the
    map's shares once, not once per lot and backer.

    Lots are held on settlements: a slash booked by `settle_slash` holds
    every covering epoch whose lots are active at that moment, so
    `release_lots` leaves them locked, until `end_attack` releases them and
    ends holding for the rest of the run.

    The ledger holds money and ids only: it reads the validators' earmarks
    once, at construction, keeps their ids, and reads no fork event.
    Single-owner: the simulation engine (or a test) drives it from one
    thread.
    """

    def __init__(
        self,
        validators: Iterable[ValidatorState],
        ep: EconParams,
        transactors: Iterable[str],
    ):
        earmarks = {v.id: v.earmarked_fraction * v.stake for v in validators}
        self.validators = tuple(earmarks)
        self.ep = ep
        self.transactors = frozenset(transactors)
        self.slashed_amounts: dict[str, Fraction] = {}
        self.settlements: list[SettlementRecord] = []
        self._lot_seq = 0
        self._free_total = exact_sum(earmarks.values())
        self._backers = _Backers.of(earmarks)
        self._lost_parts: dict[_Backers, Fraction] = {}  # each map's lost part, since the last slash
        self._cap = ep.gamma * ep.adversary_threshold * ep.s_tot
        self._sales: dict[EpochIndex, list[InsuranceLot]] = {}
        self._open: set[EpochIndex] = set()  # covering epochs activated and not yet released
        self._held: set[EpochIndex] = set()  # open covering epochs a slash held
        self._attack_over = False

    @property
    def lots(self) -> tuple[InsuranceLot, ...]:
        """Every lot sold, by covering epoch and then in order of sale."""
        return tuple(lot for lots in self._sales.values() for lot in lots)

    # -- pool -------------------------------------------------------------

    def pool_free(self) -> Fraction:
        return self._free_total

    @property
    def earmark_free(self) -> dict[str, Fraction]:
        """Each validator's earmarked stake that no lot holds (none once slashed)."""
        shares = self._backers.shares
        return {v: self._free_total * shares.get(v, 0) for v in self.validators}

    @property
    def premiums_paid(self) -> dict[str, Fraction]:
        """Each buyer's premium over every lot it bought."""
        paid: dict[str, list[Fraction]] = {}
        for lot in self.lots:
            paid.setdefault(lot.buyer, []).append(lot.premium_paid)
        return {buyer: exact_sum(premiums) for buyer, premiums in paid.items()}

    @property
    def premiums_earned(self) -> dict[str, Fraction]:
        """Each backer's premium from the lots released or paid out so far,
        zero for a backer whose lots brought no premium."""
        by_map: dict[_Backers, list[Fraction]] = {}
        for lot in self.lots:
            if lot.state in (LotState.RELEASED, LotState.PAID_OUT):
                by_map.setdefault(lot.backers, []).append(lot.premium_paid)
        earned: dict[str, list[Fraction]] = {}
        for backers, premiums in by_map.items():
            premium = exact_sum(premiums)
            for v, share in backers.shares.items():
                earned.setdefault(v, []).append(premium * share)
        return {v: exact_sum(parts) for v, parts in earned.items()}

    def available(self) -> Fraction:
        """Backing sellable now: the free pool, capped at gamma/3 of total
        stake so one slash can always fund every active claim."""
        return min(self._free_total, self._cap)

    # -- purchase pipeline --------------------------------------------------

    def sell(
        self, epoch: EpochIndex, bids: Sequence[InsuranceBid], available: Optional[Fraction] = None
    ) -> list[InsuranceLot]:
        """Auction `available()` coverage to `bids`, all placed at `epoch`.
        A caller that has read `available()` for this sale passes it as
        `available`, and the ledger does not read it again."""
        for b in bids:
            if b.transactor not in self.transactors:
                raise InvariantViolationError(f"bid from unknown transactor {b.transactor!r}")
            if b.epoch_placed != epoch:
                raise InvariantViolationError(
                    f"bid by {b.transactor!r} placed at {b.epoch_placed}, auctioned at {epoch}"
                )
        if available is None:
            available = self.available()
        lots, unsold = _allocate(bids, available, self._backers, self._lot_seq)
        if not lots:
            return lots
        self._lot_seq += len(lots)
        # lots sell only from a positive pool, whose backers' shares add up to one
        self._free_total -= available - unsold
        self._sales.setdefault(epoch + PURCHASE_LEAD_EPOCHS, []).extend(lots)
        return lots

    def activate(self, covering_epoch: EpochIndex) -> None:
        lots = self._sales.get(covering_epoch, ())
        if lots:
            self._open.add(covering_epoch)
        for lot in lots:
            if lot.state is LotState.PENDING:
                lot.transition(LotState.ACTIVE_COVERAGE)

    def coverage(self) -> dict[EpochIndex, dict[str, Fraction]]:
        """The coverage map of every lot sold so far."""
        return coverage_map((lot.buyer, c, lot.coverage) for c, lots in self._sales.items() for lot in lots)

    def u(self, transactor: str, covering_epoch: EpochIndex) -> Fraction:
        """Total coverage `transactor` bought for `covering_epoch`, whatever the lot's state."""
        if transactor not in self.transactors:
            raise InvariantViolationError(f"unknown transactor {transactor!r}")
        lots = self._sales.get(covering_epoch, ())
        return sum((lot.coverage for lot in lots if lot.buyer == transactor), Fraction(0))

    # -- stake motion -------------------------------------------------------

    def _lost(self, backers: _Backers) -> Fraction:
        """The part of a share map that slashed backers hold, summed once
        per slash."""
        lost = self._lost_parts.get(backers)
        if lost is None:
            lost = self._lost_parts[backers] = backers.part(self.slashed_amounts)
        return lost

    def _book_slash(self, slashed: Mapping[str, Fraction]) -> None:
        """The slashed validators leave the pool for good, taking their
        share of it; the other backers' shares grow in proportion. Until
        the attack ends every open covering epoch is held."""
        if not self._attack_over:
            self._held |= self._open
        for signer, amount in slashed.items():
            self.slashed_amounts[signer] = self.slashed_amounts.get(signer, Fraction(0)) + amount
        self._lost_parts.clear()
        # the current map holds no backer slashed before, so all of its lost part is new
        gone = self._lost(self._backers)
        if gone:
            self._free_total -= self._free_total * gone
            self._backers = _Backers.of({v: s for v, s in self._backers.shares.items() if v not in slashed})

    def _pay_out(self, claimed: AbstractSet[tuple[str, EpochIndex]]) -> None:
        """Mark the active lots behind paid claims PAID_OUT, which pays
        their premium to the backers."""
        for covering_epoch in {e for _, e in claimed}:
            for lot in self._sales.get(covering_epoch, ()):
                if (lot.buyer, covering_epoch) in claimed and lot.state is LotState.ACTIVE_COVERAGE:
                    lot.transition(LotState.PAID_OUT)

    def _release(self, covering_epoch: EpochIndex) -> list[InsuranceLot]:
        """Release the active lots covering `covering_epoch`.

        Released backing re-enters the pool and the premium pays out to the
        backers.
        """
        self._open.discard(covering_epoch)
        lots = self._sales.get(covering_epoch, ())
        released = [lot for lot in lots if lot.state is LotState.ACTIVE_COVERAGE]
        by_map: dict[_Backers, list[Fraction]] = {}
        for lot in released:
            lot.transition(LotState.RELEASED)
            by_map.setdefault(lot.backers, []).append(lot.coverage)
        for backers, coverages in by_map.items():
            coverage = exact_sum(coverages)
            lost = self._lost(backers)
            # a slashed backer's part of the backing is gone for good
            self._free_total += (1 - lost) * coverage if lost else coverage
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
        held = bucket.get(buyer)
        bucket[buyer] = amount if held is None else held + amount
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
        if not tx.insured:
            raise InvariantViolationError(f"transaction {tx.id!r} is not insured hybrid flow")
        if epoch_of(tx.finalized_at, t_rev) != epoch:
            raise InvariantViolationError(f"transaction {tx.id!r} finalized outside epoch {epoch}")
    return sum((tx.value for tx in executed), Fraction(0)) < coverage


@dataclass(frozen=True)
class RevertedExecution:
    """An off-chain action already performed against a later-reverted
    transaction; the transactor is out the full value. `covering_epoch` is
    the epoch the transaction finalized in, the one its insurance covers."""

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

    `paid_total` sums the claims paid and `burned` is the rest of the slash,
    so paid + burned = slashed by definition; burned >= (1 - gamma) * slashed.
    invariant_breach marks the pathological case where capped claims exceed
    the gamma budget (coverage was oversold or the safety condition was
    violated); claims are then scaled pro-rata and the run must halt loudly.
    """

    event_id: str
    slashed: Fraction
    insurance_budget: Fraction
    claims: tuple[Claim, ...]

    @property
    def capped_total(self) -> Fraction:
        return sum((c.capped for c in self.claims), Fraction(0))

    @property
    def invariant_breach(self) -> bool:
        return self.capped_total > self.insurance_budget

    @property
    def paid_total(self) -> Fraction:
        return sum((c.paid for c in self.claims), Fraction(0))

    @property
    def burned(self) -> Fraction:
        return self.slashed - self.paid_total


def settle_claims(
    event_id: str,
    slashed: Fraction,
    gamma: Fraction,
    harms: Iterable[tuple[str, EpochIndex, Fraction]],
    bought: Callable[[str, EpochIndex], Fraction],
) -> SettlementRecord:
    """The settlement of a slash of `slashed`: the (transactor, covering
    epoch, harm) `harms` summed per transactor and epoch, each sum capped at
    the coverage `bought` for it, and every capped claim paid in full from
    the gamma budget, or pro rata when the capped total exceeds that budget,
    which flags an invariant breach."""
    grouped: dict[tuple[str, EpochIndex], Fraction] = {}
    for tr, e, harm in harms:
        grouped[tr, e] = grouped.get((tr, e), Fraction(0)) + harm
    budget = gamma * slashed
    claims = []
    for (tr, e), harm in sorted(grouped.items()):
        capped = min(harm, bought(tr, e))
        claims.append(Claim(transactor=tr, covering_epoch=e, harm=harm, capped=capped, paid=capped))
    record = SettlementRecord(event_id=event_id, slashed=slashed, insurance_budget=budget, claims=tuple(claims))
    if record.invariant_breach:
        scale = budget / record.capped_total
        record = replace(record, claims=tuple(replace(c, paid=c.capped * scale) for c in claims))
    return record


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
    performed). `settle_claims` settles them against the coverage the
    ledger sold (`u`, which refuses an unknown transactor).
    """
    if not outcome.slashable:
        raise InvariantViolationError(f"event {outcome.event_id!r} is not slashable as resolved")
    harms = ((h.transactor, h.covering_epoch, h.value) for h in harmed)
    record = settle_claims(outcome.event_id, outcome.slashable_stake, ledger.ep.gamma, harms, ledger.u)

    ledger._book_slash(outcome.slashed)
    ledger._pay_out({(c.transactor, c.covering_epoch) for c in record.claims if c.paid > 0})
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
        return self.premiums_earned - self.premiums_paid + self.compensation - self.harm - self.slashed


@dataclass(frozen=True)
class KarmaSummary:
    """Who ended up where. The adversary aggregate adds the double-spend
    proceeds (reverted payments whose off-chain goods were already handed
    over do not revert with the chain)."""

    entries: tuple[KarmaEntry, ...]
    adversary_parties: frozenset[str]
    double_spend_gain: Fraction

    @property
    def adversary_net(self) -> Fraction:
        adversary = self.adversary_parties
        return sum((e.net for e in self.entries if e.party in adversary), Fraction(0)) + self.double_spend_gain


def paid_claims(settlements: Iterable[SettlementRecord]) -> dict[str, Fraction]:
    """Each claimant's paid claims summed over `settlements`: its compensation."""
    paid: dict[str, Fraction] = {}
    for claim in (c for s in settlements for c in s.claims):
        paid[claim.transactor] = paid.get(claim.transactor, Fraction(0)) + claim.paid
    return paid


def karma_report(
    ledger: InsuranceLedger,
    *,
    reverted_executions: Sequence[RevertedExecution] = (),
    adversary_validators: Iterable[str] = (),
    adversary_transactors: Iterable[str] = (),
) -> KarmaSummary:
    """Aggregate per-party flows and the adversary's overall position
    from the ledger's settlements and the run's reverted executions."""
    premiums_paid = ledger.premiums_paid
    premiums_earned = ledger.premiums_earned
    slashed = dict(ledger.slashed_amounts)

    compensation = paid_claims(ledger.settlements)
    harm: dict[str, Fraction] = {}
    for r in reverted_executions:
        harm[r.transactor] = harm.get(r.transactor, Fraction(0)) + r.value

    parties = sorted(
        set(premiums_paid) | set(premiums_earned) | set(slashed) | set(compensation) | set(harm)
        | set(ledger.transactors) | set(ledger.validators)
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

    return KarmaSummary(
        entries=entries,
        adversary_parties=frozenset(adversary_validators) | frozenset(adversary_transactors),
        double_spend_gain=sum((r.value for r in reverted_executions), Fraction(0)),
    )
