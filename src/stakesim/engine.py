"""Deterministic discrete-event simulation of one scenario.

Single-threaded loop over a ticket heap keyed by (tick, phase, sequence).
Within one epoch the phases run: lot release and activation, then the
coverage auction, then per-tick transaction finalizations, scheduled
off-chain executions and fork reveals. The heap holds only the epochs where
the engine can act: epoch 0, every epoch with a bid, the attack-over epoch,
and, pushed by each auction, the epoch its lots cover and the epoch they
release at; under a grieving buyout, whose buyer bids for all the coverage
there is, an epoch that leaves some unsold schedules the next (the pool
grows back only in an epoch that releases lots, which is scheduled
anyway). Every other epoch is quiet. An `epoch_start` record goes just
before the first record of each epoch, up to the horizon's, that has one;
an epoch with no record writes none, so the trace grows with the run's
events, not with its horizon. `run_start`, `bribery_probe` and `report`
belong to no epoch. A slashable reveal settles its slash immediately,
which holds the lots active at that moment, and flips every transactor to
the secure rule until the scenario's scripted attack-over epoch, which
releases the held lots.

Identical (scenario, seed) pairs produce byte-identical traces: iteration
only ever walks sorted structures and nothing is sampled. The seed only
labels the run_start record and the report, and the econ block's `tvl`
reaches only run_start and the report, so `report_run` can build the
report of a scenario that differs only there from another run's loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EpochIndex,
    ForkRevealEvent,
    PfcKind,
    Tick,
    TransactionRecord,
    TxKind,
    build_timeline,
    epoch_bounds,
    epoch_of,
)
from .confirmation import (
    DecisionStatus,
    contests,
    decide_bridge,
    decide_bridge_naive,
    decide_secure,
)
from .errors import InvariantBreachError
from .insurance import (
    PURCHASE_LEAD_EPOCHS,
    RELEASE_LAG_EPOCHS,
    InsuranceBid,
    InsuranceLedger,
    KarmaSummary,
    RevertedExecution,
    coverage_check,
    karma_report,
    release_lots,
    settle_slash,
)
from .rational import frac_str
from .report import ReportDocument, build_report
from .resolution import RevealClass, resolve
from .scenario import (
    DECISION,
    ECON,
    FORK_EVENT,
    LOT,
    NAIVE_DECISION,
    SETTLEMENT,
    SHARES,
    TIMING,
    TX_FINALIZED,
    Scenario,
    StrategyKind,
    canonical_json,
    canonical_object,
    scenario_hash,
)
from .version import OUTPUT_VERSION, __version__

_PH_EPOCH, _PH_FINALIZE, _PH_EXECUTE, _PH_REVEAL = 0, 1, 2, 3


@dataclass(frozen=True)
class TraceRecord:
    """One trace line: its `tick`, its `kind` and its `payload`, the rest of
    its keys: its own `keys`, then what each `(table, value, under)` of
    `writes` writes, in order. With `under` None the keys `table.write(value)`
    gives join the payload; otherwise `under` holds the list of `table.write`
    of each object in `value`. `line()` is the one writer of its line.

    `payload` is built on each access and never kept, so a run whose trace
    is not written (a sweep point) builds none, and `to_lines` builds each
    once, briefly. So the fields a table writes must not change after the
    record is made; a lot changes only its state, which no table writes.
    """

    tick: Tick
    kind: str
    keys: dict
    writes: tuple = ()

    @property
    def payload(self) -> dict:
        payload = self.keys
        for table, value, under in self.writes:
            written = table.write(value) if under is None else {under: list(map(table.write, value))}
            payload = {**payload, **written}
        return payload

    def line(self) -> str:
        return canonical_json({"tick": self.tick, "kind": self.kind, **self.payload})


def trace_lines(records: list[TraceRecord]) -> list[str]:
    """The lines of a trace, or of a partial trace, of `records`."""
    return [record.line() for record in records]


@dataclass(frozen=True, kw_only=True)
class ReportRecord(TraceRecord):
    """The trace's `report` record: its payload is the report document, and
    its line is joined from the fields the report encoded for report.json."""

    report: ReportDocument = field(repr=False, compare=False)

    def line(self) -> str:
        head = {"tick": canonical_json(self.tick), "kind": canonical_json(self.kind)}
        return canonical_object({**head, **self.report.fields})


@dataclass
class SimTrace:
    """Ordered event log plus the final report, and what the report is
    built from: the run's effective timeline, the ledger's final state and
    the karma section. `report` is None only while `run` builds it; every
    later report of the loop (`report_run`) shares its loop part."""

    records: list[TraceRecord]
    timeline: ChainTimeline  # effective: each transaction under the rule it finalized with
    ledger: InsuranceLedger
    karma: KarmaSummary
    executed: dict[str, Tick]
    reverted: set[str]
    report: Optional[ReportDocument] = field(default=None, init=False)

    def to_lines(self) -> list[str]:
        return trace_lines(self.records)


class _Run:
    """Mutable state of one simulation run."""

    def __init__(self, sc: Scenario, seed: int, bound_kind: PfcKind):
        self.sc = sc
        self.seed = seed
        self.bound_kind = bound_kind
        self.tp = sc.timing
        self.ep = sc.econ

        extra, self.probe_log = sc._scripted
        self.timeline = build_timeline(
            horizon=sc.timeline.horizon,
            transactions=sc.timeline.transactions,
            fork_events=list(sc.timeline.fork_events) + extra,
            validators=sc.timeline.validators,
        )
        self.ledger = InsuranceLedger(self.timeline.validators, self.ep, transactors=sc.transactors())
        self.bids_by_epoch: dict[EpochIndex, list[InsuranceBid]] = {}
        for b in sc.bids:
            self.bids_by_epoch.setdefault(b.epoch_placed, []).append(b)
        # a grieving buyout's buyer bids for all the coverage there is, every epoch it can
        adversary = sc.adversary
        grieving = adversary.strategy.kind is StrategyKind.GRIEVING_BUYOUT
        self.grieving_buyer = min(adversary.transactors) if grieving and adversary.transactors else None

        self.records: list[TraceRecord] = []
        self.effective: dict[str, TransactionRecord] = {}  # each transaction under the rule it finalized with
        self.committed_insured: dict[tuple[str, EpochIndex], list[TransactionRecord]] = {}
        self.executed: dict[str, Tick] = {}
        self.reverted: set[str] = set()
        self.waiting: dict[str, TransactionRecord] = {}
        self.reverted_executions: list[RevertedExecution] = []
        self.secure_mode = False
        self.adversary_validators: set[str] = set()
        self._seq = 0
        self._heap: list[tuple[int, int, int, Any]] = []
        self._scheduled: set[EpochIndex] = set()
        self._last = epoch_of(self.timeline.horizon, self.tp.t_rev)  # the horizon's epoch
        self._started = -1  # the last epoch whose `epoch_start` record is written
        self._shares = None  # the share map an `auction` record last wrote

    # -- plumbing ---------------------------------------------------------

    def rec(self, tick: Tick, kind: str, *writes: tuple, **keys):
        """Append a record of `keys` and of `writes`, each a `(table, value,
        under)` (see `TraceRecord`), after its epoch's `epoch_start` record
        if it is the first record of an epoch up to the horizon's. Ticks
        never go back, so no record comes before its epoch's first."""
        e = epoch_of(tick, self.tp.t_rev)
        if self._started < e <= self._last:
            self._started = e
            self.records.append(TraceRecord(epoch_bounds(e, self.tp.t_rev)[0], "epoch_start", {"epoch": e}))
        self.records.append(TraceRecord(tick, kind, keys, writes))

    def push(self, tick: Tick, phase: int, payload: Any):
        self._seq += 1
        heapq.heappush(self._heap, (tick, phase, self._seq, payload))

    def schedule_epoch(self, e: EpochIndex):
        """Put epoch `e` on the heap, once, if it starts by the horizon."""
        start = epoch_bounds(e, self.tp.t_rev)[0]
        if e not in self._scheduled and start <= self.timeline.horizon:
            self._scheduled.add(e)
            self.push(start, _PH_EPOCH, e)

    # -- run --------------------------------------------------------------

    def run(self) -> SimTrace:
        sc, tp = self.sc, self.tp
        horizon = self.timeline.horizon
        # the run's own records belong to no epoch, so they do not go through `rec`
        header = {
            "schema_version": OUTPUT_VERSION,
            "tool_version": __version__,
            "scenario_hash": scenario_hash(sc),
            "seed": self.seed,
            "horizon": horizon,
            "timing": TIMING.write(tp),
            "econ": ECON.write(self.ep),
        }
        self.records.append(TraceRecord(0, "run_start", header))
        if self.probe_log is not None:
            self.records.append(TraceRecord(0, "bribery_probe", self.probe_log))

        for e in (0, *self.bids_by_epoch, sc.attack_over_epoch):
            if e is not None:
                self.schedule_epoch(e)
        for tx in self.timeline.transactions:
            self.push(tx.finalized_at, _PH_FINALIZE, tx)
        for ev in self.timeline.fork_events:
            self.push(ev.revealed_at, _PH_REVEAL, ev)

        heap, pop = self._heap, heapq.heappop
        handlers = (self.on_epoch, self.on_finalize, self.on_execute, self.on_reveal)
        while heap:
            tick, phase, _, payload = pop(heap)
            handlers[phase](tick, payload)

        return self.finish(horizon)

    # -- epoch boundary -----------------------------------------------------

    def on_epoch(self, tick: Tick, e: EpochIndex):
        released = release_lots(e, self.ledger)
        if released:
            self.rec(tick, "released", epoch=e, lots=[lot.id for lot in released])

        self.ledger.activate(e)

        bids = self.bids_by_epoch.get(e, [])
        buyer = self.grieving_buyer
        avail = self.ledger.available() if bids or buyer is not None else None
        if buyer is not None and avail > 0:
            bids = bids + [
                InsuranceBid(
                    transactor=buyer,
                    epoch_placed=e,
                    coverage_requested=avail,
                    premium_rate=self.sc.adversary.strategy.premium_rate,
                )
            ]
        if bids:
            lots = self.ledger.sell(e, bids, avail)
            # the epoch the lots cover activates them, and they release two later
            self.schedule_epoch(e + PURCHASE_LEAD_EPOCHS)
            self.schedule_epoch(e + PURCHASE_LEAD_EPOCHS + RELEASE_LAG_EPOCHS)
            # every lot of one sale is backed by one share map, written at the first sale under it
            shares = []
            if lots and lots[0].backers is not self._shares:
                self._shares = lots[0].backers
                shares.append((SHARES, self._shares, None))
            self.rec(tick, "auction", (LOT, lots, "lots"), *shares, epoch=e, available=frac_str(avail))

        if self.sc.attack_over_epoch is not None and e == self.sc.attack_over_epoch:
            if self.secure_mode:
                self.secure_mode = False
                self.rec(tick, "policy_switch", secure_mode=False, epoch=e)
            released = self.ledger.end_attack(e - RELEASE_LAG_EPOCHS)
            if released:
                self.rec(tick, "released", epoch=e, lots=[lot.id for lot in released])
            self.reevaluate_waiting(tick)

        # the pool grows back only in a scheduled epoch, one that releases
        # lots, so the buyer bids again next epoch only while there is some
        if buyer is not None and self.ledger.available() > 0:
            self.schedule_epoch(e + 1)

    def reevaluate_waiting(self, tick: Tick):
        for tx_id in sorted(self.waiting):
            tx = self.waiting[tx_id]
            if tx_id in self.reverted:
                continue
            start = max(tick, tx.finalized_at)
            decision = decide_secure(tx, self.timeline, self.tp, window_start=start)
            self.rec(
                tick,
                "waiting_reeval",
                tx=tx_id,
                status=decision.status.value,
                earliest=decision.earliest_offchain_tick,
            )
            if decision.status is DecisionStatus.CONFIRMED:
                del self.waiting[tx_id]
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, tx)

    # -- transactions ---------------------------------------------------------

    def on_finalize(self, tick: Tick, tx: TransactionRecord):
        rule = tx.rule
        effective = rule
        reason = None
        if tx.kind is TxKind.HYBRID:
            if self.secure_mode and rule in (
                ConfirmationRule.IMMEDIATE,
                ConfirmationRule.INSURED_IMMEDIATE,
            ):
                effective, reason = ConfirmationRule.SECURE_RULE, "attack_mode"
            elif tx.insured:
                key = (tx.transactor, epoch_of(tick, self.tp.t_rev))
                committed = self.committed_insured.setdefault(key, [])
                committed.append(tx)
                if not coverage_check(*key, committed, self.ledger.u(*key), self.tp.t_rev):
                    committed.pop()
                    effective, reason = ConfirmationRule.SECURE_RULE, "no_coverage"
        self.effective[tx.id] = tx if effective is rule else replace(tx, rule=effective)
        self.rec(tick, "tx_finalized", (TX_FINALIZED, self.effective[tx.id], None), rule_requested=rule.value)
        if reason is not None:
            self.rec(tick, "rule_fallback", tx=tx.id, reason=reason)

        if tx.kind is TxKind.PURE:
            return

        if effective in (ConfirmationRule.IMMEDIATE, ConfirmationRule.INSURED_IMMEDIATE):
            when = tx.offchain_executed_at if tx.offchain_executed_at is not None else tick
            self.push(when, _PH_EXECUTE, tx)
        elif effective is ConfirmationRule.SECURE_RULE:
            decision = decide_secure(tx, self.timeline, self.tp)
            self.rec(tick, "decision", (DECISION, decision, None), tx=tx.id)
            if decision.status is DecisionStatus.CONFIRMED:
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, tx)
            else:
                self.waiting[tx.id] = tx
        else:  # BRIDGE_RULE
            posted = tick
            posts = sorted(
                ev.revealed_at + ev.bridge_post_delay
                for ev in self.timeline.fork_events
                if contests(tx.finalized_at, ev.diverges_from_block_finalized_at)
            )
            decision = decide_bridge(posted, posts, self.tp)
            naive = decide_bridge_naive(posted, posts, self.tp)
            self.rec(tick, "decision", (DECISION, decision, None), (NAIVE_DECISION, naive, None), tx=tx.id)
            if decision.status is DecisionStatus.CONFIRMED:
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, tx)

    def on_execute(self, tick: Tick, tx: TransactionRecord):
        if tx.id in self.reverted:
            self.rec(tick, "execution_cancelled", tx=tx.id)
            return
        if tick > self.timeline.horizon:
            return
        self.executed[tx.id] = tick
        self.rec(tick, "offchain_executed", tx=tx.id)

    # -- forks ----------------------------------------------------------------

    def on_reveal(self, tick: Tick, ev: ForkRevealEvent):
        self.rec(tick, "fork_reveal", (FORK_EVENT, ev, None))
        outcome = resolve(ev, self.tp, self.timeline.validators)
        wins = outcome.reveal_class is RevealClass.AMBIGUOUS_WINDOW and ev.adversary_wins
        self.rec(
            tick,
            "resolution",
            event=ev.id,
            reveal_class=outcome.reveal_class.value,
            slashable=outcome.slashable,
            slashable_stake=frac_str(outcome.slashable_stake),
            canonical_is_first_fork=outcome.canonical_is_first_fork,
            adversary_wins=wins,
        )

        first_new = len(self.reverted_executions)
        if wins:
            for tx in self.timeline.transactions:
                if tx.id in self.reverted:
                    continue
                if not (
                    ev.diverges_from_block_finalized_at < tx.finalized_at < ev.revealed_at
                ):
                    continue
                self.reverted.add(tx.id)
                was_executed = tx.id in self.executed
                self.rec(tick, "tx_reverted", tx=tx.id, executed=was_executed)
                if not was_executed or tx.kind is not TxKind.HYBRID:
                    continue
                self.reverted_executions.append(
                    RevertedExecution(
                        transactor=tx.transactor,
                        covering_epoch=epoch_of(tx.finalized_at, self.tp.t_rev),
                        value=tx.value,
                        insured=self.effective[tx.id].insured,
                    )
                )

        if outcome.slashable:
            self.adversary_validators.update(ev.double_signers)
            harmed = [r for r in self.reverted_executions[first_new:] if r.insured]
            settlement = settle_slash(outcome, self.ledger, harmed=harmed)
            self.rec(tick, "settlement", (SETTLEMENT, settlement, None))
            if settlement.invariant_breach:
                err = InvariantBreachError(
                    f"INVARIANT-BREACH: settlement of {ev.id!r} owes {frac_str(settlement.capped_total)} "
                    f"in capped claims against a budget of {frac_str(settlement.insurance_budget)}; "
                    "coverage was oversold or the insured-execution condition was violated"
                )
                err.trace_records = list(self.records)
                raise err
            if not self.secure_mode:
                self.secure_mode = True
                self.rec(tick, "policy_switch", secure_mode=True, epoch=epoch_of(tick, self.tp.t_rev))

    # -- wrap-up ----------------------------------------------------------------

    def finish(self, horizon: Tick) -> SimTrace:
        # the report reads the run's effective view; rule is not a sort key,
        # so the validated timeline stays valid
        timeline = replace(
            self.timeline, transactions=tuple(self.effective[tx.id] for tx in self.timeline.transactions)
        )
        karma = karma_report(
            self.ledger,
            reverted_executions=self.reverted_executions,
            adversary_validators=sorted(self.adversary_validators),
            adversary_transactors=sorted(self.sc.adversary.transactors),
        )
        trace = SimTrace(self.records, timeline, self.ledger, karma, self.executed, self.reverted)
        trace.report = report_run(trace, self.sc, self.seed, self.bound_kind)
        self.records.append(ReportRecord(horizon, "report", trace.report.doc, report=trace.report))
        return trace


def run(
    scenario: Scenario,
    seed: Optional[int] = None,
    bound_kind: PfcKind = PfcKind.REORG_HYBRID_SECURE_RULE,
) -> SimTrace:
    """Simulate one scenario to its horizon and report on it."""
    return _Run(scenario, scenario.seed if seed is None else seed, bound_kind).run()


def report_run(
    trace: SimTrace,
    scenario: Scenario,
    seed: Optional[int] = None,
    bound_kind: PfcKind = PfcKind.REORG_HYBRID_SECURE_RULE,
) -> ReportDocument:
    """The report `run(scenario, seed, bound_kind)` gives, built from the
    event loop of `trace`: a run of `scenario`, or of one that differs from
    it only on paths the loop does not read (`cli.REPORT_ONLY`).

    The loop's first report, `trace.report`, builds the loop part
    (`report.LoopSections`): every section the loop settles, with its
    encodings. A later report builds only its point part, its labels, its
    `steal_tvl` rung and its verdict, and joins them to that part. The
    part is keyed on the timing and the econ block but `tvl`, so a
    scenario that differs elsewhere gets a part of its own, not a wrong
    report."""
    return build_report(
        trace.timeline,
        trace.ledger,
        scenario.timing,
        scenario.econ,
        trace.karma,
        bound_kind,
        scenario_hash=scenario_hash(scenario),
        seed=scenario.seed if seed is None else seed,
        loop=None if trace.report is None else trace.report.loop,
    )
