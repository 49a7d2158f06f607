"""Deterministic discrete-event simulation of one scenario.

Single-threaded loop over a ticket heap keyed by (tick, phase, sequence).
Within one epoch the phases run: lot release and activation, then the
coverage auction, then per-tick transaction finalizations, scheduled
off-chain executions and fork reveals. The heap holds only the epochs where
the engine can act: epoch 0, every epoch with a bid, the attack-over epoch,
and, pushed by each auction, the epoch its lots cover and the epoch they
release at; under a grieving buyout, whose buyer bids in every epoch, each
epoch schedules the next. Every other epoch is quiet. The loop writes each
epoch's `epoch_start` record, in order, before the first event it pops in
or after that epoch (or at the end of the run), so the trace holds one per
epoch, visited or quiet. A slashable reveal settles its slash immediately,
which holds the lots active at that moment, and flips every transactor to
the secure rule until the scenario's scripted attack-over epoch, which
releases the held lots.

Identical (scenario, seed) pairs produce byte-identical traces: iteration
only ever walks sorted structures and nothing is sampled. The seed only
labels the run_start record and the report.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Iterator, Optional

from .chain import (
    ConfirmationRule,
    EpochIndex,
    ForkRevealEvent,
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
from .econ import PfcKind
from .errors import InvariantBreachError, ScenarioError, StakesimError
from .insurance import (
    PURCHASE_LEAD_EPOCHS,
    RELEASE_LAG_EPOCHS,
    InsuranceBid,
    InsuranceLedger,
    InsuranceLot,
    RevertedExecution,
    coverage_check,
    karma_report,
    release_lots,
    settle_slash,
)
from .policies import StrategyKind
from .rational import frac_str, ratio_str
from .report import ReportDocument, build_report, settlement_doc
from .resolution import RevealClass, resolve
from .scenario import (
    SLOT,
    ForkEventMeta,
    Scenario,
    canonical_json,
    canonical_object,
    canonical_template,
    econ_to_doc,
    scenario_hash,
    strategy_events,
    timing_to_doc,
)
from .version import SCHEMA_VERSION, __version__

_PH_EPOCH, _PH_FINALIZE, _PH_EXECUTE, _PH_REVEAL = 0, 1, 2, 3

# an `epoch_start` line, cut around its epoch and its tick (the keys sort
# epoch, kind, tick)
_EPOCH_START_CUT = canonical_template({"tick": SLOT, "kind": "epoch_start", "epoch": SLOT})


@dataclass(frozen=True)
class TraceRecord:
    tick: Tick
    kind: str
    payload: dict

    def to_line(self) -> str:
        return canonical_json({"tick": self.tick, "kind": self.kind, **self.payload})


@dataclass(frozen=True)
class ReportRecord(TraceRecord):
    """The trace's `report` record: its payload is the report document, and
    its line is joined from the fields the report encoded for report.json."""

    report: ReportDocument = field(repr=False, compare=False)

    def to_line(self) -> str:
        head = {"tick": canonical_json(self.tick), "kind": canonical_json(self.kind)}
        return canonical_object({**head, **self.report.fields})


@dataclass(frozen=True)
class EpochStartRecord(TraceRecord):
    """An `epoch_start` record, whose line is its two integers set into
    one template."""

    def to_line(self) -> str:
        epoch_at, tick_at, end = _EPOCH_START_CUT
        return f"{epoch_at}{self.payload['epoch']}{tick_at}{self.tick}{end}"


@dataclass
class SimTrace:
    """Ordered event log plus the final report."""

    records: list[TraceRecord]
    report: ReportDocument
    ledger: InsuranceLedger
    executed: dict[str, Tick]
    reverted: set[str]

    def to_lines(self) -> list[str]:
        return [r.to_line() for r in self.records]


def _lot_ref(lot: InsuranceLot) -> dict:
    return {"id": lot.id, "buyer": lot.buyer, "coverage": frac_str(lot.coverage)}


def _backing_doc(lot: InsuranceLot) -> dict[str, str]:
    """The lot's backing, each amount written from the integers its share
    map gives."""
    return {v: ratio_str(n, d) for v, n, d in lot.backers.backing(lot.coverage)}


class _Run:
    """Mutable state of one simulation run."""

    def __init__(self, sc: Scenario, seed: int, bound_kind: PfcKind):
        self.sc = sc
        self.seed = seed
        self.bound_kind = bound_kind
        self.tp = sc.timing
        self.ep = sc.econ

        extra, self.probe_log = strategy_events(sc)
        self.timeline = build_timeline(
            horizon=sc.timeline.horizon,
            transactions=sc.timeline.transactions,
            fork_events=list(sc.timeline.fork_events) + extra,
            validators=sc.timeline.validators,
        )
        self.ledger = InsuranceLedger(self.timeline, self.ep, transactors=sc.transactors())
        self.bids_by_epoch: dict[EpochIndex, list[InsuranceBid]] = {}
        for b in sc.bids:
            self.bids_by_epoch.setdefault(b.epoch_placed, []).append(b)

        self.records: list[TraceRecord] = []
        self.effective_rule: dict[str, ConfirmationRule] = {}
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

    # -- plumbing ---------------------------------------------------------

    def rec(self, tick: Tick, kind: str, **payload):
        self.records.append(TraceRecord(tick=tick, kind=kind, payload=payload))

    def push(self, tick: Tick, phase: int, payload: Any):
        self._seq += 1
        heapq.heappush(self._heap, (tick, phase, self._seq, payload))

    def schedule_epoch(self, e: EpochIndex):
        """Put epoch `e` on the heap, once, if it starts by the horizon."""
        start = epoch_bounds(e, self.tp.t_rev)[0]
        if e not in self._scheduled and start <= self.timeline.horizon:
            self._scheduled.add(e)
            self.push(start, _PH_EPOCH, e)

    def write_epoch_starts(self, first: EpochIndex, stop: EpochIndex):
        """Append the `epoch_start` records of epochs `first` to `stop - 1`."""
        t_rev = self.tp.t_rev
        self.records.extend(EpochStartRecord(e * t_rev, "epoch_start", {"epoch": e}) for e in range(first, stop))

    # -- run --------------------------------------------------------------

    def run(self) -> SimTrace:
        sc, tp = self.sc, self.tp
        horizon = self.timeline.horizon
        self.rec(
            0,
            "run_start",
            schema_version=SCHEMA_VERSION,
            tool_version=__version__,
            scenario_hash=scenario_hash(sc),
            seed=self.seed,
            horizon=horizon,
            timing=timing_to_doc(tp),
            econ=econ_to_doc(self.ep),
        )
        if self.probe_log is not None:
            self.rec(0, "bribery_probe", **self.probe_log)

        for e in (0, *self.bids_by_epoch, sc.attack_over_epoch):
            if e is not None:
                self.schedule_epoch(e)
        for tx in self.timeline.transactions:
            self.push(tx.finalized_at, _PH_FINALIZE, tx)
        for ev in self.timeline.fork_events:
            self.push(ev.revealed_at, _PH_REVEAL, ev)

        t_rev = tp.t_rev
        last = epoch_of(horizon, t_rev)
        heap, pop = self._heap, heapq.heappop
        handlers = (self.on_epoch, self.on_finalize, self.on_execute, self.on_reveal)
        written = next_start = 0  # epochs before `written` have their record; `next_start` starts it
        while heap:
            tick, phase, _, payload = pop(heap)
            if tick >= next_start:
                # the epochs started by this event's tick and by the horizon
                stop = min(epoch_of(tick, t_rev), last) + 1
                self.write_epoch_starts(written, stop)
                written, next_start = stop, stop * t_rev
            handlers[phase](tick, payload)
        self.write_epoch_starts(written, last + 1)

        return self.finish(horizon)

    # -- epoch boundary -----------------------------------------------------

    def on_epoch(self, tick: Tick, e: EpochIndex):
        released = release_lots(e, self.ledger)
        if released:
            self.rec(tick, "released", epoch=e, lots=[_lot_ref(l) for l in released])

        self.ledger.activate(e)

        bids = self.bids_by_epoch.get(e, [])
        if self.sc.strategy.kind is StrategyKind.GRIEVING_BUYOUT:
            self.schedule_epoch(e + 1)
            buyer = min(self.sc.adversary_transactors) if self.sc.adversary_transactors else None
            avail = self.ledger.available()
            if buyer is not None and avail > 0:
                bids = bids + [
                    InsuranceBid(
                        transactor=buyer,
                        epoch_placed=e,
                        coverage_requested=avail,
                        premium_rate=self.sc.strategy.premium_rate,
                    )
                ]
        if bids:
            avail = self.ledger.available()
            lots = self.ledger.sell(e, bids)
            # the epoch the lots cover activates them, and they release two later
            self.schedule_epoch(e + PURCHASE_LEAD_EPOCHS)
            self.schedule_epoch(e + PURCHASE_LEAD_EPOCHS + RELEASE_LAG_EPOCHS)
            self.rec(
                tick,
                "auction",
                epoch=e,
                available=frac_str(avail),
                lots=[
                    {
                        **_lot_ref(l),
                        "premium_rate": frac_str(l.premium_rate),
                        "premium_paid": frac_str(l.premium_paid),
                        "covering_epoch": l.covering_epoch,
                        "backing": _backing_doc(l),
                    }
                    for l in lots
                ],
            )

        if self.sc.attack_over_epoch is not None and e == self.sc.attack_over_epoch:
            if self.secure_mode:
                self.secure_mode = False
                self.rec(tick, "policy_switch", secure_mode=False, epoch=e)
            for lot in self.ledger.end_attack(e - RELEASE_LAG_EPOCHS):
                self.rec(tick, "released", epoch=e, lots=[_lot_ref(lot)])
            self.reevaluate_waiting(tick)

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
            elif rule is ConfirmationRule.INSURED_IMMEDIATE:
                e = epoch_of(tick, self.tp.t_rev)
                key = (tx.transactor, e)
                tentative = self.committed_insured.get(key, []) + [tx]
                if not coverage_check(tx.transactor, e, tentative, self.ledger.u(tx.transactor, e), self.tp.t_rev):
                    effective, reason = ConfirmationRule.SECURE_RULE, "no_coverage"
        self.effective_rule[tx.id] = effective
        self.rec(
            tick,
            "tx_finalized",
            id=tx.id,
            transactor=tx.transactor,
            value=frac_str(tx.value),
            tx_kind=tx.kind.value,
            rule_requested=rule.value,
            rule_effective=effective.value,
            insured_epoch=tx.insured_epoch,
        )
        if reason is not None:
            self.rec(tick, "rule_fallback", tx=tx.id, from_rule=rule.value, to_rule=effective.value, reason=reason)

        if tx.kind is TxKind.PURE:
            return

        if effective in (ConfirmationRule.IMMEDIATE, ConfirmationRule.INSURED_IMMEDIATE):
            if effective is ConfirmationRule.INSURED_IMMEDIATE:
                key = (tx.transactor, epoch_of(tick, self.tp.t_rev))
                self.committed_insured.setdefault(key, []).append(tx)
            when = tx.offchain_executed_at if tx.offchain_executed_at is not None else tick
            self.push(when, _PH_EXECUTE, tx)
        elif effective is ConfirmationRule.SECURE_RULE:
            decision = decide_secure(tx, self.timeline, self.tp)
            self.rec(
                tick,
                "decision",
                tx=tx.id,
                rule=ConfirmationRule.SECURE_RULE.value,
                status=decision.status.value,
                earliest=decision.earliest_offchain_tick,
            )
            if decision.status is DecisionStatus.CONFIRMED:
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, tx)
            else:
                self.waiting[tx.id] = tx
        else:  # BRIDGE_RULE
            posted = tick
            posts = sorted(
                ev.revealed_at + self.sc.fork_meta.get(ev.id, ForkEventMeta()).bridge_post_delay
                for ev in self.timeline.fork_events
                if contests(tx.finalized_at, ev.diverges_from_block_finalized_at)
            )
            decision = decide_bridge(posted, posts, self.tp)
            naive = decide_bridge_naive(posted, posts, self.tp)
            self.rec(
                tick,
                "decision",
                tx=tx.id,
                rule=ConfirmationRule.BRIDGE_RULE.value,
                status=decision.status.value,
                earliest=decision.earliest_offchain_tick,
                naive_status=naive.status.value,
                naive_earliest=naive.earliest_offchain_tick,
            )
            if decision.status is DecisionStatus.CONFIRMED:
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, tx)

    def on_execute(self, tick: Tick, tx: TransactionRecord):
        if tx.id in self.reverted:
            self.rec(tick, "execution_cancelled", tx=tx.id)
            return
        if tick > self.timeline.horizon:
            return
        self.executed[tx.id] = tick
        self.rec(tick, "offchain_executed", tx=tx.id, rule=self.effective_rule[tx.id].value)

    # -- forks ----------------------------------------------------------------

    def on_reveal(self, tick: Tick, ev: ForkRevealEvent):
        self.rec(
            tick,
            "fork_reveal",
            id=ev.id,
            diverges_from=ev.diverges_from_block_finalized_at,
            revealed_at=ev.revealed_at,
            double_signers=sorted(ev.double_signers),
            double_signer_stake=frac_str(ev.double_signer_stake),
        )
        outcome = resolve(ev, self.tp, self.timeline.validators)
        meta = self.sc.fork_meta.get(ev.id, ForkEventMeta())
        wins = outcome.reveal_class is RevealClass.AMBIGUOUS_WINDOW and meta.adversary_wins
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
                effective = self.effective_rule.get(tx.id, tx.rule)
                self.reverted_executions.append(
                    RevertedExecution(
                        tx_id=tx.id,
                        transactor=tx.transactor,
                        covering_epoch=epoch_of(tx.finalized_at, self.tp.t_rev),
                        value=tx.value,
                        insured=effective is ConfirmationRule.INSURED_IMMEDIATE,
                    )
                )

        if outcome.slashable:
            self.adversary_validators.update(ev.double_signers)
            harmed = [r for r in self.reverted_executions[first_new:] if r.insured]
            settlement = settle_slash(outcome, self.ledger, harmed=harmed)
            self.rec(tick, "settlement", **settlement_doc(settlement))
            if settlement.invariant_breach:
                owed = sum((c.capped for c in settlement.claims), Fraction(0))
                err = InvariantBreachError(
                    f"INVARIANT-BREACH: settlement of {ev.id!r} owes {frac_str(owed)} "
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
        # rule is not a sort key, so the validated timeline stays valid
        # the ledger follows the run's effective view from here on; only a
        # transaction whose rule fell back is rebuilt
        self.ledger.timeline = replace(
            self.timeline,
            transactions=tuple(
                tx
                if (rule := self.effective_rule.get(tx.id, tx.rule)) is tx.rule
                else replace(tx, rule=rule)
                for tx in self.timeline.transactions
            ),
        )

        karma = karma_report(
            self.ledger,
            reverted_executions=self.reverted_executions,
            adversary_validators=sorted(self.adversary_validators),
            adversary_transactors=sorted(self.sc.adversary_transactors),
        )
        report = build_report(
            self.ledger,
            self.tp,
            karma,
            self.bound_kind,
            scenario_hash=scenario_hash(self.sc),
            seed=self.seed,
        )
        self.rec(horizon, "karma", **report.doc["karma"])
        self.records.append(ReportRecord(horizon, "report", report.doc, report))
        return SimTrace(
            records=self.records,
            report=report,
            ledger=self.ledger,
            executed=self.executed,
            reverted=self.reverted,
        )


def run(
    scenario: Scenario,
    seed: Optional[int] = None,
    bound_kind: PfcKind = PfcKind.REORG_HYBRID_SECURE_RULE,
) -> SimTrace:
    """Simulate one scenario to its horizon and report on it."""
    actual_seed = scenario.seed if seed is None else seed
    return _Run(scenario, actual_seed, bound_kind).run()


def _set_path(doc: Any, path: str, value: Any, source: str) -> None:
    """Set dotted `path` in a scenario document, creating missing objects."""
    node, where = doc, source
    *parents, leaf = path.split(".")
    for key in parents:
        if not isinstance(node, dict):
            break
        node = node.setdefault(key, {})
        where = f"{where}.{key}"
    if not isinstance(node, dict):
        raise ScenarioError(f"cannot set {path!r} inside a non-object", path=where)
    node[leaf] = value


def sweep_point(
    template_doc: dict,
    keys: list[str],
    seed: Optional[int],
    bound_kind: PfcKind,
    job: tuple[int, tuple],
) -> dict:
    """Run grid point `job` = (n, combo): the template with each dotted path
    in `keys` set to its value in `combo`.

    Returns {"point", "overrides", "ok", "error", "report"}. A domain error
    (StakesimError) is kept as the point's `error`, with no report; any
    other exception is a bug and propagates. The template is copied, never
    edited, so points can run in any order or process.
    """
    from .scenario import parse_scenario

    n, combo = job
    report = error = None
    overrides = dict(zip(keys, combo))
    doc = copy.deepcopy(template_doc)
    source = f"<sweep point {n}>"
    try:
        for path, value in overrides.items():
            _set_path(doc, path, value, source)
        sc = parse_scenario(doc, source=source)
        report = run(sc, seed=seed, bound_kind=bound_kind).report
    except StakesimError as exc:  # record, keep sweeping
        error = f"{type(exc).__name__}: {exc}"
    return {"point": n, "overrides": overrides, "ok": error is None, "error": error, "report": report}


def sweep_jobs(grid: dict[str, list]) -> Iterator[tuple[int, tuple]]:
    """The grid's points as (n, combo) in sweep order: keys as given,
    values in listed order, rightmost fastest."""
    return enumerate(itertools.product(*grid.values()))


def sweep(
    template_doc: dict,
    grid: dict[str, list],
    seed: Optional[int] = None,
    bound_kind: PfcKind = PfcKind.REORG_HYBRID_SECURE_RULE,
) -> Iterator[dict]:
    """Run the template once per grid point, overriding dotted parameters,
    and yield each point's `sweep_point` result as it finishes.

    Grid keys look like "econ.gamma" or "timing.t_rev"; values are lists.
    Points run one after another in this process, in `sweep_jobs` order. A
    point keeps only its report, so a consumer that drops each point before
    asking for the next holds one report at a time. A point that fails with
    a domain error is yielded with its error and does not abort the sweep;
    any other exception is a bug and propagates. The `stakesim sweep` verb
    makes the same `sweep_point` calls on a pool of worker processes.
    """
    keys = list(grid)
    for job in sweep_jobs(grid):
        yield sweep_point(template_doc, keys, seed, bound_kind, job)
