"""Deterministic discrete-event simulation of one scenario.

Single-threaded loop over a ticket heap keyed by (tick, phase, sequence).
Within one epoch the phases run: lot release and activation, then the
coverage auction, then per-tick transaction finalizations, scheduled
off-chain executions and fork reveals. A slashable reveal settles its slash
immediately and flips every transactor to the secure rule until the
scenario's scripted attack-over epoch.

Identical (scenario, seed) pairs produce byte-identical traces: iteration
only ever walks sorted structures and nothing is sampled. The seed only
labels the run_start record and the report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Optional

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EpochIndex,
    ForkRevealEvent,
    Tick,
    TransactionRecord,
    TxKind,
    ValidatorState,
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
from .econ import Mechanism, PfcKind, bribe_is_dominant
from .errors import InvariantBreachError, InvariantViolationError, ScenarioError, StakesimError
from .insurance import (
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
from .rational import frac_str
from .report import ReportDocument, build_report, settlement_doc
from .resolution import RevealClass, resolve
from .scenario import (
    ForkEventMeta,
    Scenario,
    canonical_json,
    econ_to_doc,
    scenario_hash,
    timing_to_doc,
)
from .version import SCHEMA_VERSION, __version__

_PH_EPOCH, _PH_FINALIZE, _PH_EXECUTE, _PH_REVEAL = 0, 1, 2, 3


@dataclass(frozen=True)
class TraceRecord:
    tick: Tick
    kind: str
    payload: dict

    def to_line(self) -> str:
        return canonical_json({"tick": self.tick, "kind": self.kind, **self.payload})


@dataclass
class SimTrace:
    """Ordered event log plus the final report."""

    records: list[TraceRecord]
    report: ReportDocument
    effective_timeline: ChainTimeline
    ledger: InsuranceLedger
    executed: dict[str, Tick]
    reverted: set[str]

    def to_lines(self) -> list[str]:
        return [r.to_line() for r in self.records]


def _lot_ref(lot: InsuranceLot) -> dict:
    return {"id": lot.id, "buyer": lot.buyer, "coverage": frac_str(lot.coverage)}


def _select_signers(validators: tuple[ValidatorState, ...], fraction: Fraction) -> frozenset[str]:
    """Smallest id-ordered prefix of validators holding >= fraction of stake."""
    total = sum((v.stake for v in validators), Fraction(0))
    target = fraction * total
    acc = Fraction(0)
    chosen = []
    for v in validators:  # already sorted by id
        chosen.append(v.id)
        acc += v.stake
        if acc >= target:
            break
    if acc * 3 <= total:
        raise InvariantViolationError(
            f"adversary controls {acc} of {total}, not enough to equivocate"
        )
    return frozenset(chosen)


_ATTACK_EVENT_IDS = {
    StrategyKind.DOUBLE_SIGN_AT: "atk-double-sign",
    StrategyKind.LONG_RANGE_AT: "atk-long-range",
    StrategyKind.GRIEVING_BUYOUT: "atk-grieving",
    StrategyKind.BRIBERY_PROBE: "atk-bribery",
}


def _strategy_events(
    sc: Scenario,
) -> tuple[list[ForkRevealEvent], dict[str, ForkEventMeta], Optional[dict]]:
    """Forge the adversary's scripted fork reveal, if its strategy has one.

    Returns (events, their meta, optional probe log payload).
    """
    st = sc.strategy
    tp = sc.timing
    validators = sc.timeline.validators
    log = None
    if st.kind is StrategyKind.NONE:
        return [], {}, None

    if st.kind is StrategyKind.BRIBERY_PROBE:
        # attack only if the bribe schedule actually dominates
        ep_probe = replace(sc.econ, bribe_fail=st.bribe_fail, bribe_success=st.bribe_success)
        mech = Mechanism(st.mechanism)
        dominant = bribe_is_dominant(mech, ep_probe)
        log = {
            "mechanism": mech.value,
            "bribe_fail": frac_str(st.bribe_fail),
            "bribe_success": frac_str(st.bribe_success),
            "dominant": dominant,
            "attack_proceeds": dominant,
        }
        if not dominant:
            return [], {}, log

    if st.kind is StrategyKind.GRIEVING_BUYOUT:
        # every controlled validator double-signs in the scripted epoch's
        # ambiguous window; the buyout itself happens at auction time
        t0 = epoch_bounds(st.attack_epoch, tp.t_rev)[0]
        revealed, signers = t0 + tp.t_fin, frozenset(v.id for v in validators)
    elif st.kind is StrategyKind.LONG_RANGE_AT:
        t0, revealed, signers = st.target_t0, st.tick, st.exited_set
    else:  # DOUBLE_SIGN_AT, or a dominant BRIBERY_PROBE
        t0, revealed, signers = st.target_t0, st.tick, _select_signers(validators, st.stake_fraction)
    ev = ForkRevealEvent(
        id=_ATTACK_EVENT_IDS[st.kind],
        diverges_from_block_finalized_at=t0,
        revealed_at=revealed,
        double_signers=signers,
    )
    return [ev], {ev.id: ForkEventMeta(adversary_wins=True)}, log


class _Run:
    """Mutable state of one simulation run."""

    def __init__(self, sc: Scenario, seed: int, bound_kind: PfcKind):
        self.sc = sc
        self.seed = seed
        self.bound_kind = bound_kind
        self.tp = sc.timing
        self.ep = sc.econ

        extra, extra_meta, self.probe_log = _strategy_events(sc)
        self.fork_meta = dict(sc.fork_meta)
        self.fork_meta.update(extra_meta)
        self.timeline = build_timeline(
            horizon=sc.timeline.horizon,
            transactions=sc.timeline.transactions,
            fork_events=list(sc.timeline.fork_events) + extra,
            validators=sc.timeline.validators,
        )
        self.ledger = InsuranceLedger(self.timeline, self.tp, self.ep, transactors=sc.transactors())

        self.records: list[TraceRecord] = []
        self.effective_rule: dict[str, ConfirmationRule] = {}
        self.committed_insured: dict[tuple[str, EpochIndex], list[TransactionRecord]] = {}
        self.executed: dict[str, Tick] = {}
        self.reverted: set[str] = set()
        self.waiting: dict[str, TransactionRecord] = {}
        self.reverted_executions: list[RevertedExecution] = []
        self.secure_mode = False
        self.attack_over_passed = False
        self.adversary_validators: set[str] = set()
        self._seq = 0
        self._heap: list[tuple[int, int, int, str, Any]] = []

    # -- plumbing ---------------------------------------------------------

    def rec(self, tick: Tick, kind: str, **payload):
        self.records.append(TraceRecord(tick=tick, kind=kind, payload=payload))

    def push(self, tick: Tick, phase: int, kind: str, payload: Any):
        self._seq += 1
        heapq.heappush(self._heap, (tick, phase, self._seq, kind, payload))

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

        last_epoch = epoch_of(horizon, tp.t_rev)
        for e in range(last_epoch + 1):  # epoch e starts at e * t_rev <= horizon
            self.push(epoch_bounds(e, tp.t_rev)[0], _PH_EPOCH, "epoch", e)
        for tx in self.timeline.transactions:
            self.push(tx.finalized_at, _PH_FINALIZE, "finalize", tx)
        for ev in self.timeline.fork_events:
            self.push(ev.revealed_at, _PH_REVEAL, "reveal", ev)

        while self._heap:
            tick, phase, _, kind, payload = heapq.heappop(self._heap)
            if kind == "epoch":
                self.on_epoch(tick, payload)
            elif kind == "finalize":
                self.on_finalize(tick, payload)
            elif kind == "execute":
                self.on_execute(tick, payload)
            elif kind == "reveal":
                self.on_reveal(tick, payload)

        return self.finish(horizon)

    # -- epoch boundary -----------------------------------------------------

    def on_epoch(self, tick: Tick, e: EpochIndex):
        self.rec(tick, "epoch_start", epoch=e)

        released = release_lots(e, self.ledger)
        if self.attack_over_passed and e - 2 >= 0:
            released += self.ledger.release_after_settlement(e - 2)
        if released:
            self.rec(tick, "released", epoch=e, lots=[_lot_ref(l) for l in released])

        self.ledger.activate(e)

        bids = [b for b in self.sc.bids if b.epoch_placed == e]
        if self.sc.strategy.kind is StrategyKind.GRIEVING_BUYOUT:
            buyer = min(self.sc.adversary_transactors) if self.sc.adversary_transactors else None
            avail = self.ledger.available(e)
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
            avail = self.ledger.available(e)
            lots = self.ledger.sell(e, bids)
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
                        "backing": {v: frac_str(a) for v, a in sorted(l.backing.items())},
                    }
                    for l in lots
                ],
            )

        if self.sc.attack_over_epoch is not None and e == self.sc.attack_over_epoch:
            self.attack_over_passed = True
            if self.secure_mode:
                self.secure_mode = False
                self.rec(tick, "policy_switch", secure_mode=False, epoch=e)
            for c in range(0, max(e - 1, 0)):
                for lot in self.ledger.release_after_settlement(c):
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
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, "execute", tx)

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
                if not coverage_check(tx.transactor, e, tentative, self.ledger):
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
            self.push(when, _PH_EXECUTE, "execute", tx)
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
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, "execute", tx)
            else:
                self.waiting[tx.id] = tx
        else:  # BRIDGE_RULE
            posted = tick
            posts = sorted(
                ev.revealed_at + self.fork_meta.get(ev.id, ForkEventMeta()).bridge_post_delay
                for ev in self.timeline.fork_events
                if contests(tx.finalized_at, ev.diverges_from_block_finalized_at)
            )
            decision = decide_bridge(posted, posts, self.tp, tx_id=tx.id)
            naive = decide_bridge_naive(posted, posts, self.tp, tx_id=tx.id)
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
                self.push(decision.earliest_offchain_tick, _PH_EXECUTE, "execute", tx)

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
        meta = self.fork_meta.get(ev.id, ForkEventMeta())
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
            settlement = settle_slash(ev, outcome, self.ledger, self.ep, harmed=harmed)
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
        effective_timeline = replace(
            self.timeline,
            transactions=tuple(
                replace(tx, rule=self.effective_rule.get(tx.id, tx.rule))
                for tx in self.timeline.transactions
            ),
        )
        # the ledger follows the run's effective view from here on
        self.ledger.timeline = effective_timeline

        karma = karma_report(
            self.ledger,
            reverted_executions=self.reverted_executions,
            adversary_validators=sorted(self.adversary_validators),
            adversary_transactors=sorted(self.sc.adversary_transactors),
        )
        report = build_report(
            self.ledger,
            karma,
            self.bound_kind,
            scenario_hash=scenario_hash(self.sc),
            seed=self.seed,
        )
        self.rec(horizon, "karma", **report.doc["karma"])
        self.rec(horizon, "report", **report.doc)
        return SimTrace(
            records=self.records,
            report=report,
            effective_timeline=effective_timeline,
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


def sweep(
    template_doc: dict,
    grid: dict[str, list],
    seed: Optional[int] = None,
    bound_kind: PfcKind = PfcKind.REORG_HYBRID_SECURE_RULE,
) -> list[dict]:
    """Run the template once per grid point, overriding dotted parameters.

    Grid keys look like "econ.gamma" or "timing.t_rev"; values are lists.
    Points are visited in deterministic order (keys as given, values in
    listed order, rightmost fastest). A point that fails with a domain
    error is recorded with its error and does not abort the sweep; any
    other exception is a bug and propagates.
    """
    import copy
    import itertools

    from .scenario import parse_scenario

    keys = list(grid.keys())
    results = []
    for n, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        overrides = dict(zip(keys, combo))
        doc = copy.deepcopy(template_doc)
        source = f"<sweep point {n}>"
        try:
            for path, value in overrides.items():
                _set_path(doc, path, value, source)
            sc = parse_scenario(doc, source=source)
            trace = run(sc, seed=seed, bound_kind=bound_kind)
            results.append(
                {
                    "point": n,
                    "overrides": overrides,
                    "ok": True,
                    "error": None,
                    "report": trace.report.doc,
                }
            )
        except StakesimError as exc:  # record, keep sweeping
            results.append(
                {
                    "point": n,
                    "overrides": overrides,
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "report": None,
                }
            )
    return results
