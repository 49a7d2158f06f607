"""Coverage auctions, the lot lifecycle, slash settlement, and karma."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stakesim import (
    EconParams,
    ForkRevealEvent,
    InsuranceBid,
    InsuranceLedger,
    InsuranceLot,
    KarmaEntry,
    LotState,
    ResolutionOutcome,
    RevealClass,
    RevertedExecution,
    TimingParams,
    TransactionRecord,
    ValidatorState,
    build_timeline,
    coverage_check,
    karma_report,
    purchase_window_check,
    release_lots,
    run_auction,
    settle_slash,
)
from stakesim.errors import (
    InvariantViolationError,
    NegativeAvailableError,
    SettleOnUnslashableError,
    UnknownTransactorError,
)

from oracles import auction_best_revenue, settle_oracle

TP = TimingParams(t_fin=1, t_rev=10, t_ws=30)
EP = EconParams(
    stake_per_validator=Fraction(32),
    n_validators=4,
    gamma=Fraction(1, 2),
    tvl=Fraction(200),
)


def bid(tr, epoch, cov, rate):
    return InsuranceBid(
        transactor=tr, epoch_placed=epoch, coverage_requested=Fraction(cov), premium_rate=rate
    )


def manual_lot(buyer, covering, coverage, *, rate=Fraction(0), state=LotState.ACTIVE_COVERAGE):
    return InsuranceLot(
        id=f"m-{buyer}-{covering}",
        buyer=buyer,
        coverage=Fraction(coverage),
        premium_rate=rate,
        premium_paid=Fraction(coverage) * rate,
        epoch_placed=covering - 2,
        covering_epoch=covering,
        state=state,
    )


# -- bids and lots ----------------------------------------------------------


def test_bid_validation():
    with pytest.raises(InvariantViolationError):
        bid("a", -1, 5, Fraction(1, 10))
    with pytest.raises(InvariantViolationError):
        bid("a", 0, 0, Fraction(1, 10))
    with pytest.raises(InvariantViolationError):
        bid("a", 0, 5, Fraction(-1, 10))


def test_lot_validation():
    with pytest.raises(InvariantViolationError):
        InsuranceLot(
            id="x", buyer="a", coverage=Fraction(1), premium_rate=Fraction(0),
            premium_paid=Fraction(0), epoch_placed=0, covering_epoch=3,
        )
    with pytest.raises(InvariantViolationError):
        manual_lot("a", 2, 0)
    with pytest.raises(InvariantViolationError):
        InsuranceLot(
            id="x", buyer="a", coverage=Fraction(4), premium_rate=Fraction(0),
            premium_paid=Fraction(0), epoch_placed=0, covering_epoch=2,
            backing={"v1": Fraction(1)},
        )


def test_lot_transitions_are_a_one_way_pipeline():
    lot = manual_lot("a", 2, 5, state=LotState.PENDING)
    lot.transition(LotState.ACTIVE_COVERAGE)
    lot.transition(LotState.RELEASED)
    with pytest.raises(InvariantViolationError):
        lot.transition(LotState.PAID_OUT)
    fresh = manual_lot("a", 2, 5, state=LotState.PENDING)
    with pytest.raises(InvariantViolationError):
        fresh.transition(LotState.RELEASED)


def test_purchase_window_check():
    assert purchase_window_check(bid("a", 4, 5, Fraction(0)), 6)
    assert not purchase_window_check(bid("a", 4, 5, Fraction(0)), 5)
    assert not purchase_window_check(bid("a", 3, 5, Fraction(0)), 7)


# -- auction ----------------------------------------------------------------


def test_auction_worked_example():
    lots = run_auction(
        [bid("A", 0, 10, Fraction(1, 50)), bid("B", 0, 10, Fraction(1, 100))],
        Fraction(15),
    )
    assert [(l.buyer, l.coverage) for l in lots] == [("A", Fraction(10)), ("B", Fraction(5))]
    revenue = sum((l.premium_paid for l in lots), Fraction(0))
    assert revenue == Fraction(1, 4)
    assert revenue == auction_best_revenue([10, 10], [Fraction(1, 50), Fraction(1, 100)], 15)
    assert [l.id for l in lots] == ["lot-e0-0", "lot-e0-1"]
    assert all(l.covering_epoch == 2 and l.state is LotState.PENDING for l in lots)


def test_auction_breaks_rate_ties_by_name_then_submission():
    lots = run_auction(
        [bid("b", 0, 5, Fraction(1, 10)), bid("a", 0, 5, Fraction(1, 10))],
        Fraction(6),
    )
    assert [(l.buyer, l.coverage) for l in lots] == [("a", Fraction(5)), ("b", Fraction(1))]
    dup = run_auction(
        [bid("a", 0, 5, Fraction(1, 10)), bid("a", 0, 5, Fraction(1, 10))],
        Fraction(6),
    )
    assert [l.coverage for l in dup] == [Fraction(5), Fraction(1)]


def test_auction_edge_cases():
    assert run_auction([bid("a", 0, 5, Fraction(1))], Fraction(0)) == []
    with pytest.raises(NegativeAvailableError):
        run_auction([], Fraction(-1))
    with pytest.raises(InvariantViolationError):
        run_auction([bid("a", 0, 5, Fraction(1)), bid("b", 1, 5, Fraction(1))], Fraction(10))


def test_auction_backing_is_pro_rata_over_positive_weights():
    earmark = {"v1": Fraction(10), "v2": Fraction(30), "v3": Fraction(0)}
    (lot,) = run_auction([bid("a", 0, 8, Fraction(1, 10))], Fraction(20), earmark)
    assert lot.backing == {"v1": Fraction(2), "v2": Fraction(6)}
    assert sum(lot.backing.values()) == lot.coverage


def test_greedy_revenue_is_optimal_on_integral_instances(rng):
    for _ in range(200):
        n = rng.randint(1, 3)
        requests = [rng.randint(1, 4) for _ in range(n)]
        rates = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        available = rng.randint(0, 6)
        bids = [bid(f"t{i}", 0, requests[i], rates[i]) for i in range(n)]
        lots = run_auction(bids, Fraction(available))
        revenue = sum((l.premium_paid for l in lots), Fraction(0))
        assert revenue == auction_best_revenue(requests, rates, available)
        assert sum((l.coverage for l in lots), Fraction(0)) <= available


# -- ledger pipeline ---------------------------------------------------------


def quiet_ledger(fork_events=(), transactors=("ins", "other")):
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(32), earmarked_fraction=Fraction(1, 2))
        for i in range(1, 5)
    ]
    tl = build_timeline(horizon=60, fork_events=list(fork_events), validators=vals)
    return InsuranceLedger(tl, TP, EP, transactors=transactors)


def test_available_is_pool_capped_at_gamma_third():
    ledger = quiet_ledger()
    assert ledger.pool_free() == 64
    assert ledger.available(0) == Fraction(64, 3)  # gamma * 128 / 3


def test_sell_rejects_bad_bids():
    ledger = quiet_ledger()
    with pytest.raises(UnknownTransactorError):
        ledger.sell(0, [bid("stranger", 0, 5, Fraction(0))])
    with pytest.raises(InvariantViolationError):
        ledger.sell(0, [bid("ins", 1, 5, Fraction(0))])


def test_sell_locks_backing_and_collects_premiums():
    ledger = quiet_ledger()
    (lot,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    assert lot.covering_epoch == 2
    assert ledger.premiums_paid["ins"] == Fraction(1, 5)
    assert ledger.pool_free() == 54
    assert all(ledger.earmark_free[v] == Fraction(16) - Fraction(10, 4) for v in ledger.earmark_free)
    # coverage is visible immediately, in any state
    assert ledger.u("ins", 2) == 10
    with pytest.raises(UnknownTransactorError):
        ledger.u("stranger", 2)


def test_sell_fills_only_up_to_available():
    ledger = quiet_ledger()
    (lot,) = ledger.sell(0, [bid("ins", 0, 1000, Fraction(1, 50))])
    assert lot.coverage == Fraction(64, 3)


def test_quiet_lifecycle_returns_backing_and_pays_backers():
    ledger = quiet_ledger()
    (lot,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    ledger.activate(2)
    assert lot.state is LotState.ACTIVE_COVERAGE
    assert release_lots(3, ledger) == []  # one epoch early
    released = release_lots(4, ledger)
    assert released == [lot] and lot.state is LotState.RELEASED
    assert ledger.pool_free() == 64
    earned = sum(ledger.premiums_earned.values(), Fraction(0))
    assert earned == Fraction(1, 5)
    assert ledger.premiums_earned["v1"] == Fraction(1, 20)


def test_release_waits_before_covering_epoch_exists():
    ledger = quiet_ledger()
    assert release_lots(0, ledger) == []
    assert release_lots(1, ledger) == []


def slashable_event(id="f", diverges=30, revealed=35, signers=()):
    return ForkRevealEvent(
        id=id,
        diverges_from_block_finalized_at=diverges,
        revealed_at=revealed,
        double_signers=frozenset(signers),
    )


def test_slashable_reveal_in_watch_window_blocks_release():
    # watch window for covering epoch 2 is [20, 40); the reveal at 35 is
    # ambiguous, so the lot must stay locked
    ledger = quiet_ledger(fork_events=[slashable_event()])
    (lot,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    ledger.activate(2)
    assert release_lots(4, ledger) == []
    assert lot.state is LotState.ACTIVE_COVERAGE
    # an unslashable reveal (same tick, zero offset: still pre-finality)
    # does not block
    quiet = quiet_ledger(fork_events=[slashable_event(diverges=35, revealed=35)])
    (lot2,) = quiet.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    quiet.activate(2)
    assert release_lots(4, quiet) == [lot2]


def test_release_after_settlement_needs_every_blocker_settled():
    ledger = quiet_ledger(fork_events=[slashable_event()])
    (lot,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    ledger.activate(2)
    assert ledger.release_after_settlement(2) == []
    # settle "f" with no real signer, so nobody's backing is slashed away
    outcome = ResolutionOutcome(
        event_id="f",
        reveal_class=RevealClass.AMBIGUOUS_WINDOW,
        slashable=True,
        slashable_stake=Fraction(0),
        canonical_is_first_fork=None,
    )
    settle_slash(slashable_event(), outcome, ledger, EP, harmed=[])
    assert ledger.release_after_settlement(2) == [lot]
    assert lot.state is LotState.RELEASED and ledger.pool_free() == 64


# -- insured-execution safety check ------------------------------------------


def insured_tx(id, value, f=21, transactor="ins"):
    return TransactionRecord(
        id=id, transactor=transactor, value=Fraction(value), kind="hybrid",
        finalized_at=f, rule="insured_immediate", insured_epoch=f // TP.t_rev,
    )


def test_coverage_check_is_strict():
    ledger = quiet_ledger()
    ledger.lots.append(manual_lot("ins", 2, 100))
    over = [insured_tx("a", 40), insured_tx("b", 50), insured_tx("c", 20)]
    assert not coverage_check("ins", 2, over, ledger)
    exact = [insured_tx("a", 60), insured_tx("b", 40)]
    assert not coverage_check("ins", 2, exact, ledger)
    under = [insured_tx("a", 59), insured_tx("b", 40)]
    assert coverage_check("ins", 2, under, ledger)
    assert not coverage_check("other", 2, [], ledger)  # no coverage, zero not < zero


def test_coverage_check_preconditions():
    ledger = quiet_ledger()
    ledger.lots.append(manual_lot("ins", 2, 100))
    with pytest.raises(UnknownTransactorError):
        coverage_check("stranger", 2, [], ledger)
    with pytest.raises(InvariantViolationError):
        coverage_check("ins", 2, [insured_tx("a", 5, transactor="other")], ledger)
    with pytest.raises(InvariantViolationError):
        coverage_check("ins", 3, [insured_tx("a", 5)], ledger)  # wrong epoch
    not_insured = TransactionRecord(
        id="s", transactor="ins", value=Fraction(1), kind="hybrid", finalized_at=21, rule="secure"
    )
    with pytest.raises(InvariantViolationError):
        coverage_check("ins", 2, [not_insured], ledger)


# -- settlement ---------------------------------------------------------------


def settle_fixture(*, coverages, gamma=Fraction(2, 3), signers=("v1",)):
    """Ledger with manual active lots; the event's signers are real
    validators so the slash bookkeeping can find them."""
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(90), earmarked_fraction=Fraction(1, 3))
        for i in range(1, 3)
    ]
    ev = slashable_event(signers=signers)
    tl = build_timeline(horizon=60, fork_events=[ev], validators=vals)
    ep = EconParams(
        stake_per_validator=Fraction(90), n_validators=2, gamma=gamma, tvl=Fraction(100)
    )
    ledger = InsuranceLedger(tl, TP, ep, transactors=set(coverages))
    for tr, cov in sorted(coverages.items()):
        ledger.lots.append(manual_lot(tr, 2, cov))
    outcome = ResolutionOutcome(
        event_id="f",
        reveal_class=RevealClass.AMBIGUOUS_WINDOW,
        slashable=True,
        slashable_stake=Fraction(90),
        canonical_is_first_fork=None,
    )
    return ev, outcome, ledger


def harmed(tr, value, epoch=2):
    return RevertedExecution(
        tx_id=f"h-{tr}", transactor=tr, covering_epoch=epoch, value=Fraction(value), insured=True
    )


def test_settlement_single_claim_within_budget():
    ev, outcome, ledger = settle_fixture(coverages={"A": 60})
    rec = settle_slash(ev, outcome, ledger, ledger.ep, harmed=[harmed("A", 50)])
    assert rec.insurance_budget == 60
    assert [(c.harm, c.capped, c.paid) for c in rec.claims] == [(50, 50, 50)]
    assert (rec.paid_total, rec.burned, rec.invariant_breach) == (50, 40, False)
    paid, total, burned, breach = settle_oracle(Fraction(90), Fraction(2, 3), [(50, 60)])
    assert ([c.paid for c in rec.claims], rec.paid_total, rec.burned, rec.invariant_breach) == (
        paid, total, burned, breach
    )


def test_settlement_shortfall_scales_pro_rata_and_flags_breach():
    ev, outcome, ledger = settle_fixture(coverages={"A": 100, "B": 100})
    rec = settle_slash(
        ev, outcome, ledger, ledger.ep, harmed=[harmed("A", 30), harmed("B", 40)]
    )
    assert rec.invariant_breach
    assert [c.paid for c in rec.claims] == [Fraction(180, 7), Fraction(240, 7)]
    assert rec.paid_total == 60 and rec.burned == 30
    oracle = settle_oracle(Fraction(90), Fraction(2, 3), [(30, 100), (40, 100)])
    assert [c.paid for c in rec.claims] == oracle[0]


def test_settlement_with_no_victims_burns_everything():
    ev, outcome, ledger = settle_fixture(coverages={"A": 60})
    rec = settle_slash(ev, outcome, ledger, ledger.ep, harmed=[])
    assert rec.claims == () and rec.paid_total == 0 and rec.burned == 90


def test_settlement_caps_claims_at_coverage_bought():
    ev, outcome, ledger = settle_fixture(coverages={"A": 20})
    rec = settle_slash(ev, outcome, ledger, ledger.ep, harmed=[harmed("A", 50)])
    assert [(c.harm, c.capped, c.paid) for c in rec.claims] == [(50, 20, 20)]
    assert rec.burned == 70


def test_settlement_books_the_slash_and_pays_out_lots():
    ev, outcome, ledger = settle_fixture(coverages={"A": 60})
    lot = ledger.lots[0]
    settle_slash(ev, outcome, ledger, ledger.ep, harmed=[harmed("A", 50)])
    assert ledger.slashed_amounts == {"v1": 90}
    assert ledger.earmark_free["v1"] == 0
    assert lot.state is LotState.PAID_OUT
    (rec,) = ledger.settlements
    assert (rec.event_id, rec.paid_total, rec.burned) == ("f", 50, 40)


def test_settle_requires_a_slashable_outcome():
    ev, outcome, ledger = settle_fixture(coverages={"A": 60})
    pre = ResolutionOutcome(
        event_id="f",
        reveal_class=RevealClass.PRE_FINALITY,
        slashable=False,
        slashable_stake=Fraction(0),
        canonical_is_first_fork=None,
    )
    with pytest.raises(SettleOnUnslashableError):
        settle_slash(ev, pre, ledger, ledger.ep, harmed=[])
    wrong_id = ResolutionOutcome(
        event_id="other",
        reveal_class=RevealClass.AMBIGUOUS_WINDOW,
        slashable=True,
        slashable_stake=Fraction(90),
        canonical_is_first_fork=None,
    )
    with pytest.raises(SettleOnUnslashableError):
        settle_slash(ev, wrong_id, ledger, ledger.ep, harmed=[])


def test_settlement_conservation_randomized(rng):
    for _ in range(400):
        gamma = Fraction(rng.randint(0, 4), 4)
        n = rng.randint(0, 3)
        coverages = {f"T{i}": rng.randint(1, 40) for i in range(n)}
        ev, outcome, ledger = settle_fixture(coverages=coverages or {"T0": 1}, gamma=gamma)
        harms = [harmed(f"T{i}", rng.randint(1, 60)) for i in range(n)]
        rec = settle_slash(ev, outcome, ledger, ledger.ep, harmed=harms)
        assert rec.paid_total + rec.burned == rec.slashed == 90
        assert rec.paid_total <= gamma * rec.slashed
        assert rec.burned >= (1 - gamma) * rec.slashed
        claims = [(Fraction(h.value), Fraction(coverages[h.transactor])) for h in harms]
        paid, total, burned, breach = settle_oracle(Fraction(90), gamma, claims)
        assert [c.paid for c in rec.claims] == paid
        assert (rec.paid_total, rec.burned, rec.invariant_breach) == (total, burned, breach)


def test_slashed_backing_never_returns_to_the_pool():
    ledger = quiet_ledger(fork_events=[slashable_event(signers=("v1",))])
    (lot,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    ledger.activate(2)
    outcome = ResolutionOutcome(
        event_id="f",
        reveal_class=RevealClass.AMBIGUOUS_WINDOW,
        slashable=True,
        slashable_stake=Fraction(32),
        canonical_is_first_fork=None,
    )
    settle_slash(slashable_event(signers=("v1",)), outcome, ledger, EP, harmed=[])
    released = ledger.release_after_settlement(2)
    assert released == [lot]
    # v1's whole earmark is slashed away, backing share included; the other
    # three get their full sixteen back
    assert ledger.earmark_free["v1"] == 0
    assert ledger.earmark_free["v2"] == 16
    assert ledger.pool_free() == 48


# -- karma --------------------------------------------------------------------


def test_karma_entry_net_formula():
    e = KarmaEntry(
        party="p",
        premiums_paid=Fraction(2),
        premiums_earned=Fraction(5),
        compensation=Fraction(7),
        harm=Fraction(3),
        slashed=Fraction(11),
    )
    assert e.net == 5 - 2 + 7 - 3 - 11


def test_karma_quiet_run_moves_only_premiums():
    ledger = quiet_ledger()
    ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    ledger.activate(2)
    release_lots(4, ledger)
    summary = karma_report(ledger)
    assert summary.adversary_net == 0 and summary.double_spend_gain == 0
    entries = {e.party: e for e in summary.entries}
    assert entries["ins"].net == -Fraction(1, 5)
    assert entries["v1"].net == Fraction(1, 20)
    assert ledger.settlements == []
    nets = sum((e.net for e in summary.entries), Fraction(0))
    assert nets == 0  # premiums just move between parties


def test_karma_attack_makes_insured_victim_whole():
    ev, outcome, ledger = settle_fixture(coverages={"A": 60}, signers=("v1",))
    reverted = [harmed("A", 50)]
    settle_slash(ev, outcome, ledger, ledger.ep, harmed=reverted)
    summary = karma_report(
        ledger,
        reverted_executions=reverted,
        adversary_validators=("v1",),
    )
    victim = {e.party: e for e in summary.entries}["A"]
    assert victim.compensation == victim.harm == 50
    assert victim.net == 0  # no premiums were paid through this manual ledger
    assert summary.double_spend_gain == 50
    # the adversary validator lost its 90 stake and gained the double spend
    assert summary.adversary_parties == frozenset({"v1"})
    assert summary.adversary_net == -90 + 50
    (rec,) = ledger.settlements
    assert (rec.slashed, rec.paid_total, rec.burned) == (90, 50, 40)
