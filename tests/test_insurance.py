"""Coverage auctions, the lot lifecycle, slash settlement, and karma."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

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
    frac_str,
    karma_report,
    release_lots,
    resolve,
    run_auction,
    settle_slash,
)
from stakesim import engine
from stakesim.errors import (
    InvariantViolationError,
    NegativeAvailableError,
    SettleOnUnslashableError,
    UnknownTransactorError,
)

from oracles import LedgerOracle, auction_best_revenue, settle_oracle

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
        epoch_placed=covering - 2,
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
        manual_lot("a", 2, 0)


def test_lot_transitions_are_a_one_way_pipeline():
    lot = manual_lot("a", 2, 5, state=LotState.PENDING)
    lot.transition(LotState.ACTIVE_COVERAGE)
    lot.transition(LotState.RELEASED)
    with pytest.raises(InvariantViolationError):
        lot.transition(LotState.PAID_OUT)
    fresh = manual_lot("a", 2, 5, state=LotState.PENDING)
    with pytest.raises(InvariantViolationError):
        fresh.transition(LotState.RELEASED)


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


def test_backing_from_the_share_integers_is_frac_str_of_coverage_times_share():
    rng = random.Random(1405)
    seen = dict.fromkeys(("single_backer", "integer_part", "shared_factor", "above_2_64"), False)
    for _ in range(400):
        if rng.random() < 0.5:
            coverage = Fraction(rng.randint(1, 64), rng.choice([1, 2, 3, 4, 6, 12]))
        else:
            coverage = Fraction(rng.randint(1, 2**80), rng.randint(1, 2**40))
        earmark = {
            f"v{i:02d}": Fraction(
                rng.choice([0, 1, 2, 3, 4, rng.randint(1, 2**40)]), rng.choice([1, 3, rng.randint(1, 2**30)])
            )
            for i in range(rng.randint(1, 6))
        }
        lots = run_auction([bid("a", 0, coverage, Fraction(1, 10))], coverage, earmark)
        if not lots:
            continue  # no positive weight: nobody backs anything
        (lot,) = lots
        shares = lot.backers.shares
        want = {v: frac_str(coverage * share) for v, share in shares.items()}
        assert engine._backing_doc(lot) == want
        assert lot.backing == {v: coverage * share for v, share in shares.items()}
        terms = list(lot.backers.backing(coverage))
        seen["single_backer"] |= list(shares.values()) == [1]
        seen["integer_part"] |= len(shares) > 1 and any(d == 1 for _, _, d in terms)
        seen["shared_factor"] |= gcd(coverage.denominator, lot.backers.denominator) > 1
        seen["above_2_64"] |= any(n > 2**64 for _, n, _ in terms)
    assert all(seen.values()), seen


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


def quiet_ledger(transactors=("ins", "other")):
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(32), earmarked_fraction=Fraction(1, 2))
        for i in range(1, 5)
    ]
    tl = build_timeline(horizon=60, validators=vals)
    return InsuranceLedger(tl, EP, transactors=transactors)


def test_only_an_auction_files_a_backed_lot():
    ledger = quiet_ledger()
    (lot,) = run_auction([bid("ins", 0, 8, Fraction(1, 10))], Fraction(20), {"v1": Fraction(1)})
    with pytest.raises(InvariantViolationError):
        ledger.record_lot(lot)
    assert ledger.lots == ()


def test_available_is_pool_capped_at_gamma_third():
    ledger = quiet_ledger()
    assert ledger.pool_free() == 64
    assert ledger.available() == Fraction(64, 3)  # gamma * 128 / 3


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


def settle_nobody(ledger, id="f"):
    """Settle a slashable reveal with no real signer, so nobody's backing
    is slashed away."""
    outcome = ResolutionOutcome(event_id=id, reveal_class=RevealClass.AMBIGUOUS_WINDOW, slashed={})
    settle_slash(outcome, ledger, harmed=[])


def test_slashable_reveal_in_watch_window_blocks_release():
    # lots covering epochs 2 and 3 are active when the slash settles, so
    # both stay locked; the lot covering 4 is still pending, and releases
    # on schedule
    ledger = quiet_ledger()
    (lot2,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    (lot3,) = ledger.sell(1, [bid("ins", 1, 5, Fraction(1, 50))])
    (lot4,) = ledger.sell(2, [bid("ins", 2, 5, Fraction(1, 50))])
    ledger.activate(2)
    ledger.activate(3)
    settle_nobody(ledger)
    ledger.activate(4)
    assert release_lots(4, ledger) == [] and release_lots(5, ledger) == []
    assert lot2.state is lot3.state is LotState.ACTIVE_COVERAGE
    assert release_lots(6, ledger) == [lot4]


def test_end_attack_releases_held_epochs_up_to_the_last_covering():
    ledger = quiet_ledger()
    (lot2,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    (lot3,) = ledger.sell(1, [bid("ins", 1, 5, Fraction(1, 50))])
    (lot4,) = ledger.sell(2, [bid("ins", 2, 5, Fraction(1, 50))])
    ledger.activate(2)
    ledger.activate(3)
    settle_nobody(ledger)
    ledger.activate(4)
    settle_nobody(ledger, "g")
    assert release_lots(4, ledger) == [] and release_lots(5, ledger) == []
    # held 2, 3 and 4 release ascending, but only up to covering epoch 3
    assert ledger.end_attack(3) == [lot2, lot3]
    assert lot4.state is LotState.ACTIVE_COVERAGE and ledger.pool_free() == 59
    # and from now on a settlement holds nothing
    settle_nobody(ledger, "h")
    assert release_lots(6, ledger) == [lot4]
    assert ledger.pool_free() == 64


def _fraction_ops_to_close(n_backers, monkeypatch):
    """Fraction arithmetic done by a release and by a payout of two lots
    sold under a share map of `n_backers` backers, one of them slashed
    before the lots close."""
    vals = [
        ValidatorState(id=f"v{i:02d}", stake=Fraction(32), earmarked_fraction=Fraction(1, 2))
        for i in range(n_backers)
    ] + [ValidatorState(id="x", stake=Fraction(32), earmarked_fraction=Fraction(0))]
    tl = build_timeline(horizon=60, validators=vals)
    ep = EconParams(
        stake_per_validator=Fraction(32), n_validators=len(vals), gamma=Fraction(1, 2), tvl=Fraction(200)
    )
    ledger = InsuranceLedger(tl, ep, transactors="ab")
    ledger.sell(0, [bid("a", 0, 3, Fraction(1, 50)), bid("b", 0, 2, Fraction(1, 10))])
    ledger.sell(1, [bid("a", 1, 3, Fraction(1, 50)), bid("b", 1, 2, Fraction(1, 10))])
    # the slash settles before any lot is active, so it holds none
    ambiguous = RevealClass.AMBIGUOUS_WINDOW
    settle_slash(ResolutionOutcome("f", ambiguous, slashed={"v00": Fraction(32)}), ledger, harmed=[])
    ledger.activate(2)
    ledger.activate(3)

    counts = {"release": 0, "payout": 0}
    phase = "release"
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
        original = getattr(Fraction, name)

        def counted(a, b, _original=original):
            counts[phase] += 1
            return _original(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    (released_a, released_b) = release_lots(4, ledger)
    phase = "payout"
    # a slash of a validator that backs nothing pays the claim on epoch 3's lots
    harmed = [RevertedExecution(tx_id="t", transactor="a", covering_epoch=3, value=Fraction(1), insured=True)]
    settle_slash(ResolutionOutcome("g", ambiguous, slashed={"x": Fraction(32)}), ledger, harmed=harmed)
    monkeypatch.undo()
    assert released_a.state is released_b.state is LotState.RELEASED
    assert {l.buyer: l.state for l in ledger.lots if l.covering_epoch == 3} == {
        "a": LotState.PAID_OUT,
        "b": LotState.ACTIVE_COVERAGE,
    }
    assert ledger.premiums_earned["v00"] > 0 and len(ledger.premiums_earned) == n_backers
    return counts


def test_closing_lots_costs_the_same_however_many_backers(monkeypatch):
    # the premium credit and the slashed part are kept per share map, so
    # neither walks the backers
    assert _fraction_ops_to_close(4, monkeypatch) == _fraction_ops_to_close(64, monkeypatch)


def random_ledger_case(rng):
    """A timeline of 2-5 validators, some earmarking nothing, with up to
    three fork reveals in every regime, and econ params whose gamma may
    be zero."""
    t_fin = rng.randint(1, 3)
    tp = TimingParams(t_fin=t_fin, t_rev=10, t_ws=t_fin + 10 + rng.randint(1, 20))
    horizon = 10 * rng.randint(6, 12)
    earmarks = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(rng.randint(8, 40)), earmarked_fraction=rng.choice(earmarks))
        for i in range(1, rng.randint(2, 5) + 1)
    ]
    events = []
    for j in range(rng.randint(0, 3)):
        diverges = rng.randint(0, horizon - 1)
        events.append(
            slashable_event(
                id=f"f{j}",
                diverges=diverges,
                revealed=min(horizon, diverges + rng.randint(0, tp.t_ws + 5)),
                signers=rng.sample([v.id for v in vals], rng.randint(1, len(vals))),
            )
        )
    tl = build_timeline(horizon=horizon, fork_events=events, validators=vals)
    ep = EconParams(
        stake_per_validator=Fraction(rng.randint(8, 40)),
        n_validators=len(vals),
        gamma=Fraction(rng.randint(0, 4), 4),
        tvl=Fraction(100),
    )
    return tl, tp, ep


def assert_ledger_matches(ledger, oracle, last_epoch):
    assert ledger.earmark_free == oracle.earmark_free
    assert ledger.pool_free() == oracle.pool_free()
    assert sum(ledger.earmark_free.values(), Fraction(0)) == ledger.pool_free()
    assert ledger.available() == oracle.available()
    assert ledger.premiums_paid == oracle.premiums_paid
    assert ledger.premiums_earned == oracle.premiums_earned
    assert {l.id: (l.state.value, l.backing) for l in ledger.lots} == {
        l["id"]: (l["state"], l["backing"]) for l in oracle.lots
    }
    for tr in "abc":
        for c in range(last_epoch + 1):
            assert ledger.u(tr, c) == oracle.u(tr, c)


def test_ledger_matches_the_list_scanning_oracle():
    rng = random.Random(20261018)
    seen = dict.fromkeys(
        (
            "slashed_backer_of_held_lot",
            "paid_out_beside_released",
            "empty_auction",
            "zero_premium",
            "blocked_release",
            "several_lots_sold",
            "sale_after_backer_slash",
            "earned_under_two_maps",
            "slashed_backer_credited_later",
        ),
        False,
    )
    rates = [Fraction(0), Fraction(1, 50), Fraction(1, 10), Fraction(1, 3)]
    for _ in range(150):
        tl, tp, ep = random_ledger_case(rng)
        ledger = InsuranceLedger(tl, ep, transactors="abc")
        oracle = LedgerOracle(tl.validators, tp, ep, tl.fork_events)
        last_epoch = tl.horizon // tp.t_rev + 2
        last_backers = None  # the share map of the last sale that sold a lot
        closed_ids: set = set()  # the lots released or paid out so far

        def note_closed():
            # a lot sold before a backer's slash and closed after it still
            # credits that backer its premium
            closed = [l for l in ledger.lots if l.state in (LotState.RELEASED, LotState.PAID_OUT)]
            for l in closed:
                slashed_backers = set(l.backers.shares) & set(ledger.slashed_amounts)
                if l.id not in closed_ids and l.premium_paid > 0 and slashed_backers:
                    assert slashed_backers <= set(ledger.premiums_earned)
                    seen["slashed_backer_credited_later"] = True
            closed_ids.update(l.id for l in closed)

        def active(c):
            return any(l["covering_epoch"] == c and l["state"] == "active_coverage" for l in oracle.lots)

        def blocked(c):
            return active(c) and bool(oracle.blockers(c))

        # in engine order: each epoch releases, activates and sells, the
        # attack-over epoch then ends the attack, and every slashable reveal
        # settles in its epoch; an attack-over epoch past the last one
        # never comes
        attack_over = rng.randint(0, last_epoch + 1)
        for e in range(last_epoch + 1):
            c = e - 2
            # the oracle's timeline scan holds a lot strictly until the attack
            # ends, and then excuses every reveal settled so far
            excused = frozenset() if e <= attack_over else {s.event_id for s in ledger.settlements}
            seen["blocked_release"] |= c >= 0 and e <= attack_over and blocked(c)
            got = release_lots(e, ledger)
            want = oracle.release(c, excused) if c >= 0 else []
            assert [l.id for l in got] == [l["id"] for l in want]
            assert_ledger_matches(ledger, oracle, last_epoch)
            note_closed()

            ledger.activate(e)
            oracle.activate(e)
            assert_ledger_matches(ledger, oracle, last_epoch)

            bids = [
                bid(rng.choice("abc"), e, rng.randint(1, 30), rng.choice(rates))
                for _ in range(rng.randint(0, 3))
            ]
            got = ledger.sell(e, bids)
            want = oracle.sell(e, bids)
            assert [(l.id, l.buyer, l.coverage, l.premium_paid) for l in got] == [
                (l["id"], l["buyer"], l["coverage"], l["premium_paid"]) for l in want
            ]
            # the lots of one sale reference its one share map, and each
            # lot's backing sums to its coverage
            assert all(l.backers is got[0].backers for l in got)
            assert all(sum(l.backing.values(), Fraction(0)) == l.coverage for l in got)
            # sales with no backer slashed between them share one map, and
            # no map holds a validator slashed before its sale
            if got:
                backer_slashed = last_backers is not None and bool(
                    set(last_backers.shares) & set(ledger.slashed_amounts)
                )
                if last_backers is not None and not backer_slashed:
                    assert got[0].backers is last_backers
                assert not set(got[0].backers.shares) & set(ledger.slashed_amounts)
                seen["sale_after_backer_slash"] |= backer_slashed
                last_backers = got[0].backers
            seen["several_lots_sold"] |= len(got) > 1
            seen["empty_auction"] |= bool(bids) and not got
            seen["zero_premium"] |= any(l.premium_rate == 0 for l in got)
            assert_ledger_matches(ledger, oracle, last_epoch)

            if e == attack_over:
                settled = {s.event_id for s in ledger.settlements}
                got = ledger.end_attack(c)
                want = [lot for cc in range(c + 1) for lot in oracle.release(cc, settled)]
                assert [l.id for l in got] == [l["id"] for l in want]
                assert_ledger_matches(ledger, oracle, last_epoch)
                note_closed()

            for ev in tl.fork_events:
                outcome = resolve(ev, tp, tl.validators)
                if ev.revealed_at // tp.t_rev != e or not outcome.slashable:
                    continue
                harmed = [
                    RevertedExecution(
                        tx_id=f"h{k}",
                        transactor=rng.choice("abc"),
                        covering_epoch=rng.randint(max(0, e - 3), e),
                        value=Fraction(rng.randint(1, 20)),
                        insured=True,
                    )
                    for k in range(rng.randint(0, 3))
                ]
                settle_slash(outcome, ledger, harmed=harmed)
                oracle.settle(dict(outcome.slashed), [(h.transactor, h.covering_epoch, h.value) for h in harmed])
                assert_ledger_matches(ledger, oracle, last_epoch)
                note_closed()

            seen["slashed_backer_of_held_lot"] |= any(
                l["state"] == "active_coverage" and set(l["backing"]) & set(oracle.slashed_amounts)
                for l in oracle.lots
            )
            seen["paid_out_beside_released"] |= any(
                {"paid_out", "released"} <= {l["state"] for l in oracle.lots if l["covering_epoch"] == cc}
                for cc in range(last_epoch + 1)
            )
        # one validator earns premium through two share maps
        earning = {
            l.backers
            for l in ledger.lots
            if l.state in (LotState.RELEASED, LotState.PAID_OUT) and l.premium_paid > 0
        }
        seen["earned_under_two_maps"] |= any(
            sum(v in backers.shares for backers in earning) > 1 for v in ledger.premiums_earned
        )
    assert all(seen.values()), seen


# -- insured-execution safety check ------------------------------------------


def insured_tx(id, value, f=21, transactor="ins"):
    return TransactionRecord(
        id=id, transactor=transactor, value=Fraction(value), kind="hybrid",
        finalized_at=f, rule="insured_immediate", insured_epoch=f // TP.t_rev,
    )


def test_coverage_check_is_strict():
    ledger = quiet_ledger()
    ledger.record_lot(manual_lot("ins", 2, 100))
    covered = ledger.u("ins", 2)
    over = [insured_tx("a", 40), insured_tx("b", 50), insured_tx("c", 20)]
    assert not coverage_check("ins", 2, over, covered, TP.t_rev)
    exact = [insured_tx("a", 60), insured_tx("b", 40)]
    assert not coverage_check("ins", 2, exact, covered, TP.t_rev)
    under = [insured_tx("a", 59), insured_tx("b", 40)]
    assert coverage_check("ins", 2, under, covered, TP.t_rev)
    # no coverage, zero not < zero
    assert not coverage_check("other", 2, [], ledger.u("other", 2), TP.t_rev)


def test_coverage_check_preconditions():
    ledger = quiet_ledger()
    ledger.record_lot(manual_lot("ins", 2, 100))
    # the coverage amount comes from u, which rejects unknown transactors
    with pytest.raises(UnknownTransactorError):
        ledger.u("stranger", 2)
    with pytest.raises(InvariantViolationError):
        coverage_check("ins", 2, [insured_tx("a", 5, transactor="other")], Fraction(100), TP.t_rev)
    with pytest.raises(InvariantViolationError):
        coverage_check("ins", 3, [insured_tx("a", 5)], Fraction(100), TP.t_rev)  # wrong epoch
    not_insured = TransactionRecord(
        id="s", transactor="ins", value=Fraction(1), kind="hybrid", finalized_at=21, rule="secure"
    )
    with pytest.raises(InvariantViolationError):
        coverage_check("ins", 2, [not_insured], Fraction(100), TP.t_rev)


def test_ledger_coverage_map_agrees_with_u():
    ledger = quiet_ledger()
    for buyer, epoch, amount in [("ins", 2, 10), ("ins", 2, 5), ("other", 2, 7), ("ins", 3, 1)]:
        ledger.record_lot(manual_lot(buyer, epoch, amount))
    coverage = ledger.coverage()
    assert coverage == {2: {"ins": 15, "other": 7}, 3: {"ins": 1}}
    for epoch in (1, 2, 3):
        for tr in ("ins", "other"):
            assert coverage.get(epoch, {}).get(tr, Fraction(0)) == ledger.u(tr, epoch)


# -- settlement ---------------------------------------------------------------


def settle_fixture(*, coverages, gamma=Fraction(2, 3), signers=("v1",)):
    """Ledger with manual active lots and an outcome that slashes each
    signer's full stake of 90."""
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(90), earmarked_fraction=Fraction(1, 3))
        for i in range(1, 3)
    ]
    ev = slashable_event(signers=signers)
    tl = build_timeline(horizon=60, fork_events=[ev], validators=vals)
    ep = EconParams(
        stake_per_validator=Fraction(90), n_validators=2, gamma=gamma, tvl=Fraction(100)
    )
    ledger = InsuranceLedger(tl, ep, transactors=set(coverages))
    for tr, cov in sorted(coverages.items()):
        ledger.record_lot(manual_lot(tr, 2, cov))
    outcome = ResolutionOutcome(
        event_id="f",
        reveal_class=RevealClass.AMBIGUOUS_WINDOW,
        slashed={s: Fraction(90) for s in signers},
    )
    return outcome, ledger


def harmed(tr, value, epoch=2):
    return RevertedExecution(
        tx_id=f"h-{tr}", transactor=tr, covering_epoch=epoch, value=Fraction(value), insured=True
    )


def test_settlement_single_claim_within_budget():
    outcome, ledger = settle_fixture(coverages={"A": 60})
    rec = settle_slash(outcome, ledger, harmed=[harmed("A", 50)])
    assert rec.insurance_budget == 60
    assert [(c.harm, c.capped, c.paid) for c in rec.claims] == [(50, 50, 50)]
    assert (rec.paid_total, rec.burned, rec.invariant_breach) == (50, 40, False)
    paid, total, burned, breach = settle_oracle(Fraction(90), Fraction(2, 3), [(50, 60)])
    assert ([c.paid for c in rec.claims], rec.paid_total, rec.burned, rec.invariant_breach) == (
        paid, total, burned, breach
    )


def test_settlement_shortfall_scales_pro_rata_and_flags_breach():
    outcome, ledger = settle_fixture(coverages={"A": 100, "B": 100})
    rec = settle_slash(outcome, ledger, harmed=[harmed("A", 30), harmed("B", 40)])
    assert rec.invariant_breach
    assert [c.paid for c in rec.claims] == [Fraction(180, 7), Fraction(240, 7)]
    assert rec.paid_total == 60 and rec.burned == 30
    oracle = settle_oracle(Fraction(90), Fraction(2, 3), [(30, 100), (40, 100)])
    assert [c.paid for c in rec.claims] == oracle[0]


def test_settlement_with_no_victims_burns_everything():
    outcome, ledger = settle_fixture(coverages={"A": 60})
    rec = settle_slash(outcome, ledger, harmed=[])
    assert rec.claims == () and rec.paid_total == 0 and rec.burned == 90


def test_settlement_caps_claims_at_coverage_bought():
    outcome, ledger = settle_fixture(coverages={"A": 20})
    rec = settle_slash(outcome, ledger, harmed=[harmed("A", 50)])
    assert [(c.harm, c.capped, c.paid) for c in rec.claims] == [(50, 20, 20)]
    assert rec.burned == 70


def test_settlement_books_the_slash_and_pays_out_lots():
    outcome, ledger = settle_fixture(coverages={"A": 60})
    lot = ledger.lots[0]
    settle_slash(outcome, ledger, harmed=[harmed("A", 50)])
    assert ledger.slashed_amounts == {"v1": 90}
    assert ledger.earmark_free["v1"] == 0
    assert lot.state is LotState.PAID_OUT
    (rec,) = ledger.settlements
    assert (rec.event_id, rec.paid_total, rec.burned) == ("f", 50, 40)


def test_settle_requires_a_slashable_outcome():
    _, ledger = settle_fixture(coverages={"A": 60})
    pre = ResolutionOutcome(event_id="f", reveal_class=RevealClass.PRE_FINALITY, slashed={})
    with pytest.raises(SettleOnUnslashableError):
        settle_slash(pre, ledger, harmed=[])


def test_settlement_conservation_randomized(rng):
    for _ in range(400):
        gamma = Fraction(rng.randint(0, 4), 4)
        n = rng.randint(0, 3)
        coverages = {f"T{i}": rng.randint(1, 40) for i in range(n)}
        outcome, ledger = settle_fixture(coverages=coverages or {"T0": 1}, gamma=gamma)
        harms = [harmed(f"T{i}", rng.randint(1, 60)) for i in range(n)]
        rec = settle_slash(outcome, ledger, harmed=harms)
        assert rec.paid_total + rec.burned == rec.slashed == 90
        assert rec.paid_total <= gamma * rec.slashed
        assert rec.burned >= (1 - gamma) * rec.slashed
        claims = [(Fraction(h.value), Fraction(coverages[h.transactor])) for h in harms]
        paid, total, burned, breach = settle_oracle(Fraction(90), gamma, claims)
        assert [c.paid for c in rec.claims] == paid
        assert (rec.paid_total, rec.burned, rec.invariant_breach) == (total, burned, breach)


def test_slashed_backing_never_returns_to_the_pool():
    ledger = quiet_ledger()
    (lot,) = ledger.sell(0, [bid("ins", 0, 10, Fraction(1, 50))])
    ledger.activate(2)
    outcome = ResolutionOutcome(
        event_id="f", reveal_class=RevealClass.AMBIGUOUS_WINDOW, slashed={"v1": Fraction(32)}
    )
    settle_slash(outcome, ledger, harmed=[])
    released = ledger.end_attack(2)
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
    outcome, ledger = settle_fixture(coverages={"A": 60}, signers=("v1",))
    reverted = [harmed("A", 50)]
    settle_slash(outcome, ledger, harmed=reverted)
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
