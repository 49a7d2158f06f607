"""Coverage auctions, the lot lifecycle, slash settlement, and karma."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest

from stakesim import (
    EconParams,
    ForkRevealEvent,
    InsuranceBid,
    InsuranceLedger,
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
    release_lots,
    resolve,
    settle_slash,
)
from stakesim.errors import InvariantViolationError
from stakesim.insurance import _Backers

from oracles import LedgerOracle, allocate_oracle, auction_best_revenue, settle_oracle

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


def auction_ledger(available, earmark=None, transactors="abAB"):
    """A ledger whose `available()` is `available`: its pool is split among
    the positive `earmark` weights pro rata (one backer by default), each
    earmarking its whole stake."""
    available = Fraction(available)
    weights = {v: w for v, w in (earmark or {"v1": 1}).items() if w > 0} if available > 0 else {}
    total = sum(weights.values())
    vals = [ValidatorState(id=v, stake=available * w / total, earmarked_fraction=1) for v, w in weights.items()]
    # earmarks nothing, and lifts the gamma = 1 cap (a third of all stake) above the pool
    vals.append(ValidatorState(id="x", stake=2 * available + 1))
    ep = EconParams(stake_per_validator=(3 * available + 1) / len(vals), n_validators=len(vals), gamma=1)
    return InsuranceLedger(vals, ep, transactors=transactors)


def sold_lot():
    """One lot, pending, as an auction sells it."""
    (lot,) = auction_ledger(10).sell(0, [bid("a", 0, 5, Fraction(1, 10))])
    return lot


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
        replace(sold_lot(), coverage=Fraction(0))


def test_lot_transitions_are_a_one_way_pipeline():
    lot = sold_lot()
    lot.transition(LotState.ACTIVE_COVERAGE)
    lot.transition(LotState.RELEASED)
    with pytest.raises(InvariantViolationError):
        lot.transition(LotState.PAID_OUT)
    fresh = sold_lot()
    with pytest.raises(InvariantViolationError):
        fresh.transition(LotState.RELEASED)


# -- auction ----------------------------------------------------------------


def test_auction_worked_example():
    lots = auction_ledger(15).sell(0, [bid("A", 0, 10, Fraction(1, 50)), bid("B", 0, 10, Fraction(1, 100))])
    assert [(l.buyer, l.coverage) for l in lots] == [("A", Fraction(10)), ("B", Fraction(5))]
    revenue = sum((l.premium_paid for l in lots), Fraction(0))
    assert revenue == Fraction(1, 4)
    assert revenue == auction_best_revenue([10, 10], [Fraction(1, 50), Fraction(1, 100)], 15)
    assert [l.id for l in lots] == ["lot-e0-0", "lot-e0-1"]
    assert all(l.covering_epoch == 2 and l.state is LotState.PENDING for l in lots)


def test_auction_breaks_rate_ties_by_name_then_submission():
    lots = auction_ledger(6).sell(0, [bid("b", 0, 5, Fraction(1, 10)), bid("a", 0, 5, Fraction(1, 10))])
    assert [(l.buyer, l.coverage) for l in lots] == [("a", Fraction(5)), ("b", Fraction(1))]
    dup = auction_ledger(6).sell(0, [bid("a", 0, 5, Fraction(1, 10)), bid("a", 0, 5, Fraction(1, 10))])
    assert [l.coverage for l in dup] == [Fraction(5), Fraction(1)]


def test_auction_edge_cases():
    ledger = auction_ledger(0)
    assert ledger.sell(0, [bid("a", 0, 5, Fraction(1))]) == []
    assert ledger.sell(0, []) == []
    assert ledger.lots == () and ledger.coverage() == {}
    with pytest.raises(InvariantViolationError):
        auction_ledger(10).sell(0, [bid("a", 0, 5, Fraction(1)), bid("b", 1, 5, Fraction(1))])


def test_auction_backing_is_pro_rata_over_positive_weights():
    earmark = {"v1": Fraction(10), "v2": Fraction(30), "v3": Fraction(0)}
    (lot,) = auction_ledger(20, earmark).sell(0, [bid("a", 0, 8, Fraction(1, 10))])
    assert lot.backing == {"v1": Fraction(2), "v2": Fraction(6)}
    assert sum(lot.backing.values()) == lot.coverage


def test_greedy_revenue_is_optimal_on_integral_instances(rng):
    for _ in range(200):
        n = rng.randint(1, 3)
        requests = [rng.randint(1, 4) for _ in range(n)]
        rates = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        available = rng.randint(0, 6)
        bids = [bid(f"t{i}", 0, requests[i], rates[i]) for i in range(n)]
        lots = auction_ledger(available, transactors=[b.transactor for b in bids]).sell(0, bids)
        revenue = sum((l.premium_paid for l in lots), Fraction(0))
        assert revenue == auction_best_revenue(requests, rates, available)
        assert sum((l.coverage for l in lots), Fraction(0)) <= available


def test_sell_allocates_in_the_order_of_the_sorting_oracle(rng):
    # few names and rates make ties in rate and transactor and duplicate
    # bidders common; `available` is zero, a prefix of the bids' order
    # exactly, between two prefixes (the marginal bid fills partly), or
    # more than every bid asks
    seen = set()
    for _ in range(600):
        names = rng.sample("abcd", rng.randint(1, 3))
        rates = [Fraction(rng.randint(0, 3), rng.choice([1, 2, 5])) for _ in range(rng.randint(1, 3))]
        bids = [
            bid(rng.choice(names), 0, Fraction(rng.randint(1, 12), rng.choice([1, 1, 2, 3])), rng.choice(rates))
            for _ in range(rng.randint(3, 7))
        ]
        asked = sum(b.coverage_requested for b in bids)
        prefixes = list(accumulate(cov for _, cov, _ in allocate_oracle(bids, asked)))
        case = rng.choice(["zero", "exact", "partial", "undersubscribed"])
        k = rng.randrange(len(prefixes) - (case == "partial"))
        if case == "zero":
            available = Fraction(0)
        elif case == "exact":
            available = prefixes[k]
        elif case == "partial":
            available = (prefixes[k] + prefixes[k + 1]) / 2
        else:
            available = asked + rng.randint(1, 5)
        seen.add(case)
        ledger = auction_ledger(available, transactors="abcd")
        lots = ledger.sell(0, bids)
        expected = allocate_oracle(bids, available)
        assert [(l.buyer, l.coverage, l.premium_rate) for l in lots] == expected, (bids, available)
        assert [l.id for l in lots] == [f"lot-e0-{i}" for i in range(len(lots))]
        sold = sum((cov for _, cov, _ in expected), Fraction(0))
        assert ledger.pool_free() == available - sold
        assert len(lots) == {"zero": 0, "exact": k + 1, "partial": k + 2, "undersubscribed": len(bids)}[case]
    assert seen == {"zero", "exact", "partial", "undersubscribed"}


# -- ledger pipeline ---------------------------------------------------------


def quiet_ledger(transactors=("ins", "other")):
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(32), earmarked_fraction=Fraction(1, 2))
        for i in range(1, 5)
    ]
    return InsuranceLedger(vals, EP, transactors=transactors)


def test_available_is_pool_capped_at_gamma_third():
    ledger = quiet_ledger()
    assert ledger.pool_free() == 64
    assert ledger.available() == Fraction(64, 3)  # gamma * 128 / 3


def test_sell_rejects_bad_bids():
    ledger = quiet_ledger()
    with pytest.raises(InvariantViolationError, match="bid from unknown transactor 'stranger'"):
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
    with pytest.raises(InvariantViolationError, match="unknown transactor 'stranger'"):
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
    ep = EconParams(
        stake_per_validator=Fraction(32), n_validators=len(vals), gamma=Fraction(1, 2), tvl=Fraction(200)
    )
    ledger = InsuranceLedger(vals, ep, transactors="ab")
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
    harmed = [RevertedExecution(transactor="a", covering_epoch=3, value=Fraction(1), insured=True)]
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
    # a release reads each share map's lost part off the slashed
    # validators, and a payout only marks its lots, so neither walks the
    # backers
    assert _fraction_ops_to_close(4, monkeypatch) == _fraction_ops_to_close(64, monkeypatch)


def _fractions_built_by_premium_totals(n_lots, monkeypatch):
    """Fractions built by karma's premium totals over a buyer's `n_lots`
    lots, each released, under one share map of four backers."""
    ledger = quiet_ledger()
    for e in range(n_lots):
        ledger.sell(e, [bid("ins", e, 1, Fraction(1, 50 + e % 7))])
        ledger.activate(e + 2)
        release_lots(e + 4, ledger)
    built = 0
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    paid, earned = ledger.premiums_paid, ledger.premiums_earned
    monkeypatch.undo()
    lots = ledger.lots
    assert len(lots) == n_lots and {l.state for l in lots} == {LotState.RELEASED}
    assert paid == {"ins": sum((l.premium_paid for l in lots), Fraction(0))}
    assert earned == {v: paid["ins"] / 4 for v in ("v1", "v2", "v3", "v4")}
    return built


def test_premium_totals_build_as_many_fractions_however_many_lots(monkeypatch):
    # each total is one exact sum, which builds one Fraction however many terms it has
    assert _fractions_built_by_premium_totals(10, monkeypatch) == _fractions_built_by_premium_totals(100, monkeypatch)


def test_a_share_maps_lost_part_is_summed_once_per_slash(monkeypatch):
    summed = []
    part = _Backers.part
    monkeypatch.setattr(_Backers, "part", lambda backers, ids: summed.append(backers) or part(backers, ids))
    vals = [ValidatorState(id=f"v{i}", stake=Fraction(32), earmarked_fraction=Fraction(1, 2)) for i in range(1, 5)]
    ledger = InsuranceLedger([*vals, ValidatorState(id="x", stake=Fraction(32))], EP, transactors="ab")
    for e in range(3):
        ledger.sell(e, [bid("a", e, 3, Fraction(1, 50)), bid("b", e, 2, Fraction(1, 10))])
    first = ledger.lots[0].backers
    ambiguous = RevealClass.AMBIGUOUS_WINDOW
    # the slash settles before any lot is active, so it holds none; it sums
    # the selling map's lost part, and v1 leaves it
    settle_slash(ResolutionOutcome("f", ambiguous, slashed={"v1": Fraction(32)}), ledger, harmed=[])
    assert summed == [first]
    ledger.activate(2)
    ledger.activate(3)
    # two releases under the slashed map reuse its lost part
    assert len(release_lots(4, ledger)) == len(release_lots(5, ledger)) == 2
    assert summed == [first]
    # a slash of a validator that backs nothing sums the selling map's part,
    # and the next release under the first map sums that map's part anew
    settle_slash(ResolutionOutcome("g", ambiguous, slashed={"x": Fraction(32)}), ledger, harmed=[])
    second = summed[-1]
    assert summed == [first, second] and second is not first
    ledger.activate(4)
    assert len(release_lots(6, ledger)) == 2
    assert summed == [first, second, first]
    # v1's quarter of the free pool and of each released lot is gone
    assert ledger.pool_free() == Fraction(3, 4) * 64


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
        ledger = InsuranceLedger(tl.validators, ep, transactors="abc")
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
                        transactor=rng.choice("abc"),
                        covering_epoch=rng.randint(max(0, e - 3), e),
                        value=Fraction(rng.randint(1, 20)),
                        insured=True,
                    )
                    for _ in range(rng.randint(0, 3))
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
        finalized_at=f, rule="insured_immediate",
    )


def covered_ledger(coverage=100):
    """A ledger that sold `ins` `coverage` for epoch 2, and `other` none."""
    ledger = auction_ledger(coverage, transactors=("ins", "other"))
    ledger.sell(0, [bid("ins", 0, coverage, Fraction(0))])
    return ledger


def test_coverage_check_is_strict():
    ledger = covered_ledger()
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
    ledger = covered_ledger()
    # the coverage amount comes from u, which rejects unknown transactors
    with pytest.raises(InvariantViolationError, match="unknown transactor 'stranger'"):
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
    ledger = auction_ledger(100, transactors=("ins", "other"))
    for placed, buyer, amount in [(0, "ins", 10), (0, "ins", 5), (0, "other", 7), (1, "ins", 1)]:
        ledger.sell(placed, [bid(buyer, placed, amount, Fraction(0))])
    coverage = ledger.coverage()
    assert coverage == {2: {"ins": 15, "other": 7}, 3: {"ins": 1}}
    for epoch in (1, 2, 3):
        for tr in ("ins", "other"):
            assert coverage.get(epoch, {}).get(tr, Fraction(0)) == ledger.u(tr, epoch)


# -- settlement ---------------------------------------------------------------


def settle_fixture(*, coverages, gamma=Fraction(2, 3), signers=("v1",)):
    """Ledger with the active lots an auction at epoch 0 sold for
    `coverages`, at premium rate 0, and an outcome that slashes each
    signer's full stake of 90. Four validators of 90 earmark everything, so
    the sale is capped at gamma * 120, above the budget gamma * 90 of one
    signer's slash."""
    vals = [ValidatorState(id=f"v{i}", stake=Fraction(90), earmarked_fraction=Fraction(1)) for i in range(1, 5)]
    ep = EconParams(stake_per_validator=Fraction(90), n_validators=4, gamma=gamma, tvl=Fraction(100))
    ledger = InsuranceLedger(vals, ep, transactors=set(coverages))
    ledger.sell(0, [bid(tr, 0, cov, Fraction(0)) for tr, cov in sorted(coverages.items())])
    ledger.activate(2)
    outcome = ResolutionOutcome(
        event_id="f",
        reveal_class=RevealClass.AMBIGUOUS_WINDOW,
        slashed={s: Fraction(90) for s in signers},
    )
    return outcome, ledger


def harmed(tr, value, epoch=2):
    return RevertedExecution(transactor=tr, covering_epoch=epoch, value=Fraction(value), insured=True)


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
    outcome, ledger = settle_fixture(coverages={"A": 40, "B": 40})
    rec = settle_slash(outcome, ledger, harmed=[harmed("A", 30), harmed("B", 40)])
    assert rec.invariant_breach
    assert [c.paid for c in rec.claims] == [Fraction(180, 7), Fraction(240, 7)]
    assert rec.paid_total == 60 and rec.burned == 30
    oracle = settle_oracle(Fraction(90), Fraction(2, 3), [(30, 40), (40, 40)])
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
    with pytest.raises(InvariantViolationError, match="event 'f' is not slashable as resolved"):
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
        # the auction fills the bids in name order up to its cap
        claims = [(Fraction(h.value), ledger.u(h.transactor, 2)) for h in harms]
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
    assert victim.net == 0  # the lots were sold at premium rate 0
    assert summary.double_spend_gain == 50
    # the adversary validator lost its 90 stake and gained the double spend
    assert summary.adversary_parties == frozenset({"v1"})
    assert summary.adversary_net == -90 + 50
    (rec,) = ledger.settlements
    assert (rec.slashed, rec.paid_total, rec.burned) == (90, 50, 40)
