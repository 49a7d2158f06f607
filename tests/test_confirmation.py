"""Secure-rule and bridge-rule confirmation decisions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stakesim import (
    ConfirmationRule,
    DecisionStatus,
    ForkRevealEvent,
    RevealClass,
    TimingParams,
    TransactionRecord,
    build_timeline,
    classify_reveal,
    contests,
    decide_bridge,
    decide_bridge_naive,
    decide_secure,
)
from stakesim.errors import InvariantViolationError

from conftest import block_schedule, random_physical_timeline, random_timing
from oracles import reverted_ids_oracle, secure_decision_oracle

TP = TimingParams(t_fin=2, t_rev=5, t_ws=100, t_cr=2)


def tx(f, kind="hybrid", rule="secure"):
    return TransactionRecord(
        id="t", transactor="a", value=Fraction(1), kind=kind, finalized_at=f, rule=rule
    )


def ev(diverges, revealed):
    return ForkRevealEvent(
        id=f"e{diverges}-{revealed}",
        diverges_from_block_finalized_at=diverges,
        revealed_at=revealed,
        double_signers=frozenset(),
    )


def timeline(*events, horizon=300):
    return build_timeline(horizon=horizon, fork_events=list(events))


def test_contests_is_at_or_before():
    assert contests(100, 100)
    assert contests(100, 40)
    assert not contests(100, 101)


def test_secure_confirms_quiet_window():
    d = decide_secure(tx(100), timeline(), TP)
    assert d.status is DecisionStatus.CONFIRMED
    assert d.earliest_offchain_tick == 105
    assert d.rule is ConfirmationRule.SECURE_RULE


def test_secure_waits_on_contest_inside_window():
    d = decide_secure(tx(100), timeline(ev(98, 104)), TP)
    assert d.status is DecisionStatus.WAITING
    assert d.earliest_offchain_tick is None


def test_secure_window_end_is_exclusive():
    # a contest revealed exactly at f + t_rev is already socially resolved
    d = decide_secure(tx(100), timeline(ev(98, 105)), TP)
    assert d.status is DecisionStatus.CONFIRMED and d.earliest_offchain_tick == 105


def test_secure_ignores_non_ancestor_forks():
    d = decide_secure(tx(100), timeline(ev(101, 104)), TP)
    assert d.status is DecisionStatus.CONFIRMED


def test_secure_ignores_reveals_before_window():
    d = decide_secure(tx(100), timeline(ev(90, 99)), TP)
    assert d.status is DecisionStatus.CONFIRMED


def test_secure_rejects_pure_transactions():
    with pytest.raises(InvariantViolationError, match="transaction 't' has no off-chain leg to confirm"):
        decide_secure(tx(100, kind="pure", rule="immediate"), timeline(), TP)


def test_secure_recheck_from_later_start():
    tl = timeline(ev(98, 104))
    assert decide_secure(tx(100), tl, TP).status is DecisionStatus.WAITING
    again = decide_secure(tx(100), tl, TP, window_start=105)
    assert again.status is DecisionStatus.CONFIRMED
    assert again.earliest_offchain_tick == 110


def test_secure_matches_oracle(rng):
    for _ in range(2000):
        tp = random_timing(rng)
        f = rng.randint(0, 40)
        events = []
        for i in range(rng.randint(0, 5)):
            diverges = rng.randint(0, 50)
            events.append(
                ForkRevealEvent(
                    id=f"e{i}",
                    diverges_from_block_finalized_at=diverges,
                    revealed_at=diverges + rng.randint(0, 40),
                    double_signers=frozenset(),
                )
            )
        tl = timeline(*events)
        start = rng.choice([None, f + rng.randint(1, 30)])
        got = decide_secure(tx(f), tl, tp, window_start=start)
        status, end = secure_decision_oracle(f, events, tp.t_rev, window_start=start)
        assert got.status.value == status
        assert got.earliest_offchain_tick == end


def test_bridge_window_boundaries():
    tp = TimingParams(t_fin=2, t_rev=3, t_ws=100, t_cr=2)
    # watch window is [130, 135)
    assert decide_bridge(130, [134], tp).status is DecisionStatus.INVALIDATED
    ok = decide_bridge(130, [135], tp)
    assert ok.status is DecisionStatus.CONFIRMED and ok.earliest_offchain_tick == 135
    assert decide_bridge(130, [129], tp).status is DecisionStatus.CONFIRMED
    assert decide_bridge(130, [], tp).status is DecisionStatus.CONFIRMED


def test_naive_bridge_misses_censored_post():
    # reversion window ends at 133; a post censored to 134 slips past the
    # naive rule but sits squarely inside the safe rule's window
    tp = TimingParams(t_fin=2, t_rev=3, t_ws=100, t_cr=2)
    assert decide_bridge_naive(130, [134], tp).status is DecisionStatus.CONFIRMED
    assert decide_bridge(130, [134], tp).status is DecisionStatus.INVALIDATED


def test_bridge_censorship_counterexample():
    # fork diverges at 10, contested block finalizes at 12, reveal at 16 is
    # ambiguous (offset 6 < t_fin + t_rev = 7); the conflicting post is
    # censored the full t_cr = 4 ticks to tick 20
    tp = TimingParams(t_fin=2, t_rev=5, t_ws=100, t_cr=4)
    assert classify_reveal(ev(10, 16), tp) is RevealClass.AMBIGUOUS_WINDOW
    post = 16 + 4
    naive = decide_bridge_naive(12, [post], tp)
    assert naive.status is DecisionStatus.CONFIRMED
    assert naive.earliest_offchain_tick == 17  # acts before the post lands
    safe = decide_bridge(12, [post], tp)
    assert safe.status is DecisionStatus.INVALIDATED


def test_safe_bridge_never_confirms_a_contested_header(rng):
    # any ambiguous reveal against the header's block, censored by at most
    # t_cr, still lands inside the safe watch window; the naive rule must
    # sometimes confirm (the censorship gap is real, not hypothetical)
    naive_fooled = 0
    for _ in range(2000):
        tp = random_timing(rng)
        blocks = block_schedule(rng, tp, 20 * tp.t_fin)
        if len(blocks) < 2:
            continue
        i = rng.randrange(len(blocks) - 1)
        t0, f = blocks[i], blocks[i + 1]
        lo, hi = t0 + tp.t_fin, t0 + tp.t_fin + tp.t_rev - 1
        reveal = rng.randint(max(lo, f + 1), max(hi, f + 1))
        if classify_reveal(ev(t0, reveal), tp) is not RevealClass.AMBIGUOUS_WINDOW:
            continue
        delay = rng.randint(0, tp.t_cr)
        post = reveal + delay
        assert decide_bridge(f, [post], tp).status is DecisionStatus.INVALIDATED
        if decide_bridge_naive(f, [post], tp).status is DecisionStatus.CONFIRMED:
            naive_fooled += 1
    assert naive_fooled > 0


def test_confirmed_secure_transactions_survive_every_ambiguous_fork(rng):
    # decision-level reorg safety: on a physical schedule, a transaction the
    # secure rule confirms never sits on the reverted segment of any fork
    # still inside its ambiguous window
    checked = 0
    for _ in range(300):
        tl, tp = random_physical_timeline(rng, all_secure=True)
        ambiguous = [
            e for e in tl.fork_events
            if classify_reveal(e, tp) is RevealClass.AMBIGUOUS_WINDOW
        ]
        at_risk = reverted_ids_oracle(tl.transactions, ambiguous)
        for t in tl.transactions:
            d = decide_secure(t, tl, tp)
            if d.status is DecisionStatus.CONFIRMED:
                assert t.id not in at_risk
                checked += 1
    assert checked > 100
