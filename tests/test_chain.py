"""Timeline construction, validation, and the value queries of each window rung."""

from __future__ import annotations

import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product

import pytest

from stakesim import (
    ChainTimeline,
    EconParams,
    ForkRevealEvent,
    InvariantViolationError,
    PfcKind,
    TimingParams,
    TransactionRecord,
    ValidatorState,
    build_timeline,
    epoch_bounds,
    epoch_of,
    gamma_value,
)
from stakesim.chain import WINDOW_KINDS, ConfirmationRule, TxKind, _rungs

from oracles import gamma_set, rung_counts


def tx(id, f, v=1, kind="hybrid", rule="immediate", **kw):
    return TransactionRecord(id=id, transactor="a", value=v, kind=kind, finalized_at=f, rule=rule, **kw)


def test_epoch_arithmetic():
    assert epoch_of(0, 10) == 0
    assert epoch_of(9, 10) == 0
    assert epoch_of(10, 10) == 1
    assert epoch_bounds(3, 10) == (30, 40)
    for t in range(0, 100):
        lo, hi = epoch_bounds(epoch_of(t, 7), 7)
        assert lo <= t < hi


def test_timing_validation():
    with pytest.raises(InvariantViolationError):
        TimingParams(t_fin=0, t_rev=5, t_ws=20)
    with pytest.raises(InvariantViolationError):
        TimingParams(t_fin=1, t_rev=0, t_ws=20)
    with pytest.raises(InvariantViolationError):
        TimingParams(t_fin=5, t_rev=10, t_ws=14)  # t_fin + t_rev > t_ws
    ok = TimingParams(t_fin=5, t_rev=10, t_ws=15)
    assert ok.t_cr == 0 and ok.slash_delay == 0


def test_econ_params():
    ep = EconParams(stake_per_validator=Fraction(32), n_validators=4)
    assert ep.s_tot == 128
    assert ep.adversary_threshold == Fraction(1, 3)
    with pytest.raises(InvariantViolationError):
        EconParams(stake_per_validator=0, n_validators=1)
    with pytest.raises(InvariantViolationError):
        EconParams(stake_per_validator=1, n_validators=0)
    with pytest.raises(InvariantViolationError):
        EconParams(stake_per_validator=1, n_validators=1, gamma=Fraction(3, 2))


def test_pure_transactions_are_normalized():
    t = TransactionRecord(
        id="p", transactor="a", value=1, kind="pure", finalized_at=3,
        rule="secure", offchain_executed_at=9,
    )
    assert t.rule.value == "immediate"
    assert t.offchain_executed_at is None


def test_offchain_before_finalization_rejected():
    with pytest.raises(InvariantViolationError):
        tx("x", 10, offchain_executed_at=9)


def test_empty_timeline_is_identity():
    tl = build_timeline(horizon=10)
    assert tl.transactions == () and tl.fork_events == () and tl.validators == ()


def test_transactions_stored_sorted_by_tick():
    tl = build_timeline(horizon=10, transactions=[tx("b", 5), tx("a", 3)])
    assert [t.finalized_at for t in tl.transactions] == [3, 5]
    assert [t.id for t in tl.transactions] == ["a", "b"]


def test_build_is_idempotent():
    tl = build_timeline(horizon=10, transactions=[tx("b", 5), tx("a", 3)])
    again = build_timeline(
        horizon=tl.horizon, transactions=tl.transactions,
        fork_events=tl.fork_events, validators=tl.validators,
    )
    assert again == tl


def test_duplicate_ids_rejected():
    with pytest.raises(InvariantViolationError, match="duplicate transaction id 'a'"):
        build_timeline(horizon=10, transactions=[tx("a", 1), tx("a", 2)])


def test_out_of_horizon_rejected():
    with pytest.raises(InvariantViolationError, match="transaction 'a': finalized_at beyond horizon"):
        build_timeline(horizon=10, transactions=[tx("a", 11)])
    with pytest.raises(InvariantViolationError, match=r"horizon must lie in \(0, \d+\], got 0"):
        build_timeline(horizon=0)


def test_signer_stake_filled_and_cross_checked():
    vals = [ValidatorState(id="v1", stake=10), ValidatorState(id="v2", stake=20)]
    ev = ForkRevealEvent(id="e", diverges_from_block_finalized_at=0, revealed_at=5,
                         double_signers=frozenset({"v1", "v2"}))
    tl = build_timeline(horizon=10, fork_events=[ev], validators=vals)
    assert tl.fork_events[0].double_signer_stake == 30
    wrong = ForkRevealEvent(id="e", diverges_from_block_finalized_at=0, revealed_at=5,
                            double_signers=frozenset({"v1"}), double_signer_stake=99)
    with pytest.raises(InvariantViolationError):
        build_timeline(horizon=10, fork_events=[wrong], validators=vals)
    unknown = ForkRevealEvent(id="e", diverges_from_block_finalized_at=0, revealed_at=5,
                              double_signers=frozenset({"ghost"}))
    with pytest.raises(InvariantViolationError):
        build_timeline(horizon=10, fork_events=[unknown], validators=vals)


def test_interval_query_is_half_open():
    tl = build_timeline(horizon=10, transactions=[tx("a", 3, v=1), tx("b", 5, v=2), tx("c", 7, v=4)])
    assert [t.id for t in gamma_set(tl, 3, 7, PfcKind.REORG_WINDOW)] == ["a", "b"]
    assert gamma_value(tl, 3, 7, PfcKind.REORG_WINDOW) == 3


def test_empty_interval_rejected():
    tl = build_timeline(horizon=10, transactions=[tx("a", 5)])
    with pytest.raises(InvariantViolationError, match=r"empty interval \[5, 5\)"):
        gamma_value(tl, 5, 5)
    with pytest.raises(InvariantViolationError, match=r"empty interval \[6, 5\)"):
        gamma_value(tl, 6, 5)


def test_interval_with_no_transactions_is_empty():
    tl = build_timeline(horizon=10, transactions=[tx("a", 9)])
    assert gamma_set(tl, 0, 5) == ()
    assert gamma_value(tl, 0, 5) == 0


def test_kind_filter_drops_pure():
    tl = build_timeline(horizon=10, transactions=[tx("p", 4, v=1, kind="pure"), tx("h", 4, v=2)])
    assert [t.id for t in gamma_set(tl, 4, 5, PfcKind.REORG_HYBRID_WINDOW)] == ["h"]
    assert gamma_value(tl, 4, 5, PfcKind.REORG_HYBRID_WINDOW) == 2
    assert gamma_value(tl, 4, 5, PfcKind.REORG_WINDOW) == 3


def test_filters_nest_and_match_reference_predicate():
    rng = random.Random(11)
    rules = ["immediate", "secure", "bridge", "insured_immediate"]
    for _ in range(200):
        kind = rng.choice(["pure", "hybrid"])
        rule = rng.choice(rules)
        t = tx("x", 1, kind=kind, rule=rule)
        tl = build_timeline(horizon=5, transactions=[t])
        matched = {rung for rung in WINDOW_KINDS if gamma_value(tl, 0, 5, rung)}
        expected = {rung for rung in WINDOW_KINDS if rung_counts(t, rung)}
        assert matched == expected
        assert {rung for rung in WINDOW_KINDS if gamma_set(tl, 0, 5, rung)} == expected
        # nesting: each rung counts a subset of what the rung before it counts
        for looser, tighter in zip(WINDOW_KINDS, WINDOW_KINDS[1:]):
            if tighter in matched:
                assert looser in matched


def test_rungs_names_the_first_rungs_the_reference_predicate_counts():
    for kind, rule in product(TxKind, ConfirmationRule):
        t = tx("x", 1, kind=kind.value, rule=rule.value)
        counting = [rung for rung in WINDOW_KINDS if rung_counts(t, rung)]
        assert _rungs(t) == len(counting), (kind, rule)
        assert counting == list(WINDOW_KINDS[: _rungs(t)]), (kind, rule)


def random_transactions(rng, horizon, n):
    """`n` transactions on few distinct ticks, so that ticks repeat."""
    ticks = [rng.randrange(horizon + 1) for _ in range(max(1, n // 3))]
    rules = ["immediate", "secure", "bridge", "insured_immediate"]
    return [
        tx(f"t{i}", rng.choice(ticks), v=Fraction(rng.randrange(0, 50), rng.randrange(1, 7)),
           kind=rng.choice(["pure", "hybrid"]), rule=rng.choice(rules))
        for i in range(n)
    ]


def test_gamma_value_matches_brute_force_sum():
    rng = random.Random(2024)
    for _ in range(150):
        horizon = rng.randrange(1, 60)
        txs = random_transactions(rng, horizon, rng.randrange(0, 25))
        tl = build_timeline(horizon=horizon, transactions=txs)
        ticks = sorted({t.finalized_at for t in txs})
        # bounds on transaction ticks, below 0 and past the horizon
        bounds = ticks + [-3, -1, 0, horizon, horizon + 1, horizon + 7]
        bounds += [rng.randrange(-5, horizon + 6) for _ in range(4)]
        for t0 in bounds:
            for t1 in bounds:
                if t0 >= t1:
                    continue
                for rung in WINDOW_KINDS:
                    want = sum((t.value for t in gamma_set(tl, t0, t1, rung)), Fraction(0))
                    got = gamma_value(tl, t0, t1, rung)
                    assert type(got) is Fraction and got == want, (t0, t1, rung)
        # empty windows: between neighbouring transaction ticks, before the
        # first and after the last
        edges = [-4] + ticks + [horizon + 4]
        for a, b in zip(edges, edges[1:]):
            if a + 1 == b:
                continue
            # the whole gap, its first tick and its last tick
            for t0, t1 in ((a + 1, b), (a + 1, a + 2), (b - 1, b)):
                for rung in WINDOW_KINDS:
                    assert not gamma_set(tl, t0, t1, rung)
                    got = gamma_value(tl, t0, t1, rung)
                    assert type(got) is Fraction and got == 0, (t0, t1, rung)


def test_gamma_value_sorts_a_timeline_built_without_build_timeline():
    rng = random.Random(7)
    for _ in range(50):
        txs = random_transactions(rng, 30, rng.randrange(1, 20))
        rng.shuffle(txs)
        tl = ChainTimeline(horizon=30, transactions=tuple(txs))
        for t0 in range(-1, 31, 3):
            for rung in WINDOW_KINDS:
                want = sum((t.value for t in gamma_set(tl, t0, t0 + 5, rung)), Fraction(0))
                assert gamma_value(tl, t0, t0 + 5, rung) == want


def test_a_replaced_timeline_gets_its_own_index():
    tl = build_timeline(horizon=20, transactions=[tx("a", 3, v=2), tx("b", 8, v=5)])
    assert gamma_value(tl, 0, 20, PfcKind.UNINSURED_LOAD) == 7
    # what a run does at its end: the same transactions under their effective rules
    secured = replace(tl, transactions=tuple(replace(t, rule="secure") for t in tl.transactions))
    assert "_gamma_index" not in vars(secured)
    assert gamma_value(secured, 0, 20, PfcKind.UNINSURED_LOAD) == 0
    assert gamma_value(secured, 0, 20, PfcKind.REORG_HYBRID_WINDOW) == 7
    assert gamma_value(tl, 0, 20, PfcKind.UNINSURED_LOAD) == 7


def test_building_the_index_leaves_identity_alone():
    names = [f.name for f in fields(ChainTimeline)]
    tl = build_timeline(horizon=20, transactions=[tx("a", 3, v=2), tx("b", 8, v=5)])
    before_hash, before_repr = hash(tl), repr(tl)
    assert "_gamma_index" not in vars(tl)
    gamma_value(tl, 0, 10)
    assert "_gamma_index" in vars(tl)
    assert tl == replace(tl) and replace(tl) == tl
    assert hash(tl) == before_hash == hash(replace(tl))
    assert repr(tl) == before_repr
    assert [f.name for f in fields(ChainTimeline)] == names
    assert names == ["horizon", "transactions", "fork_events", "validators"]


def test_validator_activity():
    v = ValidatorState(id="v", stake=1, exit_tick=10)
    assert v.active_at(9) and not v.active_at(10) and not v.active_at(11)
    assert ValidatorState(id="w", stake=1).active_at(10**9)
