"""Attack-game payoffs, corruption cost, and the profit-bound ladder."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stakesim import (
    AttackOutcome,
    EconParams,
    InsuranceBid,
    InsuranceLedger,
    Mechanism,
    PfcKind,
    TimingParams,
    TransactionRecord,
    ValidatorChoice,
    ValidatorState,
    bribe_is_dominant,
    build_timeline,
    cost_of_corruption,
    gamma_value,
    payoff,
    pfc_ladder,
    safety_verdict,
    window_sup,
)
from stakesim import econ
from stakesim.chain import WINDOW_KINDS
from stakesim.econ import strong_safety_flags
from stakesim.insurance import KarmaSummary
from stakesim.report import _checked_sections
from stakesim.errors import InvariantViolationError

from oracles import (
    rung_counts,
    window_totals,
    dominance_oracle,
    insured_ok_oracle,
    strong_safety_oracle,
    window_sup_oracle,
    window_sup_oracle_quadratic,
)
from conftest import random_fraction_window_timeline, random_window_timeline, rows_by_epoch


def ep(s=32, n=4, r=1, b1=33, b2=33, gamma=Fraction(1, 2), tvl=100):
    return EconParams(
        stake_per_validator=Fraction(s),
        n_validators=n,
        reward=Fraction(r),
        bribe_fail=Fraction(b1),
        bribe_success=Fraction(b2),
        gamma=gamma,
        tvl=Fraction(tvl),
    )


H, B = ValidatorChoice.HONEST, ValidatorChoice.BRIBED
F, W = AttackOutcome.FAILED, AttackOutcome.SUCCEEDED


def test_token_toxicity_cells():
    p = ep()
    assert payoff(Mechanism.TOKEN_TOXICITY, H, F, p) == 33
    assert payoff(Mechanism.TOKEN_TOXICITY, H, W, p) == 0
    assert payoff(Mechanism.TOKEN_TOXICITY, B, F, p) == 65
    assert payoff(Mechanism.TOKEN_TOXICITY, B, W, p) == 33


def test_slashing_cells_text_reading():
    p = ep()
    assert payoff(Mechanism.SLASHING, H, F, p) == 33
    assert payoff(Mechanism.SLASHING, H, W, p) == 32
    assert payoff(Mechanism.SLASHING, B, F, p) == 33
    assert payoff(Mechanism.SLASHING, B, W, p) == 33


def test_slashing_dominance_is_strict():
    # B1 equal to the honest failed payoff is NOT dominant; one more unit is.
    assert not bribe_is_dominant(Mechanism.SLASHING, ep(b1=33))
    assert bribe_is_dominant(Mechanism.SLASHING, ep(b1=34))
    assert not bribe_is_dominant(Mechanism.SLASHING, ep(b1=10))


def test_token_toxicity_dominance_needs_b1_above_reward():
    assert not bribe_is_dominant(Mechanism.TOKEN_TOXICITY, ep(b1=Fraction(1, 2), b2=1))
    assert bribe_is_dominant(Mechanism.TOKEN_TOXICITY, ep(b1=2, b2=1))
    assert not bribe_is_dominant(Mechanism.TOKEN_TOXICITY, ep(b1=2, b2=0))


def test_dominance_matches_oracle(rng):
    for _ in range(10_000):
        p = ep(
            s=rng.randint(1, 50),
            r=rng.randint(0, 5),
            b1=Fraction(rng.randint(0, 120), rng.randint(1, 4)),
            b2=Fraction(rng.randint(0, 120), rng.randint(1, 4)),
        )
        for mech in Mechanism:
            cells = {(c.value, o.value): payoff(mech, c, o, p) for c in ValidatorChoice for o in AttackOutcome}
            assert bribe_is_dominant(mech, p) == dominance_oracle(cells)


def test_corruption_cost_grid():
    for s in (Fraction(1), Fraction(16), Fraction(32), Fraction(100, 3)):
        for n in (1, 3, 4, 10, 100):
            p = EconParams(stake_per_validator=s, n_validators=n)
            assert cost_of_corruption(Mechanism.SLASHING, p) == s * n / 3
            assert cost_of_corruption(Mechanism.TOKEN_TOXICITY, p) == 0
    tiny = EconParams(stake_per_validator=Fraction(1), n_validators=1)
    assert cost_of_corruption(Mechanism.SLASHING, tiny) == Fraction(1, 3)


def tx(id, f, v, kind="hybrid", rule="immediate"):
    return TransactionRecord(id=id, transactor="a", value=Fraction(v), kind=kind, finalized_at=f, rule=rule)


def test_window_sup_worked_example():
    tl = build_timeline(
        horizon=10, transactions=[tx("a", 0, 5), tx("b", 1, 7), tx("c", 3, 2)]
    )
    two = window_sup(tl, 2)
    assert (two.value, two.witness_window_start) == (12, 0)
    one = window_sup(tl, 1)
    assert (one.value, one.witness_window_start) == (7, 1)


def test_window_sup_rejects_degenerate_window():
    tl = build_timeline(horizon=10)
    with pytest.raises(InvariantViolationError, match="window length must be >= 1, got 0"):
        window_sup(tl, 0)


def test_window_sup_bounds_only_a_window_kind():
    tl = build_timeline(horizon=10, transactions=[tx("a", 0, 5)])
    with pytest.raises(InvariantViolationError, match="pfc kind 'steal_tvl' bounds no window"):
        window_sup(tl, 2, PfcKind.STEAL_TVL)
    with pytest.raises(InvariantViolationError, match="pfc kind 'steal_tvl' bounds no window"):
        gamma_value(tl, 0, 2, PfcKind.STEAL_TVL)


def test_window_sup_empty_selection_has_no_witness():
    tl = build_timeline(horizon=10, transactions=[tx("p", 3, 9, kind="pure")])
    bound = window_sup(tl, 4, PfcKind.REORG_HYBRID_WINDOW)
    assert bound.value == 0 and bound.witness_window_start is None


def check_window_sup_against_oracles(tl, t_rev, kind):
    candidates = sorted({0} | {t.finalized_at for t in tl.transactions})
    got = window_sup(tl, t_rev, kind)
    assert got.kind is kind
    totals = window_totals(tl.transactions, tl.horizon, t_rev, kind)
    want_v, want_w = window_sup_oracle(tl.transactions, tl.horizon, t_rev, kind)
    quad = window_sup_oracle_quadratic(tl.transactions, tl.horizon, t_rev, kind)
    assert (want_v, want_w) == quad
    # the candidate scan must find the true supremum over every
    # integer start, and its witness must be the smallest candidate
    # that achieves it (which may sit right of the smallest integer
    # start achieving it)
    assert type(got.value) is Fraction and got.value == want_v
    assert (got.witness_window_start is None) == (got.value == 0)
    if got.witness_window_start is not None:
        w = got.witness_window_start
        assert totals[w] == got.value
        assert all(totals[c] < got.value for c in candidates if c < w)


def test_window_sup_matches_oracles(rng):
    for i in range(300):
        tl = random_window_timeline(rng, max_txs=12, horizon=rng.randint(5, 25))
        t_rev = rng.randint(1, 8)
        for kind in WINDOW_KINDS:
            check_window_sup_against_oracles(tl, t_rev, kind)


def test_window_sums_over_mixed_denominators_match_brute_force_and_oracles(rng):
    # the index keeps each filter's prefix sums as integers over the lcm
    # of its values' denominators
    wider = 0
    for i in range(300):
        tl = random_fraction_window_timeline(rng, max_txs=12, horizon=rng.randint(5, 25))
        t_rev = rng.randint(1, 8)
        for kind in WINDOW_KINDS:
            matching = [t for t in tl.transactions if rung_counts(t, kind)]
            _, _, den = tl._gamma_index[kind]
            wider += den > max((t.value.denominator for t in matching), default=1)
            for t0 in range(-1, tl.horizon + 2):
                want = sum((t.value for t in matching if t0 <= t.finalized_at < t0 + t_rev), Fraction(0))
                got = gamma_value(tl, t0, t0 + t_rev, kind)
                assert type(got) is Fraction and got == want, (t0, kind)
            check_window_sup_against_oracles(tl, t_rev, kind)
    assert wider > 100


def test_window_sup_reads_one_exact_window_value_at_most(monkeypatch):
    calls = []
    real = econ.gamma_value

    def counted(timeline, t0, t1, kind=PfcKind.REORG_WINDOW):
        calls.append((t0, t1, kind))
        return real(timeline, t0, t1, kind)

    monkeypatch.setattr(econ, "gamma_value", counted)
    rng = random.Random(16)
    txs = [
        tx(f"t{i}", rng.randrange(0, 2_000), rng.randrange(1, 50), rule=rng.choice(["immediate", "secure"]))
        for i in range(600)
    ]
    tl = build_timeline(horizon=2_000, transactions=txs)
    for kind in WINDOW_KINDS:
        calls.clear()
        w = window_sup(tl, 40, kind).witness_window_start
        assert w is not None and calls == [(w, w + 40, kind)]
    # only pure flow: every hybrid selection is empty, and nothing is read
    pure = build_timeline(horizon=2_000, transactions=[tx(t.id, t.finalized_at, 1, kind="pure") for t in txs])
    calls.clear()
    for kind in (PfcKind.REORG_HYBRID_WINDOW, PfcKind.REORG_HYBRID_SECURE_RULE, PfcKind.UNINSURED_LOAD):
        bound = window_sup(pure, 40, kind)
        assert bound.value == 0 and bound.witness_window_start is None
    assert calls == []


def test_ladder_order_and_monotonicity(rng):
    tp = TimingParams(t_fin=2, t_rev=5, t_ws=30)
    for _ in range(200):
        tl = random_window_timeline(rng, max_txs=20)
        ladder = pfc_ladder(tl, tp, ep(tvl=10_000))
        assert [b.kind for b in ladder] == [
            PfcKind.STEAL_TVL,
            PfcKind.REORG_WINDOW,
            PfcKind.REORG_HYBRID_WINDOW,
            PfcKind.REORG_HYBRID_SECURE_RULE,
            PfcKind.UNINSURED_LOAD,
        ]
        assert ladder[0].value == 10_000
        window_values = [b.value for b in ladder[1:]]
        assert window_values == sorted(window_values, reverse=True)


TP = TimingParams(t_fin=1, t_rev=10, t_ws=30)


def test_verdict_requires_strictly_greater_cost():
    # coc = 96/3 = 32 exactly equals the windowed load: not safe
    tl = build_timeline(horizon=40, transactions=[tx("a", 5, 32)])
    p = ep(s=24, n=4, tvl=500)
    v = safety_verdict(tl, TP, p, {}, PfcKind.REORG_WINDOW)
    assert v.coc == 32 and v.pfc.value == 32
    assert not v.cryptoeconomically_safe
    one_less = build_timeline(horizon=40, transactions=[tx("a", 5, 31)])
    assert safety_verdict(one_less, TP, p, {}, PfcKind.REORG_WINDOW).cryptoeconomically_safe


def test_full_earmark_leaves_no_uninsured_buffer():
    # gamma = 1 burns nothing, so the strict buffer test fails even with
    # zero uninsured load
    tl = build_timeline(horizon=40, transactions=[tx("s", 5, 3, rule="secure")])
    v = safety_verdict(tl, TP, ep(gamma=Fraction(1)), {}, PfcKind.UNINSURED_LOAD)
    assert not v.uninsured_buffer_ok and not v.strong_safety
    assert v.cryptoeconomically_safe  # plain safety is unaffected


def _insured_setup(value, coverage):
    vals = [
        ValidatorState(id=f"v{i}", stake=Fraction(32), earmarked_fraction=Fraction(1, 2))
        for i in range(1, 5)
    ]
    t = TransactionRecord(
        id="i1", transactor="alice", value=Fraction(value), kind="hybrid",
        finalized_at=45, rule="insured_immediate",
    )
    tl = build_timeline(horizon=60, transactions=[t], validators=vals)
    ledger = InsuranceLedger(vals, ep(), transactors={"alice"})
    ledger.sell(2, [InsuranceBid("alice", 2, Fraction(coverage), Fraction(1, 50))])
    ledger.activate(4)
    return tl, ledger.coverage()


def test_strong_safety_needs_verified_coverage():
    tl, coverage = _insured_setup(value=3, coverage=4)
    v = safety_verdict(tl, TP, ep(), coverage, PfcKind.REORG_HYBRID_SECURE_RULE)
    assert v.cryptoeconomically_safe and v.uninsured_buffer_ok and v.strong_safety

    # without coverage the insured flow cannot be verified
    assert not safety_verdict(tl, TP, ep(), {}, PfcKind.REORG_HYBRID_SECURE_RULE).strong_safety

    # executing exactly up to the purchased coverage is already unsafe
    tl2, coverage2 = _insured_setup(value=4, coverage=4)
    assert not safety_verdict(tl2, TP, ep(), coverage2, PfcKind.REORG_HYBRID_SECURE_RULE).strong_safety


def test_unprotected_immediate_flow_breaks_strong_safety():
    tl = build_timeline(horizon=40, transactions=[tx("a", 5, 3, rule="immediate")])
    v = safety_verdict(tl, TP, ep(), {}, PfcKind.REORG_HYBRID_SECURE_RULE)
    assert not v.strong_safety
    assert v.uninsured_buffer_ok  # 3 < (1/2) * 128/3


def _random_insured_case(rng: random.Random):
    """A timeline of mixed kinds and rules (zero values included), and a
    coverage map that covers each insured (transactor, epoch) load not at
    all, exactly, just below, above, or exactly across two lots."""
    t_rev = rng.randint(2, 8)
    horizon = rng.randint(t_rev, 8 * t_rev)
    rules = ["secure", "bridge", "insured_immediate"]
    if rng.random() < 0.5:
        rules.append("immediate")
    txs = []
    for i in range(rng.randint(0, 12)):
        kind = rng.choice(["pure", "hybrid", "hybrid"])
        rule = rng.choice(rules) if kind == "hybrid" else "immediate"
        txs.append(
            TransactionRecord(
                id=f"t{i}",
                transactor=rng.choice("abc"),
                value=Fraction(rng.choice([0, 0, rng.randint(1, 20)])),
                kind=kind,
                rule=rule,
                finalized_at=rng.randint(0, horizon),
            )
        )
    tl = build_timeline(horizon=horizon, transactions=txs)
    tp = TimingParams(t_fin=1, t_rev=t_rev, t_ws=3 * t_rev)
    econ = ep(s=rng.randint(1, 40), gamma=Fraction(rng.randint(0, 4), 4))

    loads: dict = {}
    for tx in tl.transactions:
        if tx.kind.value == "hybrid" and tx.rule.value == "insured_immediate":
            key = (tx.transactor, tx.finalized_at // t_rev)
            loads[key] = loads.get(key, Fraction(0)) + tx.value
    # a stray lot for a transactor-epoch with no insured flow
    stray = (rng.choice("abc"), rng.randint(0, horizon // t_rev))
    amounts = {stray: [Fraction(rng.randint(1, 5))]} if rng.random() < 0.3 else {}
    modes = []
    for key, load in sorted(loads.items()):
        mode = rng.choice(["none", "exact", "below", "above", "split"])
        if mode in ("exact", "below", "split") and load < 2:
            mode = "none"
        modes.append(mode)
        amounts[key] = {
            "none": [],
            "exact": [load],
            "below": [load - 1],
            "above": [load + rng.randint(1, 5)],
            "split": [Fraction(1), load - 1],
        }[mode] + amounts.get(key, [])
    coverage: dict = {}
    for (tr, e), lots in sorted(amounts.items()):
        for amount in lots:
            coverage.setdefault(e, {})[tr] = coverage.get(e, {}).get(tr, Fraction(0)) + amount
    return tl, tp, econ, coverage, modes


def test_strong_safety_matches_the_oracle_on_random_cases():
    rng = random.Random(20260418)
    seen = {"strong": set(), "buffer": set(), "insured_ok": set(), "modes": set(), "zero": False}
    for _ in range(400):
        tl, tp, econ, coverage, modes = _random_insured_case(rng)
        coc = cost_of_corruption(Mechanism.SLASHING, econ)
        load, _ = window_sup_oracle(tl.transactions, tl.horizon, tp.t_rev, PfcKind.UNINSURED_LOAD)

        expected = strong_safety_oracle(tl.transactions, tp.t_rev, econ.gamma, coc, load, coverage)
        v = safety_verdict(tl, tp, econ, coverage, PfcKind.REORG_HYBRID_SECURE_RULE)
        assert (v.strong_safety, v.uninsured_buffer_ok) == expected
        ladder = pfc_ladder(tl, tp, econ)
        assert strong_safety_flags(tl, tp, econ, ladder, coverage)[:2] == expected

        # no coverage: nothing insured is covered
        bare = strong_safety_oracle(tl.transactions, tp.t_rev, econ.gamma, coc, load, {})
        v = safety_verdict(tl, tp, econ, {}, PfcKind.REORG_HYBRID_SECURE_RULE)
        assert (v.strong_safety, v.uninsured_buffer_ok) == bare

        # the report's sections, as `build_report` makes them from its ledger's coverage map
        loop = _checked_sections(tl, tp, econ, coverage, [], KarmaSummary((), frozenset(), Fraction(0)))
        rows = [row["insured_ok"] for row in rows_by_epoch(loop.doc["per_epoch"], tp.t_rev)]
        assert rows == insured_ok_oracle(tl.transactions, tl.horizon, tp.t_rev, coverage)
        assert (loop.strong, loop.buffer_ok) == expected

        seen["strong"].add(expected[0])
        seen["buffer"].add(expected[1])
        seen["insured_ok"].update(rows)
        seen["modes"].update(modes)
        seen["zero"] |= any(tx.value == 0 for tx in tl.transactions)
    # the cases reach every outcome and every coverage shape
    assert seen["strong"] == seen["buffer"] == seen["insured_ok"] == {True, False}
    assert seen["modes"] == {"none", "exact", "below", "above", "split"}
    assert seen["zero"]
