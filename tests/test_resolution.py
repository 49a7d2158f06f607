"""Reveal-timing regimes and the slashable-stake snapshot."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stakesim import (
    ForkRevealEvent,
    ResolutionOutcome,
    RevealClass,
    SLASHABLE_CLASSES,
    TimingParams,
    ValidatorState,
    classify_reveal,
    resolve,
)
from stakesim.errors import InvariantViolationError

from oracles import slashed_oracle


TP = TimingParams(t_fin=3, t_rev=5, t_ws=20, slash_delay=1)


def ev(offset, signers=(), revealed_at=None, **kw):
    t0 = 100
    return ForkRevealEvent(
        id="e",
        diverges_from_block_finalized_at=t0,
        revealed_at=t0 + offset if revealed_at is None else revealed_at,
        double_signers=frozenset(signers),
        **kw,
    )


@pytest.mark.parametrize(
    "offset,expected",
    [
        (0, RevealClass.PRE_FINALITY),
        (2, RevealClass.PRE_FINALITY),
        (3, RevealClass.AMBIGUOUS_WINDOW),
        (7, RevealClass.AMBIGUOUS_WINDOW),
        (8, RevealClass.SOCIALLY_RESOLVED),
        (19, RevealClass.SOCIALLY_RESOLVED),
        (20, RevealClass.LONG_RANGE),
        (500, RevealClass.LONG_RANGE),
    ],
)
def test_regime_boundaries(offset, expected):
    assert classify_reveal(ev(offset), TP) == expected


def test_slashable_classes_are_the_middle_two():
    assert set(SLASHABLE_CLASSES) == {
        RevealClass.AMBIGUOUS_WINDOW,
        RevealClass.SOCIALLY_RESOLVED,
    }


def test_exited_signer_contributes_nothing():
    # Snapshot at revealed_at + slash_delay = 104 + 1 = 105; v3 left at 105.
    vals = [
        ValidatorState(id="v1", stake=10),
        ValidatorState(id="v2", stake=10),
        ValidatorState(id="v3", stake=10, exit_tick=105),
    ]
    out = resolve(ev(4, signers=["v1", "v2", "v3"]), TP, vals)
    assert out.reveal_class is RevealClass.AMBIGUOUS_WINDOW
    assert out.slashable
    assert out.slashable_stake == 20
    assert out.canonical_is_first_fork is None


def test_unslashable_reveals_carry_no_stake():
    vals = [ValidatorState(id="v1", stake=10)]
    pre = resolve(ev(1, signers=["v1"]), TP, vals)
    assert not pre.slashable and pre.slashable_stake == 0
    late = resolve(ev(50, signers=["v1"]), TP, vals)
    assert not late.slashable and late.slashable_stake == 0
    assert late.canonical_is_first_fork is True


def test_canonical_fork_mapping():
    vals = [ValidatorState(id="v1", stake=10)]
    expect = {
        RevealClass.PRE_FINALITY: None,
        RevealClass.AMBIGUOUS_WINDOW: None,
        RevealClass.SOCIALLY_RESOLVED: True,
        RevealClass.LONG_RANGE: True,
    }
    for offset in (0, 3, 8, 20):
        out = resolve(ev(offset, signers=["v1"]), TP, vals)
        assert out.canonical_is_first_fork == expect[out.reveal_class]


def test_outcome_rejects_contradictory_flag():
    with pytest.raises(InvariantViolationError, match="outcome for 'e': stake attached to unslashable reveal"):
        ResolutionOutcome(
            event_id="e", reveal_class=RevealClass.LONG_RANGE, slashed={"v1": Fraction(5)}
        )


def test_resolve_matches_oracle_on_random_inputs(rng):
    for _ in range(500):
        tp = TimingParams(
            t_fin=rng.randint(1, 4),
            t_rev=rng.randint(2, 8),
            t_ws=rng.randint(15, 40),
            slash_delay=rng.randint(0, 3),
        )
        n = rng.randint(1, 8)
        vals = [
            ValidatorState(
                id=f"v{i}",
                stake=Fraction(rng.randint(1, 50)),
                exit_tick=rng.choice([None, rng.randint(90, 140)]),
            )
            for i in range(n)
        ]
        signers = frozenset(
            v.id for v in vals if rng.random() < 0.6
        ) | ({"stranger"} if rng.random() < 0.2 else set())
        e = ForkRevealEvent(
            id="e",
            diverges_from_block_finalized_at=100,
            revealed_at=100 + rng.randint(0, 50),
            double_signers=signers,
        )
        out = resolve(e, tp, vals)
        offset = e.revealed_at - e.diverges_from_block_finalized_at
        assert out.slashable == (tp.t_fin <= offset < tp.t_ws)
        if out.slashable:
            snapshot = e.revealed_at + tp.slash_delay
            expected = slashed_oracle(signers, vals, snapshot)
            assert list(out.slashed.items()) == sorted(expected.items())
            assert out.slashable_stake == sum(expected.values(), Fraction(0))
        else:
            assert out.slashed == {} and out.slashable_stake == 0
