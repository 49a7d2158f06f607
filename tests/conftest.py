"""Shared fixtures and randomized-input generators.

Generators respect the physics of the modeled chain: finalized blocks are
at least t_fin ticks apart, transactions finalize on block ticks, and forks
diverge at block ticks. Randomness always flows from an explicit seeded
Random so every failure reproduces.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).parent.parent))  # the benchmark's perfbench.workloads

from stakesim import (
    ChainTimeline,
    ForkRevealEvent,
    TimingParams,
    TransactionRecord,
    ValidatorState,
    build_timeline,
    engine,
)
from stakesim import rational


def count_epoch_visits(monkeypatch, limit: int | None = None) -> list[int]:
    """The epoch of every `engine._Run.on_epoch` call from now on, in order.
    A run that makes more than `limit` calls fails at once, so an engine
    that walks every epoch of a long horizon fails without walking it."""
    visited, on_epoch = [], engine._Run.on_epoch

    def counting_on_epoch(self, tick, e):
        visited.append(e)
        assert limit is None or len(visited) <= limit, f"more than {limit} epoch visits"
        return on_epoch(self, tick, e)

    monkeypatch.setattr(engine._Run, "on_epoch", counting_on_epoch)
    return visited


def clear_codec_memos() -> None:
    """Empty the exact-value codec's memos, as in a fresh process."""
    rational._read.cache_clear()
    rational._write.cache_clear()


def random_timing(rng: random.Random, *, t_cr: int | None = None) -> TimingParams:
    t_fin = rng.randint(1, 3)
    t_rev = rng.randint(3, 8)
    return TimingParams(
        t_fin=t_fin,
        t_rev=t_rev,
        t_ws=t_fin + t_rev + rng.randint(5, 40),
        t_cr=rng.randint(0, 4) if t_cr is None else t_cr,
        slash_delay=rng.randint(0, 2),
    )


def block_schedule(rng: random.Random, tp: TimingParams, horizon: int) -> list[int]:
    """Finalization ticks of consecutive blocks, spaced >= t_fin apart."""
    ticks = []
    t = rng.randint(0, tp.t_fin)
    while t <= horizon:
        ticks.append(t)
        t += tp.t_fin + rng.randint(0, tp.t_fin + 1)
    return ticks


def random_validators(rng: random.Random, n: int, *, earmark=Fraction(0)) -> list[ValidatorState]:
    return [
        ValidatorState(id=f"v{i + 1}", stake=Fraction(rng.randint(10, 40)), earmarked_fraction=earmark)
        for i in range(n)
    ]


_RULES = ["immediate", "secure", "bridge", "insured_immediate"]


def random_window_timeline(rng: random.Random, *, max_txs: int = 50, horizon: int | None = None) -> ChainTimeline:
    """Timeline with mixed kinds and rules, for the windowed-value bounds."""
    horizon = horizon if horizon is not None else rng.randint(20, 80)
    txs = []
    for i in range(rng.randint(0, max_txs)):
        kind = rng.choice(["pure", "hybrid"])
        rule = rng.choice(_RULES) if kind == "hybrid" else "immediate"
        f = rng.randint(0, horizon)
        txs.append(
            TransactionRecord(
                id=f"t{i}",
                transactor=rng.choice("abcde"),
                value=Fraction(rng.randint(0, 30)),
                kind=kind,
                rule=rule,
                finalized_at=f,
            )
        )
    return build_timeline(horizon=horizon, transactions=txs)


# Denominators 3, 6, 10 and 7: their lcm, 210, is above each of them.
_VALUE_PARTS = (Fraction(0), Fraction(1, 3), Fraction(5, 6), Fraction(7, 10), Fraction(2, 7))


def random_fraction_window_timeline(
    rng: random.Random, *, max_txs: int = 50, horizon: int | None = None
) -> ChainTimeline:
    """`random_window_timeline` with each integer value scaled by one of
    `_VALUE_PARTS`, so a filter's values have mixed denominators and their
    common denominator can exceed every single one."""
    tl = random_window_timeline(rng, max_txs=max_txs, horizon=horizon)
    scaled = (replace(tx, value=tx.value * rng.choice(_VALUE_PARTS)) for tx in tl.transactions)
    return replace(tl, transactions=tuple(scaled))


def random_physical_timeline(
    rng: random.Random,
    *,
    n_txs: int = 6,
    n_events: int = 3,
    all_secure: bool = False,
) -> tuple[ChainTimeline, TimingParams]:
    """Timeline whose transactions and fork divergences sit on a physical
    block schedule; reveal offsets cover every regime."""
    tp = random_timing(rng)
    horizon = rng.randint(6 * tp.t_rev, 10 * tp.t_rev)
    blocks = block_schedule(rng, tp, horizon)
    validators = random_validators(rng, rng.randint(3, 6))
    txs = []
    for i in range(rng.randint(1, n_txs)):
        f = rng.choice(blocks)
        rule = "secure" if all_secure else rng.choice(_RULES)
        txs.append(
            TransactionRecord(
                id=f"t{i}",
                transactor=rng.choice("abc"),
                value=Fraction(rng.randint(1, 20)),
                kind="hybrid",
                rule=rule,
                finalized_at=f,
            )
        )
    events = []
    for j in range(rng.randint(0, n_events)):
        t0 = rng.choice(blocks)
        lo, hi = _reveal_offset_range(rng, tp)
        revealed = t0 + rng.randint(lo, hi)
        if revealed > horizon:
            continue
        signers = rng.sample([v.id for v in validators], rng.randint(1, len(validators)))
        events.append(
            ForkRevealEvent(
                id=f"f{j}",
                diverges_from_block_finalized_at=t0,
                revealed_at=revealed,
                double_signers=frozenset(signers),
            )
        )
    timeline = build_timeline(
        horizon=horizon, transactions=txs, fork_events=events, validators=validators
    )
    return timeline, tp


def _reveal_offset_range(rng: random.Random, tp: TimingParams) -> tuple[int, int]:
    regime = rng.randrange(4)
    if regime == 0:
        return 0, tp.t_fin - 1 if tp.t_fin > 1 else 0
    if regime == 1:
        return tp.t_fin, tp.t_fin + tp.t_rev - 1
    if regime == 2:
        return tp.t_fin + tp.t_rev, tp.t_ws - 1
    return tp.t_ws, tp.t_ws + 10


def quiet_scenario_doc(*, seed: int = 3) -> dict:
    """No attack; one transactor per policy."""
    return {
        "schema_version": 1,
        "horizon": 60,
        "seed": seed,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 3, "slash_delay": 0},
        "econ": {
            "stake_per_validator": 32,
            "n_validators": 4,
            "reward": 1,
            "gamma": "1/2",
            "tvl": 200,
        },
        "policies": {"ins": "insured_fast_ux", "sec": "always_secure", "*": "always_secure"},
        "transactions": [
            {"id": "q1", "transactor": "sec", "value": 5, "kind": "hybrid", "finalized_at": 4},
            {"id": "q2", "transactor": "sec", "value": 8, "kind": "hybrid", "finalized_at": 23, "rule": "auto"},
            {"id": "q3", "transactor": "ins", "value": 6, "kind": "hybrid", "finalized_at": 25, "rule": "auto"},
            {"id": "q4", "transactor": "sec", "value": 9, "kind": "pure", "finalized_at": 30},
        ],
        "insurance_bids": [
            {"transactor": "ins", "epoch_placed": 0, "coverage": 10, "premium_rate": "1/50"}
        ],
        "adversary": {"strategy": {"kind": "none"}, "transactors": []},
    }


def attack_scenario_doc(rng: random.Random, gamma) -> dict:
    """Randomized double-sign attack against a mixed policy population.

    The fork diverges at an epoch boundary and reveals inside the ambiguous
    window but after the next block, so insured executions on that block are
    genuinely harmed, all inside one covering epoch (the gamma budget then
    always suffices).
    """
    t_fin = 2
    t_rev = rng.randint(6, 10)
    attack_epoch = rng.randint(2, 3)
    t0 = attack_epoch * t_rev
    reveal = t0 + t_fin + rng.randint(1, t_rev - 1)
    horizon = (attack_epoch + 4) * t_rev
    coverage = rng.randint(5, 10)
    n_harmed = rng.randint(1, 2)
    values = []
    budget = coverage - 1  # strict coverage condition caps total executed value
    for i in range(n_harmed):
        v = rng.randint(1, max(1, budget // n_harmed))
        values.append(v)
    txs = [
        {
            "id": f"ins{i}",
            "transactor": "ins",
            "value": v,
            "kind": "hybrid",
            "finalized_at": t0 + t_fin,
            "rule": "auto",
        }
        for i, v in enumerate(values)
    ]
    txs.append(
        {
            "id": "late",
            "transactor": "ins",
            "value": 2,
            "kind": "hybrid",
            "finalized_at": reveal + 1,
            "rule": "auto",
        }
    )
    txs.append(
        {
            "id": "sec1",
            "transactor": "sec",
            "value": rng.randint(1, 20),
            "kind": "hybrid",
            "finalized_at": rng.randint(0, t_rev - 1),
            "rule": "auto",
        }
    )
    txs.append(
        {
            "id": "free1",
            "transactor": "free",
            "value": rng.randint(1, 3),
            "kind": "hybrid",
            "finalized_at": t0 + t_fin,
            "rule": "auto",
        }
    )
    return {
        "schema_version": 1,
        "horizon": horizon,
        "seed": rng.randint(0, 10**6),
        "timing": {"t_fin": t_fin, "t_rev": t_rev, "t_ws": 200, "t_cr": 0, "slash_delay": 0},
        "econ": {
            "stake_per_validator": 32,
            "n_validators": 4,
            "reward": 1,
            "gamma": gamma,
            "tvl": 300,
        },
        "policies": {
            "ins": "insured_fast_ux",
            "sec": "always_secure",
            "free": "uninsured_freerider",
            "*": "always_secure",
        },
        "transactions": txs,
        "insurance_bids": [
            {
                "transactor": "ins",
                "epoch_placed": attack_epoch - 2,
                "coverage": coverage,
                "premium_rate": "1/50",
            }
        ],
        "adversary": {
            "strategy": {
                "kind": "double_sign_at",
                "tick": reveal,
                "target_t0": t0,
                "stake_fraction": "1/2",
            },
            "transactors": ["mallory"],
        },
        "attack_over_epoch": attack_epoch + 2,
    }


def breach_scenario_doc() -> dict:
    """Coverage oversold relative to what the slash can fund: one of the two
    double signers exits before the snapshot, halving the slashed stake."""
    return {
        "schema_version": 1,
        "horizon": 60,
        "seed": 5,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 0, "slash_delay": 0},
        "econ": {
            "stake_per_validator": 32,
            "n_validators": 4,
            "reward": 1,
            "gamma": "1/2",
            "tvl": 300,
        },
        "validators": [
            {"id": "v1", "stake": 32, "earmarked_fraction": "1/2", "exit_tick": 25},
            {"id": "v2", "stake": 32, "earmarked_fraction": "1/2"},
            {"id": "v3", "stake": 32, "earmarked_fraction": "1/2"},
            {"id": "v4", "stake": 32, "earmarked_fraction": "1/2"},
        ],
        "policies": {"alice": "insured_fast_ux", "*": "always_secure"},
        "transactions": [
            {"id": "a1", "transactor": "alice", "value": 18, "kind": "hybrid", "finalized_at": 21, "rule": "auto"}
        ],
        "insurance_bids": [
            {"transactor": "alice", "epoch_placed": 0, "coverage": 20, "premium_rate": "1/50"}
        ],
        "fork_events": [
            {"id": "ds", "diverges_from": 20, "revealed_at": 26, "double_signers": ["v1", "v2"]}
        ],
        "adversary": {"strategy": {"kind": "none"}, "transactors": []},
    }


def long_busy_demo_doc() -> dict:
    """The shipped double-sign demo over 2,001 epochs, each from epoch 6 to
    1,999 holding a pure transaction of value 1, so its report has a row
    per epoch, nearly all alike."""
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "double-sign.json").read_text(encoding="utf-8"))
    doc["horizon"] = 20_000
    doc["transactions"] += [
        {"id": f"p{e}", "transactor": "dora", "value": 1, "kind": "pure", "finalized_at": 10 * e + 2}
        for e in range(6, 2_000)
    ]
    return doc


def rows_by_epoch(rows: list, t_rev: int) -> list:
    """A report's per-epoch rows with each row repeated once for every
    epoch of its window, as that epoch's row: its own `epoch` and a
    one-epoch `window`, every other cell as the row has it."""
    return [
        {**row, "epoch": e, "window": [e * t_rev, (e + 1) * t_rev]}
        for row in rows
        for e in range(row["window"][0] // t_rev, row["window"][1] // t_rev)
    ]


def assert_rows_are_maximal(rows: list, special: set, t_rev: int) -> None:
    """The rows' windows tile the epochs from 0 in order, each named by its
    first epoch; every epoch in `special` (busy, covered or uncovered) has
    a one-epoch row of its own, and a row of the other epochs spans a whole
    run of them: it holds none of `special`, and no two such are adjacent."""
    starts, stops = [row["window"][0] for row in rows], [row["window"][1] for row in rows]
    assert starts == [0] + stops[:-1]
    assert [row["epoch"] * t_rev for row in rows] == starts
    gaps = [row["epoch"] not in special for row in rows]
    for gap, start, stop in zip(gaps, starts, stops):
        epochs = set(range(start // t_rev, stop // t_rev))
        assert epochs.isdisjoint(special) if gap else stop - start == t_rev
    assert not any(a and b for a, b in zip(gaps, gaps[1:]))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
