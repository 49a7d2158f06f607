"""Seeded scenario generator for the benchmark workloads.

`generate(workload, seed)` returns a scenario document and a sweep grid.
The same (workload, seed, smoke) always gives the same JSON. Sizes are
fixed per workload; the seed only moves ticks, values, transactor choice
and fork placement, so two seeds cost about the same to simulate.

Every document respects the chain's physics: transactions finalize on
block ticks (multiples of t_fin), fork reveals land in the ambiguous window
of the block they diverge from, and insured coverage per epoch never
exceeds the budget one slash can fund, so no run trips the settlement
invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

POLICIES = ("always_secure", "insured_fast_ux", "uninsured_freerider", "bridge_client")
_PREFIX = {"always_secure": "sec", "insured_fast_ux": "ins", "uninsured_freerider": "fre", "bridge_client": "brg"}
_RATES = ("1/50", "1/40", "1/25", "1/20")
ADVERSARY = "mallory"
T_FIN = 2


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[random.Random, bool], tuple[dict, dict]]


def _names(per_policy: int) -> dict[str, list[str]]:
    return {p: [f"{_PREFIX[p]}{i:02d}" for i in range(per_policy)] for p in POLICIES}


def _timing(t_rev: int) -> dict:
    return {"t_fin": T_FIN, "t_rev": t_rev, "t_ws": 200, "t_cr": 3, "slash_delay": 0}


def _econ(n_validators: int, gamma: str, tvl: int) -> dict:
    return {
        "stake_per_validator": 32,
        "n_validators": n_validators,
        "reward": 1,
        "bribe_fail": 0,
        "bribe_success": 0,
        "gamma": gamma,
        "tvl": tvl,
    }


def _transactions(rng: random.Random, n_tx: int, horizon: int, names: dict) -> list[dict]:
    """n_tx transactions on block ticks, 30% pure, transactors spread evenly
    over the four policies; two-digit values keep trace sizes seed-stable."""
    everyone = [n for p in POLICIES for n in names[p]]
    owners = [everyone[i % len(everyone)] for i in range(n_tx)]
    kinds = ["pure" if i % 10 < 3 else "hybrid" for i in range(n_tx)]
    rng.shuffle(owners)
    rng.shuffle(kinds)
    ticks = sorted(T_FIN * rng.randint(1, horizon // T_FIN) for _ in range(n_tx))
    return [
        {
            "id": f"tx{i:05d}",
            "transactor": owners[i],
            "value": rng.randint(10, 99),
            "kind": kinds[i],
            "finalized_at": ticks[i],
            "rule": "auto",
        }
        for i in range(n_tx)
    ]


def _covering_bids(rng: random.Random, txs: list[dict], t_rev: int, every: int, insured: list[str]) -> list[dict]:
    """One bid every `every` epochs, sized to just cover the busiest insured
    transactor's hybrid flow in the covered epoch, so some insured flow
    executes immediately and the rest falls back to the secure rule."""
    flow: dict[tuple[int, str], int] = {}
    for tx in txs:
        if tx["kind"] == "hybrid" and tx["transactor"] in insured:
            key = (tx["finalized_at"] // t_rev, tx["transactor"])
            flow[key] = flow.get(key, 0) + tx["value"]
    last = max(e for e, _ in flow) if flow else 0
    bids = []
    for covering in range(2, last + 1, every):
        in_epoch = sorted((v, tr) for (e, tr), v in flow.items() if e == covering)
        buyer, need = (in_epoch[-1][1], in_epoch[-1][0]) if in_epoch else (rng.choice(insured), 0)
        bids.append(
            {
                "transactor": buyer,
                "epoch_placed": covering - 2,
                "coverage": need + rng.randint(1, 20),
                "premium_rate": rng.choice(_RATES),
            }
        )
    return bids


def _double_sign(rng: random.Random, horizon: int, t_rev: int) -> tuple[dict, int]:
    """A 3/4-stake double-sign near 40% of the horizon, revealed inside the
    ambiguous window; the attack is declared over six epochs later. With
    3/4 of stake slashed, gamma * slashed exceeds the coverage of the two
    epochs the fork can touch, whatever gamma is."""
    tick = 2 * rng.randint(horizon // 5 - t_rev, horizon // 5)
    strategy = {"kind": "double_sign_at", "tick": tick, "target_t0": tick - 6, "stake_fraction": "3/4"}
    return strategy, tick // t_rev + 6


def _flow_scenario(
    rng: random.Random,
    *,
    n_tx: int,
    horizon: int,
    t_rev: int,
    per_policy: int,
    bid_every: int,
    tvl: int,
) -> dict:
    names = _names(per_policy)
    txs = _transactions(rng, n_tx, horizon, names)
    strategy, attack_over = _double_sign(rng, horizon, t_rev)
    return {
        "schema_version": 1,
        "horizon": horizon,
        "seed": rng.randrange(2**31),
        "timing": _timing(t_rev),
        "econ": _econ(16, "1/2", tvl),
        "policies": {n: p for p in POLICIES for n in names[p]},
        "transactions": txs,
        "insurance_bids": _covering_bids(rng, txs, t_rev, bid_every, names["insured_fast_ux"]),
        "adversary": {"strategy": strategy, "transactors": [ADVERSARY]},
        "attack_over_epoch": attack_over,
    }


# the flow workloads sweep their own scenario at one other gamma: one point
# is enough to time the per-point path at that scenario's size
POINT_GRID = {"econ.gamma": ["1/4"]}


def _dense_flow(rng: random.Random, smoke: bool) -> tuple[dict, dict]:
    n_tx, horizon = (60, 480) if smoke else (800, 6_400)
    doc = _flow_scenario(rng, n_tx=n_tx, horizon=horizon, t_rev=10, per_policy=10, bid_every=10, tvl=50_000)
    return doc, POINT_GRID


def _quiet_horizon(rng: random.Random, smoke: bool) -> tuple[dict, dict]:
    n_tx, horizon = (12, 2_000) if smoke else (50, 60_000)
    doc = _flow_scenario(
        rng, n_tx=n_tx, horizon=horizon, t_rev=10, per_policy=2, bid_every=horizon // 60, tvl=5_000
    )
    return doc, POINT_GRID


def _insurance_market(rng: random.Random, smoke: bool) -> tuple[dict, dict]:
    n_tx, horizon, n_forks = (40, 400, 4) if smoke else (200, 4_000, 40)
    t_rev = 10
    epochs = horizon // t_rev
    attack_over = epochs // 2
    names = _names(8)
    validators = [{"id": f"v{i:02d}", "stake": 32, "earmarked_fraction": "3/4"} for i in range(1, 33)]
    # the adversary's 12 validators sign every fork: 12 * 32 * gamma always
    # exceeds the gamma/3-of-stake coverage cap of the one epoch a fork spans
    signers = [v["id"] for v in validators[:12]]
    bids = [
        {
            "transactor": buyer,
            "epoch_placed": e,
            "coverage": rng.randint(10, 19),
            "premium_rate": rng.choice(_RATES),
        }
        for e in range(epochs - 1)
        for buyer in sorted(rng.sample(names["insured_fast_ux"], 3))
    ]
    # Forks sit at fixed, evenly spaced epochs from a quarter of the horizon
    # on, so every seed locks the same lots; the quiet first quarter lets
    # insured flow execute under coverage checks. Each fork reverts an
    # uninsured immediate payment placed at tick 4 of its epoch; the first
    # fork, and the first after the attack-over epoch, find that payment
    # already executed (no earlier fork switched the run to the secure
    # rule), so every seed has reverted executions.
    first = epochs // 4
    fork_epochs = [first + k * (epochs - first) // n_forks for k in range(n_forks)]
    freeriders = names["uninsured_freerider"]
    targets = [
        {
            "id": f"tg{k:03d}",
            "transactor": freeriders[k % len(freeriders)],
            "value": rng.randint(10, 99),
            "kind": "hybrid",
            "finalized_at": e * t_rev + 4,
            "rule": "auto",
        }
        for k, e in enumerate(fork_epochs)
    ]
    forks = [
        {
            "id": f"f{k:03d}",
            "diverges_from": e * t_rev + 2 * rng.randint(0, 1),
            "revealed_at": e * t_rev + 4 + rng.randint(1, 5),
            "double_signers": signers,
            "adversary_wins": True,
            "bridge_post_delay": rng.randint(0, 3),
        }
        for k, e in enumerate(fork_epochs)
    ]
    strategy, _ = _double_sign(rng, horizon, t_rev)
    doc = {
        "schema_version": 1,
        "horizon": horizon,
        "seed": rng.randrange(2**31),
        "timing": _timing(t_rev),
        "econ": _econ(32, "1/2", 20_000),
        "validators": validators,
        "policies": {n: p for p in POLICIES for n in names[p]},
        "transactions": _transactions(rng, n_tx - n_forks, horizon, names) + targets,
        "fork_events": forks,
        "insurance_bids": bids,
        "adversary": {"strategy": strategy, "transactors": [ADVERSARY]},
        "attack_over_epoch": attack_over,
    }
    return doc, POINT_GRID


def _sweep_grid(rng: random.Random, smoke: bool) -> tuple[dict, dict]:
    n_tx, horizon = (30, 240) if smoke else (80, 800)
    doc = _flow_scenario(rng, n_tx=n_tx, horizon=horizon, t_rev=10, per_policy=5, bid_every=4, tvl=4_000)
    if smoke:
        return doc, {"econ.gamma": ["1/4", "1/2"], "timing.t_rev": [8, 10]}
    grid = {
        "econ.gamma": ["1/4", "1/2", "3/4"],
        "timing.t_rev": [8, 10],
        "econ.tvl": [2_000, 4_000, 8_000, 16_000],
    }
    return doc, grid


WORKLOADS: dict[str, Workload] = {
    "dense_flow": Workload(
        "many transactions in few epochs: report and econ layers (window_sup, per-epoch rows, ladder) dominate",
        _dense_flow,
    ),
    "quiet_horizon": Workload(
        "few transactions over ~6k mostly empty epochs: engine per-epoch path, serialization and trace parsing dominate",
        _quiet_horizon,
    ),
    "insurance_market": Workload(
        "bids every epoch, 32 backing validators, 40 winning forks: ledger writes, settlement and fork scans dominate",
        _insurance_market,
    ),
    "sweep_grid": Workload(
        "24-point parameter grid over a small template: per-point parse, run and sweep writer dominate",
        _sweep_grid,
    ),
}


def generate(workload: str, seed: int, *, smoke: bool = False) -> tuple[dict, dict]:
    """(scenario document, sweep grid) for one workload and seed."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"), smoke)
