"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written the dumb way: enumerate every
case, recompute from first principles, no reuse of library internals
beyond plain data access. Slow is fine; wrong is not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence


def passes_filter(tx, selector: str) -> bool:
    """Re-derivation of the nested transaction filters."""
    if selector == "all":
        return True
    if tx.kind.value != "hybrid":
        return False
    if selector == "hybrid_only":
        return True
    if tx.rule.value in ("secure", "bridge"):
        return False
    if selector == "hybrid_not_secure":
        return True
    if selector == "uninsured":
        return tx.rule.value != "insured_immediate"
    raise ValueError(selector)


def window_totals(txs, horizon: int, t_rev: int, selector: str) -> list:
    """The filtered value inside [s, s + t_rev) for EVERY integer start s
    in [0, horizon]."""
    totals = [Fraction(0)] * (horizon + 1)
    for tx in txs:
        if not passes_filter(tx, selector):
            continue
        lo = max(0, tx.finalized_at - t_rev + 1)
        hi = min(horizon, tx.finalized_at)
        for s in range(lo, hi + 1):
            totals[s] += tx.value
    return totals


def window_sup_oracle(txs, horizon: int, t_rev: int, selector: str):
    """(max windowed value, smallest maximizing start or None)."""
    totals = window_totals(txs, horizon, t_rev, selector)
    best = max(totals) if totals else Fraction(0)
    if best == 0:
        return Fraction(0), None
    return best, totals.index(best)


def window_sup_oracle_quadratic(txs, horizon: int, t_rev: int, selector: str):
    """Same thing, even dumber (direct per-start sums). Cross-checks the
    bucketed version on small inputs."""
    best, witness = Fraction(0), None
    for s in range(horizon + 1):
        total = sum(
            (
                tx.value
                for tx in txs
                if s <= tx.finalized_at < s + t_rev and passes_filter(tx, selector)
            ),
            Fraction(0),
        )
        if total > best:
            best, witness = total, s
    return best, witness


def slashable_stake_oracle(signers, validators, snapshot_tick: int) -> Fraction:
    """Sum the stake of every signer still staked at the snapshot, by
    enumerating each validator's state directly."""
    total = Fraction(0)
    for v in validators:
        if v.id not in signers:
            continue
        exited = v.exit_tick is not None and snapshot_tick >= v.exit_tick
        if not exited:
            total += v.stake
    return total


def dominance_oracle(cells: dict) -> bool:
    """cells: {(choice, outcome): payoff}; bribed must strictly beat honest
    in both outcome columns."""
    return all(
        cells[("bribed", o)] > cells[("honest", o)] for o in ("failed", "succeeded")
    )


def secure_decision_oracle(tx_finalized_at: int, events, t_rev: int, window_start=None):
    """("confirmed", end) or ("waiting", None) by scanning every event."""
    start = tx_finalized_at if window_start is None else window_start
    for ev in events:
        in_window = start <= ev.revealed_at < start + t_rev
        is_ancestor = ev.diverges_from_block_finalized_at <= tx_finalized_at
        if in_window and is_ancestor:
            return "waiting", None
    return "confirmed", start + t_rev


def auction_best_revenue(
    requests: Sequence[int], rates: Sequence[Fraction], available: int
) -> Fraction:
    """Maximum seller revenue over EVERY integral allocation (a_i <= req_i,
    sum a_i <= available). Exponential; keep instances tiny."""
    best = Fraction(0)
    for combo in product(*(range(r + 1) for r in requests)):
        if sum(combo) > available:
            continue
        revenue = sum((a * r for a, r in zip(combo, rates)), Fraction(0))
        best = max(best, revenue)
    return best


def settle_oracle(slashed: Fraction, gamma: Fraction, claims):
    """claims: [(harm, coverage)] -> (per-claim paid, paid_total, burned,
    breach). Direct enumeration of the cap-then-budget arithmetic."""
    budget = gamma * slashed
    capped = [min(h, c) for h, c in claims]
    total = sum(capped, Fraction(0))
    breach = total > budget
    scale = budget / total if breach else Fraction(1)
    paid = [c * scale for c in capped]
    paid_total = sum(paid, Fraction(0))
    return paid, paid_total, slashed - paid_total, breach


def reverted_ids_oracle(txs, winning_events) -> set:
    """Transactions sitting strictly between a winning fork's divergence
    block and its reveal are reverted; the divergence block itself holds."""
    out = set()
    for ev in winning_events:
        for tx in txs:
            if ev.diverges_from_block_finalized_at < tx.finalized_at < ev.revealed_at:
                out.add(tx.id)
    return out


def frac_decimal_oracle(x: Fraction, places: int) -> str:
    """Fixed-point decimal, round half to even, by Fraction arithmetic on
    the scaled value and its remainder."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**places
    whole = scaled.numerator // scaled.denominator
    rem = scaled - whole
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"
