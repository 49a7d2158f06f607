"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written the dumb way: enumerate every
case, recompute from first principles, no reuse of library internals
beyond plain data access. Slow is fine; wrong is not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from stakesim.chain import WINDOW_KINDS, epoch_bounds, epoch_of, gamma_value
from stakesim.econ import Mechanism, PfcKind, cost_of_corruption
from stakesim.engine import _Run
from stakesim.rational import frac_str


def rung_counts(tx, kind: str) -> bool:
    """Re-derivation of the nested transaction sets the window rungs of the
    ladder count, by the rung's name."""
    if kind == "reorg_window":
        return True
    if tx.kind.value != "hybrid":
        return False
    if kind == "reorg_hybrid_window":
        return True
    if tx.rule.value in ("secure", "bridge"):
        return False
    if kind == "reorg_hybrid_secure_rule":
        return True
    if kind == "uninsured_load":
        return tx.rule.value != "insured_immediate"
    raise ValueError(kind)


def gamma_set(timeline, t0: int, t1: int, kind: str = "reorg_window") -> tuple:
    """The transactions finalized in [t0, t1) that window rung `kind`
    counts, in timeline order, by testing every one."""
    return tuple(
        tx
        for tx in timeline.transactions
        if t0 <= tx.finalized_at < t1 and rung_counts(tx, kind)
    )


def window_totals(txs, horizon: int, t_rev: int, kind: str) -> list:
    """The value rung `kind` counts inside [s, s + t_rev) for EVERY integer
    start s in [0, horizon]."""
    totals = [Fraction(0)] * (horizon + 1)
    for tx in txs:
        if not rung_counts(tx, kind):
            continue
        lo = max(0, tx.finalized_at - t_rev + 1)
        hi = min(horizon, tx.finalized_at)
        for s in range(lo, hi + 1):
            totals[s] += tx.value
    return totals


def window_sup_oracle(txs, horizon: int, t_rev: int, kind: str):
    """(max windowed value, smallest maximizing start or None)."""
    totals = window_totals(txs, horizon, t_rev, kind)
    best = max(totals) if totals else Fraction(0)
    if best == 0:
        return Fraction(0), None
    return best, totals.index(best)


def window_sup_oracle_quadratic(txs, horizon: int, t_rev: int, kind: str):
    """Same thing, even dumber (direct per-start sums). Cross-checks the
    bucketed version on small inputs."""
    best, witness = Fraction(0), None
    for s in range(horizon + 1):
        total = sum(
            (
                tx.value
                for tx in txs
                if s <= tx.finalized_at < s + t_rev and rung_counts(tx, kind)
            ),
            Fraction(0),
        )
        if total > best:
            best, witness = total, s
    return best, witness


def slashed_oracle(signers, validators, snapshot_tick: int) -> dict:
    """The stake each signer still staked at the snapshot loses, by
    enumerating each validator's state directly."""
    slashed = {}
    for v in validators:
        if v.id not in signers:
            continue
        exited = v.exit_tick is not None and snapshot_tick >= v.exit_tick
        if not exited:
            slashed[v.id] = v.stake
    return slashed


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


def allocate_oracle(bids, available: Fraction) -> list:
    """(buyer, coverage, premium rate) of each lot an auction sells: bids
    taken by the key (-premium_rate, transactor, submission index), each
    filled up to what remains of `available`."""
    order = sorted(range(len(bids)), key=lambda i: (-bids[i].premium_rate, bids[i].transactor, i))
    lots, remaining = [], available
    for i in order:
        if remaining <= 0:
            break
        allocated = min(bids[i].coverage_requested, remaining)
        remaining -= allocated
        lots.append((bids[i].transactor, allocated, bids[i].premium_rate))
    return lots


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


def strong_safety_oracle(txs, t_rev: int, gamma: Fraction, coc: Fraction, uninsured_load: Fraction, coverage):
    """(strong_safety, uninsured_buffer_ok) by the rule `analyze` applied
    before the rule had one definition: any plain immediate hybrid flow
    fails; insured flow, summed per (transactor, epoch), must stay strictly
    below `coverage[epoch][transactor]`; the burn share of the slashing coc
    must strictly exceed the uninsured load bound."""
    strong = True
    insured_groups: dict = {}
    for tx in txs:
        if tx.kind.value != "hybrid":
            continue
        if tx.rule.value in ("secure", "bridge"):
            continue
        if tx.rule.value == "immediate":
            strong = False
            continue
        key = (tx.transactor, tx.finalized_at // t_rev)
        insured_groups[key] = insured_groups.get(key, Fraction(0)) + tx.value
    for (tr, e), total in insured_groups.items():
        if not total < coverage.get(e, {}).get(tr, Fraction(0)):
            strong = False
    uninsured_buffer_ok = (1 - gamma) * coc > uninsured_load
    return strong and uninsured_buffer_ok, uninsured_buffer_ok


def insured_ok_oracle(txs, horizon: int, t_rev: int, coverage) -> list:
    """Each epoch's insured_ok, by a rescan of every transaction per epoch:
    every transactor's insured flow finalized in the epoch stays strictly
    below the coverage it bought for that epoch."""
    rows = []
    for e in range(horizon // t_rev + 1):
        t0, t1 = e * t_rev, (e + 1) * t_rev
        insured_by_tr: dict = {}
        for tx in txs:
            if (
                tx.kind.value == "hybrid"
                and tx.rule.value == "insured_immediate"
                and t0 <= tx.finalized_at < t1
            ):
                insured_by_tr[tx.transactor] = insured_by_tr.get(tx.transactor, Fraction(0)) + tx.value
        bucket = coverage.get(e, {})
        rows.append(all(total < bucket.get(tr, Fraction(0)) for tr, total in insured_by_tr.items()))
    return rows


def epoch_rows_oracle(timeline, t_rev: int, econ, coverage) -> list:
    """The report's per-epoch rows, rebuilt epoch by epoch and rung by
    rung from `gamma_set`, with no shortcut for an epoch that holds no
    transaction. The slashing coc is a third of the nominal stake; the
    uninsured buffer is its burn share."""
    coc = Fraction(1, 3) * econ.stake_per_validator * econ.n_validators
    burn_share = (1 - econ.gamma) * coc
    insured_ok = insured_ok_oracle(timeline.transactions, timeline.horizon, t_rev, coverage)
    rows = []
    for e in range(timeline.horizon // t_rev + 1):
        t0, t1 = e * t_rev, (e + 1) * t_rev
        sums = {
            rung: sum((tx.value for tx in gamma_set(timeline, t0, t1, rung)), Fraction(0))
            for rung in ("reorg_window", "reorg_hybrid_window", "reorg_hybrid_secure_rule", "uninsured_load")
        }
        rows.append(
            {
                "epoch": e,
                "window": [t0, t1],
                "sum_all": str(sums["reorg_window"]),
                "sum_hybrid": str(sums["reorg_hybrid_window"]),
                "sum_hybrid_not_secure": str(sums["reorg_hybrid_secure_rule"]),
                "sum_uninsured": str(sums["uninsured_load"]),
                "coverage": {tr: str(c) for tr, c in sorted(coverage.get(e, {}).items())},
                "insured_ok": insured_ok[e],
                "epoch_safe": sums["reorg_hybrid_secure_rule"] < coc,
                "uninsured_buffer_ok": sums["uninsured_load"] < burn_share,
            }
        )
    return rows


def epoch_rows_by_row(timeline, tp, ep, coverage, uncovered) -> list:
    """The report's per-epoch rows as `report._epoch_rows` takes them, but
    built row by row: every epoch, quiet or not, sums each window rung
    through `gamma_value` and computes its cells from those sums."""
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    burn_share = (1 - ep.gamma) * coc
    rows = []
    for e in range(epoch_of(timeline.horizon, tp.t_rev) + 1):
        t0, t1 = epoch_bounds(e, tp.t_rev)
        sums = {kind: gamma_value(timeline, t0, t1, kind) for kind in WINDOW_KINDS}
        rows.append(
            {
                "epoch": e,
                "window": [t0, t1],
                "sum_all": frac_str(sums[PfcKind.REORG_WINDOW]),
                "sum_hybrid": frac_str(sums[PfcKind.REORG_HYBRID_WINDOW]),
                "sum_hybrid_not_secure": frac_str(sums[PfcKind.REORG_HYBRID_SECURE_RULE]),
                "sum_uninsured": frac_str(sums[PfcKind.UNINSURED_LOAD]),
                "epoch_safe": coc > sums[PfcKind.REORG_HYBRID_SECURE_RULE],
                "uninsured_buffer_ok": burn_share > sums[PfcKind.UNINSURED_LOAD],
                "coverage": {tr: frac_str(c) for tr, c in sorted(coverage.get(e, {}).items())},
                "insured_ok": e not in uncovered,
            }
        )
    return rows


def epoch_lines_oracle(doc) -> list:
    """The per-epoch lines of `render_text`, formatted row by row and cell
    by cell, every value converted anew."""
    lines = []
    for row in doc["per_epoch"]:
        sums = [
            frac_decimal_oracle(Fraction(row[key]), 4)
            for key in ("sum_all", "sum_hybrid", "sum_hybrid_not_secure", "sum_uninsured")
        ]
        lines.append(
            f"  e{row['epoch']:<4} [{row['window'][0]:>6},{row['window'][1]:>6})  "
            f"{sums[0]:>12} {sums[1]:>12} {sums[2]:>12} {sums[3]:>12}  "
            f"{'safe' if row['epoch_safe'] else 'UNSAFE'}"
        )
    return lines


def first_mismatch_oracle(expected, actual, path: str = ""):
    """Path of the first differing field by walking every dict key (in
    sorted order) and list index, leaves compared by type and with `!=`;
    None if no field differs."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                return sub
            found = first_mismatch_oracle(expected[key], actual[key], sub)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}.length"
        for i, (ev, av) in enumerate(zip(expected, actual)):
            found = first_mismatch_oracle(ev, av, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return path or "<root>"
    return None


class LedgerOracle:
    """The insurance ledger's stake and premium bookkeeping, lot by lot and
    validator by validator over one flat list of lots: each lot's backing
    is built from the earmarks and deducted one validator at a time,
    returned the same way on release, and its premium paid to each backer
    as premium * backing / coverage; the free pool is re-summed and `u`
    re-scans every lot on each read.

    Lots are plain dicts (id, buyer, coverage, premium_paid, covering_epoch,
    state, backing). A reveal is slashable iff it lands t_fin or more, and
    less than t_ws, ticks after its divergence block.
    """

    def __init__(self, validators, tp, econ, fork_events):
        self.tp = tp
        self.gamma = econ.gamma
        self.cap = econ.gamma * Fraction(1, 3) * econ.stake_per_validator * econ.n_validators
        self.fork_events = list(fork_events)
        self.earmark_free = {v.id: v.earmarked_fraction * v.stake for v in validators}
        self.slashed_amounts: dict = {}
        self.premiums_paid: dict = {}
        self.premiums_earned: dict = {}
        self.lots: list = []

    def pool_free(self) -> Fraction:
        return sum(self.earmark_free.values(), Fraction(0))

    def available(self) -> Fraction:
        return min(self.pool_free(), self.cap)

    def u(self, transactor: str, covering_epoch: int) -> Fraction:
        return sum(
            (
                lot["coverage"]
                for lot in self.lots
                if lot["buyer"] == transactor and lot["covering_epoch"] == covering_epoch
            ),
            Fraction(0),
        )

    def sell(self, epoch: int, bids) -> list:
        """Greedy by rate descending, then transactor, then submission;
        each lot backed pro-rata by the positive earmarks as they stood
        before the auction."""
        weights = {v: w for v, w in self.earmark_free.items() if w > 0}
        total = sum(weights.values(), Fraction(0))
        remaining = self.available()
        order = sorted(range(len(bids)), key=lambda i: (-bids[i].premium_rate, bids[i].transactor, i))
        sold = []
        for i in order:
            if remaining <= 0:
                break
            bid = bids[i]
            allocated = min(bid.coverage_requested, remaining)
            remaining -= allocated
            backing = {v: allocated * w / total for v, w in sorted(weights.items())} if total > 0 else {}
            sold.append(
                {
                    "id": f"lot-e{epoch}-{len(self.lots) + len(sold)}",
                    "buyer": bid.transactor,
                    "coverage": allocated,
                    "premium_paid": allocated * bid.premium_rate,
                    "covering_epoch": epoch + 2,
                    "state": "pending",
                    "backing": backing,
                }
            )
        for lot in sold:
            for v, amount in lot["backing"].items():
                self.earmark_free[v] -= amount
            self.premiums_paid[lot["buyer"]] = self.premiums_paid.get(lot["buyer"], Fraction(0)) + lot["premium_paid"]
            self.lots.append(lot)
        return sold

    def activate(self, covering_epoch: int) -> None:
        for lot in self.lots:
            if lot["covering_epoch"] == covering_epoch and lot["state"] == "pending":
                lot["state"] = "active_coverage"

    def _credit_premium(self, lot) -> None:
        for v, amount in sorted(lot["backing"].items()):
            share = lot["premium_paid"] * amount / lot["coverage"]
            self.premiums_earned[v] = self.premiums_earned.get(v, Fraction(0)) + share

    def blockers(self, covering_epoch: int) -> list:
        """Ids of the slashable reveals in [start of c, start of c + 2)."""
        start, end = covering_epoch * self.tp.t_rev, (covering_epoch + 2) * self.tp.t_rev
        return [
            ev.id
            for ev in self.fork_events
            if start <= ev.revealed_at < end
            and self.tp.t_fin <= ev.revealed_at - ev.diverges_from_block_finalized_at < self.tp.t_ws
        ]

    def release(self, covering_epoch: int, excused) -> list:
        lots = [
            lot
            for lot in self.lots
            if lot["covering_epoch"] == covering_epoch and lot["state"] == "active_coverage"
        ]
        if not lots or any(ev not in excused for ev in self.blockers(covering_epoch)):
            return []
        for lot in lots:
            lot["state"] = "released"
            for v, amount in lot["backing"].items():
                if v not in self.slashed_amounts:
                    self.earmark_free[v] += amount
            self._credit_premium(lot)
        return lots

    def settle(self, slashed, harmed) -> None:
        """Book a slash of `slashed` ({signer: stake}) that reverted the
        insured executions `harmed` ([(transactor, covering epoch, value)]):
        claims capped at `u` and scaled into the gamma budget, the signers'
        earmarks zeroed, and every active lot behind a paid claim paid out."""
        grouped: dict = {}
        for tr, epoch, value in harmed:
            grouped[(tr, epoch)] = grouped.get((tr, epoch), Fraction(0)) + value
        keys = sorted(grouped)
        paid, _, _, _ = settle_oracle(
            sum(slashed.values(), Fraction(0)),
            self.gamma,
            [(grouped[k], self.u(*k)) for k in keys],
        )
        for signer, amount in slashed.items():
            self.earmark_free[signer] = Fraction(0)
            self.slashed_amounts[signer] = self.slashed_amounts.get(signer, Fraction(0)) + amount
        claimed = {k for k, p in zip(keys, paid) if p > 0}
        for lot in self.lots:
            if (lot["buyer"], lot["covering_epoch"]) in claimed and lot["state"] == "active_coverage":
                lot["state"] = "paid_out"
                self._credit_premium(lot)


class EveryEpochRun(_Run):
    """The engine visiting every epoch up to the horizon: each epoch
    schedules the next, so no epoch is skipped and every `epoch_start`
    record is a stretch of one, appended just before its own epoch handler
    runs. Its trace must equal the engine's byte for byte."""

    def on_epoch(self, tick, e):
        super().on_epoch(tick, e)
        self.schedule_epoch(e + 1)


def run_every_epoch(sc):
    """`engine.run` of `sc` with its own seed, visiting every epoch."""
    return EveryEpochRun(sc, sc.seed, PfcKind.REORG_HYBRID_SECURE_RULE).run()
