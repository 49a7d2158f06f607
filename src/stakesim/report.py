"""Safety reports: the machine document, its human rendering, and the
re-derivation of the document from a raw trace.

Machine values are exact rationals ("p/q" strings); human tables show
fixed-point decimals. A report has two parts. The loop part
(`LoopSections`, built by `_checked_sections`) is what the run's event
loop settles under its timing and its econ block but `tvl`: the cost of
corruption, the ladder's window rungs, the strong-safety flags, the
per-epoch rows, the totals, the settlements and the karma section. The
point part is the labels, the `steal_tvl` rung and the verdict against
the run's bound kind. `_report_doc` lays the document out once:
`build_report` fills it from a run, sharing the loop part of an earlier
report of the same loop and its encodings, and `recompute_from_trace`
from the run's trace, which the analyze verb diffs whole against its
embedded report.
Documents are at output version 4 (`OUTPUT_VERSION`), and `analyze` reads
only traces at that version. The per-epoch rows hold one row for each
epoch that holds a transaction, has coverage or is uncovered, and one for
each maximal run of quiet epochs between those, so a report grows with a
run's events, not with its horizon. They are built in one forward sweep
over the timeline's window index; a quiet row queries nothing, and a busy
row calls `gamma_value` once for the loosest rung and once more for each
tighter rung that counts at least one transaction, but fewer than the
rung before it.
"""

from __future__ import annotations

import dataclasses
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import AbstractSet, Any, Mapping, Optional, Sequence

from .chain import (
    ChainTimeline,
    EconParams,
    EpochIndex,
    PfcKind,
    Tick,
    TimingParams,
    epoch_of,
    gamma_value,
)
from .econ import (
    Mechanism,
    PfcBound,
    SafetyVerdict,
    cost_of_corruption,
    pfc_ladder,
    safety_verdict,
    strong_safety_flags,
)
from .errors import ScenarioError
from .insurance import PURCHASE_LEAD_EPOCHS, InsuranceLedger, KarmaEntry, KarmaSummary, SettlementRecord
from .insurance import coverage_map, paid_claims, settle_claims
from .rational import as_fraction, exact_sum, frac_decimal, frac_str
from .scenario import (
    KARMA,
    LOT,
    PFC_BOUND,
    SETTLEMENT,
    SHARES,
    TX_FINALIZED,
    VERDICT,
    canonical_json,
    canonical_object,
    confirmation_rule,
    integer,
    listing,
    parse_run_header,
    read_field,
    text,
)
from .version import OUTPUT_VERSION, __version__

BOUND_ALIASES = {
    "tvl": PfcKind.STEAL_TVL,
    "window": PfcKind.REORG_WINDOW,
    "hybrid": PfcKind.REORG_HYBRID_WINDOW,
    "secure": PfcKind.REORG_HYBRID_SECURE_RULE,
    "uninsured": PfcKind.UNINSURED_LOAD,
}


# each per-epoch sum column and the window rung whose transactions it sums,
# loosest to tightest as in WINDOW_KINDS: `_epoch_rows` reuses a looser
# rung's cell and reads the flags off the last two
_SUM_COLUMNS = {
    "sum_all": PfcKind.REORG_WINDOW,
    "sum_hybrid": PfcKind.REORG_HYBRID_WINDOW,
    "sum_hybrid_not_secure": PfcKind.REORG_HYBRID_SECURE_RULE,
    "sum_uninsured": PfcKind.UNINSURED_LOAD,
}

# the value of a window that counts no transaction
_NO_LOAD = Fraction(0)


@dataclass(frozen=True, eq=False)
class LoopSections:
    """The loop part of a report: what its run's event loop settles under
    the run's timing and its econ block but `tvl`. That is the ladder's
    window rungs, the slashing cost of corruption and the strong-safety
    flags that every verdict reads, and the `coc`, `per_epoch`, `totals`,
    `settlements` and `karma` sections as every report of the loop holds
    them (`doc`), encoded once, on first use (`fields`). `key` is what the
    part reads beside the loop, so a report under another timing or
    economics builds its own part."""

    key: tuple
    windows: tuple[PfcBound, ...]
    coc: Fraction
    strong: bool
    buffer_ok: bool
    doc: dict

    @cached_property
    def fields(self) -> dict[str, str]:
        return {key: canonical_json(value) for key, value in self.doc.items()}

    def ladder(self, tvl: Fraction) -> tuple[PfcBound, ...]:
        """The PfcBound ladder whose `steal_tvl` rung is `tvl`."""
        return (PfcBound(PfcKind.STEAL_TVL, tvl), *self.windows)

    def verdict(self, tvl: Fraction, bound_kind: PfcKind) -> SafetyVerdict:
        """The verdict against rung `bound_kind` of `ladder(tvl)`: the flags
        and the cost of corruption read no rung but the uninsured-load one,
        which is the loop's."""
        bound = next(b for b in self.ladder(tvl) if b.kind is bound_kind)
        return SafetyVerdict(self.coc, bound, self.strong, self.buffer_ok)


def _loop_key(tp: TimingParams, ep: EconParams) -> tuple:
    """What a report's loop part reads beside its event loop."""
    return tp, dataclasses.replace(ep, tvl=Fraction(0))


@dataclass(frozen=True)
class ReportDocument:
    """A report document. Its fields are encoded once, on first use, and
    shared by report.json, the trace's `report` record and a sweep point's
    report; the encodings live and die with this object, but for those of
    its loop part (`loop`), which every report of one event loop shares."""

    doc: dict
    loop: Optional[LoopSections] = field(default=None, repr=False, compare=False)

    @cached_property
    def fields(self) -> dict[str, str]:
        """Each top-level field of the document, canonically encoded, so
        that `canonical_object(self.fields) == canonical_json(self.doc)`;
        a field that is its loop part's own object takes the part's encoding."""
        shared = {} if self.loop is None else self.loop.doc
        return {
            key: self.loop.fields[key] if key in shared and shared[key] is value else canonical_json(value)
            for key, value in self.doc.items()
        }

    def to_json(self) -> str:
        """The canonical JSON of the document, as report.json holds it."""
        return canonical_object(self.fields)


def _epoch_rows(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    coverage: Mapping[EpochIndex, Mapping[str, Fraction]],
    uncovered: AbstractSet[EpochIndex],
) -> list[dict]:
    """The per-epoch rows up to the horizon's epoch: one for each epoch
    that holds a transaction, has coverage bought for it or is uncovered,
    and one for each maximal run of epochs between those, named by its
    first epoch, whose `window` spans the whole run. A row holds the value
    finalized in its window of the transactions each window rung counts,
    the coverage bought for its epoch and its safety flags.

    The rows tile [0, (last + 1) * t_rev) in order, so one forward sweep
    keeps a cursor per rung into that rung's ticks in the timeline's
    window index. Only an epoch that holds a transaction has a load; every
    other row shares the cells of no load, worked out once per call. In a
    busy row each rung, loosest first, writes "0" if its window counts
    nothing, and reuses the looser rung's value if it counts as many
    transactions, which, as the rungs nest, are the same ones; only the
    rest make one `gamma_value` call each. The flags compare by integer
    cross-multiplication. Every row is its own dict and shares no list or
    dict with another.
    """
    t_rev = tp.t_rev
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    burn_share = (1 - ep.gamma) * coc
    last = epoch_of(timeline.horizon, t_rev)
    index = timeline._gamma_index
    rungs = [(column, kind, index[kind][0]) for column, kind in _SUM_COLUMNS.items()]
    cursors = [0] * len(rungs)
    busy = {epoch_of(tx.finalized_at, t_rev) for tx in timeline.transactions}
    quiet = dict.fromkeys(_SUM_COLUMNS, "0"), coc > 0, burn_share > 0
    (cn, cd), (bn, bd) = coc.as_integer_ratio(), burn_share.as_integer_ratio()

    def load(t0: Tick, t1: Tick) -> tuple[dict, bool, bool]:
        cells, values = {}, []
        counted = 0
        for i, (column, kind, ticks) in enumerate(rungs):
            lo = cursors[i]
            hi = cursors[i] = bisect_left(ticks, t1, lo)
            if lo == hi:
                value, cell = _NO_LOAD, "0"
            elif hi - lo != counted:
                value = gamma_value(timeline, t0, t1, kind)
                cell = frac_str(value)
            counted = hi - lo
            cells[column] = cell
            values.append(value)
        *_, secure, uninsured = values
        (sn, sd), (un, ud) = secure.as_integer_ratio(), uninsured.as_integer_ratio()
        return cells, cn * sd > sn * cd, bn * ud > un * bd

    def row(first: EpochIndex, stop: EpochIndex) -> dict:
        t0, t1 = first * t_rev, stop * t_rev
        sums, safe, buffer_ok = load(t0, t1) if first in busy else quiet
        return {
            "epoch": first,
            "window": [t0, t1],
            **sums,
            "epoch_safe": safe,
            "uninsured_buffer_ok": buffer_ok,
            "coverage": {tr: frac_str(c) for tr, c in sorted(coverage.get(first, {}).items())},
            "insured_ok": first not in uncovered,
        }

    rows, start = [], 0
    for e in sorted(e for e in busy.union(coverage, uncovered) if e <= last):
        if start < e:
            rows.append(row(start, e))
        rows.append(row(e, e + 1))
        start = e + 1
    if start <= last:
        rows.append(row(start, last + 1))
    return rows


def _checked_sections(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    coverage: Mapping[EpochIndex, Mapping[str, Fraction]],
    settlements: Sequence[SettlementRecord],
    karma: KarmaSummary,
) -> LoopSections:
    """The loop part of a report, which `analyze` re-derives too: from a
    timeline, its coverage map, its settlements, whose amounts the totals
    sum, and its karma section."""
    ladder = pfc_ladder(timeline, tp, ep)
    strong, buffer_ok, uncovered = strong_safety_flags(timeline, tp, ep, ladder, coverage)
    doc = {
        "coc": {m.value: frac_str(cost_of_corruption(m, ep)) for m in Mechanism},
        "per_epoch": _epoch_rows(timeline, tp, ep, coverage, uncovered),
        "totals": {
            key: frac_str(exact_sum(map(attrgetter(attr), settlements)))
            for key, attr in (("slashed", "slashed"), ("paid", "paid_total"), ("burned", "burned"))
        },
        "settlements": list(map(SETTLEMENT.write, settlements)),
        "karma": KARMA.write(karma),
    }
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    return LoopSections(_loop_key(tp, ep), ladder[1:], coc, strong, buffer_ok, doc)


# what a report says of its run, as the run's run_start record states it too, and how analyze reads each
_LABELS = {"schema_version": integer, "tool_version": text, "scenario_hash": text, "seed": integer}


def _report_doc(labels: Sequence, loop: LoopSections, tvl: Fraction, verdict: SafetyVerdict) -> dict:
    """The report document: the `_LABELS` values in order, the sections
    of `loop`, its ladder under a `steal_tvl` rung of `tvl`, and the
    `verdict`."""
    shared = loop.doc
    return dict(
        zip(_LABELS, labels),
        coc=shared["coc"],
        ladder=list(map(PFC_BOUND.write, loop.ladder(tvl))),
        per_epoch=shared["per_epoch"],
        totals=shared["totals"],
        verdict=VERDICT.write(verdict),
        settlements=shared["settlements"],
        karma=shared["karma"],
    )


def build_report(
    timeline: ChainTimeline,
    ledger: InsuranceLedger,
    tp: TimingParams,
    ep: EconParams,
    karma: KarmaSummary,
    bound_kind: PfcKind,
    *,
    scenario_hash: str,
    seed: int,
    loop: Optional[LoopSections] = None,
) -> ReportDocument:
    """Assemble the full safety report for a run's effective `timeline`,
    the lots and settlements of its `ledger`, under the run's timing `tp`
    and judged against its economics `ep`.

    `loop` is the loop part of an earlier report of the same run. Built
    under `tp` and `ep` but for its `tvl`, it is shared: only the labels,
    the `steal_tvl` rung and the verdict are built. Otherwise the part is
    built here, and the verdict judged by `safety_verdict`."""
    if loop is None or loop.key != _loop_key(tp, ep):
        coverage = ledger.coverage()
        verdict = safety_verdict(timeline, tp, ep, coverage, bound_kind)
        loop = _checked_sections(timeline, tp, ep, coverage, ledger.settlements, karma)
    else:
        verdict = loop.verdict(ep.tvl, bound_kind)
    labels = (OUTPUT_VERSION, __version__, scenario_hash, seed)
    return ReportDocument(_report_doc(labels, loop, ep.tvl, verdict), loop)


_line_cells = itemgetter(*_SUM_COLUMNS, "epoch_safe")


def render_text(doc: dict) -> str:
    """Human-readable fixed-point rendering of a report document.

    Each distinct value string is converted to a decimal once per call (a
    report repeats few values, "0" in every quiet row above all). The memo
    lives and dies with the call, so a sweep does not grow it.
    """
    decimals: dict[str, str] = {}

    def dec(s: str) -> str:
        d = decimals.get(s)
        if d is None:
            d = decimals[s] = frac_decimal(as_fraction(s), 4)
        return d

    lines = []
    lines.append(f"safety report (tool {doc['tool_version']}, schema {doc['schema_version']})")
    lines.append(f"scenario {doc['scenario_hash'][:16]}  seed {doc['seed']}")
    lines.append("")
    lines.append("cost of corruption:")
    lines.append(f"  token toxicity  {dec(doc['coc']['token_toxicity']):>16}")
    lines.append(f"  slashing        {dec(doc['coc']['slashing']):>16}")
    lines.append("")
    lines.append("profit-from-corruption bound ladder:")
    for b in doc["ladder"]:
        witness = "" if b["witness_window_start"] is None else f"  window at t={b['witness_window_start']}"
        lines.append(f"  {b['kind']:<26} {dec(b['value']):>16}{witness}")
    v = doc["verdict"]
    lines.append("")
    lines.append(
        f"verdict against {v['bound_kind']}: "
        f"{'SAFE' if v['cryptoeconomically_safe'] else 'UNSAFE'} "
        f"(coc {dec(v['coc'])} vs pfc {dec(v['pfc_value'])})"
    )
    lines.append(f"  strong safety       {'yes' if v['strong_safety'] else 'no'}")
    lines.append(f"  uninsured buffer ok {'yes' if v['uninsured_buffer_ok'] else 'no'}")
    lines.append("")
    lines.append("per-epoch load (all / hybrid / not-secure / uninsured):")
    for row in doc["per_epoch"]:
        *sums, safe = _line_cells(row)
        tail = " ".join(f"{dec(s):>12}" for s in sums) + ("  safe" if safe else "  UNSAFE")
        t0, t1 = row["window"]
        lines.append("  e%-4d [%6d,%6d)  %s" % (row["epoch"], t0, t1, tail))
    if doc["settlements"]:
        lines.append("")
        lines.append("settlements:")
        for s in doc["settlements"]:
            lines.append(
                f"  {s['event']}: slashed {dec(s['slashed'])}, paid {dec(s['paid'])}, "
                f"burned {dec(s['burned'])}{'  INVARIANT-BREACH' if s['breach'] else ''}"
            )
    lines.append("")
    lines.append("karma:")
    for p in doc["karma"]["parties"]:
        lines.append(
            f"  {p['party']:<12} net {dec(p['net']):>14}  "
            f"(premiums -{dec(p['premiums_paid'])}/+{dec(p['premiums_earned'])}, "
            f"comp {dec(p['compensation'])}, harm {dec(p['harm'])}, slashed {dec(p['slashed'])})"
        )
    lines.append(
        f"  adversary aggregate net {dec(doc['karma']['adversary_net'])} "
        f"(double-spend gain {dec(doc['karma']['double_spend_gain'])})"
    )
    lines.append("")
    return "\n".join(lines)


# -- trace re-analysis --------------------------------------------------------


def _no_float(text: str):
    raise json.JSONDecodeError(f"unexpected float {text}", text, 0)


# a trace writes every number as an integer or a "p/q" string, so a float is bad input
_TRACE_JSON = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)


def parse_trace(lines: Sequence[str], *, source: str = "<trace>") -> list[dict]:
    records = []
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec, end = _TRACE_JSON.raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid trace JSON: {exc.msg}", path=f"{source}:{n}")
        if not isinstance(rec, dict) or "kind" not in rec or "tick" not in rec:
            raise ScenarioError("trace record needs tick and kind", path=f"{source}:{n}")
        records.append(rec)
    if not records:
        raise ScenarioError("trace is empty", path=source)
    return records


# what `analyze` needs of a lot: its buyer, coverage and premium rate
_BUYER, _COVERAGE, _RATE = map(LOT.field, ("buyer", "coverage", "premium_rate"))
_SHARES = SHARES.field("shares")
_HEAD = frozenset(("tick", "kind"))


def _payload(record: dict) -> dict:
    return {key: value for key, value in record.items() if key not in _HEAD}


def _rebuild(cls: type, fields: Mapping[str, Any], **given: Any) -> Any:
    """A `cls` of the `init` fields a table read, `given` in place of some; `cls` derives the rest."""
    return cls(**{f.name: fields[f.name] for f in dataclasses.fields(cls) if f.init} | given)


def recompute_from_trace(records: Sequence[dict], *, source: str = "<trace>") -> dict:
    """The report document a trace states: the one `build_report` lays out for
    its run_start labels, transactions, lots and settlements, and its embedded
    report's karma section, against the bound kind of that report's verdict.
    A lot's covering epoch, each settlement's claims, budget, totals and
    breach flag (by `settle_claims`, as the run settled them), a party's
    premiums paid (the exact sum of its lots' coverage times premium rate),
    compensation and net, every buyer's and claimant's karma entry, and the
    adversary's net are derived, not read. Bad input is reported in that
    order, the embedded report's verdict, settlements and karma last."""
    by_kind: dict[str, list[dict]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)

    def first(kind: str, what: str) -> dict:
        if kind not in by_kind:
            raise ScenarioError(f"trace has no {what}", path=source)
        return by_kind[kind][0]

    header, where = first("run_start", "run_start record"), f"{source}:run_start"
    version = read_field(header, "schema_version", where, integer)
    if version != OUTPUT_VERSION:
        message = f"unsupported output version {version}, expected {OUTPUT_VERSION}"
        raise ScenarioError(message, path=f"{where}.schema_version")
    horizon, tp, ep = parse_run_header(header, where)
    labels = [read_field(header, key, where, parse) for key, parse in _LABELS.items()]

    where = f"{source}:tx_finalized"
    allowed = TX_FINALIZED.keys | _HEAD | {"rule_requested"}
    txs = []
    for r in by_kind.get("tx_finalized", ()):
        tick = read_field(r, "tick", where, integer)
        txs.append(TX_FINALIZED.parse(r, where, allowed, finalized_at=tick))
        read_field(r, "rule_requested", where, confirmation_rule)
    timeline = ChainTimeline(horizon, tuple(sorted(txs, key=lambda t: (t.finalized_at, t.id))))

    where = f"{source}:auction"
    lots, rated = [], {}  # rated: {(buyer, premium rate as written): (rate, [coverage])}
    for r in by_kind.get("auction", ()):
        covering = read_field(r, "epoch", where, integer) + PURCHASE_LEAD_EPOCHS
        for i, lot in enumerate(read_field(r, "lots", where, listing)):
            at = f"{where}.lots[{i}]"
            buyer, amount, text = _BUYER.read(lot, at), _COVERAGE.read(lot, at), lot.get("premium_rate")
            lots.append((buyer, covering, amount))
            key = buyer, text if isinstance(text, (str, int)) else None  # each rate read once per buyer
            if key not in rated:
                rated[key] = _RATE.read(lot, at), []
            rated[key][1].append(amount)
    coverage = coverage_map(lots)
    premiums: dict[str, list[Fraction]] = {}  # each buyer's premiums, one per rate
    for (buyer, _), (rate, amounts) in rated.items():
        premiums.setdefault(buyer, []).append(rate * exact_sum(amounts))

    def bought(transactor: str, epoch: EpochIndex) -> Fraction:
        # what `InsuranceLedger.u` read: each lot for epoch c sells at c - 2, before any claim against c
        return coverage.get(epoch, {}).get(transactor, Fraction(0))

    settlements = []
    for r in by_kind.get("settlement", ()):
        read = SETTLEMENT.read(_payload(r), f"{source}:settlement")
        harms = [(c.transactor, c.covering_epoch, c.harm) for c in read["claims"]]
        settlements.append(settle_claims(read["event_id"], read["slashed"], ep.gamma, harms, bought))

    where, report = f"{source}:report", first("report", "embedded report")
    bound_kind = VERDICT.read(read_field(report, "verdict", where), f"{where}.verdict")["bound_kind"]
    for i, entry in enumerate(read_field(report, "settlements", where, listing)):
        SETTLEMENT.read(entry, f"{where}.settlements[{i}]")
    stated = KARMA.read(read_field(report, "karma", where), f"{where}.karma")
    # every buyer and claimant has an entry, whether or not the record lists it
    paid, listed = paid_claims(settlements), {e["party"]: e for e in stated["entries"]}
    entries = []
    for party in sorted(listed.keys() | paid.keys() | premiums.keys()):
        derived = {"premiums_paid": exact_sum(premiums.get(party, ())), "compensation": paid.get(party, Fraction(0))}
        entries.append(_rebuild(KarmaEntry, listed[party], **derived) if party in listed else KarmaEntry(party, **derived))
    karma = _rebuild(KarmaSummary, stated, entries=tuple(entries))

    loop = _checked_sections(timeline, tp, ep, coverage, settlements, karma)
    return _report_doc(labels, loop, ep.tvl, loop.verdict(ep.tvl, bound_kind))


def first_mismatch(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """Depth-first path of the first differing field, or None if equal.

    Equality is settled on the canonical encodings, which tell `1` from
    `true` where `==` does not; only a difference is walked, by sorted key
    or by index, to name the field."""
    if canonical_json(expected) == canonical_json(actual):
        return None
    return _first_difference(expected, actual, path)


def _first_difference(expected: Any, actual: Any, path: str) -> Optional[str]:
    """`first_mismatch`'s walk: a leaf differs from one of another type or value."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                return sub
            found = _first_difference(expected[key], actual[key], sub)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}.length"
        for i, (ev, av) in enumerate(zip(expected, actual)):
            found = _first_difference(ev, av, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return path or "<root>"
    return None


def _unsound_shares(records: Sequence[dict], *, source: str = "<trace>") -> Optional[str]:
    """The path of the first auction that writes shares that are not all
    positive or do not sum to exactly 1, or None. An auction that sells
    lots before any map is written is bad input. A map that sums to 1 but
    names the wrong backers or weights passes: only replaying the ledger
    could tell."""
    where, written = f"{source}:auction", False
    for i, r in enumerate(r for r in records if r["kind"] == "auction"):
        if "shares" in r or r.get("lots") and not written:
            written, shares = True, _SHARES.read(r, where).values()
            if not all(share > 0 for share in shares) or exact_sum(shares) != 1:
                return f"auction[{i}].shares"
    return None


def compare_trace_to_report(records: Sequence[dict], *, source: str = "<trace>") -> Optional[str]:
    """Recompute the report from the trace and diff against it, by sorted
    key, first the auctions' share maps, then the settlement records as
    stated, named at the report path they feed, then the whole embedded
    report. A key of the report missing from the embedded one is bad
    input. Returns the first differing field path, or None when
    everything checks.
    """
    expected = recompute_from_trace(records, source=source)
    embedded = _payload(next(r for r in records if r["kind"] == "report"))
    for key in expected:
        read_field(embedded, key, f"{source}:report")
    stated = [_payload(r) for r in records if r["kind"] == "settlement"]
    return (
        _unsound_shares(records, source=source)
        or first_mismatch({"settlements": stated}, {"settlements": expected["settlements"]})
        or first_mismatch(embedded, expected)
    )
