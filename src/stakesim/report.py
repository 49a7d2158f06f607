"""Safety reports: the machine document, its human rendering, and the
re-derivation of both from a raw trace.

Machine values are exact rationals ("p/q" strings); human tables show
fixed-point decimals. Every number in the document is reproducible from the
trace alone, which is what `recompute_from_trace` does for the analyze verb.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import AbstractSet, Any, Mapping, Optional, Sequence

from .chain import (
    ChainTimeline,
    EconParams,
    EpochIndex,
    GammaFilter,
    TimingParams,
    TransactionRecord,
    epoch_bounds,
    epoch_of,
    gamma_value,
)
from .econ import (
    Mechanism,
    PfcBound,
    PfcKind,
    cost_of_corruption,
    pfc_ladder,
    safety_verdict,
    strong_safety_flags,
)
from .errors import ScenarioError
from .insurance import InsuranceLedger, KarmaSummary, SettlementRecord, coverage_map
from .rational import as_fraction, frac_decimal, frac_str
from .scenario import (
    SLOT,
    canonical_json,
    canonical_object,
    canonical_template,
    confirmation_rule,
    integer,
    listing,
    optional_integer,
    parse_run_header,
    read_field,
    text,
    tx_kind,
)
from .version import SCHEMA_VERSION, __version__

BOUND_ALIASES = {
    "tvl": PfcKind.STEAL_TVL,
    "window": PfcKind.REORG_WINDOW,
    "hybrid": PfcKind.REORG_HYBRID_WINDOW,
    "secure": PfcKind.REORG_HYBRID_SECURE_RULE,
    "uninsured": PfcKind.UNINSURED_LOAD,
}


_SHAPE_CELLS = (
    "sum_all",
    "sum_hybrid",
    "sum_hybrid_not_secure",
    "sum_uninsured",
    "epoch_safe",
    "uninsured_buffer_ok",
    "insured_ok",
)
_row_shape = itemgetter(*_SHAPE_CELLS)
_ROW_KEYS = {"epoch", "window", "coverage", *_SHAPE_CELLS}


def _row_template(row: dict) -> tuple[str, ...]:
    """`canonical_json(row)` cut into the four pieces around its epoch and
    its two window ticks, or () for a row whose cells `_SHAPE_CELLS` does
    not cover."""
    if row.keys() != _ROW_KEYS:
        return ()
    return tuple(canonical_template(dict(row, epoch=SLOT, window=[SLOT, SLOT])))


def _epoch_rows_json(rows: Sequence[dict]) -> str:
    """`canonical_json(rows)` for per-epoch rows as `_epoch_rows` builds
    them (int epoch and ticks, string sums, bool flags).

    Rows with no coverage bought that agree in every cell but epoch and
    window (the quiet epochs above all) share one template, cut from
    `canonical_json`'s encoding of the second such row; only the three
    ticks are formatted per row. A row with coverage, or the first of its
    shape, is encoded whole, in one `canonical_json` call per run of such
    rows. The templates live and die with the call.
    """
    templates: dict[tuple, Optional[tuple[str, ...]]] = {}
    parts = []
    whole: list[dict] = []
    for row in rows:
        cut = None
        if not row["coverage"]:
            shape = _row_shape(row)
            cut = templates.get(shape)
            if cut is None:
                # the first row of a shape is encoded whole, the second cuts the template
                cut = templates[shape] = _row_template(row) if shape in templates else None
        if cut:
            if whole:
                parts.append(canonical_json(whole)[1:-1])
                whole = []
            epoch_at, t0_at, t1_at, end = cut
            t0, t1 = row["window"]
            parts.append(f"{epoch_at}{row['epoch']}{t0_at}{t0}{t1_at}{t1}{end}")
        else:
            whole.append(row)
    if whole:
        parts.append(canonical_json(whole)[1:-1])
    return "[" + ",".join(parts) + "]"


@dataclass(frozen=True)
class ReportDocument:
    """A report document. Its fields are encoded once, on first use, and
    shared by report.json, the trace's `report` record and a sweep point's
    report; the encodings live and die with this object."""

    doc: dict

    @cached_property
    def fields(self) -> dict[str, str]:
        """Each top-level field of the document, canonically encoded, so
        that `canonical_object(self.fields) == canonical_json(self.doc)`."""
        return {
            key: _epoch_rows_json(value) if key == "per_epoch" else canonical_json(value)
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
    """One row per epoch: its window, the value finalized in it under each
    `GammaFilter`, the coverage bought for it and its safety flags.

    Only an epoch that holds a transaction queries the timeline, with one
    `gamma_value` call per filter. Every other epoch sums to zero under
    every filter and shares the cells computed once from those zeros, so a
    quiet epoch costs O(1).
    """
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    burn_share = (1 - ep.gamma) * coc

    def cells(sums: Mapping[GammaFilter, Fraction]) -> dict:
        return {
            "sum_all": frac_str(sums[GammaFilter.ALL]),
            "sum_hybrid": frac_str(sums[GammaFilter.HYBRID_ONLY]),
            "sum_hybrid_not_secure": frac_str(sums[GammaFilter.HYBRID_NOT_SECURE]),
            "sum_uninsured": frac_str(sums[GammaFilter.UNINSURED]),
            "epoch_safe": coc > sums[GammaFilter.HYBRID_NOT_SECURE],
            "uninsured_buffer_ok": burn_share > sums[GammaFilter.UNINSURED],
        }

    quiet = cells(dict.fromkeys(GammaFilter, Fraction(0)))
    busy = {epoch_of(tx.finalized_at, tp.t_rev) for tx in timeline.transactions}
    rows = []
    last = epoch_of(timeline.horizon, tp.t_rev)
    for e in range(last + 1):
        t0, t1 = epoch_bounds(e, tp.t_rev)
        if e in busy:
            row_cells = cells({sel: gamma_value(timeline, t0, t1, sel) for sel in GammaFilter})
        else:
            row_cells = quiet
        rows.append(
            {
                "epoch": e,
                "window": [t0, t1],
                **row_cells,
                "coverage": {tr: frac_str(c) for tr, c in sorted(coverage.get(e, {}).items())},
                "insured_ok": e not in uncovered,
            }
        )
    return rows


def _coc_doc(ep: EconParams) -> dict:
    return {
        "token_toxicity": frac_str(cost_of_corruption(Mechanism.TOKEN_TOXICITY, ep)),
        "slashing": frac_str(cost_of_corruption(Mechanism.SLASHING, ep)),
    }


def _ladder_doc(ladder: Sequence[PfcBound]) -> list[dict]:
    return [
        {
            "kind": b.kind.value,
            "value": frac_str(b.value),
            "witness_window_start": b.witness_window_start,
        }
        for b in ladder
    ]


def settlement_doc(s: SettlementRecord) -> dict:
    """One settlement, as both the trace record and the report entry."""
    return {
        "event": s.event_id,
        "slashed": frac_str(s.slashed),
        "insurance_budget": frac_str(s.insurance_budget),
        "paid": frac_str(s.paid_total),
        "burned": frac_str(s.burned),
        "breach": s.invariant_breach,
        "claims": [
            {
                "transactor": c.transactor,
                "covering_epoch": c.covering_epoch,
                "harm": frac_str(c.harm),
                "capped": frac_str(c.capped),
                "paid": frac_str(c.paid),
            }
            for c in s.claims
        ],
    }


def _checked_sections(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    coverage: Mapping[EpochIndex, Mapping[str, Fraction]],
    slashes: Sequence[tuple[Fraction, Fraction, Fraction]],
) -> dict:
    """The report sections `analyze` re-derives, from a timeline, its
    coverage map and the (slashed, paid, burned) amounts of each settlement."""
    ladder = pfc_ladder(timeline, tp, ep)
    strong, buffer_ok, uncovered = strong_safety_flags(timeline, tp, ep, ladder, coverage)
    return {
        "coc": _coc_doc(ep),
        "ladder": _ladder_doc(ladder),
        "verdict_flags": {"strong_safety": strong, "uninsured_buffer_ok": buffer_ok},
        "per_epoch": _epoch_rows(timeline, tp, ep, coverage, uncovered),
        "totals": {
            key: frac_str(sum((s[i] for s in slashes), Fraction(0)))
            for i, key in enumerate(("slashed", "paid", "burned"))
        },
    }


def build_report(
    ledger: InsuranceLedger,
    tp: TimingParams,
    karma: KarmaSummary,
    bound_kind: PfcKind,
    *,
    scenario_hash: str = "",
    seed: int = 0,
) -> ReportDocument:
    """Assemble the full safety report for the ledger's (effective)
    timeline, its lots and its settlements, under the run's timing `tp`."""
    timeline, ep, settlements = ledger.timeline, ledger.ep, ledger.settlements
    verdict = safety_verdict(timeline, tp, ep, ledger, bound_kind)
    sections = _checked_sections(
        timeline, tp, ep, ledger.coverage(), [(s.slashed, s.paid_total, s.burned) for s in settlements]
    )
    del sections["verdict_flags"]  # the verdict below carries them
    karma_doc = {
        "parties": [
            {
                "party": k.party,
                "premiums_paid": frac_str(k.premiums_paid),
                "premiums_earned": frac_str(k.premiums_earned),
                "compensation": frac_str(k.compensation),
                "harm": frac_str(k.harm),
                "slashed": frac_str(k.slashed),
                "net": frac_str(k.net),
            }
            for k in karma.entries
        ],
        "adversary_parties": sorted(karma.adversary_parties),
        "double_spend_gain": frac_str(karma.double_spend_gain),
        "adversary_net": frac_str(karma.adversary_net),
    }

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario_hash": scenario_hash,
        "seed": seed,
        **sections,
        "verdict": {
            "bound_kind": verdict.bound_kind.value,
            "coc": frac_str(verdict.coc),
            "pfc_value": frac_str(verdict.pfc.value),
            "cryptoeconomically_safe": verdict.cryptoeconomically_safe,
            "strong_safety": verdict.strong_safety,
            "uninsured_buffer_ok": verdict.uninsured_buffer_ok,
        },
        "settlements": [settlement_doc(s) for s in settlements],
        "karma": karma_doc,
    }
    return ReportDocument(doc=doc)


_line_cells = itemgetter("sum_all", "sum_hybrid", "sum_hybrid_not_secure", "sum_uninsured", "epoch_safe")


def render_text(doc: dict) -> str:
    """Human-readable fixed-point rendering of a report document.

    Each distinct value string is converted to a decimal once per call (a
    report repeats few values, "0" in every quiet epoch above all), and
    each distinct tail of a per-epoch line (its four sums and safety flag)
    is formatted once per call, so a quiet line costs its epoch and window
    only. The memos live and die with the call, so a sweep does not grow
    them.
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
    tails: dict[tuple, str] = {}
    for row in doc["per_epoch"]:
        cells = _line_cells(row)
        tail = tails.get(cells)
        if tail is None:
            all_, hybrid, not_secure, uninsured, safe = cells
            tail = tails[cells] = (
                f"{dec(all_):>12} {dec(hybrid):>12} {dec(not_secure):>12} {dec(uninsured):>12}  "
                f"{'safe' if safe else 'UNSAFE'}"
            )
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
    if doc["karma"]:
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


def parse_trace(lines: Sequence[str], *, source: str = "<trace>") -> list[dict]:
    records = []
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid trace JSON: {exc.msg}", path=f"{source}:{n}")
        if not isinstance(rec, dict) or "kind" not in rec or "tick" not in rec:
            raise ScenarioError("trace record needs tick and kind", path=f"{source}:{n}")
        records.append(rec)
    if not records:
        raise ScenarioError("trace is empty", path=source)
    return records


def recompute_from_trace(records: Sequence[dict], *, source: str = "<trace>") -> dict:
    """Re-derive the report's checkable numbers from raw trace records."""
    header = next((r for r in records if r["kind"] == "run_start"), None)
    if header is None:
        raise ScenarioError("trace has no run_start record", path=source)
    horizon, tp, ep = parse_run_header(header, f"{source}:run_start")

    where = f"{source}:tx_finalized"
    txs = [
        TransactionRecord(
            id=read_field(r, "id", where, text),
            transactor=read_field(r, "transactor", where, text),
            value=read_field(r, "value", where, as_fraction),
            kind=read_field(r, "tx_kind", where, tx_kind),
            finalized_at=read_field(r, "tick", where, integer),
            rule=read_field(r, "rule_effective", where, confirmation_rule),
            insured_epoch=read_field(r, "insured_epoch", where, optional_integer),
        )
        for r in records
        if r["kind"] == "tx_finalized"
    ]
    timeline = ChainTimeline(
        horizon=horizon,
        transactions=tuple(sorted(txs, key=lambda t: (t.finalized_at, t.id))),
    )

    where = f"{source}:auction"
    lots = []
    for r in records:
        if r["kind"] != "auction":
            continue
        for i, lot in enumerate(read_field(r, "lots", where, listing)):
            at = f"{where}.lots[{i}]"
            lots.append(
                (
                    read_field(lot, "buyer", at, text),
                    read_field(lot, "covering_epoch", at, integer),
                    read_field(lot, "coverage", at, as_fraction),
                )
            )

    where = f"{source}:settlement"
    slashes = [
        tuple(read_field(r, key, where, as_fraction) for key in ("slashed", "paid", "burned"))
        for r in records
        if r["kind"] == "settlement"
    ]
    return _checked_sections(timeline, tp, ep, coverage_map(lots), slashes)


def first_mismatch(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """Depth-first path of the first differing field, or None if equal.

    Sides of one type that compare equal are settled by one `==`; only a
    differing dict or list is walked, by sorted key or by index, to name
    the field."""
    if type(expected) is type(actual) and expected == actual:
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                return sub
            found = first_mismatch(expected[key], actual[key], sub)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}.length"
        for i, (ev, av) in enumerate(zip(expected, actual)):
            found = first_mismatch(ev, av, f"{path}[{i}]")
            if found:
                return found
        return None
    if expected != actual:
        return path or "<root>"
    return None


def compare_trace_to_report(records: Sequence[dict], *, source: str = "<trace>") -> Optional[str]:
    """Recompute from the trace and diff against its embedded report.

    The verdict's coc and profit bound are checked against the recomputed
    slashing coc and the recomputed ladder entry for its bound kind, and
    its safety flag against those two recomputed numbers. Returns the first
    differing field path, or None when everything checks.
    """
    embedded = next((r for r in records if r["kind"] == "report"), None)
    if embedded is None:
        raise ScenarioError("trace has no embedded report", path=source)
    recomputed = recompute_from_trace(records, source=source)

    where = f"{source}:report"
    verdict = read_field(embedded, "verdict", where)
    at = f"{where}.verdict"
    bound_kind = read_field(verdict, "bound_kind", at, PfcKind)
    coc = recomputed["coc"]["slashing"]
    pfc = next(b["value"] for b in recomputed["ladder"] if b["kind"] == bound_kind.value)
    checks = [
        ("coc", read_field(embedded, "coc", where), recomputed["coc"]),
        ("ladder", read_field(embedded, "ladder", where), recomputed["ladder"]),
        ("per_epoch", read_field(embedded, "per_epoch", where), recomputed["per_epoch"]),
        ("totals", read_field(embedded, "totals", where), recomputed["totals"]),
        (
            "verdict.strong_safety",
            read_field(verdict, "strong_safety", at),
            recomputed["verdict_flags"]["strong_safety"],
        ),
        (
            "verdict.uninsured_buffer_ok",
            read_field(verdict, "uninsured_buffer_ok", at),
            recomputed["verdict_flags"]["uninsured_buffer_ok"],
        ),
        ("verdict.coc", read_field(verdict, "coc", at), coc),
        ("verdict.pfc_value", read_field(verdict, "pfc_value", at), pfc),
        (
            "verdict.cryptoeconomically_safe",
            read_field(verdict, "cryptoeconomically_safe", at),
            as_fraction(coc) > as_fraction(pfc),
        ),
    ]
    for name, exp, act in checks:
        found = first_mismatch(exp, act, name)
        if found:
            return found
    return None
