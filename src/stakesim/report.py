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
from typing import Any, Callable, Iterable, Optional, Sequence

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EconParams,
    GammaFilter,
    TimingParams,
    TransactionRecord,
    TxKind,
    epoch_bounds,
    epoch_of,
    gamma_value,
)
from .econ import (
    Mechanism,
    PfcBound,
    PfcKind,
    SafetyVerdict,
    cost_of_corruption,
    pfc_ladder,
    safety_verdict,
)
from .errors import ScenarioError
from .insurance import InsuranceLedger, KarmaSummary, SettlementRecord
from .rational import as_fraction, frac_decimal, frac_str
from .scenario import canonical_json, parse_run_header
from .version import SCHEMA_VERSION, __version__

BOUND_ALIASES = {
    "tvl": PfcKind.STEAL_TVL,
    "window": PfcKind.REORG_WINDOW,
    "hybrid": PfcKind.REORG_HYBRID_WINDOW,
    "secure": PfcKind.REORG_HYBRID_SECURE_RULE,
    "uninsured": PfcKind.UNINSURED_LOAD,
}


@dataclass(frozen=True)
class ReportDocument:
    doc: dict
    verdict: SafetyVerdict

    def to_json(self) -> str:
        return canonical_json(self.doc)


def _coverage_map(lots: Iterable[tuple[str, int, Fraction]]) -> dict[int, dict[str, Fraction]]:
    """Coverage bought, by covering epoch and then buyer, from
    (buyer, covering_epoch, coverage) triples."""
    coverage: dict[int, dict[str, Fraction]] = {}
    for buyer, epoch, amount in lots:
        bucket = coverage.setdefault(epoch, {})
        bucket[buyer] = bucket.get(buyer, Fraction(0)) + amount
    return coverage


def _epoch_rows(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    coverage: dict[int, dict[str, Fraction]],
) -> list[dict]:
    coc = cost_of_corruption(Mechanism.SLASHING, ep)
    burn_share = (1 - ep.gamma) * coc
    rows = []
    last = epoch_of(timeline.horizon, tp.t_rev)
    for e in range(last + 1):
        t0, t1 = epoch_bounds(e, tp.t_rev)
        sums = {
            sel: gamma_value(timeline, t0, t1, sel)
            for sel in GammaFilter
        }
        insured_by_tr: dict[str, Fraction] = {}
        for tx in timeline.transactions:
            if (
                tx.kind is TxKind.HYBRID
                and tx.rule is ConfirmationRule.INSURED_IMMEDIATE
                and t0 <= tx.finalized_at < t1
            ):
                insured_by_tr[tx.transactor] = insured_by_tr.get(tx.transactor, Fraction(0)) + tx.value
        bucket = coverage.get(e, {})
        insured_ok = all(
            total < bucket.get(tr, Fraction(0)) for tr, total in insured_by_tr.items()
        )
        rows.append(
            {
                "epoch": e,
                "window": [t0, t1],
                "sum_all": frac_str(sums[GammaFilter.ALL]),
                "sum_hybrid": frac_str(sums[GammaFilter.HYBRID_ONLY]),
                "sum_hybrid_not_secure": frac_str(sums[GammaFilter.HYBRID_NOT_SECURE]),
                "sum_uninsured": frac_str(sums[GammaFilter.UNINSURED]),
                "coverage": {tr: frac_str(c) for tr, c in sorted(bucket.items())},
                "insured_ok": insured_ok,
                "epoch_safe": coc > sums[GammaFilter.HYBRID_NOT_SECURE],
                "uninsured_buffer_ok": burn_share > sums[GammaFilter.UNINSURED],
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


def build_report(
    ledger: InsuranceLedger,
    karma: KarmaSummary,
    bound_kind: PfcKind,
    *,
    scenario_hash: str = "",
    seed: int = 0,
) -> ReportDocument:
    """Assemble the full safety report for the ledger's (effective)
    timeline, its lots and its settlements."""
    timeline, tp, ep, settlements = ledger.timeline, ledger.tp, ledger.ep, ledger.settlements
    verdict = safety_verdict(timeline, tp, ep, ledger, bound_kind)
    ladder = pfc_ladder(timeline, tp, ep)
    coverage = _coverage_map((lot.buyer, lot.covering_epoch, lot.coverage) for lot in ledger.lots)
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
        "coc": _coc_doc(ep),
        "ladder": _ladder_doc(ladder),
        "verdict": {
            "bound_kind": verdict.bound_kind.value,
            "coc": frac_str(verdict.coc),
            "pfc_value": frac_str(verdict.pfc.value),
            "cryptoeconomically_safe": verdict.cryptoeconomically_safe,
            "strong_safety": verdict.strong_safety,
            "uninsured_buffer_ok": verdict.uninsured_buffer_ok,
        },
        "per_epoch": _epoch_rows(timeline, tp, ep, coverage),
        "settlements": [settlement_doc(s) for s in settlements],
        "totals": {
            "slashed": frac_str(sum((s.slashed for s in settlements), Fraction(0))),
            "paid": frac_str(sum((s.paid_total for s in settlements), Fraction(0))),
            "burned": frac_str(sum((s.burned for s in settlements), Fraction(0))),
        },
        "karma": karma_doc,
    }
    return ReportDocument(doc=doc, verdict=verdict)


def render_text(doc: dict) -> str:
    """Human-readable fixed-point rendering of a report document."""

    def dec(s: str) -> str:
        return frac_decimal(as_fraction(s), 4)

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
        lines.append(
            f"  e{row['epoch']:<4} [{row['window'][0]:>6},{row['window'][1]:>6})  "
            f"{dec(row['sum_all']):>12} {dec(row['sum_hybrid']):>12} "
            f"{dec(row['sum_hybrid_not_secure']):>12} {dec(row['sum_uninsured']):>12}  "
            f"{'safe' if row['epoch_safe'] else 'UNSAFE'}"
        )
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


def _int(x: Any) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("expected an integer")
    return x


def _text(x: Any) -> str:
    if not isinstance(x, str) or not x:
        raise TypeError("expected a non-empty string")
    return x


def _list(x: Any) -> list:
    if not isinstance(x, list):
        raise TypeError("expected a list")
    return x


def _field(record: Any, key: str, where: str, parse: Callable[[Any], Any] = lambda x: x) -> Any:
    """`record[key]` read through `parse`, for a trace record or an object
    nested in one. A record that is not an object is a ScenarioError at
    `where`; a missing key, or a value `parse` rejects, one at `where.key`."""
    if not isinstance(record, dict):
        raise ScenarioError("expected an object", path=where)
    path = f"{where}.{key}"
    if key not in record:
        raise ScenarioError("missing required key", path=path)
    try:
        return parse(record[key])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"malformed value {record[key]!r}: {exc}", path=path) from None


def recompute_from_trace(records: Sequence[dict], *, source: str = "<trace>") -> dict:
    """Re-derive the report's checkable numbers from raw trace records."""
    header = next((r for r in records if r["kind"] == "run_start"), None)
    if header is None:
        raise ScenarioError("trace has no run_start record", path=source)
    horizon, tp, ep = parse_run_header(header, f"{source}:run_start")

    where = f"{source}:tx_finalized"
    txs = [
        TransactionRecord(
            id=_field(r, "id", where, _text),
            transactor=_field(r, "transactor", where, _text),
            value=_field(r, "value", where, as_fraction),
            kind=_field(r, "tx_kind", where, TxKind),
            finalized_at=_field(r, "tick", where, _int),
            rule=_field(r, "rule_effective", where, ConfirmationRule),
            insured_epoch=_field(r, "insured_epoch", where, lambda x: x if x is None else _int(x)),
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
        for i, lot in enumerate(_field(r, "lots", where, _list)):
            at = f"{where}.lots[{i}]"
            lots.append(
                (
                    _field(lot, "buyer", at, _text),
                    _field(lot, "covering_epoch", at, _int),
                    _field(lot, "coverage", at, as_fraction),
                )
            )
    coverage = _coverage_map(lots)

    ladder = pfc_ladder(timeline, tp, ep)
    coc = cost_of_corruption(Mechanism.SLASHING, ep)

    strong = True
    insured_groups: dict[tuple[str, int], Fraction] = {}
    for tx in timeline.transactions:
        if tx.kind is not TxKind.HYBRID:
            continue
        if tx.rule in (ConfirmationRule.SECURE_RULE, ConfirmationRule.BRIDGE_RULE):
            continue
        if tx.rule is ConfirmationRule.IMMEDIATE:
            strong = False
            continue
        key = (tx.transactor, epoch_of(tx.finalized_at, tp.t_rev))
        insured_groups[key] = insured_groups.get(key, Fraction(0)) + tx.value
    for (tr, e), total in insured_groups.items():
        if not total < coverage.get(e, {}).get(tr, Fraction(0)):
            strong = False
    uninsured_bound = next(b for b in ladder if b.kind is PfcKind.UNINSURED_LOAD)
    uninsured_buffer_ok = (1 - ep.gamma) * coc > uninsured_bound.value
    strong = strong and uninsured_buffer_ok

    where = f"{source}:settlement"
    settlements = [r for r in records if r["kind"] == "settlement"]
    totals = {
        key: frac_str(sum((_field(r, key, where, as_fraction) for r in settlements), Fraction(0)))
        for key in ("slashed", "paid", "burned")
    }

    return {
        "coc": _coc_doc(ep),
        "ladder": _ladder_doc(ladder),
        "verdict_flags": {
            "strong_safety": strong,
            "uninsured_buffer_ok": uninsured_buffer_ok,
        },
        "per_epoch": _epoch_rows(timeline, tp, ep, coverage),
        "totals": totals,
    }


def first_mismatch(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """Depth-first path of the first differing field, or None if equal."""
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
    verdict = _field(embedded, "verdict", where)
    at = f"{where}.verdict"
    bound_kind = _field(verdict, "bound_kind", at, PfcKind)
    coc = recomputed["coc"]["slashing"]
    pfc = next(b["value"] for b in recomputed["ladder"] if b["kind"] == bound_kind.value)
    checks = [
        ("coc", _field(embedded, "coc", where), recomputed["coc"]),
        ("ladder", _field(embedded, "ladder", where), recomputed["ladder"]),
        ("per_epoch", _field(embedded, "per_epoch", where), recomputed["per_epoch"]),
        ("totals", _field(embedded, "totals", where), recomputed["totals"]),
        (
            "verdict.strong_safety",
            _field(verdict, "strong_safety", at),
            recomputed["verdict_flags"]["strong_safety"],
        ),
        (
            "verdict.uninsured_buffer_ok",
            _field(verdict, "uninsured_buffer_ok", at),
            recomputed["verdict_flags"]["uninsured_buffer_ok"],
        ),
        ("verdict.coc", _field(verdict, "coc", at), coc),
        ("verdict.pfc_value", _field(verdict, "pfc_value", at), pfc),
        (
            "verdict.cryptoeconomically_safe",
            _field(verdict, "cryptoeconomically_safe", at),
            as_fraction(coc) > as_fraction(pfc),
        ),
    ]
    for name, exp, act in checks:
        found = first_mismatch(exp, act, name)
        if found:
            return found
    return None
