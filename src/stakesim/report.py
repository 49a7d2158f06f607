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
from typing import Any, Optional, Sequence

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
from .scenario import parse_run_header
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
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _epoch_rows(
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    coverage: dict[tuple[str, int], Fraction],
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
        insured_ok = all(
            total < coverage.get((tr, e), Fraction(0)) for tr, total in insured_by_tr.items()
        )
        epoch_coverage = {
            tr: cov for (tr, ce), cov in sorted(coverage.items()) if ce == e
        }
        rows.append(
            {
                "epoch": e,
                "window": [t0, t1],
                "sum_all": frac_str(sums[GammaFilter.ALL]),
                "sum_hybrid": frac_str(sums[GammaFilter.HYBRID_ONLY]),
                "sum_hybrid_not_secure": frac_str(sums[GammaFilter.HYBRID_NOT_SECURE]),
                "sum_uninsured": frac_str(sums[GammaFilter.UNINSURED]),
                "coverage": {tr: frac_str(c) for tr, c in epoch_coverage.items()},
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
    timeline: ChainTimeline,
    tp: TimingParams,
    ep: EconParams,
    ledger: Optional[InsuranceLedger],
    settlements: Sequence[SettlementRecord],
    karma: Optional[KarmaSummary],
    bound_kind: PfcKind,
    *,
    scenario_hash: str = "",
    seed: int = 0,
) -> ReportDocument:
    """Assemble the full safety report for one (effective) timeline."""
    verdict = safety_verdict(timeline, tp, ep, ledger, bound_kind)
    ladder = pfc_ladder(timeline, tp, ep)
    coverage: dict[tuple[str, int], Fraction] = {}
    if ledger is not None:
        for lot in ledger.lots:
            key = (lot.buyer, lot.covering_epoch)
            coverage[key] = coverage.get(key, Fraction(0)) + lot.coverage

    karma_doc: dict[str, Any] = {}
    if karma is not None:
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


def recompute_from_trace(records: Sequence[dict], *, source: str = "<trace>") -> dict:
    """Re-derive the report's checkable numbers from raw trace records."""
    header = next((r for r in records if r["kind"] == "run_start"), None)
    if header is None:
        raise ScenarioError("trace has no run_start record", path=source)
    horizon, tp, ep = parse_run_header(header, f"{source}:run_start")

    txs = []
    for r in records:
        if r["kind"] != "tx_finalized":
            continue
        txs.append(
            TransactionRecord(
                id=r["id"],
                transactor=r["transactor"],
                value=as_fraction(r["value"]),
                kind=TxKind(r["tx_kind"]),
                finalized_at=r["tick"],
                rule=ConfirmationRule(r["rule_effective"]),
                insured_epoch=r["insured_epoch"],
            )
        )
    timeline = ChainTimeline(
        horizon=horizon,
        transactions=tuple(sorted(txs, key=lambda t: (t.finalized_at, t.id))),
    )

    coverage: dict[tuple[str, int], Fraction] = {}
    for r in records:
        if r["kind"] != "auction":
            continue
        for lot in r["lots"]:
            key = (lot["buyer"], lot["covering_epoch"])
            coverage[key] = coverage.get(key, Fraction(0)) + as_fraction(lot["coverage"])

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
    for key, total in insured_groups.items():
        if not total < coverage.get(key, Fraction(0)):
            strong = False
    uninsured_bound = next(b for b in ladder if b.kind is PfcKind.UNINSURED_LOAD)
    uninsured_buffer_ok = (1 - ep.gamma) * coc > uninsured_bound.value
    strong = strong and uninsured_buffer_ok

    slashed = paid = burned = Fraction(0)
    for r in records:
        if r["kind"] == "settlement":
            slashed += as_fraction(r["slashed"])
            paid += as_fraction(r["paid"])
            burned += as_fraction(r["burned"])

    return {
        "coc": _coc_doc(ep),
        "ladder": _ladder_doc(ladder),
        "verdict_flags": {
            "strong_safety": strong,
            "uninsured_buffer_ok": uninsured_buffer_ok,
        },
        "per_epoch": _epoch_rows(timeline, tp, ep, coverage),
        "totals": {
            "slashed": frac_str(slashed),
            "paid": frac_str(paid),
            "burned": frac_str(burned),
        },
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

    Returns the first differing field path, or None when everything checks.
    """
    embedded = next((r for r in records if r["kind"] == "report"), None)
    if embedded is None:
        raise ScenarioError("trace has no embedded report", path=source)
    recomputed = recompute_from_trace(records, source=source)

    checks = [
        ("coc", embedded["coc"], recomputed["coc"]),
        ("ladder", embedded["ladder"], recomputed["ladder"]),
        ("per_epoch", embedded["per_epoch"], recomputed["per_epoch"]),
        ("totals", embedded["totals"], recomputed["totals"]),
        (
            "verdict.strong_safety",
            embedded["verdict"]["strong_safety"],
            recomputed["verdict_flags"]["strong_safety"],
        ),
        (
            "verdict.uninsured_buffer_ok",
            embedded["verdict"]["uninsured_buffer_ok"],
            recomputed["verdict_flags"]["uninsured_buffer_ok"],
        ),
        (
            "verdict.cryptoeconomically_safe",
            embedded["verdict"]["cryptoeconomically_safe"],
            as_fraction(embedded["verdict"]["coc"]) > as_fraction(embedded["verdict"]["pfc_value"]),
        ),
    ]
    for name, exp, act in checks:
        found = first_mismatch(exp, act, name)
        if found:
            return found
    return None
