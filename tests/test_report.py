"""The per-epoch rows, their text rendering and the field diff `analyze`
reports, against brute-force references and by call counts."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import stakesim.report as report
from stakesim import (
    EconParams,
    PfcKind,
    TimingParams,
    TransactionRecord,
    build_timeline,
    render_text,
)
from stakesim.chain import WINDOW_KINDS
from stakesim.econ import pfc_ladder, strong_safety_flags
from stakesim.engine import ReportRecord, run
from stakesim.insurance import KarmaSummary
from stakesim.report import ReportDocument, _checked_sections, _epoch_rows, first_mismatch
from stakesim.scenario import canonical_json, parse_scenario

from conftest import assert_rows_are_maximal, long_busy_demo_doc, rows_by_epoch
from oracles import epoch_lines_oracle, epoch_rows_by_row, epoch_rows_oracle, first_mismatch_oracle
from perfbench import workloads
from test_golden import CASES

DEMO = Path(__file__).parent.parent / "scenarios" / "double-sign.json"
DEMO_T_REV = json.loads(DEMO.read_text(encoding="utf-8"))["timing"]["t_rev"]
RULES = ["immediate", "secure", "bridge", "insured_immediate"]
NO_KARMA = KarmaSummary((), frozenset(), Fraction(0))


# -- per-epoch rows ---------------------------------------------------------------


def _random_epoch_case(rng: random.Random):
    """A few busy epochs among long quiet stretches. Each busy epoch has
    transactions on its first and last tick, and some ticks hold several.
    Insured loads are covered, under-covered or left uncovered, and a few
    quiet epochs have coverage bought for them."""
    t_rev = rng.randint(1, 8)
    horizon = rng.randint(1, 60 * t_rev)
    last = horizon // t_rev
    busy = rng.sample(range(last + 1), min(last + 1, rng.randint(0, 4)))
    txs = []
    for e in busy:
        t0, t1 = e * t_rev, (e + 1) * t_rev
        for tick in (t0, t1 - 1, rng.randrange(t0, t1)):
            if tick > horizon:
                continue
            for _ in range(rng.choice([1, 1, 2, 3])):
                kind = rng.choice(["pure", "hybrid", "hybrid"])
                rule = rng.choice(RULES) if kind == "hybrid" else "immediate"
                txs.append(
                    TransactionRecord(
                        id=f"t{len(txs)}",
                        transactor=rng.choice("ab"),
                        value=Fraction(rng.randint(0, 6), rng.choice([1, 1, 2, 3])),
                        kind=kind,
                        rule=rule,
                        finalized_at=tick,
                    )
                )
    timeline = build_timeline(horizon=horizon, transactions=txs)
    tp = TimingParams(t_fin=1, t_rev=t_rev, t_ws=t_rev + 1)
    econ = EconParams(
        stake_per_validator=Fraction(3), n_validators=rng.randint(1, 4), gamma=Fraction(rng.randint(0, 4), 4)
    )

    coverage: dict = {}
    loads: dict = {}
    for t in timeline.transactions:
        if t.kind.value == "hybrid" and t.rule.value == "insured_immediate":
            key = (t.finalized_at // t_rev, t.transactor)
            loads[key] = loads.get(key, Fraction(0)) + t.value
    for (e, tr), load in sorted(loads.items()):
        bought = rng.choice([None, load / 2, load + 1])
        if bought is not None:
            coverage.setdefault(e, {})[tr] = bought
    quiet = sorted(set(range(last + 1)) - set(busy))
    for e in rng.sample(quiet, min(len(quiet), rng.randint(0, 3))):
        coverage.setdefault(e, {})[rng.choice("ab")] = Fraction(rng.randint(1, 9))
    return timeline, tp, econ, coverage, busy


def test_epoch_rows_match_the_per_filter_oracle():
    rng = random.Random(20261018)
    seen = {key: set() for key in ("quiet_buffer_ok", "busy_safe", "insured_ok")}
    seen.update(edges=False, shared_tick=False, quiet_coverage=False, long_quiet=False)
    for _ in range(300):
        timeline, tp, econ, coverage, busy = _random_epoch_case(rng)
        spans = _checked_sections(timeline, tp, econ, coverage, [], NO_KARMA).doc["per_epoch"]
        rows = rows_by_epoch(spans, tp.t_rev)
        assert rows == epoch_rows_oracle(timeline, tp.t_rev, econ, coverage)
        uncovered = {row["epoch"] for row in rows if not row["insured_ok"]}
        assert_rows_are_maximal(spans, set(busy).union(coverage, uncovered), tp.t_rev)

        ticks = [t.finalized_at for t in timeline.transactions]
        for row in rows:
            t0, t1 = row["window"]
            if row["epoch"] in busy:
                seen["busy_safe"].add(row["epoch_safe"])
                seen["edges"] |= t0 in ticks and t1 - 1 in ticks and t1 - t0 > 1
            else:
                seen["quiet_buffer_ok"].add(row["uninsured_buffer_ok"])
                seen["quiet_coverage"] |= bool(row["coverage"])
            seen["insured_ok"].add(row["insured_ok"])
        seen["shared_tick"] |= len(set(ticks)) < len(ticks)
        seen["long_quiet"] |= len(rows) - len(busy) >= 40
    # the cases reach every flag value and every shape the rows special-case
    assert seen.pop("quiet_buffer_ok") == seen.pop("busy_safe") == seen.pop("insured_ok") == {True, False}
    assert all(seen.values()), seen


def test_epoch_rows_match_the_row_by_row_oracle_on_the_corpus():
    # every golden case and shipped scenario that reaches its report, and
    # each benchmark workload's smoke document
    docs = [(name, make_doc()) for name, (make_doc, code, _) in sorted(CASES.items()) if code == 0]
    docs += [(f"smoke/{w}", workloads.generate(w, 1, smoke=True)[0]) for w in workloads.WORKLOADS]
    kinds = set()
    for name, doc in docs:
        sc = parse_scenario(doc, source=name)
        trace = run(sc)
        timeline, tp, ep, coverage = trace.timeline, sc.timing, sc.econ, trace.ledger.coverage()
        uncovered = strong_safety_flags(timeline, tp, ep, pfc_ladder(timeline, tp, ep), coverage)[2]
        spans = _epoch_rows(timeline, tp, ep, coverage, uncovered)
        assert spans == trace.report.doc["per_epoch"], name
        rows = rows_by_epoch(spans, tp.t_rev)
        assert rows == epoch_rows_by_row(timeline, tp, ep, coverage, uncovered), name
        # each row owns its window list and its coverage dict
        assert len({id(row["window"]) for row in spans}) == len({id(row["coverage"]) for row in spans}) == len(spans)
        busy = {tx.finalized_at // tp.t_rev for tx in timeline.transactions}
        assert_rows_are_maximal(spans, busy.union(coverage, uncovered), tp.t_rev)
        kinds |= {"busy" if e in busy else "covered" if e in coverage else "quiet" for e in range(len(rows))}
    # an uncovered epoch is busy; test_epoch_rows_match_the_per_filter_oracle reaches one
    assert kinds == {"busy", "covered", "quiet"}


def _long_demo():
    """The demo attack over 2,001 epochs: seven transactions, a settlement
    and karma for every party."""
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["horizon"] = 20_000
    return run(parse_scenario(doc, source=str(DEMO)))


def test_report_queries_the_timeline_only_in_busy_epochs(monkeypatch):
    calls = []
    real = report.gamma_value

    def counted(timeline, t0, t1, kind=PfcKind.REORG_WINDOW):
        calls.append((t0, t1, kind))
        return real(timeline, t0, t1, kind)

    monkeypatch.setattr(report, "gamma_value", counted)
    trace = _long_demo()
    t_rev = DEMO_T_REV
    busy = {t.finalized_at // t_rev for t in trace.timeline.transactions}
    assert len(rows_by_epoch(trace.report.doc["per_epoch"], t_rev)) == 2_001
    assert len(trace.timeline.transactions) <= 10
    assert 0 < len(calls) <= 4 * len(busy)
    assert {t0 // t_rev for t0, _, _ in calls} == busy


def test_a_busy_row_asks_the_timeline_once_per_rung_that_counts_more(monkeypatch):
    calls = []
    real = report.gamma_value

    def counted(timeline, t0, t1, kind=PfcKind.REORG_WINDOW):
        calls.append((t0, t1, kind))
        return real(timeline, t0, t1, kind)

    monkeypatch.setattr(report, "gamma_value", counted)
    tp = TimingParams(t_fin=1, t_rev=5, t_ws=6)
    # coc is 7/3; epoch 1 holds the flow, epochs 0 and 2 are quiet
    cases = [
        # every rung counts the same plain-immediate, uninsured hybrid flow,
        # whose load equals coc: not safe, as the comparison is strict
        ([("hybrid", "immediate", 1), ("hybrid", "immediate", Fraction(4, 3))], Fraction(1, 4), 1, (False, False)),
        # each rung counts one transaction fewer than the looser rung
        (
            [("pure", "immediate", 1), ("hybrid", "secure", 2), ("hybrid", "insured_immediate", 1),
             ("hybrid", "immediate", Fraction(1, 3))],
            Fraction(1, 4),
            4,
            (True, True),
        ),
        # value-0 flow, and tighter rungs whose windows count nothing: the
        # cells and flags of no load, whether or not any stake burns
        ([("pure", "immediate", 0), ("hybrid", "bridge", 0)], Fraction(1, 4), 2, (True, True)),
        ([("pure", "immediate", 0), ("hybrid", "bridge", 0)], Fraction(1), 2, (True, False)),
    ]
    for flow, gamma, asked, flags in cases:
        txs = [
            TransactionRecord(
                id=f"t{i}", transactor="a", value=value, kind=kind, rule=rule, finalized_at=5 + i,
            )
            for i, (kind, rule, value) in enumerate(flow)
        ]
        timeline = build_timeline(horizon=14, transactions=txs)
        ep = EconParams(stake_per_validator=Fraction(7, 2), n_validators=2, gamma=gamma)
        calls.clear()
        rows = _epoch_rows(timeline, tp, ep, {}, set())
        assert calls == [(5, 10, kind) for kind in WINDOW_KINDS[:asked]], flow
        assert rows_by_epoch(rows, tp.t_rev) == epoch_rows_by_row(timeline, tp, ep, {}, set())
        quiet, busy, _ = rows
        assert (busy["epoch_safe"], busy["uninsured_buffer_ok"]) == flags
        if not any(value for _, _, value in flow):
            assert busy == {**quiet, "epoch": 1, "window": [5, 10]}


def _rendered_values(doc: dict) -> set:
    """Every value string `render_text` shows as a decimal."""
    values = {doc["coc"]["token_toxicity"], doc["coc"]["slashing"]}
    values.update(b["value"] for b in doc["ladder"])
    values.update((doc["verdict"]["coc"], doc["verdict"]["pfc_value"]))
    for row in doc["per_epoch"]:
        values.update(row[key] for key in ("sum_all", "sum_hybrid", "sum_hybrid_not_secure", "sum_uninsured"))
    for s in doc["settlements"]:
        values.update(s[key] for key in ("slashed", "paid", "burned"))
    for p in doc["karma"]["parties"]:
        values.update(p[key] for key in ("net", "premiums_paid", "premiums_earned", "compensation", "harm", "slashed"))
    values.update((doc["karma"]["adversary_net"], doc["karma"]["double_spend_gain"]))
    return values


def test_render_text_formats_each_distinct_value_once(monkeypatch):
    doc = run(parse_scenario(long_busy_demo_doc())).report.doc
    expected_text = render_text(doc)
    args = []
    real = report.frac_decimal

    def counted(x, places=6):
        args.append(x)
        return real(x, places)

    monkeypatch.setattr(report, "frac_decimal", counted)
    assert render_text(doc) == expected_text
    assert len(args) == len(set(args)) == len(_rendered_values(doc))
    assert len(args) < 100 < len(doc["per_epoch"])
    # the memo lives only as long as one call
    render_text(doc)
    assert len(args) == 2 * len(set(args))


# -- one encoding of the report ----------------------------------------------------


EPOCH_HEADER = "per-epoch load (all / hybrid / not-secure / uninsured):"


def _check_outputs(rd: ReportDocument, tick: int = 7) -> None:
    """report.json (which the sweep writer writes too) and the trace's
    report record against `canonical_json` of the document, and the
    rendered per-epoch lines against the row-by-row oracle."""
    doc = rd.doc
    want = canonical_json(doc)
    assert rd.to_json() == want
    record = ReportRecord(tick, "report", doc, report=rd)
    assert record.line() == canonical_json({"tick": tick, "kind": "report", **doc})
    lines = render_text(doc).split("\n")
    start = lines.index(EPOCH_HEADER) + 1
    end = start + len(doc["per_epoch"])
    assert lines[start:end] == epoch_lines_oracle(doc)
    assert lines[end] == ""


def test_golden_and_shipped_reports_encode_and_render_as_before():
    checked = 0
    for name, (make_doc, code, _) in sorted(CASES.items()):
        if code != 0:
            continue  # the run stops before its report
        trace = run(parse_scenario(make_doc(), source=name))
        (record,) = [r for r in trace.records if r.kind == "report"]
        assert record.payload == trace.report.doc
        assert record.line() == canonical_json({"tick": record.tick, "kind": "report", **trace.report.doc})
        _check_outputs(trace.report)
        checked += 1
    assert checked >= 10


NAMES = ["alice", "bob", "zoë", "日本", 'q"t\\']
VALUES = ["1", "5/2", "7/3", "12", "1000000/3"]


def _random_rows(rng: random.Random) -> list:
    """Per-epoch rows: mostly quiet and repeating a few shapes, some busy,
    some with coverage bought (transactor names not ASCII or escaped among
    them), some flags false; epochs start at 0 or far out."""
    n = rng.choice([0, 1, rng.randint(2, 30), rng.randint(30, 150)])
    first = rng.choice([0, rng.randint(1, 500), 10 ** rng.randint(6, 15)])
    t_rev = rng.randint(1, 9)
    rows = []
    for e in range(first, first + n):
        busy = rng.random() < 0.15
        sums = [rng.choice(["0", *VALUES]) if busy else "0" for _ in range(4)]
        coverage = {}
        if rng.random() < 0.1:
            coverage = {tr: rng.choice(VALUES) for tr in sorted(rng.sample(NAMES, rng.randint(1, 3)))}
        rows.append(
            {
                "epoch": e,
                "window": [e * t_rev, (e + 1) * t_rev],
                "sum_all": sums[0],
                "sum_hybrid": sums[1],
                "sum_hybrid_not_secure": sums[2],
                "sum_uninsured": sums[3],
                "epoch_safe": rng.random() < 0.9,
                "uninsured_buffer_ok": rng.random() < 0.9,
                "coverage": coverage,
                "insured_ok": rng.random() < 0.9,
            }
        )
    return rows


def test_random_row_sets_encode_and_render_as_before():
    rng = random.Random(20261019)
    base = _long_demo().report
    seen = dict.fromkeys(
        ("coverage", "non_ascii_coverage", "insured_ok_false", "busy", "zero_rows", "many_digits", "shared_shape"),
        False,
    )
    for _ in range(300):
        rows = _random_rows(rng)
        _check_outputs(ReportDocument(doc=dict(base.doc, per_epoch=rows)))
        shapes = [tuple(v for k, v in row.items() if k not in ("epoch", "window")) for row in rows]
        seen["coverage"] |= any(row["coverage"] for row in rows)
        seen["non_ascii_coverage"] |= any(not tr.isascii() for row in rows for tr in row["coverage"])
        seen["insured_ok_false"] |= not all(row["insured_ok"] for row in rows)
        seen["busy"] |= any(row["sum_all"] != "0" for row in rows)
        seen["zero_rows"] |= not rows
        seen["many_digits"] |= any(row["epoch"] >= 10**6 for row in rows)
        seen["shared_shape"] |= len(set(map(repr, shapes))) < len(shapes)
    assert all(seen.values()), seen


def test_no_encoding_or_rendering_memo_outlives_its_call_or_document(monkeypatch):
    trace = _long_demo()
    doc = copy.deepcopy(trace.report.doc)
    doc["per_epoch"][3].update(sum_all="1234567/7", epoch_safe=False)  # a value no other line shows
    encoded = []
    real_json = report.canonical_json
    monkeypatch.setattr(report, "canonical_json", lambda d: encoded.append(d) or real_json(d))
    first = ReportDocument(doc=doc)
    text = first.to_json()
    n = len(encoded)
    assert first.to_json() == text and len(encoded) == n  # the document keeps its own encoding
    second = ReportDocument(doc=doc)
    assert second.to_json() == text and len(encoded) == 2 * n  # a second document encodes anew
    assert second.fields is not first.fields

    converted = []
    real_decimal = report.frac_decimal
    monkeypatch.setattr(report, "frac_decimal", lambda x, places=6: converted.append(x) or real_decimal(x, places))
    rendered = render_text(doc)
    assert render_text(doc) == rendered
    assert converted.count(Fraction(1234567, 7)) == 2  # each call formats the line's tail anew
    assert len(converted) == 2 * len(set(converted))


# -- first_mismatch -----------------------------------------------------------------


ROW = {"epoch": 1, "window": [10, 20], "sum_all": "0", "coverage": {"a": "3/2"}, "epoch_safe": True}


def test_first_mismatch_finds_nothing_in_equal_documents():
    doc = {"per_epoch": [ROW, dict(ROW, epoch=2)], "totals": {"paid": "6"}}
    assert first_mismatch(doc, copy.deepcopy(doc)) is None
    assert first_mismatch(doc, copy.deepcopy(doc), "report") is None
    assert first_mismatch([], []) is None
    assert first_mismatch("0", "0") is None


def test_first_mismatch_names_the_first_differing_key_in_sorted_order():
    expected = {"z": 1, "b": {"y": 2, "x": 1}, "a": [ROW]}
    actual = {"z": 2, "b": {"y": 3, "x": 0}, "a": [dict(ROW, sum_all="1", epoch_safe=False)]}
    assert first_mismatch(expected, actual) == "a[0].epoch_safe"
    del expected["a"], actual["a"]
    assert first_mismatch(expected, actual) == "b.x"
    assert first_mismatch(expected, actual, "report") == "report.b.x"
    assert first_mismatch(1, 2) == "<root>"


def test_first_mismatch_names_a_length_mismatch():
    assert first_mismatch({"rows": [1, 2]}, {"rows": [1, 2, 3]}) == "rows.length"
    assert first_mismatch([ROW], [], "per_epoch") == "per_epoch.length"
    # a length mismatch is named before any differing element
    assert first_mismatch({"rows": [1, 2]}, {"rows": [3]}) == "rows.length"


def test_first_mismatch_names_a_missing_key():
    assert first_mismatch({"a": 1, "b": 2}, {"a": 1}) == "b"
    assert first_mismatch({"a": 1}, {"a": 1, "b": 2}) == "b"
    assert first_mismatch(ROW, {k: v for k, v in ROW.items() if k != "coverage"}, "r") == "r.coverage"


def test_first_mismatch_keeps_comparing_leaves_by_value():
    # `True == 1` in Python, but JSON writes `true` and `1`: a leaf of
    # another type differs, bare or nested
    assert first_mismatch(True, 1) == "<root>"
    assert first_mismatch({"f": [True]}, {"f": [1]}) == "f[0]"
    assert first_mismatch({"f": True}, {"f": 1.0}) == "f"
    assert first_mismatch({"f": [0, 2]}, {"f": [False, 2]}) == "f[0]"
    assert first_mismatch({"f": "1"}, {"f": 1}) == "f"
    assert first_mismatch({"f": {}}, {"f": []}) == "f"
    assert first_mismatch({"f": [True, 1]}, {"f": [True, 1]}) is None


LEAVES = [0, 1, 1.0, True, False, None, "0", "1", "1/2"]


def _random_json(rng: random.Random, depth: int = 0):
    r = rng.random()
    if depth < 3 and r < 0.3:
        return {rng.choice("abcde"): _random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if depth < 3 and r < 0.5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return rng.choice(LEAVES)


def _mutate(rng: random.Random, doc):
    """`doc` with one random edit: a leaf replaced, a key dropped or added,
    or a list grown or shrunk, at a random depth."""
    if isinstance(doc, dict) and doc and rng.random() < 0.6:
        key = rng.choice(sorted(doc))
        doc[key] = _mutate(rng, doc[key])
        return doc
    if isinstance(doc, list) and doc and rng.random() < 0.6:
        i = rng.randrange(len(doc))
        doc[i] = _mutate(rng, doc[i])
        return doc
    if isinstance(doc, dict) and rng.random() < 0.7:
        if doc and rng.random() < 0.5:
            del doc[rng.choice(sorted(doc))]
        else:
            doc[rng.choice("abcdef")] = rng.choice(LEAVES)
        return doc
    if isinstance(doc, list) and rng.random() < 0.7:
        if doc and rng.random() < 0.5:
            doc.pop(rng.randrange(len(doc)))
        else:
            doc.insert(rng.randint(0, len(doc)), rng.choice(LEAVES))
        return doc
    return rng.choice(LEAVES)


def test_first_mismatch_matches_the_full_walk_on_random_documents():
    rng = random.Random(9)
    outcomes = set()
    for _ in range(3000):
        expected = _random_json(rng)
        actual = copy.deepcopy(expected)
        for _ in range(rng.choice([0, 1, 1, 2])):
            actual = _mutate(rng, actual)
        for a, b in ((expected, actual), (actual, expected)):
            want = first_mismatch_oracle(a, b, "doc")
            assert first_mismatch(a, b, "doc") == want, (a, b)
            outcomes.add(want is None)
    assert outcomes == {True, False}
