"""Command line verbs, exit codes, and the files they leave behind."""

from __future__ import annotations

import copy
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest

import stakesim.cli as cli
import stakesim.report as report_module
from stakesim.chain import PfcKind
from stakesim.cli import main
from stakesim.engine import run
from stakesim.report import BOUND_ALIASES
from stakesim.errors import ScenarioError
from stakesim.rational import as_fraction, frac_str
from stakesim.scenario import canonical_json, load_scenario
from stakesim.version import __version__

from conftest import breach_scenario_doc, long_busy_demo_doc, quiet_scenario_doc

ROOT = Path(__file__).parent.parent
DEMO = str(ROOT / "scenarios" / "double-sign.json")


def write_doc(tmp_path: Path, doc: dict, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- run ------------------------------------------------------------------------


def test_run_writes_trace_and_both_reports(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--out", str(out)]) == 0
    assert (out / "trace.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"]["bound_kind"] == "reorg_hybrid_secure_rule"
    assert report["totals"] == {"slashed": "64", "paid": "6", "burned": "58"}
    text = (out / "report.txt").read_text()
    assert capsys.readouterr().out == text
    # every trace line is canonical single-line JSON with tick and kind
    lines = (out / "trace.jsonl").read_text().splitlines()
    for line in lines:
        rec = json.loads(line)
        assert canonical_json(rec) == line
        assert "tick" in rec and "kind" in rec
    assert lines and json.loads(lines[-1])["kind"] == "report"


def test_run_judges_against_the_requested_bound(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--out", str(out), "--bound", "tvl"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"]["bound_kind"] == "steal_tvl"
    # stealing the full locked value costs more than a third of the stake
    assert report["verdict"]["cryptoeconomically_safe"] is False
    capsys.readouterr()


def test_run_missing_scenario_file(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_run_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken", encoding="utf-8")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_breach_exits_2_and_keeps_the_partial_trace(tmp_path, capsys):
    scenario = write_doc(tmp_path, breach_scenario_doc())
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 2
    assert "INVARIANT-BREACH" in capsys.readouterr().err
    assert not (out / "trace.jsonl").exists()
    partial = (out / "trace-partial.jsonl").read_text().splitlines()
    assert partial
    kinds = [json.loads(line)["kind"] for line in partial]
    assert "settlement" in kinds and "report" not in kinds


# -- validate ---------------------------------------------------------------------


GOLDEN_SCENARIOS = ROOT / "tests" / "golden" / "scenarios"
HEADER = "(schema 1, tool " + __version__ + ")"
TIMING_LINE = "  timing: t_fin=2 t_rev=10 t_ws=100 t_cr={} slash_delay=0"
ECON_LINE = "  econ: 4 validators x stake 32 (total 128), gamma 1/2, tvl {}"
# the whole of `validate`'s stdout, for documents with and without named
# policies, a scripted strategy and fork events
VALIDATE_OUTPUT = {
    DEMO: [
        f"scenario d7a2c3f6125e9ecb {HEADER}",
        "  horizon 60, seed 7",
        TIMING_LINE.format(3),
        ECON_LINE.format(480),
        "  7 transactions, 0 fork events, 2 insurance bids",
        "  policies: alice=insured_fast_ux, carol=uninsured_freerider (default always_secure)",
        "  adversary strategy: double_sign_at",
    ],
    str(ROOT / "scenarios" / "grieving.json"): [
        f"scenario 9379c48aa1bb2aa7 {HEADER}",
        "  horizon 60, seed 11",
        TIMING_LINE.format(0),
        ECON_LINE.format(256),
        "  2 transactions, 0 fork events, 0 insurance bids",
        "  policies: mallory=insured_fast_ux (default always_secure)",
        "  adversary strategy: grieving_buyout",
    ],
    str(GOLDEN_SCENARIOS / "release-backlog.json"): [
        f"scenario 3c864bf6deaa8613 {HEADER}",
        "  horizon 110, seed 31",
        TIMING_LINE.format(0),
        ECON_LINE.format(300),
        "  2 transactions, 1 fork events, 7 insurance bids",
        "  policies: alice=insured_fast_ux (default always_secure)",
        "  fork late: diverges@70 revealed@75 -> ambiguous_window (2 signers, stake 64)",
        "  adversary strategy: double_sign_at",
    ],
    str(GOLDEN_SCENARIOS / "horizon-cut.json"): [
        f"scenario 0ad59da318297687 {HEADER}",
        "  horizon 60, seed 23",
        TIMING_LINE.format(0),
        ECON_LINE.format(200),
        "  2 transactions, 0 fork events, 0 insurance bids",
        "  policies: default always_secure",
    ],
}


def test_validate_prints_diagnostics(capsys):
    for scenario, lines in VALIDATE_OUTPUT.items():
        assert main(["validate", "--scenario", scenario]) == 0
        assert capsys.readouterr().out == "\n".join([*lines, "ok"]) + "\n"


def test_validate_rejects_bad_schema(tmp_path, capsys):
    doc = quiet_scenario_doc()
    doc["schema_version"] = 99
    scenario = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", scenario]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "schema" in err


def _duplicate_transaction(doc: dict) -> None:
    doc["transactions"].append(dict(doc["transactions"][0]))


def _transaction_past_horizon(doc: dict) -> None:
    doc["transactions"][0]["finalized_at"] = doc["horizon"] + 1


def _unknown_policy(doc: dict) -> None:
    doc["policies"]["alice"] = "reckless"


def _offchain_past_horizon(doc: dict) -> None:
    doc["transactions"][0]["offchain_executed_at"] = doc["horizon"] + 1


def _exit_past_horizon(doc: dict) -> None:
    doc["validators"] = [{"id": f"v{n}", "stake": 32} for n in range(1, 5)]
    doc["validators"][0]["exit_tick"] = doc["horizon"] + 1


# the demo scenario, broken one way, and the whole of `validate`'s stderr
# after "error: <file>"
BAD_DOCUMENTS = {
    "duplicate-transaction": (_duplicate_transaction, ": duplicate transaction id 'tx1'"),
    "transaction-past-horizon": (_transaction_past_horizon, ": transaction 'tx1': finalized_at beyond horizon"),
    "unknown-policy": (_unknown_policy, ".policies.alice: malformed value 'reckless': unknown policy"),
    "offchain-past-horizon": (_offchain_past_horizon, ": transaction 'tx1': offchain tick beyond horizon"),
    "exit-past-horizon": (_exit_past_horizon, ": validator 'v1': exit_tick beyond horizon"),
    "negative-t-cr": (lambda doc: doc["timing"].update(t_cr=-1), ".timing: t_cr must be >= 0, got -1"),
    "negative-slash-delay": (
        lambda doc: doc["timing"].update(slash_delay=-1),
        ".timing: slash_delay must be >= 0, got -1",
    ),
    "negative-attack-over": (lambda doc: doc.update(attack_over_epoch=-1), ".attack_over_epoch: must be >= 0"),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_validate_prints_the_whole_error(tmp_path, capsys, name):
    breakage, message = BAD_DOCUMENTS[name]
    doc = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    breakage(doc)
    scenario = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", scenario]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {scenario}{message}\n"


# each scripted fork the engine would reject when building its timeline
BAD_SCRIPTED_FORKS = {
    "reveal-before-divergence": (
        {"kind": "double_sign_at", "tick": -5, "target_t0": 20, "stake_fraction": "1/2"},
        "revealed_at precedes the divergence tick",
    ),
    "reveal-beyond-horizon": (
        {"kind": "double_sign_at", "tick": 10**6, "target_t0": 20, "stake_fraction": "1/2"},
        "revealed_at beyond horizon",
    ),
    "unknown-exited-signer": (
        {"kind": "long_range_at", "tick": 40, "exited_set": ["nobody"]},
        "unknown double signers",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SCRIPTED_FORKS))
def test_validate_rejects_a_scripted_fork_that_run_would_reject(tmp_path, capsys, name):
    strategy, message = BAD_SCRIPTED_FORKS[name]
    doc = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    doc["adversary"]["strategy"] = strategy
    scenario = write_doc(tmp_path, doc)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(scenario)
    assert exc.value.path == f"{scenario}.adversary.strategy"
    assert message in str(exc.value)
    assert main(["validate", "--scenario", scenario]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {scenario}.adversary.strategy: ")


def test_validate_rejects_a_fork_event_that_reuses_the_scripted_fork_id(tmp_path, capsys):
    doc = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    doc["fork_events"] = [{"id": "atk-double-sign", "diverges_from": 10, "revealed_at": 14}]
    scenario = write_doc(tmp_path, doc)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(scenario)
    assert exc.value.path == f"{scenario}.adversary.strategy"
    assert "duplicate fork event id 'atk-double-sign'" in str(exc.value)
    for verb in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*verb, "--scenario", scenario]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {scenario}.adversary.strategy: ")
    assert not (tmp_path / "out" / "trace.jsonl").exists()


# -- analyze ----------------------------------------------------------------------


def run_demo(tmp_path, capsys) -> Path:
    out = tmp_path / "out"
    assert main(["run", "--scenario", DEMO, "--out", str(out)]) == 0
    capsys.readouterr()
    return out / "trace.jsonl"


def test_analyze_verifies_a_fresh_trace(tmp_path, capsys):
    trace = run_demo(tmp_path, capsys)
    assert main(["analyze", "--trace", str(trace)]) == 0
    assert "report verified against trace" in capsys.readouterr().out


def test_analyze_catches_a_tampered_report(tmp_path, capsys):
    trace = run_demo(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "report":
            rec["totals"]["paid"] = "7"
            lines[i] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert "MISMATCH at totals.paid" in capsys.readouterr().out


def test_analyze_rejects_a_trace_without_a_report(tmp_path, capsys):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("", encoding="utf-8")
    assert main(["analyze", "--trace", str(trace)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper,path",
    [
        (lambda h: h["timing"].update(t_rev=0), ":run_start.timing: t_rev must be >= 1, got 0"),
        (lambda h: h["econ"].update(gamma="x"), ":run_start.econ.gamma: malformed value 'x'"),
        # a header value must be written as the run wrote it, not only read equal
        pytest.param(
            lambda h: h["econ"].update(gamma="2/4"),
            ":run_start.econ.gamma: expected canonical '1/2', got '2/4'",
            id="econ-gamma-not-canonical",
        ),
        pytest.param(
            lambda h: h["econ"].pop("gamma"), ":run_start.econ.gamma: missing required key", id="econ-gamma-missing"
        ),
        # a trace is read only at the output version that wrote it
        *(
            pytest.param(
                lambda h, v=version: h.update(schema_version=v),
                f":run_start.schema_version: unsupported output version {version}, expected 4",
                id=f"output-version-{version}",
            )
            for version in (1, 2, 3)
        ),
        pytest.param(
            lambda h: h.pop("schema_version"), ":run_start.schema_version: missing required key", id="version-missing"
        ),
    ],
)
def test_analyze_rejects_a_malformed_header_with_its_path(tmp_path, capsys, tamper, path):
    trace = run_demo(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "run_start"
    tamper(header)
    lines[0] = canonical_json(header)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {trace}{path}")
    assert "Traceback" not in captured.err


def tamper_first(trace: Path, kind: str, tamper) -> int:
    """Rewrite the first record of `kind` in a trace file through `tamper`,
    and return its line number."""
    lines = trace.read_text().splitlines()
    i = next(n for n, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    record = json.loads(lines[i])
    tamper(record)
    lines[i] = canonical_json(record)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return i + 1


MALFORMED_BODY_RECORDS = [
    (lambda r: r.pop("value"), "tx_finalized.value: missing required key"),
    (lambda r: r.update(value="five"), "tx_finalized.value: malformed value 'five'"),
    (lambda r: r.update(tick="4"), "tx_finalized.tick: malformed value '4'"),
    (lambda r: r.update(tx_kind="mixed"), "tx_finalized.tx_kind: malformed value 'mixed'"),
    (lambda r: r["lots"][0].pop("coverage"), "auction.lots[0].coverage: missing required key"),
    (lambda r: r["lots"].insert(0, 7), "auction.lots[0]: expected an object"),
    (lambda r: r["lots"][0].update(premium_rate="x"), "auction.lots[0].premium_rate: malformed value 'x'"),
    (lambda r: r["lots"][0].update(premium_rate=[1]), "auction.lots[0].premium_rate: malformed value [1]"),
    (lambda r: r.update(lots={}), "auction.lots: malformed value {}"),
    (lambda r: r.pop("shares"), "auction.shares: missing required key"),
    (lambda r: r["shares"].update(v1="x"), "auction.shares: malformed value"),
    (lambda r: r.pop("burned"), "settlement.burned: missing required key"),
    (lambda r: r.update(paid="1/0"), "settlement.paid: malformed value '1/0'"),
    (lambda r: r.pop("totals"), "report.totals: missing required key"),
    (lambda r: r.pop("karma"), "report.karma: missing required key"),
    (lambda r: r.update(verdict=[]), "report.verdict: expected an object"),
    (lambda r: r["verdict"].update(bound_kind="x"), "report.verdict.bound_kind: malformed value 'x'"),
]


@pytest.mark.parametrize(
    "tamper,message",
    MALFORMED_BODY_RECORDS,
    ids=[message.split(":")[0] for _, message in MALFORMED_BODY_RECORDS],
)
def test_analyze_rejects_a_malformed_body_record_with_its_path(tmp_path, capsys, tamper, message):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, message.split(".")[0], tamper)
    assert main(["analyze", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {trace}:{message}")
    assert "Traceback" not in captured.err


# analyze reads tx_finalized and settlement records, and the embedded
# report's verdict, settlement entries and karma section, through their
# tables: a key the table does not know (a schema-2 `insured_epoch` among
# them), one it needs, a value it cannot read, or fields that make no
# transaction are bad input
UNREADABLE = [
    ("tx_finalized", lambda r: r.update(stray=1), "tx_finalized: unknown keys ['stray']"),
    ("tx_finalized", lambda r: r.update(insured_epoch=0), "tx_finalized: unknown keys ['insured_epoch']"),
    ("tx_finalized", lambda r: r.pop("rule_effective"), "tx_finalized.rule_effective: missing required key"),
    ("settlement", lambda r: r.update(stray=1), "settlement: unknown keys ['stray']"),
    ("settlement", lambda r: r.pop("breach"), "settlement.breach: missing required key"),
    ("settlement", lambda r: r["claims"][0].pop("harm"), "settlement.claims[0].harm: missing required key"),
    ("settlement", lambda r: r["claims"][0].update(x=1), "settlement.claims[0]: unknown keys ['x']"),
    ("tx_finalized", lambda r: r.update(value="-5"), "tx_finalized: transaction 'tx1': value must be >= 0"),
    ("report", lambda r: r["verdict"].update(stray=1), "report.verdict: unknown keys ['stray']"),
    ("report", lambda r: r["verdict"].pop("coc"), "report.verdict.coc: missing required key"),
    (
        "report",
        lambda r: r["verdict"].update(strong_safety="yes"),
        "report.verdict.strong_safety: malformed value 'yes': expected a boolean",
    ),
    ("tx_finalized", lambda r: r.pop("rule_requested"), "tx_finalized.rule_requested: missing required key"),
    ("tx_finalized", lambda r: r.update(tick=-4), "tx_finalized: transaction 'tx1': finalized_at < 0"),
    (
        "tx_finalized",
        lambda r: r.update(rule_requested="banana"),
        "tx_finalized.rule_requested: malformed value 'banana': unknown rule",
    ),
    ("report", lambda r: r["karma"].update(stray=1), "report.karma: unknown keys ['stray']"),
    ("report", lambda r: r["karma"]["parties"][0].pop("harm"), "report.karma.parties[0].harm: missing required key"),
    (
        "report",
        lambda r: r["karma"]["parties"][0].update(net="x"),
        "report.karma.parties[0].net: malformed value 'x': Invalid literal for Fraction: 'x'",
    ),
    # 0 == False, so only the table tells a 0 from the flag it stands for
    (
        "report",
        lambda r: r["settlements"][0].update(breach=0),
        "report.settlements[0].breach: malformed value 0: expected a boolean",
    ),
]


@pytest.mark.parametrize(
    "kind,tamper,message", UNREADABLE, ids=[f"{k}{n}" for n, (k, _, _) in enumerate(UNREADABLE)]
)
def test_analyze_refuses_a_record_its_table_cannot_read(tmp_path, capsys, kind, tamper, message):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, kind, tamper)
    assert main(["analyze", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {trace}:{message}\n"


def settlement_of(record: dict) -> dict:
    """The settlement record, or the embedded report's copy of it."""
    return record["settlements"][0] if record["kind"] == "report" else record


def drop_alice(record: dict) -> None:
    """The demo's one claimant, alice, left out of the report's karma section."""
    parties = record["karma"]["parties"]
    parties[:] = [p for p in parties if p["party"] != "alice"]


def pay_nothing(record: dict) -> None:
    """The demo's one settlement paying no claim and burning its whole slash
    of 64, in the settlement record, or in the report's copy and totals."""
    if record["kind"] == "report":
        record["totals"].update(paid="0", burned="64")
        record = record["settlements"][0]
    record.update(paid="0", burned="64")
    record["claims"][0]["paid"] = "0"


def premiums_unpaid(record: dict) -> None:
    """Alice's premiums paid, 1/2 for her two lots, stated as 0, and her net
    rewritten to agree."""
    alice = record["karma"]["parties"][0]
    assert alice["party"] == "alice" and alice["premiums_paid"] == "1/2"
    alice.update(premiums_paid="0", net=frac_str(as_fraction(alice["net"]) + Fraction(1, 2)))


def claim_of(record: dict) -> dict:
    """The demo's one claim, alice's, in the settlement record or the report's copy."""
    return settlement_of(record)["claims"][0]


def underpay(record: dict) -> None:
    """Alice's claim, capped at 6 within a budget of 32, paid 5, and every
    amount that sums it rewritten to agree: the settlement's paid and
    burned, or the report's copy, totals and alice's compensation and net."""
    if record["kind"] == "report":
        record["totals"].update(paid="5", burned="59")
        record["karma"]["parties"][0].update(compensation="5", net="-3/2")
    settlement_of(record).update(paid="5", burned="59")
    claim_of(record)["paid"] = "5"


@pytest.mark.parametrize(
    "kind,tamper,field",
    [
        ("tx_finalized", lambda r: r.update(value="99"), "ladder[1].value"),
        ("settlement", lambda r: r.update(paid="7", burned="57"), "settlements[0].burned"),
        # more coverage than alice's claim of 6, at the same premium (1/5),
        # moves only the epoch's row
        ("auction", lambda r: r["lots"][0].update(coverage="11", premium_rate="1/55"), "per_epoch[2].coverage.alice"),
        # the report's labels and settlements are checked against the
        # run_start and settlement records, and its karma section against
        # the amounts the settlements give
        ("report", lambda r: r.update(scenario_hash="0" * 64), "scenario_hash"),
        ("report", lambda r: r.update(seed=8), "seed"),
        ("report", lambda r: r["settlements"][0].update(paid="7"), "settlements[0].paid"),
        ("report", lambda r: r["karma"]["parties"][0].update(net="0"), "karma.parties[0].net"),
        ("report", lambda r: r["karma"].update(adversary_net="0"), "karma.adversary_net"),
        # a flag written as a number reads equal in Python, not in JSON
        ("report", lambda r: r["per_epoch"][0].update(epoch_safe=1), "per_epoch[0].epoch_safe"),
        # both copies tampered alike: only re-deriving the amounts catches these
        (("settlement", "report"), lambda r: settlement_of(r).update(burned="0"), "settlements[0].burned"),
        (("settlement", "report"), pay_nothing, "settlements[0].burned"),
        (
            ("settlement", "report"),
            lambda r: settlement_of(r).update(insurance_budget="1000"),
            "settlements[0].insurance_budget",
        ),
        # every claimant needs an entry
        ("report", drop_alice, "karma.parties.length"),
        # the demo's capped claims (6) are within its budget (32)
        (("settlement", "report"), lambda r: settlement_of(r).update(breach=True), "settlements[0].breach"),
        # an auction's shares are each positive and sum to exactly 1
        ("auction", lambda r: r.update(shares={"v1": "9"}), "auction[0].shares"),
        ("auction", lambda r: r.update(shares={"v1": "2", "v2": "-1"}), "auction[0].shares"),
        ("auction", lambda r: r.update(shares={"v1": "1/2", "v2": "1/2", "v3": "0"}), "auction[0].shares"),
        ("auction", lambda r: r.update(shares={}), "auction[0].shares"),
        # a claim is capped at the coverage bought and paid in full within
        # the budget, so its amounts are re-derived, not read
        (("settlement", "report"), underpay, "settlements[0].burned"),
        (("settlement", "report"), lambda r: claim_of(r).update(capped="5"), "settlements[0].claims[0].capped"),
        (("settlement", "report"), lambda r: claim_of(r).update(paid="5"), "settlements[0].claims[0].paid"),
        # less coverage than her claim moves the claim, which the settlement shows first
        ("auction", lambda r: r["lots"][0].update(coverage="1"), "settlements[0].burned"),
        # an auction's epoch gives its lots' covering epoch: one later leaves the claim's epoch uncovered
        ("auction", lambda r: r.update(epoch=1), "settlements[0].burned"),
        # a premium is its lot's coverage times its rate, so a buyer's premiums paid are derived
        ("auction", lambda r: r["lots"][0].update(premium_rate="1/40"), "karma.parties[0].net"),
        ("report", premiums_unpaid, "karma.parties[0].net"),
    ],
)
def test_analyze_finds_a_tampered_value_in_a_table_record(tmp_path, capsys, kind, tamper, field):
    trace = run_demo(tmp_path, capsys)
    for each in (kind,) if isinstance(kind, str) else kind:
        tamper_first(trace, each, tamper)
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert capsys.readouterr().out == f"{trace}: MISMATCH at {field}\n"


def test_analyze_checks_each_distinct_share_map(tmp_path, capsys):
    # the demo's second auction sells under the map its first one wrote;
    # a map written there too is checked as well
    trace = run_demo(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    i = [n for n, line in enumerate(lines) if json.loads(line)["kind"] == "auction"][1]
    record = json.loads(lines[i])
    assert record["lots"] and "shares" not in record
    record["shares"] = {"v1": "1/5", "v2": "1/5"}
    lines[i] = canonical_json(record)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert capsys.readouterr().out == f"{trace}: MISMATCH at auction[1].shares\n"


# Every case but the flag's keeps coc > pfc_value true in the tampered verdict
# itself, so only re-deriving the numbers from the trace can catch it.
@pytest.mark.parametrize(
    "changes,field",
    [
        ({"coc": "1000000"}, "coc"),
        ({"pfc_value": "0"}, "pfc_value"),
        ({"cryptoeconomically_safe": False}, "cryptoeconomically_safe"),
        ({"coc": "1000000", "pfc_value": "0"}, "coc"),
        ({"bound_kind": "steal_tvl"}, "cryptoeconomically_safe"),
        # the value the trace gives, 128/3, but not as the report writes it
        ({"coc": "256/6"}, "coc"),
        # the demo's strong_safety is false; the report is walked by sorted key, coc before the flags
        ({"strong_safety": True, "coc": "1000000"}, "coc"),
    ],
)
def test_analyze_rederives_the_verdict_numbers(tmp_path, capsys, changes, field):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, "report", lambda r: r["verdict"].update(changes))
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert capsys.readouterr().out == f"{trace}: MISMATCH at verdict.{field}\n"


def flip(record: dict, key: str) -> None:
    record[key] = not record[key]


@pytest.mark.parametrize(
    "tamper,field",
    [
        (lambda r: flip(r["verdict"], "strong_safety"), "verdict.strong_safety"),
        (lambda r: flip(r["verdict"], "uninsured_buffer_ok"), "verdict.uninsured_buffer_ok"),
        (lambda r: flip(r["per_epoch"][2], "insured_ok"), "per_epoch[2].insured_ok"),
    ],
)
def test_analyze_rederives_the_strong_safety_flags(tmp_path, capsys, tamper, field):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, "report", tamper)
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert capsys.readouterr().out == f"{trace}: MISMATCH at {field}\n"


# Epochs 1, 5 and 6 of the demo hold no transaction.
@pytest.mark.parametrize("epoch,key,value", [(1, "sum_all", "1"), (5, "epoch_safe", False)])
def test_analyze_rederives_a_quiet_epochs_row(tmp_path, capsys, epoch, key, value):
    trace = run_demo(tmp_path, capsys)
    row = json.loads(trace.read_text().splitlines()[-1])["per_epoch"][epoch]
    assert (row["sum_all"], row["epoch_safe"]) == ("0", True)
    tamper_first(trace, "report", lambda r: r["per_epoch"][epoch].update({key: value}))
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert capsys.readouterr().out == f"{trace}: MISMATCH at per_epoch[{epoch}].{key}\n"


# -- sweep ------------------------------------------------------------------------


def test_sweep_writes_an_index_and_per_point_reports(tmp_path, capsys):
    out = tmp_path / "sweep"
    gammas = [0, "1/4", "1/2", "3/4", 1]  # as --set reads 0,1/4,1/2,3/4,1
    code = main(
        ["sweep", "--scenario", DEMO, "--set", "econ.gamma=0,1/4,1/2,3/4,1", "--out", str(out)]
    )
    assert code == 0
    assert "swept 5 points (5 ok, 0 failed)" in capsys.readouterr().out
    index = json.loads((out / "sweep.json").read_text())
    assert [p["point"] for p in index["points"]] == [0, 1, 2, 3, 4]
    assert [p["ok"] for p in index["points"]] == [True] * 5
    for n, (point, gamma) in enumerate(zip(index["points"], gammas)):
        assert point["overrides"] == {"econ.gamma": gamma}
        assert point["report"] == f"report-{n:04d}.json"
        assert point["cryptoeconomically_safe"] is True
        # each point's slash is split exactly between payouts and burn
        totals = json.loads((out / point["report"]).read_text())["totals"]
        gamma = as_fraction(gamma)
        slashed, paid, burned = (as_fraction(totals[k]) for k in ("slashed", "paid", "burned"))
        assert slashed == 64
        assert paid + burned == slashed
        assert paid <= gamma * slashed
        assert burned >= (1 - gamma) * slashed


def test_sweep_grid_file_and_failed_points(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"econ.gamma": ["1/2", "3/2"]}), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", DEMO, "--grid", str(grid), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "swept 2 points (1 ok, 1 failed)" in stdout
    assert "point 1" in stdout and "gamma" in stdout
    index = json.loads((out / "sweep.json").read_text())
    assert [p["ok"] for p in index["points"]] == [True, False]
    assert "report" not in index["points"][1]
    assert not (out / "report-0001.json").exists()
    # a grid path through a non-object is a domain error that cites the path
    grid.write_text(json.dumps({"timing.t_rev.x": [1], "econ.gamma": ["1/2", "1"]}), encoding="utf-8")
    out = tmp_path / "through-a-number"
    assert main(["sweep", "--scenario", DEMO, "--grid", str(grid), "--out", str(out)]) == 0
    assert "swept 2 points (0 ok, 2 failed)" in capsys.readouterr().out
    rows = json.loads((out / "sweep.json").read_text())["points"]
    assert [r["ok"] for r in rows] == [False, False]
    for n, row in enumerate(rows):
        assert row["error"].startswith(f"ScenarioError: <sweep point {n}>.timing.t_rev: ")
        assert "report" not in row
    assert sorted(p.name for p in out.iterdir()) == ["sweep.json"]


def test_sweep_refuses_a_template_that_is_not_an_object_as_run_does(tmp_path, capsys):
    template, out = write_doc(tmp_path, []), tmp_path / "sweep"
    assert main(["sweep", "--scenario", template, "--set", "econ.gamma=1/2,1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {template}: expected an object, got list\n")
    assert not out.exists()
    assert main(["run", "--scenario", template, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == captured.err


def _serial_sweep(
    template: dict, grid: dict, out: Path, bound_kind: PfcKind = PfcKind.REORG_HYBRID_SECURE_RULE
) -> list[dict]:
    out.mkdir()
    jobs = enumerate(itertools.product(*grid.values()))
    return [cli._sweep_group(template, list(grid), None, bound_kind, out, [job])[0] for job in jobs]


def test_a_serial_sweep_leaves_its_template_as_it_was(tmp_path):
    template = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    snapshot = copy.deepcopy(template)
    # sibling and nested paths, two and three levels deep, on points that run
    grid = {
        "econ.gamma": ["1/4", "1"],
        "econ.tvl": [96, 960],
        "timing.t_rev": [10, 12],
        "adversary.strategy.tick": [26, 27],
    }
    rows = _serial_sweep(template, grid, tmp_path / "ok")
    assert [row["ok"] for row in rows] == [True] * 16
    assert template == snapshot
    # a path made where the template has none, and one through a number
    rows = _serial_sweep(template, {"extra.block.key": [1], "timing.t_rev.x": [1]}, tmp_path / "failed")
    assert rows[0]["error"] == (
        "ScenarioError: <sweep point 0>.timing.t_rev: cannot set 'timing.t_rev.x' inside a non-object"
    )
    assert template == snapshot


def test_a_bug_in_a_serial_point_propagates_with_its_type(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not a domain error")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "run_engine", broken)
    with pytest.raises(RuntimeError, match="a bug, not a domain error"):
        main(["sweep", "--scenario", DEMO, "--set", "econ.gamma=1/2", "--out", str(tmp_path / "s")])


def _sweep_peak(template: str, gammas: list[str], out: Path) -> int:
    """tracemalloc's peak, in bytes, over one `stakesim sweep` of `gammas`."""
    tracemalloc.start()
    try:
        axis = "econ.gamma=" + ",".join(gammas)
        assert main(["sweep", "--scenario", template, "--set", axis, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_holds_one_point_report_at_a_time(tmp_path, capsys):
    # a row per epoch over 2,001 epochs, so each report is large
    template = write_doc(tmp_path, long_busy_demo_doc())
    _sweep_peak(template, ["1/2"], tmp_path / "warm")
    one = _sweep_peak(template, ["1/2"], tmp_path / "one")
    four = _sweep_peak(template, ["1/2", "1/4", "3/4", "1"], tmp_path / "four")
    assert len(list((tmp_path / "four").glob("report-*.json"))) == 4
    assert four < 1.25 * one, (one, four)


def test_a_serial_sweep_holds_one_point_report_at_a_time(tmp_path, capsys, monkeypatch):
    # the parent's tracemalloc sees no pool worker's memory, so only the
    # in-process path shows that points stream through one at a time
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    template = write_doc(tmp_path, long_busy_demo_doc())
    _sweep_peak(template, ["1/2"], tmp_path / "warm")
    one = _sweep_peak(template, ["1/2"], tmp_path / "one")
    four = _sweep_peak(template, ["1/2", "1/4", "3/4", "1"], tmp_path / "four")
    assert len(list((tmp_path / "four").glob("report-*.json"))) == 4
    assert four < 1.25 * one, (one, four)


def _outputs(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _pooled(monkeypatch) -> list:
    """Force `sweep` onto a two-worker pool, whatever the host's CPUs;
    returns the list each pool's worker count is appended to."""
    pools = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorded)
    return pools


GAMMA_AXIS = "econ.gamma=1/2,1/4,3/2,1,0"  # 3/2 is out of range: point 2 fails


def test_a_pooled_sweep_writes_what_a_serial_one_does(tmp_path, capsys, monkeypatch):
    pools = _pooled(monkeypatch)
    assert main(["sweep", "--scenario", DEMO, "--set", GAMMA_AXIS, "--out", str(tmp_path / "pooled")]) == 0
    pooled_stdout = capsys.readouterr().out.replace(str(tmp_path / "pooled"), "OUT")
    assert pools == [2]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["sweep", "--scenario", DEMO, "--set", GAMMA_AXIS, "--out", str(tmp_path / "serial")]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path / "serial"), "OUT") == pooled_stdout
    assert pools == [2]

    pooled, serial = _outputs(tmp_path / "pooled"), _outputs(tmp_path / "serial")
    assert pooled == serial
    assert sorted(pooled) == [f"report-{n:04d}.json" for n in (0, 1, 3, 4)] + ["sweep.json"]
    rows = json.loads(pooled["sweep.json"])["points"]
    assert [(r["point"], r["ok"]) for r in rows] == [(0, True), (1, True), (2, False), (3, True), (4, True)]
    assert rows[2]["error"] == "ScenarioError: <sweep point 2>.econ: gamma must lie in [0, 1], got 3/2"


# over the breach document: gamma 1/2 breaks its settlement and 3/2 is out of
# range, and a tvl of -1 fails the first points of each group, so a later one
# leads; a tvl of 30 is below the cost of corruption (128/3) and 10^9+7 above it
REPORT_ONLY_GRID = {"econ.gamma": ["1/2", "3/4", "3/2"], "econ.tvl": [-1, 30, 1000000007], "seed": [5, 12345]}


@pytest.mark.parametrize("bound", ["secure", "tvl"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_sweep_writes_what_running_each_point_alone_writes(tmp_path, capsys, monkeypatch, cpus, bound):
    template = breach_scenario_doc()
    alone = tmp_path / "alone"
    rows = _serial_sweep(template, REPORT_ONLY_GRID, alone, BOUND_ALIASES[bound])
    (alone / "sweep.json").write_text(canonical_json({"points": rows}) + "\n", encoding="utf-8")
    assert [r["ok"] for r in rows] == [False] * 6 + [False, False] + [True] * 4 + [False] * 6
    assert rows[0]["error"].startswith("ScenarioError: <sweep point 0>.econ: tvl must be")
    assert rows[2]["error"].startswith("InvariantBreachError: INVARIANT-BREACH")
    # under the tvl bound the verdict reads tvl, so the one group that runs judges its points apart
    safe = [r["cryptoeconomically_safe"] for r in rows if r["ok"]]
    assert safe == ([True, True, False, False] if bound == "tvl" else [True] * 4)

    pools, loops, finished, parts = _pooled(monkeypatch), [], [], []

    def run_engine(*args, **kwargs):
        loops.append(args)
        finished.append(run(*args, **kwargs))
        return finished[-1]

    sections = report_module._checked_sections
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "run_engine", run_engine)
    monkeypatch.setattr(report_module, "_checked_sections", lambda *args: parts.append(args) or sections(*args))
    axes = [f"{path}={','.join(map(str, values))}" for path, values in REPORT_ONLY_GRID.items()]
    sets = [arg for axis in axes for arg in ("--set", axis)]
    out = tmp_path / "swept"
    assert main(["sweep", "--scenario", write_doc(tmp_path, template), *sets, "--bound", bound, "--out", str(out)]) == 0
    assert _outputs(out) == _outputs(alone)
    assert pools == [2] * (cpus - 1)
    # in process, each breaking point leads its group anew and the rest share
    # one loop, whose first report builds the sections every later one shares
    assert len(loops) == (4 + 1 if cpus == 1 else 0)
    assert len(parts) == len(finished) == (1 if cpus == 1 else 0)


def test_no_pool_worker_outlives_a_sweep(tmp_path, capsys, monkeypatch):
    pools = _pooled(monkeypatch)
    assert main(["sweep", "--scenario", DEMO, "--set", GAMMA_AXIS, "--out", str(tmp_path / "s")]) == 0
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_a_bug_in_a_pooled_point_propagates_with_its_type(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not a domain error")

    pools = _pooled(monkeypatch)
    monkeypatch.setattr(cli, "run_engine", broken)  # forked workers inherit the patch
    with pytest.raises(RuntimeError, match="a bug, not a domain error"):
        main(["sweep", "--scenario", DEMO, "--set", GAMMA_AXIS, "--out", str(tmp_path / "s")])
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_a_killed_pool_worker_fails_the_sweep_instead_of_hanging(tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def killed(*args, **kwargs):
        assert os.getpid() != parent, "the sweep ran a point in the test process"
        os._exit(9)

    pools = _pooled(monkeypatch)
    monkeypatch.setattr(cli, "run_engine", killed)
    with pytest.raises(BrokenProcessPool):
        main(["sweep", "--scenario", DEMO, "--set", GAMMA_AXIS, "--out", str(tmp_path / "s")])
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_a_process_with_another_thread_sweeps_in_process():
    # a forked child keeps only the forking thread, so a lock another
    # thread held at the fork would stay held in the worker for good
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert cli._usable_cpus() == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_sweep_without_any_axis_is_an_error(tmp_path, capsys):
    assert main(["sweep", "--scenario", DEMO, "--out", str(tmp_path / "s")]) == 1
    assert "error:" in capsys.readouterr().err


# -- one reader for every JSON input ------------------------------------------------

MISSING = object()


def set_or_drop(obj: dict, key: str, bad) -> None:
    if bad is MISSING:
        del obj[key]
    else:
        obj[key] = bad


def scenario_input(tmp_path, capsys, bad):
    doc = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    set_or_drop(doc["timing"], "t_rev", bad)
    scenario = write_doc(tmp_path, doc)
    return ["validate", "--scenario", scenario], f"{scenario}.timing.t_rev"


def header_input(tmp_path, capsys, bad):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, "run_start", lambda r: set_or_drop(r["econ"], "gamma", bad))
    return ["analyze", "--trace", str(trace)], f"{trace}:run_start.econ.gamma"


def body_input(tmp_path, capsys, bad):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, "tx_finalized", lambda r: set_or_drop(r, "value", bad))
    return ["analyze", "--trace", str(trace)], f"{trace}:tx_finalized.value"


def grid_input(tmp_path, capsys, bad):
    grid = write_doc(tmp_path, {"econ.gamma": bad}, "grid.json")
    return ["sweep", "--scenario", DEMO, "--grid", grid, "--out", str(tmp_path / "sw")], f"{grid}.econ.gamma"


# a grid file has no required key, so it can only hold a malformed axis
@pytest.mark.parametrize(
    "make_input,bad,wording",
    [
        (scenario_input, MISSING, "missing required key"),
        (scenario_input, "x", "malformed value 'x'"),
        (header_input, MISSING, "missing required key"),
        (header_input, "x", "malformed value 'x'"),
        (body_input, MISSING, "missing required key"),
        (body_input, "x", "malformed value 'x'"),
        (grid_input, "1/2", "malformed value '1/2'"),
    ],
    ids=["scenario-missing", "scenario-malformed", "header-missing", "header-malformed",
         "body-missing", "body-malformed", "grid-malformed"],
)
def test_every_input_cites_a_bad_key_at_its_own_path(tmp_path, capsys, make_input, bad, wording):
    argv, path = make_input(tmp_path, capsys, bad)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {wording}")


def write_trace(tmp_path, capsys, text):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(text, encoding="utf-8")
    return ["analyze", "--trace", str(trace)], str(trace)


def header_only(tmp_path, capsys):
    trace = run_demo(tmp_path, capsys)
    trace.write_text(trace.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    return ["analyze", "--trace", str(trace)], str(trace)


def write_grid(tmp_path, capsys, grid):
    path = write_doc(tmp_path, grid, "grid.json")
    return ["sweep", "--scenario", DEMO, "--grid", path, "--out", str(tmp_path / "sw")], path


def float_in(kind, tamper):
    def make_input(tmp_path, capsys):
        trace = run_demo(tmp_path, capsys)
        line = tamper_first(trace, kind, tamper)
        return ["analyze", "--trace", str(trace)], f"{trace}:{line}"

    return make_input


def set_without_values(tmp_path, capsys):
    return ["sweep", "--scenario", DEMO, "--set", "econ.gamma", "--out", str(tmp_path / "sw")], "--set"


# each case reaches a raise site in `report` or `cli` that no other test
# reaches; a trace holds no float, so one in a value or an epoch is bad input
@pytest.mark.parametrize(
    "make_input,message",
    [
        (lambda t, c: write_trace(t, c, "not json\n"), ":1: invalid trace JSON: Expecting value"),
        (lambda t, c: write_trace(t, c, '{"tick": 0, "kind": "report"} 5\n'), ":1: invalid trace JSON: Extra data"),
        # a blank line is skipped, but counted
        (lambda t, c: write_trace(t, c, "\n  \nnot json\n"), ":3: invalid trace JSON: Expecting value"),
        (lambda t, c: write_trace(t, c, '{"tick": 0}\n'), ":1: trace record needs tick and kind"),
        (lambda t, c: write_trace(t, c, '{"tick": 0, "kind": "report"}\n'), ": trace has no run_start record"),
        (header_only, ": trace has no embedded report"),
        (float_in("tx_finalized", lambda r: r.update(value=5.0)), ": invalid trace JSON: unexpected float 5.0"),
        (
            float_in("report", lambda r: r["per_epoch"][0].update(epoch=0.0)),
            ": invalid trace JSON: unexpected float 0.0",
        ),
        (lambda t, c: write_grid(t, c, []), ": expected an object"),
        (
            lambda t, c: write_grid(t, c, {"econ.gamma": []}),
            ".econ.gamma: malformed value []: expected a non-empty list",
        ),
        (set_without_values, ": --set needs path=v1,v2,... (got 'econ.gamma')"),
    ],
    ids=[
        "trace-json", "trace-extra", "trace-blank-line", "trace-record", "trace-header", "trace-report",
        "trace-float-value", "trace-float-epoch", "grid-object", "grid-axis", "set-axis",
    ],
)
def test_each_unreached_input_error_is_one_line(tmp_path, capsys, make_input, message):
    argv, path = make_input(tmp_path, capsys)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}{message}\n"


# -- unreadable input ------------------------------------------------------------


INPUT_ARGS = {
    "run": lambda bad, out: ["run", "--scenario", bad, "--out", out],
    "validate": lambda bad, out: ["validate", "--scenario", bad],
    "sweep-scenario": lambda bad, out: ["sweep", "--scenario", bad, "--set", "econ.gamma=1/2", "--out", out],
    "sweep-grid": lambda bad, out: ["sweep", "--scenario", DEMO, "--grid", bad, "--out", out],
    "analyze": lambda bad, out: ["analyze", "--trace", bad],
}


@pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
@pytest.mark.parametrize("verb", sorted(INPUT_ARGS))
def test_unreadable_input_is_a_path_citing_error(tmp_path, capsys, verb, unreadable):
    bad = tmp_path / "input.json"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"horizon": "\xff\xfe"}\n')
    assert main(INPUT_ARGS[verb](str(bad), str(tmp_path / "out"))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: cannot read ")
    assert "Traceback" not in err


OUTPUT_ARGS = {
    "run": lambda out: ["run", "--scenario", DEMO, "--out", out],
    "sweep": lambda out: ["sweep", "--scenario", DEMO, "--set", "econ.gamma=1/2", "--out", out],
}


@pytest.mark.parametrize("verb", sorted(OUTPUT_ARGS))
def test_an_output_directory_that_is_a_file_is_one_error_line(tmp_path, capsys, verb):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(OUTPUT_ARGS[verb](str(taken))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {taken}: cannot write output: ")
    assert captured.err.count("\n") == 1


# -- one parser per process ----------------------------------------------------------


def test_main_builds_its_parser_once_and_calls_the_command_the_module_holds_now(tmp_path, capsys, monkeypatch):
    # a wrapper set on a command after the first call (as a tracer sets
    # one) is the one the next call runs
    argv = ["validate", "--scenario", DEMO]
    assert main(argv) == 0
    parser = cli.build_parser()
    seen = []
    validate = cli.cmd_validate
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.scenario) or validate(args))
    assert main(argv) == 0
    assert seen == [DEMO]
    assert cli.build_parser() is parser
    assert capsys.readouterr().out.count("\nok\n") == 2


# -- installed entry point -----------------------------------------------------------


def write_console_script(bin_dir: Path, name: str, target: str) -> None:
    """Write the launcher an install makes for a `[project.scripts]` entry."""
    module, attr = target.split(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        f"import sys; from {module} import {attr}; sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)


def test_installed_executable_reports_its_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == __version__
    write_console_script(tmp_path, "stakesim", project["scripts"]["stakesim"])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["stakesim", "--version"], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"stakesim {project['version']}\n"
