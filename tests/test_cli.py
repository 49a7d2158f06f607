"""Command line verbs, exit codes, and the files they leave behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stakesim.cli import main
from stakesim.scenario import canonical_json
from stakesim.version import __version__

from conftest import breach_scenario_doc, quiet_scenario_doc

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


def test_validate_prints_diagnostics(capsys):
    assert main(["validate", "--scenario", DEMO]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("ok")
    assert "4 validators x stake 32" in out
    assert "fork" in out


def test_validate_rejects_bad_schema(tmp_path, capsys):
    doc = quiet_scenario_doc()
    doc["schema_version"] = 99
    scenario = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", scenario]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "schema" in err


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
        (lambda h: h["econ"].update(gamma="x"), ":run_start.econ.gamma: not an exact value"),
        (lambda h: h["econ"].pop("gamma"), ":run_start.econ: missing required key 'gamma'"),
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


def tamper_first(trace: Path, kind: str, tamper) -> None:
    """Rewrite the first record of `kind` in a trace file through `tamper`."""
    lines = trace.read_text().splitlines()
    i = next(n for n, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    record = json.loads(lines[i])
    tamper(record)
    lines[i] = canonical_json(record)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")


MALFORMED_BODY_RECORDS = [
    (lambda r: r.pop("value"), "tx_finalized.value: missing required key"),
    (lambda r: r.update(value="five"), "tx_finalized.value: malformed value 'five'"),
    (lambda r: r.update(tick="4"), "tx_finalized.tick: malformed value '4'"),
    (lambda r: r.update(tx_kind="mixed"), "tx_finalized.tx_kind: malformed value 'mixed'"),
    (lambda r: r["lots"][0].pop("coverage"), "auction.lots[0].coverage: missing required key"),
    (lambda r: r["lots"].insert(0, 7), "auction.lots[0]: expected an object"),
    (lambda r: r.update(lots={}), "auction.lots: malformed value {}"),
    (lambda r: r.pop("burned"), "settlement.burned: missing required key"),
    (lambda r: r.update(paid="1/0"), "settlement.paid: malformed value '1/0'"),
    (lambda r: r.pop("totals"), "report.totals: missing required key"),
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


# Every case but the flag's keeps coc > pfc_value true in the tampered verdict
# itself, so only re-deriving the numbers from the trace can catch it.
@pytest.mark.parametrize(
    "changes,field",
    [
        ({"coc": "1000000"}, "coc"),
        ({"pfc_value": "0"}, "pfc_value"),
        ({"cryptoeconomically_safe": False}, "cryptoeconomically_safe"),
        ({"coc": "1000000", "pfc_value": "0"}, "coc"),
        ({"bound_kind": "steal_tvl"}, "pfc_value"),
    ],
)
def test_analyze_rederives_the_verdict_numbers(tmp_path, capsys, changes, field):
    trace = run_demo(tmp_path, capsys)
    tamper_first(trace, "report", lambda r: r["verdict"].update(changes))
    assert main(["analyze", "--trace", str(trace)]) == 3
    assert capsys.readouterr().out == f"{trace}: MISMATCH at verdict.{field}\n"


# -- sweep ------------------------------------------------------------------------


def test_sweep_writes_an_index_and_per_point_reports(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--scenario", DEMO, "--set", "econ.gamma=0,1/2,1", "--out", str(out)]
    )
    assert code == 0
    assert "swept 3 points (3 ok, 0 failed)" in capsys.readouterr().out
    index = json.loads((out / "sweep.json").read_text())
    assert [p["ok"] for p in index["points"]] == [True, True, True]
    assert index["points"][1]["overrides"] == {"econ.gamma": "1/2"}
    for n, point in enumerate(index["points"]):
        report = json.loads((out / point["report"]).read_text())
        assert point["report"] == f"report-{n:04d}.json"
        assert point["cryptoeconomically_safe"] is True
        assert report["totals"]["slashed"] == "64"


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
    assert not (out / "report-0001.json").exists()


def test_sweep_without_any_axis_is_an_error(tmp_path, capsys):
    assert main(["sweep", "--scenario", DEMO, "--out", str(tmp_path / "s")]) == 1
    assert "error:" in capsys.readouterr().err


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
