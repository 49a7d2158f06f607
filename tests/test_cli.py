"""Command line verbs, exit codes, and the files they leave behind."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import stakesim.cli as cli
import stakesim.engine as engine
from stakesim.cli import main
from stakesim.errors import ScenarioError
from stakesim.scenario import canonical_json, load_scenario
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
        pytest.param(
            lambda h: h["econ"].pop("gamma"), ":run_start.econ.gamma: missing required key", id="econ-gamma-missing"
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
    # the demo over 2,001 mostly quiet epochs, so each report is large
    doc = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    doc["horizon"] = 20_000
    template = write_doc(tmp_path, doc)
    _sweep_peak(template, ["1/2"], tmp_path / "warm")
    one = _sweep_peak(template, ["1/2"], tmp_path / "one")
    four = _sweep_peak(template, ["1/2", "1/4", "3/4", "1"], tmp_path / "four")
    assert len(list((tmp_path / "four").glob("report-*.json"))) == 4
    assert four < 1.25 * one, (one, four)


def test_a_serial_sweep_holds_one_point_report_at_a_time(tmp_path, capsys, monkeypatch):
    # the parent's tracemalloc sees no pool worker's memory, so only the
    # in-process path shows that points stream through one at a time
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    doc = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    doc["horizon"] = 20_000
    template = write_doc(tmp_path, doc)
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


def test_no_pool_worker_outlives_a_sweep(tmp_path, capsys, monkeypatch):
    pools = _pooled(monkeypatch)
    assert main(["sweep", "--scenario", DEMO, "--set", GAMMA_AXIS, "--out", str(tmp_path / "s")]) == 0
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_a_bug_in_a_pooled_point_propagates_with_its_type(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not a domain error")

    pools = _pooled(monkeypatch)
    monkeypatch.setattr(engine, "run", broken)  # forked workers inherit the patch
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
    monkeypatch.setattr(engine, "run", killed)
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
