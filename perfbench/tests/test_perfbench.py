"""Self-tests of the benchmark harness, at smoke size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory) -> Path:
    results = tmp_path_factory.mktemp("smoke") / "results.jsonl"
    assert run.main(["--workload", "all", "--smoke", "--results", str(results)]) == 0
    return results


def test_smoke_run_reports_every_metric_for_every_workload(smoke_results):
    records = compare.load(smoke_results)
    assert [r["workload"] for r in records] == list(WORKLOADS)
    for r in records:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r["failures"]
        assert set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(r["fingerprints"]) == {"trace.jsonl", "report.json", "report.txt", "sweep"}


def test_traced_smoke_run_reports_every_layer_and_restores_originals(tmp_path, capsys):
    import stakesim.engine

    original = stakesim.engine.release_lots
    assert run.main(["--workload", "dense_flow", "--smoke", "--trace", "1", "--results", str(tmp_path / "r.jsonl")]) == 0
    summary = _last_json(capsys)
    assert summary["correct"] and summary["failed"] == 0
    metrics = summary["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["econ.pfc_ladder.calls"]["value"] == 3
    assert metrics["scenario.scenario_hash.calls"]["value"] == 2
    assert stakesim.engine.release_lots is original


def test_tampered_trace_fails_analyze_and_counts_as_failure(tmp_path):
    doc, grid = generate("dense_flow", 3, smoke=True)
    bench = run.Bench("dense_flow", doc, grid, tmp_path / "w")
    bench.run()
    assert bench.failed == 0, bench.failures
    trace = bench.run_dir / "trace.jsonl"
    lines = trace.read_text(encoding="utf-8").splitlines()
    i = next(n for n, line in enumerate(lines) if '"kind":"tx_finalized"' in line)
    record = json.loads(lines[i])
    record["value"] = str(int(record["value"]) + 1)
    lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")

    bench.analyze()
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "exit 3" in bench.failures[0]


def test_generator_is_seeded():
    for name in WORKLOADS:
        for smoke in (True, False):
            first = json.dumps(generate(name, 5, smoke=smoke), sort_keys=True)
            assert json.dumps(generate(name, 5, smoke=smoke), sort_keys=True) == first
            assert json.dumps(generate(name, 6, smoke=smoke), sort_keys=True) != first


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


def test_tracer_wraps_every_target_and_restores_on_error():
    import stakesim.insurance

    original = stakesim.insurance.InsuranceLedger.sell
    with pytest.raises(AttributeError):
        with Tracer((("stakesim.insurance", "InsuranceLedger.sell", "x"), ("stakesim.cli", "missing", "y"))):
            pass
    assert stakesim.insurance.InsuranceLedger.sell is original
    with Tracer() as tracer:
        assert len(tracer._originals) == len(tracer.targets)


def test_compare_flags_fingerprint_changes(smoke_results, tmp_path, capsys):
    assert compare.main([str(smoke_results), str(smoke_results)]) == 0
    changed = compare.load(smoke_results)
    changed[0]["fingerprints"]["trace.jsonl"] = "0" * 64
    other = tmp_path / "change.jsonl"
    other.write_text("".join(json.dumps(r) + "\n" for r in changed), encoding="utf-8")
    capsys.readouterr()
    assert compare.main([str(smoke_results), str(other)]) == 1
    assert "CHANGED fingerprints trace.jsonl" in capsys.readouterr().out
