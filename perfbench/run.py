#!/usr/bin/env python3
"""stakesim benchmark: seeded scenarios through run, analyze and sweep.

    python3 perfbench/run.py --workload dense_flow --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --smoke    # smallest sizes, no timing

Each workload's generated scenario goes through the public entry points
in this process: `load_scenario` (setup) and `stakesim.cli.main` with
`run`, `analyze` and `sweep`, stdout captured. The load is a closed loop
with one client: one call at a time, no threads or subprocesses. A
smoke-size round (run, analyze, sweep) of the same workload runs first,
untimed, as warm-up; then one untimed run under tracemalloc gives
peak_mem_mb.

--trace 0 reports the end-to-end metrics over calls repeated until
--seconds have passed, at least two sweeps. Each step sweeps the
workload's grid once, then loads the scenario three times (setup_s), runs
it and analyzes the trace it wrote, repeating these three until they have
taken half as long as the sweep; every kind of call gets samples over the whole
window, and a workload with a long sweep and a short run many of both.
Every timed call starts after a full garbage collection and is
bracketed by two runs of a stakesim-free calibration loop; its time is
scaled to a reference host speed by their mean (see `calibrate`). A timing
metric is the median of its scaled calls; the sample count and the raw
medians are printed beside it, and every sample, raw and scaled, is kept
in the results.

--trace 1 alternates untraced and traced rounds of run, analyze and
sweep, and reports per-module metrics from the traced ones (see
tracer.py): exact call counts, and self times as the median over
traced rounds. It prints the tracing overhead as the median traced minus
the median untraced run_s.

Every call is checked, and a call with any failed check counts once in
`failed`: non-zero exit, analyze mismatch, output that differs byte for
byte from the first run of the same seed, broken settlement conservation,
a failed sweep point, or a workload that lost its shape. The process exits
1 if anything failed. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full result, with
sample lists, fingerprints and shape counts, is appended to --results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if not (SRC / "stakesim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no stakesim package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from stakesim import cli  # noqa: E402
from stakesim.scenario import load_scenario, parse_scenario, scenario_hash  # noqa: E402

from tracer import Tracer, layer_totals, write_spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "analyze_s": "s",
    "sweep_points_per_s": "points/s",
    "trace_bytes": "bytes",
    "peak_mem_mb": "MiB",
}

# Counted from the trace file, not from spans.
TRACE_COUNTS = {
    "engine.records": "count",
    "engine.epochs": "count",
    "engine.quiet_epoch_share": "ratio",
    "engine.events.finalize": "count",
    "engine.events.execute": "count",
    "engine.events.reveal": "count",
    "insurance.lots": "count",
}

PER_LAYER = {
    "econ.window_sup.s": "s",
    "econ.pfc_ladder.calls": "count",
    "econ.pfc_ladder.s": "s",
    "econ.safety_verdict.s": "s",
    "chain.gamma_value.calls": "count",
    "chain.gamma_value.s": "s",
    "chain.build_timeline.calls": "count",
    "chain.build_timeline.s": "s",
    "report.build_report.s": "s",
    "report.render_text.s": "s",
    "report.parse_trace.s": "s",
    "report.recompute_from_trace.s": "s",
    "report.compare_trace_to_report.s": "s",
    "engine.run.s": "s",
    **TRACE_COUNTS,
    **{
        f"insurance.{fn}.{field}": ("count" if field == "calls" else "s")
        for fn in ("sell", "activate", "available", "release_lots", "coverage_check", "settle_slash", "karma_report")
        for field in ("calls", "s")
    },
    "insurance.u.calls": "count",
    "confirmation.decide_secure.calls": "count",
    "confirmation.decide_secure.s": "s",
    "confirmation.decide_bridge.calls": "count",
    "confirmation.decide_bridge.s": "s",
    "resolution.resolve.calls": "count",
    "resolution.resolve.s": "s",
    "scenario.load_scenario.s": "s",
    "scenario.parse_scenario.s": "s",
    "scenario.scenario_hash.calls": "count",
    "scenario.scenario_hash.s": "s",
    "cli.run.s": "s",
    "cli.sweep.point_s": "s",
}

SETUP_PER_STEP = 3

# The calibration loop's time on the host the README's figures come from,
# unloaded. Timings are reported at this host speed (see `calibrate`).
REFERENCE_CALIBRATION_S = 0.025

# trace-like records: the program's hot paths serialize, parse and index these
_CALIBRATION_DOC = {
    "records": [
        {"kind": "epoch_start", "epoch": i, "tick": i * 10, "value": str(i * 37 % 1009), "who": f"tx{i:05d}"}
        for i in range(4_000)
    ]
}


def calibrate() -> float:
    """Seconds taken by a fixed stakesim-free loop of the program's kind of
    work: a JSON round trip of trace-like records and a dict index over them.

    The host is shared, and its speed swings by up to a factor of two within
    seconds. Each timed call is bracketed by two calibrations, and its time
    is scaled by REFERENCE_CALIBRATION_S over their mean, which reports it
    at the reference host speed. The loop runs no stakesim code, so a change
    to the program cannot move it.
    """
    gc.collect()
    start = perf_counter()
    for _ in range(2):
        records = json.loads(json.dumps(_CALIBRATION_DOC, sort_keys=True, separators=(",", ":")))["records"]
        index: dict[int, list[dict]] = {}
        for record in records:
            index.setdefault(record["tick"] // 50, []).append(record)
    seconds = perf_counter() - start
    if len(index) != 800 or sum(map(len, index.values())) != 4_000:
        raise AssertionError("calibration loop computed the wrong result")
    return seconds


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: (exit code, wall seconds, captured output).

    A program bug surfaces as an exception; it is recorded as exit code -1
    with its traceback so the harness can count it and keep going.
    """
    buf = io.StringIO()
    gc.collect()  # every call starts from the same collector state
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            buf.write(traceback.format_exc())
        seconds = perf_counter() - start
    return code, seconds, buf.getvalue()


def settlement_problems(report: dict) -> list[str]:
    """paid + burned == slashed and paid <= budget, in exact rationals."""
    problems = []
    for s in report["settlements"]:
        paid, burned = Fraction(s["paid"]), Fraction(s["burned"])
        slashed, budget = Fraction(s["slashed"]), Fraction(s["insurance_budget"])
        if paid + burned != slashed:
            problems.append(f"settlement {s['event']}: paid + burned != slashed")
        if paid > budget:
            problems.append(f"settlement {s['event']}: paid exceeds insurance budget")
    return problems


def trace_shape(trace_path: Path) -> dict[str, float]:
    """Exact counts read back from a trace file."""
    records = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    kinds = Counter(r["kind"] for r in records)
    quiet, in_epoch = 0, None
    for r in records:
        if r["kind"] == "epoch_start":
            quiet += in_epoch == 0
            in_epoch = 0
        elif in_epoch is not None and r["kind"] not in ("karma", "report"):
            in_epoch += 1
    quiet += in_epoch == 0
    epochs = kinds["epoch_start"]
    return {
        "records": len(records),
        "epochs": epochs,
        "quiet_epochs": quiet,
        "tx_finalized": kinds["tx_finalized"],
        "executions": kinds["offchain_executed"] + kinds["execution_cancelled"],
        "fork_reveals": kinds["fork_reveal"],
        "lots_sold": sum(len(r["lots"]) for r in records if r["kind"] == "auction"),
        "settlements": kinds["settlement"],
        "reverted": kinds["tx_reverted"],
        "reverted_executed": sum(1 for r in records if r["kind"] == "tx_reverted" and r["executed"]),
    }


class Bench:
    """One generated scenario and its checked calls.

    `attempted` counts calls; `failed` counts calls with at least one
    failed check, whose messages go to `failures`.
    """

    def __init__(self, workload: str, doc: dict, grid: dict, work: Path):
        self.workload = workload
        self.doc = doc
        self.points = 1
        for values in grid.values():
            self.points *= len(values)
        # validate before anything is timed; parse errors abort the benchmark
        self.expected_hash = scenario_hash(parse_scenario(doc, source=workload))
        shutil.rmtree(work, ignore_errors=True)
        self.run_dir, self.sweep_dir = work / "run", work / "sweep"
        self.run_dir.mkdir(parents=True)
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        self.grid_path = work / "grid.json"
        self.grid_path.write_text(json.dumps(grid) + "\n", encoding="utf-8")
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.shape: dict[str, float] = {}

    def _count(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{self.workload} {what}: {p}" for p in problems)

    def _same_as_first(self, name: str, digest: str) -> list[str]:
        first = self.fingerprints.setdefault(name, digest)
        return [] if first == digest else [f"{name} differs from the first run of this seed"]

    def setup(self) -> float:
        gc.collect()
        start = perf_counter()
        scenario = load_scenario(str(self.scenario_path))
        seconds = perf_counter() - start
        same = scenario_hash(scenario) == self.expected_hash
        self._count("setup", [] if same else ["loaded scenario hashes differently from the generated one"])
        return seconds

    def run(self) -> float:
        code, seconds, output = call_cli(["run", "--scenario", str(self.scenario_path), "--out", str(self.run_dir)])
        problems = [] if code == 0 else [f"exit {code}: {output[-2000:]}"]
        if code == 0:
            for name in ("trace.jsonl", "report.json", "report.txt"):
                problems += self._same_as_first(name, sha256(self.run_dir / name))
            report = json.loads((self.run_dir / "report.json").read_text(encoding="utf-8"))
            problems += settlement_problems(report)
            if not self.shape:
                self.shape = trace_shape(self.run_dir / "trace.jsonl")
                problems += self._shape_problems()
        self._count("run", problems)
        return seconds

    def _shape_problems(self) -> list[str]:
        s = self.shape
        problems = []
        if s["tx_finalized"] != len(self.doc["transactions"]):
            problems.append("not every transaction finalized")
        if s["settlements"] < 1:
            problems.append("no settlement")
        if self.workload == "insurance_market" and s["reverted_executed"] < 1:
            problems.append("no reverted executed hybrid transaction")
        return problems

    def analyze(self) -> float:
        code, seconds, output = call_cli(["analyze", "--trace", str(self.run_dir / "trace.jsonl")])
        self._count("analyze", [] if code == 0 else [f"exit {code}: {output.strip()[-2000:]}"])
        return seconds

    def sweep(self) -> float:
        shutil.rmtree(self.sweep_dir, ignore_errors=True)
        code, seconds, output = call_cli(
            ["sweep", "--scenario", str(self.scenario_path), "--grid", str(self.grid_path), "--out", str(self.sweep_dir)]
        )
        problems = [] if code == 0 else [f"exit {code}: {output[-2000:]}"]
        if code == 0:
            points = json.loads((self.sweep_dir / "sweep.json").read_text(encoding="utf-8"))["points"]
            if len(points) != self.points:
                problems.append(f"{len(points)} points, expected {self.points}")
            problems += [f"point {p['point']} failed: {p['error']}" for p in points if not p["ok"]]
            digest = hashlib.sha256()
            for path in sorted(self.sweep_dir.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            problems += self._same_as_first("sweep", digest.hexdigest())
        self._count("sweep", problems)
        return seconds

    def round(self) -> float:
        """One run, analyze and sweep; returns the run's seconds."""
        run_s = self.run()
        self.analyze()
        self.sweep()
        return run_s

    def peak_mem_mb(self) -> float:
        """tracemalloc peak over one run, in its own untimed pass."""
        gc.collect()
        tracemalloc.start()
        try:
            self.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def traced_round(self) -> tuple[float, dict[str, float], list]:
        """One round under the tracer: (run seconds, per-layer values, the
        run's spans).

        Layer values cover the run and the analyze call; the sweep call
        gives only cli.sweep.point_s.
        """
        with Tracer() as tracer:
            run_s = self.run()
            run_spans = tracer.take()
            self.analyze()
            analyze_spans = tracer.take()
            self.sweep()
            sweep_spans = tracer.take()
        totals = layer_totals(run_spans)
        for name, (calls, total, self_s) in layer_totals(analyze_spans).items():
            c, t, s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c + calls, t + total, s + self_s)
        values = {}
        for metric in PER_LAYER:
            if metric in TRACE_COUNTS or metric == "cli.sweep.point_s":
                continue
            span, _, field = metric.rpartition(".")
            calls, _, self_s = totals.get(span, (0, 0.0, 0.0))
            values[metric] = calls if field == "calls" else self_s
        values["cli.sweep.point_s"] = layer_totals(sweep_spans)["cli.sweep"][1] / self.points
        return run_s, values, run_spans

    def trace_counts(self) -> dict[str, float]:
        s = self.shape
        return {
            "engine.records": s["records"],
            "engine.epochs": s["epochs"],
            "engine.quiet_epoch_share": s["quiet_epochs"] / s["epochs"],
            "engine.events.finalize": s["tx_finalized"],
            "engine.events.execute": s["executions"],
            "engine.events.reveal": s["fork_reveals"],
            "insurance.lots": s["lots_sold"],
        }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, out: Path) -> dict:
    """Benchmark one workload, working under `out`; returns the full result record."""
    work = out / workload
    doc, grid = generate(workload, seed, smoke=smoke)
    bench = Bench(workload, doc, grid, work)
    benches = [bench]
    if not smoke:
        warm = Bench(workload, *generate(workload, seed, smoke=True), work / "warmup")
        warm.round()
        benches.append(warm)

    samples: dict[str, list[float]] = {}
    metrics: dict[str, dict] = {}
    extra: dict = {}
    min_rounds = 1 if smoke else 2
    if not trace:
        peak = bench.peak_mem_mb()
        raw: dict[str, list[float]] = {"setup_s": [], "run_s": [], "analyze_s": [], "sweep_s": []}
        scaled: dict[str, list[float]] = {name: [] for name in raw}
        calibrations = [calibrate()]

        def record(name: str, values: list[float]) -> None:
            """Keep samples taken since the last calibration, scaled by the
            mean of that calibration and a new one."""
            calibrations.append(calibrate())
            scale = REFERENCE_CALIBRATION_S / statistics.fmean(calibrations[-2:])
            raw[name] += values
            scaled[name] += [v * scale for v in values]

        deadline = perf_counter() + (0 if smoke else seconds)
        while len(raw["sweep_s"]) < min_rounds or perf_counter() < deadline:
            sweep_s = bench.sweep()
            record("sweep_s", [sweep_s])
            # set-up loads, runs and analyzes repeat until they have taken
            # half as long as the sweep, so a workload whose sweep is long
            # and whose run is short still gets many samples of both,
            # spread over the whole window
            spent = 0.0
            while spent < sweep_s / 2:
                setups = [bench.setup() for _ in range(SETUP_PER_STEP)]
                record("setup_s", setups)
                run_s = bench.run()
                record("run_s", [run_s])
                analyze_s = bench.analyze()
                record("analyze_s", [analyze_s])
                spent += sum(setups) + run_s + analyze_s
        samples = {
            **{name: scaled[name] for name in ("setup_s", "run_s", "analyze_s")},
            "sweep_points_per_s": [bench.points / s for s in scaled["sweep_s"]],
            **{f"raw_{name}": values for name, values in raw.items()},
            "calibration_s": calibrations,
        }
        values = {name: statistics.median(samples[name]) for name in END_TO_END if name in samples}
        values["trace_bytes"] = (bench.run_dir / "trace.jsonl").stat().st_size
        values["peak_mem_mb"] = peak
        extra["raw_medians"] = {name: statistics.median(v) for name, v in raw.items()}
        extra["calibration_s"] = statistics.median(calibrations)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        plain, traced, layers = [], [], []
        deadline = perf_counter() + (0 if smoke else seconds)
        while len(traced) < min_rounds or perf_counter() < deadline:
            plain.append(bench.round())
            run_s, values, spans = bench.traced_round()
            traced.append(run_s)
            layers.append(values)
        counts = bench.trace_counts()
        for name, unit in PER_LAYER.items():
            if name in counts:
                value = counts[name]
            elif unit == "count":
                seen = {v[name] for v in layers}
                if len(seen) != 1:
                    bench._count("trace", [f"{name} varies between rounds: {sorted(seen)}"])
                value = layers[0][name]
            else:
                value = statistics.median(v[name] for v in layers)
            metrics[name] = {"value": value, "unit": unit}
        samples = {"run_s_untraced": plain, "run_s_traced": traced}
        extra["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        write_spans(work / "spans.jsonl", spans)

    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": [f for b in benches for f in b.failures],
        "metrics": metrics,
        "samples": samples,
        "fingerprints": bench.fingerprints,
        "shape": {
            "transactions": len(doc["transactions"]),
            "bids": len(doc.get("insurance_bids", [])),
            "validators": len(doc.get("validators", [])) or doc["econ"]["n_validators"],
            "sweep_points": bench.points,
            **bench.shape,
        },
        **extra,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def describe(result: dict) -> str:
    lines = [
        f"{result['workload']} (seed {result['seed']}, {'traced' if result['trace'] else 'untraced'}): "
        f"{result['attempted']} calls, {result['failed']} failed, error_rate {result['error_rate']:.4f} ratio"
    ]
    counts = {name: len(v) for name, v in result["samples"].items()}
    for name, m in result["metrics"].items():
        n = ""
        if name in END_TO_END and name in counts:
            n = f"  (median of {counts[name]})"
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{n}")
    if "raw_medians" in result:
        raw = ", ".join(f"{name} {v:.4g} s" for name, v in result["raw_medians"].items())
        lines.append(
            f"  timings above are at the reference host speed; calibration median "
            f"{result['calibration_s']:.4g} s against {REFERENCE_CALIBRATION_S} s; raw medians: {raw}"
        )
    if "tracing_overhead_s" in result:
        lines.append(
            f"  tracing overhead: {result['tracing_overhead_s']:+.4f} s on run_s "
            f"({counts['run_s_traced']} traced vs {counts['run_s_untraced']} untraced runs)"
        )
    shape = ", ".join(f"{k} {v}" for k, v in result["shape"].items())
    lines.append(f"  shape: {shape}")
    lines.extend(f"  FAILED {f}" for f in result["failures"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-module traced pass")
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one round, no warm-up")
    parser.add_argument(
        "--results",
        type=Path,
        default=HERE / "out" / "results.jsonl",
        help="JSON lines file to append to; its directory also holds the generated scenarios and outputs",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = args.results.parent
    results = [measure(name, args.seed, args.seconds, bool(args.trace), args.smoke, out) for name in names]
    with args.results.open("a", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    for result in results:
        print(describe(result))
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": results[0]["metrics"] if len(results) == 1 else {r["workload"]: r["metrics"] for r in results},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
