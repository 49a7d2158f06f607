"""Command line interface.

Verbs:
  run       simulate one scenario, write trace + machine + human reports
  sweep     run a scenario template across a parameter grid
  analyze   recompute a trace's report from its raw records and diff them
  validate  parse a scenario and print its diagnostics

Exit codes: 0 ok, 1 bad input, 2 invariant breach during simulation,
3 analyze found a mismatch between a trace and its embedded report.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Iterator

from .econ import PfcKind
from .engine import run as run_engine
from .engine import sweep_jobs, sweep_point
from .errors import InvariantBreachError, ScenarioError, StakesimError
from .rational import frac_str
from .report import BOUND_ALIASES, compare_trace_to_report, parse_trace, render_text
from .resolution import classify_reveal
from .scenario import canonical_json, listing, load_scenario, read_field, read_input, scenario_hash, timing_to_doc
from .version import SCHEMA_VERSION, __version__


def _write_trace(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _output_dir(path: str) -> Iterator[Path]:
    """`path` as a directory; an OSError making or writing it cites it."""
    try:
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        raise ScenarioError(f"cannot write output: {exc}", path=path) from None


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    with _output_dir(args.out) as out:
        try:
            trace = run_engine(scenario, seed=args.seed, bound_kind=BOUND_ALIASES[args.bound])
        except InvariantBreachError as exc:
            records = getattr(exc, "trace_records", None)
            if records is not None:
                _write_trace(out / "trace-partial.jsonl", [r.to_line() for r in records])
            raise
        _write_trace(out / "trace.jsonl", trace.to_lines())
        (out / "report.json").write_text(trace.report.to_json() + "\n", encoding="utf-8")
        text = render_text(trace.report.doc)
        (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _grid_axis(values: Any) -> list:
    if not listing(values):
        raise ValueError("expected a non-empty list")
    return values


def _grid_from_args(args: argparse.Namespace) -> dict[str, list]:
    grid: dict[str, list] = {}
    if args.grid:
        doc = read_input(args.grid, "grid")
        if not isinstance(doc, dict):
            raise ScenarioError("expected an object", path=args.grid)
        for key in doc:
            grid[key] = read_field(doc, key, args.grid, _grid_axis)
    for setting in args.set or []:
        if "=" not in setting:
            raise ScenarioError(f"--set needs path=v1,v2,... (got {setting!r})", path="--set")
        key, _, raw = setting.partition("=")
        values: list = []
        for chunk in raw.split(","):
            try:
                values.append(int(chunk))
            except ValueError:
                values.append(chunk)
        grid[key] = values
    if not grid:
        raise ScenarioError("sweep needs --grid or at least one --set", path="--grid")
    return grid


def _index_row(point: dict, out: Path) -> dict:
    """A finished sweep point as its sweep.json row, with its report
    written to `out` and dropped from the point."""
    report = point.pop("report")
    if report is not None:
        name = f"report-{point['point']:04d}.json"
        (out / name).write_text(report.to_json() + "\n", encoding="utf-8")
        v = report.doc["verdict"]
        point.update(
            report=name,
            cryptoeconomically_safe=v["cryptoeconomically_safe"],
            strong_safety=v["strong_safety"],
        )
    return point


def _sweep_row(
    template: dict, keys: list[str], seed: int | None, bound_kind: PfcKind, out: Path, job: tuple[int, tuple]
) -> dict:
    """Run one sweep point and write its report; return only its index
    row, so a pool worker sends the parent a row and never a report."""
    return _index_row(sweep_point(template, keys, seed, bound_kind, job), out)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork workers
    safely: fork is unavailable, or another thread runs (a forked child
    could inherit a lock that thread holds)."""
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = read_input(args.scenario, "scenario")
    grid = _grid_from_args(args)
    jobs = list(sweep_jobs(grid))
    workers = min(len(jobs), _usable_cpus())
    with _output_dir(args.out) as out:
        point_row = partial(_sweep_row, doc, list(grid), args.seed, BOUND_ALIASES[args.bound], out)
        if workers <= 1:
            index = list(map(point_row, jobs))
        else:
            # fork, not spawn: a spawned worker imports stakesim afresh
            # (about 0.1 s on a 2-vCPU VM), as long as a small grid's points
            # take. map keeps point order; a killed worker raises
            # BrokenProcessPool.
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                index = list(pool.map(point_row, jobs))
        (out / "sweep.json").write_text(canonical_json({"points": index}) + "\n", encoding="utf-8")
    ok = sum(1 for r in index if r["ok"])
    sys.stdout.write(f"swept {len(index)} points ({ok} ok, {len(index) - ok} failed) -> {out}\n")
    for row in index:
        if not row["ok"]:
            sys.stdout.write(f"  point {row['point']} {row['overrides']}: {row['error']}\n")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    records = parse_trace(read_input(str(path), "trace", str.splitlines), source=str(path))
    mismatch = compare_trace_to_report(records, source=str(path))
    if mismatch is None:
        sys.stdout.write(f"{path}: report verified against trace\n")
        return 0
    sys.stdout.write(f"{path}: MISMATCH at {mismatch}\n")
    return 3


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    tl, tp, ep = scenario.timeline, scenario.timing, scenario.econ
    lines = [
        f"scenario {scenario_hash(scenario)[:16]} (schema {SCHEMA_VERSION}, tool {__version__})",
        f"  horizon {tl.horizon}, seed {scenario.seed}",
        "  timing: " + " ".join(f"{key}={value}" for key, value in timing_to_doc(tp).items()),
        f"  econ: {ep.n_validators} validators x stake {frac_str(ep.stake_per_validator)}"
        f" (total {frac_str(ep.s_tot)}), gamma {frac_str(ep.gamma)}, tvl {frac_str(ep.tvl)}",
        f"  {len(tl.transactions)} transactions, {len(tl.fork_events)} fork events,"
        f" {len(scenario.bids)} insurance bids",
    ]
    if scenario.policies:
        policies = ", ".join(f"{tr}={p.value}" for tr, p in sorted(scenario.policies.items()))
        lines.append(f"  policies: {policies} (default {scenario.default_policy.value})")
    else:
        lines.append(f"  policies: default {scenario.default_policy.value}")
    for ev in tl.fork_events:
        cls = classify_reveal(ev, tp)
        lines.append(
            f"  fork {ev.id}: diverges@{ev.diverges_from_block_finalized_at}"
            f" revealed@{ev.revealed_at} -> {cls.value}"
            f" ({len(ev.double_signers)} signers, stake {frac_str(ev.double_signer_stake)})"
        )
    if scenario.strategy.kind.value != "none":
        lines.append(f"  adversary strategy: {scenario.strategy.kind.value}")
    lines.append("ok")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stakesim",
        description="Simulate hybrid-transaction safety under slashing, insurance and reorg attacks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument(
        "--bound",
        choices=sorted(BOUND_ALIASES),
        default="secure",
        help="profit bound the verdict is judged against (default: secure)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across a parameter grid")
    p_sweep.add_argument("--scenario", required=True, help="scenario template JSON file")
    p_sweep.add_argument("--grid", help="JSON file mapping dotted paths to value lists")
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="PATH=V1,V2,...",
        help="inline grid axis, repeatable (e.g. --set econ.gamma=0,1/2,1)",
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default="sweep-out", help="output directory")
    p_sweep.add_argument("--bound", choices=sorted(BOUND_ALIASES), default="secure")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_an = sub.add_parser("analyze", help="verify a trace's embedded report by recomputation")
    p_an.add_argument("--trace", required=True, help="trace.jsonl produced by run")
    p_an.set_defaults(fn=cmd_analyze)

    p_val = sub.add_parser("validate", help="parse a scenario and print diagnostics")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantBreachError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except StakesimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
