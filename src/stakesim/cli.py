"""Command line interface.

Verbs:
  run       simulate one scenario, write trace + machine + human reports
  sweep     run a scenario template across a parameter grid, one event
            loop per group of points that differ only on REPORT_ONLY paths;
            every point's report shares the loop part of the leader's, and
            builds only its point part: labels, steal_tvl rung and verdict
  analyze   recompute a trace's report from its raw records and diff them
  validate  parse a scenario and print its diagnostics

Exit codes: 0 ok, 1 bad input, 2 invariant breach during simulation,
3 analyze found a mismatch between a trace and its embedded report.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache, partial
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator

from .chain import PfcKind
from .engine import report_run, run as run_engine, trace_lines
from .errors import InvariantBreachError, ScenarioError, StakesimError
from .rational import frac_str
from .report import BOUND_ALIASES, compare_trace_to_report, parse_trace, render_text
from .resolution import classify_reveal
from .scenario import (
    TIMING,
    StrategyKind,
    canonical_json,
    listing,
    load_scenario,
    parse_scenario,
    read_field,
    read_input,
    read_object,
    scenario_hash,
    scenario_to_doc,
)
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
                _write_trace(out / "trace-partial.jsonl", trace_lines(records))
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


def _set_path(doc: dict, path: str, value: Any, source: str) -> None:
    """Set dotted `path` in `doc`, an object of its own that may share the
    objects below it: each object on the path is copied (or made, where it
    is missing) before it is set, so no shared object is edited."""
    node, where = doc, source
    *parents, leaf = path.split(".")
    for key in parents:
        if not isinstance(node, dict):
            break
        parent, node = node, node.get(key, {})
        if isinstance(node, dict):
            node = parent[key] = dict(node)
        where = f"{where}.{key}"
    if not isinstance(node, dict):
        raise ScenarioError(f"cannot set {path!r} inside a non-object", path=where)
    node[leaf] = value


# the dotted paths only the report reads (the steal_tvl rung, the verdict and
# the report's labels): grid points that differ only there share one event loop
REPORT_ONLY = ("econ.tvl", "seed")


def _sweep_group(
    template: dict, keys: list[str], seed: int | None, bound_kind: PfcKind, out: Path, group: list[tuple[int, tuple]]
) -> list[dict]:
    """Run each grid point (n, combo) of `group`, the template with each
    dotted path in `keys` set to its value in `combo`; write its report to
    `out` and return its sweep.json row, so a pool worker sends the parent
    rows and never a report.

    The points of a group differ only on `REPORT_ONLY` paths. Each is set
    and parsed on its own; the first to run leads, and each later one builds
    only its report, from the leader's event loop: it shares the loop part
    of the leader's report, every section the loop settles, with its
    encodings, and builds only its point part, its labels, `steal_tvl`
    rung and verdict (`engine.report_run`). That grouping is what keeps
    `report_run`'s contract.
    A domain error (StakesimError) becomes the point's `error`, with no
    report, and any other exception is a bug and propagates. A point's
    document shares the template's objects but for its top-level object
    and each object on an overridden path, which are copied, so the
    template is never edited. Only reports are written, so no trace record
    builds a payload.
    """
    rows, loop = [], None
    for n, combo in group:
        overrides = dict(zip(keys, combo))
        row = {"point": n, "overrides": overrides, "ok": True, "error": None}
        rows.append(row)
        doc = dict(template)
        source = f"<sweep point {n}>"
        try:
            for path, value in overrides.items():
                _set_path(doc, path, value, source)
            scenario = parse_scenario(doc, source=source)
            if loop is None:
                loop = run_engine(scenario, seed=seed, bound_kind=bound_kind)
                report = loop.report
            else:
                report = report_run(loop, scenario, seed, bound_kind)
        except StakesimError as exc:  # record, keep sweeping
            row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            continue
        name = f"report-{n:04d}.json"
        (out / name).write_text(report.to_json() + "\n", encoding="utf-8")
        v = report.doc["verdict"]
        row.update(report=name, cryptoeconomically_safe=v["cryptoeconomically_safe"], strong_safety=v["strong_safety"])
    return rows


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
    doc = read_object(read_input(args.scenario, "scenario"), args.scenario)
    grid = _grid_from_args(args)
    # sweep order: keys as given, values in listed order, rightmost fastest;
    # a group holds the points whose values agree but on REPORT_ONLY paths,
    # each value named by its place on its axis
    axes = [range(len(values)) if key not in REPORT_ONLY else [None] * len(values) for key, values in grid.items()]
    groups: dict[tuple, list] = {}
    for n, (combo, at) in enumerate(zip(itertools.product(*grid.values()), itertools.product(*axes))):
        groups.setdefault(at, []).append((n, combo))
    workers = min(len(groups), _usable_cpus())
    with _output_dir(args.out) as out:
        group_rows = partial(_sweep_group, doc, list(grid), args.seed, BOUND_ALIASES[args.bound], out)
        if workers <= 1:
            done = map(group_rows, groups.values())
        else:
            # fork, not spawn: a spawned worker imports stakesim afresh
            # (about 0.1 s on a 2-vCPU VM), as long as a small grid's points
            # take. A killed worker raises BrokenProcessPool.
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                done = list(pool.map(group_rows, groups.values()))
        index = sorted(itertools.chain.from_iterable(done), key=itemgetter("point"))
        (out / "sweep.json").write_text(canonical_json({"points": index}) + "\n", encoding="utf-8")
    ok = sum(1 for r in index if r["ok"])
    sys.stdout.write(f"swept {len(index)} points ({ok} ok, {len(index) - ok} failed) -> {out}\n")
    for row in index:
        if not row["ok"]:
            sys.stdout.write(f"  point {row['point']} {row['overrides']}: {row['error']}\n")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    lines = read_input(str(path), "trace", str.splitlines)
    records = parse_trace(lines, source=str(path))
    mismatch = compare_trace_to_report(records, source=str(path), line=lines[-1])
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
        "  timing: " + " ".join(f"{key}={value}" for key, value in TIMING.write(tp).items()),
        f"  econ: {ep.n_validators} validators x stake {frac_str(ep.stake_per_validator)}"
        f" (total {frac_str(ep.s_tot)}), gamma {frac_str(ep.gamma)}, tvl {frac_str(ep.tvl)}",
        f"  {len(tl.transactions)} transactions, {len(tl.fork_events)} fork events,"
        f" {len(scenario.bids)} insurance bids",
    ]
    policies = scenario_to_doc(scenario)["policies"]
    default = policies.pop("*")
    if policies:
        named = ", ".join(f"{tr}={name}" for tr, name in policies.items())
        lines.append(f"  policies: {named} (default {default})")
    else:
        lines.append(f"  policies: default {default}")
    for ev in tl.fork_events:
        cls = classify_reveal(ev, tp)
        lines.append(
            f"  fork {ev.id}: diverges@{ev.diverges_from_block_finalized_at}"
            f" revealed@{ev.revealed_at} -> {cls.value}"
            f" ({len(ev.double_signers)} signers, stake {frac_str(ev.double_signer_stake)})"
        )
    strategy = scenario.adversary.strategy
    if strategy.kind is not StrategyKind.NONE:
        lines.append(f"  adversary strategy: {strategy.kind.value}")
    lines.append("ok")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
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

    p_an = sub.add_parser("analyze", help="verify a trace's embedded report by recomputation")
    p_an.add_argument("--trace", required=True, help="trace.jsonl produced by run")

    p_val = sub.add_parser("validate", help="parse a scenario and print diagnostics")
    p_val.add_argument("--scenario", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # each verb's command as the module holds it now, so a wrapper set on
    # `cmd_run` (say) after the parser was built is still the one called
    commands = {"run": cmd_run, "sweep": cmd_sweep, "analyze": cmd_analyze, "validate": cmd_validate}
    try:
        return commands[args.verb](args)
    except InvariantBreachError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except StakesimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
