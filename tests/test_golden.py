"""Golden corpus: the sha256 of every file the CLI writes for a fixed set of
scenarios, so that output is pinned across code versions.

A hash may change only when output changes on purpose, and each such change
is recorded in CHANGES.md. Beside it, `golden/fingerprints.json` pins a
differential corpus of generated runs: each seed of
`conftest.attack_scenario_doc` at each gamma of `FINGERPRINT_GAMMAS`, and
each of `BENCH_SEEDS` of every benchmark workload (`perfbench/workloads.py`,
full size). For each run it holds the sha256 of the generated document, one
sha256 over the run's trace, report.json and report.txt, and what `analyze`
says of the trace. After an output change, rewrite both files with

    PYTHONPATH=src python3 tests/test_golden.py

and review their diff before committing them; the script prints every
key of either file whose value moved, and the fingerprint test names every
run that moved, so the diff's size is the change's blast radius.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from stakesim import PfcKind, cli, parse_scenario
from stakesim.chain import MAX_HORIZON
from stakesim.cli import main
from stakesim.engine import _Run, report_run, run, trace_lines
from stakesim.errors import InvariantBreachError
from stakesim.report import BOUND_ALIASES, compare_trace_to_report, parse_trace, render_text
from stakesim.scenario import (
    DECISION,
    FORK_EVENT,
    LOT,
    NAIVE_DECISION,
    SETTLEMENT,
    SHARES,
    TX_FINALIZED,
)

from conftest import attack_scenario_doc, breach_scenario_doc, count_epoch_visits, quiet_scenario_doc
from oracles import run_every_epoch
from perfbench import workloads

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
HASHES = GOLDEN / "hashes.json"
FINGERPRINTS = GOLDEN / "fingerprints.json"
DEMO = ROOT / "scenarios" / "double-sign.json"

RUN_FILES = ("trace.jsonl", "report.json", "report.txt")

# case -> (scenario document, exit code of `run`, files `run` leaves behind)
CASES = {
    "shipped/double-sign": (lambda: json.loads(DEMO.read_text(encoding="utf-8")), 0, RUN_FILES),
    "shipped/grieving": (
        lambda: json.loads((ROOT / "scenarios" / "grieving.json").read_text(encoding="utf-8")),
        0,
        RUN_FILES,
    ),
    "quiet": (quiet_scenario_doc, 0, RUN_FILES),
    "attack": (lambda: attack_scenario_doc(random.Random(99), "1/2"), 0, RUN_FILES),
    "breach": (breach_scenario_doc, 2, ("trace-partial.jsonl",)),
}
for _path in sorted((GOLDEN / "scenarios").glob("*.json")):
    CASES[_path.stem] = ((lambda p=_path: json.loads(p.read_text(encoding="utf-8"))), 0, RUN_FILES)

# one failing point (gamma 3/2) between two good ones
SWEEP_AXIS = "econ.gamma=1/2,3/2,1"
# a three-axis grid (econ.gamma x timing.t_rev x econ.tvl, 24 points) over
# the `sweep_grid` benchmark template, so nested and sibling overrides of
# one template are pinned byte for byte
GRID_SWEEP = "sweep_grid"


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def run_case(name: str, work: Path) -> dict[str, str]:
    """Run one case through the CLI and hash what it wrote."""
    make_doc, code, files = CASES[name]
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(make_doc()), encoding="utf-8")
    out = work / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == code
    digests = _digests(out)
    assert sorted(digests) == sorted(files)
    if code == 0:
        assert main(["analyze", "--trace", str(out / "trace.jsonl")]) == 0
    return digests


def run_sweep(work: Path) -> dict[str, str]:
    out = work / "sweep"
    assert main(["sweep", "--scenario", str(DEMO), "--set", SWEEP_AXIS, "--out", str(out)]) == 0
    digests = _digests(out)
    assert sorted(digests) == ["report-0000.json", "report-0002.json", "sweep.json"]
    return digests


def run_grid_sweep(work: Path) -> dict[str, str]:
    doc, grid = workloads.generate(GRID_SWEEP, 1)
    scenario, grid_file, out = work / "grid-scenario.json", work / "grid.json", work / "grid-sweep"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    grid_file.write_text(json.dumps(grid), encoding="utf-8")
    assert main(["sweep", "--scenario", str(scenario), "--grid", str(grid_file), "--out", str(out)]) == 0
    digests = _digests(out)
    assert sorted(digests) == [f"report-{n:04d}.json" for n in range(24)] + ["sweep.json"]
    return digests


def current_hashes(work: Path) -> dict[str, dict[str, str]]:
    hashes = {}
    for name in CASES:
        (work / name).mkdir(parents=True)
        hashes[name] = run_case(name, work / name)
    hashes["sweep"] = run_sweep(work)
    hashes["sweep-grid"] = run_grid_sweep(work)
    return hashes


FINGERPRINT_GAMMAS = ("0", "1/2", "1")
FINGERPRINT_SEEDS = range(200)
BENCH_SEEDS = range(1, 4)


def fingerprint_sets() -> dict[str, tuple[str, range, Callable[[int], dict]]]:
    """Each set of generated runs by its key in the fingerprint file: how a
    moved run is named, its seeds, and its document for a seed."""
    sets = {
        gamma: (f"gamma {gamma}", FINGERPRINT_SEEDS, lambda seed, g=gamma: attack_scenario_doc(random.Random(seed), g))
        for gamma in FINGERPRINT_GAMMAS
    }
    for name in workloads.WORKLOADS:
        sets[name] = (f"workload {name}", BENCH_SEEDS, lambda seed, n=name: workloads.generate(n, seed)[0])
    return sets


def fingerprint(doc: dict) -> list:
    """[document sha256, output sha256, analyze result] of one run of `doc`,
    computed in process as `run` and `analyze` would write them."""
    trace = run(parse_scenario(doc))
    lines = trace.to_lines()
    files = ("\n".join(lines) + "\n", trace.report.to_json() + "\n", render_text(trace.report.doc))
    output = hashlib.sha256(b"".join(hashlib.sha256(f.encode("utf-8")).digest() for f in files))
    mismatch = compare_trace_to_report(parse_trace(lines, source="generated"), source="generated")
    document = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return [document.hexdigest(), output.hexdigest(), mismatch]


def current_fingerprints() -> dict[str, list[list]]:
    return {key: [fingerprint(make(seed)) for seed in seeds] for key, (_, seeds, make) in fingerprint_sets().items()}


def fingerprints_json(fingerprints: dict[str, list[list]]) -> str:
    """The fingerprints as JSON with one run per line, so that a diff of the
    file reads run by run."""
    blocks = [
        f"  {json.dumps(gamma)}: [\n" + ",\n".join(f"    {json.dumps(fp)}" for fp in runs) + "\n  ]"
        for gamma, runs in fingerprints.items()
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(HASHES.read_text(encoding="utf-8"))


def test_corpus_lists_every_case(golden):
    assert sorted(golden) == sorted([*CASES, "sweep", "sweep-grid"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_output_matches_golden(name, golden, tmp_path, capsys):
    assert run_case(name, tmp_path) == golden[name]
    capsys.readouterr()


def test_sweep_output_matches_golden(golden, tmp_path, capsys):
    assert run_sweep(tmp_path) == golden["sweep"]
    capsys.readouterr()


def test_grid_sweep_output_matches_golden(golden, tmp_path, capsys):
    assert run_grid_sweep(tmp_path) == golden["sweep-grid"]
    capsys.readouterr()


def test_generated_runs_match_their_fingerprints():
    pinned = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    sets = fingerprint_sets()
    assert sorted(pinned) == sorted(sets)
    moved = []
    for key, runs in current_fingerprints().items():
        label, seeds, _ = sets[key]
        assert len(pinned[key]) == len(runs)
        for seed, now, then in zip(seeds, runs, pinned[key]):
            parts = [part for part, a, b in zip(("document", "output", "analyze"), now, then) if a != b]
            if parts:
                moved.append(f"{label} seed {seed}: {', '.join(parts)}")
    assert moved == []


def test_every_settling_case_slashes_what_its_settlements_record():
    settled = []
    for name, (make_doc, code, _) in sorted(CASES.items()):
        if code != 0:
            continue
        ledger = run(parse_scenario(make_doc())).ledger
        if ledger.settlements:
            settled.append(name)
            booked = sum(ledger.slashed_amounts.values())
            assert booked == sum(s.slashed for s in ledger.settlements), name
    assert "release-backlog" in settled


def _lines_or_partial(make_run) -> list[str]:
    """The trace lines of a run, or of the partial trace its breach carries."""
    try:
        return make_run().to_lines()
    except InvariantBreachError as exc:
        return ["<breach>"] + trace_lines(exc.trace_records)


def _records_or_partial(make_run) -> list:
    """The trace records of a run, or of the partial trace its breach carries."""
    try:
        return make_run().records
    except InvariantBreachError as exc:
        return exc.trace_records


# every run case, and each benchmark workload's smoke document
CORPUS = [*sorted(CASES), *(f"smoke/{w}" for w in workloads.WORKLOADS)]


def corpus_doc(name: str) -> tuple[dict, bool]:
    """The document of a `CORPUS` entry, and whether its run breaks an invariant."""
    if name in CASES:
        return CASES[name][0](), CASES[name][1] == 2
    return workloads.generate(name.removeprefix("smoke/"), 1, smoke=True)[0], False


@pytest.mark.parametrize("name", CORPUS)
def test_skipping_quiet_epochs_keeps_every_trace_byte(name):
    # the engine visits only the epochs where it can act; the reference
    # visits every epoch, and both must write the same lines
    doc, breach = corpus_doc(name)
    sc = parse_scenario(doc)
    lines = _lines_or_partial(lambda: run(sc))
    assert lines == _lines_or_partial(lambda: run_every_epoch(sc))
    assert (lines[0] == "<breach>") == breach


# a value of each report-only path that no corpus document gives it
REPORT_ONLY_VALUES = {"econ.tvl": 10**9 + 7, "seed": 12345}


def loop_lines(sc) -> list[str]:
    """The lines a run's event loop writes: its trace, or the partial trace
    its breach carries, less the run_start and report records."""
    lines = _lines_or_partial(lambda: run(sc))
    return [line for line in lines if line == "<breach>" or json.loads(line)["kind"] not in ("run_start", "report")]


@pytest.mark.parametrize("name", CORPUS)
def test_the_event_loop_reads_no_report_only_key(name):
    # a sweep builds each point's report from the event loop of the point
    # that leads its group, which may differ from it on these paths, so a
    # change to one must move no line but the run's labels, and the report
    # built from the other run's loop must be the changed run's own
    assert REPORT_ONLY_VALUES.keys() == set(cli.REPORT_ONLY)
    doc, breach = corpus_doc(name)
    sc = parse_scenario(doc)
    lines = loop_lines(sc)
    for path, value in REPORT_ONLY_VALUES.items():
        changed = dict(doc)
        cli._set_path(changed, path, value, name)
        other = parse_scenario(changed)
        assert loop_lines(other) == lines, (name, path)
        if breach:
            continue
        for kind in BOUND_ALIASES.values():
            fresh = run(other, bound_kind=kind).report.to_json()
            assert report_run(run(sc, bound_kind=kind), other, None, kind).to_json() == fresh, (name, path, kind)


# paths the loop part of a report reads beside the event loop, with a value
# the demo does not give them
LOOP_PART_VALUES = {"econ.gamma": 1, "econ.stake_per_validator": 64, "timing.t_rev": 12}


@pytest.mark.parametrize("path", LOOP_PART_VALUES)
def test_a_report_under_other_timing_or_economics_builds_its_own_loop_part(path):
    # `report_run` shares the trace's loop part only with a scenario that
    # differs from the loop's on REPORT_ONLY paths; one that breaks that
    # contract must get the report a trace with no shared part gives
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    changed = dict(doc)
    cli._set_path(changed, path, LOOP_PART_VALUES[path], path)
    other = parse_scenario(changed)
    trace = run(parse_scenario(doc))
    bare = dataclasses.replace(trace)  # the same loop, with no report yet
    own = report_run(bare, other)
    assert report_run(trace, other).to_json() == own.to_json()
    assert own.loop is not trace.report.loop
    # the change reaches the report beyond its scenario_hash label
    assert dict(own.doc, scenario_hash=None) != dict(trace.report.doc, scenario_hash=None)


# the epochs a run visits per record it writes, at most: epoch 0 and the
# attack-over epoch, and per auction record its own epoch, the two it
# schedules and the next one a grieving buyer bids in
VISITS_PER_RECORD = 4


@pytest.mark.parametrize("name", CORPUS)
def test_the_longest_horizon_costs_epochs_in_proportion_to_the_records(name, monkeypatch):
    # cost follows events, not the horizon: at MAX_HORIZON (about 4e8
    # epochs of the corpus's t_rev) a run visits a few epochs per record,
    # and what it writes below its own horizon does not change
    doc, _ = corpus_doc(name)

    def lines_below(horizon: int) -> tuple[int, list[str]]:
        records = _records_or_partial(lambda: run(parse_scenario(dict(doc, horizon=horizon))))
        kept = [r.line() for r in records if r.kind != "run_start" and r.tick < doc["horizon"]]
        return len(records), kept

    _, lines = lines_below(doc["horizon"])
    visited = count_epoch_visits(monkeypatch, limit=VISITS_PER_RECORD * 10_000)
    longest, longest_lines = lines_below(MAX_HORIZON)
    assert len(visited) <= VISITS_PER_RECORD * (longest + 1), name
    assert longest_lines == lines, name


@functools.cache
def golden_records() -> tuple[dict, ...]:
    """Every trace record the run cases write, partial traces included."""
    records = []
    for make_doc, _, _ in CASES.values():
        sc = parse_scenario(make_doc())
        records += [json.loads(line) for line in _lines_or_partial(lambda: run(sc)) if line != "<breach>"]
    return tuple(records)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_epochs_start_directly_precedes_its_first_record(name):
    # partial traces too; run_start, bribery_probe, karma and report
    # belong to no epoch, and no epoch past the horizon's has a start
    sc = parse_scenario(CASES[name][0]())
    t_rev, last = sc.timing.t_rev, sc.timeline.horizon // sc.timing.t_rev
    records = [json.loads(line) for line in _lines_or_partial(lambda: run(sc)) if line != "<breach>"]
    starts, firsts = [], {}
    for i, r in enumerate(records):
        if r["kind"] == "epoch_start":
            assert r["tick"] == r["epoch"] * t_rev and r["epoch"] <= last, name
            starts.append((r["epoch"], i + 1))
        elif r["kind"] not in ("run_start", "bribery_probe", "karma", "report"):
            firsts.setdefault(r["tick"] // t_rev, i)
    assert starts == sorted((e, i) for e, i in firsts.items() if e <= last), name


def test_an_auction_writes_the_shares_of_a_new_map_that_backs_the_lots_it_sold():
    # a lot's backing is its coverage times each share of the map last
    # written, and only the first sale under a map writes it
    sold, maps = 0, 0
    for name, (make_doc, code, _) in sorted(CASES.items()):
        if code != 0:
            continue
        trace = run(parse_scenario(make_doc()))
        backing = {lot.id: lot.backing for lot in trace.ledger.lots}
        backers = {lot.id: lot.backers for lot in trace.ledger.lots}
        shares, last = None, None
        for r in trace.records:
            if r.kind != "auction":
                continue
            payload = json.loads(r.line())
            lots = payload["lots"]
            new_map = bool(lots) and backers[lots[0]["id"]] is not last
            assert ("shares" in payload) == new_map, name
            if new_map:
                shares, last = payload["shares"], backers[lots[0]["id"]]
                maps += 1
            for lot in lots:
                coverage = Fraction(lot["coverage"])
                assert {v: coverage * Fraction(s) for v, s in shares.items()} == backing[lot["id"]], name
                sold += 1
    assert sold > maps > 1


def test_a_longer_quiet_horizon_writes_no_more_lines_or_rows():
    # output grows with a run's events, not with its horizon: the quiet
    # horizon workload at 16 times its horizon
    doc = workloads.generate("quiet_horizon", 1, smoke=True)[0]
    longer = dict(doc, horizon=16 * doc["horizon"])
    short, long = run(parse_scenario(doc)), run(parse_scenario(longer))
    assert len(long.to_lines()) == len(short.to_lines())
    assert len(long.report.doc["per_epoch"]) == len(short.report.doc["per_epoch"])


def engine_record_kinds() -> set[str]:
    """The kind of every record `engine.py` writes: the string literal each
    `self.rec(...)` and each `...Record(...)` call passes."""
    tree = ast.parse((ROOT / "src" / "stakesim" / "engine.py").read_text(encoding="utf-8"))
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "rec" or name.endswith("Record"):
                kinds |= {a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return kinds


def test_the_corpus_writes_every_record_kind():
    # the README gate on trace keys checks only the kinds some case writes
    kinds = engine_record_kinds()
    assert {"run_start", "epoch_start", "report"} <= kinds
    assert sorted(kinds - {r["kind"] for r in golden_records()}) == []


def readme_trace_entries() -> dict[str, str]:
    """README's "Trace records" bullets: one top-level bullet per kind,
    opening with the kind's name, keyed by that name."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Trace records\n")[1].split("\n## ")[0]
    return {bullet.split("`")[1]: bullet for bullet in section.split("\n- ")[1:]}


def test_readme_documents_exactly_the_record_kinds_the_engine_writes():
    # a kind the engine stops writing cannot stay documented
    assert sorted(readme_trace_entries()) == sorted(engine_record_kinds())


def test_readme_documents_every_key_of_every_trace_record():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Trace records\n")[1].split("\n## ")[0]
    entries = readme_trace_entries()
    pairs = {(r["kind"], key) for r in golden_records() for key in r if key not in ("tick", "kind")}
    assert "`tick`" in section and "`kind`" in section
    assert sorted(f"{kind}.{key}" for kind, key in pairs if f"`{key}`" not in entries.get(kind, "")) == []


def test_each_table_writes_back_what_it_reads_on_the_golden_corpus():
    seen = dict.fromkeys(("tx_finalized", "settlement", "auction", "fork_reveal"), 0)
    for record in golden_records():
        kind = record["kind"]
        # (table, payload, the keys its record adds beside the table's)
        if kind == "tx_finalized":
            payloads = [(TX_FINALIZED, record, {"tick", "kind", "rule_requested"})]
        elif kind == "settlement":
            payloads = [(SETTLEMENT, record, {"tick", "kind"})]
        elif kind == "auction":
            payloads = [(LOT, lot, set()) for lot in record["lots"]]
            if "shares" in record:
                payloads.append((SHARES, record, {"tick", "kind", "epoch", "available", "lots"}))
        elif kind == "fork_reveal":
            payloads = [(FORK_EVENT, record, {"tick", "kind"})]
        else:
            continue
        for table, doc, added in payloads:
            fields = table.read(doc, kind, table.keys | added)
            assert table.write(SimpleNamespace(**fields)) == {k: v for k, v in doc.items() if k not in added}
            seen[kind] += 1
    assert all(seen.values()), seen


# -- a record's payload is built only when its line is ------------------------


class _LinesAtAppend(list):
    """A record list that takes each record's lines when it is appended."""

    def __init__(self):
        super().__init__()
        self.lines: list[str] = []

    def append(self, record) -> None:
        self.lines.append(record.line())
        super().append(record)


class _LineAtAppendRun(_Run):
    def __init__(self, *args):
        super().__init__(*args)
        self.records = _LinesAtAppend()


def _lines_at_append_and_at_end(sc) -> tuple[list[str], list[str]]:
    """Each record's line as the engine appended it, and as the finished
    trace (or a breach's partial trace) writes it."""
    engine_run = _LineAtAppendRun(sc, sc.seed, PfcKind.REORG_HYBRID_SECURE_RULE)
    try:
        records = engine_run.run().records
    except InvariantBreachError as exc:
        records = exc.trace_records
    return engine_run.records.lines, trace_lines(records)


def corpus_docs():
    """(name, document) of each run case, then of each generated attack
    document the fingerprints pin."""
    for name, (make_doc, _, _) in CASES.items():
        yield name, make_doc()
    for gamma in FINGERPRINT_GAMMAS:
        for seed in FINGERPRINT_SEEDS:
            yield f"gamma {gamma} seed {seed}", attack_scenario_doc(random.Random(seed), gamma)


def test_a_records_line_is_the_one_it_had_when_appended():
    # a record keeps what its table writes, so none of it may change
    # after the record is made
    moved = []
    for name, doc in corpus_docs():
        at_append, at_end = _lines_at_append_and_at_end(parse_scenario(doc))
        assert len(at_append) == len(at_end), name
        if at_append != at_end:
            moved.append(name)
    assert moved == []


# the tables a trace record's payload is built through, by name, and how
# many objects each writes into one record's line
_RECORD_TABLES = {
    "LOT": (LOT, lambda r: len(r["lots"]) if r["kind"] == "auction" else 0),
    "SHARES": (SHARES, lambda r: "shares" in r),
    "TX_FINALIZED": (TX_FINALIZED, lambda r: r["kind"] == "tx_finalized"),
    "DECISION": (DECISION, lambda r: r["kind"] == "decision"),
    "NAIVE_DECISION": (NAIVE_DECISION, lambda r: r["kind"] == "decision" and "naive_status" in r),
    "FORK_EVENT": (FORK_EVENT, lambda r: r["kind"] == "fork_reveal"),
}


@pytest.fixture
def table_writes(monkeypatch) -> dict[str, int]:
    """{table name: calls of its `write`} from here on."""
    calls = dict.fromkeys(_RECORD_TABLES, 0)
    for name, (table, _) in _RECORD_TABLES.items():

        def counted(obj, name=name, write=table.write):
            calls[name] += 1
            return write(obj)

        monkeypatch.setattr(table, "write", counted)
    return calls


def test_a_trace_builds_each_payload_once_and_a_sweep_point_none(table_writes, tmp_path):
    seen = dict.fromkeys(_RECORD_TABLES, 0)
    for case, (make_doc, _, _) in CASES.items():
        doc = make_doc()
        lines = _lines_or_partial(lambda: run(parse_scenario(doc)))
        records = [json.loads(line) for line in lines if line != "<breach>"]
        written = {name: sum(map(count, records)) for name, (_, count) in _RECORD_TABLES.items()}
        assert table_writes == written, case
        for name in seen:
            seen[name] += written[name]
            table_writes[name] = 0
        # a sweep point writes only its report, so it builds no payload
        (row,) = cli._sweep_group(doc, ["seed"], None, PfcKind.REORG_HYBRID_SECURE_RULE, tmp_path, [(0, (3,))])
        assert row["ok"] is (case != "breach"), case
        assert table_writes == dict.fromkeys(_RECORD_TABLES, 0), case
    assert all(seen.values()), seen


def test_parsing_leaves_every_document_as_it_was():
    # a sweep point shares its template's objects with the document it parses
    docs = [*corpus_docs(), *((f"workload {name}", workloads.generate(name, 1)[0]) for name in workloads.WORKLOADS)]
    for name, doc in docs:
        snapshot = copy.deepcopy(doc)
        parse_scenario(doc)
        assert doc == snapshot, name


def moved_keys(then: dict, now: dict) -> list[str]:
    """Each key of `then` or `now` whose value differs, in sorted order."""
    return [key for key in sorted(then.keys() | now.keys()) if then.get(key) != now.get(key)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = current_hashes(Path(tmp))
    fingerprints = current_fingerprints()
    for path, now in ((HASHES, hashes), (FINGERPRINTS, fingerprints)):
        then = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        moved = moved_keys(then, now)
        sys.stdout.write(f"{path.name}: {len(moved)} of {len(now)} keys moved: {', '.join(moved) or '-'}\n")
    HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    FINGERPRINTS.write_text(fingerprints_json(fingerprints), encoding="utf-8")
    sys.stderr.write(f"wrote {HASHES} and {FINGERPRINTS}\n")
