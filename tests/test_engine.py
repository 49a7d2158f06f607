"""End-to-end simulation runs: scripted attacks, fallbacks, and the trace."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from stakesim import (
    Adversary,
    ConfirmationRule,
    EconParams,
    InsuranceLedger,
    LotState,
    Scenario,
    as_fraction,
    load_scenario,
    parse_scenario,
)
from stakesim import cli, engine
from stakesim.chain import PfcKind
from stakesim.engine import run
from stakesim.errors import InvariantBreachError
from stakesim.report import compare_trace_to_report, parse_trace
from stakesim.scenario import canonical_json, scenario_hash

from conftest import (
    attack_scenario_doc,
    breach_scenario_doc,
    count_epoch_visits,
    quiet_scenario_doc,
    random_physical_timeline,
)
from oracles import run_every_epoch

ROOT = Path(__file__).parent.parent


def records_of(trace, kind):
    return [r for r in trace.records if r.kind == kind]


def epoch_starts(trace):
    """(tick, epoch) of every `epoch_start` record of a trace, in order."""
    return [(r.tick, r.payload["epoch"]) for r in records_of(trace, "epoch_start")]


def by_party(doc):
    return {p["party"]: p for p in doc["karma"]["parties"]}


# -- quiet run ----------------------------------------------------------------


def test_quiet_run_confirms_everything_and_pays_nobody():
    trace = run(parse_scenario(quiet_scenario_doc()))
    doc = trace.report.doc
    assert trace.reverted == set()
    assert trace.ledger.settlements == []
    assert doc["totals"] == {"slashed": "0", "paid": "0", "burned": "0"}
    # the secure transactors act one reversion window after finalization;
    # the insured one acts instantly on verified coverage
    assert trace.executed == {"q1": 14, "q2": 33, "q3": 25}
    assert doc["verdict"]["cryptoeconomically_safe"] is True
    assert doc["verdict"]["strong_safety"] is True
    assert doc["verdict"]["uninsured_buffer_ok"] is True
    assert doc["karma"]["adversary_net"] == "0"
    ins = by_party(doc)["ins"]
    assert ins["premiums_paid"] == "1/5" and ins["harm"] == "0"
    # all sold backing returned to the pool
    assert trace.ledger.pool_free() == 64
    assert records_of(trace, "released")


def test_trace_always_verifies_against_its_own_report():
    trace = run(parse_scenario(quiet_scenario_doc()))
    records = parse_trace(trace.to_lines(), source="quiet")
    assert compare_trace_to_report(records, source="quiet") is None


def test_every_line_is_the_canonical_json_of_its_record():
    # the report line is joined from the fields report.json encoded
    trace = run(parse_scenario(quiet_scenario_doc()))
    expected = [canonical_json({"tick": r.tick, "kind": r.kind, **r.payload}) for r in trace.records]
    assert trace.to_lines() == expected


# -- the shipped double-sign walkthrough ---------------------------------------


@pytest.fixture(scope="module")
def double_sign_trace():
    return run(load_scenario(str(ROOT / "scenarios" / "double-sign.json")))


def test_only_a_fallen_back_transaction_is_rebuilt_for_the_ledger():
    sc = load_scenario(str(ROOT / "scenarios" / "double-sign.json"))
    trace = run(sc)
    fallen = {r.payload["tx"] for r in records_of(trace, "rule_fallback")}
    given = {t.id: t for t in sc.timeline.transactions}
    assert fallen and len(given) > len(fallen)
    for t in trace.timeline.transactions:
        assert (t is given[t.id]) == (t.id not in fallen), t.id
        assert (t.rule is given[t.id].rule) == (t.id not in fallen), t.id


def test_double_sign_costs_and_bounds(double_sign_trace):
    doc = double_sign_trace.report.doc
    assert doc["coc"] == {"token_toxicity": "0", "slashing": "128/3"}
    assert [(b["kind"], b["value"], b["witness_window_start"]) for b in doc["ladder"]] == [
        ("steal_tvl", "480", None),
        ("reorg_window", "18", 21),
        ("reorg_hybrid_window", "13", 0),
        ("reorg_hybrid_secure_rule", "9", 21),
        ("uninsured_load", "3", 21),
    ]
    v = doc["verdict"]
    assert v["bound_kind"] == "reorg_hybrid_secure_rule" and v["pfc_value"] == "9"
    assert v["cryptoeconomically_safe"] is True
    assert v["strong_safety"] is False  # carol's uninsured immediate flow
    assert v["uninsured_buffer_ok"] is True


def test_double_sign_settlement_and_karma(double_sign_trace):
    doc = double_sign_trace.report.doc
    assert doc["totals"] == {"slashed": "64", "paid": "6", "burned": "58"}
    (settlement,) = records_of(double_sign_trace, "settlement")
    assert settlement.payload["insurance_budget"] == "32"
    assert settlement.payload["breach"] is False
    parties = by_party(doc)
    # the insured victim is made exactly whole: compensation equals harm
    assert parties["alice"]["compensation"] == "6" and parties["alice"]["harm"] == "6"
    # the uninsured freerider eats its loss
    assert parties["carol"]["harm"] == "3" and parties["carol"]["compensation"] == "0"
    assert doc["karma"]["double_spend_gain"] == "9"
    assert doc["karma"]["adversary_net"] == "-219/4"
    assert set(doc["karma"]["adversary_parties"]) == {"mallory", "v1", "v2"}


def test_double_sign_rule_traffic(double_sign_trace):
    trace = double_sign_trace
    # epoch 0 has no purchasable coverage yet, so the insured transactor's
    # first transaction falls back to the secure rule; its tx_finalized
    # record states both rules
    (fallback,) = records_of(trace, "rule_fallback")
    assert fallback.payload == {"tx": "tx1", "reason": "no_coverage"}
    finalized = next(r.payload for r in records_of(trace, "tx_finalized") if r.payload["id"] == "tx1")
    assert (finalized["rule_requested"], finalized["rule_effective"]) == ("insured_immediate", "secure")
    # the slashable reveal switches every policy to the secure rule, the
    # scripted attack end switches back
    switches = [(r.tick, r.payload["secure_mode"]) for r in records_of(trace, "policy_switch")]
    assert switches == [(26, True), (40, False)]
    assert trace.executed == {"tx1": 14, "tx2": 16, "tx3": 21, "tx4": 23, "tx6": 43, "tx7": 47}
    assert trace.reverted == {"tx3", "tx4", "tx5"}
    reverts = {r.payload["tx"]: r.payload["executed"] for r in records_of(trace, "tx_reverted")}
    assert reverts == {"tx3": True, "tx4": True, "tx5": False}


def test_double_sign_trace_verifies(double_sign_trace):
    records = parse_trace(double_sign_trace.to_lines(), source="demo")
    assert compare_trace_to_report(records, source="demo") is None


# -- determinism ----------------------------------------------------------------


def test_reruns_are_byte_identical(rng):
    docs = [quiet_scenario_doc(), attack_scenario_doc(rng, "1/2")]
    for doc in docs:
        a = run(parse_scenario(copy.deepcopy(doc)))
        b = run(parse_scenario(copy.deepcopy(doc)))
        assert a.to_lines() == b.to_lines()
        assert json.dumps(a.report.doc, sort_keys=True) == json.dumps(b.report.doc, sort_keys=True)


def test_a_run_hashes_its_scenario_once(monkeypatch):
    """The run header and the report both carry the scenario's hash; the
    scenario keeps it after the first, so its document is written once per
    scenario, and a `replace`d scenario, whose fields differ, hashes anew."""
    from stakesim import scenario as scenario_module

    written = []
    to_doc = scenario_module.scenario_to_doc
    monkeypatch.setattr(scenario_module, "scenario_to_doc", lambda sc: written.append(sc) or to_doc(sc))
    doc = quiet_scenario_doc()
    sc = parse_scenario(doc)
    trace = run(sc)
    assert written == [sc]
    digest = hashlib.sha256(canonical_json(to_doc(sc)).encode()).hexdigest()
    assert trace.records[0].payload["scenario_hash"] == trace.report.doc["scenario_hash"] == digest
    run(sc)
    assert written == [sc]
    other = dataclasses.replace(sc, seed=sc.seed + 1)
    assert other != sc
    run(other)
    assert written == [sc, other]
    assert scenario_hash(other) == scenario_hash(parse_scenario({**doc, "seed": sc.seed + 1})) != digest
    back = dataclasses.replace(other, seed=sc.seed)
    assert back == sc and scenario_hash(back) == digest


# -- grieving buyout -------------------------------------------------------------


def test_grieving_buyout_loses_at_least_the_burn():
    trace = run(load_scenario(str(ROOT / "scenarios" / "grieving.json")))
    doc = trace.report.doc
    assert doc["totals"] == {"slashed": "128", "paid": "20", "burned": "108"}
    # the adversary buys the whole pool cap each epoch until it runs dry
    auctions = records_of(trace, "auction")
    assert [
        (a.payload["epoch"], a.payload["lots"][0]["coverage"], a.payload["lots"][0]["premium_rate"])
        for a in auctions
    ] == [(0, "64/3", "1/10"), (1, "64/3", "1/10"), (2, "64/3", "1/10")]
    assert all(a.payload["lots"][0]["buyer"] == "mallory" for a in auctions)
    mallory = by_party(doc)["mallory"]
    assert mallory["premiums_paid"] == "32/5"
    assert mallory["compensation"] == mallory["harm"] == "20"
    # net of the whole adversary coalition is at most minus the burn share
    net = as_fraction(doc["karma"]["adversary_net"])
    slashed = as_fraction(doc["totals"]["slashed"])
    gamma = Fraction(1, 2)
    assert net == -108
    assert net <= -(1 - gamma) * slashed


# -- bribery probe ----------------------------------------------------------------


def probe_doc(bribe_fail):
    return {
        "schema_version": 1,
        "horizon": 60,
        "seed": 2,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100},
        "econ": {
            "stake_per_validator": 32, "n_validators": 4, "reward": 1,
            "gamma": "1/2", "tvl": 100,
        },
        "policies": {"bob": "always_secure", "*": "always_secure"},
        "transactions": [
            {"id": "b1", "transactor": "bob", "value": 5, "kind": "hybrid", "finalized_at": 22}
        ],
        "adversary": {
            "strategy": {
                "kind": "bribery_probe", "tick": 26, "target_t0": 20,
                "stake_fraction": "1/2", "bribe_fail": bribe_fail, "bribe_success": 33,
                "mechanism": "slashing",
            },
            "transactors": [],
        },
        "attack_over_epoch": 4,
    }


def test_bribery_probe_attacks_only_when_defection_dominates():
    # S + R = 33, S = 32: bribes (34, 33) strictly beat honesty in both
    # columns, (33, 33) only ties the failed column
    hot = run(parse_scenario(probe_doc(34)))
    (log,) = records_of(hot, "bribery_probe")
    assert log.payload["dominant"] is True and log.payload["attack_proceeds"] is True
    assert records_of(hot, "fork_reveal")
    assert len(hot.ledger.settlements) == 1
    assert hot.report.doc["totals"]["slashed"] == "64"

    cold = run(parse_scenario(probe_doc(33)))
    (log,) = records_of(cold, "bribery_probe")
    assert log.payload["dominant"] is False and log.payload["attack_proceeds"] is False
    assert records_of(cold, "fork_reveal") == []
    assert cold.ledger.settlements == [] and cold.reverted == set()


def test_a_transaction_that_falls_back_for_want_of_coverage_takes_none_of_it():
    """An epoch's coverage counts the insured flow committed before each
    check: a transaction that failed its check is not counted against the
    ones after it, and one that passed is."""
    doc = {
        "schema_version": 1,
        "horizon": 40,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100},
        "econ": {"stake_per_validator": 32, "n_validators": 4, "gamma": "1/2"},
        "policies": {"alice": "insured_fast_ux"},
        "insurance_bids": [{"transactor": "alice", "epoch_placed": 0, "coverage": 10, "premium_rate": "1/50"}],
        "transactions": [
            {"id": tx, "transactor": "alice", "value": value, "kind": "hybrid", "finalized_at": tick}
            for tx, value, tick in (("big", 12, 21), ("small", 5, 23), ("over", 6, 25), ("fits", 4, 27))
        ],
    }
    trace = run(parse_scenario(doc))
    fallbacks = {r.payload["tx"]: r.payload["reason"] for r in records_of(trace, "rule_fallback")}
    assert fallbacks == {"big": "no_coverage", "over": "no_coverage"}
    assert {t.id for t in trace.timeline.transactions if t.insured} == {"small", "fits"}


# -- attack-mode fallback and re-evaluation ---------------------------------------


def test_attack_mode_forces_secure_until_the_all_clear(rng):
    for _ in range(20):
        doc = attack_scenario_doc(rng, "1/2")
        trace = run(parse_scenario(doc))
        fallbacks = {r.payload["tx"]: r.payload["reason"] for r in records_of(trace, "rule_fallback")}
        # the insured transaction finalizing after the reveal runs under
        # attack mode and must wait out the window instead
        assert fallbacks.get("late") == "attack_mode"
        assert "late" in trace.executed and "late" not in trace.reverted
        # the insured transactions harmed by the attack were compensated
        # in full: strong per-victim guarantee of the gamma budget
        doc_r = trace.report.doc
        victim = by_party(doc_r)["ins"]
        assert victim["compensation"] == victim["harm"]
        assert doc_r["verdict"]["cryptoeconomically_safe"]


def test_waiting_transaction_is_reevaluated_at_the_all_clear():
    # a reveal inside the window parks the secure transaction; because the
    # attack fails, the transaction survives and is re-decided once the
    # scripted attack period ends
    doc = {
        "schema_version": 1,
        "horizon": 60,
        "seed": 7,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 0, "slash_delay": 0},
        "econ": {
            "stake_per_validator": 32, "n_validators": 4, "reward": 1,
            "gamma": "1/2", "tvl": 100,
        },
        "policies": {"*": "always_secure"},
        "transactions": [
            {"id": "w1", "transactor": "w", "value": 5, "kind": "hybrid", "finalized_at": 22}
        ],
        "fork_events": [
            {
                "id": "amb", "diverges_from": 20, "revealed_at": 25,
                "double_signers": ["v1", "v2"], "adversary_wins": False,
            }
        ],
        "adversary": {"strategy": {"kind": "none"}, "transactors": []},
        "attack_over_epoch": 4,
    }
    trace = run(parse_scenario(doc))
    (decision,) = records_of(trace, "decision")
    assert decision.payload["status"] == "waiting"
    (reeval,) = records_of(trace, "waiting_reeval")
    assert reeval.tick == 40
    assert reeval.payload == {"tx": "w1", "status": "confirmed", "earliest": 50}
    assert trace.executed == {"w1": 50}
    assert trace.reverted == set()
    # the failed double-sign still costs the signers their stake
    assert trace.report.doc["totals"] == {"slashed": "64", "paid": "0", "burned": "64"}


def test_attack_over_releases_only_the_epochs_that_hold_a_lot(monkeypatch):
    # the golden release-backlog case stretched to 2,001 epochs: four of
    # its seven covering epochs are still held when the attack ends, and
    # the backlog must not visit the ~2,000 empty ones
    doc = json.loads((ROOT / "tests" / "golden" / "scenarios" / "release-backlog.json").read_text(encoding="utf-8"))
    attack_over = 2000
    doc.update(horizon=10 * attack_over + 10, attack_over_epoch=attack_over)
    calls, held, current = [], set(), {}
    release, on_epoch = InsuranceLedger._release, engine._Run.on_epoch

    def counting_release(self, covering_epoch):
        if current["epoch"] == attack_over:
            calls.append(covering_epoch)
        return release(self, covering_epoch)

    def tracking_on_epoch(self, tick, e):
        current["epoch"] = e
        if e == attack_over:
            held.update(l.covering_epoch for l in self.ledger.lots if l.state is LotState.ACTIVE_COVERAGE)
        return on_epoch(self, tick, e)

    monkeypatch.setattr(InsuranceLedger, "_release", counting_release)
    monkeypatch.setattr(engine._Run, "on_epoch", tracking_on_epoch)
    trace = run(parse_scenario(doc))

    assert len(held) == 4
    # the epoch's own scheduled release, then each held epoch once, ascending
    assert calls[0] == attack_over - 2
    assert calls[1:] == sorted(held)
    # the held lots' release is one record, naming them by id in the order released
    released = [r.payload["lots"] for r in records_of(trace, "released") if r.payload["epoch"] == attack_over]
    assert released == [[l.id for l in trace.ledger.lots if l.covering_epoch in held]]


def test_the_loop_visits_only_the_epochs_where_the_engine_can_act(monkeypatch):
    # the golden release-backlog case stretched to 20,002 epochs: bids in
    # epochs 0 to 6 and the attack declared over at 20,000
    doc = json.loads((ROOT / "tests" / "golden" / "scenarios" / "release-backlog.json").read_text(encoding="utf-8"))
    attack_over = 20_000
    doc.update(horizon=10 * attack_over + 10, attack_over_epoch=attack_over)
    sc = parse_scenario(doc)
    visited = count_epoch_visits(monkeypatch)
    trace = run(sc)

    bid_epochs = {b.epoch_placed for b in sc.bids}
    auctions = records_of(trace, "auction")
    assert len(visited) <= 1 + len(bid_epochs) + 2 * len(auctions) + 1
    # epoch 0, the bids, each auction's covering and release epochs, the attack's end
    covering = {a.payload["epoch"] + 2 for a in auctions}
    assert visited == sorted({0} | bid_epochs | covering | {c + 2 for c in covering} | {attack_over})
    # an epoch_start record only for an epoch that writes a record
    written = sorted({r.tick // 10 for r in trace.records if r.kind not in ("run_start", "report")})
    assert epoch_starts(trace) == [(10 * e, e) for e in written]
    assert set(written) <= set(visited) and attack_over in written
    visited.clear()
    assert trace.to_lines() == run_every_epoch(sc).to_lines()
    assert len(visited) == attack_over + 2


def test_an_event_past_the_horizon_writes_no_epoch_past_it():
    # finalized on the horizon's own tick, the secure decision schedules the
    # execution at 70, in an epoch that starts after the horizon
    doc = {
        "schema_version": 1,
        "horizon": 60,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100},
        "econ": {"stake_per_validator": 32, "n_validators": 4, "gamma": "1/2"},
        "transactions": [
            {"id": "s1", "transactor": "sec", "value": 5, "kind": "hybrid", "finalized_at": 60, "rule": "secure"}
        ],
    }
    sc = parse_scenario(doc)
    trace = run(sc)
    assert records_of(trace, "decision")[0].payload["earliest"] == 70
    assert epoch_starts(trace) == [(60, 6)]
    assert trace.executed == {}
    assert trace.to_lines() == run_every_epoch(sc).to_lines()


def test_a_grieving_buyout_visits_the_next_epoch_only_while_coverage_is_left(monkeypatch):
    # its buyer bids for whatever is available, so an epoch that leaves some
    # schedules the next. Every validator is slashed in epoch 2, which
    # empties the pool for good: at 10,000 epochs the loop still stops at
    # epoch 6, the last release an auction scheduled
    doc = json.loads((ROOT / "scenarios" / "grieving.json").read_text(encoding="utf-8"))
    sc = parse_scenario(dict(doc, horizon=10 * 10_000))
    visited = count_epoch_visits(monkeypatch)
    trace = run(sc)
    assert visited == list(range(7))
    # epoch 3 sells nothing and writes no record
    assert [e for _, e in epoch_starts(trace)] == [0, 1, 2, 4, 5, 6]
    visited.clear()
    assert trace.to_lines() == run_every_epoch(sc).to_lines()
    assert len(visited) == 10_001


def test_signer_exiting_before_the_snapshot_is_not_slashed():
    # the snapshot is taken at 25 + slash_delay = 28; v3 exits at 27, so
    # the settlement and the ledger charge only v1 and v2
    doc = {
        "schema_version": 1,
        "horizon": 60,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 0, "slash_delay": 3},
        "econ": {"stake_per_validator": 32, "n_validators": 4, "gamma": "1/2", "tvl": 100},
        "validators": [
            {"id": "v1", "stake": 32},
            {"id": "v2", "stake": 32},
            {"id": "v3", "stake": 32, "exit_tick": 27},
            {"id": "v4", "stake": 32},
        ],
        "fork_events": [
            {
                "id": "amb", "diverges_from": 20, "revealed_at": 25,
                "double_signers": ["v1", "v2", "v3"], "adversary_wins": False,
            }
        ],
    }
    trace = run(parse_scenario(doc))
    (settlement,) = trace.ledger.settlements
    assert settlement.slashed == 64
    assert trace.ledger.slashed_amounts == {"v1": 32, "v2": 32}
    (resolution,) = records_of(trace, "resolution")
    assert resolution.payload["slashable_stake"] == "64"
    assert by_party(trace.report.doc)["v3"]["slashed"] == "0"


# -- reorg safety at engine level ---------------------------------------------------


def test_executed_secure_flow_never_reverts(rng):
    runs = 0
    for _ in range(60):
        tl, tp = random_physical_timeline(rng)
        sc = Scenario(
            timeline=tl,
            timing=tp,
            econ=EconParams(
                stake_per_validator=Fraction(32),
                n_validators=4,
                gamma=Fraction(1, 2),
                tvl=Fraction(100),
            ),
            bids=(),
            policies={"*": ConfirmationRule.SECURE_RULE},
            adversary=Adversary(),
            attack_over_epoch=None,
            seed=1,
        )
        trace = run(sc)
        effective = {t.id: t.rule for t in trace.timeline.transactions}
        for tx_id in trace.reverted & set(trace.executed):
            assert effective[tx_id] is not ConfirmationRule.SECURE_RULE
        runs += 1
    assert runs == 60


def test_random_attack_traces_verify(rng):
    for gamma in ("0", "1/4", "1/2", "3/4", "1"):
        doc = attack_scenario_doc(rng, gamma)
        trace = run(parse_scenario(doc))
        records = parse_trace(trace.to_lines(), source="rand")
        assert compare_trace_to_report(records, source="rand") is None


def test_random_attack_traces_skip_no_trace_byte(rng):
    # the documents test_random_attack_traces_verify draws, run by the
    # engine and by the reference that visits every epoch
    for gamma in ("0", "1/4", "1/2", "3/4", "1"):
        sc = parse_scenario(attack_scenario_doc(rng, gamma))
        expected = run_every_epoch(sc).to_lines()
        assert run(sc).to_lines() == expected, gamma


# -- invariant breach -----------------------------------------------------------------


def test_oversold_coverage_halts_loudly():
    sc = parse_scenario(breach_scenario_doc())
    with pytest.raises(InvariantBreachError) as exc:
        run(sc)
    assert "INVARIANT-BREACH" in str(exc.value)
    records = exc.value.trace_records
    assert records, "partial trace must ride along with the breach"
    (settlement,) = [r for r in records if r.kind == "settlement"]
    assert settlement.payload["breach"] is True
    # conservation holds even in the breached settlement
    paid = as_fraction(settlement.payload["paid"])
    burned = as_fraction(settlement.payload["burned"])
    assert paid + burned == as_fraction(settlement.payload["slashed"]) == 32


# -- sweep points ------------------------------------------------------------------


def sweep_rows(template: dict, grid: dict[str, list], out: Path) -> list[dict]:
    """Each grid point's sweep.json row, run one after another through the
    sweep verb's per-point function, with its reports written to `out`."""
    out.mkdir(exist_ok=True)
    jobs = enumerate(itertools.product(*grid.values()))
    return [cli._sweep_point(template, list(grid), None, PfcKind.REORG_HYBRID_SECURE_RULE, out, job) for job in jobs]


def test_gamma_sweep_preserves_conservation(tmp_path):
    template = json.loads((ROOT / "scenarios" / "double-sign.json").read_text())
    rows = sweep_rows(template, {"econ.gamma": ["0", "1/4", "1/2", "3/4", "1"]}, tmp_path)
    assert [r["point"] for r in rows] == [0, 1, 2, 3, 4]
    assert all(r["ok"] for r in rows)
    for r, gamma_s in zip(rows, ["0", "1/4", "1/2", "3/4", "1"]):
        assert r["overrides"] == {"econ.gamma": gamma_s}
        gamma = as_fraction(gamma_s)
        totals = json.loads((tmp_path / r["report"]).read_text())["totals"]
        slashed = as_fraction(totals["slashed"])
        paid = as_fraction(totals["paid"])
        burned = as_fraction(totals["burned"])
        assert slashed == 64
        assert paid + burned == slashed
        assert paid <= gamma * slashed
        assert burned >= (1 - gamma) * slashed


def test_sweep_records_failures_without_aborting(tmp_path):
    template = json.loads((ROOT / "scenarios" / "double-sign.json").read_text())
    rows = sweep_rows(template, {"econ.gamma": ["1/2", "3/2", "1"]}, tmp_path / "gamma")
    assert [r["ok"] for r in rows] == [True, False, True]
    assert "gamma" in rows[1]["error"]
    assert "report" not in rows[1]
    # a grid path through a non-object is a domain error with its path
    rows = sweep_rows(template, {"timing.t_rev.x": [1], "econ.gamma": ["1/2", "1"]}, tmp_path / "path")
    assert [r["ok"] for r in rows] == [False, False]
    for n, r in enumerate(rows):
        assert r["error"].startswith(f"ScenarioError: <sweep point {n}>.timing.t_rev: ")
        assert "report" not in r
