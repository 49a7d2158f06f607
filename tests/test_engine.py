"""End-to-end simulation runs: scripted attacks, fallbacks, and the trace."""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from stakesim import (
    AdversaryStrategy,
    ConfirmationRule,
    EconParams,
    ForkEventMeta,
    PolicyKind,
    Scenario,
    as_fraction,
    load_scenario,
    parse_scenario,
)
from stakesim.engine import run, sweep
from stakesim.errors import InvariantBreachError
from stakesim.report import compare_trace_to_report, parse_trace

from conftest import (
    attack_scenario_doc,
    breach_scenario_doc,
    quiet_scenario_doc,
    random_physical_timeline,
)

ROOT = Path(__file__).parent.parent


def records_of(trace, kind):
    return [r for r in trace.records if r.kind == kind]


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


# -- the shipped double-sign walkthrough ---------------------------------------


@pytest.fixture(scope="module")
def double_sign_trace():
    return run(load_scenario(str(ROOT / "scenarios" / "double-sign.json")))


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
    # first transaction falls back to the secure rule
    (fallback,) = records_of(trace, "rule_fallback")
    assert fallback.payload == {
        "tx": "tx1", "from_rule": "insured_immediate", "to_rule": "secure",
        "reason": "no_coverage",
    }
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


# -- grieving buyout -------------------------------------------------------------


def test_grieving_buyout_loses_at_least_the_burn():
    trace = run(load_scenario(str(ROOT / "scenarios" / "grieving.json")))
    doc = trace.report.doc
    assert doc["totals"] == {"slashed": "128", "paid": "20", "burned": "108"}
    # the adversary buys the whole pool cap each epoch until it runs dry
    auctions = records_of(trace, "auction")
    assert [
        (a.payload["epoch"], a.payload["lots"][0]["coverage"], a.payload["lots"][0]["premium_paid"])
        for a in auctions
    ] == [(0, "64/3", "32/15"), (1, "64/3", "32/15"), (2, "64/3", "32/15")]
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
        assert trace.report.verdict.cryptoeconomically_safe


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
            policies={},
            default_policy=PolicyKind.ALWAYS_SECURE,
            strategy=AdversaryStrategy(),
            adversary_transactors=frozenset(),
            fork_meta={e.id: ForkEventMeta(adversary_wins=True) for e in tl.fork_events},
            attack_over_epoch=None,
            seed=1,
        )
        trace = run(sc)
        effective = {t.id: t.rule for t in trace.effective_timeline.transactions}
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


# -- sweeps ------------------------------------------------------------------------


def test_gamma_sweep_preserves_conservation():
    template = json.loads((ROOT / "scenarios" / "double-sign.json").read_text())
    points = sweep(template, {"econ.gamma": ["0", "1/4", "1/2", "3/4", "1"]})
    assert [p["point"] for p in points] == [0, 1, 2, 3, 4]
    assert all(p["ok"] for p in points)
    for p, gamma_s in zip(points, ["0", "1/4", "1/2", "3/4", "1"]):
        assert p["overrides"] == {"econ.gamma": gamma_s}
        gamma = as_fraction(gamma_s)
        totals = p["report"]["totals"]
        slashed = as_fraction(totals["slashed"])
        paid = as_fraction(totals["paid"])
        burned = as_fraction(totals["burned"])
        assert slashed == 64
        assert paid + burned == slashed
        assert paid <= gamma * slashed
        assert burned >= (1 - gamma) * slashed


def test_sweep_records_failures_without_aborting():
    template = json.loads((ROOT / "scenarios" / "double-sign.json").read_text())
    points = sweep(template, {"econ.gamma": ["1/2", "3/2", "1"]})
    assert [p["ok"] for p in points] == [True, False, True]
    assert "gamma" in points[1]["error"]
    assert points[1]["report"] is None
    # a grid path through a non-object is a domain error with its path
    points = sweep(template, {"timing.t_rev.x": [1], "econ.gamma": ["1/2", "1"]})
    assert [p["ok"] for p in points] == [False, False]
    for n, p in enumerate(points):
        assert p["error"].startswith(f"ScenarioError: <sweep point {n}>.timing.t_rev: ")
        assert p["report"] is None


def test_sweep_lets_program_bugs_propagate(monkeypatch):
    import stakesim.engine

    def broken_run(*args, **kwargs):
        raise RuntimeError("bug in run")

    monkeypatch.setattr(stakesim.engine, "run", broken_run)
    template = json.loads((ROOT / "scenarios" / "double-sign.json").read_text())
    with pytest.raises(RuntimeError, match="bug in run"):
        sweep(template, {"econ.gamma": ["1/2"]})
