"""The acceptance gate.

One test per advertised guarantee. Each prints a single
"ACCEPTANCE n: PASS ..." line naming its sample size and tolerance (run
pytest with -s to see the lines; a failing guarantee fails its test).
Every numeric comparison here is exact rational arithmetic - there are no
epsilons anywhere in this file.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from stakesim import (
    Adversary,
    ConfirmationRule,
    DecisionStatus,
    EconParams,
    Mechanism,
    PfcKind,
    Scenario,
    TimingParams,
    as_fraction,
    bribe_is_dominant,
    cost_of_corruption,
    decide_bridge,
    decide_bridge_naive,
    decide_secure,
    pfc_ladder,
    parse_scenario,
)
from stakesim.engine import run

from conftest import (
    attack_scenario_doc,
    random_physical_timeline,
    random_timing,
    random_window_timeline,
)
from oracles import reverted_ids_oracle, window_sup_oracle

ROOT = Path(__file__).parent.parent


def test_acceptance_1_corruption_cost_table():
    t0 = perf_counter()
    stakes = [Fraction(1), Fraction(2), Fraction(16), Fraction(32), Fraction(100, 3), Fraction(12345, 7)]
    counts = [1, 2, 3, 4, 10, 100, 10_000]
    checked = 0
    for s, n in itertools.product(stakes, counts):
        ep = EconParams(stake_per_validator=s, n_validators=n)
        assert cost_of_corruption(Mechanism.TOKEN_TOXICITY, ep) == Fraction(0)
        assert cost_of_corruption(Mechanism.SLASHING, ep) == s * n / 3
        checked += 1
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1: PASS - corruption cost exact (0 and stake/3) over "
        f"{checked} (stake, validator-count) points in {elapsed * 1000:.1f} ms"
    )


def test_acceptance_2_bribery_dominance_under_token_toxicity():
    rng = random.Random(201)
    samples = 10_000
    flips_checked = 0
    for _ in range(samples):
        r = Fraction(rng.randint(0, 500), rng.randint(1, 20))
        ep = EconParams(
            stake_per_validator=Fraction(rng.randint(1, 2000), rng.randint(1, 20)),
            n_validators=rng.randint(1, 50),
            reward=r,
            bribe_fail=r + Fraction(rng.randint(1, 400), rng.randint(1, 20)),
            bribe_success=Fraction(rng.randint(1, 300), rng.randint(1, 20)),
        )
        # with bribe_fail > reward and bribe_success > 0, taking the bribe
        # strictly dominates honesty when a failed attack zeroes the token
        assert bribe_is_dominant(Mechanism.TOKEN_TOXICITY, ep)
        # forcing either condition to fail flips the result
        assert not bribe_is_dominant(Mechanism.TOKEN_TOXICITY, replace(ep, bribe_fail=r))
        assert not bribe_is_dominant(Mechanism.TOKEN_TOXICITY, replace(ep, bribe_success=Fraction(0)))
        flips_checked += 2
    print(
        f"\nACCEPTANCE 2: PASS - bribery dominant on {samples} random "
        f"(stake, reward, bribes) samples; {flips_checked} forced flips all flipped"
    )


def test_acceptance_3_profit_bound_ladder_matches_brute_force():
    rng = random.Random(33)
    t0 = perf_counter()
    traces = 1000
    order = [
        PfcKind.STEAL_TVL,
        PfcKind.REORG_WINDOW,
        PfcKind.REORG_HYBRID_WINDOW,
        PfcKind.REORG_HYBRID_SECURE_RULE,
        PfcKind.UNINSURED_LOAD,
    ]
    for _ in range(traces):
        timeline = random_window_timeline(rng, max_txs=50)
        t_fin = rng.randint(1, 3)
        t_rev = rng.randint(1, 12)
        tp = TimingParams(t_fin=t_fin, t_rev=t_rev, t_ws=t_fin + t_rev + 5)
        ep = EconParams(stake_per_validator=Fraction(32), n_validators=4, tvl=Fraction(10**6))
        ladder = pfc_ladder(timeline, tp, ep)
        assert [b.kind for b in ladder] == order
        assert ladder[0].value == ep.tvl
        window_values = [b.value for b in ladder[1:]]
        assert all(a >= b for a, b in zip(window_values, window_values[1:]))
        for bound in ladder[1:]:
            best, _ = window_sup_oracle(timeline.transactions, timeline.horizon, t_rev, bound.kind)
            assert bound.value == best
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 3: PASS - all four window bounds equal the exhaustive "
        f"oracle and never increase, on {traces} random traces (<=50 transactions) "
        f"in {elapsed:.2f} s"
    )


def test_acceptance_4_secure_rule_confirmations_never_invalidated():
    rng = random.Random(44)
    schedules = 10_000
    confirmed = 0
    invalidated = 0
    for _ in range(schedules):
        timeline, tp = random_physical_timeline(rng, all_secure=True)
        ambiguous = [
            ev
            for ev in timeline.fork_events
            if ev.diverges_from_block_finalized_at + tp.t_fin
            <= ev.revealed_at
            < ev.diverges_from_block_finalized_at + tp.t_fin + tp.t_rev
        ]
        at_risk = reverted_ids_oracle(timeline.transactions, ambiguous)
        for tx in timeline.transactions:
            decision = decide_secure(tx, timeline, tp)
            if decision.status is DecisionStatus.CONFIRMED:
                confirmed += 1
                if tx.id in at_risk:
                    invalidated += 1
    assert invalidated == 0
    assert confirmed > schedules  # the check ran against real confirmations

    # the same guarantee end to end: in full simulations with every
    # adversary reveal winning, no executed wait-the-window transaction
    # is ever rolled back
    engine_reverts = 0
    for _ in range(50):
        timeline, tp = random_physical_timeline(rng)
        sc = Scenario(
            timeline=timeline,
            timing=tp,
            econ=EconParams(
                stake_per_validator=Fraction(32), n_validators=4,
                gamma=Fraction(1, 2), tvl=Fraction(100),
            ),
            bids=(),
            policies={"*": ConfirmationRule.SECURE_RULE},
            adversary=Adversary(),
            attack_over_epoch=None,
            seed=4,
        )
        trace = run(sc)
        effective = {t.id: t.rule for t in trace.timeline.transactions}
        for tx_id in trace.reverted & set(trace.executed):
            if effective[tx_id] is ConfirmationRule.SECURE_RULE:
                engine_reverts += 1
    assert engine_reverts == 0
    print(
        f"\nACCEPTANCE 4: PASS - zero of {confirmed} wait-the-window confirmations "
        f"invalidated across {schedules} random reveal schedules "
        f"(plus 50 full simulation runs); tolerance 0"
    )


def test_acceptance_5_bridge_censorship_counterexample():
    # scripted counterexample: the conflicting header is censored for t_cr
    # ticks, landing after the bare reversion window but inside the safe one
    tp = TimingParams(t_fin=2, t_rev=5, t_ws=100, t_cr=4)
    posted, censored_conflict = 12, 16 + tp.t_cr
    naive = decide_bridge_naive(posted, [censored_conflict], tp)
    safe = decide_bridge(posted, [censored_conflict], tp)
    assert naive.status is DecisionStatus.CONFIRMED
    assert naive.earliest_offchain_tick == posted + tp.t_rev
    assert safe.status is DecisionStatus.INVALIDATED

    # and across randomized censored schedules the safe wait never accepts
    # a header that a delayed conflict later contradicts
    rng = random.Random(55)
    schedules = 2000
    naive_fooled = 0
    for _ in range(schedules):
        tp = random_timing(rng, t_cr=rng.randint(1, 5))
        posted = rng.randint(0, 40)
        posts = []
        for _ in range(rng.randint(0, 3)):
            reveal = posted + rng.randint(0, tp.t_rev + tp.t_cr + 4)
            posts.append(reveal + rng.randint(0, tp.t_cr))
        safe = decide_bridge(posted, sorted(posts), tp)
        if safe.status is DecisionStatus.CONFIRMED:
            assert not any(
                posted <= p < posted + tp.t_rev + tp.t_cr for p in posts
            ), "safe bridge rule confirmed a contradicted header"
        naive = decide_bridge_naive(posted, sorted(posts), tp)
        if naive.status is DecisionStatus.CONFIRMED and any(
            posted + tp.t_rev <= p < posted + tp.t_rev + tp.t_cr for p in posts
        ):
            naive_fooled += 1
    assert naive_fooled > 0
    print(
        f"\nACCEPTANCE 5: PASS - scripted censorship fools the bare-window wait "
        f"but not the censorship-aware one; over {schedules} random schedules the "
        f"safe rule never confirmed a contradicted header (naive fooled {naive_fooled} times)"
    )


def test_acceptance_6_insurance_conservation_and_whole_victims():
    rng = random.Random(66)
    gammas = ["0", "1/4", "1/2", "3/4", "1"]
    runs_per_gamma = 40
    victims_made_whole = 0
    for gamma_s in gammas:
        gamma = as_fraction(gamma_s)
        for _ in range(runs_per_gamma):
            trace = run(parse_scenario(attack_scenario_doc(rng, gamma_s)))
            doc = trace.report.doc
            slashed = as_fraction(doc["totals"]["slashed"])
            paid = as_fraction(doc["totals"]["paid"])
            burned = as_fraction(doc["totals"]["burned"])
            assert slashed > 0
            assert paid + burned == slashed  # (a) conservation, exact
            assert paid <= gamma * slashed  # (b) payouts within the earmark
            for entry in doc["karma"]["parties"]:
                if entry["party"] != "ins":
                    continue
                # (c) the honest insured victim's attack loss is exactly zero
                harm = as_fraction(entry["harm"])
                assert as_fraction(entry["compensation"]) == harm
                if harm > 0:
                    victims_made_whole += 1
    assert victims_made_whole > 0
    print(
        f"\nACCEPTANCE 6: PASS - paid + burned == slashed and paid <= gamma * slashed "
        f"exactly on {len(gammas) * runs_per_gamma} randomized attacks across "
        f"gamma in {{{', '.join(gammas)}}}; {victims_made_whole} harmed insured "
        f"victims all compensated to the penny"
    )


def test_acceptance_7_grieving_adversary_eats_the_burn():
    template = json.loads((ROOT / "scenarios" / "grieving.json").read_text())
    gammas = ["0", "1/4", "1/2", "3/4"]
    for gamma_s in gammas:
        gamma = as_fraction(gamma_s)
        template["econ"]["gamma"] = gamma_s
        doc = run(parse_scenario(template)).report.doc
        net = as_fraction(doc["karma"]["adversary_net"])
        slashed = as_fraction(doc["totals"]["slashed"])
        assert slashed > 0
        assert net <= -(1 - gamma) * slashed
    print(
        f"\nACCEPTANCE 7: PASS - coverage-hogging adversary nets at most "
        f"-(1-gamma) * slashed for every gamma in {{{', '.join(gammas)}}}"
    )


def test_acceptance_8_eleven_to_one_value_ratio_verdict_flip():
    # locked value is 11x the total stake; every hybrid flow waits out the
    # reversion window
    doc = {
        "schema_version": 1,
        "horizon": 60,
        "seed": 8,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100},
        "econ": {
            "stake_per_validator": 32, "n_validators": 4, "reward": 1,
            "gamma": "1/2", "tvl": 1408,
        },
        "policies": {"*": "always_secure"},
        "transactions": [
            {"id": f"big{i}", "transactor": "whale", "value": 500, "kind": "hybrid", "finalized_at": 4 + 8 * i}
            for i in range(3)
        ],
        "adversary": {"strategy": {"kind": "none"}, "transactors": []},
    }
    sc = parse_scenario(doc)
    assert sc.econ.tvl / sc.econ.s_tot == 11

    loose = run(sc, bound_kind=PfcKind.STEAL_TVL)
    assert loose.report.doc["verdict"]["cryptoeconomically_safe"] is False

    tight = run(parse_scenario(copy.deepcopy(doc)), bound_kind=PfcKind.REORG_HYBRID_SECURE_RULE)
    assert tight.report.doc["verdict"]["cryptoeconomically_safe"] is True
    assert tight.report.doc["verdict"]["strong_safety"] is True
    print(
        "\nACCEPTANCE 8: PASS - at locked-value/stake = 11 the steal-everything "
        "bound says UNSAFE while full wait-the-window adoption is SAFE under the "
        "rule-aware bound"
    )


def test_acceptance_9_byte_identical_reruns():
    rng = random.Random(99)
    docs = [
        json.loads((ROOT / "scenarios" / "double-sign.json").read_text()),
        json.loads((ROOT / "scenarios" / "grieving.json").read_text()),
        attack_scenario_doc(rng, "1/2"),
    ]
    compared = 0
    for doc in docs:
        first = run(parse_scenario(copy.deepcopy(doc)))
        second = run(parse_scenario(copy.deepcopy(doc)))
        trace_a = ("\n".join(first.to_lines()) + "\n").encode()
        trace_b = ("\n".join(second.to_lines()) + "\n").encode()
        assert trace_a == trace_b
        assert first.report.to_json().encode() == second.report.to_json().encode()
        compared += 1
    print(
        f"\nACCEPTANCE 9: PASS - {compared} scenarios re-run with equal seeds "
        f"produced byte-identical traces and reports"
    )
