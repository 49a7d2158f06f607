"""Scenario document parsing, validation, and canonical serialization."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest

from stakesim import (
    AdversaryStrategy,
    ConfirmationRule,
    Mechanism,
    StrategyKind,
    canonical_json,
    load_scenario,
    parse_scenario,
    scenario_hash,
    scenario_to_doc,
)
import stakesim.scenario as scenario_module
from stakesim import chain, insurance
from stakesim.chain import EconParams, ForkRevealEvent, TransactionRecord, TxKind, ValidatorState
from stakesim.errors import ScenarioError
from stakesim.insurance import InsuranceBid
from stakesim.scenario import canonical_object

from conftest import attack_scenario_doc, breach_scenario_doc, quiet_scenario_doc
from perfbench import workloads


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "horizon": 50,
        "timing": {"t_fin": 2, "t_rev": 10, "t_ws": 100},
        "econ": {"stake_per_validator": 32, "n_validators": 4, "gamma": "1/2"},
    }
    doc.update(overrides)
    return doc


def test_minimal_document_parses_with_defaults():
    sc = parse_scenario(minimal_doc())
    assert sc.seed == 0
    assert sc.timing.t_cr == 0 and sc.timing.slash_delay == 0
    assert sc.econ.reward == 0 and sc.econ.tvl == 0
    assert sc.policies == {"*": ConfirmationRule.SECURE_RULE}
    assert sc.adversary.strategy.kind is StrategyKind.NONE
    assert sc.attack_over_epoch is None
    assert sc.timeline.transactions == ()


def test_validators_synthesized_from_econ():
    sc = parse_scenario(minimal_doc())
    vals = sc.timeline.validators
    assert [v.id for v in vals] == ["v1", "v2", "v3", "v4"]
    assert all(v.stake == 32 and v.earmarked_fraction == Fraction(1, 2) for v in vals)
    wide = parse_scenario(
        minimal_doc(econ={"stake_per_validator": 8, "n_validators": 10, "gamma": 0})
    )
    assert [v.id for v in wide.timeline.validators][:2] == ["v01", "v02"]
    assert [v.id for v in wide.timeline.validators][-1] == "v10"


def test_explicit_validators_override_synthesis():
    doc = minimal_doc(
        econ={"stake_per_validator": 6, "n_validators": 2, "gamma": "1/2"},
        validators=[
            {"id": "a", "stake": 5},
            {"id": "b", "stake": 7, "earmarked_fraction": "1/4", "exit_tick": 9},
        ],
    )
    vals = parse_scenario(doc).timeline.validators
    assert [(v.id, v.stake, v.earmarked_fraction, v.exit_tick) for v in vals] == [
        ("a", Fraction(5), Fraction(0), None),
        ("b", Fraction(7), Fraction(1, 4), 9),
    ]


@pytest.mark.parametrize("stakes", [[32, 32, 32], [32, 32, 32, 31], [32, 32, 32, 32, 1], []])
def test_validator_stakes_must_sum_to_the_econ_total(stakes):
    # econ's total (4 x 32) prices the attack and caps insurance, and a
    # slash takes the listed stakes: a list that disagrees is refused
    doc = minimal_doc(validators=[{"id": f"v{i}", "stake": s} for i, s in enumerate(stakes)])
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc, source="s")
    assert exc.value.path == "s.validators"
    assert f"stakes sum to {sum(stakes)}, not stake_per_validator * n_validators = 128" in str(exc.value)


def test_unknown_top_level_key_cites_source():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(bogus=1), source="test.json")
    assert "unknown keys" in str(exc.value) and "bogus" in str(exc.value)
    assert exc.value.path == "test.json"


def test_missing_required_key_cites_path():
    doc = minimal_doc()
    del doc["timing"]["t_rev"]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc, source="s")
    assert "t_rev" in str(exc.value) and "s.timing" in str(exc.value)


@pytest.mark.parametrize(
    "overrides,path",
    [
        ({"transactions": 5}, "s.transactions"),
        ({"fork_events": 7}, "s.fork_events"),
        ({"insurance_bids": True}, "s.insurance_bids"),
        ({"validators": {"id": "v1"}}, "s.validators"),
        ({"adversary": {"transactors": 3}}, "s.adversary.transactors"),
        ({"adversary": {"transactors": "mallory"}}, "s.adversary.transactors"),
    ],
)
def test_non_list_sections_are_rejected_with_their_path(overrides, path):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(**overrides), source="s")
    assert exc.value.path == path
    assert "expected a list" in str(exc.value)


def test_schema_version_must_match():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(schema_version=99))
    assert "unsupported version 99" in str(exc.value)


def test_malformed_numbers_cite_their_path():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(horizon="soon"), source="s")
    assert exc.value.path == "s.horizon"


@pytest.mark.parametrize(
    "policy,rule",
    [
        ("always_secure", "secure"),
        ("insured_fast_ux", "insured_immediate"),
        ("uninsured_freerider", "immediate"),
        ("bridge_client", "bridge"),
    ],
)
def test_auto_rule_follows_policy(policy, rule):
    doc = minimal_doc(
        policies={"alice": policy},
        transactions=[
            {"id": "t1", "transactor": "alice", "value": 1, "kind": "hybrid", "finalized_at": 4, "rule": "auto"},
            {"id": "t2", "transactor": "alice", "value": 1, "kind": "hybrid", "finalized_at": 6},
        ],
    )
    txs = parse_scenario(doc).timeline.transactions
    assert all(t.rule.value == rule for t in txs)


def test_star_policy_sets_the_default():
    doc = minimal_doc(
        policies={"*": "uninsured_freerider", "alice": "always_secure"},
        transactions=[
            {"id": "t1", "transactor": "bob", "value": 1, "kind": "hybrid", "finalized_at": 4},
            {"id": "t2", "transactor": "alice", "value": 1, "kind": "hybrid", "finalized_at": 6},
        ],
    )
    sc = parse_scenario(doc)
    assert sc.policies == {"*": ConfirmationRule.IMMEDIATE, "alice": ConfirmationRule.SECURE_RULE}
    by_id = {t.id: t for t in sc.timeline.transactions}
    assert by_id["t1"].rule.value == "immediate"
    assert by_id["t2"].rule.value == "secure"


def test_unknown_policy_rejected():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(policies={"alice": "yolo"}))
    assert "unknown policy" in str(exc.value)


def test_a_transaction_that_names_insured_epoch_is_refused_at_its_path():
    # insured flow is covered by the epoch it finalizes in, so no key states that epoch
    base = {
        "id": "t1", "transactor": "alice", "value": 1, "kind": "hybrid",
        "finalized_at": 25, "rule": "insured_immediate",
    }
    assert parse_scenario(minimal_doc(transactions=[base])).timeline.transactions[0].insured
    for tx in (dict(base, insured_epoch=2), dict(base, rule="secure", insured_epoch=None)):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(minimal_doc(transactions=[tx]), source="s")
        assert exc.value.path == "s.transactions[0]"
        assert exc.value.message == "unknown keys ['insured_epoch']"


def test_duplicate_transaction_ids_rejected():
    doc = minimal_doc(
        transactions=[
            {"id": "t", "transactor": "a", "value": 1, "kind": "pure", "finalized_at": 1},
            {"id": "t", "transactor": "a", "value": 1, "kind": "pure", "finalized_at": 2},
        ]
    )
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_bridge_post_delay_bounded_by_censorship():
    event = {"id": "f", "diverges_from": 10, "revealed_at": 14, "double_signers": []}
    doc = minimal_doc(
        timing={"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 3},
        fork_events=[dict(event, bridge_post_delay=3)],
    )
    assert parse_scenario(doc).timeline.fork_events[0].bridge_post_delay == 3
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(
            minimal_doc(
                timing={"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 3},
                fork_events=[dict(event, bridge_post_delay=4)],
            ),
            source="s",
        )
    assert exc.value.path == "s.fork_events[0].bridge_post_delay"


def test_adversary_wins_must_be_boolean():
    doc = minimal_doc(
        fork_events=[{"id": "f", "diverges_from": 10, "revealed_at": 14,
                      "double_signers": [], "adversary_wins": "yes"}]
    )
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert "boolean" in str(exc.value)


def test_strategy_validation():
    def with_strategy(st):
        return minimal_doc(adversary={"strategy": st, "transactors": []})

    with pytest.raises(ScenarioError):
        parse_scenario(with_strategy({"kind": "sneaky"}))
    with pytest.raises(ScenarioError):  # tick required
        parse_scenario(with_strategy({"kind": "double_sign_at", "stake_fraction": "1/2"}))
    with pytest.raises(ScenarioError):  # one third is not enough
        parse_scenario(
            with_strategy({"kind": "double_sign_at", "tick": 5, "stake_fraction": "1/3"})
        )
    with pytest.raises(ScenarioError):  # coverage cannot exist before epoch 2
        parse_scenario(
            with_strategy({"kind": "grieving_buyout", "premium_rate": "1/10", "attack_epoch": 1})
        )
    with pytest.raises(ScenarioError):  # both bribes required
        parse_scenario(
            with_strategy({"kind": "bribery_probe", "tick": 5, "target_t0": 0,
                           "stake_fraction": "1/2", "bribe_fail": 3})
        )


@pytest.mark.parametrize(
    "strategy,stray",
    [
        ({"kind": "double_sign_at", "tick": 26, "stake_fraction": "1/2", "attack_epoch": 3}, "attack_epoch"),
        ({"kind": "double_sign_at", "tick": 26, "stake_fraction": "1/2", "mechanism": "slashing"}, "mechanism"),
        ({"kind": "double_sign_at", "tick": 26, "stake_fraction": "1/2", "bribe_fail": 1}, "bribe_fail"),
        ({"kind": "double_sign_at", "tick": 26, "stake_fraction": "1/2", "premium_rate": "1/10"}, "premium_rate"),
        ({"kind": "grieving_buyout", "premium_rate": "1/10", "attack_epoch": 2, "tick": 5}, "tick"),
        # a strategy that names no kind is of kind none, which takes no tick
        ({"tick": 26}, "tick"),
    ],
    ids=lambda x: x if isinstance(x, str) else x.get("kind", "no-kind"),
)
def test_a_field_of_another_strategy_kind_is_an_unknown_key(strategy, stray):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(adversary={"strategy": strategy, "transactors": []}), source="s")
    assert exc.value.path == "s.adversary.strategy"
    assert str(exc.value) == f"s.adversary.strategy: unknown keys ['{stray}']"


def test_an_unknown_mechanism_is_cited_at_its_key():
    strategy = {
        "kind": "bribery_probe", "tick": 26, "target_t0": 20, "stake_fraction": "1/2",
        "bribe_fail": "34", "bribe_success": "1/2", "mechanism": "x",
    }
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(minimal_doc(adversary={"strategy": strategy, "transactors": []}), source="s")
    assert exc.value.path == "s.adversary.strategy.mechanism"
    assert str(exc.value) == "s.adversary.strategy.mechanism: malformed value 'x': unknown mechanism"


def test_a_strategy_takes_its_mechanism_by_value():
    # as it takes its kind: `econ.payoff` tells the mechanisms apart by identity
    st = AdversaryStrategy(
        kind="bribery_probe", tick=26, stake_fraction="1/2", bribe_fail=1, bribe_success=1, mechanism="token_toxicity"
    )
    assert st.mechanism is Mechanism.TOKEN_TOXICITY


STRATEGIES = [
    {"kind": "none"},
    {"kind": "double_sign_at", "tick": 26, "target_t0": 20, "stake_fraction": "1/2"},
    {"kind": "long_range_at", "tick": 30, "target_t0": 0, "exited_set": ["v1", "v2"]},
    {"kind": "grieving_buyout", "premium_rate": "1/10", "attack_epoch": 2},
    {
        "kind": "bribery_probe", "tick": 26, "target_t0": 20, "stake_fraction": "1/2",
        "bribe_fail": "34", "bribe_success": "1/2", "mechanism": "slashing",
    },
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s["kind"])
def test_round_trip_is_identity(strategy):
    doc = minimal_doc(
        seed=9,
        timing={"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 3},
        transactions=[
            {"id": "t1", "transactor": "alice", "value": "7/2", "kind": "hybrid", "finalized_at": 25},
            {"id": "t2", "transactor": "bob", "value": 1, "kind": "pure", "finalized_at": 4},
        ],
        policies={"alice": "insured_fast_ux", "*": "always_secure"},
        insurance_bids=[
            {"transactor": "alice", "epoch_placed": 0, "coverage": 10, "premium_rate": "1/50"}
        ],
        fork_events=[
            {"id": "f", "diverges_from": 10, "revealed_at": 14,
             "double_signers": ["v1"], "adversary_wins": False, "bridge_post_delay": 2}
        ],
        adversary={"strategy": strategy, "transactors": ["mallory"]},
        attack_over_epoch=4,
    )
    sc = parse_scenario(doc)
    (fork,) = sc.timeline.fork_events
    assert fork.adversary_wins is False and fork.bridge_post_delay == 2
    doc2 = scenario_to_doc(sc)
    sc2 = parse_scenario(doc2)
    assert sc2 == sc
    assert scenario_to_doc(sc2) == doc2
    assert scenario_hash(sc2) == scenario_hash(sc)


# -- the field tables ------------------------------------------------------------


def full_doc(strategy: dict) -> dict:
    """A document with one of each block, every key of each written out."""
    return minimal_doc(
        seed=9,
        timing={"t_fin": 2, "t_rev": 10, "t_ws": 100, "t_cr": 3, "slash_delay": 1},
        econ={
            "stake_per_validator": 32, "n_validators": 4, "reward": 1, "bribe_fail": 2,
            "bribe_success": 3, "gamma": "1/2", "tvl": 480,
        },
        validators=[
            {"id": f"v{i}", "stake": 32, "earmarked_fraction": "1/2", "exit_tick": None} for i in range(1, 5)
        ],
        transactions=[
            {"id": "t1", "transactor": "alice", "value": "7/2", "kind": "hybrid", "finalized_at": 25,
             "rule": "insured_immediate", "offchain_executed_at": None}
        ],
        fork_events=[
            {"id": "f", "diverges_from": 10, "revealed_at": 14, "double_signers": ["v1"],
             "double_signer_stake": 32, "adversary_wins": False, "bridge_post_delay": 2}
        ],
        insurance_bids=[{"transactor": "alice", "epoch_placed": 0, "coverage": 10, "premium_rate": "1/50"}],
        policies={"alice": "insured_fast_ux", "*": "always_secure"},
        adversary={"strategy": dict(strategy), "transactors": ["mallory"]},
        attack_over_epoch=4,
    )


STRATEGY_DOCS = {st["kind"]: st for st in STRATEGIES}
# (name, the block's field tables, where it sits in a document, the path its
# errors cite, the strategy of the document it is tested in)
BLOCKS = [
    ("document", [scenario_module._DOCUMENT], (), "s", "none"),
    ("timing", [scenario_module.TIMING], ("timing",), "s.timing", "none"),
    ("econ", [scenario_module.ECON], ("econ",), "s.econ", "none"),
    ("validator", [scenario_module._VALIDATOR], ("validators", 0), "s.validators[0]", "none"),
    ("transaction", [scenario_module._TRANSACTION], ("transactions", 0), "s.transactions[0]", "none"),
    ("fork_event", [scenario_module._FORK], ("fork_events", 0), "s.fork_events[0]", "none"),
    ("insurance_bid", [scenario_module._BID], ("insurance_bids", 0), "s.insurance_bids[0]", "none"),
    ("adversary", [scenario_module._ADVERSARY], ("adversary",), "s.adversary", "none"),
] + [
    (f"strategy-{kind.value}", [block], ("adversary", "strategy"), "s.adversary.strategy", kind.value)
    for kind, block in scenario_module._STRATEGIES.items()
]
REQUIRED = [
    (name, where, path, strategy, field.key)
    for name, tables, where, path, strategy in BLOCKS
    for table in tables
    for field in table.fields
    if field.default is scenario_module._REQUIRED
]


def block_at(doc: dict, where: tuple):
    for step in where:
        doc = doc[step]
    return doc


@pytest.mark.parametrize("name,tables,where,path,strategy", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_a_stray_key_is_an_unknown_key_at_the_blocks_path(name, tables, where, path, strategy):
    doc = full_doc(STRATEGY_DOCS[strategy])
    block_at(doc, where)["x"] = 1
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc, source="s")
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: unknown keys ['x']"


@pytest.mark.parametrize("name,where,path,strategy,key", REQUIRED, ids=[f"{r[0]}.{r[4]}" for r in REQUIRED])
def test_each_required_key_is_missing_at_its_own_path(name, where, path, strategy, key):
    doc = full_doc(STRATEGY_DOCS[strategy])
    del block_at(doc, where)[key]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc, source="s")
    assert exc.value.path == f"{path}.{key}"
    assert str(exc.value) == f"{path}.{key}: missing required key"


@pytest.mark.parametrize("name,tables,where,path,strategy", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_the_writer_writes_exactly_the_keys_the_reader_takes(name, tables, where, path, strategy):
    written = block_at(scenario_to_doc(parse_scenario(full_doc(STRATEGY_DOCS[strategy]))), where)
    assert set(written) == set().union(*(table.keys for table in tables))


# strategy keys whose default stands for "left out": null is no value of
# theirs, and the strategy kind that needs one rejects None
LEFT_OUT_ONLY = {"tick", "stake_fraction", "premium_rate", "bribe_fail", "bribe_success"}
DEFAULTED = [
    (name, table, where, path, strategy, field)
    for name, tables, where, path, strategy in BLOCKS
    for table in tables
    for field in table.fields
    if field.default is not scenario_module._REQUIRED
]


def _typed(fields: dict) -> dict:
    """Each value beside its type, a list taken as a tuple: the document's
    lists default to `()`."""
    return {k: (type(v), v) for k, v in ((k, tuple(v) if isinstance(v, list) else v) for k, v in fields.items())}


def test_every_defaulted_key_is_a_key_of_a_scenario_block():
    tables = [t for t in vars(scenario_module).values() if isinstance(t, scenario_module._Block)]
    tables += scenario_module._STRATEGIES.values()
    defaulted = {id(f) for t in tables for f in t.fields if f.default is not scenario_module._REQUIRED}
    assert defaulted == {id(d[5]) for d in DEFAULTED}


@pytest.mark.parametrize(
    "name,table,where,path,strategy,field", DEFAULTED, ids=[f"{d[0]}.{d[5].key}" for d in DEFAULTED]
)
def test_a_left_out_key_reads_as_its_written_default(name, table, where, path, strategy, field):
    """The reader takes an absent key's default as it stands, so it must be
    exactly what the key reads as when it holds the default as the writer
    writes it (null for None): the same value, of the same type."""
    full = block_at(full_doc(STRATEGY_DOCS[strategy]), where)
    left_out = {k: v for k, v in full.items() if k != field.key}
    written = None if field.default is None else field.codec[1](field.default)
    left_out_only = name.startswith("strategy-") and field.key in LEFT_OUT_ONLY
    try:
        held = table.read({**full, field.key: written}, path)
    except ScenarioError:
        assert field.default is None and left_out_only
        return
    assert not left_out_only
    assert _typed(table.read(left_out, path)) == _typed(held)


# the one key whose table default differs from its class's on purpose: a
# transaction's None rule stands for "the rule of the transactor's policy"
POLICY_RULE = ("transaction", "rule")
CLASS_DEFAULTED = [d for d in DEFAULTED if d[1].make is not dict]


@pytest.mark.parametrize(
    "name,table,where,path,strategy,field", CLASS_DEFAULTED, ids=[f"{d[0]}.{d[5].key}" for d in CLASS_DEFAULTED]
)
def test_a_defaulted_key_defaults_as_its_dataclass_field(name, table, where, path, strategy, field):
    """A block's defaults are stated twice, in its field table and on the
    class it makes; each pair must agree, the same value of the same type."""
    (attr,) = [f for f in dataclasses.fields(table.make) if f.name == (field.attr or field.key)]
    default = attr.default if attr.default_factory is dataclasses.MISSING else attr.default_factory()
    if (name, field.key) == POLICY_RULE:
        assert field.default is None and default is ConfirmationRule.IMMEDIATE
    else:
        assert (type(default), default) == (type(field.default), field.default)


def _documents() -> list:
    """Every shipped and golden scenario document, the golden corpus's
    fixtures and the benchmark workloads' documents."""
    root = Path(__file__).parent.parent
    paths = sorted(root.glob("scenarios/*.json")) + sorted(root.glob("tests/golden/scenarios/*.json"))
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    docs += [quiet_scenario_doc(), attack_scenario_doc(random.Random(99), "1/2"), breach_scenario_doc()]
    return docs + [workloads.generate(name, 1)[0] for name in workloads.WORKLOADS]


def test_a_parsed_scenario_pickles_to_an_equal_one_with_the_same_hash():
    for doc in _documents():
        sc = parse_scenario(doc)
        # pickled before either is hashed, so the clone hashes anew
        clone = pickle.loads(pickle.dumps(sc))
        assert clone == sc
        assert scenario_hash(clone) == scenario_hash(sc)
        with pytest.raises(TypeError):
            clone.policies["mallory"] = ConfirmationRule.IMMEDIATE


def _count_coercions(monkeypatch) -> list:
    """The values each domain module's `as_fraction` is handed from now on.
    The readers' own value parser was bound when the tables were made, so
    these see only what a constructor coerces."""
    seen = []
    for module in (chain, insurance, scenario_module):
        original = module.as_fraction

        def counted(x, original=original):
            seen.append(x)
            return original(x)

        monkeypatch.setattr(module, "as_fraction", counted)
    return seen


def test_a_parsed_value_is_coerced_by_its_reader_only(monkeypatch):
    docs = _documents()
    seen = _count_coercions(monkeypatch)
    for doc in docs:
        sc = parse_scenario(doc)
        assert sc.timeline.transactions or sc.bids or sc.timeline.fork_events
    assert seen == []


def test_a_direct_caller_still_gets_its_values_coerced(monkeypatch):
    seen = _count_coercions(monkeypatch)
    tx = TransactionRecord(id="t", transactor="a", value="5/2", kind="hybrid", finalized_at=0, rule="secure")
    assert (tx.value, tx.kind, tx.rule) == (Fraction(5, 2), TxKind.HYBRID, ConfirmationRule.SECURE_RULE)
    assert type(tx.value) is Fraction and type(tx.kind) is TxKind and type(tx.rule) is ConfirmationRule
    v = ValidatorState(id="v", stake=32, earmarked_fraction="1/2")
    ep = EconParams(stake_per_validator="32", n_validators=4, gamma="1/2", tvl=7)
    ev = ForkRevealEvent(
        id="f", diverges_from_block_finalized_at=0, revealed_at=1, double_signers=["v"], double_signer_stake=32
    )
    bid = InsuranceBid(transactor="a", epoch_placed=0, coverage_requested="5/2", premium_rate=0)
    st = AdversaryStrategy(kind="long_range_at", tick=3, exited_set=["v"], mechanism="slashing")
    assert (v.stake, v.earmarked_fraction, ep.gamma, ep.tvl, ep.reward) == (32, Fraction(1, 2), Fraction(1, 2), 7, 0)
    assert type(ep.reward) is Fraction and type(ep.stake_per_validator) is Fraction
    assert ev.double_signers == frozenset({"v"}) and type(ev.double_signer_stake) is Fraction
    assert (bid.coverage_requested, bid.premium_rate) == (Fraction(5, 2), 0) and type(bid.premium_rate) is Fraction
    assert (st.kind, st.mechanism, st.exited_set) == (StrategyKind.LONG_RANGE_AT, Mechanism.SLASHING, frozenset({"v"}))
    assert len(seen) == 9  # each value given as a string or an int, and none of the class defaults


def _error(make, **fields) -> str:
    with pytest.raises(Exception) as exc:
        make(**fields)
    return f"{type(exc.value).__name__}: {exc.value}"


def test_a_direct_caller_gets_the_same_errors():
    tx = dict(id="t", transactor="a", value=1, kind="hybrid", finalized_at=0)
    fork = dict(id="f", diverges_from_block_finalized_at=0, revealed_at=1)
    bid = dict(transactor="a", epoch_placed=0, coverage_requested=1, premium_rate=0)
    assert [
        _error(TransactionRecord, **{**tx, "value": "-1/2"}),
        _error(TransactionRecord, **{**tx, "value": True}),
        _error(TransactionRecord, **{**tx, "value": [1]}),
        _error(TransactionRecord, **{**tx, "kind": "bogus"}),
        _error(TransactionRecord, **{**tx, "rule": "bogus"}),
        _error(ValidatorState, id="v", stake="0"),
        _error(ValidatorState, id="v", stake=1, earmarked_fraction="3/2"),
        _error(ValidatorState, id="v", stake=1, earmarked_fraction=-1),
        _error(EconParams, stake_per_validator=-1, n_validators=1),
        _error(EconParams, stake_per_validator=1, n_validators=1, gamma="3/2"),
        _error(EconParams, stake_per_validator=1, n_validators=1, gamma="-1/2"),
        _error(EconParams, stake_per_validator=1, n_validators=1, tvl="-1"),
        _error(EconParams, stake_per_validator="x", n_validators=1),
        _error(ForkRevealEvent, **fork, double_signer_stake="-1"),
        _error(InsuranceBid, **{**bid, "coverage_requested": "0"}),
        _error(InsuranceBid, **{**bid, "premium_rate": "-1/10"}),
        _error(AdversaryStrategy, kind="grieving_buyout", premium_rate="-1"),
        _error(AdversaryStrategy, kind="bogus"),
        _error(AdversaryStrategy, kind="none", mechanism="bogus"),
    ] == [
        "InvariantViolationError: transaction 't': value must be >= 0",
        "TypeError: boolean is not a value: True",
        "TypeError: cannot interpret [1] as an exact value",
        "ValueError: 'bogus' is not a valid TxKind",
        "ValueError: 'bogus' is not a valid ConfirmationRule",
        "InvariantViolationError: validator 'v': stake must be > 0",
        "InvariantViolationError: validator 'v': earmarked_fraction must lie in [0, 1]",
        "InvariantViolationError: validator 'v': earmarked_fraction must lie in [0, 1]",
        "InvariantViolationError: stake_per_validator must be > 0",
        "InvariantViolationError: gamma must lie in [0, 1], got 3/2",
        "InvariantViolationError: gamma must lie in [0, 1], got -1/2",
        "InvariantViolationError: tvl must be >= 0",
        "ValueError: Invalid literal for Fraction: 'x'",
        "InvariantViolationError: fork event 'f': negative signer stake",
        "InvariantViolationError: bid by 'a': coverage must be > 0",
        "InvariantViolationError: bid by 'a': premium_rate < 0",
        "InvariantViolationError: grieving_buyout: premium_rate must be >= 0",
        "ValueError: 'bogus' is not a valid StrategyKind",
        "ValueError: 'bogus' is not a valid Mechanism",
    ]


def test_an_empty_exited_set_is_the_one_key_left_out():
    doc = full_doc({"kind": "long_range_at", "tick": 30, "target_t0": 0})
    sc = parse_scenario(doc)
    written = scenario_to_doc(sc)["adversary"]["strategy"]
    assert set(written) == scenario_module._STRATEGIES[StrategyKind.LONG_RANGE_AT].keys - {"exited_set"}
    assert parse_scenario(scenario_to_doc(sc)) == sc


def test_readme_documents_every_key_of_every_block():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n")[1].split("\n## ")[0]
    keys = {field.key for _, tables, *_ in BLOCKS for table in tables for field in table.fields}
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def test_fixture_documents_round_trip(rng):
    for doc in (quiet_scenario_doc(), attack_scenario_doc(rng, "1/2"), breach_scenario_doc()):
        sc = parse_scenario(doc)
        assert parse_scenario(scenario_to_doc(sc)) == sc


def test_shipped_scenarios_round_trip():
    root = Path(__file__).parent.parent
    for name in ("double-sign.json", "grieving.json"):
        sc = load_scenario(str(root / "scenarios" / name))
        assert parse_scenario(scenario_to_doc(sc)) == sc


def test_hash_is_stable_and_content_sensitive():
    a = parse_scenario(minimal_doc())
    b = parse_scenario(minimal_doc())
    assert scenario_hash(a) == scenario_hash(b)
    assert len(scenario_hash(a)) == 64
    c = parse_scenario(minimal_doc(horizon=51))
    assert scenario_hash(c) != scenario_hash(a)


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


JSON_STRINGS = ["", "a", "B", "zoë", "日本", "\U0001f600", 'say "hi"', "back\\slash", "tab\tnew\nline", "\x00\x7f", "/"]


def _random_json_like(rng: random.Random, depth: int = 0):
    """Nested objects and lists over None, booleans, big ints and strings
    that need escaping or are not ASCII."""
    r = rng.random()
    if depth < 4 and r < 0.25:
        return {
            rng.choice(JSON_STRINGS) + rng.choice("abc"): _random_json_like(rng, depth + 1)
            for _ in range(rng.randint(0, 5))
        }
    if depth < 4 and r < 0.45:
        return [_random_json_like(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    leaves = [None, True, False, 0, -1, rng.randint(-(10**40), 10**40), rng.choice(JSON_STRINGS)]
    leaves.append("".join(rng.choice(JSON_STRINGS) for _ in range(3)))
    return rng.choice(leaves)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_canonical_json_matches_json_dumps_on_random_documents():
    rng = random.Random(11)
    kinds = set()
    for i in range(2000):
        doc = _random_json_like(rng)
        kinds.add(f"empty {type(doc).__name__}" if doc in ({}, []) else type(doc).__name__)
        want = _dumps(doc)
        assert canonical_json(doc) == want
        if isinstance(doc, dict):
            assert canonical_object({key: canonical_json(value) for key, value in doc.items()}) == want
        if i % 100 == 0:  # a call that raised leaves nothing behind: the same list encodes once mended
            held = [doc, {"x": Fraction(1, 2)}]
            with pytest.raises(TypeError):
                canonical_json(held)
            held[1].clear()
            assert canonical_json(held) == _dumps(held)
    assert kinds >= {"dict", "list", "empty dict", "empty list", "NoneType", "bool", "int", "str"}
    for top in ("zoë \"q\"\n", 10**40, -1, [], [None, True, {}]):
        assert canonical_json(top) == _dumps(top)


def test_canonical_json_falls_back_to_the_encoder_without_its_c_speedup():
    """Where `json` has no C encoder, `canonical_json` is the shared
    `JSONEncoder`'s own `encode`, and writes the same text."""
    doc = {"é": [None, True, 10**40, "a\"b"], "a": {}}
    script = (
        "import json, json.encoder, sys\n"
        "json.encoder.c_make_encoder = None\n"
        "from stakesim import scenario\n"
        "assert scenario.canonical_json == scenario._CANONICAL.encode\n"
        "sys.stdout.write(scenario.canonical_json(json.loads(sys.stdin.read())))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(doc), capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == canonical_json(doc) == _dumps(doc)


def test_canonical_object_joins_encoded_fields():
    assert canonical_object({}) == "{}"
    assert canonical_object({"b": "1", "a": "[1,2]", "é": '"x"'}) == '{"a":[1,2],"b":1,"\\u00e9":"x"}'


def test_load_scenario_errors_cite_the_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(missing))
    assert "cannot read scenario" in str(exc.value)
    assert str(missing) == exc.value.path

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,\n  "horizon": }\n')
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(bad))
    assert "invalid JSON at line 2" in str(exc.value)


def test_transactors_collects_every_mention():
    doc = minimal_doc(
        transactions=[
            {"id": "t1", "transactor": "alice", "value": 1, "kind": "pure", "finalized_at": 1}
        ],
        insurance_bids=[
            {"transactor": "bob", "epoch_placed": 0, "coverage": 1, "premium_rate": 0}
        ],
        policies={"carol": "always_secure"},
        adversary={"strategy": {"kind": "none"}, "transactors": ["mallory"]},
    )
    sc = parse_scenario(doc)
    assert sc.transactors() == frozenset({"alice", "bob", "carol", "mallory"})
