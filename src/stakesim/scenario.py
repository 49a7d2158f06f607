"""Scenario documents: the JSON input format of the simulator.

A scenario is JSON-compatible and versioned via `schema_version`. Sections:
timing, econ, validators (optional; synthesized from econ when omitted),
transactions, fork_events, insurance_bids, policies, adversary, plus seed,
horizon and the optional scripted attack_over_epoch. Values may be written
as integers, "p/q" strings, or decimal strings; they are kept exact.

Parse errors cite the offending path ("transactions[2].value: ...").
Serialization is canonical: parse(serialize(x)) == x.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EconParams,
    EpochIndex,
    ForkRevealEvent,
    Tick,
    TimingParams,
    TransactionRecord,
    TxKind,
    ValidatorState,
    build_timeline,
    epoch_of,
)
from .errors import ScenarioError, StakesimError
from .insurance import InsuranceBid
from .policies import AdversaryStrategy, PolicyKind, StrategyKind, default_rule
from .rational import as_fraction, frac_str
from .version import SCHEMA_VERSION

_TOP_KEYS = {
    "schema_version",
    "horizon",
    "seed",
    "timing",
    "econ",
    "validators",
    "transactions",
    "fork_events",
    "insurance_bids",
    "policies",
    "adversary",
    "attack_over_epoch",
}

_TIMING_KEYS = ("t_fin", "t_rev", "t_ws", "t_cr", "slash_delay")
_ECON_KEYS = ("stake_per_validator", "n_validators", "reward", "bribe_fail", "bribe_success", "gamma", "tvl")


@dataclass(frozen=True)
class ForkEventMeta:
    """Simulator-level annotations for one scenario fork event."""

    adversary_wins: bool = True
    bridge_post_delay: int = 0


@dataclass(frozen=True)
class Scenario:
    timeline: ChainTimeline
    timing: TimingParams
    econ: EconParams
    bids: tuple[InsuranceBid, ...]
    policies: dict[str, PolicyKind]
    default_policy: PolicyKind
    strategy: AdversaryStrategy
    adversary_transactors: frozenset[str]
    fork_meta: dict[str, ForkEventMeta]
    attack_over_epoch: Optional[EpochIndex]
    seed: int

    def policy_of(self, transactor: str) -> PolicyKind:
        return self.policies.get(transactor, self.default_policy)

    def transactors(self) -> frozenset[str]:
        ids = {t.transactor for t in self.timeline.transactions}
        ids.update(b.transactor for b in self.bids)
        ids.update(k for k in self.policies)
        ids.update(self.adversary_transactors)
        return frozenset(ids)


def _fail(path: str, message: str):
    raise ScenarioError(message, path=path)


def _rewrap(exc: StakesimError, path: str):
    """Re-raise a domain error met while building the value at `path`. A
    ScenarioError already cites its own, more precise path."""
    if isinstance(exc, ScenarioError):
        raise exc
    _fail(path, str(exc))


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        _fail(path, f"missing required key {key!r}")
    return doc[key]


def _as_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected an integer, got {x!r}")
    return x


def _as_value(x, path: str) -> Fraction:
    try:
        return as_fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        _fail(path, f"not an exact value: {exc}")


def _as_str(x, path: str) -> str:
    if not isinstance(x, str) or not x:
        _fail(path, f"expected a non-empty string, got {x!r}")
    return x


def _as_list(x, path: str) -> list:
    if not isinstance(x, list):
        _fail(path, "expected a list")
    return x


def _check_keys(doc: dict, allowed: set[str], path: str):
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(path, f"unknown keys {unknown}")


def _parse_timing(tdoc: Any, path: str) -> TimingParams:
    """The timing block; t_cr and slash_delay default to 0."""
    _check_keys(tdoc, set(_TIMING_KEYS), path)
    try:
        return TimingParams(
            t_fin=_as_int(_need(tdoc, "t_fin", path), f"{path}.t_fin"),
            t_rev=_as_int(_need(tdoc, "t_rev", path), f"{path}.t_rev"),
            t_ws=_as_int(_need(tdoc, "t_ws", path), f"{path}.t_ws"),
            t_cr=_as_int(tdoc.get("t_cr", 0), f"{path}.t_cr"),
            slash_delay=_as_int(tdoc.get("slash_delay", 0), f"{path}.slash_delay"),
        )
    except StakesimError as exc:
        _rewrap(exc, path)


def _parse_econ(edoc: Any, path: str) -> EconParams:
    """The econ block; every value but the validator set defaults to 0."""
    _check_keys(edoc, set(_ECON_KEYS), path)
    try:
        return EconParams(
            stake_per_validator=_as_value(
                _need(edoc, "stake_per_validator", path), f"{path}.stake_per_validator"
            ),
            n_validators=_as_int(_need(edoc, "n_validators", path), f"{path}.n_validators"),
            reward=_as_value(edoc.get("reward", 0), f"{path}.reward"),
            bribe_fail=_as_value(edoc.get("bribe_fail", 0), f"{path}.bribe_fail"),
            bribe_success=_as_value(edoc.get("bribe_success", 0), f"{path}.bribe_success"),
            gamma=_as_value(edoc.get("gamma", 0), f"{path}.gamma"),
            tvl=_as_value(edoc.get("tvl", 0), f"{path}.tvl"),
        )
    except StakesimError as exc:
        _rewrap(exc, path)


def _exact_block(block: Any, parse, dump, path: str):
    """Parse a block that must already be in canonical form: every key
    present and every value exactly as `dump` writes it back."""
    value = parse(block, path)
    for key, canonical in dump(value).items():
        if key not in block:
            _fail(path, f"missing required key {key!r}")
        if block[key] != canonical:
            _fail(f"{path}.{key}", f"expected canonical {canonical!r}, got {block[key]!r}")
    return value


def parse_run_header(header: dict, path: str) -> tuple[Tick, TimingParams, EconParams]:
    """Horizon, timing and econ of a trace's run_start record.

    Unlike a scenario, a header has no defaults: a missing key or a
    non-canonical value is an error, so re-analysis never silently
    substitutes a value the run did not use.
    """
    return (
        _as_int(_need(header, "horizon", path), f"{path}.horizon"),
        _exact_block(_need(header, "timing", path), _parse_timing, timing_to_doc, f"{path}.timing"),
        _exact_block(_need(header, "econ", path), _parse_econ, econ_to_doc, f"{path}.econ"),
    )


def parse_scenario(doc: Any, *, source: str = "<memory>") -> Scenario:
    """Validate a scenario document and build its immutable objects."""
    _check_keys(doc, _TOP_KEYS, source)
    version = _as_int(_need(doc, "schema_version", source), f"{source}.schema_version")
    if version != SCHEMA_VERSION:
        _fail(f"{source}.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")

    horizon = _as_int(_need(doc, "horizon", source), f"{source}.horizon")
    seed = _as_int(doc.get("seed", 0), f"{source}.seed")

    timing = _parse_timing(_need(doc, "timing", source), f"{source}.timing")
    econ = _parse_econ(_need(doc, "econ", source), f"{source}.econ")

    validators = _parse_validators(doc.get("validators"), econ, f"{source}.validators")

    pdoc = doc.get("policies", {})
    if not isinstance(pdoc, dict):
        _fail(f"{source}.policies", "expected an object mapping transactor to policy")
    policies: dict[str, PolicyKind] = {}
    default_policy = PolicyKind.ALWAYS_SECURE
    for tr, name in pdoc.items():
        try:
            kind = PolicyKind(_as_str(name, f"{source}.policies.{tr}"))
        except ValueError:
            _fail(f"{source}.policies.{tr}", f"unknown policy {name!r}")
        if tr == "*":
            default_policy = kind
        else:
            policies[tr] = kind

    transactions = [
        _parse_transaction(item, timing, policies, default_policy, f"{source}.transactions[{i}]")
        for i, item in enumerate(_as_list(doc.get("transactions", []), f"{source}.transactions"))
    ]

    fork_events = []
    fork_meta: dict[str, ForkEventMeta] = {}
    for i, item in enumerate(_as_list(doc.get("fork_events", []), f"{source}.fork_events")):
        ev, meta = _parse_fork_event(item, timing, f"{source}.fork_events[{i}]")
        fork_events.append(ev)
        fork_meta[ev.id] = meta

    bids = tuple(
        _parse_bid(item, f"{source}.insurance_bids[{i}]")
        for i, item in enumerate(_as_list(doc.get("insurance_bids", []), f"{source}.insurance_bids"))
    )

    adoc = doc.get("adversary", {})
    _check_keys(adoc, {"strategy", "transactors"}, f"{source}.adversary")
    strategy = _parse_strategy(adoc.get("strategy", {"kind": "none"}), f"{source}.adversary.strategy")
    adversary_transactors = frozenset(
        _as_str(t, f"{source}.adversary.transactors[{i}]")
        for i, t in enumerate(_as_list(adoc.get("transactors", []), f"{source}.adversary.transactors"))
    )

    attack_over = doc.get("attack_over_epoch")
    if attack_over is not None:
        attack_over = _as_int(attack_over, f"{source}.attack_over_epoch")
        if attack_over < 0:
            _fail(f"{source}.attack_over_epoch", "must be >= 0")

    try:
        timeline = build_timeline(
            horizon=horizon,
            transactions=transactions,
            fork_events=fork_events,
            validators=validators,
        )
    except StakesimError as exc:
        _rewrap(exc, source)

    return Scenario(
        timeline=timeline,
        timing=timing,
        econ=econ,
        bids=bids,
        policies=policies,
        default_policy=default_policy,
        strategy=strategy,
        adversary_transactors=adversary_transactors,
        fork_meta=fork_meta,
        attack_over_epoch=attack_over,
        seed=seed,
    )


def _parse_validators(vdoc, econ: EconParams, path: str) -> list[ValidatorState]:
    if vdoc is None:
        width = len(str(econ.n_validators))
        return [
            ValidatorState(
                id=f"v{i + 1:0{width}d}",
                stake=econ.stake_per_validator,
                earmarked_fraction=econ.gamma,
            )
            for i in range(econ.n_validators)
        ]
    out = []
    for i, item in enumerate(_as_list(vdoc, path)):
        p = f"{path}[{i}]"
        _check_keys(item, {"id", "stake", "earmarked_fraction", "exit_tick"}, p)
        exit_tick = item.get("exit_tick")
        if exit_tick is not None:
            exit_tick = _as_int(exit_tick, f"{p}.exit_tick")
        try:
            out.append(
                ValidatorState(
                    id=_as_str(_need(item, "id", p), f"{p}.id"),
                    stake=_as_value(_need(item, "stake", p), f"{p}.stake"),
                    earmarked_fraction=_as_value(item.get("earmarked_fraction", 0), f"{p}.earmarked_fraction"),
                    exit_tick=exit_tick,
                )
            )
        except StakesimError as exc:
            _rewrap(exc, p)
    return out


def _parse_transaction(
    item,
    timing: TimingParams,
    policies: dict[str, PolicyKind],
    default_policy: PolicyKind,
    path: str,
) -> TransactionRecord:
    _check_keys(
        item,
        {"id", "transactor", "value", "kind", "finalized_at", "rule", "offchain_executed_at", "insured_epoch"},
        path,
    )
    tx_id = _as_str(_need(item, "id", path), f"{path}.id")
    transactor = _as_str(_need(item, "transactor", path), f"{path}.transactor")
    kind_raw = _as_str(_need(item, "kind", path), f"{path}.kind")
    try:
        kind = TxKind(kind_raw)
    except ValueError:
        _fail(f"{path}.kind", f"unknown kind {kind_raw!r}")
    finalized_at = _as_int(_need(item, "finalized_at", path), f"{path}.finalized_at")

    rule_raw = item.get("rule")
    if rule_raw in (None, "auto"):
        policy = policies.get(transactor, default_policy)
        rule_raw = default_rule(policy)
    try:
        rule = ConfirmationRule(_as_str(rule_raw, f"{path}.rule"))
    except ValueError:
        _fail(f"{path}.rule", f"unknown rule {rule_raw!r}")

    offchain = item.get("offchain_executed_at")
    if offchain is not None:
        offchain = _as_int(offchain, f"{path}.offchain_executed_at")

    insured_epoch = item.get("insured_epoch")
    if insured_epoch is not None:
        insured_epoch = _as_int(insured_epoch, f"{path}.insured_epoch")
    if kind is TxKind.HYBRID and rule is ConfirmationRule.INSURED_IMMEDIATE:
        expected = epoch_of(finalized_at, timing.t_rev)
        if insured_epoch is None:
            insured_epoch = expected
        elif insured_epoch != expected:
            _fail(
                f"{path}.insured_epoch",
                f"{insured_epoch} disagrees with finalization epoch {expected}",
            )

    try:
        return TransactionRecord(
            id=tx_id,
            transactor=transactor,
            value=_as_value(_need(item, "value", path), f"{path}.value"),
            kind=kind,
            finalized_at=finalized_at,
            rule=rule,
            offchain_executed_at=offchain,
            insured_epoch=insured_epoch,
        )
    except StakesimError as exc:
        _rewrap(exc, path)


def _parse_fork_event(item, timing: TimingParams, path: str) -> tuple[ForkRevealEvent, ForkEventMeta]:
    _check_keys(
        item,
        {"id", "diverges_from", "revealed_at", "double_signers", "double_signer_stake",
         "adversary_wins", "bridge_post_delay"},
        path,
    )
    delay = _as_int(item.get("bridge_post_delay", 0), f"{path}.bridge_post_delay")
    if not 0 <= delay <= timing.t_cr:
        _fail(f"{path}.bridge_post_delay", f"must lie in [0, t_cr={timing.t_cr}]")
    wins = item.get("adversary_wins", True)
    if not isinstance(wins, bool):
        _fail(f"{path}.adversary_wins", f"expected a boolean, got {wins!r}")
    signers = _as_list(item.get("double_signers", []), f"{path}.double_signers")
    try:
        ev = ForkRevealEvent(
            id=_as_str(_need(item, "id", path), f"{path}.id"),
            diverges_from_block_finalized_at=_as_int(_need(item, "diverges_from", path), f"{path}.diverges_from"),
            revealed_at=_as_int(_need(item, "revealed_at", path), f"{path}.revealed_at"),
            double_signers=frozenset(_as_str(s, f"{path}.double_signers[{j}]") for j, s in enumerate(signers)),
            double_signer_stake=_as_value(item.get("double_signer_stake", 0), f"{path}.double_signer_stake"),
        )
    except StakesimError as exc:
        _rewrap(exc, path)
    return ev, ForkEventMeta(adversary_wins=wins, bridge_post_delay=delay)


def _parse_bid(item, path: str) -> InsuranceBid:
    _check_keys(item, {"transactor", "epoch_placed", "coverage", "premium_rate"}, path)
    try:
        return InsuranceBid(
            transactor=_as_str(_need(item, "transactor", path), f"{path}.transactor"),
            epoch_placed=_as_int(_need(item, "epoch_placed", path), f"{path}.epoch_placed"),
            coverage_requested=_as_value(_need(item, "coverage", path), f"{path}.coverage"),
            premium_rate=_as_value(_need(item, "premium_rate", path), f"{path}.premium_rate"),
        )
    except StakesimError as exc:
        _rewrap(exc, path)


_STRATEGY_KEYS = {
    "kind", "tick", "target_t0", "stake_fraction", "exited_set",
    "premium_rate", "attack_epoch", "bribe_fail", "bribe_success", "mechanism",
}


def _parse_strategy(item, path: str) -> AdversaryStrategy:
    _check_keys(item, _STRATEGY_KEYS, path)
    kind_raw = _as_str(item.get("kind", "none"), f"{path}.kind")
    try:
        kind = StrategyKind(kind_raw)
    except ValueError:
        _fail(f"{path}.kind", f"unknown strategy {kind_raw!r}")
    kwargs: dict[str, Any] = {"kind": kind}
    if "tick" in item:
        kwargs["tick"] = _as_int(item["tick"], f"{path}.tick")
    if "target_t0" in item:
        kwargs["target_t0"] = _as_int(item["target_t0"], f"{path}.target_t0")
    if "stake_fraction" in item:
        kwargs["stake_fraction"] = _as_value(item["stake_fraction"], f"{path}.stake_fraction")
    if "exited_set" in item:
        exited = _as_list(item["exited_set"], f"{path}.exited_set")
        kwargs["exited_set"] = frozenset(
            _as_str(s, f"{path}.exited_set[{j}]") for j, s in enumerate(exited)
        )
    if "premium_rate" in item:
        kwargs["premium_rate"] = _as_value(item["premium_rate"], f"{path}.premium_rate")
    if "attack_epoch" in item:
        kwargs["attack_epoch"] = _as_int(item["attack_epoch"], f"{path}.attack_epoch")
    if "bribe_fail" in item:
        kwargs["bribe_fail"] = _as_value(item["bribe_fail"], f"{path}.bribe_fail")
    if "bribe_success" in item:
        kwargs["bribe_success"] = _as_value(item["bribe_success"], f"{path}.bribe_success")
    if "mechanism" in item:
        kwargs["mechanism"] = _as_str(item["mechanism"], f"{path}.mechanism")
    try:
        return AdversaryStrategy(**kwargs)
    except StakesimError as exc:
        _rewrap(exc, path)


# -- serialization ----------------------------------------------------------


def scenario_to_doc(sc: Scenario) -> dict:
    """Canonical, normalized document; parse(scenario_to_doc(sc)) == sc."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "horizon": sc.timeline.horizon,
        "seed": sc.seed,
        "timing": timing_to_doc(sc.timing),
        "econ": econ_to_doc(sc.econ),
        "validators": [
            {
                "id": v.id,
                "stake": frac_str(v.stake),
                "earmarked_fraction": frac_str(v.earmarked_fraction),
                "exit_tick": v.exit_tick,
            }
            for v in sc.timeline.validators
        ],
        "transactions": [
            {
                "id": t.id,
                "transactor": t.transactor,
                "value": frac_str(t.value),
                "kind": t.kind.value,
                "finalized_at": t.finalized_at,
                "rule": t.rule.value,
                "offchain_executed_at": t.offchain_executed_at,
                "insured_epoch": t.insured_epoch,
            }
            for t in sc.timeline.transactions
        ],
        "fork_events": [
            {
                "id": e.id,
                "diverges_from": e.diverges_from_block_finalized_at,
                "revealed_at": e.revealed_at,
                "double_signers": sorted(e.double_signers),
                "double_signer_stake": frac_str(e.double_signer_stake),
                "adversary_wins": sc.fork_meta[e.id].adversary_wins,
                "bridge_post_delay": sc.fork_meta[e.id].bridge_post_delay,
            }
            for e in sc.timeline.fork_events
        ],
        "insurance_bids": [
            {
                "transactor": b.transactor,
                "epoch_placed": b.epoch_placed,
                "coverage": frac_str(b.coverage_requested),
                "premium_rate": frac_str(b.premium_rate),
            }
            for b in sc.bids
        ],
        "policies": {
            **{tr: p.value for tr, p in sorted(sc.policies.items())},
            "*": sc.default_policy.value,
        },
        "adversary": {
            "strategy": _strategy_to_doc(sc.strategy),
            "transactors": sorted(sc.adversary_transactors),
        },
        "attack_over_epoch": sc.attack_over_epoch,
    }
    return doc


def timing_to_doc(tp: TimingParams) -> dict:
    """The timing block of a scenario and of a trace's run_start record."""
    return {key: getattr(tp, key) for key in _TIMING_KEYS}


def econ_to_doc(ep: EconParams) -> dict:
    """The econ block of a scenario and of a trace's run_start record."""
    return {
        key: ep.n_validators if key == "n_validators" else frac_str(getattr(ep, key))
        for key in _ECON_KEYS
    }


def _strategy_to_doc(st: AdversaryStrategy) -> dict:
    doc: dict[str, Any] = {"kind": st.kind.value}
    if st.kind is StrategyKind.NONE:
        return doc
    if st.tick is not None:
        doc["tick"] = st.tick
    if st.kind in (StrategyKind.DOUBLE_SIGN_AT, StrategyKind.BRIBERY_PROBE, StrategyKind.LONG_RANGE_AT):
        doc["target_t0"] = st.target_t0
    if st.stake_fraction is not None:
        doc["stake_fraction"] = frac_str(st.stake_fraction)
    if st.exited_set:
        doc["exited_set"] = sorted(st.exited_set)
    if st.premium_rate is not None:
        doc["premium_rate"] = frac_str(st.premium_rate)
    if st.kind is StrategyKind.GRIEVING_BUYOUT:
        doc["attack_epoch"] = st.attack_epoch
    if st.kind is StrategyKind.BRIBERY_PROBE:
        doc["bribe_fail"] = frac_str(st.bribe_fail)
        doc["bribe_success"] = frac_str(st.bribe_success)
        doc["mechanism"] = st.mechanism
    return doc


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def scenario_hash(sc: Scenario) -> str:
    return hashlib.sha256(canonical_json(scenario_to_doc(sc)).encode()).hexdigest()


def read_input(path: str, what: str, parse: Callable[[str], Any] = json.loads) -> Any:
    """The text of one input file, put through `parse` (JSON by default).
    A file that cannot be read as UTF-8 text, or invalid JSON, is a
    ScenarioError citing the file path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what}: {exc}", path=path) from None
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}: {exc.msg}", path=path) from None


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file; errors cite the file path."""
    return parse_scenario(read_input(path, "scenario"), source=path)
