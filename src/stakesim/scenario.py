"""Scenario documents: the JSON input format of the simulator.

A scenario is JSON-compatible and versioned via `schema_version`. Sections:
timing, econ, validators (optional; synthesized from econ when omitted),
transactions, fork_events, insurance_bids, policies, adversary, plus seed,
horizon and the optional scripted attack_over_epoch. Values may be written
as integers, "p/q" strings, or decimal strings; they are kept exact.

Parse errors cite the offending path ("transactions[2].value: ...").
`read_field` is the one checked reader of JSON input: scenarios, trace
records and sweep grid files all go through it. Serialization is
canonical: parse(serialize(x)) == x.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import Any, Callable, Mapping, Optional

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
    epoch_bounds,
    epoch_of,
)
from .econ import Mechanism, bribe_is_dominant
from .errors import InvariantViolationError, ScenarioError, StakesimError
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


# -- the one reader of JSON input ---------------------------------------------

_REQUIRED = object()


def _identity(x: Any) -> Any:
    return x


def read_field(doc: Any, key: str, path: str, parse: Callable = _identity, default: Any = _REQUIRED) -> Any:
    """`doc[key]` read through `parse`, for every JSON document stakesim takes
    in. A `doc` that is not an object is a ScenarioError at `path`; a missing
    key without a `default` (returned unparsed), or a value `parse` rejects
    with TypeError, ValueError or ZeroDivisionError, one at `path.key`."""
    try:
        raw = doc[key]
    except KeyError:
        if default is _REQUIRED:
            raise ScenarioError("missing required key", path=f"{path}.{key}") from None
        return default
    except TypeError:
        raise ScenarioError("expected an object", path=path) from None
    try:
        return parse(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"malformed value {raw!r}: {exc}", path=f"{path}.{key}") from None


def integer(x: Any) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("expected an integer")
    return x


def text(x: Any) -> str:
    if not isinstance(x, str) or not x:
        raise TypeError("expected a non-empty string")
    return x


def listing(x: Any) -> list:
    if not isinstance(x, list):
        raise TypeError("expected a list")
    return x


def _mapping(x: Any) -> dict:
    if not isinstance(x, dict):
        raise TypeError("expected an object")
    return x


def _boolean(x: Any) -> bool:
    if not isinstance(x, bool):
        raise TypeError("expected a boolean")
    return x


def _string_set(x: Any) -> frozenset[str]:
    return frozenset(map(text, listing(x)))


def optional(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """`parse`, letting null through as None."""

    def parse_optional(x: Any) -> Any:
        return None if x is None else parse(x)

    return parse_optional


def _lookup(table: dict, what: str) -> Callable[[Any], Any]:
    """A parser that reads each key of `table` as its value; any other value
    is an unknown `what`."""

    def parse_key(x: Any) -> Any:
        try:
            return table[x]
        except (KeyError, TypeError):
            raise ValueError(f"unknown {what}") from None

    return parse_key


def _members(kind: type) -> dict:
    return {m.value: m for m in kind}


optional_integer = optional(integer)
_optional_listing = optional(listing)
tx_kind = _lookup(_members(TxKind), "kind")
confirmation_rule = _lookup(_members(ConfirmationRule), "rule")
# null or "auto" read as None: the rule of the transactor's policy
_rule_or_auto = _lookup({**_members(ConfirmationRule), "auto": None, None: None}, "rule")
_policy_kind = _lookup(_members(PolicyKind), "policy")
_strategy_kind = _lookup(_members(StrategyKind), "strategy")


def _build(path: str, make: Callable[..., Any], **fields: Any) -> Any:
    """`make(**fields)`, with a domain error it raises cited at `path`. A
    ScenarioError already cites its own, more precise path."""
    try:
        return make(**fields)
    except ScenarioError:
        raise
    except StakesimError as exc:
        raise ScenarioError(str(exc), path=path) from None


def _check_keys(doc: dict, allowed: set[str], path: str):
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(path, f"unknown keys {unknown}")


def _parse_timing(tdoc: Any, path: str) -> TimingParams:
    """The timing block; t_cr and slash_delay default to 0."""
    _check_keys(tdoc, set(_TIMING_KEYS), path)
    return _build(
        path,
        TimingParams,
        t_fin=read_field(tdoc, "t_fin", path, integer),
        t_rev=read_field(tdoc, "t_rev", path, integer),
        t_ws=read_field(tdoc, "t_ws", path, integer),
        t_cr=read_field(tdoc, "t_cr", path, integer, 0),
        slash_delay=read_field(tdoc, "slash_delay", path, integer, 0),
    )


def _parse_econ(edoc: Any, path: str) -> EconParams:
    """The econ block; every value but the validator set defaults to 0."""
    _check_keys(edoc, set(_ECON_KEYS), path)
    return _build(
        path,
        EconParams,
        stake_per_validator=read_field(edoc, "stake_per_validator", path, as_fraction),
        n_validators=read_field(edoc, "n_validators", path, integer),
        reward=read_field(edoc, "reward", path, as_fraction, 0),
        bribe_fail=read_field(edoc, "bribe_fail", path, as_fraction, 0),
        bribe_success=read_field(edoc, "bribe_success", path, as_fraction, 0),
        gamma=read_field(edoc, "gamma", path, as_fraction, 0),
        tvl=read_field(edoc, "tvl", path, as_fraction, 0),
    )


def _exact_block(block: Any, parse, dump, path: str):
    """Parse a block that must already be in canonical form: every key
    present and every value exactly as `dump` writes it back."""
    value = parse(block, path)
    for key, canonical in dump(value).items():
        raw = read_field(block, key, path)
        if raw != canonical:
            _fail(f"{path}.{key}", f"expected canonical {canonical!r}, got {raw!r}")
    return value


def parse_run_header(header: dict, path: str) -> tuple[Tick, TimingParams, EconParams]:
    """Horizon, timing and econ of a trace's run_start record.

    Unlike a scenario, a header has no defaults: a missing key or a
    non-canonical value is an error, so re-analysis never silently
    substitutes a value the run did not use.
    """
    return (
        read_field(header, "horizon", path, integer),
        _exact_block(read_field(header, "timing", path), _parse_timing, timing_to_doc, f"{path}.timing"),
        _exact_block(read_field(header, "econ", path), _parse_econ, econ_to_doc, f"{path}.econ"),
    )


def parse_scenario(doc: Any, *, source: str = "<memory>") -> Scenario:
    """Validate a scenario document and build its immutable objects."""
    _check_keys(doc, _TOP_KEYS, source)
    version = read_field(doc, "schema_version", source, integer)
    if version != SCHEMA_VERSION:
        _fail(f"{source}.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")

    horizon = read_field(doc, "horizon", source, integer)
    seed = read_field(doc, "seed", source, integer, 0)

    timing = _parse_timing(read_field(doc, "timing", source), f"{source}.timing")
    econ = _parse_econ(read_field(doc, "econ", source), f"{source}.econ")

    validators = _parse_validators(
        read_field(doc, "validators", source, _optional_listing, None), econ, f"{source}.validators"
    )

    path = f"{source}.policies"
    pdoc = read_field(doc, "policies", source, _mapping, {})
    policies = {tr: read_field(pdoc, tr, path, _policy_kind) for tr in pdoc}
    default_policy = policies.pop("*", PolicyKind.ALWAYS_SECURE)

    path = f"{source}.transactions"
    transactions = [
        _parse_transaction(item, timing, policies, default_policy, f"{path}[{i}]")
        for i, item in enumerate(read_field(doc, "transactions", source, listing, ()))
    ]

    path = f"{source}.fork_events"
    fork_events = []
    fork_meta: dict[str, ForkEventMeta] = {}
    for i, item in enumerate(read_field(doc, "fork_events", source, listing, ())):
        ev, meta = _parse_fork_event(item, timing, f"{path}[{i}]")
        fork_events.append(ev)
        fork_meta[ev.id] = meta

    path = f"{source}.insurance_bids"
    bids = tuple(
        _parse_bid(item, f"{path}[{i}]")
        for i, item in enumerate(read_field(doc, "insurance_bids", source, listing, ()))
    )

    path = f"{source}.adversary"
    adoc = read_field(doc, "adversary", source, default={})
    _check_keys(adoc, {"strategy", "transactors"}, path)
    strategy = _parse_strategy(read_field(adoc, "strategy", path, default={}), f"{path}.strategy")
    adversary_transactors = read_field(adoc, "transactors", path, _string_set, frozenset())

    attack_over = read_field(doc, "attack_over_epoch", source, optional_integer, None)
    if attack_over is not None and attack_over < 0:
        _fail(f"{source}.attack_over_epoch", "must be >= 0")

    timeline = _build(
        source, build_timeline, horizon=horizon, transactions=transactions, fork_events=fork_events,
        validators=validators,
    )
    sc = Scenario(
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
    # the scripted fork must fit the chain `run` will build it into, beside
    # the scenario's own fork events
    _build(
        f"{source}.adversary.strategy",
        lambda: build_timeline(
            horizon=horizon,
            fork_events=list(timeline.fork_events) + strategy_events(sc)[0],
            validators=validators,
        ),
    )
    return sc


def _parse_validators(vdoc: Optional[list], econ: EconParams, path: str) -> list[ValidatorState]:
    if vdoc is None:
        width = len(str(econ.n_validators))
        return [
            ValidatorState(id=f"v{i + 1:0{width}d}", stake=econ.stake_per_validator, earmarked_fraction=econ.gamma)
            for i in range(econ.n_validators)
        ]
    out = []
    for i, item in enumerate(vdoc):
        p = f"{path}[{i}]"
        _check_keys(item, {"id", "stake", "earmarked_fraction", "exit_tick"}, p)
        out.append(
            _build(
                p,
                ValidatorState,
                id=read_field(item, "id", p, text),
                stake=read_field(item, "stake", p, as_fraction),
                earmarked_fraction=read_field(item, "earmarked_fraction", p, as_fraction, 0),
                exit_tick=read_field(item, "exit_tick", p, optional_integer, None),
            )
        )
    return out


def _parse_transaction(
    item, timing: TimingParams, policies: dict[str, PolicyKind], default_policy: PolicyKind, path: str
) -> TransactionRecord:
    _check_keys(
        item,
        {"id", "transactor", "value", "kind", "finalized_at", "rule", "offchain_executed_at", "insured_epoch"},
        path,
    )
    tx_id = read_field(item, "id", path, text)
    transactor = read_field(item, "transactor", path, text)
    kind = read_field(item, "kind", path, tx_kind)
    finalized_at = read_field(item, "finalized_at", path, integer)
    rule = read_field(item, "rule", path, _rule_or_auto, None)
    if rule is None:
        rule = default_rule(policies.get(transactor, default_policy))
    offchain = read_field(item, "offchain_executed_at", path, optional_integer, None)

    insured_epoch = read_field(item, "insured_epoch", path, optional_integer, None)
    if kind is TxKind.HYBRID and rule is ConfirmationRule.INSURED_IMMEDIATE:
        expected = epoch_of(finalized_at, timing.t_rev)
        if insured_epoch is None:
            insured_epoch = expected
        elif insured_epoch != expected:
            _fail(f"{path}.insured_epoch", f"{insured_epoch} disagrees with finalization epoch {expected}")

    return _build(
        path,
        TransactionRecord,
        id=tx_id,
        transactor=transactor,
        value=read_field(item, "value", path, as_fraction),
        kind=kind,
        finalized_at=finalized_at,
        rule=rule,
        offchain_executed_at=offchain,
        insured_epoch=insured_epoch,
    )


def _parse_fork_event(item, timing: TimingParams, path: str) -> tuple[ForkRevealEvent, ForkEventMeta]:
    _check_keys(
        item,
        {"id", "diverges_from", "revealed_at", "double_signers", "double_signer_stake",
         "adversary_wins", "bridge_post_delay"},
        path,
    )
    delay = read_field(item, "bridge_post_delay", path, integer, 0)
    if not 0 <= delay <= timing.t_cr:
        _fail(f"{path}.bridge_post_delay", f"must lie in [0, t_cr={timing.t_cr}]")
    wins = read_field(item, "adversary_wins", path, _boolean, True)
    ev = _build(
        path,
        ForkRevealEvent,
        id=read_field(item, "id", path, text),
        diverges_from_block_finalized_at=read_field(item, "diverges_from", path, integer),
        revealed_at=read_field(item, "revealed_at", path, integer),
        double_signers=read_field(item, "double_signers", path, _string_set, frozenset()),
        double_signer_stake=read_field(item, "double_signer_stake", path, as_fraction, 0),
    )
    return ev, ForkEventMeta(adversary_wins=wins, bridge_post_delay=delay)


def _parse_bid(item, path: str) -> InsuranceBid:
    _check_keys(item, {"transactor", "epoch_placed", "coverage", "premium_rate"}, path)
    return _build(
        path,
        InsuranceBid,
        transactor=read_field(item, "transactor", path, text),
        epoch_placed=read_field(item, "epoch_placed", path, integer),
        coverage_requested=read_field(item, "coverage", path, as_fraction),
        premium_rate=read_field(item, "premium_rate", path, as_fraction),
    )


# The fields each strategy kind takes, as (parser, serializer) pairs; any
# other field is an unknown key.
_INTEGER = (integer, _identity)
_VALUE = (as_fraction, frac_str)
_TARGET = {"tick": _INTEGER, "target_t0": _INTEGER}
_SIGNED = {**_TARGET, "stake_fraction": _VALUE}
_STRATEGY_FIELDS = {
    StrategyKind.NONE: {},
    StrategyKind.DOUBLE_SIGN_AT: _SIGNED,
    StrategyKind.LONG_RANGE_AT: {**_TARGET, "exited_set": (_string_set, sorted)},
    StrategyKind.GRIEVING_BUYOUT: {"premium_rate": _VALUE, "attack_epoch": _INTEGER},
    StrategyKind.BRIBERY_PROBE: {
        **_SIGNED, "bribe_fail": _VALUE, "bribe_success": _VALUE, "mechanism": (text, _identity)
    },
}


def _parse_strategy(item, path: str) -> AdversaryStrategy:
    kind = read_field(item, "kind", path, _strategy_kind, StrategyKind.NONE)
    fields = _STRATEGY_FIELDS[kind]
    _check_keys(item, {"kind", *fields}, path)
    return _build(
        path,
        AdversaryStrategy,
        kind=kind,
        **{name: read_field(item, name, path, parse) for name, (parse, _) in fields.items() if name in item},
    )


# -- the adversary's scripted fork --------------------------------------------


def _select_signers(validators: tuple[ValidatorState, ...], fraction: Fraction) -> frozenset[str]:
    """Smallest id-ordered prefix of validators holding >= fraction of stake."""
    held = list(accumulate(map(attrgetter("stake"), validators), initial=Fraction(0)))
    total = held[-1]
    n = bisect_left(held, fraction * total)  # stakes are positive, so `held` rises
    if held[n] <= EconParams.adversary_threshold * total:
        raise InvariantViolationError(f"adversary controls {held[n]} of {total}, not enough to equivocate")
    return frozenset(map(attrgetter("id"), validators[:n]))


_ATTACK_EVENT_IDS = {
    StrategyKind.DOUBLE_SIGN_AT: "atk-double-sign",
    StrategyKind.LONG_RANGE_AT: "atk-long-range",
    StrategyKind.GRIEVING_BUYOUT: "atk-grieving",
    StrategyKind.BRIBERY_PROBE: "atk-bribery",
}


def strategy_events(sc: Scenario) -> tuple[list[ForkRevealEvent], dict[str, ForkEventMeta], Optional[dict]]:
    """Forge the adversary's scripted fork reveal, if its strategy has one.

    Returns (events, their meta, optional probe log payload).
    """
    st, tp, validators = sc.strategy, sc.timing, sc.timeline.validators
    log = None
    if st.kind is StrategyKind.NONE:
        return [], {}, None

    if st.kind is StrategyKind.BRIBERY_PROBE:
        # attack only if the bribe schedule actually dominates
        ep_probe = replace(sc.econ, bribe_fail=st.bribe_fail, bribe_success=st.bribe_success)
        mech = Mechanism(st.mechanism)
        dominant = bribe_is_dominant(mech, ep_probe)
        log = {
            "mechanism": mech.value,
            "bribe_fail": frac_str(st.bribe_fail),
            "bribe_success": frac_str(st.bribe_success),
            "dominant": dominant,
            "attack_proceeds": dominant,
        }
        if not dominant:
            return [], {}, log

    if st.kind is StrategyKind.GRIEVING_BUYOUT:
        # every controlled validator double-signs in the scripted epoch's
        # ambiguous window; the buyout itself happens at auction time
        t0 = epoch_bounds(st.attack_epoch, tp.t_rev)[0]
        revealed, signers = t0 + tp.t_fin, frozenset(v.id for v in validators)
    elif st.kind is StrategyKind.LONG_RANGE_AT:
        t0, revealed, signers = st.target_t0, st.tick, st.exited_set
    else:  # DOUBLE_SIGN_AT, or a dominant BRIBERY_PROBE
        t0, revealed, signers = st.target_t0, st.tick, _select_signers(validators, st.stake_fraction)
    ev = ForkRevealEvent(
        id=_ATTACK_EVENT_IDS[st.kind],
        diverges_from_block_finalized_at=t0,
        revealed_at=revealed,
        double_signers=signers,
    )
    return [ev], {ev.id: ForkEventMeta(adversary_wins=True)}, log


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
    for name, (_, dump) in _STRATEGY_FIELDS[st.kind].items():
        value = getattr(st, name)
        if value or name != "exited_set":  # an empty exited_set is left out
            doc[name] = dump(value)
    return doc


# one encoder for every call: `json.dumps` with non-default arguments builds a new one each time
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(doc: Any) -> str:
    return _CANONICAL.encode(doc)


def canonical_object(fields: Mapping[str, str]) -> str:
    """`canonical_json` of an object whose values are given already encoded.

    The keys (strings) are encoded by `canonical_json` and sorted as it
    sorts them, so `canonical_object({k: canonical_json(v) for k, v in
    doc.items()}) == canonical_json(doc)`."""
    return "{" + ",".join(f"{canonical_json(key)}:{value}" for key, value in sorted(fields.items())) + "}"


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
