"""Scenario documents: the JSON input format of the simulator.

A scenario is JSON-compatible and versioned via `schema_version`. Sections:
timing, econ, validators (optional; synthesized from econ when omitted),
transactions, fork_events, insurance_bids, policies, adversary, plus seed,
horizon and the optional scripted attack_over_epoch. Values may be written
as integers, "p/q" strings, or decimal strings; they are kept exact.

Each block, the document included, is one ordered table of fields (JSON
key, attribute, parser, serializer, default) that gives its allowed keys,
its reader and its writer; only cross-field rules are written by hand.
Each trace record or report entry whose payload is one object's fields (a
finalized transaction, a lot, a settlement, ...) is written through that
object's table too, and `analyze` reads it back through the same table.

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
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, Optional

from .chain import (
    ChainTimeline,
    ConfirmationRule,
    EconParams,
    EpochIndex,
    ForkRevealEvent,
    PfcKind,
    Tick,
    TimingParams,
    TransactionRecord,
    TxKind,
    ValidatorState,
    build_timeline,
    epoch_bounds,
)
from .confirmation import ConfirmationDecision, DecisionStatus
from .econ import Mechanism, PfcBound, bribe_is_dominant
from .errors import InvariantViolationError, ScenarioError, StakesimError
from .insurance import PURCHASE_LEAD_EPOCHS, Claim, InsuranceBid
from .rational import as_fraction, exact_sum, frac_str
from .version import SCHEMA_VERSION


class StrategyKind(str, Enum):
    NONE = "none"
    DOUBLE_SIGN_AT = "double_sign_at"
    LONG_RANGE_AT = "long_range_at"
    GRIEVING_BUYOUT = "grieving_buyout"
    BRIBERY_PROBE = "bribery_probe"


@dataclass(frozen=True)
class AdversaryStrategy:
    """One scripted adversary. Which fields matter depends on `kind`.

    DOUBLE_SIGN_AT: reveal a double-signed fork at `tick`, diverging from
        the block finalized at `target_t0`, signed by validators holding
        `stake_fraction` of total stake (must exceed 1/3).
    LONG_RANGE_AT: reveal a fork at `tick` against an ancient block
        (`target_t0`, default 0) signed by the already-exited `exited_set`.
    GRIEVING_BUYOUT: bid for the entire available coverage every epoch at
        `premium_rate`, then double-sign inside `attack_epoch`'s ambiguous
        window with every controlled validator.
    BRIBERY_PROBE: evaluate whether bribes (bribe_fail, bribe_success) make
        defection dominant under `mechanism`; run the scripted double-sign
        only if they do, and log the evaluation either way.
    """

    kind: StrategyKind = StrategyKind.NONE
    tick: Optional[Tick] = None
    target_t0: Tick = 0
    stake_fraction: Optional[Fraction] = None
    exited_set: frozenset[str] = frozenset()
    premium_rate: Optional[Fraction] = None
    attack_epoch: EpochIndex = 2
    bribe_fail: Optional[Fraction] = None
    bribe_success: Optional[Fraction] = None
    mechanism: Mechanism = Mechanism.SLASHING

    def __post_init__(self):
        if type(self.kind) is not StrategyKind:
            object.__setattr__(self, "kind", StrategyKind(self.kind))
        if type(self.mechanism) is not Mechanism:
            object.__setattr__(self, "mechanism", Mechanism(self.mechanism))
        if type(self.exited_set) is not frozenset:
            object.__setattr__(self, "exited_set", frozenset(self.exited_set))
        for name in ("stake_fraction", "premium_rate", "bribe_fail", "bribe_success"):
            v = getattr(self, name)
            if v is not None and type(v) is not Fraction:
                object.__setattr__(self, name, as_fraction(v))
        k = self.kind
        if k in (StrategyKind.DOUBLE_SIGN_AT, StrategyKind.LONG_RANGE_AT, StrategyKind.BRIBERY_PROBE):
            if self.tick is None:
                raise InvariantViolationError(f"strategy {k.value}: tick is required")
        if k in (StrategyKind.DOUBLE_SIGN_AT, StrategyKind.BRIBERY_PROBE):
            f = self.stake_fraction
            if f is None or not EconParams.adversary_threshold < f <= 1:
                raise InvariantViolationError(
                    f"strategy {k.value}: stake_fraction must lie in (1/3, 1]"
                )
        if k is StrategyKind.GRIEVING_BUYOUT:
            if self.premium_rate is None or self.premium_rate.numerator < 0:
                raise InvariantViolationError("grieving_buyout: premium_rate must be >= 0")
            if self.attack_epoch < PURCHASE_LEAD_EPOCHS:
                raise InvariantViolationError(
                    f"grieving_buyout: attack_epoch must be >= {PURCHASE_LEAD_EPOCHS} "
                    "(coverage cannot start earlier)"
                )
        if k is StrategyKind.BRIBERY_PROBE:
            if self.bribe_fail is None or self.bribe_success is None:
                raise InvariantViolationError("bribery_probe: both bribe values are required")


@dataclass(frozen=True)
class Adversary:
    """The scripted adversary and the transactors it controls."""

    strategy: AdversaryStrategy = AdversaryStrategy()
    transactors: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Scenario:
    timeline: ChainTimeline
    timing: TimingParams
    econ: EconParams
    bids: tuple[InsuranceBid, ...]
    policies: Mapping[str, ConfirmationRule]  # default rule by transactor, and under "*" of every other
    adversary: Adversary
    attack_over_epoch: Optional[EpochIndex]
    seed: int
    schema_version: ClassVar[int] = SCHEMA_VERSION

    @cached_property
    def _hash(self) -> str:
        """`scenario_hash` of this scenario, computed on its first call and
        kept on this object only, outside the fields, so equality and
        `replace` ignore it (a `replace`d scenario hashes anew)."""
        return hashlib.sha256(canonical_json(scenario_to_doc(self)).encode()).hexdigest()

    @cached_property
    def _scripted(self) -> tuple[list[ForkRevealEvent], Optional[dict]]:
        """`strategy_events` of this scenario, which `parse_scenario` checks
        and `run` builds into its chain, worked out once and kept as `_hash`
        is. Neither reader edits the list or the probe log."""
        return strategy_events(self)

    def transactors(self) -> frozenset[str]:
        ids = {t.transactor for t in self.timeline.transactions}
        ids.update(b.transactor for b in self.bids)
        ids.update(self.policies.keys() - {"*"})
        ids.update(self.adversary.transactors)
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
    except ScenarioError as exc:  # a nested block's, whose path is relative to this key
        raise ScenarioError(exc.message, path=f"{path}.{key}{exc.path}") from None


def read_object(doc: Any, path: str) -> dict:
    """`doc`, which must be a JSON object; anything else is a ScenarioError at `path`."""
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    return doc


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
tx_kind = _lookup(_members(TxKind), "kind")
confirmation_rule = _lookup(_members(ConfirmationRule), "rule")


def _build(path: str, make: Callable[..., Any], **fields: Any) -> Any:
    """`make(**fields)`, with a domain error it raises cited at `path`. A
    ScenarioError already cites its own, more precise path."""
    try:
        return make(**fields)
    except ScenarioError:
        raise
    except StakesimError as exc:
        raise ScenarioError(str(exc), path=path) from None


# -- the field tables ---------------------------------------------------------
#
# Each block of a scenario is one ordered table of fields. A field's codec is
# the (parser, serializer) pair between its JSON value and its attribute.

_INTEGER = (integer, _identity)
_OPTIONAL_INTEGER = (optional_integer, _identity)
_TEXT = (text, _identity)
_VALUE = (as_fraction, frac_str)
_BOOLEAN = (_boolean, _identity)
_IDS = (_string_set, sorted)
_ZERO = Fraction(0)  # the default of a value key
_value_of = attrgetter("value")


class _Field(NamedTuple):
    """One key of a block: its JSON `key`, its `codec`, its `default` when
    the key is absent (or `_REQUIRED`), and the attribute it fills, if that
    is not named `key`. A default is the attribute's value as the parser
    would give it, so that the block's `make` has nothing to coerce."""

    key: str
    codec: tuple[Callable[[Any], Any], Callable[[Any], Any]]
    default: Any = _REQUIRED
    attr: str = ""

    def read(self, doc: Any, path: str) -> Any:
        return read_field(doc, self.key, path, self.codec[0], self.default)


class _Block:
    """A block's field table and the object `make` builds from it, with its
    key check, reader and writer planned once, when the table is made."""

    def __init__(self, make: Callable[..., Any], *fields: _Field):
        self.make = make
        self.fields = fields
        self.keys = frozenset(f.key for f in fields)
        attrs = tuple(f.attr or f.key for f in fields)
        self._reads = tuple((f.key, attr, f.codec[0], f.default) for f, attr in zip(fields, attrs))
        self._keys = tuple(f.key for f in fields)
        get = attrgetter(*attrs)
        self._values = get if len(attrs) > 1 else lambda obj: (get(obj),)
        # the writer copies every attribute, then serializes those whose
        # value is not already its JSON
        self._dumps = tuple((f.key, f.codec[1]) for f in fields if f.codec[1] is not _identity)

    def read(self, doc: Any, path: str, allowed: Optional[frozenset[str]] = None) -> dict[str, Any]:
        """{attribute: value} of every field of `doc`, an object with no key
        outside `allowed` (the block's own keys unless given)."""
        read_object(doc, path)
        allowed = allowed or self.keys
        if not doc.keys() <= allowed:
            _fail(path, f"unknown keys {sorted(doc.keys() - allowed)}")
        fields = {}
        for key, attr, parse, default in self._reads:
            if default is _REQUIRED or key in doc:
                fields[attr] = read_field(doc, key, path, parse, default)
            else:
                fields[attr] = default
        return fields

    def parse(self, doc: Any, path: str, allowed: Optional[frozenset[str]] = None, **given: Any) -> Any:
        """`make` of the fields `read` gives and of any `given` beside them,
        its domain errors cited at `path`."""
        return _build(path, self.make, **self.read(doc, path, allowed), **given)

    def write(self, obj: Any) -> dict[str, Any]:
        """The block's document for `obj`, which has every field's attribute."""
        doc = dict(zip(self._keys, self._values(obj)))
        for key, dump in self._dumps:
            doc[key] = dump(doc[key])
        return doc

    def field(self, key: str) -> _Field:
        return next(f for f in self.fields if f.key == key)


def _one(block: _Block) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """The codec of one of `block`'s objects, its errors cited below its key."""
    return lambda doc: block.parse(doc, ""), block.write


def _write_each(block: _Block) -> Callable[[Any], list]:
    return lambda objs: list(map(block.write, objs))


def _each(block: _Block) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """The codec of a list of `block`'s objects; an item is cited by its index."""

    def parse(items: Any) -> tuple:
        return tuple(block.parse(item, f"[{i}]") for i, item in enumerate(listing(items)))

    return parse, _write_each(block)


# the timing and econ blocks of a scenario and of a trace's run_start record
TIMING = _Block(
    TimingParams,
    _Field("t_fin", _INTEGER),
    _Field("t_rev", _INTEGER),
    _Field("t_ws", _INTEGER),
    _Field("t_cr", _INTEGER, 0),
    _Field("slash_delay", _INTEGER, 0),
)
ECON = _Block(
    EconParams,
    _Field("stake_per_validator", _VALUE),
    _Field("n_validators", _INTEGER),
    _Field("reward", _VALUE, _ZERO),
    _Field("bribe_fail", _VALUE, _ZERO),
    _Field("bribe_success", _VALUE, _ZERO),
    _Field("gamma", _VALUE, _ZERO),
    _Field("tvl", _VALUE, _ZERO),
)
_VALIDATOR = _Block(
    ValidatorState,
    _Field("id", _TEXT),
    _Field("stake", _VALUE),
    _Field("earmarked_fraction", _VALUE, _ZERO),
    _Field("exit_tick", _OPTIONAL_INTEGER, None),
)
# a null or "auto" rule reads as None: the rule of the transactor's policy
_RULE = (_lookup({**_members(ConfirmationRule), "auto": None, None: None}, "rule"), _value_of)
_TRANSACTION = _Block(
    TransactionRecord,
    _Field("id", _TEXT),
    _Field("transactor", _TEXT),
    _Field("value", _VALUE),
    _Field("kind", (tx_kind, _value_of)),
    _Field("finalized_at", _INTEGER),
    _Field("rule", _RULE, None),
    _Field("offchain_executed_at", _OPTIONAL_INTEGER, None),
)
# a `fork_reveal` record, and a scenario's fork event, which adds how the
# reveal plays out
FORK_EVENT = _Block(
    ForkRevealEvent,
    _Field("id", _TEXT),
    _Field("diverges_from", _INTEGER, attr="diverges_from_block_finalized_at"),
    _Field("revealed_at", _INTEGER),
    _Field("double_signers", _IDS, frozenset()),
    _Field("double_signer_stake", _VALUE, _ZERO),
)
_FORK = _Block(
    ForkRevealEvent,
    *FORK_EVENT.fields,
    _Field("adversary_wins", _BOOLEAN, True),
    _Field("bridge_post_delay", _INTEGER, 0),
)
_BID = _Block(
    InsuranceBid,
    _Field("transactor", _TEXT),
    _Field("epoch_placed", _INTEGER),
    _Field("coverage", _VALUE, attr="coverage_requested"),
    _Field("premium_rate", _VALUE),
)

# Each strategy kind takes `kind` and its own fields; any other field is an
# unknown key. A field its kind needs but the document leaves out reads as
# None, and `AdversaryStrategy` rejects it.
_KIND = _Field("kind", (_lookup(_members(StrategyKind), "strategy"), _value_of), StrategyKind.NONE)
_TARGET = (_Field("tick", _INTEGER, None), _Field("target_t0", _INTEGER, 0))
_SIGNED = (*_TARGET, _Field("stake_fraction", _VALUE, None))
_STRATEGIES = {
    kind: _Block(AdversaryStrategy, _KIND, *fields)
    for kind, fields in {
        StrategyKind.NONE: (),
        StrategyKind.DOUBLE_SIGN_AT: _SIGNED,
        StrategyKind.LONG_RANGE_AT: (*_TARGET, _Field("exited_set", _IDS, frozenset())),
        StrategyKind.GRIEVING_BUYOUT: (_Field("premium_rate", _VALUE, None), _Field("attack_epoch", _INTEGER, 2)),
        StrategyKind.BRIBERY_PROBE: (
            *_SIGNED,
            _Field("bribe_fail", _VALUE, None),
            _Field("bribe_success", _VALUE, None),
            _Field("mechanism", (_lookup(_members(Mechanism), "mechanism"), _value_of), Mechanism.SLASHING),
        ),
    }.items()
}


def _strategy(doc: Any) -> AdversaryStrategy:
    return _STRATEGIES[_KIND.read(doc, "")].parse(doc, "")


def _strategy_to_doc(st: AdversaryStrategy) -> dict:
    doc = _STRATEGIES[st.kind].write(st)
    if not st.exited_set:  # an empty exited_set is left out
        doc.pop("exited_set", None)
    return doc


_ADVERSARY = _Block(
    Adversary,
    _Field("strategy", (_strategy, _strategy_to_doc), AdversaryStrategy()),
    _Field("transactors", _IDS, frozenset()),
)


def _schema_version(x: Any) -> int:
    if integer(x) != SCHEMA_VERSION:
        _fail("", f"unsupported version {x}, expected {SCHEMA_VERSION}")
    return x


# each policy a document may name, and the default rule it stands for
_POLICIES = {
    "always_secure": ConfirmationRule.SECURE_RULE,
    "insured_fast_ux": ConfirmationRule.INSURED_IMMEDIATE,
    "uninsured_freerider": ConfirmationRule.IMMEDIATE,
    "bridge_client": ConfirmationRule.BRIDGE_RULE,
}
_POLICY_NAMES = {rule: name for name, rule in _POLICIES.items()}
_policy = _lookup(_POLICIES, "policy")


class _Policies(Mapping):
    """A parsed scenario's default rule by transactor, read-only: a plain
    dict behind the `Mapping` accessors, so a `Scenario` pickles. `get`
    goes straight to the dict, as each transaction's parse asks it."""

    def __init__(self, rules: dict[str, ConfirmationRule]):
        self._rules = rules

    def __getitem__(self, transactor: str) -> ConfirmationRule:
        return self._rules[transactor]

    def get(self, transactor: str, default: Any = None) -> Any:
        return self._rules.get(transactor, default)

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return repr(self._rules)


def _policies(doc: Any) -> Mapping[str, ConfirmationRule]:
    named = {tr: read_field(doc, tr, "", _policy) for tr in _mapping(doc)}
    return _Policies({"*": ConfirmationRule.SECURE_RULE, **named})


def _policies_to_doc(policies: Mapping[str, ConfirmationRule]) -> dict:
    return {tr: _POLICY_NAMES[rule] for tr, rule in sorted(policies.items())}


# the document itself, each key one attribute of a `Scenario`. Its lists of
# validators, transactions and fork events are parsed in `parse_scenario`,
# in the order their cross-field checks need.
_DOCUMENT = _Block(
    dict,
    _Field("schema_version", (_schema_version, _identity)),
    _Field("horizon", _INTEGER, attr="timeline.horizon"),
    _Field("seed", _INTEGER, 0),
    _Field("timing", _one(TIMING)),
    _Field("econ", _one(ECON)),
    _Field("validators", (optional(listing), _write_each(_VALIDATOR)), None, "timeline.validators"),
    _Field("transactions", (listing, _write_each(_TRANSACTION)), (), "timeline.transactions"),
    _Field("fork_events", (listing, _write_each(_FORK)), (), "timeline.fork_events"),
    _Field("insurance_bids", _each(_BID), (), "bids"),
    _Field("policies", (_policies, _policies_to_doc), _policies({})),
    _Field("adversary", _one(_ADVERSARY), Adversary()),
    _Field("attack_over_epoch", _OPTIONAL_INTEGER, None),
)


# -- the output tables --------------------------------------------------------
#
# `make` is the object's class where the keys rebuild it, and `dict` where
# a key is derived (a settlement's paid and burned, an entry's net), an
# object lies below it (the verdict's bound) or another record holds the
# rest (a lot's epoch and share map are its auction's).

_RULE_VALUE = (confirmation_rule, _value_of)
_STATUS = (_lookup(_members(DecisionStatus), "status"), _value_of)
_BOUND_KIND = (_lookup(_members(PfcKind), "bound kind"), _value_of)


def _values(*keys: str) -> tuple[_Field, ...]:
    return tuple(_Field(key, _VALUE) for key in keys)


# a `tx_finalized` record: its tick is `finalized_at`, and it adds `rule_requested`
TX_FINALIZED = _Block(
    TransactionRecord,
    _Field("id", _TEXT),
    _Field("transactor", _TEXT),
    _Field("value", _VALUE),
    _Field("tx_kind", (tx_kind, _value_of), attr="kind"),
    _Field("rule_effective", _RULE_VALUE, attr="rule"),
)
# a lot of an `auction` record, as the auction sold it
LOT = _Block(dict, _Field("id", _TEXT), _Field("buyer", _TEXT), *_values("coverage", "premium_rate"))
# a share map, which an `auction` record writes at the first sale under it:
# a lot's backing is its coverage times each share of the map last written
_SHARE_MAP = (
    lambda doc: {v: as_fraction(share) for v, share in _mapping(doc).items()},
    lambda shares: {v: frac_str(share) for v, share in shares.items()},
)
SHARES = _Block(dict, _Field("shares", _SHARE_MAP))
# a `settlement` record and a report's settlement entry
_CLAIM = _Block(
    Claim, _Field("transactor", _TEXT), _Field("covering_epoch", _INTEGER), *_values("harm", "capped", "paid")
)
SETTLEMENT = _Block(
    dict,
    _Field("event", _TEXT, attr="event_id"),
    *_values("slashed", "insurance_budget"),
    _Field("paid", _VALUE, attr="paid_total"),
    _Field("burned", _VALUE),
    _Field("breach", _BOOLEAN, attr="invariant_breach"),
    _Field("claims", _each(_CLAIM)),
)
# a `decision` record adds its `tx`; a bridge decision adds its naive foil's
DECISION = _Block(
    ConfirmationDecision,
    _Field("rule", _RULE_VALUE),
    _Field("status", _STATUS),
    _Field("earliest", _OPTIONAL_INTEGER, attr="earliest_offchain_tick"),
)
NAIVE_DECISION = _Block(
    dict,
    _Field("naive_status", _STATUS, attr="status"),
    _Field("naive_earliest", _OPTIONAL_INTEGER, attr="earliest_offchain_tick"),
)
# the report's ladder rungs, verdict and karma section (also the `karma` record)
PFC_BOUND = _Block(
    PfcBound, _Field("kind", _BOUND_KIND), _Field("value", _VALUE), _Field("witness_window_start", _OPTIONAL_INTEGER)
)
VERDICT = _Block(
    dict,
    _Field("bound_kind", _BOUND_KIND),
    _Field("coc", _VALUE),
    _Field("pfc_value", _VALUE, attr="pfc.value"),
    *(_Field(key, _BOOLEAN) for key in ("cryptoeconomically_safe", "strong_safety", "uninsured_buffer_ok")),
)
_KARMA_ENTRY = _Block(
    dict,
    _Field("party", _TEXT),
    *_values("premiums_paid", "premiums_earned", "compensation", "harm", "slashed", "net"),
)
KARMA = _Block(
    dict,
    _Field("parties", _each(_KARMA_ENTRY), attr="entries"),
    _Field("adversary_parties", _IDS),
    *_values("double_spend_gain", "adversary_net"),
)


# -- parsing ------------------------------------------------------------------


def _exact_block(doc: Any, block: _Block, path: str):
    """Parse a block that must already be in canonical form: every key
    present and every value exactly as the block writes it back."""
    value = block.parse(doc, path)
    for key, canonical in block.write(value).items():
        raw = read_field(doc, key, path)
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
        _exact_block(read_field(header, "timing", path), TIMING, f"{path}.timing"),
        _exact_block(read_field(header, "econ", path), ECON, f"{path}.econ"),
    )


def parse_scenario(doc: Any, *, source: str = "<memory>") -> Scenario:
    """Validate a scenario document and build its immutable objects."""
    top = _DOCUMENT.read(doc, source)
    del top["schema_version"]  # its parser checks it: every `Scenario` has the one version
    horizon, timing = top.pop("timeline.horizon"), top["timing"]

    validators = _parse_validators(top.pop("timeline.validators"), top["econ"], f"{source}.validators")

    path = f"{source}.transactions"
    transactions = [
        _parse_transaction(item, top["policies"], f"{path}[{i}]")
        for i, item in enumerate(top.pop("timeline.transactions"))
    ]

    path = f"{source}.fork_events"
    fork_events = [
        _parse_fork_event(item, timing, f"{path}[{i}]") for i, item in enumerate(top.pop("timeline.fork_events"))
    ]

    if top["attack_over_epoch"] is not None and top["attack_over_epoch"] < 0:
        _fail(f"{source}.attack_over_epoch", "must be >= 0")

    timeline = _build(
        source, build_timeline, horizon=horizon, transactions=transactions, fork_events=fork_events,
        validators=validators,
    )
    sc = Scenario(timeline=timeline, **top)
    # the scripted fork must fit the chain `run` will build it into, beside
    # the scenario's own fork events
    _build(
        f"{source}.adversary.strategy",
        lambda: build_timeline(
            horizon=horizon,
            fork_events=list(timeline.fork_events) + sc._scripted[0],
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
    validators = [_VALIDATOR.parse(item, f"{path}[{i}]") for i, item in enumerate(vdoc)]
    # the cost of corruption and the insurance cap read econ's total, and a
    # slash takes the listed stakes: the two must be one total
    listed = exact_sum(v.stake for v in validators)
    if listed != econ.s_tot:
        _fail(
            path,
            f"stakes sum to {frac_str(listed)}, not stake_per_validator * n_validators = {frac_str(econ.s_tot)}",
        )
    return validators


def _parse_transaction(item, policies: Mapping[str, ConfirmationRule], path: str) -> TransactionRecord:
    fields = _TRANSACTION.read(item, path)
    if fields["rule"] is None:
        fields["rule"] = policies.get(fields["transactor"], policies["*"])
    return _build(path, _TRANSACTION.make, **fields)


def _parse_fork_event(item, timing: TimingParams, path: str) -> ForkRevealEvent:
    ev = _FORK.parse(item, path)
    if not 0 <= ev.bridge_post_delay <= timing.t_cr:
        _fail(f"{path}.bridge_post_delay", f"must lie in [0, t_cr={timing.t_cr}]")
    return ev


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


def strategy_events(sc: Scenario) -> tuple[list[ForkRevealEvent], Optional[dict]]:
    """Forge the adversary's scripted fork reveal, if its strategy has one.

    Returns (events, optional probe log payload). A scripted event takes
    `ForkRevealEvent`'s defaults: the adversary wins, and a bridge sees the
    fork's header when it is revealed.
    """
    st, tp, validators = sc.adversary.strategy, sc.timing, sc.timeline.validators
    log = None
    if st.kind is StrategyKind.NONE:
        return [], None

    if st.kind is StrategyKind.BRIBERY_PROBE:
        # attack only if the bribe schedule actually dominates
        ep_probe = replace(sc.econ, bribe_fail=st.bribe_fail, bribe_success=st.bribe_success)
        dominant = bribe_is_dominant(st.mechanism, ep_probe)
        log = {
            "mechanism": st.mechanism.value,
            "bribe_fail": frac_str(st.bribe_fail),
            "bribe_success": frac_str(st.bribe_success),
            "dominant": dominant,
            "attack_proceeds": dominant,
        }
        if not dominant:
            return [], log

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
    return [ev], log


# -- serialization ----------------------------------------------------------


def scenario_to_doc(sc: Scenario) -> dict:
    """Canonical, normalized document; parse(scenario_to_doc(sc)) == sc."""
    return _DOCUMENT.write(sc)


# the canonical encoding's settings: `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)

if c_make_encoder is None:
    canonical_json = _CANONICAL.encode
else:
    # `JSONEncoder.encode` makes a new C encoder on every call; this one is
    # made once, with `_CANONICAL`'s settings. It keeps no circular-reference
    # markers (canonical documents are trees), so a call that raised leaves
    # nothing behind for the next.
    _encode = c_make_encoder(
        None,
        _CANONICAL.default,
        encode_basestring_ascii,
        None,
        _CANONICAL.key_separator,
        _CANONICAL.item_separator,
        _CANONICAL.sort_keys,
        _CANONICAL.skipkeys,
        _CANONICAL.allow_nan,
    )

    def canonical_json(doc: Any) -> str:
        """`doc` as compact JSON with sorted keys and ASCII escapes."""
        return "".join(_encode(doc, 0))


def canonical_object(fields: Mapping[str, str]) -> str:
    """`canonical_json` of an object whose values are given already encoded.

    The keys (strings) are encoded by `canonical_json` and sorted as it
    sorts them, so `canonical_object({k: canonical_json(v) for k, v in
    doc.items()}) == canonical_json(doc)`."""
    return "{" + ",".join(f"{canonical_json(key)}:{value}" for key, value in sorted(fields.items())) + "}"


def scenario_hash(sc: Scenario) -> str:
    """sha256 of `sc`'s canonical document, worked out once per scenario."""
    return sc._hash


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
