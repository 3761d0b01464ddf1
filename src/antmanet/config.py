"""Scenario files: YAML in, validated ScenarioConfig out.

Each setting's key name and default live in one place: the field of its
dataclass below (or of ``WeightParams``, ``DepositParams``,
``PreferenceParams``, ``QosRequirement`` and ``NodeAttributes``, which this
module imports).  parse_scenario derives every section's known keys, its
defaults, its required keys and which numbers must be integers (an ``int``
annotation) from ``dataclasses.fields``, once at import; the only
per-field data kept here is ``_BOUNDS``, the range each number must fall
in.

Validation is strict: unknown keys are rejected and every problem is
reported with the offending key path and a short constraint code, all at
once.  serialize() emits a complete document (defaults made explicit), so
serialize(parse(x)) always reparses to an equal config.
``scenarios/defaults.yaml`` is serialize(parse_scenario("")) under its
comment header.
"""

import math
import re
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import yaml

from .clustering import WeightParams
from .errors import ScenarioError
from .model import (DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_DELAY,
                    DEFAULT_TX_RANGE, NodeAttributes)
from .qos import DepositParams
from .routing import PreferenceParams, QosRequirement

# libyaml's parser with PyYAML's safe constructor and resolver, so a document
# both parsers accept loads to the same values as under SafeLoader (where they
# part is pinned in tests/test_config_cli.py); the pure-Python loader is used
# only when PyYAML was built without libyaml.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Arena:
    width: float = 500.0
    height: float = 500.0


@dataclass(kw_only=True)
class NodeSettings:
    """Settings a group's nodes and a placed node share.

    Defaults are NodeAttributes'; tx_range defaults to
    DEFAULT_TX_RANGE[max_level].
    """
    max_level: int = NodeAttributes.max_level
    energy: float = NodeAttributes.energy
    tx_range: tuple = None
    node_delay: float = NodeAttributes.node_delay

    def __post_init__(self):
        if self.tx_range is None:
            # An out-of-range max_level has no default ranges; parsing has
            # reported it, and NodeAttributes rejects the empty tuple.
            self.tx_range = DEFAULT_TX_RANGE.get(self.max_level, ())
        self.tx_range = tuple(self.tx_range)


@dataclass
class NodeGroup(NodeSettings):
    count: int = 1


@dataclass
class Placement(NodeSettings):
    id: int
    position: tuple
    velocity: tuple = NodeAttributes.velocity


@dataclass
class LinkOverride:
    """Pinned delay and bandwidth for one link; None keeps the level's."""
    a: int
    b: int
    level: int
    delay: float = None
    bandwidth: float = None


@dataclass
class LinkConfig:
    delay: dict = field(default_factory=lambda: dict(DEFAULT_LINK_DELAY))
    bandwidth: dict = field(default_factory=lambda: dict(DEFAULT_LINK_BANDWIDTH))
    jitter: float = 0.0


@dataclass
class PheromoneConfig:
    q: float = 0.1
    initial: float = 1.0
    evaporation_interval: float = 1.0


@dataclass
class BeaconConfig:
    interval: float = 1.0
    miss_threshold: int = 3

    @property
    def detection_bound(self):
        """How long a silent membership lasts before it is declared broken."""
        return self.miss_threshold * self.interval


@dataclass
class MobilityConfig:
    enabled: bool = False
    speed_min: float = 0.5
    speed_max: float = 2.0
    pause: float = 2.0
    update_interval: float = 1.0
    window: float = 10.0


@dataclass
class CacheConfig:
    max_age: float = 30.0


@dataclass
class EnergyCosts:
    """Energy debited per radio action (see ``engine.energy_debit``)."""
    tx_packet: float = 0.0
    tx_bit: float = 0.0
    rx_packet: float = 0.0
    rx_bit: float = 0.0
    beacon: float = 0.0


@dataclass
class FlowConfig:
    src: int
    dst: int
    start: float = 0.0
    packets: int = 1
    interval: float = 1.0
    qos: QosRequirement = field(default_factory=QosRequirement)


@dataclass
class ScenarioConfig:
    version: int = 1
    seed: int = 0
    duration: float = 100.0
    arena: Arena = field(default_factory=Arena)
    groups: list[NodeGroup] = field(default_factory=list)
    placements: list[Placement] = field(default_factory=list)
    links: list[LinkOverride] = field(default_factory=list)
    link: LinkConfig = field(default_factory=LinkConfig)
    weights: WeightParams = field(default_factory=WeightParams)
    deposit: DepositParams = field(default_factory=DepositParams)
    preference: PreferenceParams = field(default_factory=PreferenceParams)
    pheromone: PheromoneConfig = field(default_factory=PheromoneConfig)
    beacon: BeaconConfig = field(default_factory=BeaconConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    energy_costs: EnergyCosts = field(default_factory=EnergyCosts)
    packet_size_bits: int = 8192
    flows: list[FlowConfig] = field(default_factory=list)

    def nodes(self):
        """(id, settings) of every node, settings being its Placement or
        its NodeGroup: placements keep their ids, then the groups' nodes
        are numbered on from the largest placement id plus 1."""
        for p in self.placements:
            yield p.id, p
        next_id = max((p.id for p in self.placements), default=-1) + 1
        for g in self.groups:
            for _ in range(g.count):
                yield next_id, g
                next_id += 1

    def to_dict(self):
        """Plain YAML-ready data: level maps keyed l0/l1/l2, tuples as lists,
        unset (None) fields left out."""
        return _plain(asdict(self))


def _plain(value):
    if isinstance(value, dict):
        return {f"l{k}" if isinstance(k, int) else k: _plain(v)
                for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


_POSITIVE = {"lo": 0, "lo_open": True}
_NON_NEGATIVE = {"lo": 0}
_AT_LEAST_ONE = {"lo": 1}
_FRACTION = {"lo": 0, "hi": 1}
_LEVEL = {"lo": 0, "hi": 2}

# Bounds on numbers, keyed by YAML path ("[]" stands for any list index or
# per-level key l0-l2).  A number not listed may take any finite value.  An
# "_open" end excludes the bound itself; "code" is the issue code for a
# value outside (default "range").
_BOUNDS = {
    "duration": _POSITIVE,
    "packet_size_bits": _AT_LEAST_ONE,
    "arena.width": _POSITIVE, "arena.height": _POSITIVE,
    "groups[].count": _AT_LEAST_ONE,
    "groups[].max_level": _LEVEL,
    "groups[].energy": _NON_NEGATIVE, "groups[].node_delay": _NON_NEGATIVE,
    "groups[].tx_range[]": {"lo": 0, "lo_open": True, "code": "tx-range"},
    "placements[].tx_range[]": {"lo": 0, "lo_open": True, "code": "tx-range"},
    "placements[].id": _NON_NEGATIVE,
    "placements[].max_level": _LEVEL,
    "placements[].energy": _NON_NEGATIVE,
    "placements[].node_delay": _NON_NEGATIVE,
    "links[].a": _NON_NEGATIVE, "links[].b": _NON_NEGATIVE,
    "links[].level": _LEVEL,
    "links[].delay": _POSITIVE, "links[].bandwidth": _POSITIVE,
    "link.delay[]": _POSITIVE, "link.bandwidth[]": _POSITIVE,
    "link.jitter": _FRACTION,
    "weights.rho": {"lo": 0, "hi": 1, "lo_open": True, "hi_open": True,
                    "code": "rho-range"},
    "weights.n_iter": _AT_LEAST_ONE,
    "deposit.ref_bandwidth": _POSITIVE, "deposit.ref_energy": _POSITIVE,
    "deposit.ref_let": _POSITIVE, "deposit.ref_delay": _POSITIVE,
    "deposit.let_cap": _POSITIVE,
    "preference.let_cap": _POSITIVE,
    "preference.theta_p": _FRACTION,
    "pheromone.q": {"lo": 0, "hi": 1, "lo_open": True, "code": "q-range"},
    "pheromone.initial": _NON_NEGATIVE,
    "pheromone.evaporation_interval": _POSITIVE,
    "beacon.interval": _POSITIVE,
    "beacon.miss_threshold": {"lo": 1, "code": "miss-threshold"},
    "mobility.speed_min": _NON_NEGATIVE, "mobility.speed_max": _NON_NEGATIVE,
    "mobility.pause": _NON_NEGATIVE,
    "mobility.update_interval": _POSITIVE, "mobility.window": _POSITIVE,
    "cache.max_age": _POSITIVE,
    "energy_costs.tx_packet": _NON_NEGATIVE,
    "energy_costs.tx_bit": _NON_NEGATIVE,
    "energy_costs.rx_packet": _NON_NEGATIVE,
    "energy_costs.rx_bit": _NON_NEGATIVE,
    "energy_costs.beacon": _NON_NEGATIVE,
    "flows[].src": _NON_NEGATIVE, "flows[].dst": _NON_NEGATIVE,
    "flows[].start": _NON_NEGATIVE, "flows[].packets": _AT_LEAST_ONE,
    "flows[].interval": _POSITIVE,
    "flows[].qos.min_bandwidth": _NON_NEGATIVE,
    "flows[].qos.min_energy": _NON_NEGATIVE,
    "flows[].qos.min_let": _NON_NEGATIVE,
    "flows[].qos.max_delay": _POSITIVE,
}


class _Ctx:
    def __init__(self):
        self.issues = []

    def err(self, path, code, msg):
        self.issues.append((path, code, msg))


def _join(path, key):
    return f"{path}.{key}" if path else key


# Field parsers: parse(ctx, value, path, arg, parsed) returns the value, or
# None after reporting an issue (the field then keeps its default).
# `parsed` holds the fields of the same mapping parsed so far.

def _not_a_number(v):
    """The `type` message for `v`.  YAML 1.1 reads a float only with a dot
    and a signed exponent, so `1e5` and `1.0e5` reach here as strings."""
    m = isinstance(v, str) and re.fullmatch(
        r"([-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?)(\d+)", v)
    # A finite exponent literal, unless quoted in the form YAML reads.
    if not m or not math.isfinite(float(v)) or "." in m[1] and m[2]:
        return "expected a number"
    written = f"{m[1]}{'' if '.' in m[1] else '.0'}e{m[2] or '+'}{m[3]}"
    return (f"expected a number: YAML 1.1 reads {v} as a string, as its "
            f"floats need a dot and a signed exponent; write {written}")


def _number(ctx, v, path, arg, parsed):
    integer, open_ended, lo, hi, lo_open, hi_open, code = arg
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        ctx.err(path, "type", _not_a_number(v))
        return None
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an int too large for a float
        finite = False
    # Only a field that defaults to an infinity may be set to one.
    if not (finite or (open_ended and isinstance(v, float) and math.isinf(v))):
        ctx.err(path, "non-finite",
                "must be finite or +-.inf" if open_ended else "must be finite")
        return None
    if integer and int(v) != v:
        ctx.err(path, "type", "expected an integer")
        return None
    if lo is not None and (v <= lo if lo_open else v < lo):
        ctx.err(path, code, f"must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and (v >= hi if hi_open else v > hi):
        ctx.err(path, code, f"must be {'<' if hi_open else '<='} {hi}")
    return int(v) if integer else float(v)


def _number_arg(pattern, integer, default):
    """_number's arg for the number at YAML path `pattern`."""
    b = _BOUNDS.get(pattern, {})
    kind = int if integer else float
    lo, hi = b.get("lo"), b.get("hi")
    return (integer, isinstance(default, float) and math.isinf(default),
            None if lo is None else kind(lo), None if hi is None else kind(hi),
            b.get("lo_open", False), b.get("hi_open", False),
            b.get("code", "range"))


def _boolean(ctx, v, path, arg, parsed):
    if not isinstance(v, bool):
        ctx.err(path, "type", "expected a boolean")
        return None
    return v


def _entries(ctx, raw, path, arg):
    """The numbers in list `raw`, or None after the issue of its first bad
    entry, which is reported at the list's path."""
    issues = len(ctx.issues)
    out = []
    for x in raw:
        out.append(_number(ctx, x, path, arg, None))
        if len(ctx.issues) > issues:
            return None
    return tuple(out)


def _pair(ctx, raw, path, arg, parsed):
    if not isinstance(raw, list) or len(raw) != 2:
        ctx.err(path, "type", "expected [x, y]")
        return None
    return _entries(ctx, raw, path, arg)


def _levels(ctx, raw, path, arg, parsed):
    """A per-level map written as {l0: .., l1: .., l2: ..}; `arg` is its
    default and its entries' _number arg."""
    out, number = dict(arg[0]), arg[1]
    if raw is None:
        return out
    if not isinstance(raw, dict):
        ctx.err(path, "type", "expected a mapping of l0/l1/l2")
        return out
    for k, v in raw.items():
        if k not in ("l0", "l1", "l2"):
            ctx.err(f"{path}.{k}", "unknown-key", "expected l0, l1 or l2")
            continue
        v = _number(ctx, v, f"{path}.{k}", number, None)
        if v is not None:
            out[int(k[1])] = v
    return out


def _tx_range(ctx, raw, path, arg, parsed):
    if raw is None:
        return None
    if not isinstance(raw, list):
        ctx.err(path, "type", "expected a list of ranges")
        return None
    ranges = _entries(ctx, raw, path, arg)
    n = parsed["max_level"] + 1
    if ranges is not None and len(ranges) != n:
        ctx.err(path, "tx-range", f"needs {n} entries")
    elif ranges and any(hi <= lo for lo, hi in zip(ranges, ranges[1:])):
        ctx.err(path, "tx-range", "must increase strictly with level")
    return ranges


def _list(ctx, raw, path):
    if not isinstance(raw, list):
        ctx.err(path, "type", "expected a list")
        return []
    return raw


def _items(ctx, raw, path, spec, parsed):
    return [_section(ctx, item, f"{path}[{i}]", spec)
            for i, item in enumerate(_list(ctx, raw, path))]


def _map(ctx, data, path, keys, required):
    if data is None:
        data = {}
    elif not isinstance(data, dict):
        ctx.err(path or "<root>", "type", "expected a mapping")
        return {}
    for key in data:
        if key not in keys:
            ctx.err(f"{path or '<root>'}.{key}", "unknown-key", "unknown key")
    for key in required:
        if key not in data:
            ctx.err(_join(path, key), "missing", "required key")
    return data


# Checks that span fields, run on a field's value once it is parsed.

def _check_version(ctx, version):
    if version != 1:
        ctx.err("version", "version", "only version 1 is supported")


def _check_weights(ctx, w):
    if abs(w.w1 + w.w2 + w.w3 + w.w4 - 1.0) > 1e-9:
        ctx.err("weights", "weight-sum", "w1+w2+w3+w4 must equal 1")


def _check_speeds(ctx, m):
    if m.speed_max < m.speed_min:
        ctx.err("mobility.speed_max", "range", "must be >= speed_min")


def _check_placements(ctx, placements):
    for i, p in enumerate(placements):
        if p.id is None:  # missing or invalid, and reported: use the index
            p.id = i
    ids = [p.id for p in placements]
    if len(ids) != len(set(ids)):
        ctx.err("placements", "node-ref", "duplicate placement ids")


_CHECKS = {"version": _check_version, "weights": _check_weights,
           "mobility": _check_speeds, "placements": _check_placements}

_FACTORY = object()  # default: left to the field's default_factory


class _Spec:
    """How to parse one dataclass from a mapping, derived from its fields.

    `entries` holds (key, parse, arg, default, check) in field order; a
    required field defaults to None, after a "missing" issue.
    """

    def __init__(self, cls, pattern):
        self.cls = cls
        self.keys = frozenset(f.name for f in fields(cls))
        entries, required = [], []
        for f in fields(cls):
            path = _join(pattern, f.name)
            default = f.default
            if default is MISSING and f.default_factory is not MISSING:
                default = _FACTORY
            elif default is MISSING:
                required.append(f.name)
                default = None
            t = f.type
            if t is int or t is float:
                parse, arg = _number, _number_arg(path, t is int, default)
            elif t is bool:
                parse, arg = _boolean, None
            elif t is dict:
                parse, arg = _levels, (f.default_factory(), _number_arg(
                    path + "[]", False, None))
            elif t is tuple:
                parse = _tx_range if f.name == "tx_range" else _pair
                arg = _number_arg(path + "[]", False, None)
            elif typing.get_origin(t) is list:
                parse, arg = _items, _Spec(typing.get_args(t)[0], path + "[]")
            else:
                assert is_dataclass(t), f"no parser for {path}: {t}"
                parse, arg = _section, _Spec(t, path)
            entries.append((f.name, parse, arg, default, _CHECKS.get(path)))
        self.entries = tuple(entries)
        self.required = tuple(required)


def _section(ctx, raw, path, spec, parsed=None):
    data = _map(ctx, raw, path, spec.keys, spec.required)
    kw = {}
    for key, parse, arg, default, check in spec.entries:
        if key in data:
            v = parse(ctx, data[key], _join(path, key), arg, kw)
            kw[key] = default if v is None else v
            if check is not None:
                check(ctx, kw[key])
        elif default is not _FACTORY:
            kw[key] = default
    return spec.cls(**kw)


_SCENARIO = _Spec(ScenarioConfig, "")


def parse_scenario(text):
    """Parse and validate scenario text; raises ScenarioError on problems."""
    try:
        data = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml encodes the text to UTF-8 first, so a lone surrogate
        # fails there instead of in PyYAML's reader.
        raise ScenarioError([("<document>", "yaml", str(exc))]) from None
    ctx = _Ctx()
    cfg = _section(ctx, data, "", _SCENARIO)

    valid_ids = {nid for nid, _ in cfg.nodes()}
    for name, ends in (("flows", ("src", "dst")), ("links", ("a", "b"))):
        for i, item in enumerate(getattr(cfg, name)):
            for end in ends:
                nid = getattr(item, end)
                if nid is not None and nid not in valid_ids:
                    ctx.err(f"{name}[{i}].{end}", "node-ref",
                            f"node {nid} does not exist")
            a, b = (getattr(item, end) for end in ends)
            if a is not None and a == b:
                ctx.err(f"{name}[{i}].{ends[1]}", "node-ref",
                        f"{ends[1]} is node {a}, the same as {ends[0]}")

    if ctx.issues:
        raise ScenarioError(ctx.issues)
    return cfg


def load_scenario(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError([("<document>", "encoding",
                              f"not valid UTF-8: {exc}")]) from None
    return parse_scenario(text)


def serialize(config):
    return yaml.safe_dump(config.to_dict(), sort_keys=True,
                          default_flow_style=False)
