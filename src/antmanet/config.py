"""Scenario files: YAML in, validated ScenarioConfig out.

Validation is strict: unknown keys are rejected and every problem is
reported with the offending key path and a short constraint code, all at
once.  serialize() emits a complete document (defaults made explicit), so
serialize(parse(x)) always reparses to an equal config.
"""

import math
from dataclasses import dataclass, field

import yaml

from .clustering import WeightParams
from .errors import ScenarioError
from .model import DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_DELAY
from .qos import DepositParams
from .routing import PreferenceParams, QosRequirement

DEFAULT_TX_RANGE = {0: (100.0,), 1: (100.0, 250.0), 2: (100.0, 250.0, 600.0)}

# libyaml's parser with PyYAML's safe constructor and resolver, so a document
# both parsers accept loads to the same values as under SafeLoader (where they
# part is pinned in tests/test_config_cli.py); the pure-Python loader is used
# only when PyYAML was built without libyaml.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Arena:
    width: float = 500.0
    height: float = 500.0


@dataclass
class NodeGroup:
    count: int
    max_level: int = 0
    energy: float = 100.0
    tx_range: tuple = None
    node_delay: float = 0.001

    def __post_init__(self):
        if self.tx_range is None:
            self.tx_range = DEFAULT_TX_RANGE[self.max_level]
        self.tx_range = tuple(self.tx_range)


@dataclass
class Placement:
    id: int
    position: tuple
    velocity: tuple = (0.0, 0.0)
    max_level: int = 0
    energy: float = 100.0
    tx_range: tuple = None
    node_delay: float = 0.001

    def __post_init__(self):
        if self.tx_range is None:
            self.tx_range = DEFAULT_TX_RANGE[self.max_level]
        self.tx_range = tuple(self.tx_range)
        self.position = tuple(self.position)
        self.velocity = tuple(self.velocity)


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
    capacity: int = 64
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
    groups: list = field(default_factory=list)
    placements: list = field(default_factory=list)
    links: list = field(default_factory=list)
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
    flows: list = field(default_factory=list)

    def node_ids(self):
        ids = {p.id for p in self.placements}
        next_id = max(ids, default=-1) + 1
        for g in self.groups:
            ids.update(range(next_id, next_id + g.count))
            next_id += g.count
        return ids

    def to_dict(self):
        def lvl(d):
            return {f"l{k}": v for k, v in sorted(d.items())}

        return {
            "version": self.version,
            "seed": self.seed,
            "duration": self.duration,
            "arena": {"width": self.arena.width, "height": self.arena.height},
            "groups": [{"count": g.count, "max_level": g.max_level,
                        "energy": g.energy, "tx_range": list(g.tx_range),
                        "node_delay": g.node_delay} for g in self.groups],
            "placements": [{"id": p.id, "position": list(p.position),
                            "velocity": list(p.velocity),
                            "max_level": p.max_level, "energy": p.energy,
                            "tx_range": list(p.tx_range),
                            "node_delay": p.node_delay}
                           for p in self.placements],
            "links": [dict(lk) for lk in self.links],
            "link": {"delay": lvl(self.link.delay),
                     "bandwidth": lvl(self.link.bandwidth),
                     "jitter": self.link.jitter},
            "weights": {"w1": self.weights.w1, "w2": self.weights.w2,
                        "w3": self.weights.w3, "w4": self.weights.w4,
                        "theta_w": self.weights.theta_w,
                        "theta_tau": self.weights.theta_tau,
                        "rho": self.weights.rho, "n_iter": self.weights.n_iter},
            "deposit": {k: getattr(self.deposit, k) for k in (
                "lambda_b", "lambda_e", "lambda_t", "lambda_d", "lambda_hc",
                "ref_bandwidth", "ref_energy", "ref_let", "ref_delay",
                "let_cap")},
            "preference": {k: getattr(self.preference, k) for k in (
                "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
                "ref_delay", "ref_bandwidth", "ref_energy", "ref_let",
                "let_cap", "theta_p")},
            "pheromone": {"q": self.pheromone.q,
                          "initial": self.pheromone.initial,
                          "evaporation_interval":
                              self.pheromone.evaporation_interval},
            "beacon": {"interval": self.beacon.interval,
                       "miss_threshold": self.beacon.miss_threshold},
            "mobility": {k: getattr(self.mobility, k) for k in (
                "enabled", "speed_min", "speed_max", "pause",
                "update_interval", "window")},
            "cache": {"capacity": self.cache.capacity,
                      "max_age": self.cache.max_age},
            "energy_costs": {k: getattr(self.energy_costs, k) for k in (
                "tx_packet", "tx_bit", "rx_packet", "rx_bit", "beacon")},
            "packet_size_bits": self.packet_size_bits,
            "flows": [{"src": f.src, "dst": f.dst, "start": f.start,
                       "packets": f.packets, "interval": f.interval,
                       "qos": {"min_bandwidth": f.qos.min_bandwidth,
                               "min_energy": f.qos.min_energy,
                               "min_let": f.qos.min_let,
                               "max_delay": f.qos.max_delay}}
                      for f in self.flows],
        }


class _Ctx:
    def __init__(self):
        self.issues = []

    def err(self, path, code, msg):
        self.issues.append((path, code, msg))


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _map(ctx, data, path, known):
    if data is None:
        return {}
    if not isinstance(data, dict):
        ctx.err(path, "type", "expected a mapping")
        return {}
    for key in data:
        if key not in known:
            ctx.err(f"{path}.{key}", "unknown-key", "unknown key")
    return data


def _num(ctx, data, path, default, lo=None, hi=None, integer=False,
         lo_open=False, hi_open=False, code="range"):
    v = data.get(path.rsplit(".", 1)[-1], default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        ctx.err(path, "type", "expected a number")
        return default
    # Only a field that defaults to an infinity may be set to one.
    open_ended = math.isinf(default)
    if not (_finite(v) or (open_ended and isinstance(v, float) and math.isinf(v))):
        ctx.err(path, "non-finite",
                "must be finite or +-.inf" if open_ended else "must be finite")
        return default
    if integer and int(v) != v:
        ctx.err(path, "type", "expected an integer")
        return default
    if lo is not None and (v <= lo if lo_open else v < lo):
        ctx.err(path, code, f"must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and (v >= hi if hi_open else v > hi):
        ctx.err(path, code, f"must be {'<' if hi_open else '<='} {hi}")
    return int(v) if integer else float(v)


def _pair(ctx, data, key, path, default):
    v = data.get(key, default)
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, (int, float)) for x in v)):
        ctx.err(path, "type", "expected [x, y]")
        return tuple(default)
    if not all(_finite(x) for x in v):
        ctx.err(path, "non-finite", "coordinates must be finite")
        return tuple(default)
    return tuple(float(x) for x in v)


def _levels(ctx, data, key, path, default):
    raw = data.get(key)
    if raw is None:
        return dict(default)
    out = dict(default)
    if not isinstance(raw, dict):
        ctx.err(path, "type", "expected a mapping of l0/l1/l2")
        return out
    for k, v in raw.items():
        if k not in ("l0", "l1", "l2"):
            ctx.err(f"{path}.{k}", "unknown-key", "expected l0, l1 or l2")
            continue
        if not isinstance(v, (int, float)) or v <= 0:
            ctx.err(f"{path}.{k}", "range", "must be > 0")
            continue
        if not _finite(v):
            ctx.err(f"{path}.{k}", "non-finite", "must be finite")
            continue
        out[int(k[1])] = float(v)
    return out


def _tx_range(ctx, data, path, max_level):
    raw = data.get("tx_range")
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple))
            or not all(isinstance(x, (int, float)) for x in raw)):
        ctx.err(path, "type", "expected a list of ranges")
        return None
    if not all(_finite(x) for x in raw):
        ctx.err(path, "non-finite", "ranges must be finite")
        return None
    if len(raw) != max_level + 1:
        ctx.err(path, "tx-range", f"needs {max_level + 1} entries")
        return None
    for lo, hi in zip(raw, raw[1:]):
        if hi <= lo:
            ctx.err(path, "tx-range", "must increase strictly with level")
            return None
    if any(x <= 0 for x in raw):
        ctx.err(path, "tx-range", "ranges must be > 0")
        return None
    return tuple(float(x) for x in raw)


def parse_scenario(text):
    """Parse and validate scenario text; raises ScenarioError on problems."""
    try:
        data = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml encodes the text to UTF-8 first, so a lone surrogate
        # fails there instead of in PyYAML's reader.
        raise ScenarioError([("<document>", "yaml", str(exc))]) from None
    if data is None:
        data = {}
    ctx = _Ctx()
    data = _map(ctx, data, "<root>", {
        "version", "seed", "duration", "arena", "groups", "placements",
        "links", "link", "weights", "deposit", "preference", "pheromone",
        "beacon", "mobility", "cache", "energy_costs", "packet_size_bits",
        "flows"})

    version = _num(ctx, data, "version", 1, integer=True)
    if version != 1:
        ctx.err("version", "version", "only version 1 is supported")
    seed = _num(ctx, data, "seed", 0, integer=True)
    duration = _num(ctx, data, "duration", 100.0, lo=0.0, lo_open=True)

    a = _map(ctx, data.get("arena"), "arena", {"width", "height"})
    arena = Arena(_num(ctx, a, "arena.width", 500.0, lo=0.0, lo_open=True),
                  _num(ctx, a, "arena.height", 500.0, lo=0.0, lo_open=True))

    groups = []
    raw_groups = data.get("groups", [])
    if not isinstance(raw_groups, list):
        ctx.err("groups", "type", "expected a list")
        raw_groups = []
    for i, g in enumerate(raw_groups):
        path = f"groups[{i}]"
        g = _map(ctx, g, path, {"count", "max_level", "energy", "tx_range",
                                "node_delay"})
        max_level = _num(ctx, g, f"{path}.max_level", 0, lo=0, hi=2,
                         integer=True)
        groups.append(NodeGroup(
            count=_num(ctx, g, f"{path}.count", 1, lo=1, integer=True),
            max_level=max_level,
            energy=_num(ctx, g, f"{path}.energy", 100.0, lo=0.0),
            tx_range=_tx_range(ctx, g, f"{path}.tx_range", max_level),
            node_delay=_num(ctx, g, f"{path}.node_delay", 0.001, lo=0.0)))

    placements = []
    raw_pl = data.get("placements", [])
    if not isinstance(raw_pl, list):
        ctx.err("placements", "type", "expected a list")
        raw_pl = []
    for i, p in enumerate(raw_pl):
        path = f"placements[{i}]"
        p = _map(ctx, p, path, {"id", "position", "velocity", "max_level",
                                "energy", "tx_range", "node_delay"})
        if "id" not in p:
            ctx.err(f"{path}.id", "missing", "placement needs an id")
        if "position" not in p:
            ctx.err(f"{path}.position", "missing", "placement needs a position")
        max_level = _num(ctx, p, f"{path}.max_level", 0, lo=0, hi=2,
                         integer=True)
        placements.append(Placement(
            id=_num(ctx, p, f"{path}.id", i, lo=0, integer=True),
            position=_pair(ctx, p, "position", f"{path}.position", (0.0, 0.0)),
            velocity=_pair(ctx, p, "velocity", f"{path}.velocity", (0.0, 0.0)),
            max_level=max_level,
            energy=_num(ctx, p, f"{path}.energy", 100.0, lo=0.0),
            tx_range=_tx_range(ctx, p, f"{path}.tx_range", max_level),
            node_delay=_num(ctx, p, f"{path}.node_delay", 0.001, lo=0.0)))
    ids = [p.id for p in placements]
    if len(ids) != len(set(ids)):
        ctx.err("placements", "node-ref", "duplicate placement ids")

    links = []
    raw_links = data.get("links", [])
    if not isinstance(raw_links, list):
        ctx.err("links", "type", "expected a list")
        raw_links = []
    for i, lk in enumerate(raw_links):
        path = f"links[{i}]"
        lk = _map(ctx, lk, path, {"a", "b", "level", "delay", "bandwidth"})
        entry = {"a": _num(ctx, lk, f"{path}.a", 0, lo=0, integer=True),
                 "b": _num(ctx, lk, f"{path}.b", 0, lo=0, integer=True),
                 "level": _num(ctx, lk, f"{path}.level", 0, lo=0, hi=2,
                               integer=True)}
        if "delay" in lk:
            entry["delay"] = _num(ctx, lk, f"{path}.delay", 0.001, lo=0.0)
        if "bandwidth" in lk:
            entry["bandwidth"] = _num(ctx, lk, f"{path}.bandwidth", 1e6,
                                      lo=0.0, lo_open=True)
        links.append(entry)

    l = _map(ctx, data.get("link"), "link", {"delay", "bandwidth", "jitter"})
    link = LinkConfig(
        delay=_levels(ctx, l, "delay", "link.delay", LinkConfig().delay),
        bandwidth=_levels(ctx, l, "bandwidth", "link.bandwidth",
                          LinkConfig().bandwidth),
        jitter=_num(ctx, l, "link.jitter", 0.0, lo=0.0, hi=1.0))

    w = _map(ctx, data.get("weights"), "weights",
             {"w1", "w2", "w3", "w4", "theta_w", "theta_tau", "rho", "n_iter"})
    weights = WeightParams(
        w1=_num(ctx, w, "weights.w1", 0.25),
        w2=_num(ctx, w, "weights.w2", 0.25),
        w3=_num(ctx, w, "weights.w3", 0.25),
        w4=_num(ctx, w, "weights.w4", 0.25),
        theta_w=_num(ctx, w, "weights.theta_w", -math.inf),
        theta_tau=_num(ctx, w, "weights.theta_tau", -math.inf),
        rho=_num(ctx, w, "weights.rho", 0.5, lo=0.0, hi=1.0, lo_open=True,
                 hi_open=True, code="rho-range"),
        n_iter=_num(ctx, w, "weights.n_iter", 100, lo=1, integer=True))
    if abs(weights.w1 + weights.w2 + weights.w3 + weights.w4 - 1.0) > 1e-9:
        ctx.err("weights", "weight-sum", "w1+w2+w3+w4 must equal 1")

    d = _map(ctx, data.get("deposit"), "deposit", {
        "lambda_b", "lambda_e", "lambda_t", "lambda_d", "lambda_hc",
        "ref_bandwidth", "ref_energy", "ref_let", "ref_delay", "let_cap"})
    deposit = DepositParams(
        lambda_b=_num(ctx, d, "deposit.lambda_b", 1.0),
        lambda_e=_num(ctx, d, "deposit.lambda_e", 1.0),
        lambda_t=_num(ctx, d, "deposit.lambda_t", 1.0),
        lambda_d=_num(ctx, d, "deposit.lambda_d", 1.0),
        lambda_hc=_num(ctx, d, "deposit.lambda_hc", 1.0),
        ref_bandwidth=_num(ctx, d, "deposit.ref_bandwidth", 1.0, lo=0.0,
                           lo_open=True),
        ref_energy=_num(ctx, d, "deposit.ref_energy", 1.0, lo=0.0,
                        lo_open=True),
        ref_let=_num(ctx, d, "deposit.ref_let", 1.0, lo=0.0, lo_open=True),
        ref_delay=_num(ctx, d, "deposit.ref_delay", 1.0, lo=0.0, lo_open=True),
        let_cap=_num(ctx, d, "deposit.let_cap", 1e6, lo=0.0, lo_open=True))

    pr = _map(ctx, data.get("preference"), "preference", {
        "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
        "ref_delay", "ref_bandwidth", "ref_energy", "ref_let", "let_cap",
        "theta_p"})
    preference = PreferenceParams(
        alpha1=_num(ctx, pr, "preference.alpha1", 1.0),
        alpha2=_num(ctx, pr, "preference.alpha2", 1.0),
        alpha3=_num(ctx, pr, "preference.alpha3", 1.0),
        alpha4=_num(ctx, pr, "preference.alpha4", 1.0),
        alpha5=_num(ctx, pr, "preference.alpha5", 1.0),
        alpha6=_num(ctx, pr, "preference.alpha6", 1.0),
        ref_delay=_num(ctx, pr, "preference.ref_delay", 1.0, lo=0.0,
                       lo_open=True),
        ref_bandwidth=_num(ctx, pr, "preference.ref_bandwidth", 1.0, lo=0.0,
                           lo_open=True),
        ref_energy=_num(ctx, pr, "preference.ref_energy", 1.0, lo=0.0,
                        lo_open=True),
        ref_let=_num(ctx, pr, "preference.ref_let", 1.0, lo=0.0, lo_open=True),
        let_cap=_num(ctx, pr, "preference.let_cap", 1e6, lo=0.0, lo_open=True),
        theta_p=_num(ctx, pr, "preference.theta_p", 0.0, lo=0.0, hi=1.0))

    ph = _map(ctx, data.get("pheromone"), "pheromone",
              {"q", "initial", "evaporation_interval"})
    pheromone = PheromoneConfig(
        q=_num(ctx, ph, "pheromone.q", 0.1, lo=0.0, hi=1.0, lo_open=True,
               code="q-range"),
        initial=_num(ctx, ph, "pheromone.initial", 1.0, lo=0.0),
        evaporation_interval=_num(ctx, ph, "pheromone.evaporation_interval",
                                  1.0, lo=0.0, lo_open=True))

    b = _map(ctx, data.get("beacon"), "beacon", {"interval", "miss_threshold"})
    beacon = BeaconConfig(
        interval=_num(ctx, b, "beacon.interval", 1.0, lo=0.0, lo_open=True),
        miss_threshold=_num(ctx, b, "beacon.miss_threshold", 3, lo=1,
                            integer=True, code="miss-threshold"))

    m = _map(ctx, data.get("mobility"), "mobility", {
        "enabled", "speed_min", "speed_max", "pause", "update_interval",
        "window"})
    enabled = m.get("enabled", False)
    if not isinstance(enabled, bool):
        ctx.err("mobility.enabled", "type", "expected a boolean")
        enabled = False
    mobility = MobilityConfig(
        enabled=enabled,
        speed_min=_num(ctx, m, "mobility.speed_min", 0.5, lo=0.0),
        speed_max=_num(ctx, m, "mobility.speed_max", 2.0, lo=0.0),
        pause=_num(ctx, m, "mobility.pause", 2.0, lo=0.0),
        update_interval=_num(ctx, m, "mobility.update_interval", 1.0, lo=0.0,
                             lo_open=True),
        window=_num(ctx, m, "mobility.window", 10.0, lo=0.0, lo_open=True))
    if mobility.speed_max < mobility.speed_min:
        ctx.err("mobility.speed_max", "range", "must be >= speed_min")

    c = _map(ctx, data.get("cache"), "cache", {"capacity", "max_age"})
    cache = CacheConfig(
        capacity=_num(ctx, c, "cache.capacity", 64, lo=1, integer=True),
        max_age=_num(ctx, c, "cache.max_age", 30.0, lo=0.0, lo_open=True))

    e = _map(ctx, data.get("energy_costs"), "energy_costs",
             {"tx_packet", "tx_bit", "rx_packet", "rx_bit", "beacon"})
    energy_costs = EnergyCosts(
        tx_packet=_num(ctx, e, "energy_costs.tx_packet", 0.0, lo=0.0),
        tx_bit=_num(ctx, e, "energy_costs.tx_bit", 0.0, lo=0.0),
        rx_packet=_num(ctx, e, "energy_costs.rx_packet", 0.0, lo=0.0),
        rx_bit=_num(ctx, e, "energy_costs.rx_bit", 0.0, lo=0.0),
        beacon=_num(ctx, e, "energy_costs.beacon", 0.0, lo=0.0))

    packet_size_bits = _num(ctx, data, "packet_size_bits", 8192, lo=1,
                            integer=True)

    flows = []
    raw_flows = data.get("flows", [])
    if not isinstance(raw_flows, list):
        ctx.err("flows", "type", "expected a list")
        raw_flows = []
    for i, f in enumerate(raw_flows):
        path = f"flows[{i}]"
        f = _map(ctx, f, path, {"src", "dst", "start", "packets", "interval",
                                "qos"})
        q = _map(ctx, f.get("qos"), f"{path}.qos",
                 {"min_bandwidth", "min_energy", "min_let", "max_delay"})
        flows.append(FlowConfig(
            src=_num(ctx, f, f"{path}.src", 0, lo=0, integer=True),
            dst=_num(ctx, f, f"{path}.dst", 0, lo=0, integer=True),
            start=_num(ctx, f, f"{path}.start", 0.0, lo=0.0),
            packets=_num(ctx, f, f"{path}.packets", 1, lo=1, integer=True),
            interval=_num(ctx, f, f"{path}.interval", 1.0, lo=0.0,
                          lo_open=True),
            qos=QosRequirement(
                min_bandwidth=_num(ctx, q, f"{path}.qos.min_bandwidth", 0.0,
                                   lo=0.0),
                min_energy=_num(ctx, q, f"{path}.qos.min_energy", 0.0, lo=0.0),
                min_let=_num(ctx, q, f"{path}.qos.min_let", 0.0, lo=0.0),
                max_delay=_num(ctx, q, f"{path}.qos.max_delay", math.inf,
                               lo=0.0, lo_open=True))))

    cfg = ScenarioConfig(
        version=version, seed=seed, duration=duration, arena=arena,
        groups=groups, placements=placements, links=links, link=link,
        weights=weights, deposit=deposit, preference=preference,
        pheromone=pheromone, beacon=beacon, mobility=mobility, cache=cache,
        energy_costs=energy_costs, packet_size_bits=packet_size_bits,
        flows=flows)

    valid_ids = cfg.node_ids()
    for i, f in enumerate(flows):
        for end in ("src", "dst"):
            nid = getattr(f, end)
            if nid not in valid_ids:
                ctx.err(f"flows[{i}].{end}", "node-ref",
                        f"node {nid} does not exist")
    for i, lk in enumerate(links):
        for end in ("a", "b"):
            if lk[end] not in valid_ids:
                ctx.err(f"links[{i}].{end}", "node-ref",
                        f"node {lk[end]} does not exist")

    if ctx.issues:
        raise ScenarioError(ctx.issues)
    return cfg


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def serialize(config):
    return yaml.safe_dump(config.to_dict(), sort_keys=True,
                          default_flow_style=False)
