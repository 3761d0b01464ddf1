"""Seeded scenario generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical YAML.  The simulator only ever sees the generated text.

One benchmark run covers a batch of scenarios whose seeds are derived
from the run's seed (``batch_seeds``).  The host time of one scenario
depends on its topology: soak varies 3.1-4.4 s over ten seeds, and a
100-node flood varies tenfold because the share of flows that can be
routed at all depends on which nodes win the elections.  A run therefore
averages over many scenarios, and dense and flood runs are kept short to
fit more of them in.  Flood goes further: every run uses the same eight
layouts, each with its own fixed elections, and the seed draws only the
traffic, which leaves a per-scenario spread of about 20%.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SOAK_YAML = ROOT / "scenarios" / "soak.yaml"

# soak.yaml: 50 nodes on 600 x 600 m, 35/11/4 single/dual/triple interface.
SOAK_NODES = 50
SOAK_SIDE = 600.0
SOAK_MIX = (0.70, 0.22, 0.08)
SOAK_MOBILITY = {"enabled": True, "speed_min": 0.5, "speed_max": 2.0,
                 "pause": 5.0}
SOAK_ENERGY = {"tx_packet": 0.002, "tx_bit": 1e-7, "rx_packet": 0.001,
               "rx_bit": 5e-8, "beacon": 0.0002}
SOAK_FLOWS_PER_NODE = 10 / 50

DENSE_DURATION = 20.0
FLOOD_NODES = 100
FLOOD_MIX = (0.40, 0.40, 0.20)
FLOOD_FLOWS = 120
FLOOD_DURATION = 40.0
FLOOD_LAYOUTS = 8


def dump(doc):
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def _groups(n, mix):
    """Interface-level groups for n nodes; level 0 takes the rounding."""
    n1 = round(n * mix[1])
    n2 = round(n * mix[2])
    return [{"count": count, "max_level": level}
            for level, count in enumerate((n - n1 - n2, n1, n2)) if count]


def _pairs(rng, n, count):
    out = []
    for _ in range(count):
        src, dst = rng.sample(range(n), 2)
        out.append((src, dst))
    return out


def soak(seed):
    """The committed soak scenario with its seed replaced."""
    doc = yaml.safe_load(SOAK_YAML.read_text(encoding="utf-8"))
    doc["seed"] = seed
    return dump(doc)


def dense(seed, nodes=200):
    """Soak's node density, interface mix, mobility and energy costs at
    `nodes` nodes, with flows scaled to size."""
    rng = random.Random(f"dense:{nodes}:{seed}")
    side = round(SOAK_SIDE * math.sqrt(nodes / SOAK_NODES), 1)
    interval = DENSE_DURATION / 5
    flows = [{"src": s, "dst": d,
              "start": round(rng.uniform(1.0, interval), 3),
              "packets": 5, "interval": interval}
             for s, d in _pairs(rng, nodes,
                                round(nodes * SOAK_FLOWS_PER_NODE))]
    return dump({
        "version": 1, "seed": seed, "duration": DENSE_DURATION,
        "arena": {"width": side, "height": side},
        "groups": _groups(nodes, SOAK_MIX),
        "mobility": dict(SOAK_MOBILITY),
        "energy_costs": dict(SOAK_ENERGY),
        "flows": flows,
    })


def flood(seed, layout):
    """Static nodes at soak's density, 40/40/20 interfaces, no energy costs,
    1 packet/s flows and a 0.5 s route cache, so every send rediscovers.

    The node layout and the scenario seed (which drives the elections) come
    from `layout`; `seed` draws only the traffic.
    """
    topo = random.Random(f"flood-layout:{layout}")
    side = round(SOAK_SIDE * math.sqrt(FLOOD_NODES / SOAK_NODES), 1)
    levels = [g["max_level"] for g in _groups(FLOOD_NODES, FLOOD_MIX)
              for _ in range(g["count"])]
    topo.shuffle(levels)
    placements = [{"id": i, "max_level": level,
                   "position": [round(topo.uniform(0.0, side), 3),
                                round(topo.uniform(0.0, side), 3)]}
                  for i, level in enumerate(levels)]
    rng = random.Random(f"flood:{seed}")
    flows = [{"src": s, "dst": d, "start": round(rng.uniform(0.0, 2.0), 3),
              "packets": int(FLOOD_DURATION), "interval": 1.0}
             for s, d in _pairs(rng, FLOOD_NODES, FLOOD_FLOWS)]
    return dump({
        "version": 1, "seed": layout, "duration": FLOOD_DURATION,
        "arena": {"width": side, "height": side},
        "placements": placements,
        "cache": {"max_age": 0.5},
        "flows": flows,
    })


@dataclass(frozen=True)
class Workload:
    generate: object  # (scenario seed, index in batch) -> scenario YAML
    batch: int  # scenarios per run
    traced: int  # how many of them the traced run wraps
    write_trace: bool  # run as `antmanet trace` rather than `antmanet run`


WORKLOADS = {
    "soak": Workload(lambda seed, i: soak(seed), batch=7, traced=3,
                     write_trace=False),
    "dense": Workload(lambda seed, i: dense(seed), batch=10, traced=4,
                      write_trace=False),
    "flood": Workload(lambda seed, i: flood(seed, i % FLOOD_LAYOUTS),
                      batch=24, traced=8, write_trace=True),
}


def batch_seeds(seed, count):
    """Disjoint scenario seeds for run seed `seed`: seed*count .. +count-1."""
    return [seed * count + i for i in range(count)]


def scenarios(name, seed):
    """[(scenario seed, YAML text)] for one run of workload `name`."""
    w = WORKLOADS[name]
    return [(sub, w.generate(sub, i))
            for i, sub in enumerate(batch_seeds(seed, w.batch))]
