"""Shared builders for hand-crafted network and cluster fixtures."""

from antmanet.clustering import ClusterState
from antmanet.config import ScenarioConfig
from antmanet.model import NetworkState, NodeAttributes
from antmanet.routing import Router

RANGES = {0: (100.0,), 1: (100.0, 250.0), 2: (100.0, 250.0, 600.0)}

# The config dataclasses' defaults, for objects built without a scenario.
DEFAULTS = ScenarioConfig()


def make_router(state, clusters, **kw):
    """A Router with the default pheromone and cache settings."""
    kw = {"q": DEFAULTS.pheromone.q, "tau_initial": DEFAULTS.pheromone.initial,
          "cache_max_age": DEFAULTS.cache.max_age, **kw}
    return Router(state, clusters, **kw)


def make_state(**kw):
    return NetworkState(**kw)


def add_node(state, nid, pos, level=0, energy=100.0, vel=(0.0, 0.0),
             node_delay=0.001, tx_range=None, mobility=0.0):
    state.add_node(nid, NodeAttributes(
        position=pos, velocity=vel, energy=energy, mobility=mobility,
        max_level=level, tx_range=tx_range or RANGES[level],
        node_delay=node_delay))
    return state


def line_state(n, spacing=50.0, **node_kw):
    """n nodes on the x axis, consecutive pairs in range, others not."""
    state = NetworkState()
    for i in range(n):
        add_node(state, i, (i * spacing, 0.0),
                 tx_range=(spacing * 1.5,), **node_kw)
    return state


def clique_state(n, **node_kw):
    state = NetworkState()
    for i in range(n):
        add_node(state, i, (i * 5.0, 0.0), **node_kw)
    return state


def manual_clusters(levels, tau=None):
    """A ClusterState holding `levels`, every membership heard at 0.0."""
    cs = ClusterState()
    for lvl, table in levels.items():
        cs.install(lvl, {h: set(m) for h, m in table.items()}, 0.0)
    cs.tau = tau or {}
    return cs
