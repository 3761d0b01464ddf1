"""Hierarchical ant-based QoS-aware routing for MANETs, with a
deterministic discrete-event simulator and CLI harness."""

from .clustering import (ClusterState, WeightParams, form_hierarchy,
                         node_weight, select_cluster_heads)
from .config import ScenarioConfig, load_scenario, parse_scenario, serialize
from .engine import Simulator
from .model import (LinkAttributes, NetworkState, NodeAttributes,
                    link_expiration_time)
from .qos import DepositParams, PathMetrics, pheromone_deposit
from .routing import (PheromoneTable, PreferenceParams, QosRequirement,
                      RouteCache, Router, path_preference_probability,
                      preference_score)

__version__ = "0.1.0"
