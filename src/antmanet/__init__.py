"""Hierarchical ant-based QoS-aware routing for MANETs, with a
deterministic discrete-event simulator and CLI harness."""

from .clustering import (ClusterState, WeightParams, ch_pheromone_update,
                         ch_selection_probability, form_hierarchy,
                         node_weight, select_cluster_heads)
from .config import ScenarioConfig, load_scenario, parse_scenario, serialize
from .engine import Simulator, run_scenario
from .model import (LinkAttributes, NetworkState, NodeAttributes, distance,
                    link_expiration_time)
from .qos import DepositParams, PathMetrics, path_metrics, pheromone_deposit
from .routing import (PheromoneTable, PreferenceParams, QosRequirement,
                      RouteCache, Router, path_preference_probability)

__version__ = "0.1.0"
