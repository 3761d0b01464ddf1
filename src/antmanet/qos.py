"""Route-level QoS metric aggregation and pheromone deposit.

A route is an ordered node list plus the level of each hop.  Delay is
additive over links and nodes; bandwidth, energy and link expiration time
are bottleneck (min) metrics; hop count is the number of nodes on the path.
"""

import math
from dataclasses import dataclass

from .errors import BrokenPathError, DegenerateRouteError
from .model import left_sum


@dataclass
class PathMetrics:
    delay: float  # D(R), seconds
    bandwidth: float  # B(R), bits/second
    energy: float  # E(R), joules
    let: float  # T(R), seconds
    hop_count: int  # HC(R), number of nodes on the path


@dataclass
class DepositParams:
    lambda_b: float = 1.0
    lambda_e: float = 1.0
    lambda_t: float = 1.0
    lambda_d: float = 1.0
    lambda_hc: float = 1.0
    # Reference scales turn raw SI values into dimensionless ratios before
    # exponentiation; defaults leave values unchanged.
    ref_bandwidth: float = 1.0
    ref_energy: float = 1.0
    ref_let: float = 1.0
    ref_delay: float = 1.0
    # Static pairs predict an infinite expiry; cap keeps arithmetic finite.
    let_cap: float = 1e6


def path_links(route, state, levels):
    """The LinkAttributes of each hop of `route`, whose hop i runs at level
    levels[i]; raises BrokenPathError for a missing link."""
    links = []
    for a, b, level in zip(route[:-1], route[1:], levels, strict=True):
        link = state.link(a, b, level)
        if link is None:
            raise BrokenPathError(f"no link between {a} and {b}")
        links.append(link)
    return links


def path_metrics(route, state, levels):
    """Delay, bandwidth, energy, LET and hop count of `route`, whose hop
    i runs at level levels[i].

    A single-node route has no links, so its bandwidth and LET are
    infinite.  Raises BrokenPathError for an empty route or a missing link.
    """
    if not route:
        raise BrokenPathError("empty route")
    if len(route) == 1:
        return PathMetrics(delay=state.node(route[0]).node_delay,
                           bandwidth=math.inf, energy=state.node(route[0]).energy,
                           let=math.inf, hop_count=1)
    return link_metrics(path_links(route, state, levels),
                        [state.node(n) for n in route])


def link_metrics(links, nodes):
    """The PathMetrics of a route of at least one link, from its links'
    LinkAttributes and its nodes' NodeAttributes, each in route order.

    Delay sums the link delays, then the node delays, each left to right
    from 0; bandwidth and LET are minima over the links, energy the minimum
    over the nodes, and hop count the number of nodes.
    """
    delay = (left_sum(l.delay for l in links)
             + left_sum(a.node_delay for a in nodes))
    return PathMetrics(delay=delay,
                       bandwidth=min(l.bandwidth for l in links),
                       energy=min(a.energy for a in nodes),
                       let=min(l.let for l in links),
                       hop_count=len(nodes))


def pheromone_deposit(m, p=None):
    """Deposit quantity for a completed route.

    (B^lb + E^le + T^lt) / (D^ld + HC^lhc), each value first normalized by
    its reference scale.
    """
    p = p or DepositParams()
    b = m.bandwidth / p.ref_bandwidth
    e = m.energy / p.ref_energy
    t = min(m.let, p.let_cap) / p.ref_let
    d = m.delay / p.ref_delay
    hc = float(m.hop_count)
    if min(b, e, t, d, hc) < 0:
        raise DegenerateRouteError("negative metric value")
    den = d ** p.lambda_d + hc ** p.lambda_hc
    if den == 0.0:
        raise DegenerateRouteError("degenerate route: zero delay and hop count")
    num = b ** p.lambda_b + e ** p.lambda_e + t ** p.lambda_t
    return num / den
