"""What the traced run wraps, and the per-layer metrics derived from it.

Layer names are the program's module names.  Each wrapped function gets
a span named '<layer>.<function>'; a layer's self time is the sum of its
spans' self times.
"""

import inspect

from spans import child_counts, tail

# Simulator event handlers (private names) -> span name.
HANDLERS = {
    "_handle_beacon": "engine.beacon",
    "_handle_mobility": "engine.mobility_tick",
    "_handle_evaporate": "engine.evaporate",
    "_handle_packet_send": "engine.packet_send",
    "_handle_packet_at": "engine.packet_at",
}

# target ('module:qualname') -> (span name, count outcomes)
SPANS = {
    "antmanet.model:NetworkState.neighbors": ("model.neighbors", False),
    "antmanet.model:NetworkState.link": ("model.link", False),
    "antmanet.model:NetworkState.link_level": ("model.link_level", False),
    "antmanet.model:NetworkState.touch": ("model.touch", False),
    "antmanet.qos:path_metrics": ("qos.path_metrics", False),
    "antmanet.qos:pheromone_deposit": ("qos.pheromone_deposit", False),
    "antmanet.clustering:weight_table": ("clustering.weight_table", False),
    "antmanet.clustering:select_cluster_heads":
        ("clustering.select_cluster_heads", False),
    "antmanet.clustering:form_hierarchy": ("clustering.form_hierarchy", False),
    "antmanet.clustering:check_reelection_triggers":
        ("clustering.check_reelection_triggers", False),
    "antmanet.routing:Router.discover_route": ("routing.discover_route", True),
    "antmanet.routing:Router.evaporate_all": ("routing.evaporate_all", False),
    "antmanet.routing:Router.purge_node": ("routing.purge_node", False),
    "antmanet.maintenance:MaintenanceManager.run_cycle":
        ("maintenance.run_cycle", False),
    "antmanet.maintenance:MaintenanceManager.beacon_tick":
        ("maintenance.beacon_tick", False),
    "antmanet.maintenance:MaintenanceManager.detect_changes":
        ("maintenance.detect_changes", False),
    "antmanet.maintenance:MaintenanceManager.handle_membership_change":
        ("maintenance.handle_membership_change", True),
    "antmanet.maintenance:MaintenanceManager.propagate_hierarchy_change":
        ("maintenance.propagate_hierarchy_change", False),
    "antmanet.maintenance:MaintenanceManager.detect_head_merges":
        ("maintenance.detect_head_merges", False),
    "antmanet.maintenance:MaintenanceManager.check_reelection":
        ("maintenance.check_reelection", False),
    "antmanet.engine:Simulator.run": ("engine.run", False),
    "antmanet.engine:RandomWaypoint.step": ("engine.mobility", False),
    "antmanet.engine:energy_debit": ("engine.energy_debit", False),
    "antmanet.engine:format_record": ("engine.format_record", False),
    "antmanet.config:load_scenario": ("config.load_scenario", False),
    "antmanet.config:parse_scenario": ("config.parse_scenario", False),
    "antmanet.cli:main": ("cli.main", False),
}
SPANS.update({f"antmanet.engine:Simulator.{handler}": (name, False)
              for handler, name in HANDLERS.items()})
LAYERS = ("model", "qos", "clustering", "routing", "maintenance", "engine",
          "config", "cli")
KEEP_DURATIONS = ("maintenance.run_cycle", "routing.discover_route")


def max_rounds():
    """run_cycle's round cap, read from its signature."""
    from antmanet.maintenance import MaintenanceManager
    return inspect.signature(
        MaintenanceManager.run_cycle).parameters["max_rounds"].default


def scenario_counts(log):
    """Counts from one traced scenario that are not per-name sums."""
    rounds = child_counts(log, "maintenance.run_cycle",
                          "maintenance.detect_changes")
    cap = max_rounds()
    name = "maintenance.handle_membership_change"
    return {
        "rounds": sum(rounds),
        "cap_hits": sum(1 for r in rounds if r >= cap),
        "membership_true": log.truthy.get(name, 0),
        "discover_raised": log.raised.get("routing.discover_route", 0),
    }


def _get(stats, name, field):
    st = stats.get(name)
    return getattr(st, field) if st is not None else 0


def _ratio(num, den):
    return num / den if den else 0.0


def _tail_ms(durations):
    t = tail(durations)
    return (t[0], t[1] * 1e3) if t is not None else (0.0, 0.0)


def per_layer(stats, counts, router, totals):
    """The per-layer metric values, summed over the traced scenarios.

    `stats` maps span name to merged NameStats, `counts` sums
    `scenario_counts`, `router` sums Router.stats, `totals` holds the
    simulated and wall-clock totals of the traced and reference runs.
    """
    g = lambda name, f: _get(stats, name, f)  # noqa: E731
    out = {}
    for name in ("model.neighbors", "model.link", "qos.path_metrics",
                 "clustering.weight_table", "clustering.select_cluster_heads",
                 "maintenance.run_cycle", "routing.discover_route",
                 "routing.purge_node", "engine.format_record"):
        out[f"{name}.calls"] = g(name, "calls")
        out[f"{name}.self_s"] = g(name, "self_s")
    for name in ("model.touch", "qos.pheromone_deposit",
                 "maintenance.handle_membership_change",
                 "engine.energy_debit"):
        out[f"{name}.calls"] = g(name, "calls")
    for name in ("clustering.check_reelection_triggers",
                 "maintenance.beacon_tick", "maintenance.detect_changes",
                 "maintenance.detect_head_merges",
                 "maintenance.propagate_hierarchy_change",
                 "maintenance.check_reelection", "routing.evaporate_all",
                 "engine.mobility", "config.load_scenario"):
        out[f"{name}.self_s"] = g(name, "self_s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st.self_s for n, st in stats.items()
                                     if n.split(".", 1)[0] == layer)

    cycles = g("maintenance.run_cycle", "calls")
    pct, ms = _tail_ms(g("maintenance.run_cycle", "durations") or [])
    out["maintenance.run_cycle.tail_ms"] = ms
    out["maintenance.run_cycle.tail_pct"] = pct
    out["maintenance.run_cycle.share"] = _ratio(
        g("maintenance.run_cycle", "incl_s"), totals["traced_wall_s"])
    out["maintenance.handle_membership_change.useful_ratio"] = _ratio(
        counts["membership_true"], g("maintenance.handle_membership_change",
                                     "calls"))
    out["maintenance.rounds_per_cycle"] = _ratio(counts["rounds"], cycles)
    out["maintenance.cap_hits"] = counts["cap_hits"]

    discoveries = g("routing.discover_route", "calls")
    durations = sorted(g("routing.discover_route", "durations") or [])
    out["routing.discover_route.p50_ms"] = (
        durations[(len(durations) - 1) // 2] * 1e3 if durations else 0.0)
    pct, ms = _tail_ms(durations)
    out["routing.discover_route.tail_ms"] = ms
    out["routing.discover_route.tail_pct"] = pct
    out["routing.discover_route.fail_ratio"] = _ratio(
        counts["discover_raised"], discoveries)
    out["routing.discover_route.share"] = _ratio(
        g("routing.discover_route", "incl_s"), totals["traced_wall_s"])
    out["routing.cache_hit_ratio"] = _ratio(router.get("cache_hits", 0),
                                            discoveries)
    out["routing.flood.useful_ratio"] = _ratio(
        router.get("reply_packets", 0), router.get("request_forwards", 0))

    out["engine.events"] = sum(g(n, "calls") for n in HANDLERS.values())
    out["engine.delivered"] = totals["delivered"]
    out["engine.trace_bytes"] = totals["trace_bytes"]
    out["bench.trace_overhead_s"] = (totals["traced_wall_s"]
                                     - totals["reference_wall_s"])
    # Time in no layer function: the CLI's own code and the event loop.
    out["bench.unattributed_share"] = _ratio(
        g("cli.main", "self_s") + g("engine.run", "self_s"),
        totals["traced_wall_s"])
    return {name: (value, unit(name)) for name, value in out.items()}


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("ratio", "share", "per_cycle")):
        return "ratio"
    return "count"
