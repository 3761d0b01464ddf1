"""Metamorphic relations: maps of a scenario that must leave its trace
unchanged (Chen, Cheung and Yiu, *Metamorphic testing*, 1998).

A static layout's trace depends on its positions only through the
distances between nodes.  Negating every x, every y or both, and swapping
x with y, change each pair's coordinate differences only in sign or
order, which `math.hypot` ignores, so these four maps are exact in
floating point and every trace byte must stay as it is.  Mirroring
(``W - x``) and shifts round, so they are left out.  Mobile layouts are
left out of the position maps: their waypoint draws would have to be
mirrored with them, which the program cannot do.

Any layout, mobile included, keeps its trace under an increasing map of
the node ids, applied to placements, flows and ``links[]``, with the ids
in every record mapped the same way: the map keeps id order, so every
tie breaks as before.  ``mobile-deaths`` checks this with
``n -> 3n + 7``, on a run with moves, deaths and drops.

Each digest scenario is first rewritten as placements where its built
state put its group nodes; the rewritten scenario must give the original
trace, and each map of it must too.  Both scenarios are static, with
every energy cost 0, so their beacon cycles settle; the relations also
check that a moved layout's membership stamps, which tell when its
cycles settled, are the original's.
"""

import dataclasses
import json

import pytest

from antmanet.config import Placement, load_scenario
from antmanet.engine import Simulator

from digests import DATA, run

SCENARIOS = ("static-cache", "link-override")

MAPS = {
    "x-negated": lambda x, y: (-x, y),
    "y-negated": lambda x, y: (x, -y),
    "both-negated": lambda x, y: (-x, -y),
    "x-swapped-with-y": lambda x, y: (y, x),
}


# The node-id fields of each record kind, as dotted paths into the
# record; a path through a list of records names the field of each.  A
# field a record leaves out is skipped.
ID_FIELDS = {
    "scenario": (),
    "election": ("heads",),
    "route_ant": ("packet.src", "packet.dst"),
    "reply_king_ant": ("packet.src_head", "packet.dst_head",
                       "packet.to_visit"),
    "reply_knave_ant": ("packet.src_member", "packet.dst_member",
                        "packet.to_visit"),
    "route_selected": ("src", "dst", "path"),
    "delivered": ("dst",),
    "dropped": ("at", "next"),
    "no_route": (),
    "admission_rejected": (),
    "maintenance": ("head", "node"),
    "node_death": ("node",),
    "summary": ("flows.src", "flows.dst"),
}


def relabel_id(nid):
    return 3 * nid + 7


def as_placements(config, move=lambda x, y: (x, y), relabel=lambda n: n):
    """`config` with every node a placement where its built state put it,
    each position and velocity taken through `move`, and each node id, in
    placements, flows and links, through `relabel`."""
    state = Simulator(config).state
    placements = [
        Placement(id=relabel(nid), position=move(*attrs.position),
                  velocity=move(*attrs.velocity), energy=attrs.energy,
                  max_level=attrs.max_level, tx_range=attrs.tx_range,
                  node_delay=attrs.node_delay)
        for nid, attrs in state.nodes.items()]
    flows = [dataclasses.replace(f, src=relabel(f.src), dst=relabel(f.dst))
             for f in config.flows]
    links = [dataclasses.replace(link, a=relabel(link.a), b=relabel(link.b))
             for link in config.links]
    return dataclasses.replace(config, groups=[], placements=placements,
                               flows=flows, links=links)


def _relabel_field(value, keys):
    if isinstance(value, list):
        for item in value:
            _relabel_field(item, keys)
    elif keys[0] in value:
        key, rest = keys[0], keys[1:]
        if rest:
            _relabel_field(value[key], rest)
        elif isinstance(value[key], list):
            value[key] = [relabel_id(nid) for nid in value[key]]
        else:
            value[key] = relabel_id(value[key])


def relabelled_record(line):
    """The trace record `line`, parsed, with every id field relabelled."""
    record = json.loads(line)
    for path in ID_FIELDS[record["kind"]]:
        _relabel_field(record, path.split("."))
    return record


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request):
    """(config, trace text, membership stamps) of one digest scenario."""
    config = load_scenario(DATA / "digest" / f"{request.param}.yaml")
    text, sim = run(config)
    # The first cycle settles the run: later cycles re-stamp nothing.
    assert set(sim.clusters.last_heard.values()) == {
        config.beacon.interval}
    return config, text, sim.clusters.last_heard


def test_placements_keep_the_trace(scenario):
    config, text, _ = scenario
    assert not config.placements
    assert run(as_placements(config))[0] == text


@pytest.mark.parametrize("name", MAPS)
def test_map_keeps_the_trace(scenario, name):
    config, text, stamps = scenario
    moved = as_placements(config, MAPS[name])
    assert ([p.position for p in moved.placements]
            != [p.position for p in as_placements(config).placements])
    moved_text, sim = run(moved)
    assert moved_text == text
    assert sim.clusters.last_heard == stamps


def test_id_relabelling_maps_a_mobile_trace():
    config = load_scenario(DATA / "digest" / "mobile-deaths.yaml")
    text = run(as_placements(config))[0]
    assert text == run(config)[0]
    relabelled = as_placements(config, relabel=relabel_id)
    assert ([p.id for p in relabelled.placements]
            == [relabel_id(p.id) for p in as_placements(config).placements])
    lines = text.splitlines()
    got = run(relabelled)[0].splitlines()
    assert len(got) == len(lines)
    kinds = set()
    for line, relabelled_line in zip(lines, got):
        expected = relabelled_record(line)
        kinds.add(expected["kind"])
        assert json.loads(relabelled_line) == expected
    # The run moves, kills and drops: every kind but the Knave replies and
    # the admission rejections occurs, so each mapped field is exercised.
    assert kinds == set(ID_FIELDS) - {"reply_knave_ant", "admission_rejected"}
