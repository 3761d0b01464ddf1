"""Metamorphic relations: maps of a scenario that must leave its trace
unchanged (Chen, Cheung and Yiu, *Metamorphic testing*, 1998).

A static layout's trace depends on its positions only through the
distances between nodes.  Negating every x, every y or both, and swapping
x with y, change each pair's coordinate differences only in sign or
order, which `math.hypot` ignores, so these four maps are exact in
floating point and every trace byte must stay as it is.  Mirroring
(``W - x``) and shifts round, so they are left out.  Mobile layouts are
left out too: their waypoint draws would have to be mirrored with them,
which the program cannot do.

Each digest scenario is first rewritten as placements where its built
state put its group nodes; the rewritten scenario must give the original
trace, and each map of it must too.  Both scenarios are frozen runs
(static, every energy cost 0), so the relations also check that a moved
layout's beacon cycles settle as the original's do.
"""

import dataclasses

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


def as_placements(config, move=lambda x, y: (x, y)):
    """`config` with every node a placement where its built state put it,
    each position and velocity taken through `move`."""
    state = Simulator(config).state
    placements = [
        Placement(id=nid, position=move(*attrs.position),
                  velocity=move(*attrs.velocity), energy=attrs.energy,
                  max_level=attrs.max_level, tx_range=attrs.tx_range,
                  node_delay=attrs.node_delay)
        for nid, attrs in state.nodes.items()]
    return dataclasses.replace(config, groups=[], placements=placements)


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request):
    """(config, trace text, settled_at) of one digest scenario."""
    config = load_scenario(DATA / "digest" / f"{request.param}.yaml")
    text, sim = run(config)
    assert sim.manager.frozen
    return config, text, sim.manager.settled_at


def test_placements_keep_the_trace(scenario):
    config, text, _ = scenario
    assert not config.placements
    assert run(as_placements(config))[0] == text


@pytest.mark.parametrize("name", MAPS)
def test_map_keeps_the_trace(scenario, name):
    config, text, settled_at = scenario
    moved = as_placements(config, MAPS[name])
    assert ([p.position for p in moved.placements]
            != [p.position for p in as_placements(config).placements])
    moved_text, sim = run(moved)
    assert moved_text == text
    assert sim.manager.settled_at == settled_at
