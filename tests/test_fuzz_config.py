"""Degenerate scenario inputs fail loudly (ROADMAP item 34).

Each draw takes a committed or digest scenario and sets one or two of its
leaves to an extreme value, or to a value of another type.  The document
must then either raise an ``AntManetError`` whose issues name key paths
of the document, or parse and run, its duration capped at 10 s, to the
end or to an ``AntManetError``.  A scenario whose node count grows past
the committed scenarios' is parsed but not run.

A group of about 10**300 nodes validates, as a long ``duration`` does:
a run's cost grows with its node count, but validation checks each flow
and link end against one id range per group, never against a list of
the nodes.  ``test_huge_count_validates_fast``, and every draw with a
group past the committed scenarios' node count, validate in a subprocess
limited in time and memory, so that a check that lists the nodes again
fails there instead of filling memory.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from antmanet import config
from antmanet.config import parse_scenario
from antmanet.engine import Simulator
from antmanet.errors import AntManetError, ScenarioError

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {p.stem: yaml.safe_load(p.read_text(encoding="utf-8"))
           for p in sorted([*(ROOT / "scenarios").glob("*.yaml"),
                            *(ROOT / "tests/data/digest").glob("*.yaml")])}

# The extreme values that ROADMAP item 34 lists.
VALUES = [0, -1, math.inf, -math.inf, math.nan, 1e300, 10**20, "", None,
          [], {}]
SWAP = object()  # the leaf's value as another type


def _swapped(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return len(value)
    return 0


def _leaves(node, path=()):
    """The key path of every scalar in `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items
            for leaf in _leaves(child, path + (key,))]


LEAVES = {name: _leaves(doc) for name, doc in SOURCES.items()}


def _node_count(cfg):
    return len(cfg.placements) + sum(max(g.count, 0) for g in cfg.groups)


MAX_NODES = max(_node_count(parse_scenario(yaml.safe_dump(doc)))
                for doc in SOURCES.values())


def _names_a_key_path(doc, path):
    """Whether issue path `path` names a key of `doc`, or a key that the
    schema knows in a mapping of `doc` (a missing or defaulted key)."""
    if path.startswith("<root>."):
        path = path[len("<root>."):]
    node, spec = doc, config._SCENARIO
    tokens = re.findall(r"\[\d+\]|[^.\[\]]+", path)
    for i, token in enumerate(tokens):
        if token.startswith("["):
            index = int(token[1:-1])
            if not isinstance(node, list) or index >= len(node):
                return False
            node = node[index]
            continue
        if not isinstance(node, dict):
            return False
        if token not in node:
            return (i == len(tokens) - 1 and isinstance(spec, config._Spec)
                    and token in spec.keys)
        node = node[token]
        args = ({key: arg for key, _, arg, _, _ in spec.entries}
                if isinstance(spec, config._Spec) else {})
        spec = args.get(token)
    return bool(tokens)


# parse_scenario's issues on stdin's document, as JSON, in a process that
# a check listing the nodes would stop at 1 GiB of address space.
BOUNDED = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from antmanet.config import parse_scenario
from antmanet.errors import ScenarioError
try:
    parse_scenario(sys.stdin.read())
except ScenarioError as exc:
    print(json.dumps(exc.issues))
else:
    print("[]")
"""


def _issues_bounded(text):
    """parse_scenario's issues on `text`, found in a subprocess that must
    end within 5 s and 1 GiB."""
    done = subprocess.run([sys.executable, "-c", BOUNDED], input=text,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=5)
    assert done.returncode == 0, done.stderr
    return [tuple(issue) for issue in json.loads(done.stdout)]


def _huge_group(doc):
    groups = doc.get("groups") if isinstance(doc, dict) else None
    return isinstance(groups, list) and any(
        isinstance(g, dict) and isinstance(g.get("count"), (int, float))
        and g["count"] > MAX_NODES for g in groups)


def _assert_fails_loudly_or_runs(doc):
    text = yaml.safe_dump(doc)
    if _huge_group(doc):
        # Validated out of process, so that a check listing the nodes
        # fails here instead of filling memory.
        for path, code, _ in _issues_bounded(text):
            assert _names_a_key_path(doc, path), (path, code, text)
        return
    try:
        cfg = parse_scenario(text)
    except ScenarioError as exc:
        for path, code, _ in exc.issues:
            assert _names_a_key_path(doc, path), (path, code, text)
        return
    if _node_count(cfg) > MAX_NODES:
        return
    cfg.duration = min(cfg.duration, 10.0)
    try:
        Simulator(cfg).run()
    except AntManetError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(data=st.data())
def test_degenerate_leaves_fail_loudly(data):
    name = data.draw(st.sampled_from(sorted(SOURCES)), label="scenario")
    doc = copy.deepcopy(SOURCES[name])
    paths = data.draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1,
                               max_size=2, unique=True), label="leaves")
    for path in paths:
        *parents, last = path
        parent = doc
        for key in parents:
            parent = parent[key]
        value = data.draw(st.sampled_from([*VALUES, SWAP]), label=str(path))
        parent[last] = _swapped(parent[last]) if value is SWAP else value
    _assert_fails_loudly_or_runs(doc)


def test_ends_are_found_in_group_ranges():
    # Placement 0, then nodes 1-2 (level 0) and 3-5 (level 1).
    doc = {"placements": [{"id": 0, "position": [0, 0]}],
           "groups": [{"count": 2}, {"count": 3, "max_level": 1}],
           "flows": [{"src": 0, "dst": 2}, {"src": 0, "dst": 5},
                     {"src": 0, "dst": 6}, {"src": 0, "dst": -1}],
           "links": [{"a": 1, "b": 3, "level": 1},
                     {"a": 4, "b": 3, "level": 1}]}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(yaml.safe_dump(doc))
    assert [(p, c) for p, c, _ in exc.value.issues] == [
        ("flows[3].dst", "range"), ("flows[2].dst", "node-ref"),
        ("flows[3].dst", "node-ref"), ("links[0].level", "level")]


def test_huge_count_validates_fast():
    assert _issues_bounded("groups: [{count: 1.0e+300}]\n") == []
    # Ends past groups of 10**20 and about 10**300 nodes.
    doc = {"placements": [{"id": 0, "position": [0, 0]}],
           "groups": [{"count": 10**20}, {"count": 1.0e+300, "max_level": 1}],
           "flows": [{"src": 0, "dst": 10**20},
                     {"src": 0, "dst": 10**20 + 1},
                     {"src": 0, "dst": -1}],
           "links": [{"a": 1, "b": 10**20 + 1, "level": 1}]}
    assert [(p, c) for p, c, _ in _issues_bounded(yaml.safe_dump(doc))] == [
        ("flows[2].dst", "range"), ("flows[2].dst", "node-ref"),
        ("links[0].level", "level")]
