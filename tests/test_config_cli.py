import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from antmanet import config
from antmanet.cli import build_parser, main
from antmanet.config import (FlowConfig, NodeGroup, Placement, ScenarioConfig,
                             load_scenario, parse_scenario, serialize)
from antmanet.engine import Simulator
from antmanet.errors import AntManetError, ScenarioError


MINIMAL = """
seed: 7
duration: 5
placements:
  - {id: 0, position: [0, 0]}
  - {id: 1, position: [40, 0]}
flows:
  - {src: 0, dst: 1, start: 1.0, packets: 2}
"""


def codes(exc):
    return {code for _, code, _ in exc.value.issues}


class TestParsing:
    def test_defaults(self):
        cfg = parse_scenario("placements: [{id: 0, position: [0, 0]}]")
        assert cfg.version == 1
        assert cfg.seed == 0
        assert cfg.duration == 100.0
        assert cfg.weights.w1 == 0.25
        assert cfg.pheromone.q == 0.1
        assert cfg.beacon.miss_threshold == 3
        assert cfg.link.delay == {0: 0.002, 1: 0.0015, 2: 0.001}
        assert not cfg.mobility.enabled

    def test_minimal_scenario(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.seed == 7
        assert [p.id for p in cfg.placements] == [0, 1]
        assert cfg.flows[0].qos.max_delay == math.inf

    def test_empty_document(self):
        cfg = parse_scenario("")
        assert list(cfg.nodes()) == []

    @pytest.mark.parametrize("template, literal, path, written", [
        ("duration: @", "1e3", "duration", "1.0e+3"),
        (MINIMAL.replace("packets: 2}", "packets: 2, qos: {min_bandwidth: @}}"),
         "1.5e5", "flows[0].qos.min_bandwidth", "1.5e+5"),
        (MINIMAL.replace("packets: 2}", "packets: 2, qos: {max_delay: @}}"),
         "5E-2", "flows[0].qos.max_delay", "5.0e-2"),
    ], ids=["duration", "min_bandwidth", "max_delay"])
    def test_exponent_literal_names_the_yaml_rule(self, template, literal,
                                                  path, written):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(template.replace("@", literal))
        assert exc.value.issues == [(
            path, "type",
            f"expected a number: YAML 1.1 reads {literal} as a string, as "
            f"its floats need a dot and a signed exponent; write {written}")]
        parse_scenario(template.replace("@", written))

    def test_quoted_number_is_only_a_type_issue(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('duration: "1.0e+3"')
        assert exc.value.issues == [("duration", "type", "expected a number")]

    def test_group_ids_follow_placements(self):
        cfg = parse_scenario(
            "placements: [{id: 3, position: [0, 0]}]\n"
            "groups: [{count: 2}]")
        assert [nid for nid, _ in cfg.nodes()] == [3, 4, 5]

    def test_weight_sum_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("weights: {w1: 0.5, w2: 0.5, w3: 0.5, w4: 0.5}")
        assert "weight-sum" in codes(exc)

    def test_q_range_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("pheromone: {q: 0.0}")
        assert "q-range" in codes(exc)

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("pheronome: {q: 0.5}")
        assert "unknown-key" in codes(exc)

    @pytest.mark.parametrize(
        "path", ["preference.ref_delay", "preference.ref_bandwidth",
                 "preference.ref_energy", "preference.ref_let",
                 "cache.capacity"],
        ids=lambda path: path.removeprefix("preference."))
    def test_preference_scale_is_unknown_key(self, path):
        # One scale on every candidate's score cannot change a route, so
        # the preference section has none; a route cache holds one route
        # per path and drops expired ones, so it has no capacity.
        section, key = path.split(".")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"{section}: {{{key}: 2}}")
        assert [(p, c) for p, c, _ in exc.value.issues] == [
            (path, "unknown-key")]

    @pytest.mark.parametrize("text", ["rho: 0.5", "n_iter: 100",
                                      "theta_tau: 0"],
                             ids=lambda text: text.split(":")[0])
    def test_election_colony_key_is_unknown_key(self, text):
        # Heads are elected by weight alone, so the election has no
        # pheromone and a scenario that still tunes it fails loudly.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"weights: {{{text}}}")
        key = text.split(":")[0]
        assert [(p, c) for p, c, _ in exc.value.issues] == [
            (f"weights.{key}", "unknown-key")]

    def test_tx_range_must_increase(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(
                "groups: [{count: 1, max_level: 1, tx_range: [100, 90]}]")
        assert "tx-range" in codes(exc)

    def test_flow_node_ref_checked(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(
                "placements: [{id: 0, position: [0, 0]}]\n"
                "flows: [{src: 0, dst: 9}]")
        assert "node-ref" in codes(exc)

    def test_zero_link_delay_reported(self):
        # A path of zero delay has no preference score.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("groups: [{count: 2}]\n"
                           "links: [{a: 0, b: 1, level: 0, delay: 0}]")
        assert [(p, c) for p, c, _ in exc.value.issues] == [
            ("links[0].delay", "range")]

    @pytest.mark.parametrize("text, path, message", [
        ("flows: [{src: 1, dst: 1}]", "flows[0].dst",
         "dst is node 1, the same as src"),
        ("links: [{a: 1, b: 1, level: 0}]", "links[0].b",
         "b is node 1, the same as a")], ids=["flow", "link"])
    def test_same_node_at_both_ends_reported(self, text, path, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("groups: [{count: 2}]\n" + text)
        assert exc.value.issues == [(path, "node-ref", message)]

    def test_link_above_an_ends_max_level_reported(self):
        # Such a link never exists, so its override would be ignored.
        # Entries whose a, b or level is already reported are skipped.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(
                "placements:\n"
                "  - {id: 0, position: [0, 0], max_level: 2}\n"
                "  - {id: 1, position: [10, 0]}\n"
                "  - {id: 2, position: [20, 0], max_level: 1}\n"
                "links:\n"
                "  - {a: 0, b: 1, level: 2, delay: 0.5}\n"
                "  - {a: 2, b: 0, level: 2}\n"
                "  - {a: 1, b: 9, level: 2}\n"
                "  - {a: 1, b: 2, level: 3}\n"
                "  - {a: 0, b: 2, level: 1}")
        assert exc.value.issues == [
            ("links[3].level", "range", "must be <= 2"),
            ("links[0].level", "level",
             "b is node 1, which has no level-2 interface (max_level 0)"),
            ("links[1].level", "level",
             "a is node 2, which has no level-2 interface (max_level 1)"),
            ("links[2].b", "node-ref", "node 9 does not exist")]

    def test_link_entered_twice_reported(self):
        # Only the later entry would be applied, so the first one's pin
        # would be lost.  The same ends at another level are another link.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(
                "placements:\n"
                "  - {id: 0, position: [0, 0], max_level: 1}\n"
                "  - {id: 1, position: [10, 0], max_level: 1}\n"
                "links:\n"
                "  - {a: 0, b: 1, level: 0, delay: 0.5}\n"
                "  - {a: 0, b: 1, level: 1, delay: 0.5}\n"
                "  - {a: 1, b: 0, level: 0, bandwidth: 1000}")
        assert exc.value.issues == [
            ("links[2]", "duplicate",
             "links[0] already sets the level-0 link between nodes 0 and 1")]

    @pytest.mark.parametrize("text", [
        "groups: [{count: 3, energy: 0}]",
        "placements: [{id: 0, position: [0, 0], energy: 0.0}]"],
        ids=["group", "placement"])
    def test_zero_starting_energy_reported(self, text):
        # A node with no energy dies on its first radio action, even when
        # every energy cost is zero.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert [(p, c) for p, c, _ in exc.value.issues] == [
            (text.split(":")[0] + "[0].energy", "range")]

    def test_negative_exponent_reported(self):
        # Under no pheromone this scenario's first discovery would raise
        # ZeroDivisionError: 0.0 cannot be raised to a negative power.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(
                "placements: [{id: 0, position: [0, 0]},"
                " {id: 1, position: [80, 0]}, {id: 2, position: [160, 0]}]\n"
                "pheromone: {initial: 0.0}\n"
                "preference: {alpha1: -1.0}\n"
                "flows: [{src: 0, dst: 2}]")
        assert exc.value.issues == [
            ("preference.alpha1", "range", "must be >= 0.0")]

    def test_every_exponent_is_bounded(self):
        alphas = [f"alpha{i}" for i in range(1, 7)]
        lambdas = [f"lambda_{x}" for x in ("b", "e", "t", "d", "hc")]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(
                "preference: {" + ", ".join(f"{k}: -0.5" for k in alphas)
                + "}\ndeposit: {" + ", ".join(f"{k}: -0.5" for k in lambdas)
                + "}")
        assert sorted((p, c) for p, c, _ in exc.value.issues) == sorted(
            [(f"preference.{k}", "range") for k in alphas]
            + [(f"deposit.{k}", "range") for k in lambdas])

    def test_link_that_is_not_a_mapping_reported_once(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("links: [5]")
        assert exc.value.issues == [("links[0]", "type", "expected a mapping")]

    def test_multiple_issues_reported_together(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("beacon: {miss_threshold: 0}\npheromone: {q: 0.0}")
        assert {"miss-threshold", "q-range"} <= codes(exc)

    def test_version_gate(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("version: 2")
        assert "version" in codes(exc)

    def test_yaml_syntax_error(self):
        with pytest.raises(ScenarioError):
            parse_scenario("{unclosed")

    @pytest.mark.parametrize("text", [
        "groups: [{count: 1, max_level: 3}]",
        "placements: [{id: 0, position: [0, 0], max_level: -1}]"])
    def test_max_level_out_of_range_reported(self, text):
        # Without a tx_range there is no default one to fall back on.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert codes(exc) == {"range"}

    def test_missing_required_keys_reported(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("placements: [{}]\nflows: [{}]")
        assert [(p, c) for p, c, _ in exc.value.issues] == [
            ("placements[0].id", "missing"),
            ("placements[0].position", "missing"),
            ("flows[0].src", "missing"), ("flows[0].dst", "missing")]

    def test_link_without_end_or_level_reported(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("groups: [{count: 4}]\nlinks: [{b: 3, delay: 0.5}]")
        assert exc.value.issues == [
            ("links[0].a", "missing", "required key"),
            ("links[0].level", "missing", "required key")]


# One valid item per list section, so that its fields can be mutated.
ITEMS = {"groups": {"count": 1, "tx_range": [100]},
         "placements": {"id": 0, "position": [0, 0], "velocity": [0, 0],
                        "tx_range": [100]},
         "flows": {"src": 0, "dst": 1},
         "links": {"a": 0, "b": 1, "level": 0, "delay": 0.01,
                   "bandwidth": 1e6}}


def numeric_fields(cls=ScenarioConfig, prefix=()):
    """Key path of every number below cls (0 indexes a list): each int or
    float field, each entry l0-l2 of a per-level map, and each entry of a
    tx_range (one, at max_level 0), position or velocity."""
    for f in dataclasses.fields(cls):
        keys = prefix + (f.name,)
        if f.type in (int, float):
            yield keys
        elif f.type is dict:
            yield from (keys + (f"l{level}",) for level in range(3))
        elif f.type is tuple:
            yield from (keys + (i,)
                        for i in range(1 if f.name == "tx_range" else 2))
        elif dataclasses.is_dataclass(f.type):
            yield from numeric_fields(f.type, keys)
        elif typing.get_origin(f.type) is list:
            yield from numeric_fields(typing.get_args(f.type)[0], keys + (0,))


def yaml_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in keys).lstrip(".")


def issue_path(keys):
    """Where a bad number at `keys` is reported: a list entry at its list."""
    return yaml_path(keys[:-1] if isinstance(keys[-1], int) else keys)


NUMERIC_FIELDS = list(numeric_fields())


def issues_with(keys, text):
    """(path, code) of each issue of a valid document whose number at
    `keys` is written as the YAML scalar `text`."""
    doc = {name: [copy.deepcopy(item)] for name, item in ITEMS.items()}
    parse_scenario(yaml.safe_dump(doc))
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {}) if isinstance(k, str) else node[k]
    node[keys[-1]] = "VALUE"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(yaml.safe_dump(doc).replace("VALUE", text))
    return [(p, c) for p, c, _ in exc.value.issues]


class TestSingleHome:
    def test_empty_document_is_the_dataclass_default(self):
        assert parse_scenario("") == ScenarioConfig()

    def test_items_from_required_keys_equal_their_dataclass(self):
        cfg = parse_scenario("groups: [{}]\n"
                             "placements: [{id: 0, position: [1, 2]}]\n"
                             "flows: [{src: 0, dst: 1}]")
        assert cfg.groups == [NodeGroup()]
        assert [nid for nid, _ in cfg.nodes()] == [0, 1]
        assert cfg.placements == [Placement(id=0, position=(1.0, 2.0))]
        assert cfg.flows == [FlowConfig(src=0, dst=1)]

    def test_every_section_has_numbers(self):
        sections = {keys[0] for keys in NUMERIC_FIELDS if len(keys) > 1}
        assert sections == {f.name for f in dataclasses.fields(ScenarioConfig)
                            if f.type not in (int, float)}

    def test_bounds_name_numeric_fields(self):
        # A misspelt path in the table would drop its bound silently.  An
        # entry of a list or of a per-level map is named by "[]".
        patterns = {re.sub(r"\[\d+\]|\.l\d$", "[]", yaml_path(k))
                    for k in NUMERIC_FIELDS}
        assert set(config._BOUNDS) <= patterns

    @pytest.mark.parametrize("keys", NUMERIC_FIELDS,
                             ids=[yaml_path(k) for k in NUMERIC_FIELDS])
    def test_string_is_one_type_issue(self, keys):
        assert issues_with(keys, "x") == [(issue_path(keys), "type")]

    @pytest.mark.parametrize("keys", NUMERIC_FIELDS,
                             ids=[yaml_path(k) for k in NUMERIC_FIELDS])
    def test_boolean_is_one_type_issue(self, keys):
        # YAML 1.1 reads true, on and yes as booleans, which no number is.
        for text in ("true", "on", "yes"):
            assert issues_with(keys, text) == [(issue_path(keys), "type")]


TWO_NODES = "groups: [{count: 2}]\n"


# (scenario text, path of the one issue it raises)
NON_FINITE = [
    ("seed: .inf", "seed"),
    ("duration: .inf", "duration"),
    ("groups: [{count: .nan}]", "groups[0].count"),
    ("groups: [{count: 1, tx_range: [.nan]}]", "groups[0].tx_range"),
    ("placements: [{id: 0, position: [.nan, 0]}]", "placements[0].position"),
    ("placements: [{id: 0, position: [0, 0], velocity: [0, .inf]}]",
     "placements[0].velocity"),
    ("weights: {w1: .nan}", "weights.w1"),
    ("link: {delay: {l0: .nan}}", "link.delay.l0"),
    ("link: {bandwidth: {l2: .inf}}", "link.bandwidth.l2"),
    ("weights: {theta_w: .nan}", "weights.theta_w"),
    (TWO_NODES + "flows: [{src: 0, dst: 1, qos: {max_delay: .nan}}]",
     "flows[0].qos.max_delay"),
]


class TestNonFinite:
    @pytest.mark.parametrize("text, path", NON_FINITE,
                             ids=[path for _, path in NON_FINITE])
    def test_rejected(self, text, path):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert [(p, c) for p, c, _ in exc.value.issues] == [(path, "non-finite")]

    def test_infinite_defaults_may_stay_infinite(self):
        cfg = parse_scenario(
            TWO_NODES + "weights: {theta_w: .inf}\n"
            "flows: [{src: 0, dst: 1, qos: {max_delay: .inf}}]")
        assert cfg.weights.theta_w == math.inf
        assert cfg.flows[0].qos.max_delay == math.inf


SCENARIO_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))
DIGEST_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "tests/data/digest").glob("*.yaml"))

# Documents on which libyaml and the pure-Python parser could disagree.
YAML_EDGE_CASES = [
    "a: &x [1, 2]\nb: *x\nc: {<<: {k: 1}, j: 2}",
    "a: &x {k: 1, j: 1}\nc: {<<: *x, k: 2}",
    "sexagesimal: 1:30:00\nfloat60: 1:30.5",
    "octal: 0o17\nold_octal: 017\nhex: 0x1F\nbin: 0b101\nsep: 1_000",
    "date: 2002-12-14\nstamp: 2001-12-14t21:59:43.10-05:00",
    "pinf: .inf\nninf: -.Inf\nnan: .NaN\nexp: 6.8523015e+5",
    "bools: [yes, No, on, OFF, true, ~, null, '']",
    "'a\tb': \"c\td\"",
    "key: 'single'\nother: \"d\\u00e9j\\xe0\"\nu: n\u0153ud",
    "- [1, 2]\n- {x: 1}\n- |\n  block\n  text\n- >\n  folded\n  text\n",
    "{unclosed",
    "a: [1, 2",
    "a: b: c",
    "key: @reserved",
    "!!python/object:os.system {}",
    "",
]

# A document for each way out of config._LOADER's walk over the parser's
# events, on which PyYAML's composer and constructor load the text again.
WALK_EXITS = [
    "a: &x 1\nb: *x",
    # An anchor with no alias, defined twice: PyYAML's composer rejects it.
    "a: &x 1\nb: &x 2",
    "--- 1\n--- 2",
    # A scalar its tag cannot read, then a syntax error: the syntax error
    # is reported, as PyYAML composes the whole document first.
    "seed: !!bool 'maybe'\nx: ]",
    "a: &x [1, 2]\nb: *x\nc: &y {k: 1}\nd: *y",
    "a: &x [*x]",
    "c: {<<: {k: 1}, j: 2}",
    "c: {<<: [{k: 1}, {j: 2}], k: 3}",
    "b: !!binary aGVsbG8=\n",
    "s: !!set {a, b}",
    "o: !!omap [{a: 1}, {b: 2}]",
    "date: 2002-12-14",
    "? [1, 2]\n: x",
    "[" * (config._DEPTH + 1) + "]" * (config._DEPTH + 1),
]
YAML_EDGE_CASES += WALK_EXITS + [
    # Explicit tags on quoted scalars, which the walk builds.
    "[!!int '12', !!float '1.5', !!str 12, !!bool 'yes', !!int '-+1',\n"
    " !!float '--1']",
    # One value, plain and then quoted, and the other way round: a quoted
    # scalar is never an int.
    "a: 12\nb: '12'\nc: '7'\nd: 7",
    # YAML 1.1 reads 007 and 017 as octal.
    "[0, -0, +7, 007, 017, 1_0, 12]",
    "{.nan: 1, ~: 2, yes: 3, 1.5: 4, 12: 5, '12': 6}",
    "[" * config._DEPTH + "]" * config._DEPTH,
]

# Scalars that their tag cannot read: SafeLoader raises PyYAML's bare error,
# which has no mark, and config._LOADER a ConstructorError at the scalar.
# Besides a repeated key, this is where the two loaders part.  Each row is
# the document, SafeLoader's error, and the value, tag, line and column
# that config._LOADER's error names.
UNREADABLE = [
    ("[1, !!bool 'maybe']", KeyError, "'maybe'", "bool", 1, 5),
    ("seed: !!bool 'maybe'", KeyError, "'maybe'", "bool", 1, 7),
    ("seed: !!int 'x'", ValueError, "'x'", "int", 1, 7),
    # Past Python's int-digit limit; reprlib shortens the value.
    ("seed: " + "1" * 5000, ValueError, "'111111111111...1111111111111'",
     "int", 1, 7),
    ("seed: 1\nlink: {delay: !!float 'x'}", ValueError, "'x'", "float", 2,
     15),
    ("date: 2002-13-45", ValueError, "'2002-13-45'", "timestamp", 1, 7),
]

# Where the parsers part: libyaml reads a tab between tokens on a line as a
# space, where PyYAML's scanner raises, and it rejects a %YAML version other
# than 1.1 or 1.2 and an unknown directive, which PyYAML accepts.
YAML_DIVERGENCES = [
    ("a:\tb", {"a": "b"}, yaml.scanner.ScannerError),
    ("a: b\t# c\nd:\t[1,\t2]", {"a": "b", "d": [1, 2]},
     yaml.scanner.ScannerError),
    ("%YAML 1.3\n--- a", yaml.parser.ParserError, "a"),
    ("%FOO bar\n--- a", yaml.scanner.ScannerError, "a"),
]


@pytest.fixture(params=[config._LOADER, yaml.SafeLoader],
                ids=[config._LOADER.__base__.__name__, "SafeLoader"])
def loader(request, monkeypatch):
    """Run the test under the production loader, then under SafeLoader.
    The production loader's id is the PyYAML loader it extends."""
    monkeypatch.setattr(config, "_LOADER", request.param)
    return request.param


class TestLoaderEquivalence:
    def test_production_loader_is_libyaml_when_available(self):
        if yaml.__with_libyaml__:
            assert issubclass(config._LOADER, yaml.CSafeLoader)
        else:
            assert issubclass(config._LOADER, yaml.SafeLoader)

    @pytest.mark.parametrize("text, key, line", [
        ("dup: 1\ndup: 2", "'dup'", 2),
        ("flows: [{src: 0, dst: 1}]\nseed: 3\nflows: []\n", "'flows'", 3),
        ("arena: {width: 10,\n        width: 20}", "'width'", 2),
        ("yes: 1\ntrue: 2", "True", 2)],
        ids=["dup", "flows", "nested", "same-value"])
    def test_repeated_key_reported(self, text, key, line):
        # SafeLoader keeps a repeated key's last value, so the first would
        # be silently lost.
        with pytest.raises(yaml.constructor.ConstructorError):
            yaml.load(text, Loader=config._LOADER)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        [(path, code, msg)] = exc.value.issues
        assert (path, code) == ("<document>", "yaml")
        assert f"found duplicate key {key}\n" in msg
        assert f"line {line}," in msg.split("found duplicate key")[1]

    @pytest.mark.parametrize("text, error, value, tag, line, column",
                             UNREADABLE,
                             ids=["seq", "bool", "int", "digits", "nested",
                                  "timestamp"])
    def test_unreadable_scalar_reported(self, text, error, value, tag, line,
                                        column, tmp_path):
        with pytest.raises(error):
            yaml.load(text, Loader=yaml.SafeLoader)
        with pytest.raises(yaml.constructor.ConstructorError):
            yaml.load(text, Loader=config._LOADER)
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        [(where, code, msg)] = exc.value.issues
        assert (where, code) == ("<document>", "yaml")
        assert msg == (f"cannot read {value} as tag:yaml.org,2002:{tag}\n"
                       f'  in "{path}", line {line}, column {column}')

    @pytest.mark.parametrize("path", SCENARIO_FILES,
                             ids=[p.name for p in SCENARIO_FILES])
    def test_committed_scenarios(self, loader, path, monkeypatch):
        text = path.read_text(encoding="utf-8")
        with monkeypatch.context() as m:
            m.setattr(config, "_LOADER", yaml.SafeLoader)
            expected = parse_scenario(text)
        assert parse_scenario(text) == expected

    @pytest.mark.parametrize("text, path", NON_FINITE,
                             ids=[path for _, path in NON_FINITE])
    def test_non_finite_issues(self, loader, text, path):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert [(p, c) for p, c, _ in exc.value.issues] == [(path, "non-finite")]

    def test_infinite_defaults(self, loader):
        TestNonFinite().test_infinite_defaults_may_stay_infinite()

    @pytest.mark.parametrize("text", ["{unclosed", "a: \ud800"],
                             ids=["unclosed", "lone-surrogate"])
    def test_unreadable_document(self, loader, text):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert [(p, c) for p, c, _ in exc.value.issues] == [("<document>", "yaml")]

    def test_yaml_issue_names_the_file(self, loader, tmp_path):
        # config._LOADER's walk hands both texts over, so each is read
        # again from the file's stream.
        for text in ("seed: 1\n{unclosed", "seed: 1\n---\nseed: 2"):
            path = tmp_path / "bad.yaml"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ScenarioError) as exc:
                load_scenario(path)
            [(where, code, msg)] = exc.value.issues
            assert (where, code) == ("<document>", "yaml")
            assert f'in "{path}", line 2,' in msg
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(path.read_text(encoding="utf-8"))
            assert 'in "<unicode string>", line 2,' in exc.value.issues[0][2]

    @pytest.mark.parametrize("text", YAML_EDGE_CASES)
    def test_edge_documents(self, text):
        assert (_load_or_error(text, config._LOADER)
                == _load_or_error(text, yaml.SafeLoader))

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML lacks libyaml")
    @pytest.mark.parametrize("text, libyaml, pure", YAML_DIVERGENCES)
    def test_known_divergences(self, text, libyaml, pure):
        for loader, expected in ((yaml.CSafeLoader, libyaml),
                                 (yaml.SafeLoader, pure)):
            if isinstance(expected, type):
                assert _load_or_error(text, loader) is expected
            else:
                assert yaml.load(text, Loader=loader) == expected


class TestWalk:
    """config._LOADER builds a plain document as the parser's events
    arrive, and has PyYAML's composer and constructor load any other text
    again."""

    @staticmethod
    def handovers(text, monkeypatch):
        """How many times loading `text` composes a node tree, and how many
        times it reaches PyYAML's constructor."""
        composed, constructed = [], []
        compose = config._LOADER.get_single_node
        construct = yaml.constructor.BaseConstructor.construct_document
        monkeypatch.setattr(
            config._LOADER, "get_single_node",
            lambda self: composed.append(self) or compose(self))
        monkeypatch.setattr(
            yaml.constructor.BaseConstructor, "construct_document",
            lambda self, node: (constructed.append(node)
                                or construct(self, node)))
        _load_or_error(text, config._LOADER)
        return len(composed), len(constructed)

    @pytest.mark.parametrize("text", WALK_EXITS + [
        "dup: 1\ndup: 2", "{1: a, true: b}"]
        + [text for text, *_ in UNREADABLE])
    def test_exits_hand_over(self, text, monkeypatch):
        try:
            yaml.compose(text, Loader=config._LOADER.__base__)
            constructs = 1
        except yaml.YAMLError:  # PyYAML's composer rejects the text
            constructs = 0
        assert self.handovers(text, monkeypatch) == (1, constructs)

    @pytest.mark.parametrize("text", WALK_EXITS)
    def test_exits_load_as_the_base_loader(self, text):
        """Each exit's data, or its error's class and message, is that of
        the PyYAML loader config._LOADER extends."""
        assert (_load_or_message(text, config._LOADER)
                == _load_or_message(text, config._LOADER.__base__))

    @pytest.mark.parametrize("path", SCENARIO_FILES + DIGEST_FILES,
                             ids=lambda p: p.name)
    def test_scenarios_are_walked(self, path, monkeypatch):
        text = path.read_text(encoding="utf-8")
        assert self.handovers(text, monkeypatch) == (0, 0)

    @pytest.mark.parametrize("seekable", [True, False],
                             ids=["seekable", "unseekable"])
    def test_handover_reads_the_stream_again(self, seekable):
        """A handover reads a stream again from where the loader found it,
        under the stream's name; a stream that cannot seek is read into
        memory first."""
        class Stream(io.StringIO):
            def seekable(self):
                return seekable

            def seek(self, *args):
                if not seekable:
                    raise io.UnsupportedOperation("seek")
                return super().seek(*args)

        def opened(text):
            stream = Stream("skipped: line\n" + text)
            stream.name = "scenario.yaml"
            stream.readline()
            return stream

        with pytest.raises(yaml.composer.ComposerError) as exc:
            yaml.load(opened("seed: &x 1\n---\nseed: 2"),
                      Loader=config._LOADER)
        assert 'in "scenario.yaml", line 2,' in str(exc.value)
        assert yaml.load(opened("a: &x [1]\nb: *x"),
                         Loader=config._LOADER) == {"a": [1], "b": [1]}

    def test_path_resolvers_hand_over(self, monkeypatch):
        """A path resolver registered on the loader config._LOADER extends
        tags the nodes at its path, which the walk does not track."""
        base = config._LOADER.__base__
        monkeypatch.setattr(base, "yaml_path_resolvers", {}, raising=False)
        base.add_path_resolver(config._TAG + "set", ["1"], dict)
        base.add_path_resolver(config._TAG + "int", ["n"], str)
        # Each scalar has an implicit tag: only the path makes a set.
        assert self.handovers("1: {2: ~}", monkeypatch) == (1, 1)
        assert yaml.load("1: {2: ~}", Loader=config._LOADER) == {1: {2}}
        # The second "abc" is tagged !!int by the path, not by the first.
        with pytest.raises(yaml.constructor.ConstructorError,
                           match="cannot read 'abc' as tag:yaml.org,2002:int"):
            yaml.load("m: abc\nn: abc", Loader=config._LOADER)

    def test_aliased_collection_is_one_object(self, loader):
        data = yaml.load("a: &x [1]\nb: *x\nc: &y {k: 1}\nd: *y",
                         Loader=loader)
        assert data["a"] is data["b"] and data["c"] is data["d"]

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(data=st.data())
    def test_generated_documents(self, data):
        text = _render(data, 3, [])
        assert (_load_or_error(text, config._LOADER)
                == _load_or_error(text, yaml.SafeLoader)), text


# Scalars whose tags the resolver, an explicit tag or quotes decide, and
# keys that load to distinct values, so that no mapping repeats a key.
SCALARS = ["0", "-0", "+7", "007", "017", "12", "'12'", "1_0", "1.5",
           "-1.5", "6.8e+5", ".inf", "-.Inf", ".nan", "yes", "No", "~",
           "null", "''", "abc", "1:30", "0x1F", "1e5", "2002-12-14",
           "!!int '12'", "!!str 12", "!!float '1.5'", "!!bool 'on'"]
KEYS = ["a", "b", "'12'", "12", "1.5", "~", "yes", "017", "-0"]


def _render(data, depth, anchors):
    """A flow-style YAML node drawn from `data`; `anchors` holds the name
    and kind of each anchor defined so far.  A mapping may merge (<<) a
    mapping or an alias of one."""
    kinds = ["scalar", "seq", "map"] if depth else ["scalar"]
    if anchors:
        kinds.append("alias")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "alias":
        return "*" + data.draw(st.sampled_from(anchors))[0]
    if kind == "scalar":
        text = data.draw(st.sampled_from(SCALARS))
    elif kind == "seq":
        n = data.draw(st.integers(0, 3))
        text = "[" + ", ".join(_render(data, depth - 1, anchors)
                               for _ in range(n)) + "]"
    else:
        keys = data.draw(st.lists(st.sampled_from(KEYS), max_size=3,
                                  unique=True))
        entries = [f"{k}: {_render(data, depth - 1, anchors)}" for k in keys]
        maps = [name for name, of in anchors if of == "map"]
        if data.draw(st.booleans()):
            merged = (data.draw(st.sampled_from(["*" + m for m in maps]))
                      if maps and data.draw(st.booleans())
                      else _render_map(data, anchors))
            entries.insert(data.draw(st.integers(0, len(entries))),
                           f"<<: {merged}")
        text = "{" + ", ".join(entries) + "}"
    if data.draw(st.booleans()):
        name = f"a{len(anchors)}"
        anchors.append((name, kind))
        return f"&{name} {text}"
    return text


def _render_map(data, anchors):
    keys = data.draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True))
    return "{" + ", ".join(f"{k}: {_render(data, 0, anchors)}"
                           for k in keys) + "}"


def _load_or_error(text, loader):
    """repr of the document, or the class of the error it raises (PyYAML's
    scalar constructors raise ValueError and KeyError besides YAMLError)."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except Exception as exc:
        return type(exc)


def _load_or_message(text, loader):
    """repr of the document, or the class and message of its error."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except Exception as exc:
        return type(exc), str(exc)


class TestSerialization:
    def test_round_trip_equality(self):
        cfg = parse_scenario(MINIMAL)
        again = parse_scenario(serialize(cfg))
        assert again == cfg

    def test_round_trip_with_links(self):
        cfg = parse_scenario(
            "groups: [{count: 3}]\n"
            "links: [{a: 0, b: 1, level: 0}, {a: 1, b: 2, level: 0, "
            "delay: 0.5, bandwidth: 1000}]")
        assert cfg.links[0].delay is None and cfg.links[1].delay == 0.5
        assert parse_scenario(serialize(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = parse_scenario("")
        assert parse_scenario(serialize(cfg)) == cfg

    def test_serialize_makes_defaults_explicit(self):
        text = serialize(parse_scenario(MINIMAL))
        assert "miss_threshold: 3" in text
        assert "packet_size_bits: 8192" in text

    def test_committed_defaults_file_matches(self):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "defaults.yaml"
        committed = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert yaml.safe_load(serialize(parse_scenario(""))) == committed

    def test_defaults_file_is_serialized_defaults_under_header(self):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "defaults.yaml"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = [l for l in lines if l.startswith("#")]
        assert lines[:len(header)] == header
        assert "".join(lines[len(header):]) == serialize(parse_scenario(""))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINIMAL, encoding="utf-8")
    return path


ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "scenarios" / "reference.yaml"
GOLDEN = ROOT / "tests" / "data" / "reference.trace"


def test_readme_yaml_blocks_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        parse_scenario(block)


class TestCli:
    def test_validate_ok(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_bad_scenario_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("pheromone: {q: 0.0}", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "[q-range]" in capsys.readouterr().err

    def test_validate_non_finite_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: .inf", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "seed: [non-finite]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, path", [
        ("link: {delay: {l0: on}}", "link.delay.l0"),
        ("groups: [{count: 1, max_level: 1, tx_range: [on, 250]}]",
         "groups[0].tx_range"),
        ("placements: [{id: 0, position: [0, 0], velocity: [0, yes]}]",
         "placements[0].velocity")], ids=["link", "tx_range", "velocity"])
    def test_validate_boolean_number_exit_2(self, tmp_path, capsys, text,
                                            path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [type] expected a number\n")

    def test_validate_repeated_key_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{seed: 1, seed: 2}\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: <document>: [yaml] ")
        assert (f'found duplicate key \'seed\'\n  in "{bad}", line 1, column 11'
                in err)
        assert "<unicode string>" not in err

    @pytest.mark.parametrize("text, message", [
        ("seed: !!bool 'maybe'",
         "cannot read 'maybe' as tag:yaml.org,2002:bool"),
        ("seed: !!int 'x'", "cannot read 'x' as tag:yaml.org,2002:int")],
        ids=["bool", "int"])
    def test_validate_unreadable_scalar_exit_2(self, tmp_path, capsys, text,
                                               message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f'error: <document>: [yaml] {message}\n'
            f'  in "{bad}", line 1, column 7\n')

    def test_validate_non_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"seed: \xff\n")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: <document>: [encoding] ")
        assert err.count("\n") == 1

    def test_zero_delay_path_exit_2(self, tmp_path, capsys):
        # Zero node and link delays on the only path from 0 to 2.
        bad = tmp_path / "zero.yaml"
        bad.write_text(
            "placements:\n"
            + "".join(f"  - {{id: {i}, position: [{60 * i}, 0], node_delay: 0}}\n"
                      for i in range(3))
            + "links:\n"
            + "".join(f"  - {{a: {i}, b: {i + 1}, level: 0, delay: 0}}\n"
                      for i in range(2))
            + "flows: [{src: 0, dst: 2, start: 1.0, packets: 2}]\n",
            encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([argv[0], str(bad), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert "links[0].delay: [range]" in err
            assert "links[1].delay: [range]" in err
        assert not list(tmp_path.glob("zero.*.json"))

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1

    def test_run_writes_summary(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == 0
        summary = json.loads((out / "mini.summary.json").read_text())
        assert summary["packets_sent"] == 2
        assert summary["packets_delivered"] == 2
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    @pytest.mark.parametrize("command, written", [
        (["run"], "mini.summary.json"),
        (["sweep", "--seeds", "1..2"], "mini.sweep.json")],
        ids=["run", "sweep"])
    def test_stdout_is_the_written_document(self, scenario_file, tmp_path,
                                            capsysbinary, command, written):
        out = tmp_path / "out"
        assert main([command[0], str(scenario_file), *command[1:],
                     "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == (out / written).read_bytes()

    def test_run_twice_identical_outputs(self, scenario_file, tmp_path,
                                         capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["trace", str(scenario_file), "--out", str(out1)])
        main(["trace", str(scenario_file), "--out", str(out2)])
        assert (out1 / "mini.summary.json").read_bytes() == \
            (out2 / "mini.summary.json").read_bytes()
        assert (out1 / "mini.trace").read_bytes() == \
            (out2 / "mini.trace").read_bytes()

    def test_seed_override_changes_summary_seed(self, scenario_file, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--seed", "42", "--out", str(out)])
        summary = json.loads((out / "mini.summary.json").read_text())
        assert summary["seed"] == 42

    def test_trace_stdout(self, scenario_file, tmp_path, capsys):
        assert main(["trace", str(scenario_file), "--stdout",
                     "--out", str(tmp_path / "o")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        kinds = {json.loads(l)["kind"] for l in lines}
        assert "scenario" in kinds and "summary" in kinds

    def test_trace_matches_golden(self, tmp_path, capsys):
        assert main(["trace", str(REFERENCE), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "reference.trace").read_bytes() == \
            GOLDEN.read_bytes()
        assert capsys.readouterr().out == f"{tmp_path / 'reference.trace'}\n"

    def test_trace_stdout_matches_golden(self, tmp_path, capsysbinary):
        assert main(["trace", str(REFERENCE), "--stdout",
                     "--out", str(tmp_path)]) == 0
        assert capsysbinary.readouterr().out == GOLDEN.read_bytes()

    def test_failed_run_keeps_earlier_trace(self, scenario_file, tmp_path,
                                            capsys, monkeypatch):
        """A run that fails after records were streamed leaves no temp
        file and the previous trace byte for byte."""
        out = tmp_path / "out"
        args = ["trace", str(scenario_file), "--out", str(out)]
        assert main(args) == 0
        before = (out / "mini.trace").read_bytes()
        streaming = []

        def fail(sim, payload):
            streaming.append((out / "mini.trace.tmp").exists())
            raise AntManetError("handler failed")

        monkeypatch.setattr(Simulator, "_handle_packet_send", fail)
        assert main(args) == 1
        assert "error: handler failed" in capsys.readouterr().err
        assert streaming == [True]
        assert not (out / "mini.trace.tmp").exists()
        assert (out / "mini.trace").read_bytes() == before

    def test_sweep_aggregates_recomputed(self, scenario_file, tmp_path,
                                         capsys):
        out = tmp_path / "out"
        assert main(["sweep", str(scenario_file), "--seeds", "1..3",
                     "--out", str(out)]) == 0
        report = json.loads((out / "mini.sweep.json").read_text())
        assert report["runs"] == 3
        ratios = []
        delays = []
        for seed in (1, 2, 3):
            s = json.loads(
                (out / f"mini.seed{seed}.summary.json").read_text())
            attempts = (s["packets_sent"] + s["discovery_failures"]
                        + s["admission_rejections"])
            ratios.append(s["packets_delivered"] / attempts
                          if attempts else 0.0)
            delays.append(s["mean_delay"])
        assert report["delivery_ratio"]["mean"] == \
            pytest.approx(sum(ratios) / 3, abs=1e-12)
        assert report["mean_delay"]["mean"] == \
            pytest.approx(sum(delays) / 3, abs=1e-12)

    def test_sweep_ratio_counts_failed_discoveries(self, tmp_path, capsys):
        # Node 2 is out of everyone's range: its two packets fail discovery
        # and are never sent, so two of four attempts are delivered.
        path = tmp_path / "gap.yaml"
        path.write_text(MINIMAL.replace(
            "flows:\n", "  - {id: 2, position: [900, 0]}\nflows:\n"
            "  - {src: 0, dst: 2, start: 1.0, packets: 2}\n"),
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--seeds", "1",
                     "--out", str(out)]) == 0
        s = json.loads((out / "gap.seed1.summary.json").read_text())
        assert (s["packets_sent"], s["packets_delivered"],
                s["discovery_failures"]) == (2, 2, 2)
        report = json.loads((out / "gap.sweep.json").read_text())
        assert report["delivery_ratio"]["mean"] == 0.5

    def test_sweep_comma_seed_list(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", str(scenario_file), "--seeds", "4,9",
                     "--out", str(out)]) == 0
        report = json.loads((out / "mini.sweep.json").read_text())
        assert report["seeds"] == [4, 9]

    @pytest.mark.parametrize("spec", ["5..3", "x", "1..y", "3,,5"])
    def test_sweep_bad_seed_spec_exit_2(self, scenario_file, tmp_path,
                                        capsys, spec):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(scenario_file), "--seeds", spec,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"no seeds in {spec!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_long_seed_range_parses(self):
        # Repeats are found in one pass: a quadratic check would take
        # minutes on this range before any run started.
        args = build_parser().parse_args(
            ["sweep", "mini.yaml", "--seeds", "1..200000"])
        assert args.seeds == list(range(1, 200001))

    @pytest.mark.parametrize("spec, seed", [("3,3", 3), ("4,9,4", 4),
                                            ("3,5,3", 3), ("1,2,2,1", 2)])
    def test_sweep_repeated_seed_exit_2(self, scenario_file, tmp_path,
                                        capsys, spec, seed):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(scenario_file), "--seeds", spec,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"seed {seed} repeated in {spec!r}" in capsys.readouterr().err
        assert not out.exists()


SOAK = Path(__file__).resolve().parents[1] / "scenarios" / "soak.yaml"


class TestDeterminism:
    def test_trace_independent_of_hash_seed(self, tmp_path):
        src = Path(config.__file__).resolve().parents[1]
        digests = set()
        for hash_seed in ("0", "12345"):
            out = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(src))
            subprocess.run([sys.executable, "-m", "antmanet.cli", "trace",
                            str(SOAK), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            trace = (out / "soak.trace").read_bytes()
            digests.add(hashlib.sha256(trace).hexdigest())
        assert len(digests) == 1

    def test_run_trace_and_sweep_agree(self, tmp_path, capsys):
        for cmd, seed in (("run", "--seed"), ("trace", "--seed"),
                          ("sweep", "--seeds")):
            assert main([cmd, str(SOAK), seed, "3",
                         "--out", str(tmp_path / cmd)]) == 0

        def summary(cmd, name):
            s = json.loads((tmp_path / cmd / name).read_text())
            del s["scenario"]
            return s

        run = summary("run", "soak.summary.json")
        assert run["seed"] == 3 and run["packets_sent"] > 0
        assert summary("trace", "soak.summary.json") == run
        assert summary("sweep", "soak.seed3.summary.json") == run
