import copy
import dataclasses
import hashlib
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

from antmanet import config
from antmanet.cli import main
from antmanet.config import (FlowConfig, NodeGroup, Placement, ScenarioConfig,
                             parse_scenario, serialize)
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

    def test_rho_range_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("weights: {rho: 1.5}")
        assert "rho-range" in codes(exc)

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

    def test_multiple_issues_reported_together(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("weights: {rho: 2.0}\npheromone: {q: 0.0}")
        assert {"rho-range", "q-range"} <= codes(exc)

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
    ("weights: {theta_tau: .nan}", "weights.theta_tau"),
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
            TWO_NODES + "weights: {theta_w: .inf, theta_tau: -.inf}\n"
            "flows: [{src: 0, dst: 1, qos: {max_delay: .inf}}]")
        assert cfg.weights.theta_w == math.inf
        assert cfg.weights.theta_tau == -math.inf
        assert cfg.flows[0].qos.max_delay == math.inf


SCENARIO_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))

# Documents on which libyaml and the pure-Python parser could disagree.
YAML_EDGE_CASES = [
    "a: &x [1, 2]\nb: *x\nc: {<<: {k: 1}, j: 2}",
    "sexagesimal: 1:30:00\nfloat60: 1:30.5",
    "octal: 0o17\nold_octal: 017\nhex: 0x1F\nbin: 0b101\nsep: 1_000",
    "date: 2002-12-14\nstamp: 2001-12-14t21:59:43.10-05:00",
    "pinf: .inf\nninf: -.Inf\nnan: .NaN\nexp: 6.8523015e+5",
    "bools: [yes, No, on, OFF, true, ~, null, '']",
    "dup: 1\ndup: 2",
    "'a\tb': \"c\td\"",
    "key: 'single'\nother: \"d\\u00e9j\\xe0\"\nu: n\u0153ud",
    "- [1, 2]\n- {x: 1}\n- |\n  block\n  text\n- >\n  folded\n  text\n",
    "{unclosed",
    "a: [1, 2",
    "a: b: c",
    "key: @reserved",
    "--- 1\n--- 2",
    "!!python/object:os.system {}",
    "",
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
                ids=lambda loader: loader.__name__)
def loader(request, monkeypatch):
    """Run the test under the production loader, then under SafeLoader."""
    monkeypatch.setattr(config, "_LOADER", request.param)
    return request.param


class TestLoaderEquivalence:
    def test_production_loader_is_libyaml_when_available(self):
        if yaml.__with_libyaml__:
            assert config._LOADER is yaml.CSafeLoader
        else:
            assert config._LOADER is yaml.SafeLoader

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


def _load_or_error(text, loader):
    """repr of the document, or the class of the YAMLError it raises."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError as exc:
        return type(exc)


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

    @pytest.mark.parametrize("spec, seed", [("3,3", 3), ("4,9,4", 4)])
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
