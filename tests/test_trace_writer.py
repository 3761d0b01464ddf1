"""TraceWriter: each line is ``format_record`` of the record, whether the
record comes as itself, ``sink(record)``, or as a recurring `Line` and its
time, ``sink(line, t)``."""

import hashlib
import math
from collections import Counter

import pytest

from antmanet import engine
from antmanet.config import (Arena, FlowConfig, Placement, ScenarioConfig,
                             load_scenario)
from antmanet.engine import Simulator, TraceWriter, format_record
from antmanet.routing import Line

from digests import CORPUS, DATA, REFERENCE
from helpers import as_record, record_sink
from reference import MOBILE

SCENARIOS = [REFERENCE, *CORPUS]
STATIC_CACHE = DATA / "digest" / "static-cache.yaml"

# The records a run emits in each kind's memo or engine table, as Lines.
RECURRING = ("route_ant", "reply_knave_ant", "reply_king_ant",
             "route_selected", "no_route", "delivered")


def _config(name):
    return load_scenario(STATIC_CACHE) if name == "static-cache" else MOBILE


def _received(config):
    """(record, t, `format_record` of its record on receipt) for each sink
    call of one run of `config`, t None for a plain record."""
    received = []

    def sink(record, t=None):
        received.append((record, t, format_record(as_record(record, t))))

    Simulator(config, trace=sink).run()
    return received


def test_corpus_has_five_digest_scenarios():
    assert len(SCENARIOS) == 6


def test_static_cache_mostly_hits():
    # static-cache.yaml is flood-shaped: fixed nodes, repeated sends.
    calls = Counter(id(record) for record, t, _ in
                    _received(load_scenario(STATIC_CACHE)) if t is not None)
    repeats = sum(calls.values()) - len(calls)
    assert repeats >= 1000
    assert repeats > 9 * len(calls)


def test_repeated_records_are_keyed():
    """Every record of a recurring kind reaches the sink as a Line and
    its time, and no other record does."""
    for name in ("static-cache", "mobile"):
        kinds = {(as_record(record, t)["kind"], t is not None)
                 for record, t, _ in _received(_config(name))}
        as_lines = {kind for kind, line in kinds if line}
        assert as_lines <= set(RECURRING)
        assert {kind for kind, line in kinds
                if not line}.isdisjoint(RECURRING)
        if name == "static-cache":
            # The run has no level-0 reply; its replies are King ants.
            assert as_lines == set(RECURRING) - {"reply_knave_ant"}


# sha256 of repr(records) for the dicts that `record_sink` collects over
# one run, as the emitters built them before memoized records became
# Lines: repr keeps key order, int and float, tuple and list.  A change
# that moves these traces re-pins it with tests/data/digests.json.
RECORDS_SHA256 = {
    "static-cache": (1527, "3e8f5d0fa339f76607f32f42f0aac0b6"
                           "c6db1b858c6803e347f6cae59154beb4"),
    "mobile": (474, "7972d45f48c137b4aefb173756ea8cc9"
                    "08b4a322fccfa6b7aecd0a3c78ae6aa0"),
}


@pytest.mark.parametrize("name", ["static-cache", "mobile"])
def test_record_sink_receives_the_emitted_dicts(name):
    records = []
    Simulator(_config(name), trace=record_sink(records)).run()
    assert (len(records), hashlib.sha256(repr(records).encode()).hexdigest()
            ) == RECORDS_SHA256[name]


@pytest.mark.parametrize("name", ["static-cache", "mobile"])
def test_records_keep_their_text(name):
    """Lines share their fields, and their nested values, between writes:
    with fixed energy (static-cache.yaml) route ants, replies and routes,
    with energy moving (`reference.MOBILE`) within one memo stamp.  Each
    record still encodes, when the run ends, to the text it had when the
    sink received it."""
    received = _received(_config(name))
    assert ([format_record(as_record(record, t)) for record, t, _ in received]
            == [text for _, _, text in received])


def test_a_line_writes_one_text_in_every_writer():
    line = Line({"kind": "k", "packet": {"nœud": [1, 2]}})
    first, second = [], []
    TraceWriter(first.append)(line, 1.0)
    head = line.head
    TraceWriter(second.append)(line, 1.0)
    assert line.head is head
    assert first == second == [
        format_record({"kind": "k", "packet": {"nœud": [1, 2]}, "t": 1.0})
        + "\n"]


@pytest.mark.parametrize("a, b", [(100, 100.0), (0.0, -0.0), (1, True)],
                         ids=["int-float", "signed-zero", "int-bool"])
def test_equal_fields_keep_their_own_text(a, b):
    """Lines hash by identity: two whose fields compare equal but encode
    differently each write their own text, in one writer, in any order."""
    assert {"kind": "k", "e": a} == {"kind": "k", "e": b}
    records = []
    lines = []
    writer = TraceWriter(lines.append)
    for t, value in enumerate([a, b, b, a]):
        line = Line({"kind": "k", "e": value})
        writer(line, float(t))
        records.append({"kind": "k", "e": value, "t": float(t)})
    assert lines == [format_record(r) + "\n" for r in records]
    assert lines[0].split(',"t"')[0] != lines[1].split(',"t"')[0]


def test_lines_of_one_kind_keep_their_fields():
    lines = []
    writer = TraceWriter(lines.append)
    for flow in (0, 1, 0):
        writer(Line({"kind": "no_route", "flow": flow}), 2.0)
    assert lines == ['{"flow":0,"kind":"no_route","t":2.0}\n',
                     '{"flow":1,"kind":"no_route","t":2.0}\n',
                     '{"flow":0,"kind":"no_route","t":2.0}\n']


def _delivering_run():
    """A finished run of two linked nodes, whose flow 0 delivered at 1."""
    sim = Simulator(ScenarioConfig(
        seed=1, duration=2.0, arena=Arena(200, 200),
        placements=[Placement(id=0, position=(0.0, 0.0)),
                    Placement(id=1, position=(50.0, 0.0))],
        flows=[FlowConfig(src=0, dst=1, start=1.0, packets=1)]))
    assert sim.run()["packets_delivered"] == 1
    return sim


def test_keyed_delivered_delays(monkeypatch):
    """The engine keys each delivered Line on its flow, destination and
    delay: close or tiny delays that are unequal get Lines of their own,
    and an equal delay writes its Line again."""
    sim = _delivering_run()
    lines = []
    sim.trace = TraceWriter(lines.append)
    encoded = []
    monkeypatch.setattr(engine, "format_record",
                        lambda record: encoded.append(record)
                        or format_record(record))
    delays = [0.1 + 0.2, 0.3, 5e-324, 0.1 + 0.2, 0.3, 5e-324]
    for delay in delays:
        # A packet of flow 0 sent at 0.0 reaches node 1, its last hop, now.
        sim.now = delay
        sim._handle_packet_at((0, (1,), (), 0, 0.0))
    assert lines == [format_record({"kind": "delivered", "t": d, "flow": 0,
                                    "dst": 1, "delay": d}) + "\n"
                     for d in delays]
    assert len(encoded) == 3


@pytest.mark.parametrize("t", [0.0, -0.0, 0.1 + 0.2, 5e-324, 1e16, 1e300,
                               -2.5])
def test_keyed_float_t(t):
    calls = [(Line({"kind": "k", "packet": {"nœud": [1, 2]}}), 1.0),
             (Line({}), 3.0)]
    calls += [(line, t) for line, _ in calls]
    lines = []
    writer = TraceWriter(lines.append)
    for line, at in calls:
        writer(line, at)
    assert lines == [format_record({**line.fields, "t": at}) + "\n"
                     for line, at in calls]


def test_unkeyed_records_are_format_record():
    records = [{"kind": "k", "t": math.inf}, {"kind": "k", "t": 1, "z": 0},
               {"z": None}]
    lines = []
    writer = TraceWriter(lines.append)
    for record in records:
        writer(record)
    assert lines == [format_record(r) + "\n" for r in records]


@pytest.mark.parametrize("fields", [
    {"kind": "k", "z": 0}, {"kind": "k", "t": 0.0}, {"u": 1}, {"ta": 1}],
    ids=["key-after-t", "t", "only-after-t", "t-prefix"])
def test_t_not_largest_key_raises(fields):
    """A Line's fields must all sort before "t"; the writer checks them
    when it first encodes the Line, and then writes nothing."""
    lines = []
    line = Line(fields)
    with pytest.raises(ValueError, match="largest key"):
        TraceWriter(lines.append)(line, 1.0)
    assert lines == []
    assert line.head is None


class Seconds(float):
    def __repr__(self):
        return f"{float(self)}s"


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1, True,
                               "1.0", None, Seconds(1.0)])
@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_t_not_finite_float_raises(t, cached):
    """A Line's time must be a finite float, whether or not its head is
    already encoded.  A call without one is ``sink(record)``, and a Line
    is no record to encode."""
    lines = []
    writer = TraceWriter(lines.append)
    line = Line({"kind": "k"})
    if cached:
        writer(line, 1.0)
    error, match = ((TypeError, "not JSON serializable") if t is None
                    else (ValueError, "finite float"))
    with pytest.raises(error, match=match):
        writer(line, t)
    assert len(lines) == cached


def test_misses_call_format_record_through_the_module(monkeypatch):
    """A profiler that wraps engine.format_record counts each encoding:
    one per Line, at its first write, and one per plain record."""
    calls = []
    original = engine.format_record

    def counting(record):
        calls.append(record)
        return original(record)

    monkeypatch.setattr(engine, "format_record", counting)
    lines = []
    writer = TraceWriter(lines.append)
    recurring = [Line({"kind": "k", "n": n}) for n in (0, 1)]
    for i in range(6):
        writer(recurring[i % 2], float(i))
    writer({"kind": "u", "t": 6.0})
    assert len(calls) == 3
    assert lines[-1] == '{"kind":"u","t":6.0}\n'
