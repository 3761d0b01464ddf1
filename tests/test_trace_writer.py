"""TraceWriter: each line is ``format_record(record) + "\\n"``, whether or
not the record's key was seen before."""

import math
from collections import Counter

import pytest

from antmanet import engine
from antmanet.config import load_scenario
from antmanet.engine import Simulator, TraceWriter, format_record

from digests import CORPUS, DATA, REFERENCE
from reference import MOBILE

SCENARIOS = [REFERENCE, *CORPUS]
STATIC_CACHE = DATA / "digest" / "static-cache.yaml"


def _run(path):
    """(cache hits, distinct keys) over the keyed records of one run of
    `path`, written through a `TraceWriter`.  That its lines are
    `format_record`'s is checked on every digest scenario by
    ``test_route_memo.py``, whose reference run writes each record through
    `format_record`."""
    writer = TraceWriter(lambda line: None)
    keys = set()
    hits = 0

    def sink(record, key=None):
        nonlocal hits
        writer(record, key)
        if key is not None:
            hits += key in keys
            keys.add(key)

    Simulator(load_scenario(path), trace=sink).run()
    return hits, len(keys)


def test_corpus_has_five_digest_scenarios():
    assert len(SCENARIOS) == 6


def test_static_cache_mostly_hits():
    # static-cache.yaml is flood-shaped: fixed nodes, repeated sends.
    hits, keys = _run(STATIC_CACHE)
    assert hits >= 1000
    assert hits > 9 * keys


def _received(config):
    """(record, key, `format_record` of the record on receipt) for each
    record of one run of `config`."""
    received = []

    def sink(record, key=None):
        received.append((record, key, format_record(record)))

    Simulator(config, trace=sink).run()
    return received


@pytest.mark.parametrize("name", ["static-cache", "mobile"])
def test_records_keep_their_text(name):
    """Records may share parts that discovery memoizes: with fixed energy
    (static-cache.yaml) route ants and replies, with energy moving
    (`reference.MOBILE`) route ants.  Each record still encodes, when the
    run ends, to the text it had when the sink received it."""
    config = load_scenario(STATIC_CACHE) if name == "static-cache" else MOBILE
    received = _received(config)
    assert ([format_record(record) for record, _, _ in received]
            == [text for _, _, text in received])


REPEATED = ("delivered", "route_ant", "reply_knave_ant", "reply_king_ant")


def test_repeated_records_are_keyed():
    received = _received(load_scenario(STATIC_CACHE))
    repeated = [(record, key) for record, key, _ in received
                if record["kind"] in REPEATED]
    # The run has no level-0 reply; its replies are King ants.
    assert set(Counter(r["kind"] for r, _ in repeated)) == {
        "delivered", "route_ant", "reply_king_ant"}
    assert [record for record, key in repeated if key is None] == []
    # Replays of a memoized route ant or reply share its packet.
    shared = Counter(id(r["packet"]) for r, _ in repeated if "packet" in r)
    assert max(shared.values()) > 1


def test_keyed_delivered_delays():
    """Close or tiny delays that are unequal have keys of their own; an
    equal delay repeats its key."""
    delays = [0.1 + 0.2, 0.3, 5e-324, 0.1 + 0.2, 0.3, 5e-324]
    lines = []
    writer = TraceWriter(lines.append)
    records = []
    for i, delay in enumerate(delays):
        record = {"kind": "delivered", "t": 1.0 + i, "flow": 0, "dst": 3,
                  "delay": delay}
        writer(record, ("delivered", 0, 3, delay))
        records.append(record)
    assert lines == [format_record(r) + "\n" for r in records]


@pytest.mark.parametrize("t", [0.0, -0.0, 0.1 + 0.2, 5e-324, 1e16, 1e300,
                               -2.5])
def test_keyed_float_t(t):
    records = [{"kind": "k", "packet": {"nœud": [1, 2]}, "t": 1.0},
               {"kind": "k", "packet": {"nœud": [1, 2]}, "t": t},
               {"t": 3.0}, {"t": t}]
    keys = ["a", "a", "b", "b"]
    lines = []
    writer = TraceWriter(lines.append)
    for record, key in zip(records, keys):
        writer(record, key)
    assert lines == [format_record(r) + "\n" for r in records]


def test_unkeyed_records_are_format_record():
    records = [{"kind": "k", "t": math.inf}, {"kind": "k", "t": 1, "z": 0},
               {"z": None}]
    lines = []
    writer = TraceWriter(lines.append)
    for record in records:
        writer(record)
    assert lines == [format_record(r) + "\n" for r in records]


@pytest.mark.parametrize("record", [
    {"kind": "k", "t": 1.0, "z": 0}, {"kind": "k"}],
    ids=["key-after-t", "no-t"])
def test_t_not_largest_key_raises(record):
    lines = []
    with pytest.raises(ValueError, match="largest key"):
        TraceWriter(lines.append)(record, "k")
    assert lines == []


class Seconds(float):
    def __repr__(self):
        return f"{float(self)}s"


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1, True,
                               "1.0", None, Seconds(1.0)])
@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_t_not_finite_float_raises(t, cached):
    lines = []
    writer = TraceWriter(lines.append)
    if cached:
        writer({"kind": "k", "t": 1.0}, "k")
    with pytest.raises(ValueError, match="finite float"):
        writer({"kind": "k", "t": t}, "k")
    assert len(lines) == cached


def test_cache_lasts_one_writer():
    first, second = [], []
    TraceWriter(first.append)({"kind": "a", "t": 1.0}, "k")
    TraceWriter(second.append)({"kind": "b", "t": 1.0}, "k")
    assert second == ['{"kind":"b","t":1.0}\n']


def test_misses_call_format_record_through_the_module(monkeypatch):
    """A profiler that wraps engine.format_record counts each encoding."""
    calls = []
    original = engine.format_record

    def counting(record):
        calls.append(record)
        return original(record)

    monkeypatch.setattr(engine, "format_record", counting)
    lines = []
    writer = TraceWriter(lines.append)
    for i in range(6):
        writer({"kind": "k", "n": i % 2, "t": float(i)}, ("k", i % 2))
    writer({"kind": "u", "t": 6.0})
    assert len(calls) == 3
    assert lines[-1] == '{"kind":"u","t":6.0}\n'
