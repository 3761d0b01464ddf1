"""TraceWriter: each line is ``format_record(record) + "\\n"``, whether or
not the record's key was seen before."""

import math

import pytest

from antmanet import engine
from antmanet.config import load_scenario
from antmanet.engine import Simulator, TraceWriter, format_record

from digests import CORPUS, DATA, REFERENCE

SCENARIOS = [REFERENCE, *CORPUS]


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
    hits, keys = _run(DATA / "digest" / "static-cache.yaml")
    assert hits >= 1000
    assert hits > 9 * keys


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
