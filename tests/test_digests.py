"""The digest corpus's traces match the committed table, the corpus
meets every maintenance case code, no route ant goes from a head to
itself, its finite weight threshold moves its trace, route caches hold
one route per node and destination and no one-hop route, and no
scenario derives a memo entry of discovery twice under one stamp."""

import dataclasses
import json
import math
from collections import Counter

from antmanet.config import load_scenario
from antmanet.maintenance import CASES
from antmanet.routing import Router

from digests import CORPUS, DATA, TABLE, run, table


def test_corpus_matches_digest_table():
    assert len(CORPUS) == 5
    assert table() == json.loads(TABLE.read_text(encoding="utf-8"))


def test_corpus_meets_every_case_code():
    codes = {code for per_level in CASES.values()
             for code in per_level.values()}
    codes |= {"3", "reelect"}
    seen = set()
    for path in CORPUS:
        text, _ = run(path)
        for line in text.splitlines():
            record = json.loads(line)
            if record["kind"] in ("maintenance", "election"):
                seen.add(record["case"])
    assert codes <= seen, sorted(codes - seen)


def test_no_route_ant_addresses_its_sender():
    """A head that is also the next head up its chain sends no route ant
    to itself, so none in the corpus has the same src and dst."""
    asked = 0
    for path in CORPUS:
        text, _ = run(path)
        for line in text.splitlines():
            record = json.loads(line)
            if record["kind"] == "route_ant":
                asked += 1
                packet = record["packet"]
                assert packet["src"] != packet["dst"], (path.stem, record)
    assert asked


def test_theta_w_flags_heads():
    """theta-w.yaml's threshold flags heads for re-election: its trace
    and the same run's with theta_w at -inf agree up to a reelect record
    that only the finite threshold emits."""
    cfg = load_scenario(DATA / "digest" / "theta-w.yaml")
    assert math.isfinite(cfg.weights.theta_w)
    traces = []
    for theta_w in (cfg.weights.theta_w, -math.inf):
        weights = dataclasses.replace(cfg.weights, theta_w=theta_w)
        text, _ = run(dataclasses.replace(cfg, weights=weights))
        traces.append(text.splitlines())
    differing = [a for a, b in zip(*traces) if a != b]
    assert differing
    record = json.loads(differing[0])
    assert (record["kind"], record["case"]) == ("maintenance", "reelect")


def test_route_caches_hold_no_duplicate():
    """After a run whose flows rediscover the same routes, each node holds
    one route per destination, filed under that node and destination, and
    none of one hop."""
    _, sim = run(DATA / "digest" / "static-cache.yaml")
    held = sim.router.cache.routes
    assert held
    assert all((r.path[0], r.destination) == key and len(r.path) > 2
               for key, r in held.items())


def test_memo_derives_each_entry_once_per_stamp(monkeypatch):
    """No scenario derives a plan, a flood or a route's metrics twice
    under one stamp (topology version, hierarchy epoch, energy counter).
    The two static zero-cost scenarios, whose stamp moves only with the
    hierarchy, look them up in the router's memo more often than they
    derive them; the others spend energy between most discoveries."""
    counts, derived = Counter(), Counter()
    for name in ("_current_memo", "_plan", "_expand", "_route_entry"):
        def counted(self, *args, method=getattr(Router, name), name=name):
            if name == "_current_memo":
                counts["lookups"] += 1
            else:
                counts["derived"] += 1
                state = self.state
                stamp = (state.version, self.clusters.epoch,
                         state.energy_version)
                derived[stamp, name, args] += 1
            return method(self, *args)
        monkeypatch.setattr(Router, name, counted)
    for path in CORPUS:
        counts.clear()
        derived.clear()
        run(path)
        assert counts["derived"] > 0, (path.stem, counts)
        twice = [key for key, n in derived.items() if n > 1]
        assert not twice, (path.stem, twice[:3])
        if path.stem in ("link-override", "static-cache"):
            assert counts["derived"] < counts["lookups"], (path.stem, counts)
