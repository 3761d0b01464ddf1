"""The digest corpus's traces match the committed table, and replaying
ant floods from the router's memo changes none of them."""

import json

from antmanet.routing import Router

from digests import CORPUS, TABLE, run, table


def test_corpus_matches_digest_table():
    assert len(CORPUS) == 3
    assert table() == json.loads(TABLE.read_text(encoding="utf-8"))


def test_flood_memo_changes_no_trace_byte(monkeypatch):
    """Each scenario gives the same trace and counters when every
    discovery starts from an empty flood memo."""
    expansions = []
    expand = Router._expand

    def counted(self, *args):
        expansions[-1] += 1
        return expand(self, *args)

    monkeypatch.setattr(Router, "_expand", counted)
    memoized = []
    for path in CORPUS:
        expansions.append(0)
        memoized.append(run(path))

    discover = Router.discover_route

    def cleared(self, *args, **kwargs):
        self._floods.clear()
        return discover(self, *args, **kwargs)

    monkeypatch.setattr(Router, "discover_route", cleared)
    for path, (text, sim) in zip(CORPUS, memoized):
        expansions.append(0)
        fresh_text, fresh = run(path)
        assert fresh_text == text, path.stem
        assert dict(fresh.stats) == dict(sim.stats), path.stem
    n = len(CORPUS)
    hits = [fresh - kept
            for kept, fresh in zip(expansions[:n], expansions[n:])]
    # Every scenario replays some floods, the static ones most of them.
    assert all(h > 0 for h in hits), dict(zip((p.stem for p in CORPUS), hits))
