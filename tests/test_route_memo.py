"""The router's discovery memo changes no trace byte: the golden scenario
and every digest scenario give the same trace and counters when every
discovery starts from an empty memo.

CI runs this file under several hash seeds, so a memo key or a frozen
scope that iterates in hash order would show here."""

from antmanet.routing import Router

from digests import CORPUS, REFERENCE, run

SCENARIOS = [REFERENCE, *CORPUS]
# The methods whose results the memo holds: plans, floods, route metrics.
DERIVATIONS = ("_plan", "_expand", "_route_metrics")


def test_memo_changes_no_trace_byte(monkeypatch):
    """Each scenario gives the same trace and counters when every
    discovery starts from an empty memo, and every digest scenario
    replays some memo entries (the golden one discovers too little to
    need to)."""
    derived = []

    def counted(method):
        def wrapper(self, *args):
            derived[-1] += 1
            return method(self, *args)
        return wrapper

    for name in DERIVATIONS:
        monkeypatch.setattr(Router, name, counted(getattr(Router, name)))
    memoized = []
    for path in SCENARIOS:
        derived.append(0)
        memoized.append(run(path))

    discover = Router.discover_route

    def cleared(self, *args, **kwargs):
        self._memo.clear()
        return discover(self, *args, **kwargs)

    monkeypatch.setattr(Router, "discover_route", cleared)
    for path, (text, sim) in zip(SCENARIOS, memoized):
        derived.append(0)
        fresh_text, fresh = run(path)
        assert fresh_text == text, path.stem
        assert dict(fresh.stats) == dict(sim.stats), path.stem
    n = len(SCENARIOS)
    replays = {path.stem: fresh - kept for path, kept, fresh
               in zip(SCENARIOS, derived[:n], derived[n:])}
    del replays[REFERENCE.stem]
    assert all(r > 0 for r in replays.values()), replays
