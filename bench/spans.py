"""In-memory spans recorded around the program's functions from outside.

``patch`` rebinds a function everywhere the program looks it up: a class
attribute, its defining module and every module that imported it by name
(``from .qos import path_metrics``).  ``restore`` puts every original
back, so that untraced runs measure unwrapped code.

A span is (name, parent, start, end), kept in parallel arrays.  Spans are
appended on entry, so a parent always has a lower index than its
children.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field


class SpanLog:
    """Records one span per wrapped call; optionally counts outcomes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.truthy = defaultdict(int)  # name -> calls that returned truthy
        self.raised = defaultdict(int)  # name -> calls that raised
        self._stack = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, outcomes=False):
        """Wrap `fn` so each call records a span named `name`.

        With `outcomes`, also count truthy returns and raised exceptions.
        """
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)

        def enter():
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def leave(idx):
            ends[idx] = clock()
            stack.pop()

        if not outcomes:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                idx = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)
            return span

        truthy, raised = self.truthy, self.raised

        @functools.wraps(fn)
        def span_outcome(*args, **kwargs):
            idx = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                leave(idx)
            if result:
                truthy[name] += 1
            return result
        return span_outcome

    def record(self, name, parent, start, end):
        """Append a finished span directly (used by tests)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1


def _resolve(dotted):
    """'antmanet.model:NetworkState.neighbors' -> (owner, attr, object)."""
    module_name, _, qual = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def patch(targets, make_wrapper, package):
    """Replace each target everywhere `package` binds it.

    `targets` maps a dotted name ('module:Class.attr' or 'module:func') to
    the argument given to `make_wrapper(arg, original)`.  Module-level
    functions are also rebound in every module of `package` that holds the
    same object under the same name.  Returns the undo list for `restore`.
    """
    # Resolve (and so import) every target before looking for bindings: a
    # module imported mid-way would copy an already wrapped function.
    resolved = [(_resolve(dotted), arg) for dotted, arg in targets.items()]
    modules = [m for _, m in sorted(_loaded(package).items())]
    undo = []
    try:
        for (owner, attr, original), arg in resolved:
            wrapper = make_wrapper(arg, original)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [m for m in modules if m is not owner
                           and m.__dict__.get(attr) is original]
            for o in owners:
                undo.append((o, attr, original))
                setattr(o, attr, wrapper)
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def _loaded(package):
    prefix = package + "."
    return {name: mod for name, mod in sys.modules.items() if mod is not None
            and (name == package or name.startswith(prefix))}


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0  # outermost spans only: recursion is not doubled
    durations: list = field(default_factory=list)


def summarize(log, keep_durations=()):
    """Per-name calls, self time and inclusive time.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so a function that re-enters itself is not counted twice.
    Durations are kept per call only for the names in `keep_durations`.
    """
    n = len(log.start)
    names, parents, starts, ends = log.name, log.parent, log.start, log.end
    child_time = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_time[p] += ends[i] - starts[i]
    keep = {log._ids[k] for k in keep_durations if k in log._ids}
    out = {}
    by_id = [None] * len(log.names)
    for i in range(n):
        nid = names[i]
        st = by_id[nid]
        if st is None:
            st = by_id[nid] = out[log.names[nid]] = NameStats()
        dur = ends[i] - starts[i]
        st.calls += 1
        st.self_s += dur - child_time[i]
        p = parents[i]
        while p >= 0 and names[p] != nid:
            p = parents[p]
        if p < 0:
            st.incl_s += dur
        if nid in keep:
            st.durations.append(dur)
    return out


def child_counts(log, parent_name, child_name):
    """For each span named `parent_name`, how many direct children are
    named `child_name`."""
    if parent_name not in log._ids or child_name not in log._ids:
        return []
    pid, cid = log._ids[parent_name], log._ids[child_name]
    counts = {}
    for i in range(len(log.start)):
        if log.name[i] == pid:
            counts[i] = 0
    for i in range(len(log.start)):
        if log.name[i] == cid and log.parent[i] in counts:
            counts[log.parent[i]] += 1
    return list(counts.values())


def tail(durations, percentiles=(50.0, 90.0, 99.0, 99.9, 99.99)):
    """(p, value) for the highest percentile with at least 10 samples
    beyond it, or None when there are too few samples for the median."""
    ordered = sorted(durations)
    best = None
    for p in percentiles:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            best = (p, percentile(ordered, p))
    return best


def percentile(ordered, p):
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]
