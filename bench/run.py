"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload soak --seed 3 --seconds 35 --trace 0

Run from the repository root.  The workload's batch of scenarios is
generated from --seed into bench/.work/.  Each scenario runs once, in a
forked child process, through the CLI entry point (`antmanet run`, or
`antmanet trace` for workloads that write a trace).  A run is a fixed
amount of work: one pass over the batch, sized to take about the
`run_seconds` of BENCHMARK.json.  --seconds is accepted for the common
benchmark interface and does not change the work, so that a faster
program is measured on exactly the same scenarios.

--trace 0 reports the end-to-end metrics, measured with nothing wrapped
except a per-event counter.  --trace 1 runs the first scenarios of the
batch twice: once as in --trace 0, then with every layer's public
functions wrapped in spans, and reports the per-layer metrics.

Every run checks its outputs (packet conservation, the send schedule,
non-negative energy, and in the traced run identical summaries and traces
with and without spans).  A failed check prints `"correct": false` and
exits 1.
"""

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_SAMPLES = 24  # parse + construct timings per pass over a batch
REFERENCE_SAMPLES = 96  # reference kernel timings per pass over a batch
# Time of `reference_kernel` on the host the bounds were set on (2-vCPU
# x86-64 VM, Python 3.11.7) in a fast phase of that host; the unit of the
# scaled times.
REFERENCE_S = 0.0125

sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Observer:
    """Counts dispatched events per handler and keeps the last simulator.

    Costs one extra call per event, which is all the untraced run wraps.
    """

    def __init__(self):
        self.events = Counter()
        self.sim = None

    def install(self):
        targets = {f"antmanet.engine:Simulator.{h}": h
                   for h in layers.HANDLERS}
        targets["antmanet.engine:Simulator.run"] = None
        return spans.patch(targets, self._wrap, "antmanet")

    def _wrap(self, handler, fn):
        if handler is None:
            def run(sim, *args, **kwargs):
                self.sim = sim
                return fn(sim, *args, **kwargs)
            return run
        events = self.events

        def dispatch(sim, payload):
            events[handler] += 1
            return fn(sim, payload)
        return dispatch


def import_program():
    """Import the checkout's own antmanet, never an installed copy."""
    import antmanet
    from antmanet import cli, config, engine
    src = (ROOT / "src" / "antmanet").resolve()
    check(Path(antmanet.__file__).resolve().parent == src,
          f"antmanet imported from {antmanet.__file__}, not {src}")
    return cli, config, engine


def expected_attempts(cfg):
    """Sends the flow schedule puts inside the run, counted independently
    of the engine."""
    return sum(1 for f in cfg.flows for k in range(f.packets)
               if f.start + k * f.interval <= cfg.duration)


def run_scenario(cli, path, out_dir, write_trace):
    """One `antmanet run|trace` invocation; returns (wall_s, observer)."""
    observer = Observer()
    undo = observer.install()
    try:
        argv = ["trace" if write_trace else "run", str(path), "--out",
                str(out_dir)]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
    finally:
        spans.restore(undo)
    check(code == 0, f"{path.name}: exit status {code}")
    return wall, observer


def outputs(path, out_dir, observer, cfg, write_trace):
    """Check one run's outputs; returns the facts later runs must repeat."""
    stem = path.stem
    s = json.loads((out_dir / f"{stem}.summary.json").read_text())
    name = path.name
    attempted = observer.events["_handle_packet_send"]
    check(s["packets_sent"] == s["packets_delivered"] + s["packets_dropped"]
          + s["packets_in_flight"], f"{name}: sent != delivered + dropped + "
          "in_flight")
    check(attempted == s["packets_sent"] + s["discovery_failures"]
          + s["admission_rejections"], f"{name}: attempted != sent + "
          "discovery_failures + admission_rejections")
    check(attempted == expected_attempts(cfg),
          f"{name}: {attempted} sends dispatched, schedule has "
          f"{expected_attempts(cfg)}")
    sim = observer.sim
    check(sim is not None and sum(observer.events.values()) > 0,
          f"{name}: no events dispatched")
    low = [n for n, a in sim.state.nodes.items() if not a.energy >= 0.0]
    check(not low, f"{name}: negative energy at nodes {low}")
    facts = {
        "summary": s,
        "events": sum(observer.events.values()),
        "attempted": attempted,
        "request_forwards": sim.router.stats.get("request_forwards", 0),
        "reply_packets": sim.router.stats.get("reply_packets", 0),
    }
    if write_trace:
        data = (out_dir / f"{stem}.trace").read_bytes()
        facts["trace_sha256"] = hashlib.sha256(data).hexdigest()
        facts["trace_bytes"] = len(data)
    return facts


def forked(job, *args):
    """Run job(*args) in a forked child process and wait for it.

    Returns the job's JSON-able result and the child's peak RSS in MB.
    Each scenario gets a fresh process, so it has its own peak RSS and
    inherits no other scenario's heap.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = {"result": job(*args)}
        except CheckFailed as exc:
            payload = {"check": str(exc)}
        except BaseException:
            payload = {"error": traceback.format_exc()}
        payload["maxrss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:
        text = inp.read()
    _, status = os.waitpid(pid, 0)
    check(status == 0 and text, f"scenario process ended with status {status}")
    payload = json.loads(text)
    if "check" in payload:
        raise CheckFailed(payload["check"])
    if "error" in payload:
        raise RuntimeError("scenario process failed:\n" + payload["error"])
    return payload["result"], payload["maxrss_mb"]


def untraced_job(cli, path, cfg, write_trace):
    wall, observer = run_scenario(cli, path, path.parent, write_trace)
    return {"wall_s": wall,
            "facts": outputs(path, path.parent, observer, cfg, write_trace)}


def traced_job(cli, path, cfg):
    log = spans.SpanLog()
    undo = spans.patch(layers.SPANS,
                       lambda arg, fn: log.wrap(arg[0], fn, outcomes=arg[1]),
                       "antmanet")
    try:
        wall, observer = run_scenario(cli, path, path.parent, True)
    finally:
        spans.restore(undo)
    facts = outputs(path, path.parent, observer, cfg, True)
    stats = spans.summarize(log, layers.KEEP_DURATIONS)
    handler_calls = sum(stats[n].calls for n in layers.HANDLERS.values()
                        if n in stats)
    check(handler_calls == facts["events"],
          f"{path.name}: {handler_calls} handler spans for "
          f"{facts['events']} events")
    return {"wall_s": wall, "facts": facts,
            "stats": {n: vars(st) for n, st in stats.items()},
            "counts": layers.scenario_counts(log)}


def reference_kernel():
    """Fixed pure-Python work shaped like the simulator's hot loops: float
    geometry over a dict of tuples, set building and heap pushes."""
    rng = random.Random(0)
    points = {i: (rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0))
              for i in range(320)}
    heap = []
    for i, (x, y) in points.items():
        near = set()
        for j, (u, v) in points.items():
            if j != i and math.hypot(x - u, y - v) <= 100.0:
                near.add(j)
        heapq.heappush(heap, (len(near), i))
    return heap


def timings(repeats, fn, *args):
    """Host times of `repeats` calls of fn(*args)."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return samples


def setup(config, engine, path):
    """What `setup_s` times: parse the scenario, construct the Simulator."""
    return engine.Simulator(config.load_scenario(path))


def same(first, again, name):
    check(first == again, f"{name}: a repeated run gave different outputs")


def measure(program, scenarios, workload):
    """--trace 0: one pass over the batch, one fresh process per scenario."""
    cli, config, engine = program
    wall = {}
    rss = []
    facts = {}
    setup_s = []
    reference_s = []
    for path, cfg in scenarios:
        setup_s += timings(max(1, SETUP_SAMPLES // len(scenarios)), setup,
                           config, engine, path)
        reference_s += timings(max(1, REFERENCE_SAMPLES // len(scenarios)),
                               reference_kernel)
        got, maxrss = forked(untraced_job, cli, path, cfg,
                             workload.write_trace)
        facts[path] = got["facts"]
        wall[path] = got["wall_s"]
        rss.append(maxrss)
    sent = sum(f["attempted"] for f in facts.values())
    lost = sum(f["summary"]["discovery_failures"]
               + f["summary"]["admission_rejections"]
               + f["summary"]["packets_dropped"] for f in facts.values())
    # Host times are scaled to the reference host's speed: a shared host's
    # speed drifts by 40% and more over minutes, and the drift is no
    # property of the program.  The mean kernel time is the run's average
    # slowdown, which is what the scenarios' times absorb.
    scale = REFERENCE_S / statistics.fmean(reference_s)
    events = sum(f["events"] for f in facts.values())
    host = {"wall_s": statistics.fmean(wall.values()),
            "setup_s": statistics.median(setup_s),
            "events_per_s": events / sum(wall.values()),
            "reference_s": statistics.fmean(reference_s)}
    metrics = {
        "wall_s": (host["wall_s"] * scale, "s"),
        "setup_s": (host["setup_s"] * scale, "s"),
        "events_per_s": (host["events_per_s"] / scale, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "failed_ratio": (lost / sent, "fraction"),
    }
    walls = {path: [w] for path, w in wall.items()}
    return metrics, facts, len(scenarios), walls, host


def traced(program, scenarios, workload):
    """--trace 1: a reference run and a span-wrapped run per scenario."""
    cli, _, _ = program
    merged = {}
    counts = Counter()
    router = Counter()
    totals = Counter()
    facts = {}
    walls = {}
    for path, cfg in scenarios[:workload.traced]:
        ref, _ = forked(untraced_job, cli, path, cfg, True)
        got, _ = forked(traced_job, cli, path, cfg)
        same(ref["facts"], got["facts"], f"{path.name} (spans on)")
        for name, st in got["stats"].items():
            acc = merged.setdefault(name, spans.NameStats())
            acc.calls += st["calls"]
            acc.self_s += st["self_s"]
            acc.incl_s += st["incl_s"]
            acc.durations += st["durations"]
        f = facts[path] = got["facts"]
        walls[path] = [ref["wall_s"], got["wall_s"]]
        counts.update(got["counts"])
        router.update({"cache_hits": f["summary"]["cache_hits"],
                       "request_forwards": f["request_forwards"],
                       "reply_packets": f["reply_packets"]})
        totals.update({"traced_wall_s": got["wall_s"],
                       "reference_wall_s": ref["wall_s"],
                       "delivered": f["summary"]["packets_delivered"],
                       "trace_bytes": f["trace_bytes"]})
    metrics = layers.per_layer(merged, counts, router, totals)
    return metrics, facts, 2 * len(facts), walls, {}


def environment():
    """What a result depends on besides the seed: the code and the host."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(f.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def prepare(name, seed, trace):
    """Write the batch's scenario files; returns [(path, parsed config)]."""
    from antmanet.config import parse_scenario
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = []
    for sub, text in workloads.scenarios(name, seed):
        path = work / f"{name}-{sub}.yaml"
        path.write_text(text, encoding="utf-8")
        out.append((path, parse_scenario(text)))
    return workloads.WORKLOADS[name], out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()
    workload, scenarios = prepare(args.workload, args.seed, args.trace)
    env = environment()
    correct = True
    try:
        if args.trace:
            metrics, facts, runs, walls, host = traced(program, scenarios,
                                                       workload)
        else:
            metrics, facts, runs, walls, host = measure(program, scenarios,
                                                        workload)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics, facts, runs, walls, host = (False, {}, {}, 1, {},
                                                      {})

    for path, f in facts.items():
        s = f["summary"]
        print(f"{path.stem}: attempted {f['attempted']} sent "
              f"{s['packets_sent']} delivered {s['packets_delivered']} "
              f"failures {s['discovery_failures']} rejections "
              f"{s['admission_rejections']} events {f['events']} wall_s "
              + ",".join(f"{w:.4f}" for w in walls[path])
              + (f" trace_sha256 {f['trace_sha256']}"
                 if "trace_sha256" in f else ""))
    print("environment: " + json.dumps(env, sort_keys=True))
    if host:
        print("host: " + json.dumps(host, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": runs,
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    record = WORK / "results" / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"environment": env, "workload":
                                  args.workload, "seed": args.seed,
                                  "result": result, "host": host,
                                  "scenarios": {p.stem: {"wall_s": walls[p],
                                                         **facts[p]}
                                                for p in facts}},
                                 indent=2) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
