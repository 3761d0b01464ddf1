"""Command-line harness: validate, run, trace and sweep scenarios.

Outputs land in --out (or $ANTMANET_OUT, or the working directory): a
one-record JSON summary per run, plus a line-delimited trace for
`trace`.  Exit status 0 means the run completed and all outputs were
written.  The trace is written record by record as the run emits them;
a failed run leaves no trace file and any earlier one as it was.
"""

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from .config import load_scenario
from .engine import Simulator, TraceWriter
# Still a name of this module, so that code which wraps or calls
# cli.format_record keeps working; the trace goes through TraceWriter.
from .engine import format_record  # noqa: F401
from .errors import AntManetError, ScenarioError


def _out_dir(args):
    out = args.out or os.environ.get("ANTMANET_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    cfg = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


@contextmanager
def _atomic(path):
    """A text file opened as `<path>.tmp` and renamed onto `path` when the
    block completes; if the block fails, the file is removed and `path`
    is left as it was."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path, doc):
    """Write `doc` to `path` as indented JSON, atomically; returns the
    text written, so that a caller prints the same bytes."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with _atomic(path) as f:
        f.write(text)
    return text


def _run_one(cfg, stem, out_dir, with_trace):
    """Run one scenario and write its summary; with `with_trace`, each
    record is written to the trace file as the run emits it.  Returns the
    summary and the text written for it."""
    with (_atomic(out_dir / f"{stem}.trace") if with_trace
          else nullcontext()) as f:
        trace = TraceWriter(f.write) if with_trace else None
        summary = {"scenario": stem, "seed": cfg.seed,
                   **Simulator(cfg, trace=trace).run()}
        text = _write_json(out_dir / f"{stem}.summary.json", summary)
    return summary, text


def cmd_validate(args):
    load_scenario(args.scenario)
    return 0


def cmd_run(args):
    cfg = _load(args)
    out_dir = _out_dir(args)
    stem = Path(args.scenario).stem
    _, text = _run_one(cfg, stem, out_dir, False)
    print(text, end="")
    return 0


def cmd_trace(args):
    cfg = _load(args)
    out_dir = _out_dir(args)
    stem = Path(args.scenario).stem
    _run_one(cfg, stem, out_dir, with_trace=True)
    trace_path = out_dir / f"{stem}.trace"
    if args.stdout:
        with open(trace_path, encoding="utf-8") as f:
            shutil.copyfileobj(f, sys.stdout)
    else:
        print(trace_path)
    return 0


def _seed_spec(spec):
    """The seeds of a --seeds spec, lo..hi or a comma list; an empty or
    malformed spec, or a repeated seed, is an argparse error (exit 2)."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in spec.split(",")]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"no seeds in {spec!r}: expected lo..hi with lo <= hi, or a "
            "comma list such as 3,5,9")
    seen = set()
    for s in seeds:
        if s in seen:
            raise argparse.ArgumentTypeError(
                f"seed {s} repeated in {spec!r}: each seed runs once")
        seen.add(s)
    return seeds


def cmd_sweep(args):
    base = _load(args)
    out_dir = _out_dir(args)
    stem = Path(args.scenario).stem
    summaries = []
    for seed in args.seeds:
        cfg = dataclasses.replace(base, seed=seed)
        summary, _ = _run_one(cfg, f"{stem}.seed{seed}", out_dir, False)
        summaries.append(summary)

    def ratio(s):
        # Over every send attempt: a packet whose discovery failed or was
        # rejected was never sent, but it was not delivered either.
        attempts = (s["packets_sent"] + s["discovery_failures"]
                    + s["admission_rejections"])
        return s["packets_delivered"] / attempts if attempts else 0.0

    def agg(values):
        return {"mean": statistics.fmean(values),
                "stddev": statistics.pstdev(values) if len(values) > 1 else 0.0}

    report = {
        "scenario": stem,
        "seeds": args.seeds,
        "runs": len(summaries),
        "delivery_ratio": agg([ratio(s) for s in summaries]),
        "mean_delay": agg([s["mean_delay"] for s in summaries]),
        "control_packets": agg([float(s["control_packets"])
                                for s in summaries]),
    }
    print(_write_json(out_dir / f"{stem}.sweep.json", report), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="antmanet",
        description="Hierarchical ant-based QoS routing simulator for MANETs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("scenario", help="scenario file path")
        p.add_argument("--out", help="output directory (default $ANTMANET_OUT)")
        if seeds:
            p.add_argument("--seeds", required=True, type=_seed_spec,
                           help="seed range, e.g. 1..20 or 3,5,9")
        else:
            p.add_argument("--seed", type=int, help="override scenario seed")

    p = sub.add_parser("validate", help="parse and validate only")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute one scenario")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "trace", help="execute one scenario; write its summary and trace")
    common(p)
    p.add_argument("--stdout", action="store_true",
                   help="print the trace to stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="run a seed range and aggregate stats")
    common(p, seeds=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for path, code, msg in exc.issues:
            print(f"error: {path}: [{code}] {msg}", file=sys.stderr)
        return 2
    except (AntManetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
