"""Command-line harness: validate, run, trace and sweep scenarios.

Outputs land in --out (or $ANTMANET_OUT, or the working directory): a
one-record JSON summary per run, plus a line-delimited trace when
requested.  Exit status 0 means the run completed and all outputs were
written.
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path

from .config import load_scenario
from .engine import Simulator, format_record
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
    if getattr(args, "duration", None) is not None:
        cfg.duration = args.duration
    return cfg


def _write_atomic(path, text):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _run_one(cfg, stem, out_dir, with_trace):
    lines = []
    trace = lines.append if with_trace else None
    summary = {"scenario": stem, "seed": cfg.seed,
               **Simulator(cfg, trace=trace).run()}
    _write_atomic(out_dir / f"{stem}.summary.json",
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if with_trace:
        text = "".join(format_record(r) + "\n" for r in lines)
        _write_atomic(out_dir / f"{stem}.trace", text)
    return summary


def cmd_validate(args):
    load_scenario(args.scenario)
    return 0


def cmd_run(args):
    cfg = _load(args)
    out_dir = _out_dir(args)
    stem = Path(args.scenario).stem
    summary = _run_one(cfg, stem, out_dir, args.trace)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_trace(args):
    cfg = _load(args)
    out_dir = _out_dir(args)
    stem = Path(args.scenario).stem
    _run_one(cfg, stem, out_dir, with_trace=True)
    trace_path = out_dir / f"{stem}.trace"
    if args.stdout:
        sys.stdout.write(trace_path.read_text(encoding="utf-8"))
    else:
        print(trace_path)
    return 0


def _parse_seed_range(spec):
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def cmd_sweep(args):
    base = _load(args)
    out_dir = _out_dir(args)
    stem = Path(args.scenario).stem
    seeds = _parse_seed_range(args.seeds)
    summaries = []
    for seed in seeds:
        cfg = dataclasses.replace(base, seed=seed)
        summaries.append(_run_one(cfg, f"{stem}.seed{seed}", out_dir, False))

    def ratio(s):
        return s["packets_delivered"] / s["packets_sent"] \
            if s["packets_sent"] else 0.0

    def agg(values):
        return {"mean": statistics.fmean(values),
                "stddev": statistics.pstdev(values) if len(values) > 1 else 0.0}

    report = {
        "scenario": stem,
        "seeds": seeds,
        "runs": len(summaries),
        "delivery_ratio": agg([ratio(s) for s in summaries]),
        "mean_delay": agg([s["mean_delay"] for s in summaries]),
        "control_packets": agg([float(s["control_packets"])
                                for s in summaries]),
    }
    _write_atomic(out_dir / f"{stem}.sweep.json",
                  json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="antmanet",
        description="Hierarchical ant-based QoS routing simulator for MANETs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("scenario", help="scenario file path")
        p.add_argument("--out", help="output directory (default $ANTMANET_OUT)")
        p.add_argument("--duration", type=float, help="override duration")
        if seeds:
            p.add_argument("--seeds", required=True,
                           help="seed range, e.g. 1..20 or 3,5,9")
        else:
            p.add_argument("--seed", type=int, help="override scenario seed")

    p = sub.add_parser("validate", help="parse and validate only")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute one scenario")
    common(p)
    p.add_argument("--trace", action="store_true",
                   help="also write the full event trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="run with full trace emission")
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
