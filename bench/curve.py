"""Constant-density scaling curve (a report, not a gated workload).

    python3 bench/curve.py

Runs the `dense` generator at 50, 100, 200 and 400 nodes, keeping soak's
density, interface mix and mobility, and prints host microseconds per
node-simulated-second.  A flat curve means cost grows linearly with the
node count.
"""

import json

import run
from workloads import DENSE_DURATION, dense

NODES = (50, 100, 200, 400)
SEED = 1


def main():
    cli, config, _ = run.import_program()
    work = run.WORK / "curve"
    work.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in NODES:
        text = dense(SEED, n)
        path = work / f"dense-{n}-{SEED}.yaml"
        path.write_text(text, encoding="utf-8")
        got, _ = run.forked(run.untraced_job, cli, path,
                            config.parse_scenario(text), False)
        wall = got["wall_s"]
        rows.append({"nodes": n, "wall_s": wall,
                     "us_per_node_sim_s": wall / (n * DENSE_DURATION) * 1e6})
        print(f"{n:5d} nodes  {wall:8.3f} s  "
              f"{rows[-1]['us_per_node_sim_s']:9.2f} us per node-simulated-s",
              flush=True)
    print(json.dumps({"environment": run.environment(), "seed": SEED,
                      "duration": DENSE_DURATION, "curve": rows},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
