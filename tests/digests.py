"""The trace-digest corpus: small scenarios whose traces are pinned.

``tests/data/digests.json`` records, for every scenario under
``tests/data/digest/``, the sha256 of its trace, its delivered count and
its discovery failures.  ``test_digests.py`` checks the table.  Running
this file rewrites the table and the golden trace,
``tests/data/reference.trace`` (the trace of ``scenarios/reference.yaml``),
so a change that moves traces regenerates both with one command:

    PYTHONPATH=src python tests/digests.py
"""

import hashlib
import json
from pathlib import Path

from antmanet.config import load_scenario
from antmanet.engine import Simulator, TraceWriter

DATA = Path(__file__).parent / "data"
CORPUS = sorted((DATA / "digest").glob("*.yaml"))
TABLE = DATA / "digests.json"
GOLDEN = DATA / "reference.trace"
REFERENCE = DATA.parents[1] / "scenarios" / "reference.yaml"


def run(scenario):
    """(trace text, simulator) of one run of `scenario`: a path to a
    scenario file or a loaded config."""
    if isinstance(scenario, Path):
        scenario = load_scenario(scenario)
    lines = []
    sim = Simulator(scenario, trace=TraceWriter(lines.append))
    sim.run()
    return "".join(lines), sim


def digest(path):
    text, sim = run(path)
    summary = sim.summary()
    return {"trace_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "delivered": summary["packets_delivered"],
            "discovery_failures": summary["discovery_failures"]}


def table():
    return {path.stem: digest(path) for path in CORPUS}


def main():
    text = json.dumps(table(), sort_keys=True, indent=2) + "\n"
    TABLE.write_text(text, encoding="utf-8")
    GOLDEN.write_bytes(run(REFERENCE)[0].encode("utf-8"))
    print(text, end="")


if __name__ == "__main__":
    main()
