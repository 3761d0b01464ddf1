"""A committed mutation gate: each mutant is a small defect that named
tests must catch.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

Each mutant names a file of the checkout, a snippet that occurs exactly
once in it, the snippet's replacement, the test ids that must catch it,
and the change it guards.  For each mutant the runner copies the
checkout to a temporary directory, applies the one replacement and runs
the test ids there with ``pytest -x -q``.  The mutant is killed when
pytest reports a failed test (exit status 1).  It survives when the tests
pass; any other status (a collection error, an unknown id, a timeout) is
an error.  The runner exits 1 if any mutant survives or errs.  It uses
the standard library only.

Name fixed tests only: a generated draw of ``test_differential.py``
changes whenever the test's source does, so its kills are not stable.  A
surviving mutant is a finding to record, never a mutant to soften.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Seconds one mutant's tests may take before the run counts as an error.
TIMEOUT = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    snippet: str
    replacement: str
    tests: tuple  # pytest ids, relative to the checkout
    source: str  # the change whose defect this is


SNAPSHOT = "tests/test_topology_snapshot.py::"
ROUTING = "tests/test_routing.py::"
REASONS = ROUTING + "TestFailureReasons::"
FLOOD_MEMO = ROUTING + "TestFloodMemo::"
LOADER = "tests/test_config_cli.py::TestLoaderEquivalence::"
WALK = "tests/test_config_cli.py::TestWalk::"
TRACE = "tests/test_trace_writer.py::"
ENERGY = "tests/test_engine.py::TestEnergyDebit::"

MUTANTS = (
    Mutant("travel-bound-without-factor-2", "src/antmanet/model.py",
           "bound = 2.0 * ref.travel + ref.margin",
           "bound = ref.travel + ref.margin",
           (SNAPSHOT + "test_head_on_pair_flips_within_twice_the_travel",),
           "neighbor lists fed by the mobility tick"),
    Mutant("travel-bound-without-creep", "src/antmanet/model.py",
           "ref.travel += longest * STRETCH + ref.creep",
           "ref.travel += longest * STRETCH",
           (SNAPSHOT + "test_steps_below_an_ulp_accumulate",),
           "neighbor lists fed by the mobility tick"),
    Mutant("touch-keeps-the-references", "src/antmanet/model.py",
           "        self._references.clear()\n", "",
           (SNAPSHOT + "test_touch_drops_every_reference",
            SNAPSHOT + "test_death_and_revival_mid_walk",
            SNAPSHOT + "test_range_change_rebuilds"),
           "neighbor lists fed by the mobility tick"),
    Mutant("no-skin-after-the-first-move", "src/antmanet/model.py",
           "skin = largest * SKIN", "skin = 0.0",
           (SNAPSHOT + "test_small_steps_refresh_without_rebuilding",
            SNAPSHOT + "test_reference_keeps_the_pairs_within_the_skin"),
           "neighbor lists fed by the mobility tick"),
    Mutant("refresh-past-the-skin", "src/antmanet/model.py",
           "        if not bound < ref.skin:\n            return None\n", "",
           (SNAPSHOT + "test_skin_steps_rebuild",),
           "the neighbor list's refresh within the skin"),
    Mutant("every-linked-pair-kept", "src/antmanet/model.py",
           "if m - d <= skin:", "if True:",
           (SNAPSHOT + "test_reference_keeps_the_pairs_within_the_skin",),
           "a reference that keeps only the pairs within the skin"),
    Mutant("empty-level-rebuilt", "src/antmanet/model.py",
           "        if not ref.ids:\n            return ref.adj\n", "",
           (SNAPSHOT + "test_small_steps_refresh_without_rebuilding",),
           "a reference that keeps only the pairs within the skin"),
    Mutant("beacon-map-read-once-before-the-heads",
           "src/antmanet/maintenance.py",
           "        for head in sorted(table):\n"
           "            if not nodes[head].alive:\n"
           "                continue\n"
           "            if debit is not None:\n"
           "                debit((head,))\n"
           "            near = state.adjacency(level)[head]\n",
           "        adj = state.adjacency(level)\n"
           "        for head in sorted(table):\n"
           "            if not nodes[head].alive:\n"
           "                continue\n"
           "            if debit is not None:\n"
           "                debit((head,))\n"
           "            near = adj[head]\n",
           ("tests/test_maintenance.py::TestBeaconing::"
            "test_head_killed_by_its_own_debit_hears_no_one",),
           "each head reads the level's map after its own debit"),
    Mutant("quiet-key-without-energy-version", "src/antmanet/maintenance.py",
           "return (self.clusters.epoch, state.version, state.energy_version)",
           "return (self.clusters.epoch, state.version)",
           ("tests/test_maintenance.py::TestSettledCycles::"
            "test_each_counter_ends_the_settle[energy_version]",),
           "one energy counter in place of the fixed_energy and frozen flags"),
    Mutant("resume-restamp-dropped", "src/antmanet/maintenance.py",
           "if skipped_at is not None:", "if False:",
           ("tests/test_maintenance.py::TestSettledCycles::"
            "test_resume_restamps_at_the_last_skipped_cycle",
            "tests/test_differential.py::test_skipped_cycles_of_a_mobile_run"),
           "one energy counter in place of the fixed_energy and frozen flags"),
    Mutant("memo-stamp-without-energy-version", "src/antmanet/routing.py",
           "stamp = (state.version, self.clusters.epoch, state.energy_version)",
           "stamp = (state.version, self.clusters.epoch)",
           (FLOOD_MEMO + "test_engine_energy_write_reaches_the_next_flood",
            FLOOD_MEMO + "test_energy_is_read_at_every_flood"),
           "one discovery memo under one stamp"),
    Mutant("memo-stamp-without-version", "src/antmanet/routing.py",
           "stamp = (state.version, self.clusters.epoch, state.energy_version)",
           "stamp = (self.clusters.epoch, state.energy_version)",
           (FLOOD_MEMO + "test_moved_node_reroutes_with_new_let",),
           "one discovery memo under one stamp"),
    Mutant("memo-stamp-without-epoch", "src/antmanet/routing.py",
           "stamp = (state.version, self.clusters.epoch, state.energy_version)",
           "stamp = (state.version, state.energy_version)",
           (ROUTING + "TestHierarchicalDiscovery::"
            "test_hierarchy_change_climbs_afresh[dissolve]",),
           "one discovery memo under one stamp"),
    Mutant("expand-without-its-loop-check", "src/antmanet/routing.py",
           "if nb not in scope or nb in path:", "if nb not in scope:",
           (ROUTING + "TestAnts::test_reply_retraces_in_reverse",),
           "loop-free request ants"),
    Mutant("install-without-the-held-table-return",
           "src/antmanet/clustering.py",
           "if all(held.get(head) == members for head, members in "
           "table.items()):",
           "if False:",
           ("tests/test_clustering.py::TestClusterState::"
            "test_install_of_the_held_table_only_restamps",),
           "one writer of an election's result"),
    Mutant("admissibility-without-its-qos", "src/antmanet/routing.py",
           "admits = admitted.get(qos)",
           "admits = next(iter(admitted.values()), None)",
           (FLOOD_MEMO + "test_floors_share_one_flood_with_their_own_choices",),
           "memo entries that keep their per-send work"),
    Mutant("relay-expiry-frozen-at-the-first-send", "src/antmanet/routing.py",
           "insert(node, Route(dst, s_path, s_levels, sm, now + s_age))",
           "insert(node, self._memo.setdefault((node, s_path), Route(\n"
           "                dst, s_path, s_levels, sm, now + s_age)))",
           (FLOOD_MEMO
            + "test_replay_expires_and_deposits_as_a_fresh_derivation",),
           "memo entries that keep their per-send work"),
    Mutant("assembled-route-without-the-choices", "src/antmanet/routing.py",
           "entry = routes.get(segs)",
           "entry = next(iter(routes.values()), None)",
           (FLOOD_MEMO
            + "test_steered_replays_of_one_plan_assemble_their_own_paths",),
           "memo entries that keep their per-send work"),
    Mutant("failure-replay-takes-another-reason", "src/antmanet/routing.py",
           "entry = routes.get(segs)",
           "entry = routes.get(segs)\n"
           "        if type(entry) is Failure:\n"
           "            entry = entry._replace(reason=\"stale_link\")",
           (ROUTING + "TestMemoizedFailures::"
            "test_replay_returns_the_stored_failure[loop]",
            REASONS + "test_each_reason[routing_loop]"),
           "discovery failures returned as values"),
    Mutant("failure-replay-builds-a-new-failure", "src/antmanet/routing.py",
           "            return failure\n",
           "            return Failure(*failure)\n",
           (REASONS + "test_each_reason[no_l1_head]",
            REASONS + "test_each_reason[different_l2_heads]"),
           "discovery failures returned as values"),
    Mutant("admission-failure-sent-as-no-route", "src/antmanet/routing.py",
           'ADMISSION = frozenset({"qos_floor", "theta_p", "zero_preference"})',
           'ADMISSION = frozenset({"theta_p", "zero_preference"})',
           ("tests/test_engine.py::TestFailureDispatch::"
            "test_reason_picks_the_record"
            "[qos_floor-admission_rejected-rejected]",
            "tests/test_digests.py::test_corpus_matches_digest_table"),
           "discovery failures returned as values"),
    Mutant("walk-reads-merge-as-a-key", "src/antmanet/config.py",
           'for t in ("str", "int", "float", "bool", "null")}',
           'for t in ("str", "int", "float", "bool", "null")}'
           ' | {_TAG + "merge":'
           ' yaml.constructor.SafeConstructor.construct_yaml_str}',
           (LOADER + "test_edge_documents", WALK + "test_refused"),
           "scenario data built as the parser's events arrive"),
    Mutant("int-fast-path-takes-a-leading-zero", "src/antmanet/config.py",
           '(first != "0" or value == "0")', "True",
           (LOADER + "test_edge_documents",),
           "plain scalars typed by their first character"),
    Mutant("float-rule-takes-an-exponent", "src/antmanet/config.py",
           '(part or "0").isdecimal()',
           '(part or "0").replace("e", "").isdecimal()',
           (LOADER + "test_edge_documents",),
           "plain scalars typed by their first character"),
    Mutant("number-rule-takes-non-ascii-digits", "src/antmanet/config.py",
           "if first.isdecimal() and value.isascii():",
           "if first.isdecimal():",
           (LOADER + "test_edge_documents",),
           "plain scalars typed by their first character"),
    Mutant("walk-takes-the-first-of-two-documents", "src/antmanet/config.py",
           "        event = get()\n"
           "        if type(event) is not StreamEndEvent:\n"
           '            raise _refused(event, "found a second document")\n',
           "",
           (LOADER + "test_edge_documents", WALK + "test_refused"),
           "scenario data built as the parser's events arrive"),
    Mutant("walk-takes-an-anchor", "src/antmanet/config.py",
           "            self._anchors[anchor] = data\n",
           "            pass\n",
           (LOADER + "test_edge_documents",
            WALK + "test_aliased_collection_is_one_object"),
           "scenario data built as the parser's events arrive"),
    Mutant("walk-takes-a-redefined-anchor", "src/antmanet/config.py",
           "            if anchor in self._anchors:\n"
           "                raise _refused(event, "
           'f"found duplicate anchor {anchor!r}")\n', "",
           (LOADER + "test_edge_documents", WALK + "test_refused"),
           "one scenario loader, which builds aliases itself"),
    Mutant("alias-builds-a-copy", "src/antmanet/config.py",
           "                return self._anchors[anchor]\n",
           "                data = self._anchors[anchor]\n"
           "                return (data.copy() if isinstance(data, (list, dict))"
           "\n                        else data)\n",
           (WALK + "test_aliased_collection_is_one_object",),
           "one scenario loader, which builds aliases itself"),
    Mutant("scalar-errors-narrowed-to-key-and-value-errors",
           "src/antmanet/config.py",
           "        except (KeyError, ValueError, IndexError):\n",
           "        except (KeyError, ValueError):\n",
           (LOADER + "test_unreadable_scalar_reported",),
           "one scenario loader, which builds aliases itself"),
    Mutant("nodes-listed-to-check-ends", "src/antmanet/config.py",
           "settings = _settings_of(cfg)",
           "settings = dict(cfg.nodes()).get",
           ("tests/test_fuzz_config.py::test_huge_count_validates_fast",),
           "validation linear in the document"),
    Mutant("line-head-cached-by-kind", "src/antmanet/engine.py",
           "        head = record.head\n",
           "        head = sink.__dict__.setdefault(record.fields['kind'],"
           " record).head\n",
           (TRACE + "test_lines_of_one_kind_keep_their_fields",
            TRACE + "test_equal_fields_keep_their_own_text"),
           "recurring records written as Lines"),
    Mutant("delivered-line-without-its-delay", "src/antmanet/engine.py",
           "key = (flow_idx, a, delay)", "key = (flow_idx, a)",
           (TRACE + "test_keyed_delivered_delays",),
           "recurring records written as Lines"),
    Mutant("line-fields-not-checked-before-t", "src/antmanet/engine.py",
           '            if max(fields, default="") >= "t":\n'
           "                raise ValueError(\n"
           "                    f'\"t\" would not be the largest key of"
           " {fields!r}')\n", "",
           (TRACE + "test_t_not_largest_key_raises",),
           "recurring records written as Lines"),
    Mutant("detection-at-the-bound-missed", "src/antmanet/maintenance.py",
           "if now - last_heard[(level, head, m)] >= bound]",
           "if now - last_heard[(level, head, m)] > bound]",
           ("tests/test_maintenance.py::TestMemberWalkAway::"
            "test_detected_exactly_at_staleness_bound",),
           "members declared lost at the detection bound"),
    Mutant("hop-costs-swapped", "src/antmanet/engine.py",
           "self._apply_energy(a, self._tx_cost)\n"
           "            self._apply_energy(b, self._rx_cost)",
           "self._apply_energy(a, self._rx_cost)\n"
           "            self._apply_energy(b, self._tx_cost)",
           (ENERGY + "test_tx_cost", ENERGY + "test_rx_cost"),
           "each radio action's cost worked out once"),
    Mutant("tx-cost-without-its-bit-term", "src/antmanet/engine.py",
           "self._tx_cost = costs.tx_packet + costs.tx_bit * bits",
           "self._tx_cost = costs.tx_packet",
           (ENERGY + "test_tx_cost",),
           "each radio action's cost worked out once"),
    Mutant("beacon-cost-debited-on-hops", "src/antmanet/engine.py",
           "self._rx_cost = costs.rx_packet + costs.rx_bit * bits",
           "self._rx_cost = costs.rx_packet + costs.rx_bit * bits"
           " + costs.beacon",
           (ENERGY + "test_beacon_cost",),
           "each radio action's cost worked out once"),
    Mutant("delivered-at-a-dead-destination", "src/antmanet/engine.py",
           "            if not state.nodes[a].alive:\n"
           "                self._drop(flow_idx, at=a)\n"
           "                return\n", "",
           ("tests/test_engine.py::TestSimulator::"
            "test_destination_killed_on_receipt_is_not_delivered",),
           "a packet dropped at a dead destination"),
)


def _ignore(directory, names):
    return [n for n in names
            if n in (".git", "__pycache__", ".pytest_cache", ".hypothesis",
                     ".work")]


def run(mutant):
    """Apply `mutant` in a copy of the checkout and run its tests; returns
    "killed", "survived" or "error: <why>"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            return "error: the snippet does not occur exactly once"
        target.write_text(text.replace(mutant.snippet, mutant.replacement),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        # An installed antmanet must not shadow the mutated copy.
        where = subprocess.run(
            [sys.executable, "-c",
             "import antmanet; print(antmanet.__file__)"],
            cwd=copy, env=env, stdout=subprocess.PIPE, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(copy):
            return f"error: antmanet imported from {where.stdout.strip()}"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=copy, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"error: timed out after {TIMEOUT} s"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = done.stdout.strip().splitlines()[-1:] or [""]
    return f"error: pytest exit status {done.returncode}: {tail[0]}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    failed = 0
    for mutant in chosen:
        t0 = time.perf_counter()
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
        failed += outcome != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
