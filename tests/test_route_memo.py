"""The router's discovery memo, and every other fast path, changes no
trace byte: the golden scenario and every digest scenario give the same
trace and counters under ``reference.use_references``, which starts
every discovery from an empty memo.  That no digest scenario derives a
memo entry twice under one stamp, and that the static zero-cost ones
replay entries, is checked by ``test_digests.py``.

CI runs this file under several hash seeds, so a memo key or a frozen
scope that iterates in hash order would show here."""

from antmanet.config import load_scenario

from digests import CORPUS, REFERENCE
from reference import assert_matches_references


def test_memo_changes_no_trace_byte():
    for path in [REFERENCE, *CORPUS]:
        assert_matches_references(load_scenario(path))
