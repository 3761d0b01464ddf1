"""Every mutant of ``mutants.py`` still applies to the checkout: its
snippet occurs exactly once in its file, and each of its test ids names a
test that exists.  The mutants themselves run outside tier-1, as
``python tests/mutants.py``."""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_test_ids_name_tests(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *scopes = test_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        *classes, function = scopes
        for name in classes:
            assert f"class {name}" in source, test_id
        assert f"def {function.split('[')[0]}(" in source, test_id
