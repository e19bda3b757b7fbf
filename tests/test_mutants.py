import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once_and_names_its_tests(mutant):
    # a snippet that no longer matches, or a renamed test, would let the
    # table rot without any mutant run noticing
    text = (ROOT / "src" / "circforge" / mutant.module).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.M), node
