"""The checked-in mutants still quote live code.

``tools/mutants.py`` replaces each mutant's old text, which must occur
exactly once in its file. A refactor that moves or rewrites the quoted
line leaves the mutant unappliable, and the slow mutant run is the only
other place that notices; this test notices in a second.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # The module's dataclass looks itself up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


def test_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_test_files_exist(mutant):
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
