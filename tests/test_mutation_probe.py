"""The mutation probe's mutants still name lines of the source, so none is stale."""

from mutation_probe import MUTANTS, ROOT, mutated


def test_every_mutant_text_is_in_its_module_once():
    stale = [
        name for name, module, before, after in MUTANTS
        if mutated((ROOT / "src" / "sgmeasure" / module).read_text(), before, after) is None
    ]
    assert stale == []
