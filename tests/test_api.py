"""The package exports only what its own modules or the benchmark use."""

import re
from pathlib import Path
from types import ModuleType

import uberhom

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in uberhom.__all__ is referenced by a src/uberhom module
    other than the one defining it, or by a perfbench script; a name only
    the tests use belongs in tests/paper.py or behind its module."""
    sources = [p for p in (ROOT / "src" / "uberhom").glob("*.py") if p.name != "__init__.py"]
    texts = [p.read_text() for p in sources + sorted((ROOT / "perfbench").glob("*.py"))]
    unused = []
    for name in uberhom.__all__:
        if isinstance(getattr(uberhom, name), ModuleType):
            continue
        definition = re.compile(rf"^(?:def |class ){name}\b|^{name}\s*[:=]", re.M)
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(t) and not definition.search(t) for t in texts):
            unused.append(name)
    assert unused == []
