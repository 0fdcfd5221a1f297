"""The package exports only what its own modules or the benchmark use."""

import ast
import inspect
import re
from pathlib import Path
from types import ModuleType

import uberhom

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "uberhom").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in uberhom.__all__ is referenced by a src/uberhom module
    other than the one defining it, or by a perfbench script; a name only
    the tests use belongs in tests/paper.py or behind its module."""
    texts = [p.read_text() for p in SOURCES + SCRIPTS]
    unused = []
    for name in uberhom.__all__:
        if isinstance(getattr(uberhom, name), ModuleType):
            continue
        definition = re.compile(rf"^(?:def |class ){name}\b|^{name}\s*[:=]", re.M)
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(t) and not definition.search(t) for t in texts):
            unused.append(name)
    assert unused == []


def test_every_public_member_has_a_caller_outside_the_tests():
    """Each public method or property of an exported class is read as an
    attribute in src/uberhom or a perfbench script, outside its own
    definition.  Dataclass fields are not methods, so they are exempt."""
    trees = {p: ast.parse(p.read_text()) for p in SOURCES + SCRIPTS}
    reads = [(path, node.attr, node.lineno) for path, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    exported = {name for name in uberhom.__all__
                if inspect.isclass(getattr(uberhom, name))}
    unused = []
    for path in SOURCES:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef) or cls.name not in exported:
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = range(member.lineno, member.end_lineno + 1)
                if not any(attr == member.name and not (where == path and line in own)
                           for where, attr, line in reads):
                    unused.append(f"{cls.name}.{member.name}")
    assert unused == []
