"""The package exports only what its own modules or the benchmark use."""

import ast
import inspect
from pathlib import Path
from types import ModuleType

import uberhom

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "uberhom").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))


def _defines(tree: ast.Module, name: str) -> bool:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return True
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


def _references(tree: ast.Module) -> set:
    """Names a module reads: loaded names, attributes and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
    return found


def _traced_layers() -> set:
    """The (module, function) pairs of perfbench/spans.py's LAYERS, which the
    tracer reaches by string; the only strings that count as callers."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    return set(ast.literal_eval(value))


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in uberhom.__all__ is read, as a name, an attribute or an
    import, by a src/uberhom module other than the one defining it or by a
    perfbench script, or is a LAYERS function; a name only the tests use
    belongs in tests/paper.py or behind its module.  String literals, such
    as report keys, do not count."""
    trees = [ast.parse(p.read_text()) for p in SOURCES + SCRIPTS]
    reads = [(tree, _references(tree)) for tree in trees]
    traced = _traced_layers()
    unused = []
    for name in uberhom.__all__:
        obj = getattr(uberhom, name)
        module = getattr(obj, "__module__", "").rpartition(".")[2]
        if isinstance(obj, ModuleType) or (module, name) in traced:
            continue
        if not any(name in names and not _defines(tree, name) for tree, names in reads):
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
