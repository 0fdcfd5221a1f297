"""The package defines and exports only what its own modules or the benchmark
use, and every property test in the suite is derandomized."""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import uberhom
from uberhom import complexes

from conftest import traced_layers

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


def _reads(node: ast.AST) -> list:
    """Names one node reads: a loaded name, an attribute or imported names."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def _references(tree: ast.Module) -> set:
    """Names a module reads."""
    return {name for node in ast.walk(tree) for name in _reads(node)}


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in uberhom.__all__ is read, as a name, an attribute or an
    import, by a src/uberhom module other than the one defining it or by a
    perfbench script, or is a LAYERS function; a name only the tests use
    belongs in tests/paper.py or behind its module.  String literals, such
    as report keys, do not count."""
    trees = [ast.parse(p.read_text()) for p in SOURCES + SCRIPTS]
    reads = [(tree, _references(tree)) for tree in trees]
    traced = traced_layers()
    unused = []
    for name in uberhom.__all__:
        obj = getattr(uberhom, name)
        module = getattr(obj, "__module__", "").rpartition(".")[2]
        if isinstance(obj, ModuleType) or (module, name) in traced:
            continue
        if not any(name in names and not _defines(tree, name) for tree, names in reads):
            unused.append(name)
    assert unused == []


def test_every_public_definition_has_a_caller_outside_the_tests():
    """Each public top-level function and class of every src/uberhom module,
    exported or not, is read outside its own definition by src/uberhom or a
    perfbench script, or is a LAYERS function; code only the tests call
    belongs in tests/paper.py."""
    trees = {p: ast.parse(p.read_text()) for p in SOURCES + SCRIPTS}
    reads = [(path, name, node.lineno) for path, tree in trees.items()
             for node in ast.walk(tree) for name in _reads(node)]
    traced = traced_layers()
    unused = []
    for path in SOURCES:
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (path.stem, node.name) in traced):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in own)
                       for where, name, line in reads):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_every_public_member_has_a_caller_outside_the_tests():
    """Each public method or property of an exported class is read as an
    attribute in src/uberhom or a perfbench script, outside its own
    definition.  Attributes set by __init__ are not methods, so they are
    exempt."""
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


def test_every_standard_shape_is_built_outside_the_tests():
    """Each name standard_complex registers is built by a standard_complex
    call in src/uberhom or a perfbench script; a shape only the tests build
    belongs in tests/paper.py."""
    built = {node.args[0].value for path in SOURCES + SCRIPTS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "standard_complex" in _reads(node.func)
             and node.args and isinstance(node.args[0], ast.Constant)}
    assert set(complexes._STANDARD) - built == set()


def _functions(path: Path):
    """(module.function, node) of each top-level function and method; a
    nested function counts as part of the one enclosing it."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, ast.FunctionDef):
                yield f"{module}.{fn.name}", fn


def _literal_text(fn: ast.FunctionDef) -> str:
    """The string literals of a function outside its docstring, an f-string's
    fields shown as {}."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    parts = []
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if isinstance(node, ast.JoinedStr):
            parts.append("".join(v.value if isinstance(v, ast.Constant) else "{}"
                                 for v in node.values))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts.append(node.value)
    return "\n".join(parts)


def test_each_limit_has_one_owner():
    """CapExceeded is raised only by the one check of each limit, and only
    uber._check_cap words the cube-cap refusal."""
    owners = {"uber._check_cap", "cli._resolve_colourings", "planar._check_overlay",
              "complexes.read_complex", "graphs.matching_blocks"}
    raisers, wording = set(), set()
    for path in SOURCES:
        for name, fn in _functions(path):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "CapExceeded"):
                    raisers.add(name)
            if "the cube cap is" in _literal_text(fn):
                wording.add(name)
    assert raisers == owners, raisers ^ owners
    assert wording == {"uber._check_cap"}


def test_property_tests_are_derandomized():
    """Every @given test in tests/ draws the same examples on every run: the
    profile that tests/conftest.py loads derandomizes them, and no test
    turns that off."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, test in vars(module).items():
            if getattr(test, "is_hypothesis_test", False):
                found.append(name)
                assert test._hypothesis_internal_use_settings.derandomize, (path.name, name)
    assert found
