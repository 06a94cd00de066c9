"""Every public function, class and method of the package is used by the
program itself.

A name counts as used when some module of ``src/``, ``scripts/`` or
``perfbench/`` (other than ``lifelong_tta/__init__.py`` and the tests)
mentions it as a name, an attribute or a string constant outside the name's
own definition; the string form covers ``perfbench/layers.py``, which hooks
functions by their names. Code that only its own tests call is deleted, and
the property those tests check moves into a test of the code that remains.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lifelong_tta"

# public names kept although nothing in the program calls them, with the reason
ALLOWED: dict[str, str] = {}


def _definitions(tree):
    """(qualified name, bare name) of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _mentions(node, enclosing=frozenset()):
    """Names mentioned under ``node``, except a name mentioned inside its own
    definition: a function whose body names itself (a tape label, a
    recursive call) does not keep itself alive."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name is not None and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _mentions(child, enclosing)


def _program_files():
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if path.name == "__init__.py" or "tests" in parts:
                continue
            yield path


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_is_used_by_the_program():
    used = {name for path in _program_files() for name in _mentions(_parse(path))}
    defined = [
        (f"{path.stem}.{qualified}", bare)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for qualified, bare in _definitions(_parse(path))
    ]
    assert [q for q, bare in defined if bare not in used and bare not in ALLOWED] == []
    # the allowlist holds only names that still exist and are still unused
    for name in ALLOWED:
        assert name in {bare for _, bare in defined} and name not in used, name


def _method_name_comparisons(tree):
    """Lines of the comparisons with a ``.method`` attribute on one side,
    which can only test a method's name against a string or a tuple of them."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Attribute) and side.attr == "method" for side in (node.left, *node.comparators))
    ]


def test_engine_reads_method_rows_never_method_names():
    # a step reads its METHODS row's fields; a new method is a new row, not a
    # new name test in the engine
    assert _method_name_comparisons(_parse(PACKAGE / "engine.py")) == []


def test_a_method_name_comparison_is_found():
    # a name against a string or a tuple of names is found; a read of the row's field is not
    found = ast.parse("if cfg.method == 'tent':\n    pass\nx = cfg.method in NAMES\ny = row.objective == 'entropy'\n")
    assert _method_name_comparisons(found) == [1, 3]


def test_a_mention_inside_its_own_definition_does_not_count():
    self_only = ast.parse("def f(tape):\n    tape.record('f', f)\n")
    assert "f" not in set(_mentions(self_only))
    called = ast.parse("def f(tape):\n    return tape\n\nf(None)\n")
    assert "f" in set(_mentions(called))
