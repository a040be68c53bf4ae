import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _names(node):
    """Every identifier a node reads: names, attribute names and argument
    names (a test or fixture requests a fixture by its argument name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.arg):
            out.add(sub.arg)
    return out


def test_every_conftest_name_is_reached_from_a_test():
    """Every top-level function, class and fixture of conftest.py is named in
    some test_*.py file, or in the body of a conftest name that is: a
    reference whose last test went must go with it."""
    tree = ast.parse((TESTS / "conftest.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set().union(*(_names(ast.parse(path.read_text()))
                         for path in sorted(TESTS.glob("test_*.py"))))
    reached, todo = set(), [name for name in defs if name in used]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [other for other in _names(defs[name]) if other in defs]
    assert sorted(set(defs) - reached) == []
