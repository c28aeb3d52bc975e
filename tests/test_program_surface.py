"""Every function, method and class in the program has a program caller.

A name counts as used when src/ or perfbench/ refers to it outside its own
definition: as a name, as an attribute, or as a string that names one (the
benchmark looks entry points up by string). Imports and `__all__` entries
do not count, so a name that is only exported, or only called from tests,
fails here. Dunder methods are called by Python itself and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / "src" / "primtrack"
BENCH = ROOT / "perfbench"

# Names kept without a program caller, each for a reason of its own.
ALLOWED = {
    "acceleration": "Command.acceleration: the flatness gate's inverse",
    "bounds": "EsdfGrid.bounds: the acceptance gate reads it",
    "time_scale": "the acceptance gate reads it",
    "time_scaled_geometry_check": "the acceptance gate reads it",
    "boundary": "Trajectory.boundary: the acceptance gate reads it",
    "load_esdf": "the reader of save_esdf's format",
    "empty_arena": "exported from primtrack.__all__",
}


def _definitions(tree):
    """(name, first line, last line) of every def and class, nested too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno


def _exported(tree):
    """Ids of the string constants listed in `__all__`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {id(c) for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return out


def _references(tree):
    """(name, line) of every name, attribute and identifier-like string."""
    skip = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in skip:
            yield node.value, node.lineno


def _unused():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PROGRAM.glob("*.py")) + sorted(
                 BENCH.glob("*.py"))}
    refs = [(path, name, line) for path, tree in trees.items()
            for name, line in _references(tree)]
    out = []
    for path in sorted(PROGRAM.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if name in ALLOWED:
                continue
            used = any(n == name and not (p == path and first <= line <= last)
                       for p, n, line in refs)
            if not used:
                out.append(f"{path.name}:{first} {name}")
    return out


def test_every_program_name_has_a_program_caller():
    assert not _unused()


def test_allowlisted_names_exist():
    defined = {name for path in PROGRAM.glob("*.py")
               for name, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
