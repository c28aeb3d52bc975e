"""Every function, method and class in the program has a program caller,
and every dataclass field a program reader.

A name counts as used when src/ or perfbench/ refers to it outside its own
definition: as a name, as an attribute, or as a string that names one (the
benchmark looks entry points up by string). Imports and `__all__` entries
do not count, so a name that is only exported, or only called from tests,
fails here. Dunder methods are called by Python itself and are skipped.
A field counts as read when src/ or perfbench/ loads an attribute of its
name; passing it to a constructor does not count.
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


# Dataclass fields kept without a program reader, each for its reason.
FIELDS_ALLOWED = {
    "stability_flag": "ObserverState: the planned per-cycle trace reads it",
    "rel_positions": "EpisodeMetrics: the acceptance gate reads it",
    "target_distances": "EpisodeMetrics: the acceptance gate reads it",
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


def _dataclass_fields(tree):
    """(class, field, line) of every annotated field of a @dataclass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno


def _unread_fields():
    trees = [ast.parse(path.read_text()) for path in sorted(
        PROGRAM.glob("*.py")) + sorted(BENCH.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {cls}.{name}"
            for path in sorted(PROGRAM.glob("*.py"))
            for cls, name, line in _dataclass_fields(
                ast.parse(path.read_text()))
            if name not in read and name not in FIELDS_ALLOWED]


def test_every_dataclass_field_has_a_program_reader():
    assert not _unread_fields()


def test_allowlisted_fields_exist():
    fields = {name for path in PROGRAM.glob("*.py")
              for _, name, _ in _dataclass_fields(ast.parse(path.read_text()))}
    assert set(FIELDS_ALLOWED) <= fields
