"""Every module-level name in src/stockrank has a reader in the program.

A function, class or constant that only tests read is code that no command
runs: delete it, or give it a reader. A name counts as read when a statement
other than its own definition, in any module under src/stockrank, names it
(as a bare name or as an attribute). Dunder names are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stockrank"

# name -> why it stays although nothing under src/ reads it yet
ALLOWED = {
    "read_events_csv": "reads the events.csv that `stockrank synth` writes; the "
                       "planned planted-signal recovery score is its reader",
}


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _read_names(stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_names() -> dict[str, str]:
    """name -> module path, for each module-level name nothing else reads."""
    stmts = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stmts += [(path, stmt) for stmt in tree.body]
    reads = [_read_names(stmt) for _, stmt in stmts]
    unread = {}
    for i, (path, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unread[name] = str(path.relative_to(SRC))
    return unread


def test_every_module_level_name_has_a_reader():
    # equality, so an allowlisted name that gains a reader or goes away leaves the list too
    assert unread_names() == {name: "synth.py" for name in ALLOWED}
