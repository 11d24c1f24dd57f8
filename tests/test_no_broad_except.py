"""Errors are not swallowed by broad except clauses: every handler in the
package names the exceptions it can act on."""

import ast
from pathlib import Path

import sparsemotion

BROAD = {"Exception", "BaseException", "RuntimeError"}


def broad_handlers(source: str):
    """Line numbers of bare excepts and of handlers naming a class in BROAD,
    alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(
                isinstance(c, ast.Name) and c.id in BROAD for c in caught):
            lines.append(node.lineno)
    return lines


def test_checker_flags_each_broad_form():
    source = "\n".join(
        f"try:\n    pass\nexcept {clause}:\n    pass"
        for clause in ("", "Exception", "BaseException as e",
                       "(ValueError, RuntimeError)", "ValueError"))
    assert broad_handlers(source) == [3, 7, 11, 15]


def test_no_broad_except_in_package():
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(sparsemotion.__file__).parent.glob("*.py"))
        for line in broad_handlers(path.read_text())
    ]
    assert found == []
