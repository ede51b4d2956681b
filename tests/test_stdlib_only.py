"""The package, its tests and its tools import only the standard library.

pytest is the one outside dependency, and only for the tests.  Imports
inside functions count too, so an optional numpy fast path cannot creep in.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*ROOT.glob("src/puboforge/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("tools/*.py")]
)
ALLOWED = {"pytest", "puboforge"} | {path.stem for path in SOURCES}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_import_is_standard_library_or_local():
    assert len(SOURCES) > 20
    outside = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in SOURCES
        for lineno, name in _imported_modules(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | ALLOWED
    ]
    assert outside == []
