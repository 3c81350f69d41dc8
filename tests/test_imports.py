"""Module boundaries of the package: a `_`-prefixed name is private to its
module, except those of `geometry`, the shared-kernel module (`_rowdot`,
`_CHUNK_ELEMENTS`), which other modules may import."""
import ast
from pathlib import Path

import bubblemesh

SRC = Path(bubblemesh.__file__).parent
SHARED = {"geometry"}


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of every `_`-prefixed name that `source` imports
    from a bubblemesh module, relatively or by its full name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("bubblemesh."):
            module = node.module.removeprefix("bubblemesh.")
        else:
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_the_guard_sees_relative_and_absolute_imports():
    source = ("from __future__ import annotations\n"
              "from .packing import Bubble, _anchor_pairs\n"
              "from bubblemesh.remesh import _covered_faces as covered\n"
              "from .geometry import _rowdot\n"
              "from numpy import _globals\n")
    assert private_imports(source) == [(2, "packing", "_anchor_pairs"),
                                       (3, "remesh", "_covered_faces"),
                                       (4, "geometry", "_rowdot")]


def test_no_module_imports_a_private_name_of_another():
    found = [f"{path.name}:{line} imports {name} from {module}"
             for path in sorted(SRC.glob("*.py"))
             for line, module, name in private_imports(path.read_text())
             if module not in SHARED]
    assert found == []
