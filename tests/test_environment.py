"""Scans of the package source. It reads no environment variable: every
cutoff is a work budget in the code, not a knob a variable could set.
Every name a module imports is used in that module, and no module reads
a private name of another."""

import ast
from pathlib import Path

import p5color

READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """name:line of each use of os.environ, os.getenv and their kin in path,
    imported or not."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and any(a.name in READERS for a in node.names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_reads_an_environment_variable():
    package = Path(p5color.__file__).parent
    assert [hit for path in sorted(package.glob("*.py")) for hit in environment_reads(path)] == []


def test_the_scan_sees_a_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nfrom os import getenv\nn = os.environ.get('N')\n")
    assert environment_reads(path) == ["m.py:2", "m.py:3"]


# perfbench/spans.py swaps pipeline.is_berge_small by name, so pipeline
# imports it for that alone (until ROADMAP item 8 moves the tracer into
# the package)
UNUSED_ON_PURPOSE = ["pipeline.is_berge_small"]


def unused_imports(path: Path) -> list[str]:
    """module.name of each name the module at path imports at top level
    and never uses: loads it nowhere and does not list it in __all__."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"{path.stem}.{name}" for name in imported if name not in used]


def test_every_imported_name_is_used():
    package = Path(p5color.__file__).parent
    assert [hit for path in sorted(package.glob("*.py")) for hit in unused_imports(path)] == UNUSED_ON_PURPOSE


def test_the_scan_sees_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from json import dumps, loads\n__all__ = ['loads']\nprint(os.sep)\n"
    )
    assert unused_imports(path) == ["m.regex", "m.dumps"]


def private_reads(path: Path) -> list[str]:
    """name:line of each module-level _name of another package module
    that the module at path reads: imported from a relative module, or
    an attribute of a module imported with `from . import`. Attributes
    of other objects, such as a class's, are not counted."""
    tree = ast.parse(path.read_text())
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and is_private(node.attr):
                found.append(f"{path.name}:{node.lineno}")
    return found


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_a_private_name_of_another():
    package = Path(p5color.__file__).parent
    assert [hit for path in sorted(package.glob("*.py")) for hit in private_reads(path)] == []


def test_the_scan_sees_a_private_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from . import graph, pipeline as pl\nfrom .oracle import _search_nodes, chi_exact\n"
        "g = pl._gnp(3, 0.5, None)\nh = graph.Graph._from_masks(())\nprint(pl.__name__)\n"
    )
    assert private_reads(path) == ["m.py:2", "m.py:3"]
