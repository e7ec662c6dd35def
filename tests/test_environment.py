"""The package reads no environment variable: every cutoff is a work
budget in the code, not a knob a variable could set."""

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
