"""No input may end in RecursionError: every function of the package that
calls itself by name is listed here with the bound on its depth."""

import ast
from pathlib import Path

import p5color

RECURSIVE = {
    "pipeline._build_cop5":
        "one level per substitution, each on fewer vertices than the last",
}


def self_calling_functions(path: Path) -> list[str]:
    """module.qualname of each function in path whose body calls its own
    name, directly or as self.name / cls.name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and any(
                isinstance(call, ast.Call) and _calls(call.func, child.name)
                for call in ast.walk(child)
            ):
                found.append(name)
            visit(child, name)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def _calls(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Name):
        return func.id == name
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    )


def test_only_the_listed_functions_call_themselves():
    package = Path(p5color.__file__).parent
    found = [name for path in sorted(package.glob("*.py")) for name in self_calling_functions(path)]
    assert sorted(found) == sorted(RECURSIVE)
