"""No input may end in RecursionError: every function of the package that
calls itself by name is listed here with the bound on its depth, and
every handler of RecursionError with the input it guards against."""

import ast
from pathlib import Path

import p5color

RECURSIVE = {
    "pipeline._build_cop5":
        "one level per substitution, each on fewer vertices than the last",
}
CATCHES_RECURSION_ERROR = {
    "cli._load_report":
        "json.loads on a report file, which may nest as deeply as its author likes",
}


def functions(path: Path):
    """(module.qualname, node) of each function defined in path, nested
    ones included."""

    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from visit(child, name)

    yield from visit(ast.parse(path.read_text()), path.stem)


def self_calling_functions(path: Path) -> list[str]:
    """The functions in path whose body calls their own name, directly or
    as self.name / cls.name."""
    return [
        name
        for name, fn in functions(path)
        if any(isinstance(call, ast.Call) and _calls(call.func, fn.name) for call in ast.walk(fn))
    ]


def _calls(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Name):
        return func.id == name
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    )


def recursion_error_handlers(path: Path) -> list[str]:
    """The functions in path with an except clause that names
    RecursionError, alone or in a tuple."""
    return [
        name
        for name, fn in functions(path)
        if any(
            isinstance(handler, ast.ExceptHandler)
            and handler.type is not None
            and any(isinstance(t, ast.Name) and t.id == "RecursionError" for t in ast.walk(handler.type))
            for handler in ast.walk(fn)
        )
    ]


def package_functions(find) -> list[str]:
    package = Path(p5color.__file__).parent
    return sorted(name for path in sorted(package.glob("*.py")) for name in find(path))


def test_only_the_listed_functions_call_themselves():
    assert package_functions(self_calling_functions) == sorted(RECURSIVE)


def test_only_the_listed_functions_catch_recursion_error():
    assert package_functions(recursion_error_handlers) == sorted(CATCHES_RECURSION_ERROR)
