import ast
from pathlib import Path

import partition_axis

SOURCE_DIR = Path(partition_axis.__file__).parent


def test_every_exported_name_resolves():
    for name in partition_axis.__all__:
        assert hasattr(partition_axis, name), name


def test_no_assert_statements_in_source():
    # Invariant checks must still run under `python -O`, which strips asserts.
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_function_calls_itself_in_source():
    # Recursion depth grows with n, so a deep enough n raises RecursionError.
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found += [
                    f"{path.name}:{node.lineno} {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ]
    assert found == []
