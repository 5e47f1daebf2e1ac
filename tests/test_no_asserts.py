"""No verdict may rest on code that `python -O` changes: it strips assert
statements and `if __debug__:` blocks, so the sources of src/dpip, read as
syntax trees, hold no assert statement and no `__debug__` name. Tests that
check a refusal in-process then hold under -O too."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    paths = sorted((ROOT / "src" / "dpip").glob("*.py"))
    assert {"nf.py", "decide.py", "residue.py"} <= {path.name for path in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
