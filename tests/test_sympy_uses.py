"""Every function of src/dpip that imports sympy or mpmath, read from the
sources, against the list README gives under "Where sympy is still
needed": a new import, or one that goes, fails here until both change."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# `module.qualified_name`; an import at module level would be `module.<module>`
ALLOWED = {
    "fppoly.gf_factor",
    "lll._numerical_gram",
    "nf.NumberField.__init__",
}


def _importers(path):
    """The qualified names of the scopes of `path` that import sympy or
    mpmath."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                visit(child, scope)
                continue
            if any(name.split(".")[0] in ("sympy", "mpmath") for name in names):
                found.add(".".join([path.stem, *(scope or ["<module>"])]))

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_sympy_importers_match_the_allow_list():
    paths = sorted((ROOT / "src" / "dpip").glob("*.py"))
    assert {"nf.py", "fppoly.py", "lll.py"} <= {path.name for path in paths}
    found = set().union(*map(_importers, paths))
    assert found == ALLOWED


def test_allow_list_matches_the_readme():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Where sympy is still needed", 1)[1].split("\n## ", 1)[0]
    modules = {path.stem for path in (ROOT / "src" / "dpip").glob("*.py")}
    named = {
        name
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", section)
        if name.split(".")[0] in modules and "." in name
    }
    assert named == ALLOWED
