"""Every module of the library (but its __init__, which re-exports) and of
the tests reads each name it imports."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """The names that the import statements of source bind and no other
    statement reads, in sorted order; `import a.b` binds a."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom math import gcd, lcm as l\n"
              "print(sys.argv, l(2, 3))\n")
    assert unused_imports(source) == ["gcd", "os"]


def test_no_module_imports_a_name_it_never_reads():
    modules = [p for p in sorted((ROOT / "src" / "cuntzlim").glob("*.py"))
               if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in modules}
    assert {path: names for path, names in found.items() if names} == {}
