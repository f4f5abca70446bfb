"""algebra._trusted wraps a term table without the Element constructor, so
its result is canonical only if its caller proves it.  Every use of the name
under src/cuntzlim sits in one of the functions listed here, each of which
carries that proof in its docstring; a new caller fails this test until it
is listed with one."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "algebra.adjoint",
    "algebra.scale",
    "homs._monomial",
    "homs.f_preimage",
    "limits.psi",
    "limits.decompose_element",
}


def trusted_uses(source: str, module: str) -> list:
    """(line, function) for every read of the name _trusted, bare or as an
    attribute, in order; function is module.qualname of the innermost
    enclosing def (a lambda is "<lambda>"), or None at module or class
    level.  Imports and the definition of _trusted are not reads."""
    found = []

    def visit(node, scope, fn) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Lambda)):
            scope = scope + [getattr(node, "name", "<lambda>")]
            fn = None if isinstance(node, ast.ClassDef) else ".".join([module] + scope)
        name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name == "_trusted":
            found.append((node.lineno, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, fn)

    visit(ast.parse(source), [], None)
    return sorted(found, key=lambda use: use[0])


def test_the_check_finds_every_use():
    source = (
        "from .algebra import _trusted\n"
        "def _trusted(tag, table):\n"
        "    return table\n"
        "def ok(e):\n"
        "    return [_trusted(e.tag, t) for t in e.parts]\n"     # 5
        "def outer(e):\n"
        "    def inner():\n"
        "        return algebra._trusted(e.tag, {})\n"            # 8
        "    g = lambda: _trusted(e.tag, {})\n"                   # 9
        "    return inner, g\n"
        "alias = _trusted\n"                                      # 11
        "class C:\n"
        "    def m(self):\n"
        "        return _trusted(self.tag, {})\n"                 # 14
    )
    assert trusted_uses(source, "mod") == [
        (5, "mod.ok"), (8, "mod.outer.inner"), (9, "mod.outer.<lambda>"),
        (11, None), (14, "mod.C.m")]


def test_only_listed_functions_use_trusted():
    uses = {(str(p.relative_to(ROOT)), line, fn)
            for p in sorted((ROOT / "src" / "cuntzlim").rglob("*.py"))
            for line, fn in trusted_uses(p.read_text(), p.stem)}
    assert {u for u in uses if u[2] not in ALLOWED} == set()
    # every listed function still uses it, so the list names no stale proof
    assert {fn for _, _, fn in uses} == ALLOWED
