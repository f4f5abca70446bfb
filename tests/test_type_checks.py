"""One function tests the type of a parameter: algebra.check_int.  No other
function of the library contains isinstance(..., bool), type(...) is int or
type(...) is not int, so the policy (an int with a lower bound, a bool
refused) is written once."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_call(node, func: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == func)


def _is_type_test(node) -> bool:
    """isinstance(x, bool), with bool alone or in a tuple, or an `is` or
    `is not` comparison of type(x) with int."""
    if _is_call(node, "isinstance") and len(node.args) == 2:
        classes = node.args[1]
        elts = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        return any(isinstance(e, ast.Name) and e.id == "bool" for e in elts)
    if isinstance(node, ast.Compare) and all(isinstance(op, (ast.Is, ast.IsNot))
                                             for op in node.ops):
        sides = [node.left] + node.comparators
        return (any(_is_call(s, "type") for s in sides)
                and any(isinstance(s, ast.Name) and s.id == "int" for s in sides))
    return False


def type_tests(source: str) -> list:
    """Line numbers of every type test outside a function named check_int,
    in order; module-level code and functions nested in check_int count as
    outside."""
    bad = []

    def visit(node, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside = getattr(node, "name", None) == "check_int"
        if not inside and _is_type_test(node):
            bad.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(bad)


def test_the_check_finds_type_tests():
    source = (
        "def check_int(name, value, low, error):\n"
        "    if type(value) is not int or isinstance(value, bool):\n"        # 2, allowed
        "        raise error(name)\n"
        "    g = lambda v: type(v) is int\n"                                  # 4
        "def f(n):\n"
        "    if isinstance(n, bool) or not isinstance(n, int):\n"            # 6
        "        pass\n"
        "    return type(n) is not int, int is type(n), isinstance(n, (int, bool))\n"  # 8
        "ok = type(2) == int or isinstance(2, int) or type(2) is float\n"
        "bad = isinstance(True, bool)\n"                                      # 10
        "class C:\n"
        "    def m(self, k):\n"
        "        return type(k) is int\n"                                     # 13
    )
    assert type_tests(source) == [4, 6, 8, 8, 8, 10, 13]


def test_only_check_int_tests_a_parameter_type():
    found = {str(p.relative_to(ROOT)): type_tests(p.read_text())
             for p in sorted((ROOT / "src" / "cuntzlim").rglob("*.py"))}
    assert {path: lines for path, lines in found.items() if lines} == {}
