"""Every memo in the library is bounded: no module uses functools.cache, and
every lru_cache names a maxsize that is an integer literal or a module
constant bound to one."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _int_constants(tree: ast.Module) -> dict:
    """Module-level names bound by a plain assignment to an integer literal."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def unbounded_caches(source: str) -> list:
    """Line numbers of every functools.cache and of every lru_cache whose
    maxsize is not an integer literal or a name bound to one, in order."""
    tree = ast.parse(source)
    constants = _int_constants(tree)
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called[id(node.func)] = node
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad += [node.lineno for a in node.names if a.name == "cache"]
            continue
        if isinstance(node, ast.Attribute) and node.attr == "cache" \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            bad.append(node.lineno)
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name != "lru_cache":
            continue
        call = called.get(id(node))
        if call is None:
            bad.append(node.lineno)     # bare @lru_cache: the default maxsize
            continue
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        size = sizes[0] if len(sizes) == 1 else None
        if isinstance(size, ast.Constant):
            value = size.value
        elif isinstance(size, ast.Name):
            value = constants.get(size.id)
        else:
            value = None
        if isinstance(value, bool) or not isinstance(value, int):
            bad.append(node.lineno)
    return sorted(bad)


def test_the_check_finds_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"   # 2
        "N = 8\nM = None\n"
        "@functools.cache\ndef a(): pass\n"                             # 5
        "@lru_cache\ndef b(): pass\n"                                   # 7
        "@lru_cache(maxsize=None)\ndef c(): pass\n"                     # 9
        "@lru_cache(maxsize=M)\ndef d(): pass\n"                        # 11
        "@functools.lru_cache()\ndef e(): pass\n"                       # 13
        "@lru_cache(maxsize=True)\ndef g(): pass\n"                     # 15
        "@lru_cache(maxsize=64, typed=True)\ndef h(): pass\n"
        "@functools.lru_cache(N)\ndef i(): pass\n"
        "j = lru_cache(maxsize=N)(len)\n"
        "k = h.cache\n"
    )
    assert unbounded_caches(source) == [2, 5, 7, 9, 11, 13, 15]


def test_no_module_keeps_an_unbounded_cache():
    found = {str(p.relative_to(ROOT)): unbounded_caches(p.read_text())
             for p in sorted((ROOT / "src" / "cuntzlim").rglob("*.py"))}
    assert {path: lines for path, lines in found.items() if lines} == {}
