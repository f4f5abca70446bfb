"""The benchmark in bench/ patches, imports and reads cuntzlim by name, so a
renamed or deleted name would break `bench/run.py --trace 1` or
`bench/selftest.py` without failing any library test.  These checks read
bench/ and look every such name up."""
import ast
import importlib
import importlib.util
import inspect
import pathlib

from cuntzlim import AlgebraTag, GaussianRational, GenHom

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _cuntzlim_imports(tree):
    """(module, name) for every `from cuntzlim... import name`."""
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "cuntzlim"
            for alias in node.names]


def test_traced_functions_exist():
    tracing = _load("tracing")
    for _, modname, attr in tracing.FUNCTIONS:
        mod = importlib.import_module("cuntzlim." + modname)
        assert callable(getattr(mod, attr, None)), (modname, attr)
    for attr in tracing.SCALAR_DUNDERS:
        assert attr in vars(GaussianRational), attr
    assert callable(vars(GenHom)["image"])
    assert callable(vars(AlgebraTag)["check_word"])


def test_bench_imports_exist():
    for path in sorted(BENCH.glob("*.py")):
        for module, name in _cuntzlim_imports(ast.parse(path.read_text())):
            assert hasattr(importlib.import_module(module), name), (path.name, module, name)


def test_workload_keywords_exist():
    # keywords the workloads pass to cuntzlim names, such as verify_state(seed=)
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {name: getattr(importlib.import_module(module), name)
                for module, name in _cuntzlim_imports(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in imported:
            params = inspect.signature(imported[node.func.id]).parameters
            for kw in node.keywords:
                assert kw.arg in params, (node.func.id, kw.arg)


def _module_names(tree):
    """name -> cuntzlim module for every `import cuntzlim...` and every
    `from cuntzlim... import name` whose name is a module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cuntzlim":
                    out[alias.asname or alias.name] = alias.name
    for module, name in _cuntzlim_imports(tree):
        if inspect.ismodule(getattr(importlib.import_module(module), name, None)):
            out[name] = module + "." + name
    return out


def _attribute_chains(tree, modules):
    """(module, 'a.b') for every read m.a.b, and m.a, off a name m bound to
    a cuntzlim module."""
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add((modules[node.id], ".".join(attrs)))
    return chains


def _missing_attribute_chains():
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for module, chain in sorted(_attribute_chains(tree, _module_names(tree))):
            obj = importlib.import_module(module)
            for attr in chain.split("."):
                if not hasattr(obj, attr):
                    missing.append((path.name, module, chain))
                    break
                obj = getattr(obj, attr)
    return missing


def test_bench_attribute_reads_exist(monkeypatch):
    # bench/selftest.py reads limits.apply and homs.GenHom.image off modules
    # it imports; deleting such a name stops the self-test with
    # AttributeError
    assert _missing_attribute_chains() == []
    from cuntzlim import limits

    monkeypatch.delattr(limits, "apply")
    assert ("selftest.py", "cuntzlim.limits", "apply") in _missing_attribute_chains()
