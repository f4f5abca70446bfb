"""The benchmark in bench/ patches and imports cuntzlim by name, so a renamed
or deleted name would break `bench/run.py --trace 1` without failing any
library test.  These checks read bench/ and look every such name up."""
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
