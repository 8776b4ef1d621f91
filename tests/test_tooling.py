import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_resolve_to_rdflb_callables():
    # the traced benchmark run wraps every LAYERS name with getattr; a
    # renamed or deleted function must fail here, not in that run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for qual in tracing.LAYERS:
        mod_name, func_name = qual.split(".")
        if not callable(getattr(importlib.import_module(f"rdflb.{mod_name}"), func_name, None)):
            missing.append(qual)
    assert missing == []
    assert set(tracing.COUNTERS) <= set(tracing.LAYERS)


def test_exports_resolve_and_reexports_are_exported():
    # every __all__ name resolves, and every name the package imports from a
    # module is in that module's __all__: a deleted function leaves neither
    package = Path(importlib.import_module("rdflb").__file__).parent
    for path in sorted(package.glob("[!_]*.py")):
        mod = importlib.import_module(f"rdflb.{path.stem}")
        missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
        assert missing == [], path.stem
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = importlib.import_module(f"rdflb.{node.module}").__all__
            stale = [a.name for a in node.names if a.name not in exported]
            assert stale == [], node.module
