import argparse
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layers_resolve_to_rdflb_callables():
    # the traced benchmark run wraps every LAYERS name with getattr; a
    # renamed or deleted function must fail here, not in that run
    tracing = _load_tracing()
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


def test_surface_is_the_bounds_and_two_commands(tmp_path, capsys):
    # the package namespace holds its modules, the sources, solve and the
    # version, and the CLI offers curve and validate; there is no plot command
    rdflb = importlib.import_module("rdflb")
    public = {name: obj for name, obj in vars(rdflb).items() if not name.startswith("_")}
    assert {name for name, obj in public.items() if not inspect.ismodule(obj)} == {
        "BinarySymmetricSource", "BinaryNonSymmetricSource", "GaussianSource", "solve"}
    assert all(obj.__name__ == f"rdflb.{name}" for name, obj in public.items() if inspect.ismodule(obj))
    assert isinstance(rdflb.__version__, str)
    cli = importlib.import_module("rdflb.cli")
    parser = cli._build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == {"curve", "validate"}
    csv_path, out = tmp_path / "curve.csv", tmp_path / "plot.out"
    csv_path.write_text("n,lower\n100,0.1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["plot", str(csv_path), "--out", str(out)])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def _unused_imports(path: Path) -> list[str]:
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_import_is_read():
    # a name imported and never read is left over from a move or a delete;
    # the package's __init__ only re-exports, so it is not scanned
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "rdflb"
    files = sorted(package.rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    unused = [u for path in files if path != package / "__init__.py" for u in _unused_imports(path)]
    assert unused == []


def _relative_imports(tree: ast.Module) -> dict:
    """The names that a module's relative imports bind, also inside a
    function."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    obj = importlib.import_module(f"rdflb.{a.name}")
                else:
                    obj = getattr(importlib.import_module(f"rdflb.{node.module}"), a.name)
                names[a.asname or a.name] = obj
    return names


def _read_callables() -> set[int]:
    """ids of the functions some rdflb module reads, as a bare name or as an
    attribute of a module, resolved in the module that reads them (its
    globals, then the names its functions import)."""
    package = Path(importlib.import_module("rdflb").__file__).parent
    read = set()
    for path in sorted(package.glob("*.py")):
        mod = importlib.import_module("rdflb" if path.stem == "__init__" else f"rdflb.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {**_relative_imports(tree), **vars(mod)}
        for node in ast.walk(tree):
            obj = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                obj = names.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = names.get(node.value.id)
                obj = getattr(base, node.attr, None) if inspect.ismodule(base) else None
            if callable(obj):
                read.add(id(obj))
    return read


def test_traced_layers_without_a_caller_are_pinned():
    # a traced layer that no package code reads measures nothing on any
    # workload; this set is what the benchmark's LAYERS still has to drop or
    # re-point, and a refactor that cuts off a layer's last caller fails here
    tracing = _load_tracing()
    read = _read_callables()
    unread = set()
    for qual in tracing.LAYERS:
        mod_name, func_name = qual.split(".")
        if id(getattr(importlib.import_module(f"rdflb.{mod_name}"), func_name)) not in read:
            unread.add(qual)
    assert unread == {
        "bss.hamming_ball_threshold",
        "logdomain.log_binomial",
        "quadrature.find_root",
        "simulate.delta_residue",
        "simulate.duality_error_prob",
        "simulate.exact_distortion",
    }


def test_every_function_and_class_is_read_by_the_package():
    # a module-level function or class that no package code reads is dead
    # weight, or test-only code that belongs with its tests; the traced
    # layers are read by the benchmark, and the test above pins the ones
    # that no package code reads
    package = Path(importlib.import_module("rdflb").__file__).parent
    traced = set()
    for qual in _load_tracing().LAYERS:
        mod_name, func_name = qual.split(".")
        traced.add(id(getattr(importlib.import_module(f"rdflb.{mod_name}"), func_name)))
    read = _read_callables() | traced
    unread = []
    for path in sorted(package.glob("[!_]*.py")):
        mod = importlib.import_module(f"rdflb.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and id(getattr(mod, node.name)) not in read:
                unread.append(f"{path.stem}.{node.name}")
    assert unread == []


def test_log_one_minus_exp_lives_in_logdomain():
    # ln(e^a - e^b) has one kernel, logdomain.log_diff; an inline copy of its
    # log(1 - e^d) factor elsewhere would drift from its rules (the clamp, the
    # branch at -ln 2, the -inf cases)
    package = Path(importlib.import_module("rdflb").__file__).parent
    idioms = ("log1p(-np.exp(", "log1p(-math.exp(", "log(-np.expm1(", "log(-math.expm1(")
    found = [
        f"{path.name}:{i} {idiom}"
        for path in sorted(package.glob("*.py"))
        if path.name != "logdomain.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for idiom in idioms
        if idiom in line.replace(" ", "")
    ]
    assert found == []


def test_cli_names_each_bound_only_in_bounds():
    # curve rows, their flags and validate all read cli._bounds; a bound
    # called anywhere else in cli.py would be a second wiring with its own
    # column, side and flag rule
    path = Path(importlib.import_module("rdflb.cli").__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (bounds,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_bounds"]
    inside = {id(node) for node in ast.walk(bounds)}
    modules = ("bss", "bns", "gauss")

    def named(node) -> list[str]:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return [f"{node.value.id}.{node.attr}"]
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            return [f"{node.module}.{a.name}" for a in node.names]
        return []

    def is_bound(qual: str) -> bool:
        return qual.split(".")[1].startswith(("lower_bound", "upper_bound"))

    found = [q for node in ast.walk(tree) if id(node) not in inside for q in named(node) if is_bound(q)]
    assert found == []
    wired = {q for node in ast.walk(bounds) for q in named(node) if is_bound(q)}
    assert {"bss.lower_bound", "bns.lower_bound", "gauss.lower_bound", "bss.upper_bound_legacy"} <= wired
