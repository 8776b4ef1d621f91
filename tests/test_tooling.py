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
