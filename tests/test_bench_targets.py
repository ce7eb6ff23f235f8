"""The benchmark's per-layer tracer (perfbench/tracing.py) looks functions up
by module and name; a rename in the package must fail here rather than read
as a zero trace row."""
import importlib.util
import sys
from pathlib import Path

import hdrflow.cli  # noqa: F401  (imports every module the tracer reads)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{f}" for mod, funcs in tracing.TARGETS.values()
               for f in funcs
               if getattr(sys.modules.get(mod), f, None) is None]
    assert not missing
