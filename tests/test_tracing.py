"""The benchmark's span tracer must find every function it names in aebound.

`perfbench/tracing.py` wraps functions by module and name, so renaming or
deleting one breaks traced benchmark runs; this test breaks first.
"""

import importlib
import importlib.util
from pathlib import Path


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_wrapped_then_restored():
    tracing = _load_tracing()
    modules = {name: importlib.import_module(f"aebound.{name}") for name in tracing.MODULES}
    originals = {(module, attr): getattr(modules[module], attr) for module, attr, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            wrapped = getattr(modules[module], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, f"{module}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(modules[module], attr) is original, f"{module}.{attr}"
