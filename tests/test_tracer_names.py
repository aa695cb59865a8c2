"""The benchmark's tracer rebinds fingan names by module and attribute; every
name it lists must exist, or entering the tracer fails."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_rebound_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.REBINDS
               if not hasattr(module, attr)]
    assert missing == []
    with tracer.Tracer():
        pass
