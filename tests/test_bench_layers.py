"""Every function the benchmark's tracer wraps exists in the loaded package.

bench/tracer.py names its layer functions by module and attribute path; a
rename inside ospoly would otherwise surface only as a KeyError from a
traced benchmark run.  The tracer is loaded from its file, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _load_tracer()
    missing = []
    for _, module, path in tracer.LAYERS:
        owner = importlib.import_module(f"ospoly.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{module}.{path}")
    assert not missing


def test_install_layers_wraps_every_layer_and_restores():
    tracer = _load_tracer()
    rec = tracer.Tracer()
    try:
        tracer.install_layers(rec)
        wanted = {tracer.span_name(layer, path) for layer, _, path in tracer.LAYERS}
        assert set(rec.names) == wanted
    finally:
        rec.restore()
    assert not rec.patched()
