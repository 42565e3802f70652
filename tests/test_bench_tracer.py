"""The benchmark's per-layer tracer patches isoalg functions by name; a
rename in the package must fail here, before any benchmark run."""

import importlib.util
from pathlib import Path

import isoalg.cli  # noqa: F401  (the tracer looks modules up in sys.modules)

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    try:
        tracer.install()  # getattr on every name in LAYERS
    finally:
        tracer.uninstall()
    assert len(tracer.names) > 1
