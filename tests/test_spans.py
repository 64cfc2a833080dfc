"""The benchmark's span tracer finds every layer it binds.

``Tracer.install`` looks each entry point up as ``owner.__dict__[attr]``,
so a name that moves out of a module its callers use would make a traced
benchmark run fail with KeyError.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves_on_its_owner():
    spans = load_spans()
    for layer, owners in spans.layer_bindings():
        for owner, attr in owners:
            assert callable(owner.__dict__.get(attr)), f"{layer}: {owner!r}.{attr}"


def test_tracer_install_restores_every_binding():
    spans = load_spans()
    bindings = [(owner, attr, owner.__dict__[attr])
                for _, owners in spans.layer_bindings() for owner, attr in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in bindings)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in bindings)
