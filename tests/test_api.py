"""The public surface other code looks up by name: every module's __all__,
and the names perfbench/tracing.py wraps when it traces a benchmark run."""

import importlib
import pathlib
import sys

import pytest

MODULES = ("exactnum", "lattice", "monoid", "fock", "vertexops", "linalg",
           "zhu", "modrep", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"paravoa.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def load_tracing():
    path = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(path)


def test_tracer_installs_and_restores_every_attribute():
    tracing = load_tracing()
    import paravoa.cli  # noqa: F401  (imports every layer)

    mods = {layer: sys.modules[f"paravoa.{layer}"] for layer in tracing.LAYERS}
    owners = list(mods.values()) + [getattr(mods[layer], cname)
                                    for layer, classes in tracing.METHODS.items()
                                    for cname in classes]
    before = [dict(vars(o)) for o in owners]
    tr = tracing.Tracer()
    try:
        tr.install()  # a KeyError here means a method it names is gone
        swapped = sum(vars(o)[k] is not v
                      for o, old in zip(owners, before) for k, v in old.items())
        assert swapped > 0
    finally:
        tr.uninstall()
    for o, old in zip(owners, before):
        now = vars(o)
        assert [k for k, v in old.items() if now.get(k) is not v] == [], o
