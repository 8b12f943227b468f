"""Exact-arithmetic toolkit for parabolic-type subalgebras of rank-two
lattice vertex operator algebras.

Importing the package loads no layer.  The engine layers (fock, vertexops,
linalg, zhu, modrep) are also package attributes: the first access to any
of them imports all five, so code that reaches one through the package
finds every one in sys.modules.
"""

__version__ = "0.1.0"

_ENGINE = ("fock", "vertexops", "linalg", "zhu", "modrep")


def __getattr__(name: str):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for layer in _ENGINE:
        import_module(f"{__name__}.{layer}")
    return globals()[name]
