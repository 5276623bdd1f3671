"""Exact calculators for twist actions on surface homology, norm-ball
polytope duality, sutured Euler characteristics, and interval holonomy."""

__version__ = "0.1.0"


def __getattr__(name: str):
    """The submodule `name`, imported on first access (PEP 562), so that
    `tautcalc.holonomy` works after a bare `import tautcalc`; the root
    re-exports nothing, so `from tautcalc import PLHomeo` still fails."""
    try:
        __import__(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return globals()[name]  # the import binds the submodule here
