"""Kernel backend selection: compiled extension when available, pure fallback.

Set HYPERFIELD_PURE=1 to force the pure-Python backend (the fallback
tests do; the perfbench harness removes the variable from its jobs, so
they run whichever backend is importable).
"""
import os

if os.environ.get("HYPERFIELD_PURE"):
    from . import pure as impl
else:
    try:
        from . import _speed as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import pure as impl

BACKEND = impl.BACKEND
ddf_degrees = impl.ddf_degrees
irreducible_mod_p = impl.irreducible_mod_p
roots_mod_p = impl.roots_mod_p

__all__ = ["BACKEND", "ddf_degrees", "irreducible_mod_p", "roots_mod_p"]
