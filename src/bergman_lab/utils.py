"""Small shared helpers: the Hermitian check and complex point coercion."""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_hermitian",
    "as_complex_tuple",
]


def check_hermitian(a: np.ndarray, rtol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    """Validate conjugate symmetry of ``a`` and return it unchanged."""
    a = np.asarray(a)
    scale = max(float(np.abs(a).max(initial=0.0)), 1e-300)
    dev = float(np.abs(a - a.conj().T).max(initial=0.0))
    if dev > rtol * scale:
        raise ValueError(f"{what} is not Hermitian: deviation {dev:.3e} (scale {scale:.3e})")
    return a


def as_complex_tuple(t) -> tuple[complex, ...]:
    """Coerce a scalar or sequence into a tuple of python complex numbers
    (a tuple that is one already is returned as it is)."""
    if type(t) is tuple and all(type(x) is complex for x in t):
        return t
    arr = np.atleast_1d(np.asarray(t, dtype=complex))
    if arr.ndim != 1:
        raise ValueError(f"expected a point (1-d sequence), got shape {arr.shape}")
    return tuple(complex(x) for x in arr)

