"""Small shared helpers: Hermitian checks, the Wirtinger finite-difference stencil."""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_hermitian",
    "as_complex_tuple",
    "wirtinger_gradient",
    "wirtinger_hessian",
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
    """Coerce a scalar or sequence into a tuple of python complex numbers."""
    arr = np.atleast_1d(np.asarray(t, dtype=complex))
    if arr.ndim != 1:
        raise ValueError(f"expected a point (1-d sequence), got shape {arr.shape}")
    return tuple(complex(x) for x in arr)


def wirtinger_gradient(eval_at, size: int, step: float) -> list:
    """First Wirtinger derivatives d/dz_i of a real-valued function by FD.

    ``eval_at(offset)`` evaluates the function displaced by a complex offset
    vector of length ``size`` and may return a scalar or an array (the
    offset is broadcast against whatever the function is vectorized over).
    Central differences in the real and imaginary coordinate directions give

        d/dz = ((f(+h) - f(-h)) - i (f(+ih) - f(-ih))) / (4h),

    exact up to O(h^2).  Returns one scalar/array per coordinate.
    """
    out = []
    for i in range(size):
        e = np.zeros(size, dtype=complex)
        e[i] = 1.0
        fp, fm = eval_at(step * e), eval_at(-step * e)
        fip, fim = eval_at(1j * step * e), eval_at(-1j * step * e)
        out.append((np.asarray(fp) - fm - 1j * (np.asarray(fip) - fim)) / (4.0 * step))
    return out


def wirtinger_hessian(eval_at, size: int, step: float) -> np.ndarray:
    """Full complex Hessian d^2/dz_i dz_j-bar of a real-valued function by FD.

    Uses the directional second difference

        Q(u) = (f(+hu) + f(-hu) + f(+ihu) + f(-ihu) - 4 f(0)) / (4 h^2),

    which approximates ``u^T H u-bar``; diagonal entries are ``Q(e_i)`` and
    mixed ones come from polarization along ``e_i + e_j`` (real part) and
    ``e_i + i e_j`` (imaginary part).  Evaluation count is
    ``1 + 4 size + 4 size (size - 1)``; error O(h^2).  The result is
    Hermitian by construction, shaped ``f0.shape + (size, size)``.
    """
    f0 = np.asarray(eval_at(np.zeros(size, dtype=complex)), dtype=complex)
    if not np.all(np.isfinite(f0)):
        raise ValueError("field produced non-finite values at the stencil center")

    def second(u: np.ndarray):
        v = []
        for off in (step * u, -step * u, 1j * step * u, -1j * step * u):
            v.append(np.asarray(eval_at(off), dtype=complex))
            if not np.all(np.isfinite(v[-1])):
                raise ValueError("field produced non-finite values on the stencil")
        return (v[0] + v[1] + v[2] + v[3] - 4.0 * f0) / (4.0 * step * step)

    basis = np.eye(size, dtype=complex)
    diag = [second(basis[i]) for i in range(size)]
    H = np.zeros(f0.shape + (size, size), dtype=complex)
    for i in range(size):
        H[..., i, i] = diag[i]
    for i in range(size):
        for j in range(i + 1, size):
            re = (second(basis[i] + basis[j]) - diag[i] - diag[j]) / 2.0
            im = (second(basis[i] + 1j * basis[j]) - diag[i] - diag[j]) / 2.0
            H[..., i, j] = re + 1j * im
            H[..., j, i] = np.conj(re + 1j * im)
    return H
