"""Cubic nonlinearities of the quartic torus model.

The central object is the pairing-free trilinear form

    T(u1,u2,u3)(n) = sum over n = n1 - n2 + n3, n2 != n1, n2 != n3 of
                     u1_hat(n1) * conj(u2_hat(n2)) * u3_hat(n3),

its resonant (fully paired) companion R(u1,u2,u3)(n) = u1_hat(n) *
conj(u2_hat(n)) * u3_hat(n), and the renormalized cubic power

    W(u) = (|u|^2 - 2*mass(u)) u = T(u,u,u) - R(u,u,u),

where mass(u) is the normalized spatial average of |u|^2, i.e. the mode
sum of |u_hat|^2.  All transform-based evaluations are alias-free (the
attached grid resolves cubic products exactly) and reduce to a plain
pointwise product plus low-rank pairing corrections.
"""

from __future__ import annotations

import numpy as np

from .spectral import FourierField, ModeLattice, _sq_norms

__all__ = [
    "mass",
    "quartic_mean",
    "cubic",
    "nonpairing",
    "nonpairing_batch",
    "resonant",
    "renormalized_cubic",
    "wick_cubic",
    "conserved_energy",
    "oracle_trilinear",
]


def mass(u: FourierField) -> float | np.ndarray:
    """Normalized spatial average of |u|^2 (= sum of |u_hat|^2).

    A float for one field, an array of the leading shape for a stack.
    """
    m = _sq_norms(u.coeffs)[..., 0, 0]
    return float(m) if m.ndim == 0 else m


def quartic_mean(u: FourierField) -> float | np.ndarray:
    """Normalized spatial average of |u|^4, exact on the dealiased grid.

    A float for one field, an array of the leading shape for a stack.
    """
    m4 = u.lattice._moments(u.coeffs)[1]
    return float(m4) if m4.ndim == 0 else m4.copy()


def _cube(lat: ModeLattice, c: np.ndarray) -> np.ndarray:
    """Coefficients of |u|^2 u for u with coefficients c[..., n_modes] (alias-free)."""
    w = lat.to_grid(c)
    a = np.abs(w, out=lat._workspace("real", w.shape, np.float64))
    a *= a
    w *= a
    return lat._from_grid(w, overwrite=True)


def cubic(u: FourierField) -> FourierField:
    """|u|^2 u projected back onto the retained modes (alias-free)."""
    return FourierField(u.lattice, _cube(u.lattice, u.coeffs))


def resonant(u1: FourierField, u2: FourierField, u3: FourierField) -> FourierField:
    """Fully paired diagonal term: u1_hat(n) conj(u2_hat(n)) u3_hat(n)."""
    return FourierField(u1.lattice, u1.coeffs * np.conj(u2.coeffs) * u3.coeffs)


def nonpairing(u1: FourierField, u2: FourierField, u3: FourierField) -> FourierField:
    """Pairing-free trilinear form T(u1,u2,u3); see nonpairing_batch."""
    return FourierField(
        u1.lattice, nonpairing_batch(u1.lattice, u1.coeffs, u2.coeffs, u3.coeffs)
    )


def nonpairing_batch(
    lat: ModeLattice, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray
) -> np.ndarray:
    """Pairing-free trilinear form T applied to c[..., n_modes] coefficient arrays.

    Inclusion-exclusion over the two pairing hyperplanes {n2 = n1} and
    {n2 = n3} of the unrestricted convolution u1 conj(u2) u3 (a grid
    product, exact on the retained modes):

        T = full - <u1,u2> u3 - <u3,u2> u1 + R(u1,u2,u3)

    with <v,w> = sum_m v_hat(m) conj(w_hat(m)); the doubly-paired diagonal
    R is added back once.  When one array fills all three slots the full
    product is |u|^2 u and both pairings are the mass, so two transforms
    do the work of four.
    """
    if c1 is c2 is c3:
        cube = _cube(lat, c1)
        cube += (c1.real**2 + c1.imag**2 - 2.0 * _sq_norms(c1)[..., 0]) * c1  # (|c|^2 - 2m) c
        return cube
    w = lat.to_grid(c1)
    g = lat.to_grid(c2)
    w *= np.conjugate(g, out=g)
    del g  # freed before the third grid is made
    w *= lat.to_grid(c3)
    full = lat._from_grid(w, overwrite=True)
    p12 = np.sum(c1 * np.conj(c2), axis=-1, keepdims=True)
    p32 = np.sum(c3 * np.conj(c2), axis=-1, keepdims=True)
    return full - p12 * c3 - p32 * c1 + c1 * np.conj(c2) * c3


def renormalized_cubic(u: FourierField) -> FourierField:
    """W(u) = (|u|^2 - 2*mass(u)) u = T(u,u,u) - R(u,u,u)."""
    c = cubic(u)
    m = np.expand_dims(mass(u), -1)
    return FourierField(u.lattice, c.coeffs - 2.0 * m * u.coeffs)


def wick_cubic(u: FourierField, sigma: float) -> FourierField:
    """Wick-constant variant (|u|^2 - 2*sigma) u."""
    c = cubic(u)
    return FourierField(u.lattice, c.coeffs - 2.0 * sigma * u.coeffs)


def conserved_energy(u: FourierField) -> float:
    """Energy functional conserved by the dispersive renormalized flow.

    H(u) = sum <n>^2 |u_hat|^2 + (1/2) avg|u|^4 - mass(u)^2.

    Its complex gradient with respect to conj(u_hat) is (1-Lap)u + W(u),
    which is exactly the drift of the dispersive flow, so H is invariant
    along it.
    """
    quad = float(np.sum(u.lattice.brackets**2 * np.abs(u.coeffs) ** 2))
    return quad + 0.5 * quartic_mean(u) - mass(u) ** 2


ORACLE_MODE_LIMIT = 260  # direct triple sums are O(K^3); keep K small


def oracle_trilinear(
    u1: FourierField, u2: FourierField, u3: FourierField, *, pairing_free: bool
) -> FourierField:
    """Direct triple-sum evaluation of the trilinear convolution: the
    pairing-free form T, which drops the terms with n2 == n1 or n2 == n3,
    when `pairing_free`, else the full convolution u1 conj(u2) u3.

    Independent of the transform pipeline: loops over (n1, n2) pairs and
    vectorizes over n3 with an index lookup for n = n1 - n2 + n3.  Guarded
    to small lattices; intended as a ground-truth oracle for tests.
    """
    lat = u1.lattice
    if lat.n_modes > ORACLE_MODE_LIMIT:
        raise ValueError(
            f"oracle restricted to lattices with <= {ORACLE_MODE_LIMIT} modes"
        )
    modes = lat.modes
    K = lat.n_modes
    out = np.zeros(K, dtype=np.complex128)
    a1, a2, a3 = u1.coeffs, np.conj(u2.coeffs), u3.coeffs
    for i1 in range(K):
        n1 = modes[i1]
        for i2 in range(K):
            if pairing_free and i2 == i1:
                continue
            base = n1 - modes[i2]
            targets = base[None, :] + modes  # n = n1 - n2 + n3 over all n3
            idx = lat.index_of(targets)
            w = a1[i1] * a2[i2] * a3
            if pairing_free:
                w[i2] = 0.0
            valid = idx >= 0
            np.add.at(out, idx[valid], w[valid])
    return FourierField(lat, out)
