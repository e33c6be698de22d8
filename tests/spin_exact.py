"""Exact EPR line positions from the full spin Hamiltonian.

A reference for ``nvbath.spin_core.resonance_field`` that shares no code
with it: no perturbation theory, no effective g or hyperfine constant. One
center of electron spin S and nuclear spin I = 1, with its defect axis at
angle theta to the field B (along z), has the Hamiltonian, in Hz,

    H = mu_B / h  B z.g.S  +  D ((n.S)**2 - S (S + 1) / 3)  +  S.A.I,

with axial tensors ``T = T_perp 1 + (T_par - T_perp) n n^T`` for g and A
and ``n`` the defect axis. ``numpy.linalg.eigh`` diagonalises the
(2S + 1)(2I + 1) matrix at each field. At high field its levels sort into
2S + 1 electron manifolds of 2I + 1 levels each. A line of the branch
``m_s_low -> m_s_high`` pairs each level of the lower manifold with the
level of the upper one that its S+ matrix element reaches most strongly,
and the line's field is found by bisection in B on that pair's gap.
"""

from __future__ import annotations

import numpy as np

# SI-2019 exact values (J s, J / T).
PLANCK_H = 6.62607015e-34
BOHR_MAGNETON = 9.2740100783e-24
NUCLEAR_SPIN = 1.0


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) of spin s in the |m = s, s - 1, ..., -s> basis."""
    m = s - np.arange(int(round(2 * s)) + 1)
    raising = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1)
    sx = (raising + raising.T) / 2
    sy = (raising - raising.T) / 2j
    return sx.astype(complex), sy, np.diag(m).astype(complex)


def axial(parallel: float, perp: float, axis: np.ndarray) -> np.ndarray:
    """The 3 x 3 axial tensor with these principal values about ``axis``."""
    return perp * np.eye(3) + (parallel - perp) * np.outer(axis, axis)


def hamiltonian(field, spin, g_par, g_perp, d_hz, a_par, a_perp, cos_theta):
    """The full Hamiltonian (Hz) at ``field`` tesla, electron x nuclear."""
    axis = np.array([np.sqrt(1.0 - cos_theta**2), 0.0, cos_theta])
    s = spin_matrices(spin)
    i = spin_matrices(NUCLEAR_SPIN)
    one_s, one_i = np.eye(len(s[2])), np.eye(len(i[2]))
    zeeman_axis = axial(g_par, g_perp, axis)[2] * (BOHR_MAGNETON / PLANCK_H * field)
    n_s = sum(n * op for n, op in zip(axis, s))
    electron = sum(b * op for b, op in zip(zeeman_axis, s))
    electron = electron + d_hz * (n_s @ n_s - spin * (spin + 1) / 3 * one_s)
    a = axial(a_par, a_perp, axis)
    hyperfine = sum(a[j, k] * np.kron(s[j], i[k]) for j in range(3) for k in range(3))
    return np.kron(electron, one_i) + hyperfine


def line_fields(frequency, m_s_low, m_s_high, spin, g_par, g_perp, d_hz, a_par,
                a_perp, cos_theta, window=0.5, tol=1e-13) -> list[float]:
    """Fields (T) of the ``m_s_low -> m_s_high`` lines at ``frequency`` Hz,
    ascending; bisected within ``window`` T of the bare electron Zeeman field."""
    args = (spin, g_par, g_perp, d_hz, a_par, a_perp, cos_theta)
    levels = int(round(2 * NUCLEAR_SPIN)) + 1
    lower = int(round(m_s_low + spin)) * levels
    upper = int(round(m_s_high + spin)) * levels
    b0 = frequency * PLANCK_H / (g_par * BOHR_MAGNETON)
    # S+ on the electron, in the basis ordered m = S, ..., -S.
    sx, sy, _ = spin_matrices(spin)
    s_plus = np.kron(sx + 1j * sy, np.eye(levels))
    _, vectors = np.linalg.eigh(hamiltonian(b0, *args))
    pairs = []
    for a in range(lower, lower + levels):
        reach = np.abs(vectors[:, upper:upper + levels].conj().T @ s_plus @ vectors[:, a])
        pairs.append((a, upper + int(np.argmax(reach))))
    fields = []
    for a, b in pairs:
        lo, hi = b0 - window, b0 + window
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            energies = np.linalg.eigvalsh(hamiltonian(mid, *args))
            if energies[b] - energies[a] < frequency:
                lo = mid
            else:
                hi = mid
        fields.append(0.5 * (lo + hi))
    return sorted(fields)
