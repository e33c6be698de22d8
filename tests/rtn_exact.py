"""Exact ensemble Hahn echo of a random-telegraph bath.

A second reference for ``nvbath.pulse_sim`` that shares no code with it and
draws no random numbers. One source switching between +-1 at rate gamma,
with coupling b, has the exact echo (Klauder & Anderson, Phys. Rev. 125, 912
(1962); Bergli, Galperin & Altshuler, New J. Phys. 11, 025002 (2009))

    D(b) = 1/2 1^T exp((Q - i b Z) tau) exp((Q + i b Z) tau) 1,

with the rate matrix ``Q = gamma [[-1, 1], [1, -1]]`` and ``Z = diag(1, -1)``.
``Q +- i b Z = -gamma I + A`` with ``A**2 = kappa**2 I``,
``kappa**2 = gamma**2 - b**2``, so ``exp`` is ``exp(-gamma tau) (cosh(kappa
tau) I + sinh(kappa tau) / kappa A)`` and the product reduces to

    D(b) = exp(-2 gamma tau) ((cosh + gamma sinh / kappa)**2 + (b sinh / kappa)**2),

with cosh and sinh taken at ``kappa tau`` (cos and sin of ``|kappa| tau``
when ``b > gamma``). Independent sources multiply: pinned couplings give the
product over sources, and couplings ``b = c / u`` redrawn per realization
with ``u`` uniform on (0, 1] give ``(E_u[D(c / u)])**N``, a Gauss-Legendre
quadrature in ``u``.
"""

from __future__ import annotations

import functools

import numpy as np

NODES = 4000


def echo_one_source(coupling, rate: float, tau) -> np.ndarray:
    """Exact echo D of one telegraph source, broadcast over coupling and tau."""
    b = np.abs(np.asarray(coupling, dtype=float))
    tau = np.asarray(tau, dtype=float)
    b, tau = np.broadcast_arrays(b, tau)
    k2 = rate * rate - b * b
    kappa = np.sqrt(np.abs(k2))
    # exp(-gamma tau) times cosh(kappa tau) and sinh(kappa tau) / kappa.
    cosh = np.empty_like(tau)
    sinh = np.empty_like(tau)
    hyp = k2 > 0
    # expm1 keeps sinh / kappa accurate for small kappa, and no exponent is > 0.
    decay = np.exp(-(kappa[hyp] + rate) * tau[hyp])
    half = 0.5 * np.expm1(2.0 * kappa[hyp] * tau[hyp])
    cosh[hyp] = decay * (1.0 + half)
    sinh[hyp] = decay * half / kappa[hyp]
    osc = ~hyp
    damp = np.exp(-rate * tau[osc])
    cosh[osc] = damp * np.cos(kappa[osc] * tau[osc])
    sinh[osc] = damp * tau[osc] * np.sinc(kappa[osc] * tau[osc] / np.pi)
    return (cosh + rate * sinh) ** 2 + (b * sinh) ** 2


def transfer_matrix_echo(coupling: float, rate: float, tau: float) -> float:
    """The same D by the literal 2x2 matrix product, for checking the closed form."""
    q = rate * np.array([[-1.0, 1.0], [1.0, -1.0]])
    z = np.diag([1.0, -1.0])

    def expm(m):
        w, v = np.linalg.eig(m * tau)
        return v @ np.diag(np.exp(w)) @ np.linalg.inv(v)

    ones = np.ones(2)
    d = 0.5 * ones @ expm(q - 1j * coupling * z) @ expm(q + 1j * coupling * z) @ ones
    return float(d.real)


def pinned_echo(couplings, rate: float, tau) -> np.ndarray:
    """Ensemble echo of sources with fixed couplings: the product of their D."""
    tau = np.asarray(tau, dtype=float)
    return np.prod(echo_one_source(np.asarray(couplings)[:, None], rate, tau), axis=0)


def resampled_echo(
    coupling_scale: float, rate: float, tau, n_sources: int, nodes: int = NODES
) -> np.ndarray:
    """Ensemble echo of ``n_sources`` with couplings ``+-coupling_scale / u``,
    ``u`` uniform on (0, 1] and redrawn per realization: ``E_u[D]**N``."""
    x, w = gauss_legendre(nodes)
    u = 0.5 * (x + 1.0)
    tau = np.asarray(tau, dtype=float)
    d = echo_one_source(coupling_scale / u[:, None], rate, tau)
    return (0.5 * w @ d) ** n_sources


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence, O(n**2) per step; numpy's
    ``leggauss`` solves a dense n x n eigenproblem, which is far slower at
    the node counts used here.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)
