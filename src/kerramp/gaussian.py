"""Gaussian kernels of the lossless gates, and their exact Fock elements.

At fixed Fock indices of the modes a product does not squeeze (n_a in
every kerramp circuit), each factor is a Gaussian unitary U on b, or on b
and c: a squeezer, or a rotation times a scalar phase.  With no
displacement its Bargmann kernel <alpha|U|beta> exp((|alpha|^2 +
|beta|^2) / 2) is c exp(x^T A x / 2), x = (conj(alpha), beta) (V. Bargmann,
Commun. Pure Appl. Math. 14, 187 (1961)).  Kernels compose by a Schur
complement (compose), and the Fock elements follow from the recurrence of
F. M. Miatto & N. Quesada, Quantum 4, 366 (2020) (elements): exact at any
squeezing, on any box.  Leading stack axes run over spectator indices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Kernel(NamedTuple):
    """c exp(x^T A x / 2), A over the l outs then the l ins: c of shape S,
    A of shape S + (2l, 2l), S the stack's."""

    c: np.ndarray
    A: np.ndarray


def squeeze(theta: float, num_modes: int) -> Kernel:
    """Kernel of exp(-theta (P - P†)), P = b b / 2 on one mode or b c on
    two (fock.PairSqueeze).  One mode: c = 1/sqrt(cosh), A = [[tanh, sech],
    [sech, -tanh]].  Two: c = 1/cosh, A_{out_b out_c} = tanh,
    A_{out_b in_b} = A_{out_c in_c} = sech and A_{in_b in_c} = -tanh."""
    t, s = math.tanh(theta), 1.0 / math.cosh(theta)
    if num_modes == 1:
        return Kernel(np.sqrt(np.asarray(s)), np.array([[t, s], [s, -t]]))
    A = np.array([[0, t, s, 0], [t, 0, 0, s], [s, 0, 0, -t], [0, s, -t, 0]])
    return Kernel(np.asarray(s), A)


def rotation(phi0: np.ndarray, phi: np.ndarray) -> Kernel:
    """Kernel of exp(i (phi0 + sum_j phi[..., j] n_j)): c = exp(i phi0) and
    an out-in block diag(exp(i phi)).  With zero phases, the identity."""
    size = phi.shape[-1]
    A = np.zeros(phi.shape[:-1] + (2 * size, 2 * size), dtype=complex)
    j = np.arange(size)
    A[..., j, size + j] = A[..., size + j, j] = np.exp(1j * phi)
    return Kernel(np.exp(1j * phi0), A)


def compose(first: Kernel, second: Kernel) -> Kernel:
    """Kernel of the product second first (first acts first).

    The integral over first's out and second's in variables gives, with Q
    first's out-out block, P second's in-in block and R = (I - P Q)^-1,

        A_oo = second_oo + second_oi Q R second_io,
        A_ii = first_ii + first_io R P first_oi,
        A_oi = second_oi R^T first_oi,
        c = c_first c_second / sqrt(det(I - P Q)).

    A unitary's P and Q have norm below 1, so every eigenvalue of I - P Q
    has a positive real part: for one or two modes the principal root of
    the determinant is the continuous one.

    The four blocks are written into one preallocated array over the
    broadcast stack: np.block would cost more per call than the algebra
    at these sizes.
    """
    size = first.A.shape[-1] // 2
    Q, P = first.A[..., :size, :size], second.A[..., size:, size:]
    first_oi, second_oi = first.A[..., :size, size:], second.A[..., :size, size:]
    M = np.eye(size) - P @ Q
    R = np.linalg.inv(M)
    A_oo = second.A[..., :size, :size] + second_oi @ Q @ R @ np.swapaxes(second_oi, -1, -2)
    A_ii = first.A[..., size:, size:] + np.swapaxes(first_oi, -1, -2) @ R @ P @ first_oi
    A_oi = second_oi @ np.swapaxes(R, -1, -2) @ first_oi
    A = np.empty(A_oi.shape[:-2] + (2 * size, 2 * size), dtype=A_oi.dtype)
    A[..., :size, :size], A[..., size:, size:] = A_oo, A_ii
    A[..., :size, size:], A[..., size:, :size] = A_oi, np.swapaxes(A_oi, -1, -2)
    return Kernel(first.c * second.c / np.sqrt(np.linalg.det(M) + 0j), A)


def elements(kernel: Kernel, levels: int) -> list:
    """The Fock elements of the kernel's unitary on `levels` levels per
    mode, as (numbers, values) per conserved band: numbers holds each
    mode's Fock indices of the band's states, and values[..., i, j], over
    the kernel's stack, the element between states i and j.  One mode has
    one band, the ladder.  Two modes must conserve n_b - n_c, as two-mode
    squeezers and rotations do, and have a band per n_b - n_c."""
    if kernel.A.shape[-1] == 2:
        return [((np.arange(levels),), _one_mode(kernel, levels))]
    return _two_modes(kernel, levels)


def _one_mode(kernel: Kernel, L: int) -> np.ndarray:
    """G[..., m, n] = <m|U|n> by the recurrence over the out index,

        G[m, n] sqrt(m) = A_oo sqrt(m - 1) G[m - 2, n] + A_oi sqrt(n) G[m - 1, n - 1],

    from G[0, 0] = c and G[0, n] sqrt(n) = A_ii sqrt(n - 1) G[0, n - 2]."""
    c, A = kernel
    a_oo, a_oi, a_ii = (A[..., i, j, None] for i, j in ((0, 0), (0, 1), (1, 1)))
    G = np.zeros(c.shape + (L, L), dtype=complex)
    j = np.arange(1, (L + 1) // 2)
    G[..., 0, 0::2] = c[..., None]
    G[..., 0, 2::2] *= np.cumprod(a_ii * np.sqrt((2 * j - 1) / (2 * j)), axis=-1)
    root = np.sqrt(np.arange(L))
    for m in range(1, L):
        G[..., m, 1:] = a_oi * root[1:] * G[..., m - 1, :-1]
        if m > 1:
            G[..., m, :] += a_oo * root[m - 1] * G[..., m - 2, :]
        G[..., m, :] /= root[m]
    return G


def _two_modes(kernel: Kernel, L: int) -> list:
    """The bands of c exp(t x_b x_c + u x_b y_b + v x_c y_c + w y_b y_c), x
    the outs and y the ins: the kernel's only entries when it conserves
    n_b - n_c.

    Band k >= 0 holds H_k[m, n] = <m + k, m|U|n + k, n>, band -k the same
    with b and c exchanged, so with u and v exchanged.  From the row
    H_k[0, n] = c u^k w^n sqrt(binom(n + k, n)), the recurrence over the c
    out index,

        H_k[m, n] sqrt(m) = t sqrt(m + k) H_k[m - 1, n] + v sqrt(n) H_{k+1}[m - 1, n - 1],

    gives row m of every band from row m - 1 of it and of the next band:
    O(L^3) in all, vectorized over the bands.
    """
    c, A = kernel
    t, u, v, w = (A[..., i, j] for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)))
    t, w, c = (x[..., None, None] for x in (t, w, c))
    # axis 0: the sign of k
    u, v = np.stack([u, v])[..., None, None], np.stack([v, u])[..., None, None]
    k, i = np.arange(L)[:, None], np.arange(1, L)
    root_binom = np.ones((L, L))
    root_binom[:, 1:] = np.cumprod(np.sqrt((k + i) / i), axis=1)
    H = np.zeros(u.shape[:-2] + (L, L, L), dtype=complex)  # (sign, ..., k, m, n)
    H[..., 0, :] = c * u**k * w ** np.arange(L) * root_binom
    root = np.sqrt(np.arange(L))
    for m in range(1, L):
        bands = L - m  # band k holds row m only for m < L - k
        H[..., :bands, m, :] = t * root[m:, None] * H[..., :bands, m - 1, :]
        H[..., :bands, m, 1:] += v * root[1:] * H[..., 1 : bands + 1, m - 1, :-1]
        H[..., :bands, m, :] /= root[m]
    out = []
    for k in range(L):
        m = np.arange(L - k)
        for sign, numbers in ((0, (m + k, m)), (1, (m, m + k)))[: 2 if k else 1]:
            out.append((numbers, H[sign, ..., k, : L - k, : L - k]))
    return out
