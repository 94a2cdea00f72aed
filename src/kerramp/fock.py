"""Truncated multimode Fock-space backbone.

Dense operators and density matrices over a composite Hilbert space built
as the tensor product of per-mode truncated Fock ladders.

Gates keep the structure the physics gives them.  Every squeezer here
conserves the Fock index of each mode it does not squeeze; a single-mode
squeezer also conserves the parity of its mode, and a two-mode squeezer the
difference of its two modes' indices.  :func:`pair_squeezer` therefore
builds a truncated squeezer sector by sector: each parity or index-difference
ladder is a real tridiagonal generator, exponentiated by its own small
eigendecomposition and placed in the full matrix by index arithmetic.
Operators flagged diagonal are multiplied and conjugated elementwise.
:func:`expm`, the dense eigendecomposition on the full space, stays as the
oracle for these builders and for the beam splitter.

Truncation caveat: on a D-level ladder [b, b†] = 1 holds only away from the
top level, so identity and unitarity checks for squeezing-like operators are
restricted to an interior block (all mode indices below a chosen bound).
Number-conserving operators are exact on the full truncated space.

Products of squeezers are the exception: composed gate by gate on the
D-level ladder, intermediate states leak past the top level and the
product's interior block no longer holds the untruncated operator's
elements.  :func:`compress_product` composes such products on a working
ladder that doubles from D, with the same sector ladders, until the
propagated box columns put less than SETTLE_TOL on the top tenth of the
ladder after every squeezer: a leakage certificate read off the ladder in
hand, not a confirming doubling.  At the `kerramp verify` defaults that
stops on ladders 400 (single-mode identity, D=100), 320 (two-mode circuit,
D=40) and 112 (three-mode circuit, D=14).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-8
ANTIHERMITIAN_TOL = 1e-10


class LayoutError(ValueError):
    """Invalid mode layout or mode index."""


class StateError(ValueError):
    """Matrix does not qualify as a density matrix."""


class OperatorError(ValueError):
    """Operator precondition violated (shape, layout, unitary flag, generator)."""


class TruncationError(ValueError):
    """A truncation-doubling loop reached its cap before its result settled."""


@dataclass(frozen=True)
class ModeLayout:
    """Ordered per-mode truncation dimensions of a composite Hilbert space.

    Mode 0 is the qubit mode by convention; the flat index is row-major
    over the multi-index (n_0, n_1, ...).
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise LayoutError("layout needs at least one mode")
        if any(d < 2 for d in self.dims):
            raise LayoutError(f"every mode dimension must be >= 2, got {self.dims}")

    @property
    def num_modes(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.num_modes:
            raise LayoutError(f"mode {mode} out of range for {self.num_modes} modes")

    def flat_index(self, multi) -> int:
        """Row-major flat index of a multi-index (n_0, n_1, ...)."""
        return int(np.ravel_multi_index(tuple(multi), self.dims))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_index`."""
        return tuple(int(i) for i in np.unravel_index(flat, self.dims))

    def basis_vector(self, multi) -> np.ndarray:
        """Unit vector for the Fock basis state |n_0, n_1, ...>."""
        v = np.zeros(self.total_dim, dtype=complex)
        v[self.flat_index(multi)] = 1.0
        return v

    def interior_indices(self, bound: int, modes=None) -> np.ndarray:
        """Flat indices whose Fock index on every selected mode is <= bound.

        Modes not selected (default: all modes) are unrestricted.  Used to
        carve out the interior block where truncation artifacts are
        negligible.
        """
        if modes is None:
            modes = range(self.num_modes)
        modes = set(modes)
        grids = np.unravel_index(np.arange(self.total_dim), self.dims)
        mask = np.ones(self.total_dim, dtype=bool)
        for m in modes:
            mask &= grids[m] <= bound
        return np.nonzero(mask)[0]


def make_layout(dims) -> ModeLayout:
    """Build a ModeLayout from a list of per-mode truncation dimensions."""
    return ModeLayout(tuple(int(d) for d in dims))


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix over a ModeLayout with optional structure hints.

    work_dim is the working ladder the matrix elements were composed on
    before compression to the layout, and leakage the weight the box
    columns put on its top tenth (see :func:`compress_product`); both are
    None when the elements were computed on the layout itself.
    """

    layout: ModeLayout
    matrix: np.ndarray
    unitary: bool = False
    diagonal: bool = False
    work_dim: int | None = None
    leakage: float | None = None

    def __post_init__(self):
        n = self.layout.total_dim
        if self.matrix.shape != (n, n):
            raise OperatorError(
                f"matrix shape {self.matrix.shape} does not match layout dim {n}"
            )

    @property
    def dag(self) -> np.ndarray:
        return self.matrix.conj().T

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.layout != self.layout:
            raise OperatorError("layout mismatch in operator product")
        if self.diagonal:  # scale the rows of other
            product = np.diagonal(self.matrix)[:, None] * other.matrix
        elif other.diagonal:  # scale the columns of self
            product = self.matrix * np.diagonal(other.matrix)
        else:
            product = self.matrix @ other.matrix
        return Operator(
            self.layout,
            product,
            unitary=self.unitary and other.unitary,
            diagonal=self.diagonal and other.diagonal,
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace state over a ModeLayout."""

    layout: ModeLayout
    matrix: np.ndarray
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        n = self.layout.total_dim
        if self.matrix.shape != (n, n):
            raise StateError(
                f"matrix shape {self.matrix.shape} does not match layout dim {n}"
            )
        if self.validate:
            herm_dev = np.max(np.abs(self.matrix - self.matrix.conj().T))
            if herm_dev > 1e-10:
                raise StateError(f"not Hermitian: deviation {herm_dev:.2e}")
            tr = np.trace(self.matrix)
            if abs(tr - 1.0) > TRACE_TOL:
                raise StateError(f"trace {tr} is not 1")
            min_eig = np.linalg.eigvalsh(self.matrix)[0]
            if min_eig < -EIGENVALUE_TOL:
                raise StateError(f"negative eigenvalue {min_eig:.2e}")

    @classmethod
    def from_state_vector(cls, layout: ModeLayout, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(layout, np.outer(psi, psi.conj()))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def identity(layout: ModeLayout) -> Operator:
    return Operator(
        layout,
        np.eye(layout.total_dim, dtype=complex),
        unitary=True,
        diagonal=True,
    )


def embed(layout: ModeLayout, mode: int, single_mode_matrix: np.ndarray) -> np.ndarray:
    """Tensor a single-mode matrix with identities on all other modes.

    Dense kron embedding on the full space; it serves the oracles
    (loss.beam_splitter and the tests), not the structured gates.
    """
    layout.check_mode(mode)
    d = layout.dims[mode]
    if single_mode_matrix.shape != (d, d):
        raise OperatorError(
            f"single-mode matrix shape {single_mode_matrix.shape} "
            f"does not match mode dimension {d}"
        )
    result = np.eye(1, dtype=complex)
    for m, dim in enumerate(layout.dims):
        factor = single_mode_matrix if m == mode else np.eye(dim)
        result = np.kron(result, factor)
    return result


def lowering_matrix(dim: int) -> np.ndarray:
    """Single-mode annihilation matrix: sqrt(n) on the subdiagonal.

    Serves the oracles (loss.beam_splitter and the tests).
    """
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def annihilation(layout: ModeLayout, mode: int) -> Operator:
    """Annihilation operator of the given mode, embedded in the full space.

    Serves the oracles (loss.beam_splitter and the tests).
    """
    layout.check_mode(mode)
    return Operator(layout, embed(layout, mode, lowering_matrix(layout.dims[mode])))


def number_op(layout: ModeLayout, mode: int) -> Operator:
    """Photon-number operator of the given mode.

    Serves the oracles (the tests).
    """
    layout.check_mode(mode)
    n = np.diag(np.arange(layout.dims[mode], dtype=complex))
    return Operator(layout, embed(layout, mode, n), diagonal=True)


def number_diagonal(layout: ModeLayout, mode: int) -> np.ndarray:
    """Fock index of the given mode along the flat basis, as a real vector."""
    layout.check_mode(mode)
    grids = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    return grids[mode].astype(float)


def expm(generator: Operator) -> Operator:
    """exp(A) for anti-Hermitian A, via eigendecomposition of H = -iA.

    Returns the unitary exp(iH).  Raises if A deviates from anti-Hermiticity
    beyond tolerance.  A dense O(N^3) reference: the gates are built from
    their sectors (see pair_squeezer), and this serves as their oracle and
    as the beam splitter's.
    """
    A = generator.matrix
    dev = np.max(np.abs(A + A.conj().T))
    if dev > ANTIHERMITIAN_TOL:
        raise OperatorError(f"generator is not anti-Hermitian: deviation {dev:.2e}")
    H = (-1j * A + (-1j * A).conj().T) / 2
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(1j * w)) @ V.conj().T
    return Operator(generator.layout, U, unitary=True, diagonal=generator.diagonal)


def diagonal_unitary(layout: ModeLayout, phases: np.ndarray) -> Operator:
    """Diagonal unitary exp(i * phases) from a real phase vector."""
    return Operator(
        layout,
        np.diag(np.exp(1j * np.asarray(phases, dtype=float))),
        unitary=True,
        diagonal=True,
    )


def evolve(rho: DensityMatrix, U: Operator, validate: bool = True) -> DensityMatrix:
    """Unitary conjugation U rho U†, re-symmetrized; elementwise,
    u_i rho_ij conj(u_j), when U is flagged diagonal."""
    if U.layout != rho.layout:
        raise OperatorError("layout mismatch between state and unitary")
    if not U.unitary:
        raise OperatorError("operator is not flagged unitary")
    if U.diagonal:
        u = np.diagonal(U.matrix)
        out = u[:, None] * rho.matrix * u.conj()
    else:
        out = U.matrix @ rho.matrix @ U.dag
    out = (out + out.conj().T) / 2
    return DensityMatrix(rho.layout, out, validate=validate)


def partial_trace(rho: DensityMatrix, keep, validate: bool = True) -> DensityMatrix:
    """Reduced state over the kept modes (order preserved as given)."""
    keep = list(keep)
    if len(keep) == 0:
        raise LayoutError("keep must be non-empty")
    for m in keep:
        rho.layout.check_mode(m)
    if len(set(keep)) != len(keep):
        raise LayoutError("duplicate modes in keep")
    dims = rho.layout.dims
    n_modes = len(dims)
    tensor = rho.matrix.reshape(dims + dims)
    # einsum subscripts: traced modes share the same label on row and column
    # sides; kept modes keep distinct labels, output ordered as requested
    row = [0] * n_modes
    col = [0] * n_modes
    next_label = 0
    for m in range(n_modes):
        if m in keep:
            row[m] = next_label
            col[m] = next_label + 1
            next_label += 2
        else:
            row[m] = col[m] = next_label
            next_label += 1
    out_labels = [row[m] for m in keep] + [col[m] for m in keep]
    reduced_t = np.einsum(tensor, row + col, out_labels)
    new_dims = tuple(dims[m] for m in keep)
    d = int(np.prod(new_dims))
    return DensityMatrix(
        make_layout(new_dims), reduced_t.reshape(d, d), validate=validate
    )


def _psd_root(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root from an eigendecomposition (w ascending).

    Eigenvalues in [-EIGENVALUE_TOL, 0) are clipped to 0; anything more
    negative indicates a logic bug rather than round-off and raises.
    """
    if w[0] < -EIGENVALUE_TOL:
        raise StateError(f"matrix is not PSD: eigenvalue {w[0]:.2e}")
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return (root + root.conj().T) / 2


def sqrtm_psd(rho: DensityMatrix) -> Operator:
    """Hermitian PSD square root via eigendecomposition (see _psd_root)."""
    H = (rho.matrix + rho.matrix.conj().T) / 2
    return Operator(rho.layout, _psd_root(*np.linalg.eigh(H)))


def fidelity(rho_ideal: DensityMatrix, rho_out: DensityMatrix) -> float:
    """Uhlmann-Jozsa fidelity [Tr sqrt(sqrt(r1) r2 sqrt(r1))]^2 in [0, 1].

    Both states are restricted to the support of rho_ideal, the basis states
    whose rows of rho_ideal hold a nonzero entry.  That is exact: with P the
    projector onto them, r1 = P r1 P and so sqrt(r1) = P sqrt(r1) P.  Uses
    the pure-state shortcut <psi|rho_out|psi> when rho_ideal has numerical
    rank 1, as it always has on a support of one state.
    """
    if rho_ideal.layout != rho_out.layout:
        raise OperatorError("layout mismatch between states")
    rows = np.flatnonzero(np.any(rho_ideal.matrix, axis=1))
    support = np.ix_(rows, rows)
    r1, r2 = rho_ideal.matrix[support], rho_out.matrix[support]
    w, V = np.linalg.eigh((r1 + r1.conj().T) / 2)
    if len(w) == 1 or w[-2] < 1e-12:  # numerically pure
        psi = V[:, -1]
        f = np.real(psi.conj() @ r2 @ psi)
    else:
        root = _psd_root(w, V)
        inner = root @ r2 @ root
        ev = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
        # round-off in near-zero eigenvalues is amplified by the square
        # root; suppress anything below the spectral noise floor
        ev[ev < max(ev[-1], 0.0) * 1e-14] = 0.0
        f = np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2
    return float(min(max(f, 0.0), 1.0))


# --- truncation-doubling convergence and sector-by-sector composition ---

SETTLE_TOL = 1e-12
MAX_WORK_FACTOR = 32
TAIL_FRACTION = 0.9  # a ladder's top tenth starts at Fock index 0.9 * work


@dataclass(frozen=True)
class Settled:
    """Outcome of a truncation-doubling loop.

    value is the result on ladder dim and previous the one on dim / 2 (None
    when only one ladder was evaluated); change is the stopping figure of
    value (inf when only one ladder was evaluated); converged says whether
    it fell below the loop's tolerance.
    """

    value: object
    dim: int
    change: float
    converged: bool
    previous: object = None


def double_until_settled(
    evaluate: Callable, start_dim: int, max_dim: int, tol: float, distance: Callable
) -> Settled:
    """Evaluate on ladders start_dim, 2 start_dim, ... (at most max_dim) until
    the stopping figure distance(newer, older) of the newer result falls
    below tol; at least two ladders are evaluated.  Returns the last result,
    unconverged when the next doubling would pass max_dim."""
    if start_dim > max_dim:
        raise TruncationError(f"start ladder {start_dim} exceeds the cap {max_dim}")
    dim, prev = start_dim, None
    while True:
        value = evaluate(dim)
        change = math.inf if prev is None else distance(value, prev)
        if change < tol or 2 * dim > max_dim:
            return Settled(value, dim, change, change < tol, prev)
        prev, dim = value, 2 * dim


def tail_index(work: int) -> int:
    """Lowest Fock index of the top tenth of a work-level ladder,
    ceil(TAIL_FRACTION * work), at most work - 1: the top level always counts."""
    return min(math.ceil(TAIL_FRACTION * work), work - 1)


@dataclass(frozen=True)
class PairSqueeze:
    """Squeezer exp(-theta (A - A†)) with A = b b / 2 on one mode or A = b c
    on two modes."""

    modes: tuple[int, ...]
    theta: float


@dataclass(frozen=True)
class PhaseFactor:
    """Diagonal factor exp(i phase(n)); phase maps the per-mode Fock-index
    arrays (broadcastable against each other) to the phases."""

    phase: Callable


def _check_squeezed(layout: ModeLayout, modes: tuple) -> None:
    for m in modes:
        layout.check_mode(m)
    if len(modes) not in (1, 2) or len(set(modes)) != len(modes):
        raise LayoutError(f"a squeezer needs one mode or two distinct modes, got {modes}")


def _sectors(box, work):
    """Ladders of the squeezer on modes with dimensions `box`, each ladder
    running up to Fock index work[j] - 1 on squeezed mode j.

    Yields (key, inside, numbers, coupling) per sector that meets the box:
    numbers holds the Fock indices of each squeezed mode along the ladder,
    whose first `inside` states lie in the box; coupling[m] is <m|A|m+1>.
    Sectors with equal key have equal couplings and come in a row.
    """
    if len(box) == 1:  # parity p of n_b
        for p in (0, 1):
            n = p + 2 * np.arange((work[0] - p + 1) // 2)
            coupling = 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
            yield p, (box[0] - p + 1) // 2, (n,), coupling
        return
    for a in range(max(box)):  # n_b - n_c = k, |k| = a
        for off in ((a, 0), (0, a)) if a else ((0, 0),):
            inside = min(box[0] - off[0], box[1] - off[1])
            if inside <= 0:
                continue
            m = np.arange(min(work[0] - off[0], work[1] - off[1]))
            coupling = np.sqrt((m[:-1] + a + 1.0) * (m[:-1] + 1.0))
            yield (a, len(m)), inside, (m + off[0], m + off[1]), coupling


def _ladder_eig(coupling: np.ndarray):
    """Eigenbasis (w, Q, z) of the ladder generator T, real antisymmetric
    tridiagonal with T[m, m+1] = -coupling[m].

    T equals Z (i S) Z* with Z = diag(z), z[m] = i^m, and S = Q diag(w) Q^T
    real symmetric tridiagonal, S[m, m+1] = -coupling[m]; so
    exp(theta T) = Z Q e^{i theta w} Q^T Z*.
    """
    size = len(coupling) + 1
    w, Q = scipy.linalg.eigh_tridiagonal(np.zeros(size), -coupling)
    z = np.array([1, 1j, -1, -1j])[np.arange(size) % 4]
    return w, Q, z


def _ladder_exp(eig, theta: float, V: np.ndarray) -> np.ndarray:
    """exp(theta T) V for the ladder whose eigenbasis is eig (_ladder_eig);
    the first axis of V runs along the ladder."""
    w, Q, z = eig
    size = len(w)
    z = z.reshape((size,) + (1,) * (V.ndim - 1))
    # real Q acts on the real and imaginary parts at once
    X = np.ascontiguousarray(z.conj() * V).view(float).reshape(size, -1)
    X = (Q.T @ X).view(complex).reshape(V.shape)
    X *= np.exp(1j * theta * w).reshape(z.shape)
    return z * (Q @ X.view(float).reshape(size, -1)).view(complex).reshape(V.shape)


def _spectators(layout: ModeLayout, modes) -> dict:
    """Fock indices of the modes not in `modes`, flattened over their grid."""
    others = [j for j in range(layout.num_modes) if j not in modes]
    grids = np.meshgrid(*[np.arange(layout.dims[j]) for j in others], indexing="ij")
    return {j: g.ravel() for j, g in zip(others, grids)}


def _numbers(num_modes: int, modes, numbers, spectators: dict) -> list:
    """Per-mode Fock indices of a sector's states: (ladder, 1) arrays on the
    squeezed modes, (1, S) arrays on the spectator modes."""
    n = [None] * num_modes
    for j, numbers_j in zip(modes, numbers):
        n[j] = numbers_j[:, None]
    for j, grid in spectators.items():
        n[j] = grid[None, :]
    return n


def _place_blocks(layout: ModeLayout, modes, spectators: dict, sectors, blocks):
    """Full matrix holding each sector's (inside, S, inside) block at the
    sector's states inside the layout; S = 1 broadcasts one block over every
    spectator value."""
    U = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for (_, inside, numbers, _), block in zip(sectors, blocks):
        n = _numbers(layout.num_modes, modes, [nj[:inside] for nj in numbers], spectators)
        idx = np.ravel_multi_index(np.broadcast_arrays(*n), layout.dims)
        U[idx[:, :, None], idx.T[None, :, :]] = block
    return U


def pair_squeezer(layout: ModeLayout, modes, theta: float) -> Operator:
    """Squeezer exp(-theta (A - A†)) truncated to layout, with A = b b / 2
    on one mode or A = b c on two modes (of any dimensions).

    Built sector by sector: each parity ladder of the squeezed mode, or each
    n_b - n_c ladder of the two, is exponentiated on its own (_ladder_exp)
    and its block is placed at its states for every spectator Fock index.
    """
    modes = tuple(modes)
    _check_squeezed(layout, modes)
    box = tuple(layout.dims[m] for m in modes)
    sectors = list(_sectors(box, box))
    blocks = [
        _ladder_exp(_ladder_eig(coupling), theta, np.eye(inside, dtype=complex))[:, None]
        for _, inside, _, coupling in sectors
    ]
    U = _place_blocks(layout, modes, _spectators(layout, modes), sectors, blocks)
    return Operator(layout, U, unitary=True)


def _sector_blocks(layout: ModeLayout, factors, modes, spectators: dict, work: int):
    """Compressed blocks of the factor product on working ladder `work`,
    and their leakage.

    One (inside, S, inside) array per sector, S running over the spectator
    (unsqueezed) modes' Fock indices; only the sector's columns inside the
    D-box are propagated.  Each ladder's eigenbasis serves every squeezer
    and spectator value of its sectors.  The leakage is the largest 2-norm
    a propagated column puts on the ladder's top tenth (a Fock index of at
    least TAIL_FRACTION * work on a squeezed mode, a contiguous tail of the
    sector ladder) at the end of any squeezer.  Along one squeezer a
    column's mean photon number is a cosh-sinh combination of the squeeze
    parameter, so its spread peaks at a stage boundary; a later squeezer
    may pull it back, hence the maximum over stages.
    """
    n_spec = int(np.prod([layout.dims[j] for j in spectators]))
    box = tuple(layout.dims[m] for m in modes)
    edge = tail_index(work)
    eig_key, blocks, leakage = None, [], 0.0
    for key, inside, numbers, coupling in _sectors(box, (work,) * len(modes)):
        size = len(numbers[0])
        # first state past the edge on any squeezed mode; the top one at least
        tail = min(int(np.searchsorted(np.max(numbers, axis=0), edge)), size - 1)
        n = _numbers(layout.num_modes, modes, numbers, spectators)
        V = np.zeros((size, n_spec, inside), dtype=complex)
        V[np.arange(inside), :, np.arange(inside)] = 1.0
        for f in factors:
            if isinstance(f, PhaseFactor):
                phase = np.broadcast_to(f.phase(n), (size, n_spec))
                V *= np.exp(1j * phase)[:, :, None]
                continue
            if key != eig_key:
                eig, eig_key = _ladder_eig(coupling), key
            V = _ladder_exp(eig, f.theta, V)
            leakage = max(leakage, float(np.linalg.norm(V[tail:], axis=0).max()))
        blocks.append(V[:inside])
    return blocks, leakage


def compress_product(layout: ModeLayout, factors) -> Operator:
    """Compression to layout of the untruncated product of factors.

    factors[0] is applied first.  Every PairSqueeze must act on the same
    modes, of equal dimension D.  The product is composed on a working
    ladder of D, 2D, 4D, ... levels per squeezed mode (at most
    MAX_WORK_FACTOR * D, at least 2D) until the box columns' leakage onto
    the ladder's top tenth (_sector_blocks) falls below SETTLE_TOL; the
    returned Operator's work_dim is that ladder and its leakage the
    certified figure.  Raises TruncationError, naming the last ladder and
    its leakage, when the cap is reached first.  A compression of a unitary
    is in general not unitary, so the result carries no unitary flag.
    """
    squeezed = {tuple(sorted(f.modes)) for f in factors if isinstance(f, PairSqueeze)}
    if len(squeezed) > 1:
        raise OperatorError(f"squeezers act on different modes {sorted(squeezed)}")
    if not squeezed:  # diagonal factors are exact on any ladder
        n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
        phase = np.zeros(layout.total_dim)
        for f in factors:
            phase = phase + f.phase(n)
        return diagonal_unitary(layout, phase)
    (modes,) = squeezed
    _check_squeezed(layout, modes)
    if len({layout.dims[m] for m in modes}) != 1:
        raise LayoutError(f"squeezed modes {modes} need equal dimensions")
    dim = layout.dims[modes[0]]
    spectators = _spectators(layout, modes)
    settled = double_until_settled(
        lambda work: _sector_blocks(layout, factors, modes, spectators, work),
        start_dim=dim,
        max_dim=MAX_WORK_FACTOR * dim,
        tol=SETTLE_TOL,
        distance=lambda new, old: new[1],
    )
    blocks, leakage = settled.value
    if not settled.converged:
        raise TruncationError(
            f"compression did not settle by working ladder {settled.dim}: "
            f"leakage {leakage:.2e} >= tol {SETTLE_TOL:.0e}"
        )
    box = (dim,) * len(modes)
    U = _place_blocks(layout, modes, spectators, _sectors(box, box), blocks)
    return Operator(layout, U, work_dim=settled.dim, leakage=leakage)
