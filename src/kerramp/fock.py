"""Truncated multimode Fock-space backbone.

Mode layouts, density matrices and the structured operators of a
composite Hilbert space built as the tensor product of per-mode truncated
Fock ladders.

Gates keep the structure the physics gives them.  Every squeezer here
conserves the Fock index of each mode it does not squeeze; a single-mode
squeezer also conserves the parity of its mode, and a two-mode squeezer the
difference of its two modes' indices.  A product of squeezers and diagonal
phases is therefore walked sector by sector: each parity or
index-difference ladder is a real tridiagonal generator, exponentiated by
its own small eigendecomposition, and each sector's block is kept at the
flat indices of its states (Block).  :func:`compress_product` keeps such a
product as its blocks (Compression); :func:`parity_blocks` hands out a
single-mode squeezer's two parity blocks, each its parity ladder's
exponential, for the lossy pass to conjugate a state by; a ladder's parity
eigenbases, like a layout's Fock index grid, are built once per process and
shared read-only.  A phase factor conjugates a state elementwise, as a
vector (:func:`evolve`, :func:`phase_vector`), and a diagonal right side is
checked as its vector, block by block (:func:`diagonal_residual`).  No
gate is built as a dense N x N matrix: that form, with the kron-embedded
ladder operators, lives in the tests (tests/oracles.py).

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
hand, not a confirming doubling.  A ladder that will not settle is
abandoned at its first column past SETTLE_TOL (1e-12); only the kept
ladder, or the cap's, is walked in full.  At the `kerramp verify` defaults
that stops on ladders 400 (single-mode identity, D=100), 320 (two-mode
circuit, D=40) and 112 (three-mode circuit, D=14).  The compression keeps
the kept ladder's sector blocks (Compression); its N x N matrix is built
only when read.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
        return math.prod(self.dims)

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
        grids = _fock_grid(self.dims)
        mask = np.ones(self.total_dim, dtype=bool)
        for m in modes:
            mask &= grids[m] <= bound
        return np.nonzero(mask)[0]


def make_layout(dims) -> ModeLayout:
    """Build a ModeLayout from a list of per-mode truncation dimensions."""
    return ModeLayout(tuple(int(d) for d in dims))


@functools.lru_cache(maxsize=8)
def _fock_grid(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per-mode Fock indices of the flat basis states of dims, read-only and
    built once per dims: the n that phase_vector hands a phase factor."""
    grid = np.unravel_index(np.arange(math.prod(dims)), dims)
    for n in grid:
        n.flags.writeable = False
    return grid


class Block(NamedTuple):
    """Part of an operator held at flat indices: values[i, s, j] is the
    element at row rows[i, s] and column cols[j, s].  rows and cols are
    (r, S) and (c, S) arrays; values is (r, S, c), or (r, 1, c) when one
    block serves every s.  In a sector walk s runs over the spectator (not
    squeezed) modes' Fock indices."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix over a ModeLayout with optional structure hints.

    kerramp builds none: it is the form of the tests' dense oracles
    (tests/oracles.py), and stays here, with expm, because bench/tracer.py
    patches Operator.__matmul__ and expm by name.
    """

    layout: ModeLayout
    matrix: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        n = self.layout.total_dim
        if self.matrix.shape != (n, n):
            raise OperatorError(
                f"matrix shape {self.matrix.shape} does not match layout dim {n}"
            )

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The matrix as one Block over every flat index."""
        flat = np.arange(self.layout.total_dim)[:, None]
        return (Block(flat, flat, self.matrix[:, None, :]),)

    @property
    def dag(self) -> np.ndarray:
        return self.matrix.conj().T

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.layout != self.layout:
            raise OperatorError("layout mismatch in operator product")
        return Operator(self.layout, self.matrix @ other.matrix, self.unitary and other.unitary)


@dataclass(frozen=True, eq=False)
class Compression:
    """Compression to a layout of an untruncated product (compress_product),
    kept as its sector blocks; the elements no block holds are zero.

    work_dim is the working ladder the blocks were composed on and leakage
    the weight the box columns put on its top tenth; both are None for a
    diagonal product, exact on the layout itself.  The N x N matrix is built
    (_place_blocks) when .matrix is first read, and then kept.
    """

    layout: ModeLayout
    blocks: tuple[Block, ...]
    work_dim: int | None = None
    leakage: float | None = None

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _place_blocks(self.layout, self.blocks)


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


def expm(generator: Operator) -> Operator:
    """exp(A) for anti-Hermitian A, via eigendecomposition of H = -iA.

    Returns the unitary exp(iH).  Raises if A deviates from anti-Hermiticity
    beyond tolerance.  A dense O(N^3) reference that kerramp never calls:
    the tests' oracle for the sector-built squeezers and the beam splitter,
    kept here because bench/tracer.py patches it by name.
    """
    A = generator.matrix
    dev = np.max(np.abs(A + A.conj().T))
    if dev > ANTIHERMITIAN_TOL:
        raise OperatorError(f"generator is not anti-Hermitian: deviation {dev:.2e}")
    H = (-1j * A + (-1j * A).conj().T) / 2
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(1j * w)) @ V.conj().T
    return Operator(generator.layout, U, unitary=True)


def evolve(rho: DensityMatrix, U, validate: bool = True) -> DensityMatrix:
    """Unitary conjugation U rho U† by a phase factor (PhaseFactor) as its
    phase vector u = exp(i phase(n)): u_i rho_ij conj(u_j).  The result is
    Hermitian up to round-off and is not re-symmetrized: apply_mode_loss and
    fidelity symmetrize what they read."""
    u = phase_vector(rho.layout, [U])
    out = u[:, None] * rho.matrix
    out *= u.conj()
    return DensityMatrix(rho.layout, out, validate=validate)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept modes (order preserved as given).

    No command calls it; it stays public as a layer to time on its own.
    """
    keep = list(keep)
    if len(keep) == 0:
        raise LayoutError("keep must be non-empty")
    for m in keep:
        rho.layout.check_mode(m)
    if len(set(keep)) != len(keep):
        raise LayoutError("duplicate modes in keep")
    dims = rho.layout.dims
    n = len(dims)
    traced = [m for m in range(n) if m not in keep]
    # rows (kept, traced), then columns (kept, traced): traced is summed out
    axes = keep + traced + [n + m for m in keep] + [n + m for m in traced]
    d, t = math.prod(dims[m] for m in keep), math.prod(dims[m] for m in traced)
    tensor = rho.matrix.reshape(dims + dims).transpose(axes).reshape(d, t, d, t)
    return DensityMatrix(
        make_layout([dims[m] for m in keep]), np.einsum("ijkj->ik", tensor)
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
    arrays (broadcastable against each other) to the phases.  Any factor but
    a PairSqueeze is a phase factor, circuits.Kerr and PhaseShift included."""

    phase: Callable


def phase_vector(layout: ModeLayout, factors) -> np.ndarray:
    """exp(i phase(n)) of a product of phase factors, over the flat basis;
    a factor's modes, where it names them, are checked against layout."""
    for f in factors:
        for mode in getattr(f, "modes", ()):
            layout.check_mode(mode)
    n = _fock_grid(layout.dims)
    phase = np.zeros(layout.total_dim)
    for f in factors:
        phase = phase + f.phase(n)
    return np.exp(1j * phase)


def diagonal_residual(
    U: Operator | Compression, u: np.ndarray, block: int | None = None
) -> float:
    """max |U - diag(u)| on the interior block, the flat indices whose Fock
    index is <= block on every mode but mode 0 (all of them when block is
    None); u is a diagonal right side kept as its vector (phase_vector).

    U is read block by block (U.blocks): a Compression's sector blocks, or
    a dense Operator as one block.  U is zero off its blocks, so a diagonal
    element no block holds counts as |u|.
    """
    layout = U.layout
    if block is None:
        inner = np.ones(layout.total_dim, dtype=bool)
    elif block < 0:
        raise ValueError(f"interior block bound must be >= 0, got block={block}")
    else:
        inner = np.zeros(layout.total_dim, dtype=bool)
        inner[layout.interior_indices(block, modes=range(1, layout.num_modes))] = True
    worst, held = 0.0, np.zeros(layout.total_dim, dtype=bool)
    for rows, cols, values in U.blocks:
        # only the rows and columns inside the interior for some s are read
        i, j = inner[rows].any(axis=1), inner[cols].any(axis=1)
        rows, cols = rows[i], cols[j]
        values = values[np.ix_(i, np.arange(values.shape[1]), j)]
        interior = inner[rows][:, :, None] & inner[cols].T[None]
        if not interior.any():
            continue
        on = rows[:, :, None] == cols.T[None]  # the diagonal elements
        diff = np.where(on, values - u[rows][:, :, None], values)
        worst = max(worst, float(np.max(np.abs(diff[interior]))))
        held[np.broadcast_to(rows[:, :, None], on.shape)[on & interior]] = True
    missed = inner & ~held
    if missed.any():
        worst = max(worst, float(np.max(np.abs(u[missed]))))
    return worst


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

    S has a zero diagonal, so it only couples even to odd ladder positions:
    the ladder is bipartite, and with the even positions first S is
    [[0, B], [B^T, 0]], B[i, j] = S[2i, 2j+1] lower bidiagonal.  With
    B = U diag(s) V^T its eigenpairs are +-s_j on (u_j, +-v_j) / sqrt(2),
    plus, on an odd ladder, the zero mode (u, 0) of B's extra left singular
    vector (Golub & Kahan 1965).  A half-size SVD thus replaces the
    tridiagonal eigensolver.
    """
    size = len(coupling) + 1
    even, half = (size + 1) // 2, size // 2  # even and odd positions
    B = np.zeros((even, half))
    B[np.arange(half), np.arange(half)] = -coupling[0::2]
    B[np.arange(1, even), np.arange(even - 1)] = -coupling[1::2]
    U, s, Vt = np.linalg.svd(B)
    u, v = U[:, :half] / math.sqrt(2.0), Vt.T / math.sqrt(2.0)
    Q = np.zeros((size, size))
    Q[0::2, :half], Q[1::2, :half] = u, v
    Q[0::2, half : 2 * half], Q[1::2, half : 2 * half] = u, -v
    Q[0::2, 2 * half :] = U[:, half:]  # the zero mode of an odd ladder
    w = np.concatenate([s, -s, np.zeros(size - 2 * half)])
    z = np.array([1, 1j, -1, -1j])[np.arange(size) % 4]
    return w, Q, z


def _ladder_exp(eig, theta: float, V) -> np.ndarray:
    """exp(theta T) V for the ladder whose eigenbasis is eig (_ladder_eig);
    the first axis of V runs along the ladder.

    An int V = k stands for the identity's first k columns over one
    spectator slot, eye(size, k)[:, None]: Q^T Z* V is then the first k
    columns of Q^T scaled by conj(z), read off with no product.
    """
    w, Q, z = eig
    size = len(w)
    if isinstance(V, int):
        X = np.ascontiguousarray(Q.T[:, :V] * z[:V].conj())[:, None]
    else:
        # real Q acts on the real and imaginary parts at once
        X = np.ascontiguousarray(z.conj().reshape((size,) + (1,) * (V.ndim - 1)) * V)
        X = (Q.T @ X.view(float).reshape(size, -1)).view(complex).reshape(V.shape)
    column = (size,) + (1,) * (X.ndim - 1)
    X *= np.exp(1j * theta * w).reshape(column)
    X = (Q @ X.view(float).reshape(size, -1)).view(complex).reshape(X.shape)
    return z.reshape(column) * X


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


def _place_blocks(layout: ModeLayout, blocks) -> np.ndarray:
    """Full matrix holding each Block at its rows and columns, zero
    elsewhere."""
    U = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for rows, cols, values in blocks:
        U[rows[:, :, None], cols.T[None, :, :]] = values
    return U


def _sector_blocks(
    layout: ModeLayout, factors, modes, spectators: dict, work, stop: float = math.inf
):
    """Blocks of the factor product on the working ladders `work` (one
    length per squeezed mode), and their leakage.

    Returns (walked, leakage), walked holding per sector its Block: the
    flat indices of the sector's states inside the layout's box, for every
    spectator (unsqueezed) modes' Fock index, and its (inside, S, inside)
    values, with S = 1 while no phase factor has told the spectator values
    apart; only the sector's columns inside the box are propagated.  Each
    ladder's eigenbasis serves every squeezer and spectator value of its
    sectors, and only the current ladder's is kept.  The leakage is the
    largest 2-norm a propagated column puts on the ladder's top tenth (a
    Fock index of at least TAIL_FRACTION * work on a squeezed mode, a
    contiguous tail of the sector ladder) at the end of any squeezer.  Along
    one squeezer a column's mean photon number is a cosh-sinh combination of
    the squeeze parameter, so its spread peaks at a stage boundary; a later
    squeezer may pull it back, hence the maximum over stages.

    The walk stops, incomplete, as soon as the leakage reaches `stop`, so
    a ladder that will not settle is abandoned at its first column past it;
    with no `stop` (the default) it is walked in full.
    """
    n_spec = math.prod(layout.dims[j] for j in spectators)
    box = tuple(layout.dims[m] for m in modes)
    edge = [tail_index(w) for w in work]
    walked, worst, eigs = [], 0.0, {}
    for key, inside, numbers, coupling in _sectors(box, work):
        size = len(numbers[0])
        # first state past the edge on any squeezed mode; the top one at least
        tail = min(size - 1, *(int(np.searchsorted(nj, e)) for nj, e in zip(numbers, edge)))
        n = _numbers(layout.num_modes, modes, numbers, spectators)
        V = inside  # the box's identity columns (an int V, see _ladder_exp)
        for f in factors:
            if not isinstance(f, PairSqueeze):
                if isinstance(V, int):
                    V = np.eye(size, inside, dtype=complex)[:, None]
                phase = np.broadcast_to(f.phase(n), (size, n_spec))
                V = V * np.exp(1j * phase)[:, :, None]
                continue
            if key not in eigs:
                eigs.clear()  # the previous ladder's eigenbasis goes first
                eigs[key] = _ladder_eig(coupling)
            V = _ladder_exp(eigs[key], f.theta, V)
            worst = max(worst, float(np.linalg.norm(V[tail:], axis=0).max()))
            if worst >= stop:
                return walked, worst
        states = np.broadcast_arrays(*(nj[:inside] for nj in n))
        flat = np.ravel_multi_index(states, layout.dims)
        walked.append(Block(flat, flat, V[:inside].copy()))
    return walked, worst


def _squeezed_modes(layout: ModeLayout, factors):
    """The modes every PairSqueeze in factors acts on, sorted and checked
    against layout; None when no factor squeezes."""
    squeezed = {tuple(sorted(f.modes)) for f in factors if isinstance(f, PairSqueeze)}
    if len(squeezed) > 1:
        raise OperatorError(f"squeezers act on different modes {sorted(squeezed)}")
    if not squeezed:
        return None
    (modes,) = squeezed
    for m in modes:
        layout.check_mode(m)
    if len(modes) not in (1, 2) or len(set(modes)) != len(modes):
        raise LayoutError(f"a squeezer needs one mode or two distinct modes, got {modes}")
    return modes


@functools.lru_cache(maxsize=4)
def _parity_eigs(dim: int) -> tuple:
    """Eigenbases (_ladder_eig) of a dim-level mode's even and odd parity
    ladders, read-only and built once per ladder."""
    eigs = tuple(_ladder_eig(coupling) for _, _, _, coupling in _sectors((dim,), (dim,)))
    for eig in eigs:
        for a in eig:
            a.flags.writeable = False
    return eigs


def parity_blocks(layout: ModeLayout, squeezers) -> dict:
    """The blocks of single-mode squeezers truncated to layout, all on one
    mode: per distinct squeezer, its blocks on the even and on the odd Fock
    indices of that mode (the same for every spectator Fock index).

    Each block is its parity ladder's exponential, read off the ladder's
    eigenbasis with no product against an identity (_ladder_exp's int
    path).  The two eigenbases are built once per ladder (_parity_eigs) and
    serve every squeezer and every later call on that ladder.
    """
    modes = _squeezed_modes(layout, squeezers)
    if modes is None or len(modes) != 1:
        raise OperatorError("parity blocks need single-mode squeezers")
    eigs = _parity_eigs(layout.dims[modes[0]])
    return {
        s: tuple(_ladder_exp(eig, s.theta, len(eig[0]))[:, 0] for eig in eigs)
        for s in dict.fromkeys(squeezers)
    }


def compress_product(layout: ModeLayout, factors) -> Compression:
    """Compression to layout of the untruncated product of factors, kept as
    its sector blocks.

    factors[0] is applied first.  Every PairSqueeze must act on the same
    modes, of equal dimension D.  The product is walked sector by
    sector (_sector_blocks) on a working ladder of D, 2D, 4D, ... levels per
    squeezed mode (at most MAX_WORK_FACTOR * D, at least 2D) until the box
    columns' leakage onto the ladder's top tenth (_sector_blocks) falls
    below SETTLE_TOL; the returned Compression holds that ladder's blocks,
    its work_dim is the ladder and its leakage the certified figure.  A
    ladder below the cap that will not settle is abandoned at its first
    column past SETTLE_TOL, so only the kept ladder is walked in full.
    Raises TruncationError, naming the last ladder and its leakage, when the
    cap is reached first; the cap ladder is walked in full, so that leakage
    is the whole figure.  With no squeezer the product is its phase vector,
    held as one Block of 1 x 1 blocks, exact on any ladder.
    """
    modes = _squeezed_modes(layout, factors)
    if modes is None:
        flat = np.arange(layout.total_dim)[None, :]
        u = phase_vector(layout, factors)[None, :, None]
        return Compression(layout, (Block(flat, flat, u),))
    if len({layout.dims[m] for m in modes}) != 1:
        raise LayoutError(f"squeezed modes {modes} need equal dimensions")
    dim = layout.dims[modes[0]]
    spectators = _spectators(layout, modes)

    def evaluate(work):
        # below the cap a ladder is kept only if it settles, so its walk may
        # stop at SETTLE_TOL; the cap's leakage goes into the error in full
        stop = SETTLE_TOL if 2 * work <= MAX_WORK_FACTOR * dim else math.inf
        return _sector_blocks(layout, factors, modes, spectators, (work,) * len(modes), stop)

    settled = double_until_settled(
        evaluate,
        start_dim=dim,
        max_dim=MAX_WORK_FACTOR * dim,
        tol=SETTLE_TOL,
        distance=lambda new, old: new[1],
    )
    walked, leakage = settled.value
    if not settled.converged:
        raise TruncationError(
            f"compression did not settle by working ladder {settled.dim}: "
            f"leakage {leakage:.2e} >= tol {SETTLE_TOL:.0e}"
        )
    return Compression(layout, tuple(walked), settled.dim, leakage)
