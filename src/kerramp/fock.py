"""Truncated multimode Fock-space backbone.

Mode layouts, density matrices and the structured operators of a
composite Hilbert space built as the tensor product of per-mode truncated
Fock ladders.  Every squeezer here conserves the Fock index of each mode
it does not squeeze (a spectator), and no gate is built as a dense N x N
matrix: that form lives in the tests (tests/oracles.py), with the
helpers only tests read (a state vector's density matrix, a flat index's
multi-index).

:func:`compress_product` gives a product of squeezers and phases as its
compression to a layout, the untruncated operator's elements on the
layout's states: exact, from the product's Gaussian kernel at each
spectator index (kerramp.gaussian), and kept as its blocks (Compression).
A check that reads an interior block compresses only its box
(ModeLayout.interior_box).  :func:`parity_blocks` gives a single-mode
squeezer truncated to a D-level ladder, for the lossy pass: each parity
ladder's generator is real antisymmetric tridiagonal, so its exponential
is a real rotation (_parity_exp) formed from the SVD of its half-size
even-odd block (_ladder_eig), built once per ladder: the only matrix
exponential a kerramp command computes.  A phase factor acts elementwise,
as a vector (:func:`evolve`, :func:`phase_vector`), and a diagonal right
side is checked as its vector, block by block (:func:`diagonal_residual`).

Truncation caveat: on a D-level ladder [b, b†] = 1 holds only away from the
top level, so a product of truncated squeezers differs from the
compression near the top; identity and unitarity checks of such products
are restricted to an interior block (all mode indices below a bound).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gaussian

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
    """A ladder past its bound: a truncation-doubling run's start ladder
    above its cap (doublings), or a lost mode's ladder above the loss
    channel's (kerramp.loss)."""


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

    def basis_vector(self, multi) -> np.ndarray:
        """Unit vector for the Fock basis state |n_0, n_1, ...>."""
        v = np.zeros(self.total_dim, dtype=complex)
        v[self.flat_index(multi)] = 1.0
        return v

    def interior_indices(self, bound: int) -> np.ndarray:
        """Flat indices whose Fock index is <= bound on every mode but the
        qubit mode 0, which is unrestricted: the interior block where
        truncation artifacts are negligible."""
        grids = _fock_grid(self.dims)
        mask = np.ones(self.total_dim, dtype=bool)
        for n in grids[1:]:
            mask &= n <= bound
        return np.nonzero(mask)[0]

    def interior_box(self, bound: int) -> "ModeLayout":
        """The layout cut to its interior block: every mode but the qubit
        mode 0 keeps min(D, max(bound + 1, 2)) levels.  The box's states are
        the interior block's, with the same multi-indices."""
        if bound < 0:
            raise ValueError(f"interior block bound must be >= 0, got block={bound}")
        cut = max(bound + 1, 2)  # a ModeLayout mode has at least two levels
        return ModeLayout(self.dims[:1] + tuple(min(d, cut) for d in self.dims[1:]))


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
    """Principal block of an operator: values[i, j] is the element at row
    index[i] and column index[j].  A compression holds one block per
    conserved band and spectator (not squeezed) modes' Fock index, and the
    blocks of one operator partition its flat indices."""

    index: np.ndarray
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
        return (Block(np.arange(self.layout.total_dim), self.matrix),)

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
    kept as its blocks; the elements no block holds are zero.  The N x N
    matrix is built (_place_blocks) when .matrix is first read, and then
    kept.
    """

    layout: ModeLayout
    blocks: tuple[Block, ...]

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

    def purity(self) -> float:
        """tr(rho^2), as sum |rho_ij|^2 for a Hermitian rho: O(N^2)."""
        return float(np.vdot(self.matrix, self.matrix).real)


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


def evolve(rho: DensityMatrix, U) -> DensityMatrix:
    """Unitary conjugation U rho U† by a phase factor (PhaseFactor) as its
    phase vector u = exp(i phase(n)): u_i rho_ij conj(u_j).  A phase
    conjugation keeps the trace and the spectrum, so the result is not
    checked again as a state.  It is Hermitian up to round-off and is not
    re-symmetrized: apply_mode_loss and fidelity symmetrize what they read."""
    u = phase_vector(rho.layout, [U])
    out = u[:, None] * rho.matrix
    out *= u.conj()
    return DensityMatrix(rho.layout, out, validate=False)


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

    rho_ideal may live on a box of rho_out's layout: as many modes, none
    with more levels.  It then stands for its zero-padding, the same state
    with zeros on every level past the box, and gives the same F bit for
    bit: its support rows are mapped by multi-index into rho_out's flat
    indices, so only the box is scanned.
    Any other pair of layouts raises OperatorError.
    """
    box, dims = rho_ideal.layout.dims, rho_out.layout.dims
    if len(box) != len(dims) or any(b > d for b, d in zip(box, dims)):
        raise OperatorError(f"cannot read an ideal on {box} against a state on {dims}")
    rows = np.flatnonzero(np.any(rho_ideal.matrix, axis=1))
    out_rows = np.ravel_multi_index(np.unravel_index(rows, box), dims)
    r1 = rho_ideal.matrix[np.ix_(rows, rows)]
    r2 = rho_out.matrix[np.ix_(out_rows, out_rows)]
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


# --- the doubling ladder schedule, parity ladders and compressions ---

TAIL_FRACTION = 0.9  # a ladder's top tenth starts at Fock index 0.9 * work


def doublings(start_dim: int, max_dim: int):
    """The ladder schedule of a truncation-doubling run: start_dim,
    2 start_dim, 4 start_dim, ... up to and including max_dim.  Each caller
    walks it with its own stopping rule."""
    if start_dim > max_dim:
        raise TruncationError(f"start ladder {start_dim} exceeds the cap {max_dim}")
    dim = start_dim
    while dim <= max_dim:
        yield dim
        dim *= 2


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

    U is read block by block (U.blocks), each cut to its interior indices:
    a Compression's blocks, or a dense Operator as one block.  U is zero off
    its blocks, and its blocks partition the flat indices, so every diagonal
    element sits in one of them.
    """
    layout = U.layout
    if block is None:
        inner = np.ones(layout.total_dim, dtype=bool)
    elif block < 0:
        raise ValueError(f"interior block bound must be >= 0, got block={block}")
    else:
        inner = np.zeros(layout.total_dim, dtype=bool)
        inner[layout.interior_indices(block)] = True
    worst = 0.0
    for index, values in U.blocks:
        keep = inner[index]
        if keep.any():
            diff = values[np.ix_(keep, keep)] - np.diag(u[index[keep]])
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _ladder_eig(coupling: np.ndarray):
    """Eigenbasis (s, U, V) of the ladder generator T, real antisymmetric
    tridiagonal with T[m, m+1] = -coupling[m]: the SVD B = U diag(s) V^T of
    its even-odd block.

    T has a zero diagonal, so it only couples even to odd ladder positions:
    the ladder is bipartite, and with the even positions first T is
    [[0, B], [-B^T, 0]], B[i, j] = T[2i, 2j+1] lower bidiagonal
    (B[i, i] = -coupling[2i], B[i, i-1] = +coupling[2i-1]).  U is square;
    on an odd ladder its last column, B's extra left singular vector, is
    the zero mode of T (Golub & Kahan 1965).  A half-size SVD thus stands
    for the whole eigensolver, and the eigenbasis holds size^2 / 2 floats.

    gesdd (np.linalg.svd) stays: on a 112 x 112 block (one OpenBLAS thread)
    it takes 1.65 ms, against 2.58 ms for scipy's eigh_tridiagonal and 5.44
    ms for np.linalg.eigh of T; eigh of B^T B (1.12 ms) squares the
    condition number (U orthogonal only to 2.5e-12, gesdd 2.8e-15) and
    gives no column for an odd ladder's zero mode.
    """
    size = len(coupling) + 1
    even, half = (size + 1) // 2, size // 2  # even and odd positions
    B = np.zeros((even, half))
    B[np.arange(half), np.arange(half)] = -coupling[0::2]
    B[np.arange(1, even), np.arange(even - 1)] = coupling[1::2]
    U, s, Vt = np.linalg.svd(B)
    return s, U, Vt.T


def _parity_exp(eig, theta: float) -> np.ndarray:
    """exp(theta T) of the ladder whose eigenbasis is eig (_ladder_eig).

    With the even positions first, C = diag(cos(theta s)) and
    S = diag(sin(theta s)), exp(theta T) is the real rotation
    [[U_h C U_h^T + U_0 U_0^T, U_h S V^T], [-V S U_h^T, V C V^T]],
    U_h the first len(s) columns of U and U_0 the rest.  Its even rows are
    U times [[C U_h^T, S V^T], [U_0^T, 0]] and its odd rows V times
    [-S U_h^T, C V^T], the columns of each interleaved by position: two
    half-size real products.
    """
    s, U, V = eig
    half, size = len(s), len(U) + len(s)
    cos, sin = np.cos(theta * s)[:, None], np.sin(theta * s)[:, None]
    even, odd = np.zeros((len(U), size)), np.empty((half, size))
    even[:, 0::2] = U.T
    even[:half, 0::2] *= cos
    even[:half, 1::2] = sin * V.T
    odd[:, 0::2] = -sin * U.T[:half]
    odd[:, 1::2] = cos * V.T
    out = np.empty((size, size))
    np.matmul(U, even, out=out[0::2])
    np.matmul(V, odd, out=out[1::2])
    return out


def _place_blocks(layout: ModeLayout, blocks) -> np.ndarray:
    """Full matrix holding each Block at its indices, zero elsewhere."""
    U = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for index, values in blocks:
        U[np.ix_(index, index)] = values
    return U


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
    ladders, read-only and built once per ladder: coupling[m] is
    <n_m|b b/2|n_m + 2> along the Fock indices n_m = p + 2m of parity p."""
    eigs = []
    for p in (0, 1):
        n = p + 2 * np.arange((dim - p + 1) // 2)
        eigs.append(_ladder_eig(0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))))
    for eig in eigs:
        for a in eig:
            a.flags.writeable = False
    return tuple(eigs)


def parity_blocks(layout: ModeLayout, squeezers) -> dict:
    """The blocks of single-mode squeezers truncated to layout, all on one
    mode: per distinct squeezer, its blocks on the even and on the odd Fock
    indices of that mode (the same for every spectator Fock index).

    Each block is its parity ladder's exponential, a real orthogonal
    matrix formed from the ladder's SVD (_parity_exp).  The two eigenbases
    are built once per ladder (_parity_eigs) and serve every squeezer and
    every later call on that ladder.
    """
    modes = _squeezed_modes(layout, squeezers)
    if modes is None or len(modes) != 1:
        raise OperatorError("parity blocks need single-mode squeezers")
    eigs = _parity_eigs(layout.dims[modes[0]])
    return {s: tuple(_parity_exp(eig, s.theta) for eig in eigs) for s in dict.fromkeys(squeezers)}


def _rotation(phase: np.ndarray, grid: np.ndarray) -> gaussian.Kernel:
    """Kernel of a run of phase factors per spectator index s, from its
    summed phase[s, i] on the squeezed-mode states grid[:, i] (three levels
    at least): read at n = 0 and one quantum on each mode, it must be
    affine in the squeezed indices, or the run is not Gaussian
    (OperatorError)."""
    size, levels = len(grid), int(grid.max()) + 1
    unit = [levels ** (size - 1 - j) for j in range(size)]  # flat index of n_j = 1
    slopes = phase[:, unit] - phase[:, :1]
    if np.max(np.abs(phase - phase[:, :1] - slopes @ grid)) > 1e-9 * (1.0 + np.max(np.abs(phase))):
        raise OperatorError("a phase factor is not affine in the squeezed modes' Fock indices")
    return gaussian.rotation(phase[:, 0], slopes)


def compress_product(layout: ModeLayout, factors) -> Compression:
    """Compression to layout of the untruncated product of factors, kept as
    its blocks; factors[0] is applied first.

    Every PairSqueeze must act on the same modes, of equal dimension D.  At
    each spectator index (of the modes no squeezer acts on) the product is
    Gaussian on the squeezed modes: the kernels are composed in order, a
    squeezer's each on its own and a run of consecutive phase factors as
    one rotation of the run's summed phase (_rotation), and the elements on
    D levels (gaussian.elements) give one Block per spectator index and
    band, the ladder for one squeezed mode, each n_b - n_c for two.  With
    no squeezer the product is its phase vector, one 1 x 1 Block per state.
    """
    modes = _squeezed_modes(layout, factors)
    if modes is None:
        flat = np.arange(layout.total_dim)[:, None]
        u = phase_vector(layout, factors)[:, None, None]
        return Compression(layout, tuple(map(Block, flat, u)))
    if len({layout.dims[m] for m in modes}) != 1:
        raise LayoutError(f"squeezed modes {modes} need equal dimensions")
    levels = layout.dims[modes[0]]
    others = [j for j in range(layout.num_modes) if j not in modes]
    stack = math.prod(layout.dims[j] for j in others)
    spectators = np.indices([layout.dims[j] for j in others]).reshape(len(others), stack)

    def numbers(squeezed):
        """Per-mode Fock indices over (spectator index, squeezed state)."""
        n = [None] * layout.num_modes
        for j, g in zip(others, spectators):
            n[j] = g[:, None]
        for m, g in zip(modes, squeezed):
            n[m] = g[None, :]
        return n

    grid = np.indices((max(levels, 3),) * len(modes)).reshape(len(modes), -1)
    n = numbers(grid)
    kernel = gaussian.rotation(np.zeros(stack), np.zeros((stack, len(modes))))
    for squeezers, run in itertools.groupby(factors, lambda f: isinstance(f, PairSqueeze)):
        if squeezers:
            for f in run:
                kernel = gaussian.compose(kernel, gaussian.squeeze(f.theta, len(modes)))
        else:
            phase = np.broadcast_to(sum(f.phase(n) for f in run), (stack, grid.shape[1]))
            kernel = gaussian.compose(kernel, _rotation(phase, grid))
    flat_grid = np.arange(layout.total_dim).reshape(layout.dims)
    blocks = []
    for states, values in gaussian.elements(kernel, levels):
        blocks += map(Block, flat_grid[tuple(numbers(states))], values)
    return Compression(layout, tuple(blocks))
