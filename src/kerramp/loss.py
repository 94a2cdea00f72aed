"""Beam-splitter model of photon loss and lossy amplifier runs.

Each imperfect nonlinear element is modelled as the perfect unitary
followed by a fictitious beam splitter of reflectance R mixing the signal
with a fresh vacuum ancilla, which is then traced out.  The lossy circuit
is stated once, by lossy_stages: the gates of circuits.two_mode_plan, the
same plan the lossless builder composes, each paired with the Splitters
that follow it.  A pass (_run_fixed_dim) walks the stages in two buffers
per ladder and builds no N x N gate matrix.  A single-mode squeezer on b
is real, block-diagonal in the parity of n_b and the same for both n_a,
so S rho S† = S (S rho)† is two rounds of real products of parity blocks
and rows, batched over n_a.

With the ancilla in vacuum, the attach-evolve-trace step is amplitude
damping, whose Kraus operators have the closed form
E_k |n> = sqrt(C(n, k) R^k (1 - R)^(n - k)) |n - k>
(Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)), that is
E_k = sqrt(R^k / k!) T a^k with T = (1 - R)^(n / 2).  On the two-level
mode a only E_0 = diag(1, sqrt(1 - R)) and E_1 = sqrt(R) |0><1| remain,
so the pass applies loss on a as block arithmetic on the n_a blocks: R of
the (1, 1) block moves to (0, 0), and the off-diagonal blocks scale by
sqrt(1 - R).

The channel sum_k E_k rho E_k† on any other mode is applied as one real
matrix product, without building the extended space or any Kraus matrix.
With the plain shift S |n> = |n - 1> and G = diag(g_n),
g_n = sqrt(n!) lambda^n, the lowering operator is a = lambda^-1 G^-1 S G, so
sum_k (R^k / k!) a^k rho a†^k = G^-1 [sum_k f_k S^k (G rho G) S†^k] G^-1,
f_k = (R / lambda^2)^k / k!: a Toeplitz sum along the diagonals of G rho G.
Skewing its upper diagonals into columns, Q[j, delta] = (G rho G)[j, j + delta],
makes the whole sum one product F @ Q over the lost mode's ladder, batched
over the other modes, F being the upper-triangular Toeplitz matrix of f.
Moving the row scale (T G^-1)^2 and the summed index's G^2 into F makes it
F[m, m + k] = w_k[m]^2 = C(m + k, k) R^k (1 - R)^m, and leaves ratios:
A[j, c] = g_c / g_j on rho[j, c] before the product and
S[m, delta] = (1 - R)^(delta / 2) g_m / g_{m+delta} on out[m, m + delta]
after it.  The real F acts on the real and imaginary parts at once.
Hermiticity gives the lower triangle: the m = m' blocks are halved and
out = U + U†.  F, A and S are d x d tables.  A, with log n! and g, depends
on the ladder alone and is built once per ladder per process
(_ladder_tables); F and S are built once per ladder and reflectance in a
pass (_loss_tables).  With lambda^2 = e / d every ratio stays within
exp(+-d / 2e) on a d-level ladder, inside the float range up to
MAX_LOSS_LADDER levels.

The skew and unskew are reshapes.  With the lost mode moved last in rows
and columns, the state is a (P, d, N) array, P d = N, whose rows
(p, j) run over the columns (p', c).  Written with the triangular mask A
into the (P, d, N) head of a (P, d (N + 1)) buffer whose tail is zero, it
reads back through the (P, d, N + 1)[..., :N] reshape as Q: row j starts j
places further on, and what lands at j + delta >= d is a masked entry of
the next block or the zero tail.  The product goes into the same view of a
second buffer, with its padding column zero, and the (P, d, N) reshape of
that buffer shifts row m back by m: the upper triangle of every block
holds U, and exact zeros lie below it.

On a long ladder F @ Q is split by ladder halves, h = ceil(d / 2), to skip
zeros: F[h:, :h] = 0, Q[j, delta] = 0 for j, delta >= h, and the output is
0 for m, delta >= h, as m + delta >= d.  Three GEMMs, batched over the
(p, p') blocks, do half the flops.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import circuits, fock
from .fock import DensityMatrix, ModeLayout
from .su11 import CircuitParams

BS_NAMES = ("R1", "R2", "R2p", "R3", "R4", "R4p", "R5")
_SQUEEZER_BS = ("R1", "R3", "R5")


class Splitter(NamedTuple):
    """A fictitious beam splitter and the mode it loses: b is 1, a is 0."""

    name: str
    mode: int


# The splitters after each gate of circuits.two_mode_plan, in its order
_PLAN_SPLITTERS = (
    (Splitter("R1", 1),),  # S1
    (Splitter("R2", 1), Splitter("R2p", 0)),  # K
    (),  # P
    (Splitter("R3", 1),),  # S2
    (),  # P
    (Splitter("R4", 1), Splitter("R4p", 0)),  # K
    (Splitter("R5", 1),),  # S1
    (),  # P'
)


def lossy_stages(params: CircuitParams, layout: ModeLayout) -> tuple:
    """The lossy circuit as its stages: the gates of circuits.two_mode_plan
    in order, each paired with the tuple of Splitters that follow it."""
    return tuple(zip(circuits.two_mode_plan(params, layout).gates, _PLAN_SPLITTERS, strict=True))


# Largest lost-mode ladder apply_mode_loss takes: its scales reach
# exp(d / 2e), exp(552) at d = 3000, and everything it sums or drops must
# stay far enough inside the float range (exp(+-709)) to cost no digits.
MAX_LOSS_LADDER = 3000

# Smallest lost-mode ladder on which _damp splits its GEMM (its docstring).
_SPLIT_LADDER = 64


class ReflectanceError(ValueError):
    """Reflectance outside [0, 1]."""


def _check_reflectance(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ReflectanceError(f"reflectance must lie in [0, 1], got {r}")


@dataclass(frozen=True)
class LossConfig:
    """Reflectances of the fictitious beam splitters.

    r_s covers the squeezer-adjacent splitters (R1 = R3 = R5), r_k the
    Kerr-adjacent ones (R2 = R2' = R4 = R4'); individual overrides win.
    """

    r_s: float = 0.0
    r_k: float = 0.0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_reflectance(self.r_s)
        _check_reflectance(self.r_k)
        for name, r in self.overrides.items():
            if name not in BS_NAMES:
                raise ReflectanceError(f"unknown beam splitter {name!r}")
            _check_reflectance(r)

    def reflectance(self, name: str) -> float:
        if name not in BS_NAMES:
            raise ReflectanceError(f"unknown beam splitter {name!r}")
        if name in self.overrides:
            return self.overrides[name]
        return self.r_s if name in _SQUEEZER_BS else self.r_k


def apply_mode_loss(rho: DensityMatrix, mode: int, reflectance: float) -> DensityMatrix:
    """Vacuum beam-splitter loss channel on one mode of a multimode state.

    out[.., m, .., m', ..] = sum_k w_k[m] w_k[m'] rho[.., m + k, .., m' + k, ..]
    on the lost mode's indices, with w_k from the amplitude-damping Kraus
    operators E_k |m + k> = w_k[m] |m>.  Computed as one real matrix product
    along the diagonals of the rescaled state (module docstring); a lost
    mode above MAX_LOSS_LADDER levels raises fock.TruncationError.

    The loss channel's public form, kept as a layer to time on its own; the
    lossy pass calls _damp on its own buffers instead.
    """
    rho.layout.check_mode(mode)
    _check_reflectance(reflectance)
    if reflectance == 0.0:
        return rho
    tables = _loss_tables(rho.layout.dims[mode], reflectance)
    n = rho.layout.total_dim
    skew, product = (np.empty(n * (n + 1), dtype=complex) for _ in range(2))
    out = skew[: n * n].reshape(n, n)  # the skew is dead once the product is formed
    _damp(rho.matrix, rho.layout.dims, mode, tables, skew, product, out)
    return DensityMatrix(rho.layout, out, validate=False)


def _check_lost_ladder(d: int) -> None:
    if d > MAX_LOSS_LADDER:
        raise fock.TruncationError(
            f"lost mode's ladder {d} exceeds {MAX_LOSS_LADDER}, the largest whose "
            "loss rescaling stays in float range"
        )


@functools.lru_cache(maxsize=4)
def _ladder_tables(d: int) -> tuple:
    """The reflectance-free part of _loss_tables on a d-level lost mode,
    read-only and built once per ladder: n, log n!, g, the skew scales A
    and g_{m+delta} as a Hankel view."""
    n = np.arange(d)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    # g_n = sqrt(n!) lambda^n with lambda^2 = e / d, centred: |log g_n| <~ d / 4e
    g = np.exp(0.5 * (log_fact + n * (1.0 - math.log(d))) + d / (4 * math.e))
    A = np.triu(g / g[:, None])
    # g_{m+delta} as a Hankel view, infinite past the ladder: S = 0 there
    padded = np.concatenate((g, np.full(d - 1, np.inf)))
    for a in (n, log_fact, g, A, padded):
        a.flags.writeable = False
    return n, log_fact, g, A, np.lib.stride_tricks.sliding_window_view(padded, d)


def _loss_tables(d: int, reflectance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The d x d tables of the loss channel on a d-level lost mode at
    0 < R <= 1 (module docstring): the weights F[m, m + k] =
    C(m + k, k) R^k (1 - R)^m, the skew scales A[j, c] = g_c / g_j and the
    unskew scales S[m, delta] = (1 - R)^(delta / 2) g_m / g_{m+delta}, halved
    at delta = 0.  F and A are zero below the diagonal, S where
    m + delta >= d.  A is the ladder's own (_ladder_tables), shared and
    read-only; F and S are built here.  A ladder above MAX_LOSS_LADDER
    raises fock.TruncationError."""
    _check_lost_ladder(d)
    n, log_fact, g, A, g_shifted = _ladder_tables(d)
    with np.errstate(divide="ignore"):
        log_t = np.log1p(-reflectance)  # -inf at R = 1
    n_log_t = np.multiply(n, log_t, out=np.zeros(d), where=n > 0)  # 0 log 0 = 0
    # F built in log space in one d x d buffer: the k-dependent part is a
    # Toeplitz view, [m, c] -> log_c[d - 1 - m + c], -inf below the diagonal
    log_c = np.concatenate((np.full(d - 1, -np.inf), n * math.log(reflectance) - log_fact))
    F = np.add.outer(n_log_t - log_fact, log_fact)
    step = log_c.strides[0]
    F += np.lib.stride_tricks.as_strided(log_c[d - 1 :], (d, d), (-step, step), writeable=False)
    np.exp(F, out=F)
    half = np.exp(0.5 * n_log_t)
    half[0] = 0.5
    S = g[:, None] * half / g_shifted
    return F, A, S


def _damp(matrix, dims, mode, tables, skew, product, out) -> np.ndarray:
    """The loss channel of apply_mode_loss on an N x N state matrix, with
    the tables _loss_tables built for its lost mode's ladder and reflectance.

    skew and product are flat complex buffers of at least N^2 + N elements,
    whose contents are never read before they are written; out is N x N.
    matrix is read only before the product and skew only up to it, so
    product may be the buffer whose head is matrix, and out may be matrix
    itself or the head of skew.  The skew and the unskew are reshapes of
    the padded buffers (module docstring), so the call makes the same few
    numpy calls on every ladder, and allocates no N x N temporary: the S
    scale goes through one 3-D view per block column, since an in-place
    product on the strided 4-D view makes numpy copy it whole (1.16 N^2
    complex at [2, 160], by tracemalloc).  Returns out.

    From _SPLIT_LADDER levels up the product is split (module docstring).
    The GEMM at [2, d], whole / split (one OpenBLAS thread, 2-core Xeon):
    0.006 / 0.022 ms at d = 20, 0.028 / 0.037 at 40, 0.13 / 0.08 at 64,
    1.7 / 1.2 at 160, 93 / 57 ms at 640.
    """
    F, A, S = tables
    d = dims[mode]
    pre, post = math.prod(dims[:mode]), math.prod(dims[mode + 1 :])
    n = matrix.shape[0]
    p = n // d
    # (pre, d, post) rows and columns, viewed with the lost mode last
    last = (0, 2, 1, 3, 5, 4)
    skew = skew[: n * (n + 1)].reshape(p, d * (n + 1))
    product = product[: n * (n + 1)].reshape(p, d, n + 1)
    # rho A into the (P, d, N) head, zero tail: the (P, d, N + 1)[..., :N]
    # reshape is Q[p, j, (p', delta)] = rho[p, j, p', j + delta] g_{j+delta} / g_j
    np.multiply(
        matrix.reshape(pre, d, post, pre, d, post).transpose(last),
        A.reshape(d, 1, 1, d),
        out=skew[:, : d * n].reshape(pre, post, d, pre, post, d),
    )
    skew[:, d * n :] = 0.0
    x = product[..., :n]
    q = skew.reshape(p, d, n + 1)[..., :n]
    if d < _SPLIT_LADDER:
        np.matmul(F, q.view(float), out=x.view(float))
    else:
        # by ladder halves, batched over (p, p')
        h = (d + 1) // 2
        q, y = (b.reshape(p, d, p, d).view(float).transpose(0, 2, 1, 3) for b in (q, x))
        np.matmul(F[:h], q[..., : 2 * h], out=y[..., :h, : 2 * h])
        np.matmul(F[:h, :h], q[..., :h, 2 * h :], out=y[..., :h, 2 * h :])
        np.matmul(F[h:, h:], q[..., h:, : 2 * h], out=y[..., h:, : 2 * h])
        y[..., h:, 2 * h :] = 0.0
    # U[m, delta] *= S[m, delta] in each (p, p') block, one 3-D view per p'
    for block in range(p):
        x[..., block * d : (block + 1) * d] *= S
    product[..., n] = 0.0
    # the (P, d, N) reshape shifts row m back by m: U, zero below each block's diagonal
    u = product.reshape(p, -1)[:, : d * n].reshape(pre, post, d, pre, post, d).transpose(last)
    out6 = out.reshape(u.shape)
    np.conjugate(u.transpose(3, 4, 5, 0, 1, 2), out=out6)  # U†
    out6 += u
    return out


def _damp_first_qubit(state, reflectance, scratch) -> None:
    """apply_mode_loss on mode a of a (a: 2, b: D) state matrix, in place:
    with E_0 = diag(1, sqrt(1 - R)) and E_1 = sqrt(R) |0><1|, R of the
    (1, 1) n_a block moves to (0, 0) and the off-diagonal blocks scale by
    sqrt(1 - R).  scratch is a flat complex buffer of at least D^2
    elements, whose contents are never read before they are written."""
    d = state.shape[0] // 2
    blocks = state.reshape(2, d, 2, d)
    moved = scratch[: d * d].reshape(d, d)
    np.multiply(blocks[1, :, 1], reflectance, out=moved)
    blocks[0, :, 0] += moved
    blocks[1, :, 1] *= 1.0 - reflectance
    t = math.sqrt(1.0 - reflectance)
    blocks[0, :, 1] *= t
    blocks[1, :, 0] *= t


@dataclass(frozen=True)
class LossyRunReport:
    """Outcome of a lossy amplifier run on its last truncation.

    rho_ideal is the ideal K(2 gamma) output on the input's box, which
    fock.fidelity reads against rho_out.  truncation is the last b ladder
    walked and convergence_delta the |dF| from the ladder before it, inf
    on a run of one ladder; leakage is the largest population on the top
    tenth of the b ladder (fock.tail_index) after any stage of the last
    pass.  converged says whether both fell below the run's tol.
    """

    rho_out: DensityMatrix
    rho_ideal: DensityMatrix
    fidelity: float
    truncation: int
    convergence_delta: float
    converged: bool
    leakage: float


def make_plus_plus(layout: ModeLayout) -> DensityMatrix:
    """|++> with |+> = (|0> + |1>)/sqrt(2), embedded in the first two modes.

    Exact by construction, so built without DensityMatrix's O(N^3) check;
    tests/test_loss.py::TestInputStates runs it."""
    if layout.num_modes < 2:
        raise fock.LayoutError("need at least two modes")
    zeros = (0,) * (layout.num_modes - 2)
    psi = sum(
        layout.basis_vector((na, nb) + zeros) for na in (0, 1) for nb in (0, 1)
    ) / 2.0
    return DensityMatrix(layout, np.outer(psi, psi.conj()), validate=False)


def make_werner(layout: ModeLayout, p: float) -> DensityMatrix:
    """Werner-like state p |Phi+><Phi+| + (1-p)/4 I on the two-qubit block,
    exact for p in [0, 1] and so, like make_plus_plus, not checked again."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if layout.num_modes < 2:
        raise fock.LayoutError("need at least two modes")
    zeros = (0,) * (layout.num_modes - 2)
    phi = (
        layout.basis_vector((0, 0) + zeros) + layout.basis_vector((1, 1) + zeros)
    ) / math.sqrt(2.0)
    rho = p * np.outer(phi, phi.conj())
    for na in (0, 1):
        for nb in (0, 1):
            v = layout.basis_vector((na, nb) + zeros)
            rho += (1.0 - p) / 4.0 * np.outer(v, v.conj())
    return DensityMatrix(layout, rho, validate=False)


def _squeeze_b(state, blocks, out) -> None:
    """out = S rho S† for a state rho on (a: 2, b: D) and a real squeezer S
    on b given by its parity blocks S_p, as S (S rho)†: each round
    multiplies the p::2 rows by S_p, one real GEMM per parity on the float
    view, batched over n_a; state is overwritten by (S rho)† between them."""
    d = state.shape[0] // 2
    rows, out_rows = (m.reshape(2, d, 2 * d).view(float) for m in (state, out))
    for step in range(2):  # out = S rho, then S (S rho)†
        if step:
            np.conjugate(out.T, out=state)
        for p, s_p in enumerate(blocks):
            np.matmul(s_p, rows[:, p::2], out=out_rows[:, p::2])


def _run_fixed_dim(
    rho_in: DensityMatrix, stages: tuple, loss: LossConfig, dim: int | None = None
) -> tuple[DensityMatrix, float]:
    """One pass of a stage list (lossy_stages) on the pass layout (a: 2,
    b: dim), dim defaulting to rho_in's own b ladder: each stage applies its
    gate, then each of its splitters with R > 0, then reads the leakage.

    The pass runs in two flat buffers of N^2 + N elements, allocated once,
    and allocates no other N x N array: the state and a spare, each matrix
    being a buffer's N x N head.  rho_in, on its own box of the pass
    layout, is written into the zeroed state buffer.  Each squeezer
    conjugates the state by its two parity blocks (_squeeze_b) into the
    spare, which then becomes the state; the blocks are the parity ladders'
    exponentials, real orthogonal (fock.parity_blocks), and no N x N gate
    matrix is built.  The Kerr and phase gates multiply the state in place
    by their phase vectors, as fock.evolve does.  Loss on a is block
    arithmetic on the state (_damp_first_qubit, with the spare as its
    scratch).  Loss on b (_damp) skews into the whole spare, multiplies
    into the whole state buffer and writes its output into the spare's
    head, which then becomes the state, with the tables _loss_tables builds
    once per reflectance; they are dropped with the pass.

    What the ladder alone fixes is not rebuilt per pass: the Fock index
    grid phase_vector reads, the parity eigenbases and the loss tables'
    ladder part are built once per ladder per process and shared
    read-only, so a pass on a ladder seen before builds only what its
    parameters set.

    Returns (output, leakage).  The leakage is the largest population on
    the top tenth of the b ladder after any stage, read off the diagonal:
    S2 pulls the mid-circuit spread back down.
    """
    box = rho_in.layout.dims
    layout = rho_in.layout if dim is None else fock.make_layout([2, dim])
    n, d = layout.total_dim, layout.dims[1]
    squeezers = fock.parity_blocks(layout, [g for g, _ in stages if isinstance(g, fock.PairSqueeze)])
    tail = fock.tail_index(d)
    state, spare = np.zeros(n * (n + 1), dtype=complex), np.empty(n * (n + 1), dtype=complex)

    def head(buf):
        return buf[: n * n].reshape(n, n)

    rho = head(state)
    inside = tuple(slice(k) for k in box)
    rho.reshape(layout.dims * 2)[inside * 2] = rho_in.matrix.reshape(box * 2)
    tables = {}
    leakage = 0.0
    for gate, splitters in stages:
        if gate in squeezers:
            _squeeze_b(rho, squeezers[gate], head(spare))
            state, spare = spare, state
            rho = head(state)
        else:
            u = fock.phase_vector(layout, [gate])
            # u rho, not rho u: fock.evolve's (u rho) u*, rounded alike
            np.multiply(u[:, None], rho, out=rho)
            rho *= u.conj()
        for name, mode in splitters:
            r = loss.reflectance(name)
            if r and mode == 0:
                _damp_first_qubit(rho, r, spare)
            elif r:
                if r not in tables:
                    tables[r] = _loss_tables(d, r)
                _damp(rho, layout.dims, mode, tables[r], spare, state, out=head(spare))
                state, spare = spare, state
                rho = head(state)
        populations = np.real(np.diagonal(rho)).reshape(layout.dims)
        leakage = max(leakage, float(populations[:, tail:].sum()))
    return DensityMatrix(layout, rho, validate=False), leakage


def run_lossy_amplifier(
    rho_in: DensityMatrix,
    params: CircuitParams,
    loss: LossConfig,
    max_dim: int = 160,
    tol: float = 1e-3,
) -> LossyRunReport:
    """Lossy two-mode amplifier run with truncation-doubling convergence.

    rho_in lives on layout (a: 2, b: D).  The run walks the b ladders
    fock.doublings(D, max_dim), one pass each, and stops on the first
    ladder where the fidelity between lossy and ideal outputs has moved by
    less than tol since the ladder before (|dF|, inf on the first) and the
    pass's leakage onto the top tenth of the b ladder is below tol too.
    The run builds the stages (lossy_stages) and the ideal output
    K(2 gamma) rho_in K(2 gamma)† on rho_in's box once; each pass
    (_run_fixed_dim) runs the stages, and fock.fidelity reads the box ideal
    against its output.  A run that uses up its ladders returns the last
    one's estimate with converged=False; a D above max_dim raises
    fock.TruncationError, and so does, before the first pass, a ladder of
    the schedule above MAX_LOSS_LADDER while a splitter on b has R > 0; a
    layout other than (a: 2, b: D) raises fock.LayoutError.
    """
    stages = lossy_stages(params, rho_in.layout)
    ladders = list(fock.doublings(rho_in.layout.dims[1], max_dim))
    if any(loss.reflectance(name) for _, after in stages for name, mode in after if mode == 1):
        for dim in ladders:
            _check_lost_ladder(dim)
    rho_ideal = fock.evolve(rho_in, circuits.Kerr(0, 1, params.dphi_amp))
    f_prev = None
    for dim in ladders:
        rho_out = None  # the last ladder's output goes before the next pass
        rho_out, leakage = _run_fixed_dim(rho_in, stages, loss, dim)
        f = fock.fidelity(rho_ideal, rho_out)
        delta = math.inf if f_prev is None else abs(f - f_prev)
        converged = max(delta, leakage) < tol
        if converged:
            break
        f_prev = f
    return LossyRunReport(
        rho_out=rho_out,
        rho_ideal=rho_ideal,
        fidelity=f,
        truncation=dim,
        convergence_delta=delta,
        converged=converged,
        leakage=leakage,
    )
