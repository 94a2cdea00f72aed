"""Beam-splitter model of photon loss and lossy amplifier runs.

Each imperfect nonlinear element is modelled as the perfect unitary
followed by a fictitious beam splitter of reflectance R mixing the signal
with a fresh vacuum ancilla, which is then traced out.  The lossy pass runs
the gates of circuits.two_mode_plan, the same plan the lossless builder
composes, and after each nonlinear gate applies the beam splitters that
SPLITTERS_AFTER_GATE lists for the gate's position in the plan.

The pass runs in two buffers allocated once per ladder, and builds no
N x N gate matrix.  A single-mode squeezer on b is real, block-diagonal in
the parity of n_b and the same for both n_a, so S rho S† = S (S rho)† is
two rounds of real products of parity blocks and rows, batched over n_a.
The Kerr and phase gates multiply the state by their phase vectors, and the
loss channel below writes its intermediates into the two buffers, like a
squeezer leaving its output in the spare one.

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

import numpy as np

from . import circuits, fock
from .fock import DensityMatrix, ModeLayout
from .su11 import CircuitParams

BS_NAMES = ("R1", "R2", "R2p", "R3", "R4", "R4p", "R5")
_SQUEEZER_BS = ("R1", "R3", "R5")

# (splitter, lost mode) pairs after each nonlinear gate of
# circuits.two_mode_plan, keyed by the gate's position: b is mode 1, a mode 0.
SPLITTERS_AFTER_GATE = {
    0: (("R1", 1),),  # S1
    1: (("R2", 1), ("R2p", 0)),  # K
    3: (("R3", 1),),  # S2
    5: (("R4", 1), ("R4p", 0)),  # K
    6: (("R5", 1),),  # S1
}


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
    numpy calls on every ladder.  Returns out.

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
    x.reshape(p, d, p, d)[...] *= S[:, None, :]
    product[..., n] = 0.0
    # the (P, d, N) reshape shifts row m back by m: U, zero below each block's diagonal
    u = product.reshape(p, -1)[:, : d * n].reshape(pre, post, d, pre, post, d).transpose(last)
    out6 = out.reshape(u.shape)
    np.conjugate(u.transpose(3, 4, 5, 0, 1, 2), out=out6)  # U†
    out6 += u
    return out


def _damp_first_qubit(state, reflectance) -> None:
    """apply_mode_loss on mode a of a (a: 2, b: D) state matrix, in place:
    with E_0 = diag(1, sqrt(1 - R)) and E_1 = sqrt(R) |0><1|, R of the
    (1, 1) n_a block moves to (0, 0) and the off-diagonal blocks scale by
    sqrt(1 - R)."""
    d = state.shape[0] // 2
    blocks = state.reshape(2, d, 2, d)
    blocks[0, :, 0] += reflectance * blocks[1, :, 1]
    blocks[1, :, 1] *= 1.0 - reflectance
    t = math.sqrt(1.0 - reflectance)
    blocks[0, :, 1] *= t
    blocks[1, :, 0] *= t


@dataclass(frozen=True)
class LossyRunReport:
    """Outcome of a lossy amplifier run at converged truncation.

    convergence_delta is |dF| over the last doubling; leakage is the
    largest population on the top tenth of the b ladder (fock.tail_index)
    after any stage of the last pass.
    """

    rho_out: DensityMatrix
    rho_ideal: DensityMatrix
    fidelity: float
    truncation: int
    convergence_delta: float
    converged: bool
    leakage: float


def make_plus_plus(layout: ModeLayout) -> DensityMatrix:
    """|++> with |+> = (|0> + |1>)/sqrt(2), embedded in the first two modes."""
    if layout.num_modes < 2:
        raise fock.LayoutError("need at least two modes")
    zeros = (0,) * (layout.num_modes - 2)
    psi = sum(
        layout.basis_vector((na, nb) + zeros) for na in (0, 1) for nb in (0, 1)
    ) / 2.0
    return DensityMatrix.from_state_vector(layout, psi)


def make_werner(layout: ModeLayout, p: float) -> DensityMatrix:
    """Werner-like state p |Phi+><Phi+| + (1-p)/4 I on the two-qubit block."""
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
    return DensityMatrix(layout, rho)


def embed_state(rho: DensityMatrix, new_layout: ModeLayout) -> DensityMatrix:
    """Zero-pad a state into a layout with enlarged mode dimensions."""
    old, new = rho.layout, new_layout
    if old.num_modes != new.num_modes or any(
        dn < do for do, dn in zip(old.dims, new.dims)
    ):
        raise fock.LayoutError(f"cannot embed {old.dims} into {new.dims}")
    out = np.zeros((new.total_dim, new.total_dim), dtype=complex)
    box = tuple(slice(d) for d in old.dims)
    out.reshape(new.dims + new.dims)[box + box] = rho.matrix.reshape(old.dims + old.dims)
    return DensityMatrix(new, out, validate=False)


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
    rho_in: DensityMatrix, params: CircuitParams, loss: LossConfig
) -> tuple[DensityMatrix, DensityMatrix, float]:
    """One pass of the lossy circuit at the input truncation: the gates of
    circuits.two_mode_plan in order, each followed by the beam splitters
    SPLITTERS_AFTER_GATE lists for its position.

    The pass runs in two flat buffers of N^2 + N elements, allocated once:
    the state and a spare, each matrix being a buffer's N x N head.  Each
    squeezer conjugates the state by its two parity blocks (_squeeze_b)
    into the spare, which then becomes the state;
    the blocks are the real parts of the parity ladders' exponentials
    (fock.parity_blocks), whose imaginary parts are rounding residue, and
    no N x N gate matrix is built.  The Kerr and phase gates multiply
    the state in place by their phase vectors, as fock.evolve does, and so
    does the ideal reference K(2 gamma), which keeps the exact zeros that
    fix the support fock.fidelity reads.  Loss on a is block arithmetic on
    the state (_damp_first_qubit).  Loss on b (_damp) skews into the whole
    spare, multiplies into the whole state buffer and writes its output
    into the spare's head, which then becomes the state, with the tables
    _loss_tables builds once per reflectance; they are dropped with the
    pass.

    What the ladder alone fixes is not rebuilt per pass: the Fock index
    grid phase_vector reads, the parity eigenbases and the loss tables'
    ladder part are built once per ladder per process and shared
    read-only, so a pass on a ladder seen before builds only what its
    parameters set.

    Returns (output, ideal output, leakage), the leakage being the largest
    population on the top tenth of the b ladder after any stage, read off
    the diagonal: S2 pulls the mid-circuit spread back down.
    """
    layout = rho_in.layout
    n, d = layout.total_dim, layout.dims[1]
    gates = circuits.two_mode_plan(params, layout).gates
    squeezers = {
        gate: tuple(np.ascontiguousarray(s.real) for s in blocks)
        for gate, blocks in fock.parity_blocks(
            layout, [g for g in gates if isinstance(g, fock.PairSqueeze)]
        ).items()
    }
    tail = fock.tail_index(d)
    state, spare = (np.empty(n * (n + 1), dtype=complex) for _ in range(2))

    def head(buf):
        return buf[: n * n].reshape(n, n)

    rho = head(state)
    np.copyto(rho, rho_in.matrix)
    tables = {}
    leakage = 0.0
    for position, gate in enumerate(gates):
        if gate in squeezers:
            _squeeze_b(rho, squeezers[gate], head(spare))
            state, spare = spare, state
            rho = head(state)
        else:
            u = fock.phase_vector(layout, [gate])
            # u rho, not rho u: fock.evolve's (u rho) u*, rounded alike
            np.multiply(u[:, None], rho, out=rho)
            rho *= u.conj()
        for name, mode in SPLITTERS_AFTER_GATE.get(position, ()):
            r = loss.reflectance(name)
            if r and mode == 0:
                _damp_first_qubit(rho, r)
            elif r:
                if r not in tables:
                    tables[r] = _loss_tables(d, r)
                _damp(rho, layout.dims, mode, tables[r], spare, state, out=head(spare))
                state, spare = spare, state
                rho = head(state)
        populations = np.real(np.diagonal(rho)).reshape(layout.dims)
        leakage = max(leakage, float(populations[:, tail:].sum()))
    rho_ideal = fock.evolve(rho_in, circuits.Kerr(0, 1, params.dphi_amp), validate=False)
    return DensityMatrix(layout, rho, validate=False), rho_ideal, leakage


def run_lossy_amplifier(
    rho_in: DensityMatrix,
    params: CircuitParams,
    loss: LossConfig,
    max_dim: int = 160,
    tol: float = 1e-3,
) -> LossyRunReport:
    """Lossy two-mode amplifier run with truncation-doubling convergence.

    rho_in lives on layout (a: 2, b: D), and the first ladder is its own D;
    the bosonic mode is zero-padded to D, 2D, 4D, ... until the fidelity
    between lossy and ideal outputs changes by less than tol under doubling
    and the pass's leakage onto the top tenth of the b ladder is below tol
    too.  A non-convergent run returns the best estimate with
    converged=False; a D above max_dim raises fock.TruncationError, and so
    does, before the first pass, a schedule that can reach a b ladder above
    MAX_LOSS_LADDER while a splitter on b has R > 0.
    """
    if rho_in.layout.num_modes != 2 or rho_in.layout.dims[0] != 2:
        raise fock.LayoutError(
            "expected layout (a: 2, b: D), got " + str(rho_in.layout.dims)
        )
    lossy_b = any(
        loss.reflectance(name)
        for splitters in SPLITTERS_AFTER_GATE.values()
        for name, mode in splitters
        if mode == 1
    )
    dim = rho_in.layout.dims[1]
    while lossy_b and dim <= max_dim:
        _check_lost_ladder(dim)
        dim *= 2

    def run(dim):
        rho = embed_state(rho_in, fock.make_layout([2, dim]))
        rho_out, rho_ideal, leakage = _run_fixed_dim(rho, params, loss)
        return rho_out, rho_ideal, fock.fidelity(rho_ideal, rho_out), leakage

    settled = fock.double_until_settled(
        run,
        start_dim=rho_in.layout.dims[1],
        max_dim=max_dim,
        tol=tol,
        distance=lambda new, old: max(abs(new[2] - old[2]), new[3]),
    )
    rho_out, rho_ideal, f, leakage = settled.value
    previous = settled.previous
    return LossyRunReport(
        rho_out=rho_out,
        rho_ideal=rho_ideal,
        fidelity=f,
        truncation=settled.dim,
        convergence_delta=math.inf if previous is None else abs(f - previous[2]),
        converged=settled.converged,
        leakage=leakage,
    )
