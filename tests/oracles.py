"""Dense reference objects that kerramp itself never builds.

kerramp composes and evolves by sector blocks (fock.Compression, the lossy
pass's parity blocks) and phase vectors.  This module keeps the dense form
the tests check that against: kron-embedded ladder operators, every gate
truncated to a layout as an N x N fock.Operator, gate-by-gate products,
dense conjugation of a state, a state zero-padded onto longer ladders, the
beam splitter on an extended space, and the dense SU(1,1) generators and
identity sides.  The helpers only tests read live here too: a state
vector's density matrix, a flat index's multi-index, and a circuit's
conditional phase read off its blocks.  It also keeps the working-ladder
walk (walk_product), an independent way to the compressions that
fock.compress_product builds from Gaussian kernels, and the walk's
rotation of any columns along a ladder (ladder_exp), of which
fock._parity_exp is the identity's case, and the products the compression
tests of test_fock.py and test_gaussian.py share (case_factors).
"""

import dataclasses
import itertools
import math

import numpy as np

from kerramp import circuits, fock, loss, su11
from kerramp.fock import DensityMatrix, ModeLayout, Operator

# --- fock: ladder operators, dense conjugation, the truncated product ---


def multi_index(layout: ModeLayout, flat: int) -> tuple[int, ...]:
    """Inverse of ModeLayout.flat_index."""
    return tuple(int(i) for i in np.unravel_index(flat, layout.dims))


def from_state_vector(layout: ModeLayout, psi: np.ndarray) -> DensityMatrix:
    """The pure state |psi><psi|, psi normalized first."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(layout, np.outer(psi, psi.conj()))


def identity(layout: ModeLayout) -> Operator:
    return Operator(layout, np.eye(layout.total_dim, dtype=complex), unitary=True)


def embed(layout: ModeLayout, mode: int, single_mode_matrix: np.ndarray) -> np.ndarray:
    """Tensor a single-mode matrix with identities on all other modes:
    dense kron embedding on the full space."""
    layout.check_mode(mode)
    d = layout.dims[mode]
    if single_mode_matrix.shape != (d, d):
        raise fock.OperatorError(
            f"single-mode matrix shape {single_mode_matrix.shape} "
            f"does not match mode dimension {d}"
        )
    result = np.eye(1, dtype=complex)
    for m, dim in enumerate(layout.dims):
        factor = single_mode_matrix if m == mode else np.eye(dim)
        result = np.kron(result, factor)
    return result


def lowering_matrix(dim: int) -> np.ndarray:
    """Single-mode annihilation matrix: sqrt(n) on the subdiagonal."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def annihilation(layout: ModeLayout, mode: int) -> Operator:
    """Annihilation operator of the given mode, embedded in the full space."""
    layout.check_mode(mode)
    return Operator(layout, embed(layout, mode, lowering_matrix(layout.dims[mode])))


def number_op(layout: ModeLayout, mode: int) -> Operator:
    """Photon-number operator of the given mode."""
    layout.check_mode(mode)
    n = np.diag(np.arange(layout.dims[mode], dtype=complex))
    return Operator(layout, embed(layout, mode, n))


def evolve(rho: DensityMatrix, U: Operator, validate: bool = True) -> DensityMatrix:
    """Unitary conjugation U rho U† by a dense Operator flagged unitary;
    fock.evolve conjugates by a phase factor's vector instead."""
    if U.layout != rho.layout:
        raise fock.OperatorError("layout mismatch between state and unitary")
    if not U.unitary:
        raise fock.OperatorError("operator is not flagged unitary")
    return DensityMatrix(rho.layout, U.matrix @ rho.matrix @ U.dag, validate=validate)


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


def sqrtm_psd(rho: DensityMatrix) -> Operator:
    """Hermitian PSD square root via eigendecomposition (fock._psd_root)."""
    H = (rho.matrix + rho.matrix.conj().T) / 2
    return Operator(rho.layout, fock._psd_root(*np.linalg.eigh(H)))


def truncated_product(layout: ModeLayout, factors) -> Operator:
    """Product of factors, each truncated to layout; factors[0] is applied
    first, and every PairSqueeze must act on the same modes.

    Walked sector by sector on the layout's own ladders (sector_blocks),
    and the blocks placed in the full matrix.  With no squeezer the product
    is diagonal, and exact on any ladder.
    """
    modes = fock._squeezed_modes(layout, factors)
    if modes is None:
        return Operator(layout, np.diag(fock.phase_vector(layout, factors)), unitary=True)
    box = tuple(layout.dims[m] for m in modes)
    walked, _ = sector_blocks(layout, factors, modes, spectators(layout, modes), box)
    return Operator(layout, fock._place_blocks(layout, walked), unitary=True)


# --- fock: the working-ladder walk, compressions without Gaussian kernels ---

SETTLE_TOL = 1e-12
MAX_WORK_FACTOR = 32


def sectors(box, work):
    """Ladders of the squeezer on modes with dimensions `box`, each ladder
    running up to Fock index work[j] - 1 on squeezed mode j: the parity
    ladders for one mode, and for two the n_b - n_c ladders.

    Yields (key, inside, numbers, coupling) per sector that meets the box:
    numbers holds the Fock indices of each squeezed mode along the ladder,
    whose first `inside` states lie in the box; coupling[m] is <m|A|m+1>.
    Sectors with equal key have equal couplings and come in a row.
    """
    if len(box) == 1:
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


def ladder_exp(eig, theta: float, X: np.ndarray) -> np.ndarray:
    """exp(theta T) X for the ladder whose eigenbasis is eig
    (fock._ladder_eig); the first axis of X runs along the ladder, and X is
    C-contiguous in its trailing axes.

    With the even positions first, C = diag(cos(theta s)) and
    S = diag(sin(theta s)), exp(theta T) is the real rotation
    [[U_h C U_h^T + U_0 U_0^T, U_h S V^T], [-V S U_h^T, V C V^T]],
    U_h the first len(s) columns of U and U_0 the rest.  So A = U^T X_even
    and B = V^T X_odd go in, and U (C A_h + S B ; A_0) and V (C B - S A_h)
    come out: four half-size real products.  A complex X goes through them
    as its float view, real and imaginary parts interleaved along the
    columns, which the real rotation acts on alike.  fock._parity_exp is
    the same rotation applied to the ladder's identity.
    """
    s, U, V = eig
    half = len(s)
    cols = X.reshape(len(U) + half, -1).view(float)
    A, B = U.T @ cols[0::2], V.T @ cols[1::2]
    cos, sin = np.cos(theta * s)[:, None], np.sin(theta * s)[:, None]
    odd = cos * B
    odd -= sin * A[:half]
    A[:half] *= cos
    B *= sin
    A[:half] += B
    del B  # each temporary goes once used
    out = np.empty(cols.shape)
    np.matmul(U, A, out=out[0::2])
    del A
    np.matmul(V, odd, out=out[1::2])
    return out.view(X.dtype).reshape(X.shape)


def spectators(layout: ModeLayout, modes) -> dict:
    """Fock indices of the modes not in `modes`, flattened over their grid."""
    others = [j for j in range(layout.num_modes) if j not in modes]
    grids = np.meshgrid(*[np.arange(layout.dims[j]) for j in others], indexing="ij")
    return {j: g.ravel() for j, g in zip(others, grids)}


def sector_numbers(num_modes: int, modes, numbers, spectators: dict) -> list:
    """Per-mode Fock indices of a sector's states: (ladder, 1) arrays on the
    squeezed modes, (1, S) arrays on the spectator modes."""
    n = [None] * num_modes
    for j, numbers_j in zip(modes, numbers):
        n[j] = numbers_j[:, None]
    for j, grid in spectators.items():
        n[j] = grid[None, :]
    return n


def sector_blocks(layout: ModeLayout, factors, modes, spectators: dict, work):
    """Blocks of the factor product on the working ladders `work` (one
    length per squeezed mode), and their leakage.

    Returns (walked, leakage), walked holding one fock.Block per sector and
    spectator (unsqueezed) modes' Fock index: the flat indices of the
    sector's states inside the layout's box, and their values.  A sector is
    walked for every spectator value at once, as one (ladder, S, inside)
    array, S = 1 while no phase factor has told the values apart; only its
    columns inside the box are propagated, with the ladder's real rotation
    (ladder_exp), and a run of consecutive phase factors acts as one
    summed phase.  The leakage is the largest 2-norm a propagated column
    puts on the ladder's top tenth (from fock.tail_index on a squeezed
    mode, a contiguous tail of the sector ladder) at the end of any
    squeezer.  Along one squeezer a column's mean photon number is a
    cosh-sinh combination of the squeeze parameter, so its spread peaks at
    a stage boundary; a later squeezer may pull it back, hence the maximum
    over stages.
    """
    n_spec = math.prod(layout.dims[j] for j in spectators)
    box = tuple(layout.dims[m] for m in modes)
    edge = [fock.tail_index(w) for w in work]
    stages = []
    for squeezes, run in itertools.groupby(factors, lambda f: isinstance(f, fock.PairSqueeze)):
        stages += run if squeezes else [tuple(run)]
    walked, worst, eigs = [], 0.0, {}
    for key, inside, numbers, coupling in sectors(box, work):
        size = len(numbers[0])
        # first state past the edge on any squeezed mode; the top one at least
        tail = min(size - 1, *(int(np.searchsorted(nj, e)) for nj, e in zip(numbers, edge)))
        n = sector_numbers(layout.num_modes, modes, numbers, spectators)
        V = np.eye(size, inside)[:, None]  # the box's identity columns
        for stage in stages:
            if isinstance(stage, tuple):
                phase = np.broadcast_to(sum(f.phase(n) for f in stage), (size, n_spec))
                V = V * np.exp(1j * phase)[:, :, None]
                continue
            if key not in eigs:
                eigs.clear()  # the previous ladder's eigenbasis goes first
                eigs[key] = fock._ladder_eig(coupling)
            V = ladder_exp(eigs[key], stage.theta, V)
            worst = max(worst, float(np.linalg.norm(V[tail:], axis=0).max()))
        states = np.broadcast_arrays(*(nj[:inside] for nj in n))
        flat = np.ravel_multi_index(states, layout.dims).T  # a row per spectator value
        values = np.broadcast_to(V[:inside].copy(), (inside, n_spec, inside))
        walked += map(fock.Block, flat, values.transpose(1, 0, 2))
    return walked, worst


@dataclasses.dataclass(frozen=True, eq=False)
class Walked(fock.Compression):
    """A compression composed on a working ladder: work_dim is the ladder
    and leakage the weight its box columns put on the ladder's top tenth;
    both are None for a diagonal product, exact on any ladder."""

    work_dim: int | None = None
    leakage: float | None = None


def walk_product(layout: ModeLayout, factors, block: int | None = None) -> Walked:
    """Compression to layout of the untruncated product of factors, or with
    a block to layout.interior_box(block), composed on a working ladder.

    factors[0] is applied first, and every PairSqueeze must act on the same
    modes, of equal dimension D.  The product is walked (sector_blocks) on
    the ladders fock.doublings(2 box, MAX_WORK_FACTOR * D) per squeezed
    mode, each in full, until the leakage falls below SETTLE_TOL; the
    result holds that ladder's blocks.  Raises fock.TruncationError, naming
    the cap ladder and its leakage, when the cap is reached first.
    """
    box = layout if block is None else layout.interior_box(block)
    modes = fock._squeezed_modes(layout, factors)
    if modes is None:
        u = fock.phase_vector(box, factors)[:, None, None]
        return Walked(box, tuple(map(fock.Block, np.arange(box.total_dim)[:, None], u)))
    if len({layout.dims[m] for m in modes}) != 1:
        raise fock.LayoutError(f"squeezed modes {modes} need equal dimensions")
    box_spectators = spectators(box, modes)
    for work in fock.doublings(2 * box.dims[modes[0]], MAX_WORK_FACTOR * layout.dims[modes[0]]):
        walked, leakage = sector_blocks(
            box, factors, modes, box_spectators, (work,) * len(modes)
        )
        if leakage < SETTLE_TOL:
            return Walked(box, tuple(walked), work, leakage)
    raise fock.TruncationError(
        f"compression did not settle by working ladder {work}: "
        f"leakage {leakage:.2e} >= tol {SETTLE_TOL:.0e}"
    )


# --- circuits: each gate truncated to a layout, and their product ---


def squeeze_single(layout: ModeLayout, mode: int, theta: float) -> Operator:
    """Single-mode quadrature squeezer exp(-(theta/2)(b b - b† b†)),
    built per parity sector (truncated_product)."""
    return gate_operator(layout, fock.PairSqueeze((mode,), theta))


def squeeze_two_mode(
    layout: ModeLayout, mode_b: int, mode_c: int, theta: float
) -> Operator:
    """Two-mode squeezer exp(-theta (b c - b† c†)), built per n_b - n_c
    sector (truncated_product)."""
    return gate_operator(layout, fock.PairSqueeze((mode_b, mode_c), theta))


def kerr(layout: ModeLayout, mode_a: int, mode_b: int, dphi: float) -> Operator:
    """Cross-Kerr unitary exp(i dphi n_a n_b), diagonal in the Fock basis."""
    return gate_operator(layout, circuits.Kerr(mode_a, mode_b, dphi))


def phase_shift(layout: ModeLayout, coeffs, constant: float = 0.0) -> Operator:
    """Diagonal unitary exp(-i (sum_j c_j n_j + constant)).

    coeffs maps mode index -> coefficient (dict or iterable of pairs).
    """
    if isinstance(coeffs, dict):
        coeffs = coeffs.items()
    return gate_operator(layout, circuits.PhaseShift(tuple(coeffs), constant))


def swap(layout: ModeLayout, mode_b: int, mode_c: int) -> Operator:
    """Permutation exchanging the Fock indices of two equal-dimension modes."""
    circuits._check_swap(layout, mode_b, mode_c)
    perm = (
        np.arange(layout.total_dim).reshape(layout.dims).swapaxes(mode_b, mode_c).ravel()
    )
    M = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    M[perm, np.arange(layout.total_dim)] = 1.0
    return Operator(layout, M, unitary=True)


def gate_operator(layout: ModeLayout, gate) -> Operator:
    """One gate as an Operator: a SWAP as its permutation, any other gate
    truncated to the layout (truncated_product)."""
    if isinstance(gate, circuits.Swap):
        return swap(layout, gate.mode_b, gate.mode_c)
    return truncated_product(
        layout, [circuits._factor(layout, gate, range(layout.num_modes))]
    )


def compose(plan: circuits.CircuitPlan) -> Operator:
    """Product of all gates, each truncated to plan.layout; plan.gates[0] is
    applied first (rightmost).  Intermediate states leak past the top of the
    ladder, so even its interior block differs from circuits.compress(plan),
    the compression of the untruncated circuit."""
    U = identity(plan.layout)
    for gate in plan.gates:
        U = gate_operator(plan.layout, gate) @ U
    return U


def conditional_phase(U: Operator | fock.Compression, n_b: int = 1) -> float:
    """Cross-Kerr coefficient of a circuit diagonal in n_a, per unit n_b.

    For a diagonal-in-number circuit the n_a n_b cross term is isolated from
    linear phase shifts by

        arg[<1,n|U|1,n> <0,n|U|0,n>* <1,0|U|1,0>* <0,0|U|0,0>] / n.

    Each element is read off the diagonal of the block (U.blocks) that
    holds its index, so no matrix is built.
    """
    if n_b < 1:
        raise ValueError("probe level n_b must be >= 1")
    layout = U.layout

    def amp(na, nb):
        i = layout.flat_index((na, nb) + (0,) * (layout.num_modes - 2))
        index, values = next(b for b in U.blocks if i in b.index)
        k = int(np.flatnonzero(index == i)[0])
        return values[k, k]

    z = amp(1, n_b) * np.conj(amp(0, n_b)) * np.conj(amp(1, 0)) * amp(0, 0)
    return float(np.angle(z)) / n_b


# --- loss: the beam splitter on an extended space ---


def bs_angle(reflectance: float) -> float:
    """Beam-splitter mixing angle arccos(sqrt(1 - R))."""
    loss._check_reflectance(reflectance)
    return math.acos(math.sqrt(1.0 - reflectance))


def master_equation_time(reflectance: float) -> float:
    """Dimensionless damping time t with R = 1 - exp(-t).

    R = 1 corresponds to infinite time and is rejected.
    """
    loss._check_reflectance(reflectance)
    if reflectance == 1.0:
        raise loss.ReflectanceError("R = 1 corresponds to infinite damping time")
    return -math.log(1.0 - reflectance)


def beam_splitter(
    layout: ModeLayout, signal_mode: int, ancilla_mode: int, reflectance: float
) -> Operator:
    """Beam-splitter unitary exp[theta (b v† - b† v)] on the full layout."""
    layout.check_mode(signal_mode)
    layout.check_mode(ancilla_mode)
    if signal_mode == ancilla_mode:
        raise fock.LayoutError("signal and ancilla modes must differ")
    theta = bs_angle(reflectance)
    b = annihilation(layout, signal_mode).matrix
    v = annihilation(layout, ancilla_mode).matrix
    gen = Operator(layout, theta * (b @ v.conj().T - b.conj().T @ v))
    return fock.expm(gen)


def sliding_window_loss_tables(d, reflectance):
    """loss._loss_tables with F's Toeplitz view of log_c taken as
    sliding_window_view(log_c, d)[::-1]."""
    n, log_fact, g, A, g_shifted = loss._ladder_tables(d)
    with np.errstate(divide="ignore"):
        log_t = np.log1p(-reflectance)  # -inf at R = 1
    n_log_t = np.multiply(n, log_t, out=np.zeros(d), where=n > 0)  # 0 log 0 = 0
    log_c = np.concatenate((np.full(d - 1, -np.inf), n * math.log(reflectance) - log_fact))
    F = np.add.outer(n_log_t - log_fact, log_fact)
    F += np.lib.stride_tricks.sliding_window_view(log_c, d)[::-1]
    np.exp(F, out=F)
    half = np.exp(0.5 * n_log_t)
    half[0] = 0.5
    S = g[:, None] * half / g_shifted
    return F, A, S


# --- su11: dense generators and the identity's truncated sides ---


def pair_lowering(layout, modes):
    """A = b b / 2 on one mode or b c on two, from the kron-embedded ladders."""
    b = annihilation(layout, modes[0]).matrix
    if len(modes) == 1:
        return b @ b / 2
    return b @ annihilation(layout, modes[1]).matrix


def dense_generators(layout, representation):
    """su11.generators(layout, representation) with its G1, G2 and G3 as
    dense matrices: G1 = (A + A†) Z_a and G2 = i (A - A†), with A = b b / 2
    (fock-single) or b c (fock-two-mode), and G3 = diag(su11._g3_values)."""
    gens = su11.generators(layout, representation)  # checks the layout
    modes = su11.FOCK_MODES[representation]
    A = pair_lowering(layout, modes)
    n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    z = 2.0 * n[0] - 1.0
    return dataclasses.replace(
        gens,
        g1=(A + A.conj().T) * z,  # times diag(Z_a): scale the columns
        g2=1j * (A - A.conj().T),
        g3=np.diag(su11._g3_values(modes, n)),
    )


def commutator_residual(gens: su11.Su11Generators, block: int | None = None) -> float:
    """Max deviation from [G1,G2]=-2iG3, [G2,G3]=2iG1, [G3,G1]=2iG2.

    For Fock representations, restrict to the interior block (bosonic mode
    indices <= block).
    """
    g1, g2, g3 = gens.g1, gens.g2, gens.g3
    if g1 is None:
        raise ValueError(f"{gens.representation} generators hold no matrices")
    residuals = [
        g1 @ g2 - g2 @ g1 + 2j * g3,
        g2 @ g3 - g3 @ g2 - 2j * g1,
        g3 @ g1 - g1 @ g3 - 2j * g2,
    ]
    if block is not None and gens.layout is not None:
        idx = gens.layout.interior_indices(block)
        residuals = [r[np.ix_(idx, idx)] for r in residuals]
    return float(max(np.max(np.abs(r)) for r in residuals))


def identity_factors(params: su11.CircuitParams, gens: su11.Su11Generators):
    """(left, right) sides of the five-factor identity in a Fock
    representation as matrices: left the product of the factors each
    truncated to the layout (truncated_product), truncation leakage
    included, and right the diagonal exp(i gamma G3) built from the phase
    vector su11.identity_factors gives.  su11.identity_factors' own left
    side is the compression of the exact product instead."""
    left = truncated_product(gens.layout, su11._left_factors(params, gens))
    return left.matrix, np.diag(su11.identity_factors(params, gens)[1])


# --- the products the compression tests share (test_fock, test_gaussian) ---


def case_factors(case, layout, params):
    """The factors of a case's product on layout: the left side of a Fock
    identity ("fock-single", "fock-two-mode") or a circuit's gates
    ("two-mode", "three-mode", "three-mode-swap")."""
    if case in ("fock-single", "fock-two-mode"):
        return su11._left_factors(params, su11.generators(layout, case))
    if case == "two-mode":
        return circuits._plan_factors(circuits.two_mode_plan(params, layout))
    plan = circuits.three_mode_plan(params, layout, case == "three-mode-swap")
    return circuits._plan_factors(plan)


def case_params(case):
    """verify's angles: the identity's, or the circuits'."""
    if case in ("fock-single", "fock-two-mode"):
        return su11.solve_params(0.3, 0.4)
    return su11.solve_params(0.5, 0.5)


# the (case, dims, block) of test_fock.py's TestBlockBox, which
# test_gaussian.py also checks against the oracle walk
BLOCK_BOX_CASES = [
    # verify's own (D, block) pairs
    ("fock-single", [2, 100], 40),
    ("fock-single", [2, 21], 5),
    ("fock-single", [2, 60], 12),
    ("two-mode", [2, 40], 15),
    ("three-mode", [2, 14, 14], 5),
    ("fock-two-mode", [2, 14, 14], 5),
    # block 0: a two-level box
    ("fock-single", [2, 100], 0),
    ("fock-two-mode", [2, 14, 14], 0),
    ("three-mode", [2, 14, 14], 0),
    # a three-level box
    ("two-mode", [2, 40], 2),
    # a block >= D - 1: the box is the whole layout
    ("fock-single", [2, 21], 20),
    ("fock-two-mode", [2, 8, 8], 40),
    ("two-mode", [2, 40], 39),
    ("three-mode", [2, 14, 14], 20),
]
