"""Dense reference objects that kerramp itself never builds.

kerramp composes and evolves by sector blocks (fock.Compression, the lossy
pass's parity blocks) and phase vectors.  This module keeps the dense form
the tests check that against: kron-embedded ladder operators, every gate
truncated to a layout as an N x N fock.Operator, gate-by-gate products,
dense conjugation of a state, the beam splitter on an extended space, and
the dense SU(1,1) generators and identity sides.
"""

import dataclasses
import math

import numpy as np

from kerramp import circuits, fock, loss, su11
from kerramp.fock import DensityMatrix, ModeLayout, Operator

# --- fock: ladder operators, dense conjugation, the truncated product ---


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


def sqrtm_psd(rho: DensityMatrix) -> Operator:
    """Hermitian PSD square root via eigendecomposition (fock._psd_root)."""
    H = (rho.matrix + rho.matrix.conj().T) / 2
    return Operator(rho.layout, fock._psd_root(*np.linalg.eigh(H)))


def truncated_product(layout: ModeLayout, factors) -> Operator:
    """Product of factors, each truncated to layout; factors[0] is applied
    first, and every PairSqueeze must act on the same modes.

    Walked sector by sector on the layout's own ladders (fock._sector_blocks),
    and the blocks placed in the full matrix.  With no squeezer the product
    is diagonal, and exact on any ladder.
    """
    modes = fock._squeezed_modes(layout, factors)
    if modes is None:
        return Operator(layout, np.diag(fock.phase_vector(layout, factors)), unitary=True)
    box = tuple(layout.dims[m] for m in modes)
    spectators = fock._spectators(layout, modes)
    walked, _ = fock._sector_blocks(layout, factors, modes, spectators, box)
    return Operator(layout, fock._place_blocks(layout, walked), unitary=True)


def eye_parity_blocks(layout, squeezers):
    """fock.parity_blocks as each parity ladder's exponential times the
    identity: a product of the ladder's eigenbasis against np.eye(size)."""
    box = (layout.dims[squeezers[0].modes[0]],)
    ladders = [
        (fock._ladder_eig(coupling), np.eye(size, dtype=complex))
        for _, size, _, coupling in fock._sectors(box, box)
    ]
    return {
        s: tuple(fock._ladder_exp(eig, s.theta, eye) for eig, eye in ladders)
        for s in dict.fromkeys(squeezers)
    }


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
    A = pair_lowering(layout, (1,) if representation == "fock-single" else (1, 2))
    n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    z = 2.0 * n[0] - 1.0
    return dataclasses.replace(
        gens,
        g1=(A + A.conj().T) * z,  # times diag(Z_a): scale the columns
        g2=1j * (A - A.conj().T),
        g3=np.diag(su11._g3_values(representation, n)),
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
        idx = gens.layout.interior_indices(block, modes=range(1, gens.layout.num_modes))
        residuals = [r[np.ix_(idx, idx)] for r in residuals]
    return float(max(np.max(np.abs(r)) for r in residuals))


def identity_factors(params: su11.CircuitParams, gens: su11.Su11Generators):
    """(left, right) sides of the five-factor identity in a Fock
    representation as matrices: left the product of the factors each
    truncated to the layout (truncated_product), truncation leakage
    included, and right the diagonal exp(i gamma G3).  su11.identity_factors
    gives the 2x2 representation's sides."""
    left = truncated_product(gens.layout, su11._left_factors(params, gens))
    return left.matrix, np.diag(su11._right_side(params, gens))
