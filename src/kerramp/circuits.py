"""Builders for the physical gates and the amplification circuits.

Gates: single- and two-mode squeezers, cross-Kerr, diagonal phase shifters,
SWAP.  Circuits: the two-mode squeeze-Kerr-squeeze amplifier and its
three-mode analogue built on two-mode squeezing, each returned together
with the equivalent single amplified-Kerr unitary for verification.

Two products of a plan's gates are on offer.  compose(plan) multiplies the
gates truncated to the plan's layout; intermediate states leak past the top
of the ladder, so even its interior block differs from the untruncated
circuit's.  compress(plan), which the builders return as lhs, is the
compression of the untruncated circuit to the layout: its elements are the
exact operator's, composed on a working ladder (its work_dim) that doubles
until the box columns' leakage onto the ladder's top tenth (its leakage)
is below fock.SETTLE_TOL.

Operator products written left-to-right in the builders act right-to-left
on states, i.e. the rightmost factor is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fock
from .fock import ModeLayout, Operator
from .su11 import CircuitParams


@dataclass(frozen=True)
class SqueezeSingle:
    mode: int
    theta: float


@dataclass(frozen=True)
class SqueezeTwoMode:
    mode_b: int
    mode_c: int
    theta: float


@dataclass(frozen=True)
class Kerr:
    """Cross-Kerr gate exp(i phase(n)), phase = dphi n_a n_b; here and in
    PhaseShift, n[j] holds the Fock indices of mode j over the states."""

    mode_a: int
    mode_b: int
    dphi: float

    @property
    def modes(self) -> tuple[int, ...]:
        return (self.mode_a, self.mode_b)

    def phase(self, n):
        return self.dphi * n[self.mode_a] * n[self.mode_b]


@dataclass(frozen=True)
class PhaseShift:
    """Diagonal gate exp(i phase(n)), phase = -(sum_j coeffs[j] n_j + constant)."""

    coeffs: tuple[tuple[int, float], ...]
    constant: float = 0.0

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(mode for mode, _ in self.coeffs)

    def phase(self, n):
        return -sum((c * n[mode] for mode, c in self.coeffs), self.constant)


@dataclass(frozen=True)
class Swap:
    mode_b: int
    mode_c: int


Gate = SqueezeSingle | SqueezeTwoMode | Kerr | PhaseShift | Swap


@dataclass(frozen=True)
class CircuitPlan:
    """Ordered gate list (first entry applied first) over a layout."""

    layout: ModeLayout
    gates: tuple[Gate, ...]
    params: CircuitParams


def squeeze_single(layout: ModeLayout, mode: int, theta: float) -> Operator:
    """Single-mode quadrature squeezer exp(-(theta/2)(b b - b† b†)),
    built per parity sector (fock.pair_squeezer)."""
    return fock.pair_squeezer(layout, (mode,), theta)


def squeeze_two_mode(
    layout: ModeLayout, mode_b: int, mode_c: int, theta: float
) -> Operator:
    """Two-mode squeezer exp(-theta (b c - b† c†)), built per n_b - n_c
    sector (fock.pair_squeezer)."""
    return fock.pair_squeezer(layout, (mode_b, mode_c), theta)


def _check_diagonal(layout: ModeLayout, gate: Kerr | PhaseShift) -> None:
    for mode in gate.modes:
        layout.check_mode(mode)
    if isinstance(gate, Kerr) and gate.mode_a == gate.mode_b:
        raise fock.LayoutError("cross-Kerr needs two distinct modes")


def _diagonal(layout: ModeLayout, gate: Kerr | PhaseShift) -> Operator:
    """A diagonal gate's unitary exp(i gate.phase(n)) on the layout."""
    _check_diagonal(layout, gate)
    n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    return fock.diagonal_unitary(layout, gate.phase(n) + np.zeros(layout.total_dim))


def kerr(layout: ModeLayout, mode_a: int, mode_b: int, dphi: float) -> Operator:
    """Cross-Kerr unitary exp(i dphi n_a n_b), diagonal in the Fock basis."""
    return _diagonal(layout, Kerr(mode_a, mode_b, dphi))


def phase_shift(layout: ModeLayout, coeffs, constant: float = 0.0) -> Operator:
    """Diagonal unitary exp(-i (sum_j c_j n_j + constant)).

    coeffs maps mode index -> coefficient (dict or iterable of pairs).
    """
    if isinstance(coeffs, dict):
        coeffs = coeffs.items()
    return _diagonal(layout, PhaseShift(tuple(coeffs), constant))


def _check_swap(layout: ModeLayout, mode_b: int, mode_c: int) -> None:
    layout.check_mode(mode_b)
    layout.check_mode(mode_c)
    if layout.dims[mode_b] != layout.dims[mode_c]:
        raise fock.LayoutError("SWAP requires equal mode dimensions")


def swap(layout: ModeLayout, mode_b: int, mode_c: int) -> Operator:
    """Permutation exchanging the Fock indices of two equal-dimension modes."""
    _check_swap(layout, mode_b, mode_c)
    perm = (
        np.arange(layout.total_dim).reshape(layout.dims).swapaxes(mode_b, mode_c).ravel()
    )
    M = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    M[perm, np.arange(layout.total_dim)] = 1.0
    return Operator(layout, M, unitary=True)


def gate_operator(layout: ModeLayout, gate: Gate) -> Operator:
    """Materialize one gate descriptor as an Operator."""
    if isinstance(gate, SqueezeSingle):
        return squeeze_single(layout, gate.mode, gate.theta)
    if isinstance(gate, SqueezeTwoMode):
        return squeeze_two_mode(layout, gate.mode_b, gate.mode_c, gate.theta)
    if isinstance(gate, (Kerr, PhaseShift)):
        return _diagonal(layout, gate)
    if isinstance(gate, Swap):
        return swap(layout, gate.mode_b, gate.mode_c)
    raise TypeError(f"unknown gate {gate!r}")


def compose(plan: CircuitPlan) -> Operator:
    """Product of all gates; plan.gates[0] is applied first (rightmost)."""
    U = fock.identity(plan.layout)
    for gate in plan.gates:
        U = gate_operator(plan.layout, gate) @ U
    return U


def _relabelled(phase, where):
    """phase of a gate whose mode j now sits at mode where[j]."""
    return lambda n: phase([n[w] for w in where])


def compress(plan: CircuitPlan) -> Operator:
    """Compression to plan.layout of the untruncated circuit.

    See fock.compress_product for the working ladder (reported as the
    result's work_dim), the leakage that certifies it and the cap.  A SWAP
    maps the layout's box onto itself, so every SWAP is moved to the end of
    the circuit, relabelling the modes of the gates it passes, and applied
    to the compression.
    """
    layout = plan.layout
    where = list(range(layout.num_modes))  # gate mode -> mode after pending swaps
    swaps, factors = [], []
    for gate in plan.gates:
        if isinstance(gate, Swap):
            _check_swap(layout, gate.mode_b, gate.mode_c)
            swaps.append(gate)
            where[gate.mode_b], where[gate.mode_c] = where[gate.mode_c], where[gate.mode_b]
        elif isinstance(gate, SqueezeSingle):
            factors.append(fock.PairSqueeze((where[gate.mode],), gate.theta))
        elif isinstance(gate, SqueezeTwoMode):
            modes = (where[gate.mode_b], where[gate.mode_c])
            factors.append(fock.PairSqueeze(modes, gate.theta))
        else:
            _check_diagonal(layout, gate)
            factors.append(fock.PhaseFactor(_relabelled(gate.phase, tuple(where))))
    U = fock.compress_product(layout, factors)
    if where != list(range(layout.num_modes)):
        M = U.matrix
        for gate in swaps:
            M = swap(layout, gate.mode_b, gate.mode_c).matrix @ M
        U = replace(U, matrix=M)
    return U


def beta_prime_two_mode(params: CircuitParams):
    """Coefficients of the outer phase shifter P' = exp(-i beta'),
    beta' = (gamma - delta)(n_a - 1/2) - gamma n_b."""
    g, d = params.gamma, params.delta
    return {0: g - d, 1: -g}, -(g - d) / 2.0


def beta_prime_three_mode(params: CircuitParams):
    """P' coefficients for the three-mode circuit:
    beta' = 2(gamma - delta)(n_a - 1/2) - gamma (n_b + n_c)."""
    g, d = params.gamma, params.delta
    return {0: 2.0 * (g - d), 1: -g, 2: -g}, -(g - d)


def two_mode_plan(params: CircuitParams, layout: ModeLayout) -> CircuitPlan:
    """Two-mode amplifier P' S1 K(d) P S2 P K(d) S1 as a plan; gates[0] = S1
    acts first, with P = exp(-i (d/2) n_b) and P' from beta_prime_two_mode."""
    if layout.num_modes != 2 or layout.dims[0] != 2:
        raise fock.LayoutError(
            "two-mode amplifier needs layout (a: 2, b: D), got " + str(layout.dims)
        )
    d = params.delta
    pp_coeffs, pp_const = beta_prime_two_mode(params)
    gates = (
        SqueezeSingle(1, params.theta1),
        Kerr(0, 1, d),
        PhaseShift(((1, d / 2.0),)),
        SqueezeSingle(1, params.theta2),
        PhaseShift(((1, d / 2.0),)),
        Kerr(0, 1, d),
        SqueezeSingle(1, params.theta1),
        PhaseShift(tuple(pp_coeffs.items()), pp_const),
    )
    return CircuitPlan(layout, gates, params)


def build_two_mode_amplifier(params: CircuitParams, layout: ModeLayout):
    """Two-mode amplifier (two_mode_plan) and its equivalent amplified Kerr
    unitary K(2 gamma).

    Returns (plan, lhs, rhs); lhs = compress(plan) is the compression of
    the untruncated circuit to the layout, rhs the single Kerr gate it must
    equal on the interior block.
    """
    plan = two_mode_plan(params, layout)
    rhs = kerr(layout, 0, 1, params.dphi_amp)
    return plan, compress(plan), rhs


def build_three_mode_amplifier(
    params: CircuitParams, layout: ModeLayout, use_swap_decomposition: bool = False
):
    """Three-mode amplifier based on two-mode squeezing.

    lhs = compress(plan) is the compression of the untruncated seven-factor
    product (squeezers interleaved with Kerr-and-phase factors on ab and ac)
    together with the outer phase shifter; rhs is the pair of amplified Kerr
    gates K_ab(2g) K_ac(2g).
    With use_swap_decomposition, every K_ac factor is realized as
    SWAP_bc K_ab SWAP_bc.
    """
    if layout.num_modes != 3 or layout.dims[0] != 2 or layout.dims[1] != layout.dims[2]:
        raise fock.LayoutError(
            "three-mode amplifier needs layout (a: 2, b: D, c: D), got "
            + str(layout.dims)
        )
    d = params.delta

    def kerr_ps(signal_mode):
        # e^{i (d/2)(2 n_a n_j - n_j)} = K_aj(d) * exp(-i (d/2) n_j)
        if use_swap_decomposition and signal_mode == 2:
            return (
                Swap(1, 2),
                Kerr(0, 1, d),
                Swap(1, 2),
                PhaseShift(((signal_mode, d / 2.0),)),
            )
        return (
            Kerr(0, signal_mode, d),
            PhaseShift(((signal_mode, d / 2.0),)),
        )

    pp_coeffs, pp_const = beta_prime_three_mode(params)
    gates = (
        SqueezeTwoMode(1, 2, params.theta1),
        *kerr_ps(2),
        *kerr_ps(1),
        SqueezeTwoMode(1, 2, params.theta2),
        *kerr_ps(2),
        *kerr_ps(1),
        SqueezeTwoMode(1, 2, params.theta1),
        PhaseShift(tuple(pp_coeffs.items()), pp_const),
    )
    plan = CircuitPlan(layout, gates, params)
    rhs = kerr(layout, 0, 1, params.dphi_amp) @ kerr(layout, 0, 2, params.dphi_amp)
    return plan, compress(plan), rhs


def equivalence_residual(lhs: Operator, rhs: Operator, block: int) -> float:
    """Max-norm of lhs - rhs on the interior block (bosonic indices <= block).

    With lhs from a builder (compress) this measures the circuit itself; with
    lhs = compose(plan) it also holds the truncation leakage of the gates.
    """
    layout = lhs.layout
    idx = layout.interior_indices(block, modes=range(1, layout.num_modes))
    diff = (lhs.matrix - rhs.matrix)[np.ix_(idx, idx)]
    return float(np.max(np.abs(diff)))


def conditional_phase(U: Operator, n_b: int = 1) -> float:
    """Cross-Kerr coefficient of a circuit diagonal in n_a, per unit n_b.

    For a diagonal-in-number circuit the n_a n_b cross term is isolated from
    linear phase shifts by

        arg[<1,n|U|1,n> <0,n|U|0,n>* <1,0|U|1,0>* <0,0|U|0,0>] / n.
    """
    if n_b < 1:
        raise ValueError("probe level n_b must be >= 1")
    layout = U.layout

    def amp(na, nb):
        i = layout.flat_index((na, nb) + (0,) * (layout.num_modes - 2))
        return U.matrix[i, i]

    z = amp(1, n_b) * np.conj(amp(0, n_b)) * np.conj(amp(1, 0)) * amp(0, 0)
    return float(np.angle(z)) / n_b
