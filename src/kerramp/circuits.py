"""The physical gates and the builders of the amplification circuits.

Gates: single- and two-mode squeezers (fock.PairSqueeze), cross-Kerr and
diagonal phase shifters (phase factors with their own phase(n)), SWAP: all
but SWAP are factors of fock.compress_product as they stand.  Circuits: the
two-mode squeeze-Kerr-squeeze amplifier and its three-mode analogue built
on two-mode squeezing, each returned together with the amplified Kerr it
must equal.  That right side is diagonal, so it is kept as its phase
vector (fock.phase_vector), and equivalence_residual compares the circuit
with it on the interior block (fock.diagonal_residual).

A plan's product is compress(plan), which the builders return as lhs: the
compression of the untruncated circuit to the layout.  At fixed n_a every
gate is a Gaussian unitary on b, or on b and c, so its elements come
exactly from the gates' composed Gaussian kernels (fock.compress_product)
at any squeeze strength.  It is kept as its conserved-sector blocks
(fock.Compression), which equivalence_residual reads one by one.  A
plan's SWAPs must leave no net mode permutation, as the pairs
K_ac = SWAP_bc K_ab SWAP_bc of three_mode_plan do.  No gate is built as a
dense matrix here: the gates truncated to the layout, their gate-by-gate
product and the conditional phase read off a circuit's blocks are the
tests' oracles (tests/oracles.py).

Gate products written left-to-right in the docstrings act right-to-left
on states, i.e. the rightmost factor is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import ModeLayout, Operator
from .su11 import CircuitParams


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


Gate = fock.PairSqueeze | Kerr | PhaseShift | Swap


@dataclass(frozen=True)
class CircuitPlan:
    """Ordered gate list (first entry applied first) over a layout."""

    layout: ModeLayout
    gates: tuple[Gate, ...]


def _check_swap(layout: ModeLayout, mode_b: int, mode_c: int) -> None:
    layout.check_mode(mode_b)
    layout.check_mode(mode_c)
    if layout.dims[mode_b] != layout.dims[mode_c]:
        raise fock.LayoutError("SWAP requires equal mode dimensions")


def _factor(layout: ModeLayout, gate: Gate, where):
    """A squeezer or diagonal gate, its modes checked against layout, as the
    same gate with each mode j relabelled to mode where[j]: a factor of
    fock.compress_product."""
    if not isinstance(gate, (fock.PairSqueeze, Kerr, PhaseShift)):
        raise TypeError(f"unknown gate {gate!r}")
    for mode in gate.modes:
        layout.check_mode(mode)
    if isinstance(gate, Kerr):
        if gate.mode_a == gate.mode_b:
            raise fock.LayoutError("cross-Kerr needs two distinct modes")
        return Kerr(where[gate.mode_a], where[gate.mode_b], gate.dphi)
    if isinstance(gate, PhaseShift):
        return PhaseShift(tuple((where[m], c) for m, c in gate.coeffs), gate.constant)
    return fock.PairSqueeze(tuple(where[m] for m in gate.modes), gate.theta)


def compress(plan: CircuitPlan) -> fock.Compression:
    """Compression to plan.layout of the untruncated circuit, kept as its
    sector blocks (fock.compress_product of _plan_factors)."""
    return fock.compress_product(plan.layout, _plan_factors(plan))


def _plan_factors(plan: CircuitPlan) -> list:
    """The plan's gates as compress_product factors.  A SWAP maps the
    layout's box onto itself, so every SWAP is moved to the end of the
    circuit, relabelling the modes of the gates it passes.  There the SWAPs
    must cancel, as the pairs of three_mode_plan do: a net mode permutation
    raises OperatorError, before any composition."""
    layout = plan.layout
    where = list(range(layout.num_modes))  # gate mode -> mode after pending swaps
    factors = []
    for gate in plan.gates:
        if isinstance(gate, Swap):
            _check_swap(layout, gate.mode_b, gate.mode_c)
            where[gate.mode_b], where[gate.mode_c] = where[gate.mode_c], where[gate.mode_b]
        else:
            factors.append(_factor(layout, gate, where))
    if where != list(range(layout.num_modes)):
        raise fock.OperatorError(f"the plan's SWAPs leave the modes permuted as {where}")
    return factors


def two_mode_plan(params: CircuitParams, layout: ModeLayout) -> CircuitPlan:
    """Two-mode amplifier P' S1 K(d) P S2 P K(d) S1 as a plan; gates[0] = S1
    acts first, with P = exp(-i (d/2) n_b) and the outer phase shifter
    P' = exp(-i beta'), beta' = (gamma - delta)(n_a - 1/2) - gamma n_b."""
    if layout.num_modes != 2 or layout.dims[0] != 2:
        raise fock.LayoutError(
            "two-mode amplifier needs layout (a: 2, b: D), got " + str(layout.dims)
        )
    g, d = params.gamma, params.delta
    gates = (
        fock.PairSqueeze((1,), params.theta1),
        Kerr(0, 1, d),
        PhaseShift(((1, d / 2.0),)),
        fock.PairSqueeze((1,), params.theta2),
        PhaseShift(((1, d / 2.0),)),
        Kerr(0, 1, d),
        fock.PairSqueeze((1,), params.theta1),
        PhaseShift(((0, g - d), (1, -g)), -(g - d) / 2.0),
    )
    return CircuitPlan(layout, gates)


def three_mode_plan(
    params: CircuitParams, layout: ModeLayout, use_swap_decomposition: bool = False
) -> CircuitPlan:
    """Three-mode amplifier based on two-mode squeezing as a plan: the
    squeezers S(theta1) S(theta2) S(theta1) on bc interleaved with the
    Kerr-and-phase factors K_aj(d) exp(-i (d/2) n_j) on ac, then ab, and the
    outer phase shifter P' = exp(-i beta'),
    beta' = 2(gamma - delta)(n_a - 1/2) - gamma (n_b + n_c).
    With use_swap_decomposition, every K_ac is realized as SWAP_bc K_ab SWAP_bc.
    """
    if layout.num_modes != 3 or layout.dims[0] != 2 or layout.dims[1] != layout.dims[2]:
        raise fock.LayoutError(
            "three-mode amplifier needs layout (a: 2, b: D, c: D), got "
            + str(layout.dims)
        )
    g, d = params.gamma, params.delta
    # e^{i (d/2)(2 n_a n_j - n_j)} = K_aj(d) exp(-i (d/2) n_j)
    if use_swap_decomposition:
        kerr_c = (Swap(1, 2), Kerr(0, 1, d), Swap(1, 2))
    else:
        kerr_c = (Kerr(0, 2, d),)
    kerr_ps = (*kerr_c, PhaseShift(((2, d / 2.0),)), Kerr(0, 1, d), PhaseShift(((1, d / 2.0),)))
    gates = (
        fock.PairSqueeze((1, 2), params.theta1),
        *kerr_ps,
        fock.PairSqueeze((1, 2), params.theta2),
        *kerr_ps,
        fock.PairSqueeze((1, 2), params.theta1),
        PhaseShift(((0, 2.0 * (g - d)), (1, -g), (2, -g)), -(g - d)),
    )
    return CircuitPlan(layout, gates)


def build_two_mode_amplifier(params: CircuitParams, layout: ModeLayout):
    """Two-mode amplifier (two_mode_plan) and its equivalent amplified Kerr
    unitary K(2 gamma).

    Returns (plan, lhs, rhs); lhs = compress(plan) is the compression of
    the untruncated circuit to the layout, rhs the phase vector of the
    Kerr gate it must equal on the interior block.
    """
    plan = two_mode_plan(params, layout)
    rhs = fock.phase_vector(layout, [Kerr(0, 1, params.dphi_amp)])
    return plan, compress(plan), rhs


def build_three_mode_amplifier(
    params: CircuitParams, layout: ModeLayout, use_swap_decomposition: bool = False
):
    """Three-mode amplifier (three_mode_plan) and its equivalent amplified
    Kerr unitary K_ab(2 gamma) K_ac(2 gamma).

    Returns (plan, lhs, rhs); lhs = compress(plan) is the compression of
    the untruncated circuit to the layout, rhs the phase vector of the pair
    of amplified Kerr gates, which lhs must equal on the interior block.
    """
    plan = three_mode_plan(params, layout, use_swap_decomposition)
    g2 = params.dphi_amp
    rhs = fock.phase_vector(layout, [Kerr(0, 1, g2), Kerr(0, 2, g2)])
    return plan, compress(plan), rhs


def equivalence_residual(
    lhs: Operator | fock.Compression, rhs: np.ndarray, block: int
) -> float:
    """Max-norm of lhs - diag(rhs) on the interior block (bosonic indices
    <= block), rhs being a builder's phase vector.

    With lhs from a builder (compress) this measures the circuit itself, read
    block by block; with a dense product of the gates truncated to the
    layout, as the tests build it, it also holds their truncation leakage.
    """
    return fock.diagonal_residual(lhs, rhs, block)
