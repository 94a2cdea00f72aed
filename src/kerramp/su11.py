"""SU(1,1) parameter relations for squeeze-amplified cross-Kerr shifts.

Solves the angle relations linking the initial conditional phase delta and
the outer squeeze strength theta1 to the inner squeeze theta2 and the
amplified phase 2*gamma, inverts them (with saturation handling), and
verifies the five-factor group identity

    exp(i th1 G2) exp(i d/2 G3) exp(i th2 G2) exp(i d/2 G3) exp(i th1 G2)
        = exp(i gamma G3)

in the 2x2 non-Hermitian representation and in truncated Fock
representations (single-mode and two-mode squeezing families).

identity_factors gives the identity's two sides in the representation's
own form: 2x2 matrices, products of the factors in closed form, or in a
Fock representation (FOCK_MODES) the compression of the exact left side
to the layout (fock.compress_product) and the phase vector of the
diagonal right side.  No Fock generator is built as a matrix:
exp(i theta G2) is the squeezer fock.PairSqueeze and exp(i c G3) a phase
factor.  The dense Fock generators, their commutators and the identity's
sides truncated to the layout are the tests' oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import ModeLayout


class ParameterRangeError(ValueError):
    """delta outside the supported open interval (0, pi/2), theta1 whose
    cosh(2 theta1) is not a finite float, or theta2 that is NaN."""


@dataclass(frozen=True)
class Saturated:
    """No real theta1 reproduces the requested theta2; the amplified phase
    is capped at pi.  theta2 carries the circuit's sign, -|theta2|, as
    solve_params gives it."""

    delta: float
    theta2: float
    dphi_amp: float = math.pi


@dataclass(frozen=True)
class CircuitParams:
    """Angle set of one amplification circuit plus derived quantities."""

    delta: float
    theta1: float
    theta2: float
    gamma: float

    @property
    def dphi_amp(self) -> float:
        return 2.0 * self.gamma

    @property
    def kappa(self) -> float:
        return 2.0 * self.gamma / self.delta


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.pi / 2:
        raise ParameterRangeError(
            f"delta must lie in the open interval (0, pi/2), got {delta}"
        )


def solve_params(delta: float, theta1: float) -> CircuitParams:
    """Solve for theta2 and gamma given delta and theta1.

    theta2 = arctanh(-cos(delta) tanh(2 theta1)),
    gamma  = arctan(tan(delta) cosh(2 theta1)).

    The principal arctan branch is correct on delta in (0, pi/2) where both
    tan(delta) and the resulting gamma stay in the first quadrant.
    """
    _check_delta(delta)
    try:
        cosh2 = math.cosh(2.0 * theta1)  # nan at nan, inf at +-inf
    except OverflowError:  # |2 theta1| past about 710
        cosh2 = math.inf
    if not math.isfinite(cosh2):
        raise ParameterRangeError(
            f"theta1 must have a finite cosh(2 theta1), got theta1 = {theta1}"
        )
    theta2 = math.atanh(-math.cos(delta) * math.tanh(2.0 * theta1))
    gamma = math.atan(math.tan(delta) * cosh2)
    return CircuitParams(delta=delta, theta1=theta1, theta2=theta2, gamma=gamma)


def invert_theta2(delta: float, theta2: float):
    """Outer squeeze theta1 >= 0 reproducing |theta2|, or Saturated.

    Solves tanh(2 theta1) = |tanh(theta2)| / cos(delta).  When the right
    side reaches 1 no real solution exists and the amplified phase saturates
    at pi; so does theta2 = +-inf.
    """
    _check_delta(delta)
    if math.isnan(theta2):
        raise ParameterRangeError(f"theta2 must be a number, got theta2 = {theta2}")
    ratio = abs(math.tanh(theta2)) / math.cos(delta)
    if ratio >= 1.0:
        return Saturated(delta=delta, theta2=-abs(theta2))
    return 0.5 * math.atanh(ratio)


def solve_theta2(delta: float, theta2: float):
    """CircuitParams whose inner squeeze has magnitude |theta2|, or Saturated.

    The composition of invert_theta2 and solve_params, so the circuit's
    theta2 comes out <= 0 whatever the sign given.
    """
    theta1 = invert_theta2(delta, theta2)
    if isinstance(theta1, Saturated):
        return theta1
    return solve_params(delta, theta1)


def kappa_small_delta(theta1: float) -> float:
    """Small-delta amplification factor 2 cosh(2 theta1)."""
    return 2.0 * math.cosh(2.0 * theta1)


def db_to_theta(db: float) -> float:
    """Squeeze parameter from a quadrature-variance level in dB (<= 0).

    Convention: e^(-2 theta) = 10^(db/10), i.e. theta = |db| ln(10) / 20.
    """
    if not db <= 0:  # NaN too
        raise ValueError(f"squeezing level must be <= 0 dB, got {db}")
    return abs(db) * math.log(10.0) / 20.0


@dataclass(frozen=True)
class Su11Generators:
    """Generator triple (G1, G2, G3) in one representation.

    For matrix-2x2 the generators are bare 2x2 arrays and layout is None.
    A Fock representation is its layout alone: the identity's factors are
    squeezers and phase factors over it (_left_factors), and g1, g2 and g3
    are None.
    """

    representation: str
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None
    g3: np.ndarray | None = None
    layout: ModeLayout | None = None


# The modes each Fock representation squeezes: b, or b and c (mode 0 is a).
FOCK_MODES = {"fock-single": (1,), "fock-two-mode": (1, 2)}


def _g3_values(modes, n) -> np.ndarray:
    """G3 (diagonal) from the per-mode Fock indices n of a Fock representation
    squeezing modes: (sum_j n_j + len(modes) / 2) (2 n_a - 1)."""
    return (sum(n[j] for j in modes) + len(modes) / 2) * (2.0 * n[0] - 1.0)


def generators(layout: ModeLayout | None, representation: str) -> Su11Generators:
    """Build the SU(1,1) generator triple in the requested representation.

    fock-single needs layout (a: 2, b: D); fock-two-mode needs
    (a: 2, b: D, c: D); matrix-2x2 ignores the layout.  In both Fock
    representations G1 = (A + A†) Z_a and G2 = i (A - A†), with
    A = b b / 2 or b c and Z_a = 2 n_a - 1, and G3 is diagonal
    (_g3_values); the returned triple holds the layout, not the matrices.
    """
    if representation == "matrix-2x2":
        g1 = np.array([[0, 1], [-1, 0]], dtype=complex)
        g2 = np.array([[0, -1j], [-1j, 0]], dtype=complex)
        g3 = np.array([[1, 0], [0, -1]], dtype=complex)
        return Su11Generators(representation, g1, g2, g3)

    if layout is None:
        raise fock.LayoutError(f"representation {representation} requires a layout")
    if representation not in FOCK_MODES:
        raise ValueError(f"unknown representation {representation!r}")
    modes = FOCK_MODES[representation]
    if layout.num_modes <= modes[-1] or layout.dims[0] != 2:
        names = ", ".join(["a: 2"] + [f"{'abc'[j]}: D" for j in modes])
        raise fock.LayoutError(f"{representation} needs layout ({names}), got {layout.dims}")
    return Su11Generators(representation, layout=layout)


def _g3_factor(gens: Su11Generators, coeff: float) -> fock.PhaseFactor:
    """exp(i coeff G3) in a Fock representation, as a diagonal factor."""
    modes = FOCK_MODES[gens.representation]
    return fock.PhaseFactor(lambda n: coeff * _g3_values(modes, n))


def _left_factors(params: CircuitParams, gens: Su11Generators) -> tuple:
    """The five factors of the identity's left side in a Fock representation;
    exp(i theta G2) is the squeezer with that theta on b, or on b and c."""
    modes = FOCK_MODES[gens.representation]
    g3 = _g3_factor(gens, params.delta / 2.0)
    return (
        fock.PairSqueeze(modes, params.theta1),
        g3,
        fock.PairSqueeze(modes, params.theta2),
        g3,
        fock.PairSqueeze(modes, params.theta1),
    )


def _exp_g2(theta: float) -> np.ndarray:
    """exp(i theta G2) in the 2x2 representation, the boost
    [[cosh theta, sinh theta], [sinh theta, cosh theta]]."""
    c, sh = math.cosh(theta), math.sinh(theta)
    return np.array([[c, sh], [sh, c]], dtype=complex)


def _exp_g3(coeff: float) -> np.ndarray:
    """exp(i coeff G3) in the 2x2 representation, diag(e^(i coeff), e^(-i coeff))."""
    return np.diag([np.exp(1j * coeff), np.exp(-1j * coeff)])


def identity_factors(params: CircuitParams, gens: Su11Generators):
    """(left, right) sides of the five-factor identity in the
    representation's own form.

    In the 2x2 representation, non-Hermitian, both are matrices, products
    of the closed-form factors _exp_g2 (a boost) and _exp_g3 (a phase).  In
    a Fock representation left is the compression to gens.layout of the
    untruncated left side (fock.compress_product), kept as its sector
    blocks, and right is exp(i gamma G3) as its phase vector.
    """
    if gens.layout is not None:
        left = fock.compress_product(gens.layout, _left_factors(params, gens))
        return left, fock.phase_vector(gens.layout, [_g3_factor(gens, params.gamma)])
    eg2_1, eg3 = _exp_g2(params.theta1), _exp_g3(params.delta / 2.0)
    left = eg2_1 @ eg3 @ _exp_g2(params.theta2) @ eg3 @ eg2_1
    return left, _exp_g3(params.gamma)


def verify_identity(
    params: CircuitParams, gens: Su11Generators, block: int | None = None
) -> float:
    """Max-norm residual of the five-factor identity, restricted to the
    interior block for Fock representations (block = max bosonic index).

    In the Fock representations the sides (identity_factors) are taken on
    gens.layout.interior_box(block), or the whole layout when block is None,
    where the left side is exact, and compared block by block
    (fock.diagonal_residual).
    """
    if gens.layout is not None and block is not None:
        gens = Su11Generators(gens.representation, layout=gens.layout.interior_box(block))
    left, right = identity_factors(params, gens)
    if gens.layout is None:
        return float(np.max(np.abs(left - right)))
    return fock.diagonal_residual(left, right, block)


def verify_matrix_derivation(params: CircuitParams):
    """Evaluate the 2x2 product V D(d) w[[1,x],[x,1]] D(d) V and return
    (x, w, y) with y the resulting diagonal entry.

    Here V = exp(i theta1 G2), D(d) = exp(i delta/2 G3),
    x = -cos(delta) tanh(2 theta1), w = 1/sqrt(1-x^2), and the product
    must be diag(y, y*) with |y| = 1 and arg y = gamma.  Raises if the
    product fails to be of that form.
    """
    d, t1 = params.delta, params.theta1
    x = -math.cos(d) * math.tanh(2.0 * t1)
    w = 1.0 / math.sqrt(1.0 - x * x)
    V, D = _exp_g2(t1), _exp_g3(d / 2.0)
    M = V @ D @ (w * np.array([[1.0, x], [x, 1.0]], dtype=complex)) @ D @ V
    off = max(abs(M[0, 1]), abs(M[1, 0]))
    if off > 1e-10:
        raise ArithmeticError(f"product is not diagonal: off-diagonal {off:.2e}")
    y = complex(M[0, 0])
    if abs(M[1, 1] - np.conj(y)) > 1e-10:
        raise ArithmeticError("product is not of the form diag(y, y*)")
    return x, w, y
