"""SU(1,1) parameter relations for squeeze-amplified cross-Kerr shifts.

Solves the angle relations linking the initial conditional phase delta and
the outer squeeze strength theta1 to the inner squeeze theta2 and the
amplified phase 2*gamma, inverts them (with saturation handling), and
verifies the five-factor group identity

    exp(i th1 G2) exp(i d/2 G3) exp(i th2 G2) exp(i d/2 G3) exp(i th1 G2)
        = exp(i gamma G3)

in the 2x2 non-Hermitian representation and in truncated Fock
representations (single-mode and two-mode squeezing families).

The identity holds exactly for the untruncated operators.  In the Fock
representations verify_identity therefore checks the compression of the
exact left side to the layout, composed on a working ladder that doubles
until a leakage certificate holds (see fock.compress_product), while
identity_factors gives the product of the factors truncated to the layout,
leakage past the ladder top included.  G1 and G2 are placed by index
arithmetic, one nonzero per row of each ladder term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import fock
from .fock import ModeLayout, Operator

REPRESENTATIONS = ("matrix-2x2", "fock-single", "fock-two-mode")


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
    def dphi_in(self) -> float:
        return self.delta

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

    For the Fock representations the generators are Operators over the
    layout; for matrix-2x2 they are bare 2x2 arrays and layout is None.
    """

    representation: str
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    layout: ModeLayout | None = None


def _g3_values(representation: str, n) -> np.ndarray:
    """G3 (diagonal) from the per-mode Fock indices n of a Fock representation."""
    z = 2.0 * n[0] - 1.0
    if representation == "fock-single":
        return 0.5 * (2.0 * n[1] + 1.0) * z
    return (n[1] + n[2] + 1.0) * z


def _pair_lowering(layout: ModeLayout, representation: str, n) -> np.ndarray:
    """A = b b / 2 (fock-single) or b c (fock-two-mode) as a dense matrix.

    A has one nonzero per row, <n|A|n + step> with step the flat-index
    shift of the lowered levels, so each is placed at its index directly.
    """
    dims = layout.dims
    stride = [math.prod(dims[j + 1 :]) for j in range(len(dims))]
    if representation == "fock-single":
        rows = np.flatnonzero(n[1] + 2 < dims[1])
        values = 0.5 * np.sqrt((n[1][rows] + 1.0) * (n[1][rows] + 2.0))
        step = 2 * stride[1]
    else:
        rows = np.flatnonzero((n[1] + 1 < dims[1]) & (n[2] + 1 < dims[2]))
        values = np.sqrt((n[1][rows] + 1.0) * (n[2][rows] + 1.0))
        step = stride[1] + stride[2]
    A = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    A[rows, rows + step] = values
    return A


def generators(layout: ModeLayout | None, representation: str) -> Su11Generators:
    """Build the SU(1,1) generator triple in the requested representation.

    fock-single needs layout (a: 2, b: D); fock-two-mode needs
    (a: 2, b: D, c: D); matrix-2x2 ignores the layout.  In both Fock
    representations G1 = (A + A†) Z_a and G2 = i (A - A†), with
    A = b b / 2 or b c (_pair_lowering) and Z_a = 2 n_a - 1.
    """
    if representation == "matrix-2x2":
        g1 = np.array([[0, 1], [-1, 0]], dtype=complex)
        g2 = np.array([[0, -1j], [-1j, 0]], dtype=complex)
        g3 = np.array([[1, 0], [0, -1]], dtype=complex)
        return Su11Generators(representation, g1, g2, g3, layout=None)

    if layout is None:
        raise fock.LayoutError(f"representation {representation} requires a layout")
    if representation == "fock-single":
        if layout.num_modes < 2 or layout.dims[0] != 2:
            raise fock.LayoutError(
                "fock-single needs layout (a: 2, b: D), got " + str(layout.dims)
            )
    elif representation == "fock-two-mode":
        if layout.num_modes < 3 or layout.dims[0] != 2:
            raise fock.LayoutError(
                "fock-two-mode needs layout (a: 2, b: D, c: D), got "
                + str(layout.dims)
            )
    else:
        raise ValueError(f"unknown representation {representation!r}")
    n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    A = _pair_lowering(layout, representation, n)
    g1 = A + A.T  # A is real
    g1 *= 2.0 * n[0] - 1.0  # times diag(Z_a): scale the columns
    g2 = A - A.T
    g2 *= 1j
    g3 = np.diag(_g3_values(representation, n))
    return Su11Generators(representation, g1, g2, g3, layout=layout)


def commutator_residual(gens: Su11Generators, block: int | None = None) -> float:
    """Max deviation from [G1,G2]=-2iG3, [G2,G3]=2iG1, [G3,G1]=2iG2.

    For Fock representations, restrict to the interior block (bosonic mode
    indices <= block).
    """
    g1, g2, g3 = gens.g1, gens.g2, gens.g3
    residuals = [
        g1 @ g2 - g2 @ g1 + 2j * g3,
        g2 @ g3 - g3 @ g2 - 2j * g1,
        g3 @ g1 - g1 @ g3 - 2j * g2,
    ]
    if block is not None and gens.layout is not None:
        idx = gens.layout.interior_indices(block, modes=range(1, gens.layout.num_modes))
        residuals = [r[np.ix_(idx, idx)] for r in residuals]
    return float(max(np.max(np.abs(r)) for r in residuals))


def _squeezed_modes(representation: str) -> tuple[int, ...]:
    return (1,) if representation == "fock-single" else (1, 2)


def _exp_factor(gens: Su11Generators, coeff: float, which: str) -> np.ndarray:
    """exp(i coeff G) for G in {g2, g3}.

    In the Fock representations G3 is diagonal and exp(i coeff G2) is the
    truncated squeezer with theta = coeff (fock.pair_squeezer); the 2x2
    representation is non-Hermitian (a boost) and uses the general matrix
    exponential.
    """
    g = gens.g2 if which == "g2" else gens.g3
    if gens.representation == "matrix-2x2":
        return scipy.linalg.expm(1j * coeff * g)
    if which == "g3":
        return np.diag(np.exp(1j * coeff * np.diag(g)))
    modes = _squeezed_modes(gens.representation)
    return fock.pair_squeezer(gens.layout, modes, coeff).matrix


def identity_factors(params: CircuitParams, gens: Su11Generators):
    """(left, right) sides of the five-factor identity as matrices.

    In the Fock representations each factor is exponentiated on the layout
    and left is their product, truncation leakage included; see
    compress_identity for the compression of the exact left side.
    """
    eg2_1 = _exp_factor(gens, params.theta1, "g2")
    eg2_2 = _exp_factor(gens, params.theta2, "g2")
    eg3 = _exp_factor(gens, params.delta / 2.0, "g3")
    left = eg2_1 @ eg3 @ eg2_2 @ eg3 @ eg2_1
    right = _exp_factor(gens, params.gamma, "g3")
    return left, right


def compress_identity(params: CircuitParams, gens: Su11Generators) -> Operator:
    """Compression to gens.layout of the untruncated left side of the
    five-factor identity in a Fock representation; its work_dim is the
    working ladder it was composed on (see fock.compress_product)."""
    if gens.layout is None:
        raise ValueError("compress_identity needs a Fock representation")
    modes = _squeezed_modes(gens.representation)
    half_delta = params.delta / 2.0
    g3 = fock.PhaseFactor(lambda n: half_delta * _g3_values(gens.representation, n))
    factors = (
        fock.PairSqueeze(modes, params.theta1),
        g3,
        fock.PairSqueeze(modes, params.theta2),
        g3,
        fock.PairSqueeze(modes, params.theta1),
    )
    return fock.compress_product(gens.layout, factors)


def identity_residual(
    params: CircuitParams, gens: Su11Generators, block: int | None = None
) -> tuple[float, int | None, float | None]:
    """(residual, work_dim, leakage) of the five-factor identity.

    The residual is the max-norm of left - right, restricted to the interior
    block for Fock representations (block = max bosonic index), with left
    the compression of the exact product (compress_identity); work_dim is
    the working ladder it was composed on and leakage the figure that
    certified it, both None for matrix-2x2.
    """
    if gens.layout is None:
        left, right = identity_factors(params, gens)
        work_dim = leakage = None
    else:
        compressed = compress_identity(params, gens)
        left, work_dim, leakage = compressed.matrix, compressed.work_dim, compressed.leakage
        right = _exp_factor(gens, params.gamma, "g3")
    diff = left - right
    if block is not None and gens.layout is not None:
        idx = gens.layout.interior_indices(block, modes=range(1, gens.layout.num_modes))
        diff = diff[np.ix_(idx, idx)]
    return float(np.max(np.abs(diff))), work_dim, leakage


def verify_identity(
    params: CircuitParams, gens: Su11Generators, block: int | None = None
) -> float:
    """Max-norm residual of the five-factor identity, restricted to the
    interior block for Fock representations (block = max bosonic index).

    In the Fock representations the left side is the compression of the
    exact product to the layout (compress_identity), so the residual holds
    no truncation leakage; identity_residual also returns its working
    ladder and leakage.
    """
    return identity_residual(params, gens, block)[0]


def verify_matrix_derivation(params: CircuitParams):
    """Evaluate the 2x2 product V D(d) w[[1,x],[x,1]] D(d) V and return
    (x, w, y) with y the resulting diagonal entry.

    Here x = -cos(delta) tanh(2 theta1), w = 1/sqrt(1-x^2), and the product
    must be diag(y, y*) with |y| = 1 and arg y = gamma.  Raises if the
    product fails to be of that form.
    """
    d, t1 = params.delta, params.theta1
    x = -math.cos(d) * math.tanh(2.0 * t1)
    w = 1.0 / math.sqrt(1.0 - x * x)
    V = np.array(
        [[math.cosh(t1), math.sinh(t1)], [math.sinh(t1), math.cosh(t1)]],
        dtype=complex,
    )
    D = np.diag([np.exp(1j * d / 2.0), np.exp(-1j * d / 2.0)])
    M = V @ D @ (w * np.array([[1.0, x], [x, 1.0]], dtype=complex)) @ D @ V
    off = max(abs(M[0, 1]), abs(M[1, 0]))
    if off > 1e-10:
        raise ArithmeticError(f"product is not diagonal: off-diagonal {off:.2e}")
    y = complex(M[0, 0])
    if abs(M[1, 1] - np.conj(y)) > 1e-10:
        raise ArithmeticError("product is not of the form diag(y, y*)")
    return x, w, y
