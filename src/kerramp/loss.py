"""Beam-splitter model of photon loss and lossy amplifier runs.

Each imperfect nonlinear element is modelled as the perfect unitary
followed by a fictitious beam splitter of reflectance R mixing the signal
with a fresh vacuum ancilla, which is then traced out.  The lossy pass runs
the gates of circuits.two_mode_plan, the same plan the lossless builder
composes, and after each nonlinear gate applies the beam splitters that
SPLITTERS_AFTER_GATE lists for the gate's position in the plan.

With the ancilla in vacuum, the attach-evolve-trace step is amplitude
damping, whose Kraus operators have the closed form
E_k |n> = sqrt(C(n, k) R^k (1 - R)^(n - k)) |n - k>
(Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)).  The channel is applied
as k-shifted, weighted slices of the density matrix reshaped around the
lost mode, without building the extended space or any Kraus matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import circuits, fock
from .fock import DensityMatrix, ModeLayout, Operator
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


class ReflectanceError(ValueError):
    """Reflectance outside [0, 1]."""


def _check_reflectance(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ReflectanceError(f"reflectance must lie in [0, 1], got {r}")


def bs_angle(reflectance: float) -> float:
    """Beam-splitter mixing angle arccos(sqrt(1 - R))."""
    _check_reflectance(reflectance)
    return math.acos(math.sqrt(1.0 - reflectance))


def master_equation_time(reflectance: float) -> float:
    """Dimensionless damping time t with R = 1 - exp(-t).

    R = 1 corresponds to infinite time and is rejected.
    """
    _check_reflectance(reflectance)
    if reflectance == 1.0:
        raise ReflectanceError("R = 1 corresponds to infinite damping time")
    return -math.log(1.0 - reflectance)


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


def beam_splitter(
    layout: ModeLayout, signal_mode: int, ancilla_mode: int, reflectance: float
) -> Operator:
    """Beam-splitter unitary exp[theta (b v† - b† v)] on the full layout."""
    layout.check_mode(signal_mode)
    layout.check_mode(ancilla_mode)
    if signal_mode == ancilla_mode:
        raise fock.LayoutError("signal and ancilla modes must differ")
    theta = bs_angle(reflectance)
    b = fock.annihilation(layout, signal_mode).matrix
    v = fock.annihilation(layout, ancilla_mode).matrix
    gen = Operator(layout, theta * (b @ v.conj().T - b.conj().T @ v))
    return fock.expm(gen)


def _damping_weights(dim: int, reflectance: float):
    """Rows w_k[m] = sqrt(C(m + k, k) R^k (1 - R)^m), m < dim - k, for k < dim.

    Computed in log space, since the binomials overflow a float past n ~ 1030.
    """
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    log_r = math.log(reflectance)
    with np.errstate(divide="ignore"):
        log_t = np.log1p(-reflectance)  # -inf at R = 1
    for k in range(dim):
        m = np.arange(dim - k)
        m_log_t = np.multiply(m, log_t, out=np.zeros(dim - k), where=m > 0)  # 0 log 0 = 0
        log_w2 = log_fact[k:] - log_fact[k] - log_fact[: dim - k] + k * log_r + m_log_t
        yield np.exp(0.5 * log_w2)


def apply_mode_loss(rho: DensityMatrix, mode: int, reflectance: float) -> DensityMatrix:
    """Vacuum beam-splitter loss channel on one mode of a multimode state.

    out[.., m, .., m', ..] = sum_k w_k[m] w_k[m'] rho[.., m + k, .., m' + k, ..]
    on the lost mode's indices, with w_k from the amplitude-damping Kraus
    operators E_k |m + k> = w_k[m] |m>.
    """
    rho.layout.check_mode(mode)
    _check_reflectance(reflectance)
    if reflectance == 0.0:
        return rho
    dims = rho.layout.dims
    d = dims[mode]
    shape = (math.prod(dims[:mode]), d, math.prod(dims[mode + 1 :]))
    r = rho.matrix.reshape(shape + shape)
    out = np.zeros_like(r)
    for k, w in enumerate(_damping_weights(d, reflectance)):
        m = d - k
        ww = np.outer(w, w).reshape(1, m, 1, 1, m, 1)
        out[:, :m, :, :, :m, :] += ww * r[:, k:, :, :, k:, :]
    out = out.reshape(rho.matrix.shape)
    out = (out + out.conj().T) / 2
    return DensityMatrix(rho.layout, out, validate=False)


def lossy_stage(rho: DensityMatrix, unitary: Operator | None, loss_modes) -> DensityMatrix:
    """One circuit stage: apply the unitary, then lose each listed mode.

    loss_modes is a list of (mode, reflectance) pairs; each loss attaches a
    fresh vacuum ancilla, mixes it in on a beam splitter, and traces it out.
    """
    if unitary is not None:
        rho = fock.evolve(rho, unitary, validate=False)
    for mode, r in loss_modes:
        rho = apply_mode_loss(rho, mode, r)
    return rho


@dataclass(frozen=True)
class LossyRunReport:
    """Outcome of a lossy amplifier run at converged truncation."""

    rho_out: DensityMatrix
    rho_ideal: DensityMatrix
    fidelity: float
    truncation: int
    convergence_delta: float
    converged: bool


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
    idx = np.ravel_multi_index(
        np.unravel_index(np.arange(old.total_dim), old.dims), new.dims
    )
    out[np.ix_(idx, idx)] = rho.matrix
    return DensityMatrix(new, out, validate=False)


def _run_fixed_dim(
    rho_in: DensityMatrix, params: CircuitParams, loss: LossConfig
) -> tuple[DensityMatrix, DensityMatrix]:
    """One pass of the lossy circuit at the input truncation: the gates of
    circuits.two_mode_plan in order, each followed by the beam splitters
    SPLITTERS_AFTER_GATE lists for its position.  The ideal reference
    applies the single amplified Kerr unitary K(2 gamma).
    """
    layout = rho_in.layout
    gates = circuits.two_mode_plan(params, layout).gates
    ops = {gate: circuits.gate_operator(layout, gate) for gate in dict.fromkeys(gates)}
    rho = rho_in
    for position, gate in enumerate(gates):
        splitters = SPLITTERS_AFTER_GATE.get(position, ())
        rho = lossy_stage(
            rho, ops[gate], [(mode, loss.reflectance(name)) for name, mode in splitters]
        )
    rho_ideal = fock.evolve(
        rho_in, circuits.kerr(layout, 0, 1, params.dphi_amp), validate=False
    )
    return rho, rho_ideal


def run_lossy_amplifier(
    rho_in: DensityMatrix,
    params: CircuitParams,
    loss: LossConfig,
    start_dim: int = 20,
    max_dim: int = 160,
    tol: float = 1e-3,
) -> LossyRunReport:
    """Lossy two-mode amplifier run with truncation-doubling convergence.

    rho_in lives on layout (a: 2, b: D_in); the bosonic mode is zero-padded
    to growing truncations until the fidelity between lossy and ideal
    outputs changes by less than tol under doubling.  A non-convergent run
    returns the best estimate with converged=False; a start truncation above
    max_dim raises fock.TruncationError.
    """
    if rho_in.layout.num_modes != 2 or rho_in.layout.dims[0] != 2:
        raise fock.LayoutError(
            "expected layout (a: 2, b: D), got " + str(rho_in.layout.dims)
        )

    def run(dim):
        rho = embed_state(rho_in, fock.make_layout([2, dim]))
        rho_out, rho_ideal = _run_fixed_dim(rho, params, loss)
        return rho_out, rho_ideal, fock.fidelity(rho_ideal, rho_out)

    settled = fock.double_until_settled(
        run,
        start_dim=max(start_dim, rho_in.layout.dims[1]),
        max_dim=max_dim,
        tol=tol,
        distance=lambda new, old: abs(new[2] - old[2]),
    )
    rho_out, rho_ideal, f = settled.value
    return LossyRunReport(
        rho_out=rho_out,
        rho_ideal=rho_ideal,
        fidelity=f,
        truncation=settled.dim,
        convergence_delta=settled.change,
        converged=settled.converged,
    )
