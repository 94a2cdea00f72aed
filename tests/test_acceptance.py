"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE n <name>: PASS/FAIL`` line and then
asserts, so the verdict for every criterion is visible in one place.  The
doubled-truncation demonstrations at the bottom show that the finite-ladder
residuals in criteria 4 and 5 vanish once the truncation is enlarged.
"""

import math
import time

import numpy as np
import pytest
import oracles
from oracles import dense_generators

from kerramp import circuits, cli, fock, loss, su11

DELTA_OP = 0.5
THETA1_OP = 0.5

# printed reference table: db -> (theta2, kappa1, kappa2, dphi2_deg,
# kappa3, dphi3_deg); None marks a saturated cell
TABLE_ROWS = {
    -3.0: (0.35, 2.12, 2.12, 19.1, 2.13, 61.4),
    -9.0: (1.04, 3.17, 3.19, 28.7, 3.46, 99.70),
    -10.0: (1.15, 3.48, 3.51, 31.6, 3.95, 113.8),
    -11.5: (1.32, 4.02, 4.08, 36.7, 5.26, 151.6),
    -13.0: (1.50, 4.69, 4.78, 43.0, None, 180.0),
    -20.0: (2.30, 10.10, 11.60, 104.4, None, 180.0),
}
DPHI_IN_DEG = (9.0, 28.8)

_lossy_cache = {}


def lossy_fidelity(state, r_s, r_k):
    """Converged lossy-amplifier fidelity at the reference operating point."""
    key = (state, r_s, r_k)
    if key not in _lossy_cache:
        layout = fock.make_layout([2, 20])
        rho = (
            loss.make_plus_plus(layout)
            if state == "plus-plus"
            else loss.make_werner(layout, 0.5)
        )
        params = su11.solve_params(DELTA_OP, THETA1_OP)
        report = loss.run_lossy_amplifier(
            rho, params, loss.LossConfig(r_s=r_s, r_k=r_k)
        )
        assert report.converged
        _lossy_cache[key] = report.fidelity
    return _lossy_cache[key]


def verdict(num, name, checks):
    """Print the one-line verdict and fail on the first broken check."""
    failures = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " [" + "; ".join(failures) + "]"
    line = f"ACCEPTANCE {num} {name}: {status}{detail}"
    print(line)
    assert not failures, line


def test_criterion_1_gain_table():
    t0 = time.perf_counter()
    rows = {r["db"]: r for r in cli.table1_rows()}
    checks = []
    for db, (theta2, k1, k2, d2, k3, d3) in TABLE_ROWS.items():
        r = rows[db]
        checks.append(
            (
                abs(r["theta2_rad"] - theta2) < 0.005,
                f"theta2({db} dB) = {r['theta2_rad']:.4f} vs {theta2}",
            )
        )
        checks.append((abs(r["kappa1"] - k1) < 0.02, f"kappa1({db} dB)"))
        checks.append((abs(r["kappa2"] - k2) < 0.02, f"kappa2({db} dB)"))
        checks.append(
            (abs(r["dphi2_amp_deg"] - d2) < 0.5, f"dphi2({db} dB)")
        )
        if k3 is None:
            checks.append((r["saturated3"], f"saturation flag({db} dB)"))
            checks.append((r["dphi3_amp_deg"] == 180.0, f"dphi3({db} dB)"))
        else:
            checks.append((not r["saturated3"], f"saturation flag({db} dB)"))
            checks.append((abs(r["kappa3"] - k3) < 0.02, f"kappa3({db} dB)"))
            checks.append(
                (abs(r["dphi3_amp_deg"] - d3) < 0.5, f"dphi3({db} dB)")
            )
    # table points must also lie on the emitted gain-vs-squeezing curves
    for db, (theta2, _, k2, d2, k3, d3) in TABLE_ROWS.items():
        for deg, printed in ((DPHI_IN_DEG[0], d2), (DPHI_IN_DEG[1], d3)):
            curve = cli.figure2_rows(
                [math.radians(deg)], theta_max=su11.db_to_theta(db), points=2
            )
            end = [r for r in curve if r["panel"] == "b"][-1]
            checks.append(
                (
                    abs(end["dphi_amp_deg"] - printed) < 0.5,
                    f"curve point({db} dB, {deg} deg)",
                )
            )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f} s"))
    verdict(1, "squeezing-gain table", checks)


def test_criterion_2_lossy_fidelity_product_input():
    t0 = time.perf_counter()
    targets = {
        (0.1, 0.1): 0.74,
        (0.1, 0.0): 0.82,
        (0.0, 0.1): 0.87,
        (0.2, 0.2): 0.59,
    }
    checks = []
    for (r_k, r_s), target in targets.items():
        f = lossy_fidelity("plus-plus", r_s, r_k)
        checks.append(
            (abs(f - target) < 0.01, f"F(rk={r_k}, rs={r_s}) = {f:.4f}")
        )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f} s"))
    verdict(2, "lossy fidelity, product input", checks)


def test_criterion_3_lossy_fidelity_entangled_input():
    targets = {
        (0.1, 0.1): 0.89,
        (0.1, 0.0): 0.929,
        (0.0, 0.1): 0.941,
        (0.2, 0.2): 0.81,
    }
    checks = []
    for (r_k, r_s), target in targets.items():
        f = lossy_fidelity("werner", r_s, r_k)
        checks.append(
            (abs(f - target) < 0.01, f"F(rk={r_k}, rs={r_s}) = {f:.4f}")
        )
    f_lossless = lossy_fidelity("plus-plus", 0.0, 0.0)
    checks.append((abs(f_lossless - 1.0) < 1e-9, f"F(0,0) = {f_lossless}"))
    f_abs_pp = lossy_fidelity("plus-plus", 1.0, 1.0)
    checks.append(
        (abs(f_abs_pp - 0.25) < 1e-6, f"F(1,1) plus-plus = {f_abs_pp}")
    )
    f_abs_w = lossy_fidelity("werner", 1.0, 1.0)
    checks.append((abs(f_abs_w - 0.375) < 1e-6, f"F(1,1) werner = {f_abs_w}"))
    verdict(3, "lossy fidelity, entangled input", checks)


def test_criterion_4_five_factor_identity():
    t0 = time.perf_counter()
    checks = []
    g2 = su11.generators(None, "matrix-2x2")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        p = su11.solve_params(
            rng.uniform(1e-6, math.pi / 2 - 0.1), rng.uniform(0.0, 2.0)
        )
        worst = max(worst, su11.verify_identity(p, g2))
    checks.append((worst < 1e-12, f"2x2 residual {worst:.2e}"))
    layout = fock.make_layout([2, 100])
    gf = su11.generators(layout, "fock-single")
    res = su11.verify_identity(su11.solve_params(DELTA_OP, THETA1_OP), gf, block=40)
    checks.append((res < 1e-6, f"ladder residual D=100 block=40: {res:.2e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f} s"))
    verdict(4, "five-factor identity", checks)


def test_criterion_5_circuit_equivalence():
    params = su11.solve_params(DELTA_OP, THETA1_OP)
    checks = []
    layout2 = fock.make_layout([2, 40])
    _, lhs, rhs = circuits.build_two_mode_amplifier(params, layout2)
    res2 = circuits.equivalence_residual(lhs, rhs, block=15)
    checks.append((res2 < 1e-7, f"two-mode residual D=40 block=15: {res2:.2e}"))
    layout3 = fock.make_layout([2, 14, 14])
    _, lhs3, rhs3 = circuits.build_three_mode_amplifier(params, layout3)
    res3 = circuits.equivalence_residual(lhs3, rhs3, block=5)
    checks.append(
        (res3 < 1e-6, f"three-mode residual D=14 block=5: {res3:.2e}")
    )
    _, lhs_sw, _ = circuits.build_three_mode_amplifier(
        params, layout3, use_swap_decomposition=True
    )
    res_sw = float(np.max(np.abs(lhs_sw.matrix - lhs3.matrix)))
    checks.append((res_sw < 1e-12, f"swap decomposition: {res_sw:.2e}"))
    verdict(5, "circuit equivalence", checks)


def test_criterion_6_small_detuning_limit():
    theta1 = 0.8
    target = su11.kappa_small_delta(theta1)
    deltas, residuals = [], []
    delta = 1e-2
    while delta >= 1e-4 / 2:
        residuals.append(abs(su11.solve_params(delta, theta1).kappa - target))
        deltas.append(delta)
        delta /= 2
    orders = [
        math.log2(residuals[i] / residuals[i + 1])
        for i in range(len(residuals) - 1)
    ]
    verdict(
        6,
        "small-detuning limit",
        [(min(orders) >= 1.9, f"observed order {min(orders):.3f}")],
    )


def damping_kraus(dim, reflectance):
    """Analytic amplitude-damping Kraus set for an independent cross-check."""
    from math import comb, sqrt

    ops = []
    for m in range(dim):
        K = np.zeros((dim, dim))
        for n in range(m, dim):
            K[n - m, n] = sqrt(comb(n, m)) * sqrt(
                (1.0 - reflectance) ** (n - m) * reflectance**m
            )
        ops.append(K)
    return ops


def test_criterion_7_loss_channel_oracles():
    dim = 12
    layout = fock.make_layout([dim])
    rng = np.random.default_rng(11)
    checks = []
    worst = 0.0
    for reflectance in (0.03, 0.1, 0.25, 0.5, 0.9):
        for _ in range(4):
            A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho_m = A @ A.conj().T
            rho_m /= np.trace(rho_m).real
            rho = fock.DensityMatrix(layout, rho_m)
            got = loss.apply_mode_loss(rho, 0, reflectance).matrix
            want = sum(
                K @ rho_m @ K.T for K in damping_kraus(dim, reflectance)
            )
            worst = max(worst, float(np.max(np.abs(got - want))))
    checks.append((worst < 1e-10, f"analytic Kraus deviation {worst:.2e}"))

    # Euler-stepped photon-decay master equation, integrated to the time
    # that matches the given reflectance
    reflectance = 0.2
    b = oracles.lowering_matrix(dim)
    n_op = b.conj().T @ b
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho_m = A @ A.conj().T
    rho_m /= np.trace(rho_m).real
    t_final = oracles.master_equation_time(reflectance)
    steps = int(t_final / 1e-4) + 1
    dt = t_final / steps
    sigma = rho_m.copy()
    for _ in range(steps):
        sigma = sigma + dt * (
            b @ sigma @ b.conj().T - 0.5 * (n_op @ sigma + sigma @ n_op)
        )
    got = loss.apply_mode_loss(
        fock.DensityMatrix(layout, rho_m), 0, reflectance
    ).matrix
    dev = float(np.max(np.abs(got - sigma)))
    checks.append((dev < 1e-4, f"master-equation deviation {dev:.2e}"))
    verdict(7, "loss channel oracles", checks)


def test_criterion_8_property_suite():
    checks = []
    params = su11.solve_params(DELTA_OP, THETA1_OP)

    # interior unitarity of the composed amplifier
    layout = fock.make_layout([2, 60])
    _, lhs, _ = circuits.build_two_mode_amplifier(params, layout)
    idx = layout.interior_indices(15, modes=[1])
    gram = (lhs.matrix.conj().T @ lhs.matrix)[np.ix_(idx, idx)]
    res_u = float(np.max(np.abs(gram - np.eye(len(idx)))))
    checks.append((res_u < 1e-8, f"interior unitarity {res_u:.2e}"))

    # trace preservation through a lossy stage
    rho = loss.make_plus_plus(fock.make_layout([2, 20]))
    S = oracles.squeeze_single(rho.layout, 1, 0.4)
    out = oracles.evolve(rho, S, validate=False)
    out = loss.apply_mode_loss(loss.apply_mode_loss(out, 1, 0.3), 0, 0.2)
    checks.append(
        (
            abs(np.trace(out.matrix).real - 1.0) < 1e-10,
            "trace preservation",
        )
    )

    # square-root repair of a slightly indefinite matrix
    M = fock.DensityMatrix(
        fock.make_layout([3]), np.diag([0.7, 0.3 + 1e-9, -1e-9]).astype(complex)
    )
    R = oracles.sqrtm_psd(M).matrix
    checks.append(
        (
            float(np.max(np.abs(R @ R - np.diag([0.7, 0.3 + 1e-9, 0.0])))) < 1e-8,
            "psd square-root repair",
        )
    )

    # commutation relations, exact and interior
    checks.append(
        (
            oracles.commutator_residual(su11.generators(None, "matrix-2x2")) == 0.0,
            "2x2 commutators",
        )
    )
    gf = dense_generators(fock.make_layout([2, 40]), "fock-single")
    checks.append(
        (oracles.commutator_residual(gf, block=15) < 1e-10, "ladder commutators")
    )

    # fidelity bounds and symmetry
    layq = fock.make_layout([2, 2])
    rho_a = loss.make_plus_plus(layq)
    rho_b = loss.make_werner(layq, 0.5)
    f_ab = fock.fidelity(rho_a, rho_b)
    f_ba = fock.fidelity(rho_b, rho_a)
    checks.append((0.0 <= f_ab <= 1.0, "fidelity bounds"))
    checks.append((abs(f_ab - f_ba) < 1e-10, "fidelity symmetry"))
    checks.append(
        (abs(fock.fidelity(rho_b, rho_b) - 1.0) < 1e-10, "self fidelity")
    )

    # amplified shift grows with squeezing strength
    values = [
        su11.solve_params(DELTA_OP, t).dphi_amp for t in np.linspace(0, 3, 30)
    ]
    checks.append(
        (all(b > a for a, b in zip(values, values[1:])), "gain monotonicity")
    )

    # squeezer loss hurts less than Kerr loss at the reference point
    for state in ("plus-plus", "werner"):
        f_kerr = lossy_fidelity(state, 0.0, 0.1)
        f_sq = lossy_fidelity(state, 0.1, 0.0)
        checks.append(
            (f_kerr < f_sq, f"loss asymmetry ({state}): {f_kerr} vs {f_sq}")
        )
    verdict(8, "property suite", checks)


class TestTruncationHeadroom:
    """The finite-ladder residuals above vanish with a larger truncation.

    These demonstrations double the Fock dimension while keeping the same
    interior block, isolating truncation leakage from any modelling error.
    """

    def test_identity_residual_at_doubled_truncation(self):
        layout = fock.make_layout([2, 200])
        g = su11.generators(layout, "fock-single")
        res = su11.verify_identity(
            su11.solve_params(DELTA_OP, THETA1_OP), g, block=40
        )
        assert res < 1e-10

    def test_two_mode_equivalence_at_doubled_truncation(self):
        params = su11.solve_params(DELTA_OP, THETA1_OP)
        layout = fock.make_layout([2, 80])
        _, lhs, rhs = circuits.build_two_mode_amplifier(params, layout)
        assert circuits.equivalence_residual(lhs, rhs, block=15) < 1e-7

    def test_three_mode_equivalence_at_doubled_truncation(self):
        params = su11.solve_params(DELTA_OP, THETA1_OP)
        layout = fock.make_layout([2, 28, 28])
        _, lhs, rhs = circuits.build_three_mode_amplifier(params, layout)
        assert circuits.equivalence_residual(lhs, rhs, block=5) < 1e-6
