import math

import numpy as np
import pytest

from kerramp import circuits, fock, loss, su11


def damping_kraus_oracle(dim, R):
    """Analytic amplitude-damping Kraus operators (independent oracle).

    K_m[n-m, n] = sqrt(C(n, m)) sqrt((1-R)^(n-m) R^m).
    """
    ops = []
    for m in range(dim):
        K = np.zeros((dim, dim), dtype=complex)
        for n in range(m, dim):
            K[n - m, n] = math.sqrt(math.comb(n, m)) * math.sqrt(
                (1.0 - R) ** (n - m) * R**m
            )
        ops.append(K)
    return ops


def damping_channel_oracle(rho_mat, R):
    out = np.zeros_like(rho_mat)
    for K in damping_kraus_oracle(rho_mat.shape[0], R):
        out += K @ rho_mat @ K.conj().T
    return out


def lindblad_euler_oracle(rho_mat, t, dt=1e-4):
    """Explicit-Euler integration of drho/dt = b rho b† - (n rho + rho n)/2."""
    dim = rho_mat.shape[0]
    b = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    n = b.conj().T @ b
    rho = rho_mat.copy()
    steps = int(round(t / dt))
    for _ in range(steps):
        rho = rho + dt * (b @ rho @ b.conj().T - 0.5 * (n @ rho + rho @ n))
    return rho


def random_density(rng, layout):
    n = layout.total_dim
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    return fock.DensityMatrix(layout, rho)


class TestBeamSplitter:
    def test_zero_reflectance_identity(self):
        layout = fock.make_layout([4, 4])
        B = loss.beam_splitter(layout, 0, 1, 0.0)
        assert np.allclose(B.matrix, np.eye(16))

    def test_full_reflectance_exchanges_photon(self):
        layout = fock.make_layout([3, 3])
        B = loss.beam_splitter(layout, 0, 1, 1.0)
        out = B.matrix @ layout.basis_vector((1, 0))
        target = layout.basis_vector((0, 1))
        assert abs(abs(out @ target) - 1.0) < 1e-12

    def test_angle_relation(self):
        for R in (0.0, 0.3, 0.77, 1.0):
            assert math.sin(loss.bs_angle(R)) ** 2 == pytest.approx(R, abs=1e-12)

    def test_single_photon_transmission(self):
        R = 0.3
        layout = fock.make_layout([3, 3])
        B = loss.beam_splitter(layout, 0, 1, R)
        rho = fock.DensityMatrix.from_state_vector(layout, layout.basis_vector((1, 0)))
        out = fock.partial_trace(fock.evolve(rho, B), keep=[0])
        n_mean = np.real(np.trace(fock.number_op(out.layout, 0).matrix @ out.matrix))
        assert n_mean == pytest.approx(1.0 - R, abs=1e-12)

    def test_rejects_bad_reflectance(self):
        layout = fock.make_layout([3, 3])
        with pytest.raises(loss.ReflectanceError):
            loss.beam_splitter(layout, 0, 1, 1.5)


class TestLossChannel:
    def test_matches_damping_oracle_over_grid(self):
        rng = np.random.default_rng(31)
        layout = fock.make_layout([10])
        for R in np.arange(0.05, 1.0, 0.05):
            rho = random_density(rng, layout)
            got = loss.apply_mode_loss(rho, 0, float(R)).matrix
            want = damping_channel_oracle(rho.matrix, float(R))
            assert np.max(np.abs(got - want)) < 1e-10

    def test_matches_explicit_attach_evolve_trace(self):
        # channel route vs literally attaching a vacuum ancilla, applying
        # the beam splitter on the extended space, and tracing it out
        rng = np.random.default_rng(32)
        R = 0.35
        layout = fock.make_layout([2, 6])
        rho = random_density(rng, layout)
        got = loss.apply_mode_loss(rho, 1, R)

        ext = fock.make_layout([2, 6, 6])
        vac = np.zeros((6, 6), dtype=complex)
        vac[0, 0] = 1.0
        rho_ext = fock.DensityMatrix(ext, np.kron(rho.matrix, vac), validate=False)
        B = loss.beam_splitter(ext, 1, 2, R)
        want = fock.partial_trace(fock.evolve(rho_ext, B, validate=False), keep=[0, 1])
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12

    def test_matches_lindblad_integrator(self):
        rng = np.random.default_rng(33)
        layout = fock.make_layout([10])
        rho = random_density(rng, layout)
        R = 0.5
        t = loss.master_equation_time(R)
        got = loss.apply_mode_loss(rho, 0, R).matrix
        want = lindblad_euler_oracle(rho.matrix, t)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_complete_absorption_gives_vacuum(self):
        rng = np.random.default_rng(34)
        layout = fock.make_layout([2, 8])
        rho = random_density(rng, layout)
        out = loss.apply_mode_loss(rho, 1, 1.0)
        reduced = fock.partial_trace(out, keep=[1])
        vac = np.zeros((8, 8))
        vac[0, 0] = 1.0
        assert np.max(np.abs(reduced.matrix - vac)) < 1e-12

    def test_loss_order_on_disjoint_modes_commutes(self):
        rng = np.random.default_rng(35)
        layout = fock.make_layout([2, 6])
        rho = random_density(rng, layout)
        ab = loss.apply_mode_loss(loss.apply_mode_loss(rho, 0, 0.2), 1, 0.4)
        ba = loss.apply_mode_loss(loss.apply_mode_loss(rho, 1, 0.4), 0, 0.2)
        assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-12

    def test_middle_mode_matches_embedded_oracle(self):
        # modes on both sides of the lost one: the reshape has pre > 1 and
        # post > 1
        rng = np.random.default_rng(38)
        layout = fock.make_layout([3, 5, 4])
        rho = random_density(rng, layout)
        for R in (0.05, 0.4, 0.9):
            got = loss.apply_mode_loss(rho, 1, R).matrix
            want = np.zeros_like(rho.matrix)
            for K in damping_kraus_oracle(5, R):
                M = np.kron(np.kron(np.eye(3), K), np.eye(4))
                want += M @ rho.matrix @ M.conj().T
            assert np.max(np.abs(got - want)) < 1e-12


class TestLossyStage:
    def test_no_loss_is_pure_unitary(self):
        rng = np.random.default_rng(36)
        layout = fock.make_layout([2, 8])
        rho = random_density(rng, layout)
        U = circuits.kerr(layout, 0, 1, 0.4)
        got = loss.lossy_stage(rho, U, [])
        want = fock.evolve(rho, U)
        assert np.allclose(got.matrix, want.matrix)

    def test_identity_unitary_reduces_to_channel(self):
        rng = np.random.default_rng(37)
        layout = fock.make_layout([2, 10])
        for _ in range(5):
            rho = random_density(rng, layout)
            R = rng.uniform(0.05, 0.95)
            got = loss.lossy_stage(rho, None, [(1, R)])
            # channel acts on mode b only: apply the oracle blockwise over
            # the qubit indices
            blocks = rho.matrix.reshape(2, 10, 2, 10)
            expected = np.empty_like(blocks)
            for i in range(2):
                for j in range(2):
                    expected[i, :, j, :] = damping_channel_oracle(blocks[i, :, j, :], R)
            assert np.max(np.abs(got.matrix - expected.reshape(20, 20))) < 1e-10

    def test_state_stays_valid(self):
        layout = fock.make_layout([2, 12])
        rho = loss.make_plus_plus(layout)
        S = circuits.squeeze_single(layout, 1, 0.5)
        out = loss.lossy_stage(rho, S, [(1, 0.3), (0, 0.1)])
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10
        assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-8


class TestInputStates:
    def test_plus_plus_is_pure_product(self):
        layout = fock.make_layout([2, 12])
        rho = loss.make_plus_plus(layout)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        target = np.outer(plus, plus)
        reduced_a = fock.partial_trace(rho, keep=[0])
        assert np.allclose(reduced_a.matrix, target)
        reduced_b = fock.partial_trace(rho, keep=[1])
        assert np.allclose(reduced_b.matrix[:2, :2], target)

    def test_plus_plus_vacuum_overlap(self):
        layout = fock.make_layout([2, 12])
        rho = loss.make_plus_plus(layout)
        i = layout.flat_index((0, 0))
        assert np.real(rho.matrix[i, i]) == pytest.approx(0.25, abs=1e-12)

    def test_werner_limits(self):
        layout = fock.make_layout([2, 6])
        bell = loss.make_werner(layout, 1.0)
        assert bell.purity() == pytest.approx(1.0, abs=1e-12)
        phi = (
            layout.basis_vector((0, 0)) + layout.basis_vector((1, 1))
        ) / np.sqrt(2)
        assert np.real(phi.conj() @ bell.matrix @ phi) == pytest.approx(1.0, abs=1e-12)
        mixed = loss.make_werner(layout, 0.0)
        # maximally mixed on the two-qubit block
        for na in (0, 1):
            for nb in (0, 1):
                i = layout.flat_index((na, nb))
                assert np.real(mixed.matrix[i, i]) == pytest.approx(0.25, abs=1e-12)

    def test_werner_vacuum_population(self):
        layout = fock.make_layout([2, 6])
        rho = loss.make_werner(layout, 0.5)
        i = layout.flat_index((0, 0))
        assert np.real(rho.matrix[i, i]) == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_werner_rejects_bad_p(self):
        layout = fock.make_layout([2, 6])
        with pytest.raises(ValueError):
            loss.make_werner(layout, 1.2)


class TestMasterEquationTime:
    def test_endpoints(self):
        assert loss.master_equation_time(0.0) == 0.0
        assert loss.master_equation_time(1 - math.exp(-1.0)) == pytest.approx(1.0)

    def test_rejects_full_reflectance(self):
        with pytest.raises(loss.ReflectanceError):
            loss.master_equation_time(1.0)


class TestLossConfig:
    def test_grouped_reflectances(self):
        cfg = loss.LossConfig(r_s=0.1, r_k=0.2)
        assert cfg.reflectance("R1") == 0.1
        assert cfg.reflectance("R3") == 0.1
        assert cfg.reflectance("R5") == 0.1
        for name in ("R2", "R2p", "R4", "R4p"):
            assert cfg.reflectance(name) == 0.2

    def test_override_wins(self):
        cfg = loss.LossConfig(r_s=0.1, r_k=0.2, overrides={"R3": 0.5})
        assert cfg.reflectance("R3") == 0.5
        assert cfg.reflectance("R1") == 0.1

    def test_rejects_unknown_name(self):
        with pytest.raises(loss.ReflectanceError):
            loss.LossConfig(overrides={"R9": 0.1})


class TestLossyAmplifier:
    PARAMS = su11.solve_params(0.5, 0.5)

    def run(self, rk, rs, state="plus-plus", p=0.5):
        layout = fock.make_layout([2, 20])
        rho = (
            loss.make_plus_plus(layout)
            if state == "plus-plus"
            else loss.make_werner(layout, p)
        )
        return loss.run_lossy_amplifier(rho, self.PARAMS, loss.LossConfig(rs, rk))

    def test_lossless_run_is_perfect(self):
        report = self.run(0.0, 0.0)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_plus_plus_reference_point(self):
        report = self.run(0.1, 0.1)
        assert report.converged
        assert report.fidelity == pytest.approx(0.74, abs=0.01)

    def test_werner_reference_point(self):
        report = self.run(0.2, 0.2, state="werner")
        assert report.converged
        assert report.fidelity == pytest.approx(0.81, abs=0.01)

    def test_kerr_losses_hurt_more_than_squeezer_losses(self):
        for state in ("plus-plus", "werner"):
            f_kerr = self.run(0.1, 0.0, state=state).fidelity
            f_squeeze = self.run(0.0, 0.1, state=state).fidelity
            assert f_kerr < f_squeeze

    def test_fidelity_monotone_in_symmetric_loss(self):
        values = [self.run(r, r).fidelity for r in np.arange(0.0, 0.55, 0.05)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_complete_absorption_limits(self):
        f_pp = self.run(1.0, 1.0).fidelity
        assert f_pp == pytest.approx(0.25, abs=1e-6)
        f_w = self.run(1.0, 1.0, state="werner").fidelity
        assert f_w == pytest.approx(3.0 / 8.0, abs=1e-6)

    def test_rejects_wrong_layout(self):
        layout = fock.make_layout([3, 10])
        rho = fock.DensityMatrix.from_state_vector(
            layout, layout.basis_vector((0, 0))
        )
        with pytest.raises(fock.LayoutError):
            loss.run_lossy_amplifier(rho, self.PARAMS, loss.LossConfig())


class TestLossyCircuitPlan:
    """The lossy pass runs circuits.two_mode_plan, one splitter at a time."""

    PARAMS = su11.solve_params(0.5, 0.5)
    # one splitter at R = 0.3, all others lossless, [2, 20], |++> input
    SPLITTER_FIDELITY = {
        "R1": 0.913532173387129,
        "R2": 0.8929268077779454,
        "R2p": 0.8938280615452815,
        "R3": 0.7909462395474909,
        "R4": 0.7798506147136194,
        "R4p": 0.8871733896731886,
        "R5": 0.887173478153582,
    }

    @pytest.mark.parametrize("name", loss.BS_NAMES)
    def test_single_splitter_fidelity(self, name):
        rho = loss.make_plus_plus(fock.make_layout([2, 20]))
        report = loss.run_lossy_amplifier(
            rho,
            self.PARAMS,
            loss.LossConfig(overrides={name: 0.3}),
            start_dim=20,
            max_dim=20,
        )
        assert report.truncation == 20
        assert report.fidelity == pytest.approx(self.SPLITTER_FIDELITY[name], abs=1e-12)

    def test_lossless_pass_is_the_composed_plan(self):
        layout = fock.make_layout([2, 16])
        rho = loss.make_werner(layout, 0.6)
        rho_out, _ = loss._run_fixed_dim(rho, self.PARAMS, loss.LossConfig())
        U = circuits.compose(circuits.two_mode_plan(self.PARAMS, layout))
        want = fock.evolve(rho, U)
        assert np.max(np.abs(rho_out.matrix - want.matrix)) < 1e-12
