import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from scipy.special import gammaln
from scipy.stats import binom

from kerramp import circuits, cli, fock, loss, su11


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


def slice_loop_oracle(rho_mat, dims, mode, R):
    """The per-k slice loop apply_mode_loss ran before its matrix-product
    kernel (reference implementation).

    For each k the k-shifted slice of rho, reshaped around the lost mode, is
    added with weights w_k[m] w_k[m'], w_k[m] = sqrt(C(m + k, k) R^k (1 - R)^m)
    computed in log space; the sum is then symmetrised.
    """
    d = dims[mode]
    shape = (math.prod(dims[:mode]), d, math.prod(dims[mode + 1 :]))
    r = rho_mat.reshape(shape + shape)
    out = np.zeros_like(r)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, d)))))
    with np.errstate(divide="ignore"):
        log_t = np.log1p(-R)  # -inf at R = 1
    for k in range(d):
        m = np.arange(d - k)
        m_log_t = np.multiply(m, log_t, out=np.zeros(d - k), where=m > 0)  # 0 log 0 = 0
        w = np.exp(
            0.5 * (log_fact[k:] - log_fact[k] - log_fact[: d - k] + k * math.log(R) + m_log_t)
        )
        ww = np.outer(w, w).reshape(1, d - k, 1, 1, d - k, 1)
        out[:, : d - k, :, :, : d - k, :] += ww * r[:, k:, :, :, k:, :]
    out = out.reshape(rho_mat.shape)
    return (out + out.conj().T) / 2


def dense_pass_oracle(rho, params, config):
    """The lossy pass with every gate a dense Operator (oracles.gate_operator)
    conjugating the state (oracles.evolve), then each splitter's loss channel
    (loss.apply_mode_loss): (output, leakage on the b ladder's top tenth,
    the largest over stages)."""
    layout = rho.layout
    tail = fock.tail_index(layout.dims[1])
    leakage = 0.0
    for gate, splitters in loss.lossy_stages(params, layout):
        rho = oracles.evolve(rho, oracles.gate_operator(layout, gate), validate=False)
        for name, mode in splitters:
            rho = loss.apply_mode_loss(rho, mode, config.reflectance(name))
        populations = np.real(np.diagonal(rho.matrix)).reshape(layout.dims)
        leakage = max(leakage, float(populations[:, tail:].sum()))
    return rho, leakage


def coherent_amplitudes(dim, mean_photons, phase):
    """<n|alpha> for |alpha|^2 = mean_photons, arg alpha = phase, n < dim."""
    n = np.arange(dim)
    log_abs = 0.5 * (n * math.log(mean_photons) - gammaln(n + 1) - mean_photons)
    return np.exp(log_abs + 1j * phase * n)


def random_density(rng, layout):
    n = layout.total_dim
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    return fock.DensityMatrix(layout, rho)


class TestBeamSplitter:
    def test_zero_reflectance_identity(self):
        layout = fock.make_layout([4, 4])
        B = oracles.beam_splitter(layout, 0, 1, 0.0)
        assert np.allclose(B.matrix, np.eye(16))

    def test_full_reflectance_exchanges_photon(self):
        layout = fock.make_layout([3, 3])
        B = oracles.beam_splitter(layout, 0, 1, 1.0)
        out = B.matrix @ layout.basis_vector((1, 0))
        target = layout.basis_vector((0, 1))
        assert abs(abs(out @ target) - 1.0) < 1e-12

    def test_angle_relation(self):
        for R in (0.0, 0.3, 0.77, 1.0):
            assert math.sin(oracles.bs_angle(R)) ** 2 == pytest.approx(R, abs=1e-12)

    def test_single_photon_transmission(self):
        R = 0.3
        layout = fock.make_layout([3, 3])
        B = oracles.beam_splitter(layout, 0, 1, R)
        rho = oracles.from_state_vector(layout, layout.basis_vector((1, 0)))
        out = fock.partial_trace(oracles.evolve(rho, B), keep=[0])
        n_mean = np.real(np.trace(oracles.number_op(out.layout, 0).matrix @ out.matrix))
        assert n_mean == pytest.approx(1.0 - R, abs=1e-12)

    def test_rejects_bad_reflectance(self):
        layout = fock.make_layout([3, 3])
        with pytest.raises(loss.ReflectanceError):
            oracles.beam_splitter(layout, 0, 1, 1.5)


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
        B = oracles.beam_splitter(ext, 1, 2, R)
        want = fock.partial_trace(oracles.evolve(rho_ext, B, validate=False), keep=[0, 1])
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12

    def test_matches_lindblad_integrator(self):
        rng = np.random.default_rng(33)
        layout = fock.make_layout([10])
        rho = random_density(rng, layout)
        R = 0.5
        t = oracles.master_equation_time(R)
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


class TestLossKernel:
    """apply_mode_loss's matrix-product kernel against the slice loop it
    replaced, and on ladders where its rescaling nears the float range."""

    REFLECTANCES = (1e-9, 0.03, 0.1, 0.5, 0.9, 1.0)

    @pytest.mark.parametrize(
        "dims, mode",
        [
            ([2, 160], 1),
            ([2, 160], 0),
            ([3, 40, 4], 1),
            ([320], 0),
            ([2, 3], 1),
            ([3, 5, 4], 2),
            # odd ladders, two unequal tiles a side: ceil(d i / tiles) edges
            ([2, 65], 1),
            ([2, 81], 1),
            ([3, 65, 2], 1),
            # three to five tiles a side, the tiles unequal
            ([2, 121], 1),
            ([2, 161], 1),
            ([3, 97, 2], 1),
        ],
    )
    def test_matches_slice_loop(self, dims, mode):
        rng = np.random.default_rng(39)
        layout = fock.make_layout(dims)
        rho = random_density(rng, layout)
        for R in self.REFLECTANCES:
            got = loss.apply_mode_loss(rho, mode, R).matrix
            want = slice_loop_oracle(rho.matrix, dims, mode, R)
            assert np.max(np.abs(got - want)) <= 1e-14, R
            assert np.array_equal(got, got.conj().T), R
            assert abs(np.trace(got) - 1.0) <= 1e-12, R

    def test_stale_buffers_are_never_read(self):
        # the skew and product buffers start as NaN and are reused from a
        # [2, 20] call for a [3, 5, 4] one, then on ladders the product runs
        # by tiles (121: three unequal tiles a side): the padding and every
        # skipped zero tile must be rewritten
        rng = np.random.default_rng(40)
        size = 320 * 321
        skew, product = np.full(size, np.nan, dtype=complex), np.full(size, np.nan, dtype=complex)
        for dims, mode in (([2, 20], 1), ([3, 5, 4], 2), ([2, 121], 1), ([2, 65], 1), ([2, 160], 1)):
            rho = random_density(rng, fock.make_layout(dims)).matrix
            n = len(rho)
            tables = loss._loss_tables(dims[mode], 0.1)
            got = loss._damp(rho, dims, mode, tables, skew, product, np.empty((n, n), dtype=complex))
            want = slice_loop_oracle(rho, dims, mode, 0.1)
            assert np.max(np.abs(got - want)) <= 1e-14, dims
            assert np.array_equal(got, got.conj().T), dims

    def test_product_over_the_state_output_over_the_skew(self):
        # the lossy pass's aliasing: the product goes into the buffer whose
        # head is the state matrix and the output into the skew buffer's
        # head, then the two swap; both start as NaN and go on stale, as in
        # the pass, from a [2, 20] ladder to ladders the product tiles
        rng = np.random.default_rng(42)
        size = 320 * 321
        state, spare = np.full(size, np.nan, dtype=complex), np.full(size, np.nan, dtype=complex)
        for dims, mode in (([2, 20], 1), ([3, 5, 4], 2), ([2, 121], 1), ([2, 65], 1), ([2, 160], 1)):
            rho = random_density(rng, fock.make_layout(dims)).matrix
            n = len(rho)
            matrix, out = (buf[: n * n].reshape(n, n) for buf in (state, spare))
            np.copyto(matrix, rho)
            tables = loss._loss_tables(dims[mode], 0.1)
            got = loss._damp(matrix, dims, mode, tables, spare, state, out)
            assert got is out
            want = slice_loop_oracle(rho, dims, mode, 0.1)
            assert np.max(np.abs(got - want)) <= 1e-14, dims
            assert np.array_equal(got, got.conj().T), dims
            state, spare = spare, state

    @pytest.mark.parametrize("R", [1e-9, 0.9, 1.0])
    def test_long_ladder_matches_closed_form(self, R):
        # (|alpha><alpha| + |d-1><d-1|) / 2: loss maps the coherent state to
        # |alpha sqrt(1 - R)> and the top Fock state to a binomial mixture
        d, mean, phase = 1280, 576.0, 0.3
        alpha = coherent_amplitudes(d, mean, phase)
        rho = 0.5 * np.outer(alpha, alpha.conj())
        rho[d - 1, d - 1] += 0.5
        layout = fock.make_layout([d])
        got = loss.apply_mode_loss(fock.DensityMatrix(layout, rho, validate=False), 0, R).matrix
        assert np.isfinite(got).all()
        assert np.array_equal(got, got.conj().T)
        assert abs(np.trace(got) - 1.0) <= 1e-10
        kept = coherent_amplitudes(d, mean * (1.0 - R), phase) if R < 1 else np.eye(d)[0]
        want = 0.5 * np.outer(kept, kept.conj())
        want[np.diag_indices(d)] += 0.5 * binom.pmf(np.arange(d), d - 1, 1.0 - R)
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_ladder_past_the_float_range_is_refused(self):
        d = loss.MAX_LOSS_LADDER + 1
        layout = fock.make_layout([d])
        zero = np.broadcast_to(np.complex128(0.0), (d, d))  # no N^2 allocation
        rho = fock.DensityMatrix(layout, zero, validate=False)
        with pytest.raises(fock.TruncationError, match=f"ladder {d} exceeds"):
            loss.apply_mode_loss(rho, 0, 0.1)


class TestLossOnA:
    """The lossy pass applies loss on the two-level mode a as block
    arithmetic and builds the loss tables of b once per reflectance."""

    @pytest.mark.parametrize("dim", [20, 21])
    @pytest.mark.parametrize("R", [1e-9, 0.1, 0.5, 1.0])
    def test_block_update_is_the_channel(self, dim, R):
        rho = random_density(np.random.default_rng(41), fock.make_layout([2, dim]))
        got = rho.matrix.copy()
        scratch = np.full(got.size, np.nan, dtype=complex)  # never read, only written
        loss._damp_first_qubit(got, R, scratch)
        want = loss.apply_mode_loss(rho, 0, R).matrix
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_pass_damps_b_only_with_tables_built_once(self, monkeypatch):
        calls = {"_damp": [], "_loss_tables": []}

        def spy(name, original):
            def wrapped(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(loss, name, spy(name, getattr(loss, name)))
        layout = fock.make_layout([2, 20])
        stages = loss.lossy_stages(su11.solve_params(0.5, 0.5), layout)
        loss._run_fixed_dim(loss.make_plus_plus(layout), stages, loss.LossConfig(0.1, 0.1))
        assert [args[2] for args in calls["_damp"]] == [1] * 5
        assert calls["_loss_tables"] == [(20, 0.1)]

    def test_ladder_tables_are_read_only(self):
        loss._loss_tables(20, 0.1)
        for a in loss._ladder_tables(20):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("dim", [2, 21, 160])
    def test_tables_equal_the_sliding_window_form(self, dim):
        # F's Toeplitz view of log_c is an as_strided view; the
        # sliding_window_view(log_c, d)[::-1] it replaced gives the same bits
        for R in (1e-9, 0.1, 0.5, 1.0):
            got = loss._loss_tables(dim, R)
            want = oracles.sliding_window_loss_tables(dim, R)
            for table, ref in zip(got, want, strict=True):
                assert table.shape == ref.shape and np.array_equal(table, ref), R

    @pytest.mark.parametrize("dim", [20, 21])
    def test_pass_is_the_same_with_ladder_caches_cold_or_warm(self, dim):
        # every cache a pass reads: the Fock grid, the parity eigenbases and
        # the loss tables' ladder part
        caches = (fock._fock_grid, fock._parity_eigs, loss._ladder_tables)
        params, config = su11.solve_params(0.5, 0.6), loss.LossConfig(0.1, 0.15)

        def run(d):
            layout = fock.make_layout([2, d])
            rho = loss.make_werner(layout, 0.6)
            return loss._run_fixed_dim(rho, loss.lossy_stages(params, layout), config)

        for cache in caches:
            cache.cache_clear()
        cold = run(dim)
        warm = run(dim)
        run(2 * dim)
        after_other = run(dim)
        for out, leakage in (warm, after_other):
            assert np.array_equal(out.matrix, cold[0].matrix)
            assert leakage == cold[1]

    def test_over_cap_schedule_is_refused_before_the_first_pass(self, monkeypatch, capsys):
        passes = []
        run_fixed_dim = loss._run_fixed_dim

        def spy(*args):
            passes.append(args)
            return run_fixed_dim(*args)

        monkeypatch.setattr(loss, "MAX_LOSS_LADDER", 50)
        monkeypatch.setattr(loss, "_run_fixed_dim", spy)
        code = cli.main(["lossy", "--theta1", "1.5", "--dim", "40", "--max-dim", "80"])
        assert code == 1
        assert passes == []
        assert "lost mode's ladder 80 exceeds 50" in capsys.readouterr().err
        # loss on a alone never reaches the kernel's cap
        rho = loss.make_plus_plus(fock.make_layout([2, 40]))
        config = loss.LossConfig(overrides={"R2p": 0.1})
        report = loss.run_lossy_amplifier(rho, su11.solve_params(0.5, 0.5), config, max_dim=80)
        assert len(passes) >= 1 and report.truncation <= 80


def complex_squeeze_oracle(state, blocks):
    """S rho S† from complex parity blocks S_p, as the lossy pass formed it
    before its squeezer went real: the (p, q) parity block of every
    (n_a, n_a') block is S_p rho_pq S_q† (reference implementation)."""
    d = state.shape[0] // 2
    rho, out = state.reshape(2, d, 2, d), np.empty_like(state).reshape(2, d, 2, d)
    for p, s_p in enumerate(blocks):
        for q, s_q in enumerate(blocks):
            x = rho[:, p::2, :, q::2].transpose(0, 2, 1, 3)
            out[:, p::2, :, q::2] = (s_p @ x @ s_q.conj().T).transpose(0, 2, 1, 3)
    return out.reshape(state.shape)


class TestRealSqueezer:
    """The lossy pass squeezes with the real parts of the parity blocks,
    as S (S rho)†."""

    def test_parity_blocks_are_real(self):
        thetas = (0.1, 1.5, 2.5)
        for dim in (3, 20, 21, 160, 640):
            squeezers = [fock.PairSqueeze((1,), theta) for theta in thetas]
            for blocks in fock.parity_blocks(fock.make_layout([2, dim]), squeezers).values():
                for s in blocks:
                    assert s.dtype == np.float64, dim

    @pytest.mark.parametrize("dim", [3, 20, 21, 160])
    def test_matches_complex_blocks(self, dim):
        # a mid-pass state: S1, K and their splitters, each gate a dense
        # Operator; then the pass's S2
        layout = fock.make_layout([2, dim])
        params, config = su11.solve_params(0.5, 0.7), loss.LossConfig(0.1, 0.1)
        stages = loss.lossy_stages(params, layout)
        rho = loss.make_werner(layout, 0.6)
        for gate, splitters in stages[:2]:
            rho = oracles.evolve(rho, oracles.gate_operator(layout, gate), validate=False)
            for name, mode in splitters:
                rho = loss.apply_mode_loss(rho, mode, config.reflectance(name))
        s2 = stages[3][0]
        blocks = fock.parity_blocks(layout, [s2])[s2]
        state, out = rho.matrix.copy(), np.empty_like(rho.matrix)
        loss._squeeze_b(state.reshape(-1), blocks, out, dim)
        want = complex_squeeze_oracle(rho.matrix, blocks)
        assert np.max(np.abs(out - want)) <= 1e-15

    @pytest.mark.parametrize("dim, box", [(4, 2), (20, 10), (21, 10), (42, 21), (160, 80)])
    def test_box_squeeze_matches_complex_blocks(self, dim, box):
        # a state on the box layout [2, box] at the head of a NaN buffer,
        # squeezed onto [2, dim]: the NaN past the head and in the output
        # buffer are never read
        rng = np.random.default_rng(43)
        small = random_density(rng, fock.make_layout([2, box]))
        rho = oracles.embed_state(small, fock.make_layout([2, dim]))
        squeezer = fock.PairSqueeze((1,), 0.7)
        blocks = fock.parity_blocks(rho.layout, [squeezer])[squeezer]
        state, out = np.full(rho.matrix.size, np.nan, dtype=complex), np.full_like(rho.matrix, np.nan)
        state[: small.matrix.size] = small.matrix.reshape(-1)
        loss._squeeze_b(state, blocks, out, box)
        want = complex_squeeze_oracle(rho.matrix, blocks)
        assert np.max(np.abs(out - want)) <= 1e-15


class TestLossyStage:
    def test_identity_unitary_reduces_to_channel(self):
        rng = np.random.default_rng(37)
        layout = fock.make_layout([2, 10])
        for _ in range(5):
            rho = random_density(rng, layout)
            R = rng.uniform(0.05, 0.95)
            got = loss.apply_mode_loss(rho, 1, R)
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
        S = oracles.squeeze_single(layout, 1, 0.5)
        out = oracles.evolve(rho, S, validate=False)
        out = loss.apply_mode_loss(loss.apply_mode_loss(out, 1, 0.3), 0, 0.1)
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
        # p |Phi+><Phi+| + (1 - p) I/4 has purity (1 + 3 p^2) / 4
        assert loss.make_werner(layout, 0.5).purity() == pytest.approx(0.4375, abs=1e-12)
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

    @pytest.mark.parametrize("dims", [[2, 2], [2, 20], [2, 5, 5]])
    def test_exact_states_pass_the_state_check(self, dims):
        # the states are built unchecked; DensityMatrix's own check
        # (Hermiticity, unit trace, no negative eigenvalue) accepts them
        layout = fock.make_layout(dims)
        states = [loss.make_plus_plus(layout)] + [
            loss.make_werner(layout, p) for p in (0.0, 0.3, 1.0)
        ]
        for rho in states:
            fock.DensityMatrix(layout, rho.matrix)

    @pytest.mark.parametrize("p", [1.2, math.nan])
    def test_werner_rejects_p_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            loss.make_werner(fock.make_layout([2, 6]), p)

    def test_one_mode_layout_is_refused(self):
        layout = fock.make_layout([6])
        with pytest.raises(fock.LayoutError, match="need at least two modes"):
            loss.make_plus_plus(layout)
        with pytest.raises(fock.LayoutError, match="need at least two modes"):
            loss.make_werner(layout, 0.5)


class TestMasterEquationTime:
    def test_endpoints(self):
        assert oracles.master_equation_time(0.0) == 0.0
        assert oracles.master_equation_time(1 - math.exp(-1.0)) == pytest.approx(1.0)

    def test_rejects_full_reflectance(self):
        with pytest.raises(loss.ReflectanceError):
            oracles.master_equation_time(1.0)


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
        rho = oracles.from_state_vector(layout, layout.basis_vector((0, 0)))
        with pytest.raises(fock.LayoutError):
            loss.run_lossy_amplifier(rho, self.PARAMS, loss.LossConfig())


class TestLossyLeakage:
    """A lossy run converges only when |dF| and the b ladder's top-tenth
    population, the largest over the stages of the pass, are both < tol."""

    def test_pass_leakage_is_largest_over_stages(self):
        # at theta1 = 0.5 on [2, 20] the population peaks after S2 and is
        # 30 times smaller at the output
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 20])
        rho = loss.make_plus_plus(layout)
        config = loss.LossConfig(0.1, 0.1)
        populations = []
        for gate, splitters in loss.lossy_stages(params, layout):
            rho = oracles.evolve(rho, oracles.gate_operator(layout, gate), validate=False)
            for name, mode in splitters:
                rho = loss.apply_mode_loss(rho, mode, config.reflectance(name))
            populations.append(np.real(np.diagonal(rho.matrix)).reshape(2, 20)[:, 18:].sum())
        stages = loss.lossy_stages(params, layout)
        _, leakage = loss._run_fixed_dim(loss.make_plus_plus(layout), stages, config)
        assert leakage == pytest.approx(max(populations), rel=1e-12)
        assert leakage > 30 * populations[-1]

    @pytest.mark.parametrize("theta1", [0.3, 0.8, 1.2, 1.5, 2.5])
    def test_converged_run_is_below_tol_on_both_figures(self, theta1):
        rho = loss.make_plus_plus(fock.make_layout([2, 20]))
        params = su11.solve_params(0.5, theta1)
        report = loss.run_lossy_amplifier(rho, params, loss.LossConfig(0.1, 0.1), max_dim=80)
        if report.converged:
            assert report.leakage < 1e-3 and report.convergence_delta < 1e-3
        else:
            assert max(report.leakage, report.convergence_delta) >= 1e-3

    def test_small_fidelity_change_with_leakage_does_not_converge(self):
        # theta1 = 2.5: the 40 -> 80 doubling moves F by 7.9e-4 while a third
        # of a percent of the population sits on the top tenth of the ladder
        rho = loss.make_plus_plus(fock.make_layout([2, 40]))
        params = su11.solve_params(0.5, 2.5)
        report = loss.run_lossy_amplifier(
            rho, params, loss.LossConfig(0.1, 0.1), max_dim=80
        )
        assert report.convergence_delta < 1e-3
        assert report.leakage > 1e-3
        assert not report.converged


class TestDoublingRun:
    """run_lossy_amplifier walks the ladders fock.doublings(D, max_dim) in
    its own loop: the report's |dF| and converged flag are the loop's."""

    PARAMS = su11.solve_params(0.5, 0.5)
    CONFIG = loss.LossConfig(0.1, 0.1)

    def test_one_ladder_run_has_no_fidelity_change(self):
        rho = loss.make_plus_plus(fock.make_layout([2, 20]))
        report = loss.run_lossy_amplifier(rho, self.PARAMS, self.CONFIG, max_dim=20)
        assert report.truncation == 20
        assert report.convergence_delta == math.inf
        assert report.converged is False

    def test_two_ladder_delta_is_the_fidelity_change(self):
        # theta1 = 2.5 on the ladders 40 and 80: the leakage, not |dF|,
        # keeps the run from converging, so |dF| is reported on its own
        params = su11.solve_params(0.5, 2.5)
        rho = loss.make_plus_plus(fock.make_layout([2, 40]))
        report = loss.run_lossy_amplifier(rho, params, self.CONFIG, max_dim=80)
        ideal = fock.evolve(rho, circuits.Kerr(0, 1, params.dphi_amp))
        stages = loss.lossy_stages(params, rho.layout)
        f = [
            fock.fidelity(ideal, loss._run_fixed_dim(rho, stages, self.CONFIG, dim)[0])
            for dim in (40, 80)
        ]
        assert report.truncation == 80
        assert report.fidelity == f[1]
        assert report.convergence_delta == abs(f[1] - f[0])
        assert report.convergence_delta < 1e-3 < report.leakage
        assert report.converged is False

    def test_start_above_the_cap_is_refused_before_any_pass(self, monkeypatch):
        passes = []
        monkeypatch.setattr(loss, "_run_fixed_dim", lambda *args: passes.append(args))
        rho = loss.make_plus_plus(fock.make_layout([2, 40]))
        with pytest.raises(fock.TruncationError, match="start ladder 40 exceeds the cap 20"):
            loss.run_lossy_amplifier(rho, self.PARAMS, self.CONFIG, max_dim=20)
        assert passes == []


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

    def test_stages_pair_the_plan_with_every_splitter_once(self):
        layout = fock.make_layout([2, 20])
        stages = loss.lossy_stages(self.PARAMS, layout)
        assert [g for g, _ in stages] == list(circuits.two_mode_plan(self.PARAMS, layout).gates)
        assert sorted(s.name for _, after in stages for s in after) == sorted(loss.BS_NAMES)
        squeezed = [s for g, after in stages if isinstance(g, fock.PairSqueeze) for s in after]
        assert tuple(s.name for s in squeezed) == loss._SQUEEZER_BS
        assert all(s.mode == 1 for s in squeezed)
        for gate, after in stages:
            if any(s.mode == 0 for s in after):
                assert isinstance(gate, circuits.Kerr)

    def test_stages_reject_a_plan_of_another_length(self, monkeypatch):
        plan = circuits.two_mode_plan
        monkeypatch.setattr(
            circuits, "two_mode_plan", lambda *args: SimpleNamespace(gates=plan(*args).gates[:-1])
        )
        with pytest.raises(ValueError):
            loss.lossy_stages(self.PARAMS, fock.make_layout([2, 20]))

    @pytest.mark.parametrize("name", loss.BS_NAMES)
    def test_single_splitter_fidelity(self, name):
        rho = loss.make_plus_plus(fock.make_layout([2, 20]))
        report = loss.run_lossy_amplifier(
            rho,
            self.PARAMS,
            loss.LossConfig(overrides={name: 0.3}),
            max_dim=20,
        )
        assert report.truncation == 20
        assert report.fidelity == pytest.approx(self.SPLITTER_FIDELITY[name], abs=1e-12)

    def test_phase_gates_build_no_matrix(self, monkeypatch):
        # no gate becomes an N x N matrix: the squeezers act by their parity
        # blocks, taken straight off the parity ladders, the Kerr and phase
        # gates and the ideal K(2 gamma) as phase vectors
        calls = []
        for name in ("_place_blocks", "compress_product"):

            def spy(*args, _name=name, _original=getattr(fock, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(fock, name, spy)
        layout = fock.make_layout([2, 20])
        stages = loss.lossy_stages(self.PARAMS, layout)
        loss._run_fixed_dim(loss.make_plus_plus(layout), stages, loss.LossConfig(0.1, 0.1))
        fock.evolve(loss.make_plus_plus(layout), circuits.Kerr(0, 1, self.PARAMS.dphi_amp))
        assert calls == []

    def test_lossless_pass_is_the_composed_plan(self):
        for dim in (3, 16, 21):
            layout = fock.make_layout([2, dim])
            U = oracles.compose(circuits.two_mode_plan(self.PARAMS, layout))
            stages = loss.lossy_stages(self.PARAMS, layout)
            for rho in (loss.make_plus_plus(layout), loss.make_werner(layout, 0.6)):
                rho_out, _ = loss._run_fixed_dim(rho, stages, loss.LossConfig())
                want = oracles.evolve(rho, U)
                assert np.max(np.abs(rho_out.matrix - want.matrix)) < 1e-12

    @pytest.mark.parametrize(
        "dim, theta1", [(3, 0.5), (20, 0.5), (21, 0.7), (160, 1.5)]
    )  # 21: unequal parity ladders
    @pytest.mark.parametrize("state", ["plus-plus", "werner"])
    @pytest.mark.parametrize(
        "config",
        [loss.LossConfig(overrides={name: 0.3}) for name in loss.BS_NAMES]
        + [loss.LossConfig(1.0, 1.0)],
        ids=[f"{name}=0.3" for name in loss.BS_NAMES] + ["all=1"],
    )
    def test_pass_matches_dense_oracle(self, dim, theta1, state, config):
        layout = fock.make_layout([2, dim])
        rho = loss.make_plus_plus(layout) if state == "plus-plus" else loss.make_werner(layout, 0.6)
        params = su11.solve_params(0.5, theta1)
        rho_out, leakage = loss._run_fixed_dim(rho, loss.lossy_stages(params, layout), config)
        want, want_leakage = dense_pass_oracle(rho, params, config)
        assert np.max(np.abs(rho_out.matrix - want.matrix)) < 1e-12
        assert leakage == pytest.approx(want_leakage, abs=1e-12)

    @pytest.mark.parametrize("dim, theta1", [(3, 0.5), (20, 0.5), (21, 0.7), (160, 1.5)])
    @pytest.mark.parametrize("state", ["plus-plus", "werner"])
    def test_run_ideal_matches_dense_oracle(self, dim, theta1, state):
        # one pass at max_dim = dim: the report's ideal, on the input's box,
        # is the dense K(2 gamma) conjugation, and its F is the report's
        layout = fock.make_layout([2, dim])
        rho = loss.make_plus_plus(layout) if state == "plus-plus" else loss.make_werner(layout, 0.6)
        params = su11.solve_params(0.5, theta1)
        report = loss.run_lossy_amplifier(rho, params, loss.LossConfig(0.1, 0.1), max_dim=dim)
        assert report.truncation == dim and report.rho_ideal.layout == layout
        ideal = oracles.evolve(rho, oracles.kerr(layout, 0, 1, params.dphi_amp))
        assert np.max(np.abs(report.rho_ideal.matrix - ideal.matrix)) < 1e-12
        assert fock.fidelity(report.rho_ideal, report.rho_out) == report.fidelity


class TestPassRunsOnlyTheCircuit:
    """A pass takes the input on its own box and runs only the stages it is
    handed, in its two buffers; the run builds the stages and the ideal,
    on the input's box, once."""

    PARAMS = su11.solve_params(0.5, 1.5)
    CONFIG = loss.LossConfig(0.1, 0.1)

    # 40 and 80: the pass ladders 80 and 160 run the loss product by two and
    # five tiles; every first squeezer reads the input's box only
    @pytest.mark.parametrize("dim", [3, 21, 40, 80])
    @pytest.mark.parametrize("state", ["plus-plus", "werner", "random", "phase-first"])
    def test_pass_on_a_longer_ladder_is_the_pass_on_the_padded_input(self, dim, state):
        box = fock.make_layout([2, dim])
        stages = loss.lossy_stages(su11.solve_params(0.5, 0.7), box)
        if state == "random":  # support on the whole box
            rho = random_density(np.random.default_rng(44), box)
        else:
            rho = loss.make_werner(box, 0.6) if state == "werner" else loss.make_plus_plus(box)
        if state == "phase-first":  # K, its loss on b and a, then P ahead of the first squeezer
            stages = stages[1:] + stages[:1]
        out, leakage = loss._run_fixed_dim(rho, stages, self.CONFIG, 2 * dim)
        padded = oracles.embed_state(rho, fock.make_layout([2, 2 * dim]))
        want_out, want_leakage = loss._run_fixed_dim(padded, stages, self.CONFIG)
        assert out.layout == padded.layout
        if state == "phase-first":  # its loss on b sums over the input's ladder, not the padded one
            assert np.max(np.abs(out.matrix - want_out.matrix)) <= 1e-15
            assert leakage == pytest.approx(want_leakage, abs=1e-15)
        else:
            assert np.array_equal(out.matrix, want_out.matrix) and leakage == want_leakage

    def test_run_builds_the_stages_and_the_ideal_once(self, monkeypatch):
        calls = {"lossy_stages": [], "evolve": [], "fidelity": [], "_run_fixed_dim": []}

        def spy(module, name, record):
            original = getattr(module, name)

            def wrapped(*args):
                result = original(*args)
                calls[name].append(record(result, *args))
                return result

            monkeypatch.setattr(module, name, wrapped)

        spy(loss, "lossy_stages", lambda stages, params, layout: (stages, layout.dims))
        spy(fock, "evolve", lambda ideal, rho, gate: (ideal, rho.layout.dims))
        spy(fock, "fidelity", lambda f, ideal, out: (ideal, out.layout.dims))
        spy(loss, "_run_fixed_dim", lambda result, rho, stages, config, dim: stages)
        rho = loss.make_plus_plus(fock.make_layout([2, 20]))
        report = loss.run_lossy_amplifier(rho, self.PARAMS, self.CONFIG)
        ladders = [20, 40, 80, 160]
        assert report.truncation == 160
        [(stages, stages_box)] = calls["lossy_stages"]
        [(ideal, ideal_box)] = calls["evolve"]
        assert stages_box == ideal_box == (2, 20)
        assert all(handed is stages for handed in calls["_run_fixed_dim"])
        assert len(calls["_run_fixed_dim"]) == len(ladders)
        assert all(read is ideal for read, _ in calls["fidelity"])
        assert [dims for _, dims in calls["fidelity"]] == [(2, d) for d in ladders]
        assert report.rho_ideal is ideal
        # the box ideal is the ideal of the input padded onto the converged ladder
        layout = fock.make_layout([2, 160])
        kerr = circuits.Kerr(0, 1, self.PARAMS.dphi_amp)
        want = fock.evolve(oracles.embed_state(rho, layout), kerr)
        assert np.array_equal(oracles.embed_state(ideal, layout).matrix, want.matrix)

    def test_run_peak_memory_is_the_pass_buffers(self):
        # the run doubles to 160: N = 320 and an N x N complex matrix is
        # N^2 16 B = 1.64 MB.  The pass's two buffers take 2 of that, and
        # the run peaks near 2.57 of it.  A per-pass embed and an ideal
        # evolved on the pass layout took it to 5.1, _damp's S scale on a
        # 4-D strided view, whose output numpy copies whole, to 3.8, a
        # fresh (N / 2)^2 temporary per loss on a to 3.07, the last
        # ladder's output kept alive through the next pass to 2.90, and
        # the S scale cast for a whole block column, not a tile, to 2.645.
        rho = loss.make_plus_plus(fock.make_layout([2, 20]))
        loss.run_lossy_amplifier(rho, self.PARAMS, self.CONFIG)  # caches warm
        tracemalloc.start()
        try:
            report = loss.run_lossy_amplifier(rho, self.PARAMS, self.CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = report.rho_out.layout.total_dim
        assert n == 320
        assert peak < 2.6 * n * n * 16

