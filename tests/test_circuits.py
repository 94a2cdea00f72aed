import math
import tracemalloc

import numpy as np
import oracles
import pytest

from kerramp import circuits, fock, su11


def squeezed_vacuum_overlap_series(theta, terms=200):
    """<0|S(theta)|0> by direct summation of squeezed-vacuum amplitudes.

    |S(theta) 0> = sum_n c_2n |2n> with
    c_2n = (-tanh theta)^n sqrt((2n)!) / (2^n n!) / sqrt(cosh theta);
    the overlap with vacuum is c_0 = 1/sqrt(cosh theta).  Summing |c_2n|^2
    checks normalization of the series oracle itself.
    """
    t = math.tanh(theta)
    c0 = 1.0 / math.sqrt(math.cosh(theta))
    norm = 0.0
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 2 * terms + 1)))])
    for n in range(terms):
        log_amp = (
            n * math.log(abs(t) if t != 0 else 1.0)
            + 0.5 * log_fact[2 * n]
            - n * math.log(2.0)
            - log_fact[n]
        )
        amp = math.exp(log_amp) * c0 if t != 0 or n == 0 else 0.0
        norm += amp * amp
    assert norm == pytest.approx(1.0, abs=1e-10)
    return c0


class TestSqueezeSingle:
    def test_zero_theta_is_identity(self):
        layout = fock.make_layout([2, 6])
        S = oracles.squeeze_single(layout, 1, 0.0)
        assert np.allclose(S.matrix, np.eye(12))

    def test_inverse_pair(self):
        layout = fock.make_layout([2, 30])
        S = oracles.squeeze_single(layout, 1, 0.5)
        Sinv = oracles.squeeze_single(layout, 1, -0.5)
        prod = S.matrix @ Sinv.matrix
        idx = layout.interior_indices(15, modes=[1])
        assert np.max(np.abs((prod - np.eye(60))[np.ix_(idx, idx)])) < 1e-10

    def test_vacuum_overlap(self):
        layout = fock.make_layout([30])
        theta = 0.5
        S = oracles.squeeze_single(layout, 0, theta)
        expected = squeezed_vacuum_overlap_series(theta)
        assert abs(S.matrix[0, 0] - expected) < 1e-8

    def test_couples_even_ladder_only(self):
        layout = fock.make_layout([12])
        S = oracles.squeeze_single(layout, 0, 0.4)
        col = S.matrix[:, 0]
        assert np.allclose(col[1::2], 0.0)


class TestSqueezeTwoMode:
    def test_zero_theta_is_identity(self):
        layout = fock.make_layout([4, 4])
        S = oracles.squeeze_two_mode(layout, 0, 1, 0.0)
        assert np.allclose(S.matrix, np.eye(16))

    def test_conserves_photon_number_difference(self):
        layout = fock.make_layout([6, 6])
        b = oracles.annihilation(layout, 0).matrix
        c = oracles.annihilation(layout, 1).matrix
        gen = (b @ c) - (b @ c).conj().T
        diff = oracles.number_op(layout, 0).matrix - oracles.number_op(layout, 1).matrix
        assert np.max(np.abs(gen @ diff - diff @ gen)) < 1e-12

    def test_vacuum_overlap(self):
        layout = fock.make_layout([30, 30])
        theta = 0.5
        S = oracles.squeeze_two_mode(layout, 0, 1, theta)
        # two-mode squeezed vacuum Schmidt series: sum_n tanh^n / cosh |nn>
        t, c = math.tanh(theta), math.cosh(theta)
        norm = sum((t**n / c) ** 2 for n in range(200))
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert abs(S.matrix[0, 0] - 1.0 / c) < 1e-8

    def test_rejects_equal_modes(self):
        layout = fock.make_layout([4, 4])
        with pytest.raises(fock.LayoutError):
            oracles.squeeze_two_mode(layout, 1, 1, 0.3)


class TestKerr:
    def test_phase_on_one_one(self):
        layout = fock.make_layout([2, 4])
        K = oracles.kerr(layout, 0, 1, 0.7)
        i = layout.flat_index((1, 1))
        assert K.matrix[i, i] == pytest.approx(np.exp(0.7j))

    def test_vacuum_control_untouched(self):
        layout = fock.make_layout([2, 5])
        K = oracles.kerr(layout, 0, 1, 0.7)
        for n in range(5):
            i = layout.flat_index((0, n))
            assert K.matrix[i, i] == pytest.approx(1.0)

    def test_pi_kerr_is_csign_on_qubit_block(self):
        layout = fock.make_layout([2, 2])
        K = oracles.kerr(layout, 0, 1, math.pi)
        assert np.allclose(K.matrix, np.diag([1, 1, 1, -1]))


class TestPhaseShift:
    def test_zero_coefficients_identity(self):
        layout = fock.make_layout([2, 4])
        P = oracles.phase_shift(layout, {})
        assert np.allclose(P.matrix, np.eye(8))

    def test_diagonal_additivity(self):
        layout = fock.make_layout([2, 5])
        P = oracles.phase_shift(layout, {1: 0.25})
        P2 = oracles.phase_shift(layout, {1: 0.5})
        assert np.allclose(P.matrix @ P.matrix, P2.matrix)

    def test_constant_is_global_phase(self):
        layout = fock.make_layout([2, 3])
        params = su11.solve_params(0.5, 0.5)
        p_prime = circuits.two_mode_plan(params, layout).gates[-1]
        Pp = oracles.gate_operator(layout, p_prime)
        bare = oracles.phase_shift(layout, p_prime.coeffs, 0.0)
        assert np.allclose(Pp.matrix, np.exp(-1j * p_prime.constant) * bare.matrix)


class TestSwap:
    def test_involution(self):
        layout = fock.make_layout([2, 3, 3])
        W = oracles.swap(layout, 1, 2)
        assert np.array_equal(W.matrix @ W.matrix, np.eye(layout.total_dim))

    def test_exchanges_fock_labels(self):
        layout = fock.make_layout([2, 3, 3])
        W = oracles.swap(layout, 1, 2)
        ket = layout.basis_vector((1, 2, 0))
        assert np.allclose(W.matrix @ ket, layout.basis_vector((1, 0, 2)))

    def test_conjugation_moves_squeezer(self):
        layout = fock.make_layout([2, 10, 10])
        W = oracles.swap(layout, 1, 2)
        Sb = oracles.squeeze_single(layout, 1, 0.3)
        Sc = oracles.squeeze_single(layout, 2, 0.3)
        assert np.max(np.abs(W.matrix @ Sb.matrix @ W.matrix - Sc.matrix)) < 1e-12

    def test_rejects_unequal_dimensions(self):
        layout = fock.make_layout([2, 3, 4])
        with pytest.raises(fock.LayoutError):
            oracles.swap(layout, 1, 2)


class TestTwoModeAmplifier:
    def test_equivalence_at_adequate_truncation(self):
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 80])
        _, lhs, rhs = circuits.build_two_mode_amplifier(params, layout)
        assert circuits.equivalence_residual(lhs, rhs, block=15) < 1e-7

    def test_no_squeezing_collapses_to_double_kerr(self):
        params = su11.solve_params(0.4, 0.0)
        layout = fock.make_layout([2, 12])
        _, lhs, rhs = circuits.build_two_mode_amplifier(params, layout)
        assert np.max(np.abs(lhs.matrix - np.diag(rhs))) < 1e-10

    def test_conditional_phase_is_two_gamma(self):
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 60])
        _, lhs, _ = circuits.build_two_mode_amplifier(params, layout)
        assert circuits.conditional_phase(lhs) == pytest.approx(1.4008, abs=1e-3)
        assert circuits.conditional_phase(lhs) == pytest.approx(
            params.dphi_amp, abs=1e-10
        )

    def test_conditional_phase_reads_the_blocks(self, monkeypatch):
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 40])
        _, lhs, _ = circuits.build_two_mode_amplifier(params, layout)
        builds = []
        place_blocks = fock._place_blocks

        def spy(*args):
            builds.append(args)
            return place_blocks(*args)

        monkeypatch.setattr(fock, "_place_blocks", spy)
        phase = circuits.conditional_phase(lhs)
        assert builds == []
        assert phase == circuits.conditional_phase(fock.Operator(layout, lhs.matrix))
        assert len(builds) == 1

    def test_phase_uniform_across_probe_levels(self):
        params = su11.solve_params(0.3, 0.4)
        layout = fock.make_layout([2, 80])
        _, lhs, _ = circuits.build_two_mode_amplifier(params, layout)
        for n_b in (1, 2, 3):
            assert circuits.conditional_phase(lhs, n_b) == pytest.approx(
                params.dphi_amp, abs=1e-8
            )

    def test_double_application_doubles_phase(self):
        params = su11.solve_params(0.3, 0.3)
        layout = fock.make_layout([2, 60])
        _, lhs, _ = circuits.build_two_mode_amplifier(params, layout)
        twice = fock.Operator(layout, lhs.matrix @ lhs.matrix)
        assert circuits.conditional_phase(twice) == pytest.approx(
            2 * params.dphi_amp, abs=1e-8
        )

    def test_residual_decays_with_truncation(self):
        # the product of truncated gates leaks past the ladder top; the
        # leakage shrinks as the ladder grows
        params = su11.solve_params(0.5, 0.5)
        residuals = []
        for dim in (20, 40, 80):
            layout = fock.make_layout([2, dim])
            plan, _, rhs = circuits.build_two_mode_amplifier(params, layout)
            lhs = oracles.compose(plan)
            residuals.append(circuits.equivalence_residual(lhs, rhs, block=8))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_unitarity_on_interior_block(self):
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 60])
        _, lhs, _ = circuits.build_two_mode_amplifier(params, layout)
        prod = lhs.matrix.conj().T @ lhs.matrix
        idx = layout.interior_indices(15, modes=[1])
        assert (
            np.max(np.abs((prod - np.eye(layout.total_dim))[np.ix_(idx, idx)])) < 1e-9
        )

    def test_rejects_wrong_layout(self):
        params = su11.solve_params(0.5, 0.5)
        with pytest.raises(fock.LayoutError):
            circuits.build_two_mode_amplifier(params, fock.make_layout([3, 10]))


class TestThreeModeAmplifier:
    def test_equivalence_at_adequate_truncation(self):
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 28, 28])
        _, lhs, rhs = circuits.build_three_mode_amplifier(params, layout)
        assert circuits.equivalence_residual(lhs, rhs, block=5) < 1e-6

    def test_no_squeezing_collapses(self):
        params = su11.solve_params(0.4, 0.0)
        layout = fock.make_layout([2, 8, 8])
        _, lhs, rhs = circuits.build_three_mode_amplifier(params, layout)
        assert np.max(np.abs(lhs.matrix - np.diag(rhs))) < 1e-10

    def test_swap_decomposition_is_exact(self):
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 10, 10])
        _, lhs, _ = circuits.build_three_mode_amplifier(params, layout)
        _, lhs_swap, _ = circuits.build_three_mode_amplifier(
            params, layout, use_swap_decomposition=True
        )
        assert np.max(np.abs(lhs.matrix - lhs_swap.matrix)) < 1e-12

    def test_kerr_swap_identity(self):
        layout = fock.make_layout([2, 5, 5])
        K_ab = oracles.kerr(layout, 0, 1, 0.6)
        K_ac = oracles.kerr(layout, 0, 2, 0.6)
        W = oracles.swap(layout, 1, 2)
        left = (K_ab @ K_ac).matrix
        right = K_ab.matrix @ W.matrix @ K_ab.matrix @ W.matrix
        assert np.max(np.abs(left - right)) < 1e-12


class TestGateLocality:
    def test_ab_gate_commutes_with_diagonal_on_c(self):
        layout = fock.make_layout([2, 6, 6])
        params = su11.solve_params(0.5, 0.5)
        S = oracles.squeeze_single(layout, 1, 0.4)
        K = oracles.kerr(layout, 0, 1, params.delta)
        diag_c = oracles.phase_shift(layout, {2: 0.9})
        for G in (S, K):
            assert np.max(np.abs(G.matrix @ diag_c.matrix - diag_c.matrix @ G.matrix)) == 0.0


class TestPlanComposition:
    def test_single_gate_plan_matches_operator(self):
        layout = fock.make_layout([2, 8])
        plan = circuits.CircuitPlan(layout, (circuits.Kerr(0, 1, 0.3),))
        assert np.allclose(
            oracles.compose(plan).matrix, oracles.kerr(layout, 0, 1, 0.3).matrix
        )

    def test_rightmost_gate_applies_first(self):
        # first list entry acts first: X-then-measurement ordering via a
        # squeezer followed by a number-dependent phase is order sensitive
        layout = fock.make_layout([2, 10])
        S = fock.PairSqueeze((1,), 0.4)
        P = circuits.PhaseShift(((1, 0.7),))
        plan = circuits.CircuitPlan(layout, (S, P))
        expected = (
            oracles.phase_shift(layout, {1: 0.7}).matrix
            @ oracles.squeeze_single(layout, 1, 0.4).matrix
        )
        assert np.allclose(oracles.compose(plan).matrix, expected)

    def test_plan_gates_are_sector_walk_factors(self):
        # a plan's gates go to oracles.truncated_product as they are: one walk
        # over the whole plan equals the gate-by-gate product
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 12])
        plan = circuits.two_mode_plan(params, layout)
        walked = oracles.truncated_product(layout, list(plan.gates))
        assert np.max(np.abs(walked.matrix - oracles.compose(plan).matrix)) <= 1e-13


class TestCompress:
    def test_matches_dense_product_on_working_ladder(self):
        # the builders' lhs is the truncated product on its working ladder,
        # restricted to the requested box
        params = su11.solve_params(0.5, 0.5)
        small = fock.make_layout([2, 6])
        plan, lhs, _ = circuits.build_two_mode_amplifier(params, small)
        big = fock.make_layout([2, lhs.work_dim])
        full = oracles.compose(circuits.CircuitPlan(big, plan.gates)).matrix
        idx = [big.flat_index(small.multi_index(i)) for i in range(small.total_dim)]
        assert np.max(np.abs(full[np.ix_(idx, idx)] - lhs.matrix)) < 1e-12

    def test_whole_box_is_exact(self):
        # no interior restriction: the top columns are exact too
        params = su11.solve_params(0.5, 0.5)
        layout = fock.make_layout([2, 20])
        _, lhs, rhs = circuits.build_two_mode_amplifier(params, layout)
        assert np.max(np.abs(lhs.matrix - np.diag(rhs))) < 1e-12

    def test_trailing_swap_applies_to_compression(self):
        layout = fock.make_layout([2, 4, 4])
        gates = (fock.PairSqueeze((1, 2), 0.3), circuits.Kerr(0, 1, 0.5))
        plain = circuits.compress(circuits.CircuitPlan(layout, gates))
        swapped = circuits.compress(
            circuits.CircuitPlan(layout, gates + (circuits.Swap(1, 2),))
        )
        W = oracles.swap(layout, 1, 2).matrix
        assert np.max(np.abs(swapped.matrix - W @ plain.matrix)) < 1e-14
        # a three-cycle of modes tells the relabelling from its inverse,
        # which a single transposition cannot
        plan = circuits.CircuitPlan(
            fock.make_layout([2, 3, 3, 3]),
            (circuits.Kerr(0, 1, 0.3), circuits.Swap(1, 2), circuits.Swap(2, 3)),
        )
        want = oracles.compose(plan).matrix
        assert np.max(np.abs(circuits.compress(plan).matrix - want)) < 1e-14

    def test_trailing_swap_keeps_working_ladder_and_leakage(self):
        layout = fock.make_layout([2, 4, 4])
        gates = (fock.PairSqueeze((1, 2), 0.3), circuits.Kerr(0, 1, 0.5))
        plain = circuits.compress(circuits.CircuitPlan(layout, gates))
        swapped = circuits.compress(
            circuits.CircuitPlan(layout, gates + (circuits.Swap(1, 2),))
        )
        assert (swapped.work_dim, swapped.leakage) == (plain.work_dim, plain.leakage)
        assert plain.leakage < fock.SETTLE_TOL

    def test_refuses_when_working_ladder_cap_is_reached(self):
        # at theta1 = 1.5 a D = 8 box needs more than the default 32 D ladder
        params = su11.solve_params(0.5, 1.5)
        with pytest.raises(fock.TruncationError, match=r"working ladder 256: leakage"):
            circuits.build_two_mode_amplifier(params, fock.make_layout([2, 8]))


def _three_mode_with_trailing_swap(layout):
    """A compression whose SWAP is left to relabel its block rows, and the
    rhs of the gates before it."""
    gates = (fock.PairSqueeze((1, 2), 0.3), circuits.Kerr(0, 1, 0.4), circuits.Swap(1, 2))
    rhs = fock.phase_vector(layout, [circuits.Kerr(0, 1, 0.4)])
    return circuits.compress(circuits.CircuitPlan(layout, gates)), rhs


@pytest.fixture
def placed(monkeypatch):
    """Records each fock._place_blocks call, the one build of a dense
    matrix from blocks."""
    calls = []
    place = fock._place_blocks

    def spy(*args):
        calls.append(args)
        return place(*args)

    monkeypatch.setattr(fock, "_place_blocks", spy)
    return calls


class TestCompressionBlocks:
    """A compression is kept as its sector blocks: the residual reads them,
    and the N x N matrix is built only when .matrix is read."""

    PARAMS = su11.solve_params(0.5, 0.5)

    @classmethod
    def build(cls, case):
        if case == "two-mode":
            layout = fock.make_layout([2, 40])
            _, lhs, rhs = circuits.build_two_mode_amplifier(cls.PARAMS, layout)
        elif case == "three-mode":
            layout = fock.make_layout([2, 14, 14])
            _, lhs, rhs = circuits.build_three_mode_amplifier(cls.PARAMS, layout)
        elif case == "three-mode-swap":
            layout = fock.make_layout([2, 8, 8])
            _, lhs, rhs = circuits.build_three_mode_amplifier(cls.PARAMS, layout, True)
        elif case == "trailing-swap":
            lhs, rhs = _three_mode_with_trailing_swap(fock.make_layout([2, 6, 6]))
        else:
            params = su11.solve_params(0.3, 0.4)
            gens = su11.generators(fock.make_layout([2, 100]), "fock-single")
            lhs, rhs = su11.compress_identity(params, gens), su11._right_side(params, gens)
        return lhs, rhs

    @pytest.mark.parametrize(
        "case, blocks",
        [
            ("two-mode", (15, None, 40, 41)),
            ("three-mode", (5, None, 14)),
            ("three-mode-swap", (3, None, 8)),
            ("trailing-swap", (0, 2, None, 6)),
            ("fock-single", (40, None, 100)),
        ],
    )
    def test_residual_equals_dense_residual(self, case, blocks):
        lhs, rhs = self.build(case)
        dense = fock.Operator(lhs.layout, lhs.matrix)
        for block in blocks:
            assert fock.diagonal_residual(lhs, rhs, block) == fock.diagonal_residual(
                dense, rhs, block
            )

    def test_swap_relabels_rows_as_the_dense_transpose(self):
        # a three-cycle of modes: row state n goes to the state whose mode j
        # holds n[where[j]], as the dense rows' reshape and transpose give
        layout = fock.make_layout([2, 3, 3, 3])
        gates = (fock.PairSqueeze((1, 2), 0.3), circuits.Kerr(0, 3, 0.4))
        plain = circuits.compress(circuits.CircuitPlan(layout, gates))
        swaps = (circuits.Swap(1, 2), circuits.Swap(2, 3))
        swapped = circuits.compress(circuits.CircuitPlan(layout, gates + swaps))
        rows = plain.matrix.reshape(layout.dims + (-1,)).transpose([0, 2, 3, 1, 4])
        assert np.array_equal(swapped.matrix, rows.reshape(plain.matrix.shape))

    def test_residual_builds_no_dense_matrix(self, placed):
        # the circuit-verify three-mode op; its dense lhs alone is 39.3 MB
        tracemalloc.start()
        try:
            layout = fock.make_layout([2, 28, 28])
            _, lhs, rhs = circuits.build_three_mode_amplifier(self.PARAMS, layout)
            assert circuits.equivalence_residual(lhs, rhs, block=5) < 1e-6
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert placed == []
        assert peak < 8e6

    def test_matrix_is_built_once(self, placed):
        lhs, _ = _three_mode_with_trailing_swap(fock.make_layout([2, 4, 4]))
        assert placed == []
        assert lhs.matrix is lhs.matrix
        assert len(placed) == 1


class TestRightSides:
    """The builders' right sides are phase vectors holding exactly the
    diagonals of the dense gates they replace."""

    PARAMS = su11.solve_params(0.5, 0.5)

    def test_two_mode_rhs_is_the_amplified_kerr(self):
        layout = fock.make_layout([2, 12])
        _, _, rhs = circuits.build_two_mode_amplifier(self.PARAMS, layout)
        assert rhs.shape == (layout.total_dim,)
        kerr = circuits.Kerr(0, 1, self.PARAMS.dphi_amp)
        assert np.array_equal(np.diag(rhs), oracles.gate_operator(layout, kerr).matrix)

    def test_three_mode_rhs_is_the_amplified_kerr_pair(self):
        layout = fock.make_layout([2, 6, 6])
        _, _, rhs = circuits.build_three_mode_amplifier(self.PARAMS, layout)
        assert rhs.shape == (layout.total_dim,)
        g2 = self.PARAMS.dphi_amp
        pair = circuits.CircuitPlan(layout, (circuits.Kerr(0, 1, g2), circuits.Kerr(0, 2, g2)))
        assert np.array_equal(np.diag(rhs), circuits.compress(pair).matrix)


class TestDiagonalGates:
    PARAMS = su11.solve_params(0.5, 0.5)

    @pytest.mark.parametrize(
        "gates",
        [
            (circuits.Kerr(1, 1, 0.3),),
            (fock.PairSqueeze((1,), 0.4), circuits.Kerr(1, 1, 0.3)),
        ],
    )
    def test_compress_refuses_self_kerr(self, gates):
        layout = fock.make_layout([2, 6])
        plan = circuits.CircuitPlan(layout, gates)
        with pytest.raises(fock.LayoutError, match="two distinct modes"):
            circuits.compress(plan)
        with pytest.raises(fock.LayoutError, match="two distinct modes"):
            oracles.compose(plan)

    @pytest.mark.parametrize(
        "dims, gate",
        [
            ([2, 8], fock.PairSqueeze((-1,), 0.3)),
            ([2, 8], fock.PairSqueeze((2,), 0.3)),
            ([2, 6, 6], fock.PairSqueeze((1, -1), 0.3)),
            ([2, 6, 6], fock.PairSqueeze((1, 3), 0.3)),
            ([2, 6], circuits.Kerr(0, 2, 0.3)),
            ([2, 6], circuits.PhaseShift(((-1, 0.3),))),
        ],
        ids=["squeeze-neg", "squeeze-past", "pair-neg", "pair-past", "kerr-past", "phase-neg"],
    )
    def test_compress_refuses_out_of_range_modes(self, dims, gate):
        # a negative mode must not index the last mode, nor a squeezer's
        # mode pass unchecked into the sector walk
        plan = circuits.CircuitPlan(fock.make_layout(dims), (gate,))
        with pytest.raises(fock.LayoutError, match="out of range"):
            circuits.compress(plan)
        with pytest.raises(fock.LayoutError, match="out of range"):
            oracles.compose(plan)

    def test_compress_relabels_diagonal_gates_across_swaps(self):
        # SWAP K_ab(d) P_b SWAP = K_ac(d) P_c, each gate's phase evaluated on
        # the modes the pending swaps moved it to
        layout = fock.make_layout([2, 4, 4])
        gates = (
            circuits.Swap(1, 2),
            circuits.Kerr(0, 1, 0.3),
            circuits.PhaseShift(((1, 0.7),), 0.2),
            circuits.Swap(1, 2),
            circuits.PhaseShift(((1, -0.4),)),
        )
        plan = circuits.CircuitPlan(layout, gates)
        expected = (
            oracles.phase_shift(layout, {1: -0.4}).matrix
            @ oracles.phase_shift(layout, {2: 0.7}, 0.2).matrix
            @ oracles.kerr(layout, 0, 2, 0.3).matrix
        )
        assert np.max(np.abs(circuits.compress(plan).matrix - expected)) < 1e-14
        assert np.max(np.abs(oracles.compose(plan).matrix - expected)) < 1e-14

    @pytest.mark.parametrize(
        "build, make_plan, dims, bad_dims",
        [
            (
                circuits.build_two_mode_amplifier,
                circuits.two_mode_plan,
                [2, 8],
                [[3, 8]],
            ),
            (
                circuits.build_three_mode_amplifier,
                circuits.three_mode_plan,
                [2, 5, 5],
                [[2, 5, 6], [3, 5, 5]],
            ),
        ],
        ids=["two-mode", "three-mode"],
    )
    def test_builder_returns_its_plan(self, build, make_plan, dims, bad_dims):
        layout = fock.make_layout(dims)
        plan, _, _ = build(self.PARAMS, layout)
        assert plan == make_plan(self.PARAMS, layout)
        for bad in bad_dims:
            with pytest.raises(fock.LayoutError):
                make_plan(self.PARAMS, fock.make_layout(bad))
