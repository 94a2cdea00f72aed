import math
import re

import numpy as np
import pytest
import scipy.linalg
import oracles
from oracles import BLOCK_BOX_CASES, case_factors, case_params, pair_lowering

from kerramp import circuits, fock, loss, su11


def random_density(rng, layout):
    n = layout.total_dim
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    return fock.DensityMatrix(layout, rho)


def state_with_root(rng, layout, support, rank):
    """(rho, sqrt(rho)): a random state of the given rank whose eigenvectors
    live on the basis states `support`; the root comes from the construction."""
    k = len(support)
    Q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    p = np.zeros(k)
    p[:rank] = rng.uniform(0.1, 1.0, size=rank)
    p /= p.sum()
    V = np.zeros((layout.total_dim, k), dtype=complex)
    V[support] = Q
    rho = (V * p) @ V.conj().T
    return fock.DensityMatrix(layout, rho), (V * np.sqrt(p)) @ V.conj().T


def full_space_fidelity(root1, root2):
    """Uhlmann fidelity ||sqrt(r1) sqrt(r2)||_1^2 on the whole space, from
    known roots; singular values carry no amplified round-off."""
    return np.sum(np.linalg.svd(root1 @ root2, compute_uv=False)) ** 2


def dense_squeezer(layout, modes, theta):
    """fock.expm of the kron-embedded generator -theta (A - A†), A = b b / 2
    or b c."""
    A = pair_lowering(layout, modes)
    return fock.expm(fock.Operator(layout, -theta * (A - A.conj().T))).matrix


class TestModeLayout:
    def test_total_dim_is_product(self):
        assert fock.make_layout([2, 20]).total_dim == 40
        assert fock.make_layout([2, 20, 20]).total_dim == 800

    def test_rejects_dims_below_two(self):
        with pytest.raises(fock.LayoutError):
            fock.make_layout([1, 5])
        with pytest.raises(fock.LayoutError):
            fock.make_layout([])

    def test_flat_index_round_trip(self):
        layout = fock.make_layout([2, 3, 4])
        for flat in range(layout.total_dim):
            assert layout.flat_index(oracles.multi_index(layout, flat)) == flat

    def test_row_major_ordering(self):
        # mode 0 is the slowest index
        layout = fock.make_layout([2, 5])
        assert layout.flat_index((1, 0)) == 5
        assert layout.flat_index((0, 3)) == 3

    def test_interior_indices(self):
        layout = fock.make_layout([2, 6])
        idx = layout.interior_indices(2)
        assert all(oracles.multi_index(layout, i)[1] <= 2 for i in idx)
        assert len(idx) == 6
        # every mode but the qubit mode 0 is bounded
        assert list(fock.make_layout([2, 3, 3]).interior_indices(0)) == [0, 9]

    def test_interior_box(self):
        # every mode but the qubit mode 0 keeps min(D, max(bound + 1, 2)) levels
        layout = fock.make_layout([2, 10, 10])
        assert layout.interior_box(3).dims == (2, 4, 4)
        assert layout.interior_box(0).dims == (2, 2, 2)
        assert layout.interior_box(9) == layout
        assert layout.interior_box(40) == layout
        with pytest.raises(ValueError, match="bound must be >= 0"):
            layout.interior_box(-1)


class TestLadderOperators:
    def test_annihilation_on_fock_state(self):
        layout = fock.make_layout([3])
        b = oracles.annihilation(layout, 0).matrix
        ket2 = layout.basis_vector((2,))
        out = b @ ket2
        assert np.allclose(out, np.sqrt(2.0) * layout.basis_vector((1,)))

    def test_vacuum_is_annihilated(self):
        layout = fock.make_layout([3])
        b = oracles.annihilation(layout, 0).matrix
        assert np.allclose(b @ layout.basis_vector((0,)), 0.0)

    def test_commutator_on_interior_block(self):
        D = 8
        layout = fock.make_layout([D])
        b = oracles.annihilation(layout, 0).matrix
        comm = b @ b.conj().T - b.conj().T @ b
        # identity everywhere except the top truncation level
        assert np.allclose(comm[: D - 1, : D - 1], np.eye(D - 1))
        assert comm[D - 1, D - 1] == pytest.approx(1 - D)

    def test_cross_mode_operators_commute(self):
        layout = fock.make_layout([3, 4])
        b0 = oracles.annihilation(layout, 0).matrix
        b1 = oracles.annihilation(layout, 1).matrix
        assert np.allclose(b0 @ b1 - b1 @ b0, 0.0)
        assert np.allclose(b0 @ b1.conj().T - b1.conj().T @ b0, 0.0)

    def test_number_equals_bdag_b(self):
        layout = fock.make_layout([2, 5])
        b = oracles.annihilation(layout, 1)
        n = oracles.number_op(layout, 1)
        assert np.allclose(n.matrix, b.dag @ b.matrix, atol=1e-14)

    def test_number_eigenvalue(self):
        layout = fock.make_layout([5])
        n = oracles.number_op(layout, 0).matrix
        assert np.allclose(n @ layout.basis_vector((3,)), 3 * layout.basis_vector((3,)))

    def test_qubit_z_operator(self):
        # Z_a = 2 n_a - 1 on a dim-2 mode: eigenvalues +-1, squares to identity
        layout = fock.make_layout([2])
        z = 2 * oracles.number_op(layout, 0).matrix - np.eye(2)
        assert sorted(np.linalg.eigvalsh(z)) == pytest.approx([-1.0, 1.0])
        assert np.allclose(z @ z, np.eye(2))

    def test_mode_out_of_range(self):
        layout = fock.make_layout([2, 3])
        with pytest.raises(fock.LayoutError):
            oracles.annihilation(layout, 2)
        with pytest.raises(fock.LayoutError):
            oracles.number_op(layout, -1)


class TestExpm:
    def test_zero_generator_gives_identity(self):
        layout = fock.make_layout([4])
        U = fock.expm(fock.Operator(layout, np.zeros((4, 4), dtype=complex)))
        assert np.allclose(U.matrix, np.eye(4))
        assert U.unitary

    def test_parity_operator(self):
        layout = fock.make_layout([6])
        n = oracles.number_op(layout, 0).matrix
        U = fock.expm(fock.Operator(layout, 1j * np.pi * n))
        assert np.allclose(U.matrix, np.diag((-1.0) ** np.arange(6)))

    def test_group_inverse(self):
        rng = np.random.default_rng(3)
        layout = fock.make_layout([7])
        M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        A = M - M.conj().T
        U = fock.expm(fock.Operator(layout, A))
        V = fock.expm(fock.Operator(layout, -A))
        assert np.max(np.abs(U.matrix @ V.matrix - np.eye(7))) < 1e-10

    def test_unitary_on_full_space(self):
        rng = np.random.default_rng(4)
        layout = fock.make_layout([9])
        M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        U = fock.expm(fock.Operator(layout, M - M.conj().T))
        assert np.max(np.abs(U.dag @ U.matrix - np.eye(9))) < 1e-10

    def test_rejects_non_antihermitian(self):
        layout = fock.make_layout([3])
        with pytest.raises(fock.OperatorError):
            fock.expm(fock.Operator(layout, np.eye(3, dtype=complex)))

    def test_rejects_a_matrix_of_another_shape(self):
        layout = fock.make_layout([2, 3])
        refusal = r"matrix shape \(5, 5\) does not match layout dim 6"
        with pytest.raises(fock.OperatorError, match=refusal):
            fock.Operator(layout, np.eye(5, dtype=complex))

    def test_rejects_a_product_across_layouts(self):
        a = fock.Operator(fock.make_layout([2, 3]), np.eye(6, dtype=complex))
        b = fock.Operator(fock.make_layout([3, 2]), np.eye(6, dtype=complex))
        with pytest.raises(fock.OperatorError, match="layout mismatch in operator product"):
            a @ b


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(5)
        la = fock.make_layout([3])
        lb = fock.make_layout([4])
        ra = random_density(rng, la)
        rb = random_density(rng, lb)
        joint = fock.DensityMatrix(
            fock.make_layout([3, 4]), np.kron(ra.matrix, rb.matrix)
        )
        reduced = fock.partial_trace(joint, keep=[0])
        assert np.allclose(reduced.matrix, ra.matrix)

    def test_bell_state_reduces_to_maximally_mixed(self):
        layout = fock.make_layout([2, 2])
        psi = (layout.basis_vector((0, 0)) + layout.basis_vector((1, 1))) / np.sqrt(2)
        rho = oracles.from_state_vector(layout, psi)
        for keep in ([0], [1]):
            reduced = fock.partial_trace(rho, keep=keep)
            assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(6)
        layout = fock.make_layout([2, 3, 4])
        for _ in range(10):
            rho = random_density(rng, layout)
            reduced = fock.partial_trace(rho, keep=[0, 2])
            assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_keep_order_is_respected(self):
        rng = np.random.default_rng(7)
        la = fock.make_layout([2])
        lb = fock.make_layout([3])
        ra = random_density(rng, la)
        rb = random_density(rng, lb)
        joint = fock.DensityMatrix(
            fock.make_layout([2, 3]), np.kron(ra.matrix, rb.matrix)
        )
        swapped = fock.partial_trace(joint, keep=[1, 0])
        assert np.allclose(swapped.matrix, np.kron(rb.matrix, ra.matrix))

    def test_invalid_mode_set(self):
        rng = np.random.default_rng(8)
        layout = fock.make_layout([2, 3])
        rho = random_density(rng, layout)
        with pytest.raises(fock.LayoutError):
            fock.partial_trace(rho, keep=[])
        with pytest.raises(fock.LayoutError):
            fock.partial_trace(rho, keep=[2])
        with pytest.raises(fock.LayoutError, match="duplicate modes in keep"):
            fock.partial_trace(rho, keep=[1, 1])


class TestEvolve:
    def test_identity_leaves_state_unchanged(self):
        rng = np.random.default_rng(9)
        layout = fock.make_layout([2, 3])
        rho = random_density(rng, layout)
        out = oracles.evolve(rho, oracles.identity(layout))
        assert np.allclose(out.matrix, rho.matrix)

    def test_pure_state_maps_to_rotated_pure_state(self):
        rng = np.random.default_rng(10)
        layout = fock.make_layout([5])
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi /= np.linalg.norm(psi)
        rho = oracles.from_state_vector(layout, psi)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        U = fock.expm(fock.Operator(layout, M - M.conj().T))
        out = oracles.evolve(rho, U)
        expected = oracles.from_state_vector(layout, U.matrix @ psi)
        assert np.allclose(out.matrix, expected.matrix)

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(11)
        layout = fock.make_layout([2, 4])
        rho = random_density(rng, layout)
        M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        U = fock.expm(fock.Operator(layout, M - M.conj().T))
        out = oracles.evolve(rho, U)
        assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
        assert np.allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
        )

    def test_layout_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, fock.make_layout([2, 3]))
        with pytest.raises(fock.OperatorError):
            oracles.evolve(rho, oracles.identity(fock.make_layout([3, 2])))

    @pytest.mark.parametrize(
        "factor",
        [
            circuits.Kerr(0, 2, 0.1),
            circuits.Kerr(-1, 1, 0.1),
            circuits.PhaseShift(((2, 0.3),)),
            circuits.PhaseShift(((1, 0.3), (-1, 0.2))),
        ],
    )
    def test_phase_factor_mode_out_of_range_rejected(self, factor):
        # the mode check circuits.kerr and circuits.phase_shift make; a
        # negative mode would otherwise index the last mode silently
        rho = loss.make_plus_plus(fock.make_layout([2, 6]))
        with pytest.raises(fock.LayoutError, match="out of range for 2 modes"):
            fock.evolve(rho, factor)


class TestDiagonalOperators:
    """Phase factors conjugate a state elementwise by their phase vectors,
    and diagonal operators multiply like any other; the dense conjugation
    and products are the oracle."""

    def test_evolve_matches_dense_conjugation(self):
        rng = np.random.default_rng(21)
        layout = fock.make_layout([2, 3, 4])
        rho = random_density(rng, layout)
        phases = rng.uniform(-np.pi, np.pi, layout.dims)
        for factor in (
            circuits.Kerr(0, 2, 0.7),
            circuits.PhaseShift(((1, 0.4), (2, -1.3)), 0.2),
            fock.PhaseFactor(lambda n: phases[tuple(n)]),
        ):
            U = oracles.truncated_product(layout, [factor]).matrix
            dense = U @ rho.matrix @ U.conj().T
            out = fock.evolve(rho, factor)
            assert np.max(np.abs(out.matrix - dense)) <= 1e-14

    def test_products_match_dense_products(self):
        rng = np.random.default_rng(22)
        layout = fock.make_layout([3, 5])
        n = layout.total_dim
        D1 = fock.Operator(
            layout, np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n))), unitary=True
        )
        D2 = fock.Operator(
            layout, np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n))), unitary=True
        )
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S = fock.expm(fock.Operator(layout, M - M.conj().T))
        for left, right in ((D1, S), (S, D2), (D1, D2), (S, S)):
            product = left @ right
            dense = left.matrix @ right.matrix
            assert np.max(np.abs(product.matrix - dense)) <= 1e-14
            assert product.unitary

    @pytest.mark.parametrize("block", [None, 0, 1, 5])
    def test_diagonal_residual_matches_dense_difference(self, block):
        # a diagonal right side kept as its vector: the same max-norm as the
        # dense difference on the interior block, caller's matrix untouched
        rng = np.random.default_rng(23)
        layout = fock.make_layout([2, 4, 3])
        n = layout.total_dim
        u = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = np.diag(u + 0.5) + 0.01 * noise
        U = fock.Operator(layout, M.copy())
        idx = np.arange(n) if block is None else layout.interior_indices(block)
        want = np.max(np.abs((M - np.diag(u))[np.ix_(idx, idx)]))
        assert fock.diagonal_residual(U, u, block) == want
        assert np.array_equal(U.matrix, M)

    def test_diagonal_residual_refuses_a_negative_block(self):
        # an empty interior would read as a residual of 0.0, a pass
        layout = fock.make_layout([2, 4])
        u = fock.phase_vector(layout, [circuits.Kerr(0, 1, 0.3)])
        dense = fock.Operator(layout, np.diag(u))
        compressed = fock.compress_product(layout, [fock.PairSqueeze((1,), 0.2)])
        for U in (dense, compressed):
            with pytest.raises(ValueError, match=r"block=-1"):
                fock.diagonal_residual(U, u, -1)


def ladder_coupling(kind, size):
    """Couplings of a squeezer sector ladder with `size` states: <n|bb/2|n+2>
    along parity p (kind ("parity", p)) or <m+a, m|bc|m+a+1, m+1> along
    n_b - n_c = a (kind ("two-mode", a))."""
    family, k = kind
    m = np.arange(size - 1, dtype=float)
    if family == "parity":
        n = k + 2 * m
        return 0.5 * np.sqrt((n + 1.0) * (n + 2.0))
    return np.sqrt((m + k + 1.0) * (m + 1.0))


class TestLadderExp:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 201])
    @pytest.mark.parametrize(
        "kind",
        [("parity", 0), ("parity", 1), ("two-mode", 0), ("two-mode", 5)],
        ids=["parity-even", "parity-odd", "two-mode-a0", "two-mode-a5"],
    )
    @pytest.mark.parametrize("theta", [0.7, -1.3])
    def test_matches_dense_exponential(self, size, kind, theta):
        # the oracle walk's real even-odd rotation against scipy's expm of
        # the ladder generator, on complex columns
        coupling = ladder_coupling(kind, size)
        T = np.diag(-coupling, 1) + np.diag(coupling, -1)
        want = scipy.linalg.expm(theta * T)
        eig = fock._ladder_eig(coupling)
        rng = np.random.default_rng(size)
        V = rng.normal(size=(size, 2, 3)) + 1j * rng.normal(size=(size, 2, 3))
        got = oracles.ladder_exp(eig, theta, V)
        assert got.shape == V.shape and got.dtype == V.dtype
        assert np.max(np.abs(got - np.einsum("ij,jkl->ikl", want, V))) <= 2e-11


class TestParityExp:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 201])
    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @pytest.mark.parametrize("theta", [0.7, -1.3])
    def test_matches_the_rotation_of_the_identity(self, size, parity, theta):
        # the block formed from the SVD against the oracle's rotation of the
        # ladder's identity, bit for bit, and against scipy's expm
        coupling = ladder_coupling(("parity", parity), size)
        eig = fock._ladder_eig(coupling)
        exp = fock._parity_exp(eig, theta)
        assert exp.dtype == float
        assert np.array_equal(exp, oracles.ladder_exp(eig, theta, np.eye(size)))
        T = np.diag(-coupling, 1) + np.diag(coupling, -1)
        assert np.max(np.abs(exp - scipy.linalg.expm(theta * T))) <= 2e-11
        assert np.max(np.abs(exp.T @ exp - np.eye(size))) <= 1e-13


class TestLadderEig:
    """The half-size SVD of the even-odd block against the ladder matrix it
    decomposes and against scipy's tridiagonal eigensolver."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 201])
    @pytest.mark.parametrize(
        "kind",
        [("parity", 0), ("parity", 1), ("two-mode", 0), ("two-mode", 5)],
        ids=["parity-even", "parity-odd", "two-mode-a0", "two-mode-a5"],
    )
    def test_rebuilds_ladder_generator(self, size, kind):
        coupling = ladder_coupling(kind, size)
        s, U, V = fock._ladder_eig(coupling)
        even, half = (size + 1) // 2, size // 2
        T = np.diag(-coupling, 1) + np.diag(coupling, -1)
        scale = coupling.max(initial=1.0)
        assert s.shape == (half,) and U.shape == (even, even) and V.shape == (half, half)
        assert np.max(np.abs(U.T @ U - np.eye(even))) <= 1e-13
        assert np.max(np.abs(V.T @ V - np.eye(half)), initial=0.0) <= 1e-13
        # with the even positions first T is [[0, B], [-B^T, 0]], and
        # B = U_h diag(s) V^T its sign-folded even-odd block
        B = (U[:, :half] * s) @ V.T
        assert np.max(np.abs(B - T[0::2, 1::2]), initial=0.0) <= 1e-13 * scale
        rebuilt = np.zeros((size, size))
        rebuilt[0::2, 1::2], rebuilt[1::2, 0::2] = B, -B.T
        assert np.max(np.abs(rebuilt - T)) <= 1e-13 * scale
        # the spectrum of i T, that of its symmetric twin: +-s, and the
        # zero mode on an odd ladder
        w = np.concatenate([s, -s, np.zeros(size - 2 * half)])
        want = scipy.linalg.eigh_tridiagonal(np.zeros(size), -coupling, eigvals_only=True)
        assert np.max(np.abs(np.sort(w) - want)) <= 1e-13 * scale


class TestPairSqueezer:
    """Sector-built squeezers against fock.expm of the kron-embedded
    generator on the whole truncated space."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("theta", [0.7, -1.3])
    def test_single_mode_matches_dense_exponential(self, mode, theta):
        layout = fock.make_layout([3, 7, 5])
        S = oracles.truncated_product(layout, [fock.PairSqueeze((mode,), theta)])
        assert S.unitary
        assert np.max(np.abs(S.matrix - dense_squeezer(layout, (mode,), theta))) <= 1e-13

    @pytest.mark.parametrize(
        "dims, modes",
        [([6, 6], (0, 1)), ([4, 6], (0, 1)), ([6, 4], (1, 0)), ([3, 4, 5], (2, 1))],
    )
    def test_two_mode_matches_dense_exponential(self, dims, modes):
        layout = fock.make_layout(dims)
        S = oracles.truncated_product(layout, [fock.PairSqueeze(modes, 0.8)])
        assert S.unitary
        assert np.max(np.abs(S.matrix - dense_squeezer(layout, modes, 0.8))) <= 1e-13

    @pytest.mark.parametrize("modes", [(1, 1), (0, 1, 2), (), (3,), (1, 3)])
    def test_rejects_bad_modes(self, modes):
        with pytest.raises(fock.LayoutError):
            oracles.truncated_product(fock.make_layout([3, 4, 4]), [fock.PairSqueeze(modes, 0.3)])


def dense_product(layout, factors):
    """Dense product of the factors, factors[0] applied first: squeezers by
    dense_squeezer, phases as explicit diagonals."""
    n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    U = np.eye(layout.total_dim, dtype=complex)
    for f in factors:
        if isinstance(f, fock.PairSqueeze):
            F = dense_squeezer(layout, f.modes, f.theta)
        else:
            F = np.diag(np.exp(1j * (f.phase(n) + np.zeros(layout.total_dim))))
        U = F @ U
    return U


class TestTruncatedProduct:
    """The sector walk on the layout's own ladders against the dense product
    of fock.expm-built factors."""

    @pytest.mark.parametrize(
        "dims, modes",
        [([2, 12], (1,)), ([3, 4, 6], (1, 2)), ([3, 6, 4], (2, 1))],
    )
    def test_matches_dense_product(self, dims, modes):
        layout = fock.make_layout(dims)
        factors = [
            fock.PairSqueeze(modes, 0.6),
            fock.PhaseFactor(lambda n: 0.4 * n[0] * n[1] - 0.15 * n[-1] ** 2 + 0.2),
            fock.PairSqueeze(modes, -1.1),
        ]
        U = oracles.truncated_product(layout, factors)
        assert U.unitary
        assert np.max(np.abs(U.matrix - dense_product(layout, factors))) <= 1e-13

    def test_without_squeezer_is_diagonal_unitary(self):
        layout = fock.make_layout([2, 5, 3])
        factors = [
            fock.PhaseFactor(lambda n: 0.3 * n[0] * n[1]),
            fock.PhaseFactor(lambda n: -0.7 * n[2] + 0.1),
        ]
        U = oracles.truncated_product(layout, factors)
        assert U.unitary
        assert np.max(np.abs(U.matrix - dense_product(layout, factors))) <= 1e-13

    def test_rejects_squeezers_on_different_modes(self):
        layout = fock.make_layout([2, 4, 4])
        factors = [fock.PairSqueeze((1,), 0.1), fock.PairSqueeze((1, 2), 0.1)]
        with pytest.raises(fock.OperatorError):
            oracles.truncated_product(layout, factors)


class TestPhaseFirstWalk:
    """A walk whose first factor is a phase: each sector's box columns are
    phased before any squeezer acts on them.  Single-mode on a box of even
    and of odd dimension (13: an odd parity ladder, with its zero mode) and
    two-mode, each with a spectator mode the phases tell apart."""

    CASES = [([2, 12], (1,), 0.6), ([2, 13], (1,), 0.6), ([2, 5, 5], (2, 1), 0.05)]

    @staticmethod
    def factors(modes, theta):
        return [
            fock.PhaseFactor(lambda n: 0.4 * n[0] * n[1] - 0.15 * n[-1] ** 2 + 0.2),
            fock.PairSqueeze(modes, theta),
            fock.PhaseFactor(lambda n: -0.3 * n[1] * n[-1] + 0.1 * n[0]),
        ]

    @pytest.mark.parametrize("dims, modes, theta", CASES)
    def test_truncated_product_matches_dense_product(self, dims, modes, theta):
        layout = fock.make_layout(dims)
        factors = self.factors(modes, theta)
        U = oracles.truncated_product(layout, factors)
        assert np.max(np.abs(U.matrix - dense_product(layout, factors))) <= 1e-13

    @pytest.mark.parametrize("dims, modes, theta", CASES)
    def test_compression_matches_dense_product_on_working_ladder(self, dims, modes, theta):
        # the oracle walk's compression is the product truncated to its
        # working ladder, restricted to the box; its phases are not affine,
        # so fock.compress_product refuses them (TestCompressProduct)
        layout = fock.make_layout(dims)
        factors = self.factors(modes, theta)
        C = oracles.walk_product(layout, factors)
        big = fock.make_layout([C.work_dim if m in modes else d for m, d in enumerate(dims)])
        idx = [big.flat_index(oracles.multi_index(layout, i)) for i in range(layout.total_dim)]
        full = dense_product(big, factors)[np.ix_(idx, idx)]
        assert np.max(np.abs(C.matrix - full)) <= 1e-13


class TestParityBlocks:
    """A single-mode squeezer's even and odd n_b blocks, taken straight off
    the two parity ladders, against the placed sector-walk product."""

    @pytest.mark.parametrize("dim", [20, 21])  # 21: unequal parity ladders
    def test_blocks_are_the_truncated_product_blocks(self, dim):
        layout = fock.make_layout([2, dim])
        squeezers = [fock.PairSqueeze((1,), 0.7), fock.PairSqueeze((1,), -1.3)]
        blocks = fock.parity_blocks(layout, squeezers)
        assert list(blocks) == squeezers
        for s in squeezers:
            U = oracles.truncated_product(layout, [s]).matrix.reshape(2, dim, 2, dim)
            for p, block in enumerate(blocks[s]):
                for na in (0, 1):
                    assert np.array_equal(block, U[na, p::2, na, p::2])

    def test_one_entry_per_distinct_squeezer(self):
        # the plan holds S1 twice: its blocks are taken once
        layout = fock.make_layout([2, 20])
        params = su11.solve_params(0.5, 0.5)
        gates = circuits.two_mode_plan(params, layout).gates
        squeezers = [g for g in gates if isinstance(g, fock.PairSqueeze)]
        assert len(squeezers) == 3
        blocks = fock.parity_blocks(layout, squeezers)
        assert len(blocks) == 2
        for parities in blocks.values():
            assert [b.shape for b in parities] == [(10, 10), (10, 10)]

    def test_rejects_two_mode_squeezer(self):
        layout = fock.make_layout([2, 4, 4])
        with pytest.raises(fock.OperatorError, match="single-mode"):
            fock.parity_blocks(layout, [fock.PairSqueeze((1, 2), 0.3)])

    @pytest.mark.parametrize("dim", [3, 20, 21, 160])
    def test_blocks_equal_the_eye_product(self, dim):
        # each block is its ladder's exponential, formed from the SVD: the
        # parity slice of the dense squeezer, built and cached alike
        layout = fock.make_layout([2, dim])
        squeezers = [fock.PairSqueeze((1,), t) for t in (0.7, -1.3, 2.5)]
        want = {
            s: dense_squeezer(layout, s.modes, s.theta).reshape(2, dim, 2, dim)
            for s in squeezers
        }
        fock._parity_eigs.cache_clear()
        for _ in ("eigenbases built", "eigenbases cached"):
            got = fock.parity_blocks(layout, squeezers)
            assert list(got) == squeezers
            for s in squeezers:
                for p, block in enumerate(got[s]):
                    for na in (0, 1):
                        ref = want[s][na, p::2, na, p::2]
                        assert block.shape == ref.shape
                        assert np.max(np.abs(block - ref)) <= 1e-13


class TestLadderCaches:
    """What is built once per ladder is handed to every caller read-only."""

    def test_cached_arrays_are_read_only(self):
        cached = [*fock._fock_grid((2, 20))]
        cached += [a for eig in fock._parity_eigs(20) for a in eig]
        assert len(cached) == 2 + 2 * 3
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestSqrtmPsd:
    def test_identity_root(self):
        layout = fock.make_layout([3])
        rho = fock.DensityMatrix(layout, np.eye(3, dtype=complex) / 3)
        root = oracles.sqrtm_psd(rho)
        assert np.allclose(root.matrix, np.eye(3) / np.sqrt(3))

    def test_diagonal_root(self):
        layout = fock.make_layout([2])
        rho = fock.DensityMatrix(layout, np.diag([4.0, 9.0]).astype(complex) / 13)
        root = oracles.sqrtm_psd(rho)
        assert np.allclose(root.matrix, np.diag([2.0, 3.0]) / np.sqrt(13))

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(13)
        layout = fock.make_layout([2, 5])
        for _ in range(5):
            rho = random_density(rng, layout)
            root = oracles.sqrtm_psd(rho).matrix
            assert np.max(np.abs(root @ root - rho.matrix)) < 1e-9

    def test_rejects_significantly_negative(self):
        layout = fock.make_layout([2])
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(fock.StateError):
            oracles.sqrtm_psd(fock.DensityMatrix(layout, bad, validate=False))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(14)
        layout = fock.make_layout([2, 3])
        rho = random_density(rng, layout)
        assert fock.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        layout = fock.make_layout([3])
        r0 = oracles.from_state_vector(layout, layout.basis_vector((0,)))
        r1 = oracles.from_state_vector(layout, layout.basis_vector((1,)))
        assert fock.fidelity(r0, r1) == pytest.approx(0.0, abs=1e-12)

    def test_plus_plus_vs_vacuum_is_quarter(self):
        layout = fock.make_layout([2, 2])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        pp = oracles.from_state_vector(layout, np.kron(plus, plus))
        vac = oracles.from_state_vector(layout, layout.basis_vector((0, 0)))
        assert fock.fidelity(pp, vac) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(15)
        layout = fock.make_layout([2, 3])
        for _ in range(10):
            r1 = random_density(rng, layout)
            r2 = random_density(rng, layout)
            f12 = fock.fidelity(r1, r2)
            f21 = fock.fidelity(r2, r1)
            assert abs(f12 - f21) < 1e-10
            assert 0.0 <= f12 <= 1.0 + 1e-10

    def test_mixed_state_against_closed_form(self):
        # commuting diagonal states: F = (sum sqrt(p_i q_i))^2
        layout = fock.make_layout([3])
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.1, 0.6, 0.3])
        r1 = fock.DensityMatrix(layout, np.diag(p).astype(complex))
        r2 = fock.DensityMatrix(layout, np.diag(q).astype(complex))
        expected = np.sum(np.sqrt(p * q)) ** 2
        assert fock.fidelity(r1, r2) == pytest.approx(expected, abs=1e-12)


class TestFidelityOnSupport:
    """fidelity restricts both states to the support of rho_ideal; the
    Uhlmann fidelity on the whole space, from known roots, is the oracle."""

    layout = fock.make_layout([2, 3, 4])

    def check(self, rng, rho1, root1):
        rho2, root2 = state_with_root(rng, self.layout, np.arange(24), 24)
        want = full_space_fidelity(root1, root2)
        assert abs(fock.fidelity(rho1, rho2) - want) <= 1e-12

    def test_pure_state(self):
        rng = np.random.default_rng(31)
        rho1, _ = state_with_root(rng, self.layout, [0, 5, 6, 17, 23], 1)
        self.check(rng, rho1, rho1.matrix)

    def test_werner_state(self):
        rng = np.random.default_rng(32)
        p = 0.3
        rho1 = loss.make_werner(self.layout, p)
        block = [self.layout.basis_vector((na, nb, 0)) for na in (0, 1) for nb in (0, 1)]
        phi = (block[0] + block[3]) / math.sqrt(2.0)
        low, high = (1 - p) / 4, p + (1 - p) / 4
        root1 = math.sqrt(low) * sum(np.outer(v, v) for v in block) + (
            math.sqrt(high) - math.sqrt(low)
        ) * np.outer(phi, phi)
        self.check(rng, rho1, root1)

    def test_one_state_support(self):
        rng = np.random.default_rng(33)
        v = self.layout.basis_vector((1, 2, 3))
        rho1 = oracles.from_state_vector(self.layout, v)
        self.check(rng, rho1, rho1.matrix)

    def test_full_support(self):
        rng = np.random.default_rng(34)
        rho1, root1 = state_with_root(rng, self.layout, np.arange(24), 24)
        self.check(rng, rho1, root1)


class TestFidelityOnABox:
    """An ideal on a box of the output's layout stands for its zero-padding:
    the same F to the bit, and any other pair of layouts is refused."""

    @staticmethod
    def ideals(rng, layout):
        return {
            "plus-plus": loss.make_plus_plus(layout),
            "werner": loss.make_werner(layout, 0.5),
            "full-support": random_density(rng, layout),
        }

    @pytest.mark.parametrize("box, dims", [([2, 3], [2, 7]), ([2, 3, 3], [2, 5, 6])])
    def test_same_fidelity_as_the_embedded_ideal(self, box, dims):
        rng = np.random.default_rng(35)
        out = random_density(rng, fock.make_layout(dims))
        for name, ideal in self.ideals(rng, fock.make_layout(box)).items():
            padded = oracles.embed_state(ideal, out.layout)
            assert fock.fidelity(ideal, out) == fock.fidelity(padded, out), name

    @pytest.mark.parametrize(
        "box, dims",
        [([2, 3, 3], [2, 7]), ([2, 3], [2, 5, 6]), ([2, 8], [2, 7]), ([2, 3, 7], [2, 5, 6])],
    )
    def test_other_layouts_are_refused(self, box, dims):
        rng = np.random.default_rng(36)
        ideal = random_density(rng, fock.make_layout(box))
        out = random_density(rng, fock.make_layout(dims))
        with pytest.raises(fock.OperatorError):
            fock.fidelity(ideal, out)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        layout = fock.make_layout([2])
        M = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(fock.StateError):
            fock.DensityMatrix(layout, M)

    def test_rejects_wrong_trace(self):
        layout = fock.make_layout([2])
        with pytest.raises(fock.StateError):
            fock.DensityMatrix(layout, np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        layout = fock.make_layout([2])
        with pytest.raises(fock.StateError):
            fock.DensityMatrix(layout, np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_a_matrix_of_another_shape(self):
        layout = fock.make_layout([2, 2])
        refusal = r"matrix shape \(2, 2\) does not match layout dim 4"
        with pytest.raises(fock.StateError, match=refusal):
            fock.DensityMatrix(layout, np.eye(2, dtype=complex) / 2)


class TestDoublings:
    """The ladder schedule alone; each caller's stopping rule is checked
    with the caller (TestLeakageCertificate, TestEarlyExit and
    tests/test_loss.py's TestLossyLeakage and TestDoublingRun)."""

    def test_doubles_from_the_start(self):
        assert list(fock.doublings(4, 1000)) == [4, 8, 16, 32, 64, 128, 256, 512]

    def test_cap_is_inclusive(self):
        assert list(fock.doublings(4, 16)) == [4, 8, 16]

    def test_start_above_cap_rejected(self):
        with pytest.raises(fock.TruncationError, match="start ladder 40 exceeds the cap 20"):
            list(fock.doublings(40, 20))


class TestCompressProduct:
    """Compressions of squeezers against closed-form squeezed vacua, which
    the gates truncated to the same ladder miss by leakage."""

    def test_single_mode_squeezed_vacuum(self):
        theta = 0.5
        layout = fock.make_layout([2, 8])
        U = fock.compress_product(layout, [fock.PairSqueeze((1,), theta)])
        for na in (0, 1):
            want = np.zeros(layout.total_dim)
            for k in range(4):
                want[layout.flat_index((na, 2 * k))] = (
                    np.tanh(theta) ** k
                    * math.sqrt(math.factorial(2 * k))
                    / (2**k * math.factorial(k))
                    / math.sqrt(math.cosh(theta))
                )
            got = U.matrix[:, layout.flat_index((na, 0))]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_two_mode_squeezed_vacuum(self):
        theta = 0.5
        layout = fock.make_layout([2, 6, 6])
        U = fock.compress_product(layout, [fock.PairSqueeze((2, 1), theta)])
        for na in (0, 1):
            want = np.zeros(layout.total_dim)
            for k in range(6):
                want[layout.flat_index((na, k, k))] = np.tanh(theta) ** k / np.cosh(theta)
            got = U.matrix[:, layout.flat_index((na, 0, 0))]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_inverse_pair_is_identity_on_whole_box(self):
        # truncated, S(-t) S(t) is the identity only away from the ladder top
        layout = fock.make_layout([2, 10, 10])
        factors = [fock.PairSqueeze((1, 2), 0.4), fock.PairSqueeze((1, 2), -0.4)]
        U = fock.compress_product(layout, factors)
        assert np.max(np.abs(U.matrix - np.eye(layout.total_dim))) < 1e-12

    def test_diagonal_factors_need_no_working_ladder(self):
        layout = fock.make_layout([2, 5])
        U = fock.compress_product(
            layout, [fock.PhaseFactor(lambda n: 0.3 * n[0] * n[1] + 0.1)]
        )
        n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
        phases = 0.3 * n[0] * n[1]
        assert np.allclose(U.matrix, np.diag(np.exp(1j * (phases + 0.1))))

    @pytest.mark.parametrize("dims, modes", [([2, 12], (1,)), ([2, 8, 8], (1, 2))])
    def test_phase_run_is_its_summed_phase(self, dims, modes):
        # a run of phase factors between squeezers acts as one phase, the
        # sum of the run's: the same blocks as the one summed factor
        layout = fock.make_layout(dims)
        first = circuits.PhaseShift(tuple((m, 0.3) for m in modes), 0.1)
        second = circuits.PhaseShift(tuple((m, -0.45) for m in modes), 0.2)
        summed = circuits.PhaseShift(tuple((m, -0.15) for m in modes), 0.3)
        S = fock.PairSqueeze(modes, 0.4)
        run = fock.compress_product(layout, [S, first, second, S])
        one = fock.compress_product(layout, [S, summed, S])
        assert len(run.blocks) == len(one.blocks)
        for a, b in zip(run.blocks, one.blocks):
            assert np.array_equal(a.index, b.index)
            assert np.max(np.abs(a.values - b.values)) <= 1e-14

    def test_rejects_squeezers_on_different_modes(self):
        layout = fock.make_layout([2, 4, 4])
        factors = [fock.PairSqueeze((1,), 0.1), fock.PairSqueeze((1, 2), 0.1)]
        with pytest.raises(fock.OperatorError):
            fock.compress_product(layout, factors)

    def test_rejects_two_mode_squeezer_on_unequal_modes(self):
        layout = fock.make_layout([2, 4, 6])
        refusal = r"squeezed modes \(1, 2\) need equal dimensions"
        with pytest.raises(fock.LayoutError, match=refusal):
            fock.compress_product(layout, [fock.PairSqueeze((1, 2), 0.1)])

    @pytest.mark.parametrize(
        "dims, modes, phase",
        [
            ([2, 12], (1,), lambda n: -0.15 * n[1] ** 2),
            ([2, 5, 5], (1, 2), lambda n: 0.3 * n[1] * n[2]),
            # a two-level box holds no quadratic, but the factor is still
            # read on three levels
            ([2, 2], (1,), lambda n: 0.2 * n[1] * (n[1] - 1) + 0.4 * n[0]),
        ],
    )
    def test_refuses_a_phase_that_is_not_affine(self, dims, modes, phase):
        # such a factor is no Gaussian unitary on the squeezed modes
        layout = fock.make_layout(dims)
        factors = [fock.PairSqueeze(modes, 0.3), fock.PhaseFactor(phase)]
        with pytest.raises(fock.OperatorError, match="not affine"):
            fock.compress_product(layout, factors)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_refuses_a_phase_run_that_holds_a_factor_not_affine(self, at):
        # the run's phases are summed into one rotation, which is still
        # read for affinity: the affine factors around it do not hide it
        layout = fock.make_layout([2, 8])
        run = [circuits.Kerr(0, 1, 0.4), circuits.PhaseShift(((1, 0.2),), 0.1)]
        run.insert(at, fock.PhaseFactor(lambda n: -0.15 * n[1] ** 2))
        S = fock.PairSqueeze((1,), 0.3)
        for factors in ([S, *run, S], [*run, S]):
            with pytest.raises(fock.OperatorError, match="not affine"):
                fock.compress_product(layout, factors)

    def test_holds_no_dense_algebra(self):
        # a compression is read by its blocks, or as .matrix; it has no
        # operator product, adjoint or unitary flag of its own
        layout = fock.make_layout([2, 4])
        U = fock.compress_product(layout, [fock.PairSqueeze((1,), 0.3)])
        for name in ("dag", "__matmul__", "unitary"):
            assert not hasattr(U, name), name


@pytest.fixture
def next_doubling(monkeypatch):
    """Records the certified blocks of the next oracles.walk_product call,
    the walk whose leakage settles, and the blocks the same walk gives on
    twice its working ladder."""
    seen = {}
    sector_blocks = oracles.sector_blocks

    def spy(layout, factors, modes, spectators, work):
        walked, leakage = sector_blocks(layout, factors, modes, spectators, work)
        if leakage < oracles.SETTLE_TOL:
            doubled = tuple(2 * w for w in work)
            seen["certified"] = walked
            seen["doubled"] = sector_blocks(layout, factors, modes, spectators, doubled)[0]
        return walked, leakage

    monkeypatch.setattr(oracles, "sector_blocks", spy)
    return seen


class TestLeakageCertificate:
    """The oracle walk (oracles.walk_product) stops where the box columns'
    weight on the top tenth of the working ladder is below SETTLE_TOL; the
    box it returns must be the one the next doubling would give."""

    @staticmethod
    def build(case, dims):
        layout = fock.make_layout(dims)
        if case == "inverse-pair":
            factors = [fock.PairSqueeze((1, 2), 0.4), fock.PairSqueeze((1, 2), -0.4)]
        else:
            factors = case_factors(case, layout, su11.solve_params(0.5, 0.5))
        return oracles.walk_product(layout, factors)

    @pytest.mark.parametrize(
        "case, dims",
        [
            ("fock-single", [2, 8]),
            ("fock-single", [2, 20]),
            ("fock-single", [2, 60]),
            ("two-mode", [2, 6]),
            ("two-mode", [2, 20]),
            ("three-mode", [2, 6, 6]),
            ("three-mode-swap", [2, 6, 6]),
            ("inverse-pair", [2, 10, 10]),
        ],
    )
    def test_certified_box_equals_next_doubling(self, next_doubling, case, dims):
        U = self.build(case, dims)
        assert U.leakage < oracles.SETTLE_TOL
        assert U.work_dim >= 2 * dims[1]
        gap = max(
            float(np.max(np.abs(a - b)))
            for (*_, a), (*_, b) in zip(next_doubling["certified"], next_doubling["doubled"])
        )
        assert gap < 1e-12

    def test_verify_layouts_stop_one_ladder_before_a_confirming_doubling(self):
        # the whole-layout working ladders at `kerramp verify`'s default
        # layouts; verify itself compresses the block boxes from kernels
        layout = fock.make_layout([2, 100])
        factors = case_factors("fock-single", layout, case_params("fock-single"))
        single = oracles.walk_product(layout, factors)
        two = self.build("two-mode", [2, 40])
        three = self.build("three-mode", [2, 14, 14])
        assert (single.work_dim, two.work_dim, three.work_dim) == (400, 320, 112)

    def test_leakage_is_largest_over_squeezer_stages(self):
        # S(-t) S(t) returns every column to the box, so only the spread
        # after the first squeezer can fail the certificate on a short ladder
        layout = fock.make_layout([2, 4])
        pair = [fock.PairSqueeze((1,), 1.0), fock.PairSqueeze((1,), -1.0)]
        spectators = oracles.spectators(layout, (1,))
        walked, leakage = oracles.sector_blocks(layout, pair, (1,), spectators, (16,))
        _, first = oracles.sector_blocks(layout, pair[:1], (1,), spectators, (16,))
        assert leakage == first > 1e-3
        assert max(float(np.max(np.abs(b - np.eye(len(b))))) for *_, b in walked) < 1e-12

    def test_cap_names_the_leakage(self):
        layout = fock.make_layout([2, 4])
        with pytest.raises(
            fock.TruncationError,
            match=r"working ladder 128: leakage \d\.\d\de[-+]\d\d >= tol 1e-12",
        ):
            oracles.walk_product(layout, [fock.PairSqueeze((1,), 3.0)])

    def test_cap_leakage_is_the_full_walk(self):
        # the cap ladder is walked in full, so its error names the whole figure
        layout = fock.make_layout([2, 4])
        factors = [fock.PairSqueeze((1,), 3.0)]
        with pytest.raises(fock.TruncationError) as err:
            oracles.walk_product(layout, factors)
        spectators = oracles.spectators(layout, (1,))
        _, full = oracles.sector_blocks(layout, factors, (1,), spectators, (128,))
        assert re.search(r"ladder 128: leakage (\S+) >=", str(err.value))[1] == f"{full:.2e}"

    def test_tail_index_is_the_top_tenth(self):
        assert [fock.tail_index(w) for w in (2, 10, 20, 112, 224, 400)] == [
            1, 9, 18, 101, 202, 360,
        ]


def compressed(case, layout):
    """(lhs, rhs) of a case's product compressed to layout (kerramp's own
    path): the identity's sides, or a circuit built on the layout."""
    params = case_params(case)
    if case in ("fock-single", "fock-two-mode"):
        return su11.identity_factors(params, su11.generators(layout, case))
    if case == "two-mode":
        return circuits.build_two_mode_amplifier(params, layout)[1:]
    return circuits.build_three_mode_amplifier(params, layout)[1:]


class TestBlockBox:
    """A compression to the layout's interior box is the whole layout's
    compression read on the box's states: both are exact."""

    @pytest.mark.parametrize("case, dims, block", BLOCK_BOX_CASES)
    def test_box_equals_the_whole_compression_on_its_states(self, case, dims, block):
        layout = fock.make_layout(dims)
        whole, whole_u = compressed(case, layout)
        box, box_u = compressed(case, layout.interior_box(block))
        # the box's states, at their flat indices in the whole layout
        idx = np.ravel_multi_index(
            np.unravel_index(np.arange(box.layout.total_dim), box.layout.dims), dims
        )
        gap = np.max(np.abs(box.matrix - whole.matrix[np.ix_(idx, idx)]))
        assert gap <= 1e-12
        assert np.array_equal(box_u, whole_u[idx])
        if box.layout == whole.layout:
            assert np.array_equal(box.matrix, whole.matrix)

    def test_box_walk_starts_from_the_box_and_keeps_the_layout_cap(self, walks):
        # the oracle walk: a two-level box starts at ladder 4 but may double
        # up to 32 D = 3200
        layout = fock.make_layout([2, 100])
        factors = [fock.PairSqueeze((1,), 1.3)]
        U = oracles.walk_product(layout, factors, 0)
        assert walks[0]["work"] == (4,)
        assert U.work_dim > 32 * 2
        with pytest.raises(fock.TruncationError, match="working ladder 64"):
            oracles.walk_product(fock.make_layout([2, 2]), factors, 0)

    def test_phase_product_is_its_box_vector(self):
        layout = fock.make_layout([2, 10, 10])
        kerr = [circuits.Kerr(0, 1, 0.4), circuits.Kerr(0, 2, -0.3)]
        C = fock.compress_product(layout.interior_box(3), kerr)
        assert C.layout.dims == (2, 4, 4)
        want = fock.phase_vector(C.layout, kerr)
        assert np.array_equal(np.diag(C.matrix), want)


@pytest.fixture
def walks(monkeypatch):
    """Records each oracles.sector_blocks call: its arguments and its number
    of squeezer applications (oracles.ladder_exp calls)."""
    seen = []
    sector_blocks, ladder_exp = oracles.sector_blocks, oracles.ladder_exp

    def blocks_spy(layout, factors, modes, spectators, work):
        seen.append({"args": (layout, factors, modes, spectators), "work": work, "exps": 0})
        return sector_blocks(layout, factors, modes, spectators, work)

    def exp_spy(*args):
        seen[-1]["exps"] += 1
        return ladder_exp(*args)

    monkeypatch.setattr(oracles, "sector_blocks", blocks_spy)
    monkeypatch.setattr(oracles, "ladder_exp", exp_spy)
    return seen


class TestEarlyExit:
    """The oracle walk has no early exit: every ladder of its schedule is
    walked in full, and the one that settles is kept."""

    def test_unsettled_ladders_are_walked_in_full(self, walks):
        TestLeakageCertificate.build("three-mode", [2, 14, 14])
        assert [w["work"] for w in walks] == [(28, 28), (56, 56), (112, 112)]
        # three squeezers in every sector that meets the box, on every ladder
        for w in walks:
            sectors = list(oracles.sectors((14, 14), w["work"]))
            assert w["exps"] == 3 * len(sectors)

    @pytest.mark.parametrize(
        "case, dims",
        [("three-mode", [2, 14, 14]), ("two-mode", [2, 40]), ("fock-single", [2, 100])],
    )
    def test_kept_ladder_equals_the_full_walk(self, walks, case, dims):
        U = TestLeakageCertificate.build(case, dims)
        layout, factors, modes, spectators = walks[-1]["args"]
        assert walks[-1]["work"] == (U.work_dim,) * len(modes)
        blocks, leakage = oracles.sector_blocks(
            layout, factors, modes, spectators, walks[-1]["work"]
        )
        assert walks[-1]["exps"] == walks[-2]["exps"]
        assert np.array_equal(U.matrix, fock._place_blocks(layout, blocks))
        assert U.leakage == leakage

    @pytest.mark.parametrize(
        "case, dims", [("fock-single", [2, 20]), ("two-mode", [2, 20]), ("three-mode", [2, 6, 6])]
    )
    def test_next_doubling_walks_in_full(self, next_doubling, case, dims):
        # the ladder past a settled one settles too, so the certificate's
        # comparison with the next doubling sees every sector
        TestLeakageCertificate.build(case, dims)
        assert len(next_doubling["doubled"]) == len(next_doubling["certified"])
