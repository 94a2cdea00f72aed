import math
import re

import numpy as np
import pytest
import scipy.linalg
import oracles
from oracles import eye_parity_blocks, pair_lowering

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
            assert layout.flat_index(layout.multi_index(flat)) == flat

    def test_row_major_ordering(self):
        # mode 0 is the slowest index
        layout = fock.make_layout([2, 5])
        assert layout.flat_index((1, 0)) == 5
        assert layout.flat_index((0, 3)) == 3

    def test_interior_indices(self):
        layout = fock.make_layout([2, 6])
        idx = layout.interior_indices(2, modes=[1])
        assert all(layout.multi_index(i)[1] <= 2 for i in idx)
        assert len(idx) == 6


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
        rho = fock.DensityMatrix.from_state_vector(layout, psi)
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
        rho = fock.DensityMatrix.from_state_vector(layout, psi)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        U = fock.expm(fock.Operator(layout, M - M.conj().T))
        out = oracles.evolve(rho, U)
        expected = fock.DensityMatrix.from_state_vector(layout, U.matrix @ psi)
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
        idx = np.arange(n) if block is None else layout.interior_indices(block, modes=[1, 2])
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
    @pytest.mark.parametrize(
        "kind, size, inside",
        [
            (("parity", 0), 224, 28),
            (("parity", 1), 223, 27),
            (("parity", 0), 400, 100),
            (("two-mode", 3), 112, 14),
            (("two-mode", 0), 21, 10),
            (("parity", 1), 800, 200),
        ],
    )
    def test_identity_columns_need_no_product(self, kind, size, inside):
        # an int V stands for the box's identity columns eye(size, inside):
        # the same bits as the product against those columns
        eig = fock._ladder_eig(ladder_coupling(kind, size))
        eye = np.eye(size, inside, dtype=complex)[:, None]
        short = fock._ladder_exp(eig, 0.7, inside)
        assert np.array_equal(short, fock._ladder_exp(eig, 0.7, eye))


class TestLadderEig:
    """The half-size SVD eigenbasis against the ladder matrix it decomposes
    and against scipy's tridiagonal eigensolver."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 201])
    @pytest.mark.parametrize(
        "kind",
        [("parity", 0), ("parity", 1), ("two-mode", 0), ("two-mode", 5)],
        ids=["parity-even", "parity-odd", "two-mode-a0", "two-mode-a5"],
    )
    def test_rebuilds_ladder_generator(self, size, kind):
        coupling = ladder_coupling(kind, size)
        w, Q, z = fock._ladder_eig(coupling)
        S = np.diag(-coupling, 1) + np.diag(-coupling, -1)
        scale = coupling.max(initial=1.0)
        assert w.shape == (size,) and Q.shape == (size, size)
        assert np.max(np.abs(Q.T @ Q - np.eye(size))) <= 1e-13
        assert np.max(np.abs((Q * w) @ Q.T - S)) <= 1e-13 * scale
        want = scipy.linalg.eigh_tridiagonal(np.zeros(size), -coupling, eigvals_only=True)
        assert np.max(np.abs(np.sort(w) - want)) <= 1e-13 * scale
        assert z[0] == 1 and np.array_equal(z[1:], 1j * z[:-1])  # z[m] = i^m


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
        layout = fock.make_layout([2, dim])
        squeezers = [fock.PairSqueeze((1,), t) for t in (0.7, -1.3, 2.5)]
        want = eye_parity_blocks(layout, squeezers)
        fock._parity_eigs.cache_clear()
        for _ in ("eigenbases built", "eigenbases cached"):
            got = fock.parity_blocks(layout, squeezers)
            assert list(got) == squeezers
            for s in squeezers:
                for block, ref in zip(got[s], want[s], strict=True):
                    assert block.shape == ref.shape and np.array_equal(block, ref)


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
        r0 = fock.DensityMatrix.from_state_vector(layout, layout.basis_vector((0,)))
        r1 = fock.DensityMatrix.from_state_vector(layout, layout.basis_vector((1,)))
        assert fock.fidelity(r0, r1) == pytest.approx(0.0, abs=1e-12)

    def test_plus_plus_vs_vacuum_is_quarter(self):
        layout = fock.make_layout([2, 2])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        pp = fock.DensityMatrix.from_state_vector(layout, np.kron(plus, plus))
        vac = fock.DensityMatrix.from_state_vector(layout, layout.basis_vector((0, 0)))
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
        rho1 = fock.DensityMatrix.from_state_vector(self.layout, v)
        self.check(rng, rho1, rho1.matrix)

    def test_full_support(self):
        rng = np.random.default_rng(34)
        rho1, root1 = state_with_root(rng, self.layout, np.arange(24), 24)
        self.check(rng, rho1, root1)


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


class TestDoubleUntilSettled:
    def test_stops_at_first_small_change(self):
        seen = []

        def evaluate(dim):
            seen.append(dim)
            return 1.0 / dim

        s = fock.double_until_settled(
            evaluate, 4, 1000, 0.01, lambda a, b: abs(a - b)
        )
        assert seen == [4, 8, 16, 32, 64, 128]
        assert (s.dim, s.converged) == (128, True)
        assert s.change == pytest.approx(1 / 128)

    def test_cap_returns_unconverged(self):
        s = fock.double_until_settled(lambda d: d, 4, 20, 0.5, lambda a, b: a - b)
        assert (s.value, s.dim, s.change, s.converged) == (16, 16, 8, False)

    def test_start_above_cap_rejected(self):
        with pytest.raises(fock.TruncationError):
            fock.double_until_settled(lambda d: d, 40, 20, 0.5, lambda a, b: a - b)


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
        assert U.work_dim >= 8

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
        assert U.work_dim is None

    def test_rejects_squeezers_on_different_modes(self):
        layout = fock.make_layout([2, 4, 4])
        factors = [fock.PairSqueeze((1,), 0.1), fock.PairSqueeze((1, 2), 0.1)]
        with pytest.raises(fock.OperatorError):
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
    """Records the certified blocks of the next compress_product call and
    the blocks the same product gives on twice its working ladder."""
    seen = {}
    settle = fock.double_until_settled

    def spy(evaluate, start_dim, max_dim, tol, distance):
        settled = settle(evaluate, start_dim, max_dim, tol, distance)
        seen["certified"] = settled.value[0]
        seen["doubled"] = evaluate(2 * settled.dim)[0]
        return settled

    monkeypatch.setattr(fock, "double_until_settled", spy)
    return seen


class TestLeakageCertificate:
    """compress_product stops where the box columns' weight on the top tenth
    of the working ladder is below SETTLE_TOL; the box it returns must be the
    one the next doubling would give."""

    PARAMS = su11.solve_params(0.5, 0.5)

    @staticmethod
    def build(case, dims):
        layout = fock.make_layout(dims)
        params = TestLeakageCertificate.PARAMS
        if case == "fock-single":
            gens = su11.generators(layout, "fock-single")
            return su11.compress_identity(params, gens)
        if case == "two-mode":
            return circuits.build_two_mode_amplifier(params, layout)[1]
        if case == "inverse-pair":
            factors = [fock.PairSqueeze((1, 2), 0.4), fock.PairSqueeze((1, 2), -0.4)]
            return fock.compress_product(layout, factors)
        swap = case == "three-mode-swap"
        return circuits.build_three_mode_amplifier(params, layout, swap)[1]

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
        assert U.leakage < fock.SETTLE_TOL
        assert U.work_dim >= 2 * dims[1]
        gap = max(
            float(np.max(np.abs(a - b)))
            for (*_, a), (*_, b) in zip(next_doubling["certified"], next_doubling["doubled"])
        )
        assert gap < 1e-12

    def test_verify_layouts_stop_one_ladder_before_a_confirming_doubling(self):
        # the working ladders of `kerramp verify` at its defaults
        gens = su11.generators(fock.make_layout([2, 100]), "fock-single")
        single = su11.compress_identity(su11.solve_params(0.3, 0.4), gens)
        two = self.build("two-mode", [2, 40])
        three = self.build("three-mode", [2, 14, 14])
        assert (single.work_dim, two.work_dim, three.work_dim) == (400, 320, 112)

    def test_leakage_is_largest_over_squeezer_stages(self):
        # S(-t) S(t) returns every column to the box, so only the spread
        # after the first squeezer can fail the certificate on a short ladder
        layout = fock.make_layout([2, 4])
        pair = [fock.PairSqueeze((1,), 1.0), fock.PairSqueeze((1,), -1.0)]
        spectators = fock._spectators(layout, (1,))
        walked, leakage = fock._sector_blocks(layout, pair, (1,), spectators, (16,))
        _, first = fock._sector_blocks(layout, pair[:1], (1,), spectators, (16,))
        assert leakage == first > 1e-3
        assert max(float(np.max(np.abs(b[:, 0] - np.eye(len(b))))) for *_, b in walked) < 1e-12

    def test_cap_names_the_leakage(self):
        layout = fock.make_layout([2, 4])
        with pytest.raises(
            fock.TruncationError,
            match=r"working ladder 128: leakage \d\.\d\de[-+]\d\d >= tol 1e-12",
        ):
            fock.compress_product(layout, [fock.PairSqueeze((1,), 3.0)])

    def test_cap_leakage_is_the_full_walk(self):
        # the cap ladder is walked in full, so its error names the whole figure
        layout = fock.make_layout([2, 4])
        factors = [fock.PairSqueeze((1,), 3.0)]
        with pytest.raises(fock.TruncationError) as err:
            fock.compress_product(layout, factors)
        spectators = fock._spectators(layout, (1,))
        _, full = fock._sector_blocks(layout, factors, (1,), spectators, (128,))
        assert re.search(r"ladder 128: leakage (\S+) >=", str(err.value))[1] == f"{full:.2e}"

    def test_tail_index_is_the_top_tenth(self):
        assert [fock.tail_index(w) for w in (2, 10, 20, 112, 224, 400)] == [
            1, 9, 18, 101, 202, 360,
        ]


@pytest.fixture
def walks(monkeypatch):
    """Records each _sector_blocks call: its arguments and its number of
    squeezer applications (_ladder_exp calls)."""
    seen = []
    sector_blocks, ladder_exp = fock._sector_blocks, fock._ladder_exp

    def blocks_spy(layout, factors, modes, spectators, work, *stop):
        seen.append({"args": (layout, factors, modes, spectators), "work": work, "exps": 0})
        return sector_blocks(layout, factors, modes, spectators, work, *stop)

    def exp_spy(*args):
        seen[-1]["exps"] += 1
        return ladder_exp(*args)

    monkeypatch.setattr(fock, "_sector_blocks", blocks_spy)
    monkeypatch.setattr(fock, "_ladder_exp", exp_spy)
    return seen


class TestEarlyExit:
    """A ladder that will not settle is abandoned at its first column past
    SETTLE_TOL; only the ladder compress_product keeps is walked in full."""

    def test_unsettled_ladders_stop_at_their_first_squeezer(self, walks):
        layout = fock.make_layout([2, 14, 14])
        circuits.build_three_mode_amplifier(su11.solve_params(0.5, 0.5), layout)
        assert [w["work"] for w in walks] == [(14, 14), (28, 28), (56, 56), (112, 112)]
        assert [w["exps"] for w in walks[:3]] == [1, 1, 1]
        # the kept ladder: three squeezers in every sector that meets the box
        sectors = list(fock._sectors((14, 14), (112, 112)))
        assert walks[3]["exps"] == 3 * len(sectors)

    @pytest.mark.parametrize(
        "case, dims",
        [("three-mode", [2, 14, 14]), ("two-mode", [2, 40]), ("fock-single", [2, 100])],
    )
    def test_kept_ladder_equals_the_full_walk(self, walks, case, dims):
        U = TestLeakageCertificate.build(case, dims)
        layout, factors, modes, spectators = walks[-1]["args"]
        assert walks[-1]["work"] == (U.work_dim,) * len(modes)
        walked, leakage = fock._sector_blocks(
            layout, factors, modes, spectators, walks[-1]["work"]
        )
        assert walks[-1]["exps"] == walks[-2]["exps"]
        assert np.array_equal(U.matrix, fock._place_blocks(layout, walked))
        assert U.leakage == leakage

    @pytest.mark.parametrize(
        "case, dims", [("fock-single", [2, 20]), ("two-mode", [2, 20]), ("three-mode", [2, 6, 6])]
    )
    def test_next_doubling_walks_in_full(self, next_doubling, case, dims):
        # the ladder past a settled one settles too, so the certificate's
        # comparison with the next doubling sees every sector
        TestLeakageCertificate.build(case, dims)
        assert len(next_doubling["doubled"]) == len(next_doubling["certified"])
