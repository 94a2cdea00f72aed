import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import oracles
from oracles import dense_generators

from kerramp import fock, su11


def bisect_theta1(delta, theta2_abs, tol=1e-12):
    """Independent inversion oracle: bisection on |theta2(theta1)|."""
    lo, hi = 0.0, 10.0
    assert abs(su11.solve_params(delta, hi).theta2) > theta2_abs
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if abs(su11.solve_params(delta, mid).theta2) < theta2_abs:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestSolveParams:
    def test_operating_point(self):
        p = su11.solve_params(0.5, 0.5)
        assert p.gamma == pytest.approx(0.7003, abs=5e-4)
        assert p.dphi_amp == pytest.approx(1.4006, abs=1e-3)

    def test_no_squeezing_collapses(self):
        p = su11.solve_params(0.3, 0.0)
        assert p.theta2 == 0.0
        assert p.gamma == pytest.approx(0.3, abs=1e-15)
        assert p.kappa == pytest.approx(2.0, abs=1e-14)

    def test_table_row_minus_3db_at_9deg(self):
        delta = math.radians(9.0)
        theta1 = su11.invert_theta2(delta, su11.db_to_theta(-3.0))
        p = su11.solve_params(delta, theta1)
        assert p.kappa == pytest.approx(2.12, abs=0.01)
        assert math.degrees(p.dphi_amp) == pytest.approx(19.1, abs=0.1)

    def test_theta2_sign_and_magnitude(self):
        p = su11.solve_params(0.7, 0.6)
        assert p.theta2 < 0
        assert abs(p.theta2) < 2 * p.theta1

    def test_gamma_in_first_quadrant(self):
        for delta in (0.05, 0.7, 1.4):
            for t1 in (0.0, 0.5, 2.0):
                p = su11.solve_params(delta, t1)
                assert 0 < p.gamma < math.pi / 2

    def test_rejects_delta_out_of_range(self):
        for delta in (0.0, -0.3, math.pi / 2, 2.0):
            with pytest.raises(su11.ParameterRangeError):
                su11.solve_params(delta, 0.5)

    def test_rejects_non_finite_theta1(self):
        with pytest.raises(ValueError):
            su11.solve_params(0.5, math.inf)

    @pytest.mark.parametrize("theta1", [1000.0, -1000.0, 1e308, -math.inf, math.nan])
    def test_rejects_theta1_whose_cosh_overflows(self, theta1):
        with pytest.raises(su11.ParameterRangeError, match="theta1"):
            su11.solve_params(0.5, theta1)

    def test_accepts_theta1_with_finite_cosh(self):
        p = su11.solve_params(0.5, 350.0)  # cosh(700) ~ 5e303
        assert math.isfinite(p.theta2)
        assert p.gamma == pytest.approx(math.pi / 2, abs=1e-12)


class TestInvertTheta2:
    def test_matches_bisection_oracle(self):
        delta = math.radians(9.0)
        t1 = su11.invert_theta2(delta, 0.345)
        assert t1 == pytest.approx(bisect_theta1(delta, 0.345), abs=1e-10)
        # frozen from the bisection oracle
        assert t1 == pytest.approx(0.1748285741, abs=1e-9)

    def test_saturation(self):
        # tanh(1.5) = 0.905 exceeds cos(28.8 deg) = 0.876
        result = su11.invert_theta2(math.radians(28.8), 1.5)
        assert isinstance(result, su11.Saturated)
        assert result.dphi_amp == pytest.approx(math.pi)
        assert result.theta2 == -1.5

    def test_zero_theta2(self):
        assert su11.invert_theta2(0.8, 0.0) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            delta = rng.uniform(0.05, math.pi / 2 - 0.1)
            theta1 = rng.uniform(0.0, 3.0)
            p = su11.solve_params(delta, theta1)
            back = su11.invert_theta2(delta, p.theta2)
            assert not isinstance(back, su11.Saturated)
            assert back == pytest.approx(theta1, abs=1e-9)

    def test_rejects_delta_out_of_range(self):
        with pytest.raises(su11.ParameterRangeError):
            su11.invert_theta2(2.0, 0.3)

    def test_rejects_nan_theta2(self):
        with pytest.raises(su11.ParameterRangeError, match="theta2"):
            su11.invert_theta2(0.5, math.nan)

    @pytest.mark.parametrize("theta2", [math.inf, -math.inf])
    def test_infinite_theta2_saturates(self, theta2):
        assert isinstance(su11.invert_theta2(0.5, theta2), su11.Saturated)

    # the edge tanh|theta2| = cos(0.5) lies at |theta2| = atanh(cos 0.5)
    EDGE = math.atanh(math.cos(0.5))

    @pytest.mark.parametrize(
        "theta2, saturated",
        [
            (0.0, False),
            (-0.0, False),
            (0.3, False),
            (-0.3, False),
            (EDGE * (1 - 1e-9), False),
            (-EDGE * (1 - 1e-9), False),
            (EDGE * (1 + 1e-9), True),
            (-EDGE * (1 + 1e-9), True),
            (math.inf, True),
            (-math.inf, True),
        ],
    )
    def test_solve_theta2_composes_invert_and_solve(self, theta2, saturated):
        theta1 = su11.invert_theta2(0.5, theta2)
        p = su11.solve_theta2(0.5, theta2)
        assert isinstance(p, su11.Saturated) == saturated
        if saturated:
            assert p == theta1
            assert p.theta2 == -abs(theta2)
        else:
            assert p == su11.solve_params(0.5, theta1)
            assert p.theta2 <= 0.0


class TestScalarHelpers:
    def test_kappa_small_delta(self):
        assert su11.kappa_small_delta(0.0) == 2.0
        assert su11.kappa_small_delta(0.1725) == pytest.approx(2.12, abs=0.01)
        assert su11.kappa_small_delta(1.1513) == pytest.approx(10.10, abs=0.05)

    def test_db_to_theta(self):
        assert su11.db_to_theta(0.0) == 0.0
        assert su11.db_to_theta(-3.0) == pytest.approx(0.3454, abs=5e-4)
        assert su11.db_to_theta(-20.0) == pytest.approx(2.3026, abs=5e-5)

    def test_db_to_theta_rejects_positive(self):
        with pytest.raises(ValueError):
            su11.db_to_theta(1.0)

    def test_db_to_theta_rejects_nan(self):
        with pytest.raises(ValueError, match="dB"):
            su11.db_to_theta(math.nan)

    def test_db_matches_table_column_pairs(self):
        printed = {-3: 0.35, -9: 1.04, -10: 1.15, -11.5: 1.32, -13: 1.50, -20: 2.30}
        for db, rad in printed.items():
            assert su11.db_to_theta(db) == pytest.approx(rad, abs=0.005)


class TestGenerators:
    def test_matrix_2x2_structure(self):
        g = su11.generators(None, "matrix-2x2")
        assert np.array_equal(g.g3, np.diag([1.0, -1.0]))
        assert np.allclose(g.g1 @ g.g2 - g.g2 @ g.g1, -2j * g.g3)
        assert oracles.commutator_residual(g) == 0.0

    def test_fock_single_commutators_on_interior(self):
        layout = fock.make_layout([2, 10])
        g = dense_generators(layout, "fock-single")
        assert oracles.commutator_residual(g, block=5) < 1e-10

    def test_fock_two_mode_commutators_on_interior(self):
        layout = fock.make_layout([2, 8, 8])
        g = dense_generators(layout, "fock-two-mode")
        assert oracles.commutator_residual(g, block=3) < 1e-10

    def test_two_mode_g3_eigenvalue(self):
        layout = fock.make_layout([2, 4, 4])
        g = dense_generators(layout, "fock-two-mode")
        ket = layout.basis_vector((1, 0, 0))
        assert np.allclose(g.g3 @ ket, ket)

    @pytest.mark.parametrize(
        "rep, dims", [("fock-single", [2, 200]), ("fock-two-mode", [2, 28, 28])]
    )
    def test_fock_generators_hold_no_matrix(self, rep, dims):
        layout = fock.make_layout(dims)
        g = su11.generators(layout, rep)
        assert (g.representation, g.layout) == (rep, layout)
        assert (g.g1, g.g2, g.g3) == (None, None, None)
        fields = [getattr(g, f.name) for f in dataclasses.fields(g)]
        assert not any(isinstance(v, np.ndarray) for v in fields)
        with pytest.raises(ValueError, match="hold no matrices"):
            oracles.commutator_residual(g)

    def test_incompatible_layout(self):
        with pytest.raises(fock.LayoutError):
            su11.generators(fock.make_layout([3, 10]), "fock-single")
        with pytest.raises(fock.LayoutError):
            su11.generators(fock.make_layout([2, 10]), "fock-two-mode")
        with pytest.raises(ValueError):
            su11.generators(None, "no-such-rep")


class TestGeneratorsByIndex:
    """The SU(1,1) algebra of the dense generators built from the
    kron-embedded ladders (oracles.dense_generators) on the largest interior
    block where the truncation leaves it intact: A† = b† b† / 2 raises n_b
    by 2, and b† c† raises n_b and n_c by 1 each."""

    @pytest.mark.parametrize(
        "rep, dims",
        [
            ("fock-single", [2, 9]),
            ("fock-single", [2, 5, 3]),
            ("fock-two-mode", [2, 6, 6]),
            ("fock-two-mode", [2, 4, 7]),
            ("fock-two-mode", [2, 5, 3, 2]),
        ],
    )
    def test_matches_embedded_ladders(self, rep, dims):
        layout = fock.make_layout(dims)
        g = dense_generators(layout, rep)
        block = dims[1] - 3 if rep == "fock-single" else min(dims[1], dims[2]) - 2
        assert oracles.commutator_residual(g, block=block) < 1e-10
        assert oracles.commutator_residual(g, block=block + 1) > 0.5


class TestVerifyIdentity:
    def test_matrix_2x2_at_operating_point(self):
        p = su11.solve_params(0.5, 0.5)
        g = su11.generators(None, "matrix-2x2")
        assert su11.verify_identity(p, g) < 1e-12

    def test_matrix_2x2_random_grid(self):
        rng = np.random.default_rng(22)
        g = su11.generators(None, "matrix-2x2")
        for _ in range(50):
            p = su11.solve_params(
                rng.uniform(1e-3, math.pi / 2 - 0.1), rng.uniform(0.0, 2.0)
            )
            assert su11.verify_identity(p, g) < 1e-12

    def test_fock_identity_converges_with_truncation(self):
        p = su11.solve_params(0.3, 0.4)
        layout = fock.make_layout([2, 100])
        g = su11.generators(layout, "fock-single")
        assert su11.verify_identity(p, g, block=20) < 1e-10

    def test_residual_shrinks_with_block(self):
        # leakage in the product of truncated factors grows toward the top
        # of the ladder
        p = su11.solve_params(0.3, 0.4)
        layout = fock.make_layout([2, 80])
        g = su11.generators(layout, "fock-single")
        left, right = oracles.identity_factors(p, g)

        def residual(block):
            idx = layout.interior_indices(block, modes=[1])
            return np.max(np.abs((left - right)[np.ix_(idx, idx)]))

        r_quarter = residual(20)
        r_half = residual(40)
        assert r_quarter < r_half

    def test_fock_two_mode_identity(self):
        p = su11.solve_params(0.4, 0.3)
        layout = fock.make_layout([2, 24, 24])
        g = su11.generators(layout, "fock-two-mode")
        assert su11.verify_identity(p, g, block=4) < 1e-8

    def test_collinear_squeezes_cancel(self):
        # delta -> 0 with theta2 = -2 theta1: squeeze parameters add to zero
        layout = fock.make_layout([2, 40])
        th = 0.3
        squeezes = [fock.PairSqueeze((1,), t) for t in (th, -2 * th, th)]
        left = oracles.truncated_product(layout, squeezes).matrix
        idx = layout.interior_indices(10, modes=[1])
        assert np.max(np.abs((left - np.eye(80))[np.ix_(idx, idx)])) < 1e-10


class TestIdentityFactors:
    @pytest.mark.parametrize(
        "rep, dims", [("fock-single", [2, 14]), ("fock-two-mode", [2, 6, 6])]
    )
    def test_fock_left_side_matches_dense_factors(self, rep, dims):
        # the five factors exponentiated densely (fock.expm) and multiplied
        # in the identity's order
        p = su11.solve_params(0.5, 0.4)
        layout = fock.make_layout(dims)
        g = dense_generators(layout, rep)

        def factor(coeff, gen):
            return fock.expm(fock.Operator(layout, 1j * coeff * gen)).matrix

        eg2_1 = factor(p.theta1, g.g2)
        eg3 = factor(p.delta / 2.0, g.g3)
        want = eg2_1 @ eg3 @ factor(p.theta2, g.g2) @ eg3 @ eg2_1
        left, right = oracles.identity_factors(p, g)
        assert np.max(np.abs(left - want)) <= 1e-13
        assert np.max(np.abs(right - factor(p.gamma, g.g3))) <= 1e-13

    @pytest.mark.parametrize(
        "rep, dims", [("fock-single", [2, 14]), ("fock-two-mode", [2, 6, 6])]
    )
    def test_fock_right_side_is_the_g3_phase_vector(self, rep, dims):
        p = su11.solve_params(0.5, 0.4)
        g = su11.generators(fock.make_layout(dims), rep)
        right = su11._right_side(p, g)
        assert right.shape == (g.layout.total_dim,)
        dense = oracles.truncated_product(g.layout, [su11._g3_factor(g, p.gamma)]).matrix
        assert np.array_equal(np.diag(right), dense)
        assert np.array_equal(oracles.identity_factors(p, g)[1], dense)

    @pytest.mark.parametrize(
        "rep, dims", [("fock-single", [2, 14]), ("fock-two-mode", [2, 6, 6])]
    )
    def test_refuses_a_fock_representation(self, rep, dims):
        # as compress_identity refuses the 2x2 one
        p = su11.solve_params(0.5, 0.4)
        g = su11.generators(fock.make_layout(dims), rep)
        with pytest.raises(ValueError, match="matrix-2x2"):
            su11.identity_factors(p, g)
        with pytest.raises(ValueError, match="Fock representation"):
            su11.compress_identity(p, su11.generators(None, "matrix-2x2"))

    @pytest.mark.parametrize("theta1", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_matrix_2x2_matches_scipy_expm(self, theta1, delta):
        # delta = 0 lies outside solve_params' range, so the angles come from
        # its formulas; theta1 = 0 or delta = 0 makes zero generators
        theta2 = math.atanh(-math.cos(delta) * math.tanh(2.0 * theta1))
        gamma = math.atan(math.tan(delta) * math.cosh(2.0 * theta1))
        p = su11.CircuitParams(delta, theta1, theta2, gamma)
        g = su11.generators(None, "matrix-2x2")
        factors = [
            1j * theta1 * g.g2,
            0.5j * delta * g.g3,
            1j * theta2 * g.g2,
            1j * gamma * g.g3,
        ]
        for M in factors:
            want = scipy.linalg.expm(M)
            assert np.max(np.abs(su11._expm_2x2(M) - want)) <= 1e-14 * np.max(np.abs(want))
        eg2_1, eg3, eg2_2, right_want = (scipy.linalg.expm(M) for M in factors)
        left_want = eg2_1 @ eg3 @ eg2_2 @ eg3 @ eg2_1
        left, right = su11.identity_factors(p, g)
        # the product's round-off scales with its factors' norms, not its own
        scale = np.max(np.abs(eg2_1)) ** 2 * np.max(np.abs(eg2_2))
        assert np.max(np.abs(left - left_want)) <= 1e-14 * scale
        assert np.max(np.abs(right - right_want)) <= 1e-14

    @pytest.mark.parametrize(
        "M",
        [
            np.zeros((2, 2)),
            np.array([[1.0, 1.0], [-1.0, -1.0]]),  # nilpotent: r = 0 exactly
            1e-9 * np.array([[1.0, 2.0j], [3.0, -1.0]]),  # r inside the series
            np.array([[0.3 + 1j, 2.0], [0.5j, -0.7]]),  # general, complex r
        ],
        ids=["zero", "nilpotent", "small-r", "general"],
    )
    def test_closed_form_2x2_exponential(self, M):
        want = scipy.linalg.expm(M)
        assert np.max(np.abs(su11._expm_2x2(M) - want)) <= 1e-14 * np.max(np.abs(want))

class TestMatrixDerivation:
    def test_no_squeezing_limit(self):
        p = su11.solve_params(0.4, 0.0)
        x, w, y = su11.verify_matrix_derivation(p)
        assert x == 0.0
        assert w == 1.0
        assert y == pytest.approx(np.exp(0.4j), abs=1e-14)

    def test_arg_y_matches_gamma(self):
        p = su11.solve_params(0.5, 0.5)
        _, _, y = su11.verify_matrix_derivation(p)
        assert np.angle(y) == pytest.approx(p.gamma, abs=1e-12)
        assert abs(y) == pytest.approx(1.0, abs=1e-12)

    def test_unit_modulus_on_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = su11.solve_params(
                rng.uniform(1e-3, math.pi / 2 - 1e-3), rng.uniform(0.0, 3.0)
            )
            _, _, y = su11.verify_matrix_derivation(p)
            assert abs(y) == pytest.approx(1.0, abs=1e-12)
            assert np.angle(y) == pytest.approx(p.gamma, abs=1e-12)


class TestLimits:
    def test_small_delta_limit_quadratic(self):
        theta1 = 0.8
        target = su11.kappa_small_delta(theta1)
        residuals = []
        delta = 1e-2
        while delta >= 1e-4 / 2:
            p = su11.solve_params(delta, theta1)
            residuals.append(abs(p.kappa - target))
            delta /= 2
        orders = [
            math.log2(residuals[i] / residuals[i + 1])
            for i in range(len(residuals) - 1)
        ]
        assert min(orders) >= 1.9

    def test_dphi_amp_monotone_in_theta1_and_bounded(self):
        for delta in (0.1, 0.5, 1.2):
            values = [
                su11.solve_params(delta, t1).dphi_amp
                for t1 in np.linspace(0.0, 3.0, 40)
            ]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert values[-1] < math.pi
