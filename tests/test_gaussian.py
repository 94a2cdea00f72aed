"""Gaussian kernels (kerramp.gaussian) and the compressions fock.compress_product
builds from them, against closed forms and against the working-ladder walk
of the tests' oracles (oracles.walk_product), an independent way to the same
elements wherever the walk settles."""

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import BLOCK_BOX_CASES, case_factors, case_params

from kerramp import fock, gaussian, su11


def walk(case, layout, params):
    """The oracle walk's compression of a case's product on layout."""
    return oracles.walk_product(layout, case_factors(case, layout, params))


def kernels(case, layout, params):
    """kerramp's compression of the same product, from Gaussian kernels."""
    return fock.compress_product(layout, case_factors(case, layout, params))


def gap(a, b):
    return float(np.max(np.abs(a.matrix - b.matrix)))


class TestKernels:
    @pytest.mark.parametrize("num_modes", [1, 2])
    def test_squeezers_compose_to_their_summed_squeeze(self, num_modes):
        # S(a) then S(b) is S(a + b): tanh adds as a velocity, and c follows
        a, b = 0.7, -0.25
        got = gaussian.compose(gaussian.squeeze(a, num_modes), gaussian.squeeze(b, num_modes))
        want = gaussian.squeeze(a + b, num_modes)
        assert abs(got.c - want.c) <= 1e-15
        assert np.max(np.abs(got.A - want.A)) <= 1e-15

    @pytest.mark.parametrize("num_modes", [1, 2])
    def test_stacked_compose_is_each_entry_composed_alone(self, num_modes):
        # an unstacked squeezer broadcasts against a stacked rotation, in
        # either order, and each stack entry gets the bits it gets alone
        rng = np.random.default_rng(7)
        S = gaussian.squeeze(0.6, num_modes)
        R = gaussian.rotation(rng.uniform(-3, 3, 4), rng.uniform(-3, 3, (4, num_modes)))
        for first, second in ((S, R), (R, S)):
            got = gaussian.compose(first, second)
            for i in range(4):
                entry = [k if k is S else gaussian.Kernel(k.c[i], k.A[i]) for k in (first, second)]
                want = gaussian.compose(*entry)
                assert np.array_equal(got.c[i], want.c) and np.array_equal(got.A[i], want.A)

    @pytest.mark.parametrize("levels", [2, 7, 30])
    def test_rotation_elements_are_its_phases(self, levels):
        # exp(i (phi0 + phi n)) on one mode, and on two by n_b - n_c band
        one = gaussian.elements(gaussian.rotation(np.array(0.2), np.array([0.9])), levels)
        ((n,), values) = one[0]
        assert np.max(np.abs(values - np.diag(np.exp(1j * (0.2 + 0.9 * n))))) <= 1e-14
        bands = gaussian.elements(gaussian.rotation(np.array(0.2), np.array([0.9, -0.4])), levels)
        assert len(bands) == 2 * levels - 1
        for (nb, nc), values in bands:
            want = np.diag(np.exp(1j * (0.2 + 0.9 * nb - 0.4 * nc)))
            assert np.max(np.abs(values - want)) <= 1e-14


class TestPhaseRuns:
    """compress_product composes one rotation per run of phase factors."""

    @pytest.mark.parametrize(
        "case, dims, composes",
        [
            # three squeezers, three phase runs
            ("two-mode", [2, 6], 6),
            ("three-mode", [2, 4, 4], 6),
            ("three-mode-swap", [2, 4, 4], 6),
            # three squeezers, two one-factor runs
            ("fock-single", [2, 6], 5),
            ("fock-two-mode", [2, 4, 4], 5),
        ],
    )
    def test_one_compose_per_squeezer_and_phase_run(self, monkeypatch, case, dims, composes):
        layout = fock.make_layout(dims)
        factors = case_factors(case, layout, case_params(case))
        calls = []
        compose = gaussian.compose

        def spy(*kernels):
            calls.append(1)
            return compose(*kernels)

        monkeypatch.setattr(gaussian, "compose", spy)
        fock.compress_product(layout, factors)
        assert len(calls) == composes


class TestAgainstTheWalk:
    """The elements equal the oracle walk's on the walk's settled boxes."""

    @pytest.mark.parametrize("case, dims, block", BLOCK_BOX_CASES)
    def test_block_box_cases(self, case, dims, block):
        # the walk composes the box under the whole layout's cap 32 D
        layout, params = fock.make_layout(dims), case_params(case)
        want = oracles.walk_product(layout, case_factors(case, layout, params), block)
        assert gap(kernels(case, layout.interior_box(block), params), want) <= 1e-12

    @pytest.mark.parametrize("dims", [[2, 6, 6], [2, 10, 10]])
    def test_swap_decomposed_three_mode_plan(self, dims):
        # the BLOCK_BOX_CASES hold both Fock identities and the plain plans
        layout, params = fock.make_layout(dims), su11.solve_params(0.5, 0.4)
        case = "three-mode-swap"
        assert gap(kernels(case, layout, params), walk(case, layout, params)) <= 1e-12

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        case=st.sampled_from(["fock-single", "fock-two-mode", "two-mode", "three-mode"]),
        levels=st.integers(2, 20),
        delta=st.floats(0.05, 1.5),
        theta1=st.floats(0.0, 1.0),
    )
    def test_property_where_the_walk_settles(self, case, levels, delta, theta1):
        # the walk composes the box under the cap 32 D of a layout large
        # enough that it settles on every box here at theta1 <= 1: D = 40
        # for one squeezed mode, 20 for two
        dims = [2, 40] if case in ("fock-single", "two-mode") else [2, 20, 20]
        layout, params = fock.make_layout(dims), su11.solve_params(delta, theta1)
        want = oracles.walk_product(layout, case_factors(case, layout, params), levels - 1)
        assert gap(kernels(case, want.layout, params), want) <= 1e-12
