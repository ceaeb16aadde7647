import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from zenocoupler import (
    Classification,
    CoherentInputs,
    CouplerParams,
    InvalidParameters,
    ZenoCouplerError,
    classify,
    mean_photon_b2,
    mean_photon_b2_uncoupled,
    mode_means,
    zeno_parameter,
    zeno_sample,
)

from conftest import random_params

FIG2_PARAMS = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
FIG2_INPUTS = CoherentInputs(alpha=5.0, beta=2.0, gamma=1.0)

# Frozen 50-digit mpmath references at the Fig. 2 parameter point, z = 50.
NB2_FIG2_Z50 = 0.81294097369765669
NB2_UNC_FIG2_Z50 = 1.0009999979166684
ZENO_FIG2_Z50 = -0.188059024219011712
NB2_UNC_Z100 = 1.00399996666677778
MEANS_FIG2_Z50 = (6.41768863655783226, 22.9564294160468544, 0.81294097369765669)


class TestMeanPhotonB2:
    def test_vacuum(self):
        assert mean_photon_b2(FIG2_PARAMS, CoherentInputs(), 33.0) == 0

    def test_zero_length(self):
        assert mean_photon_b2(FIG2_PARAMS, FIG2_INPUTS, 0.0) == 1.0

    def test_frozen_reference(self):
        got = mean_photon_b2(FIG2_PARAMS, FIG2_INPUTS, 50.0)
        assert got == pytest.approx(NB2_FIG2_Z50, rel=1e-13)


class TestUncoupledReference:
    def test_spontaneous_is_zero(self):
        inputs = CoherentInputs(beta=2.0, gamma=0.0)
        assert mean_photon_b2_uncoupled(0.001, 1e-4, inputs, 100.0) == 0

    def test_zero_length(self):
        inputs = CoherentInputs(beta=2.0, gamma=0.7)
        assert mean_photon_b2_uncoupled(0.001, 1e-4, inputs, 0.0) == pytest.approx(
            0.49, abs=1e-15
        )

    def test_frozen_reference(self):
        inputs = CoherentInputs(beta=2.0, gamma=1.0)
        got = mean_photon_b2_uncoupled(0.001, 1e-4, inputs, 100.0)
        assert got == pytest.approx(NB2_UNC_Z100, rel=1e-13)

    def test_alpha_ignored(self):
        with_alpha = CoherentInputs(alpha=9.0, beta=2.0, gamma=1.0)
        without = CoherentInputs(alpha=0.0, beta=2.0, gamma=1.0)
        assert mean_photon_b2_uncoupled(
            0.001, 1e-4, with_alpha, 60.0
        ) == mean_photon_b2_uncoupled(0.001, 1e-4, without, 60.0)


class TestZenoParameter:
    def test_spontaneous_nullity(self):
        inputs = CoherentInputs(alpha=5.0, beta=2.0, gamma=0.0)
        for z in (0.0, 13.0, 100.0):
            assert zeno_parameter(FIG2_PARAMS, inputs, z) == 0

    def test_frozen_reference(self):
        got = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS, 50.0)
        assert got == pytest.approx(ZENO_FIG2_Z50, rel=1e-13)

    def test_fig2_negative_over_scan(self):
        for gz in np.linspace(0.001, 0.1, 100):
            assert zeno_parameter(FIG2_PARAMS, FIG2_INPUTS, gz / 0.001) < 0

    def test_gamma_negation_flips_sign(self):
        flipped = CoherentInputs(alpha=5.0, beta=2.0, gamma=-1.0)
        a = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS, 50.0)
        b = zeno_parameter(FIG2_PARAMS, flipped, 50.0)
        assert a == -b

    def test_consistency_with_means(self, rng):
        for _ in range(200):
            p = random_params(rng)
            z = rng.uniform(0.0, 150.0)
            inputs = CoherentInputs(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            lhs = zeno_parameter(p, inputs, z)
            rhs = mean_photon_b2(p, inputs, z) - mean_photon_b2_uncoupled(
                p.gamma_nl, p.delta_k, inputs, z
            )
            assert abs(lhs - rhs) < 1e-12

    def test_phase_sinusoid(self, rng):
        z = 50.0
        d0 = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS.with_phi(0.0), z)
        d90 = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS.with_phi(math.pi / 2), z)
        for phi in rng.uniform(0, 2 * np.pi, size=100):
            d = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS.with_phi(float(phi)), z)
            assert abs(d - (d0 * math.cos(phi) + d90 * math.sin(phi))) < 1e-12

    def test_pi_switching(self, rng):
        z = 80.0
        for phi in rng.uniform(0, 2 * np.pi, size=100):
            d = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS.with_phi(float(phi)), z)
            dpi = zeno_parameter(
                FIG2_PARAMS, FIG2_INPUTS.with_phi(float(phi) + math.pi), z
            )
            assert abs(d + dpi) < 1e-13

    def test_gamma_magnitude_homogeneity(self):
        z = 50.0
        d1 = zeno_parameter(FIG2_PARAMS, FIG2_INPUTS, z)
        for s in (0.5, 2.0, 7.25):
            scaled = CoherentInputs(alpha=5.0, beta=2.0, gamma=s)
            ds = zeno_parameter(FIG2_PARAMS, scaled, z)
            assert abs(ds - s * d1) <= 1e-13 * abs(ds)

    def test_gamma_nl_linearity(self, rng):
        for _ in range(50):
            p = random_params(rng)
            p2 = CouplerParams(k=p.k, gamma_nl=2 * complex(p.gamma_nl), delta_k=p.delta_k)
            z = rng.uniform(1.0, 150.0)
            d1 = zeno_parameter(p, FIG2_INPUTS, z)
            d2 = zeno_parameter(p2, FIG2_INPUTS, z)
            assert abs(d2 - 2 * d1) <= 1e-13 * max(abs(d2), 1e-300)


class TestClassify:
    def test_zeno(self):
        assert classify(-0.01, 1e-12) is Classification.ZENO

    def test_null(self):
        assert classify(0.0, 1e-12) is Classification.NULL

    def test_anti_zeno(self):
        assert classify(0.02, 1e-12) is Classification.ANTI_ZENO

    def test_within_tolerance_is_null(self):
        assert classify(5e-13, 1e-12) is Classification.NULL
        assert classify(-5e-13, 1e-12) is Classification.NULL

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(InvalidParameters):
            classify(value)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            classify(0.1, -1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("mode", ["alpha", "beta", "gamma"])
def test_non_finite_amplitude_rejected(mode, value):
    with pytest.raises(InvalidParameters):
        zeno_parameter(FIG2_PARAMS, CoherentInputs(**{mode: value}), 50.0)
    with pytest.raises(InvalidParameters):
        mode_means(FIG2_PARAMS, CoherentInputs(**{mode: value}), 50.0)


# From far below 1 to far past where a squared amplitude overflows a double.
OVERFLOW_GRID = (0.0, 1e-300, 1.0, 1e100, 1e150, 1e154, 1e160, 1e200, 1e300)


class TestOverflowingAmplitudes:
    def test_a_finite_number_or_a_typed_error(self):
        # each of the five closed-form functions, at each triple of the grid
        outcomes = {"finite": 0, "typed": 0}
        for amplitudes in itertools.product(OVERFLOW_GRID, repeat=3):
            inputs = CoherentInputs(*amplitudes)
            for call in (
                lambda: astuple(zeno_sample(FIG2_PARAMS, inputs, 50.0))[1:4],
                lambda: mode_means(FIG2_PARAMS, inputs, 50.0),
                lambda: (zeno_parameter(FIG2_PARAMS, inputs, 50.0),),
                lambda: (mean_photon_b2(FIG2_PARAMS, inputs, 50.0),),
                lambda: (mean_photon_b2_uncoupled(0.001, 1e-4, inputs, 50.0),),
            ):
                try:
                    numbers = call()
                except ZenoCouplerError:
                    outcomes["typed"] += 1
                    continue
                assert all(math.isfinite(x) for x in numbers), amplitudes
                outcomes["finite"] += 1
        assert min(outcomes.values()) > 0

    @pytest.mark.parametrize("amplitudes,message", [
        ((0.0, 0.0, 1e154), "photon number overflows"),  # 2|gamma|^2 > max double
        ((1e154, 0.0, 1e150), "closed form overflows"),  # h4 alpha^2 gamma*
    ])
    def test_which_guard_raises(self, amplitudes, message):
        inputs = CoherentInputs(*amplitudes)
        with pytest.raises(InvalidParameters, match=message):
            zeno_parameter(FIG2_PARAMS, inputs, 50.0)
        with pytest.raises(InvalidParameters, match=message):
            mode_means(FIG2_PARAMS, inputs, 50.0)


class TestZenoSample:
    def test_record_consistency(self):
        s = zeno_sample(FIG2_PARAMS, FIG2_INPUTS, 50.0)
        assert abs(s.delta_n_z - (s.n_b2 - s.n_b2_uncoupled)) < 1e-12
        assert s.classification is Classification.ZENO


class TestModeMeans:
    def test_zero_length(self):
        na, n1, n2 = mode_means(FIG2_PARAMS, FIG2_INPUTS, 0.0)
        assert (na, n1, n2) == (25.0, 4.0, 1.0)

    def test_linear_limit_exact(self):
        p = CouplerParams(k=0.1, gamma_nl=0.0, delta_k=1e-4)
        inputs = CoherentInputs(alpha=1.0, beta=0.5, gamma=0.0)
        for z in (3.0, 17.0, 60.0):
            na, n1, n2 = mode_means(p, inputs, z)
            c, s = math.cos(0.1 * z), math.sin(0.1 * z)
            assert na == pytest.approx(abs(1.0 * c - 1j * 0.5 * s) ** 2, abs=1e-14)
            assert n1 == pytest.approx(abs(-1j * 1.0 * s + 0.5 * c) ** 2, abs=1e-14)
            assert n2 == 0

    def test_frozen_reference(self):
        na, n1, n2 = mode_means(FIG2_PARAMS, FIG2_INPUTS, 50.0)
        assert na == pytest.approx(MEANS_FIG2_Z50[0], rel=1e-13)
        assert n1 == pytest.approx(MEANS_FIG2_Z50[1], rel=1e-13)
        assert n2 == pytest.approx(MEANS_FIG2_Z50[2], rel=1e-13)

    def test_first_order_conservation(self, rng):
        # The combination <N_a> + <N_b1> + 2<N_b2> is conserved identically
        # by the first-order expressions; the residual is pure roundoff.
        for _ in range(100):
            p = random_params(rng)
            z = rng.uniform(0.0, 150.0)
            inputs = CoherentInputs(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            na, n1, n2 = mode_means(p, inputs, z)
            total0 = (
                abs(inputs.alpha) ** 2 + abs(inputs.beta) ** 2 + 2 * abs(inputs.gamma) ** 2
            )
            assert abs(na + n1 + 2 * n2 - total0) < 1e-10
