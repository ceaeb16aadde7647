import cmath
import math

import numpy as np
import pytest

from zenocoupler import (
    CouplerParams,
    DegenerateParameters,
    InvalidParameters,
    compute_coefficients,
    compute_h2_prime,
)
from zenocoupler.coefficients import SERIES_SWITCH_PHASE

from conftest import random_params

FIG2 = dict(k=0.1, gamma_nl=0.001, delta_k=1e-4)

# High-precision (50-digit mpmath) evaluation of the closed forms at
# k=0.1, gamma_nl=0.001, delta_k=1e-4, z=100; frozen as references.
COEFFS_FIG2_Z100 = {
    "f1": -0.839071529076452452 + 0j,
    "f2": 0.544021110889369813j,
    "f3": 0.0544010082257368447 - 0.000311241138184494249j,
    "f4": -0.000392331764305640402 - 0.0784656989737644247j,
    "g1": 0.544021110889369813j,
    "g2": -0.839071529076452452 + 0j,
    "g3": 0.000446732772531377247 + 0.0893458099504136365j,
    "g4": -0.0544014005575011503 + 0.000232775439210729824j,
    "h1": 1.0 + 0j,
    "h2": 0.000272081250143033071 - 0.0522814111500673969j,
    "h3": -0.00295966962726485587 + 1.81215185447510192e-5j,
    "h4": -0.000227914583204189126 + 0.04771692219159925j,
}


class TestCouplerParams:
    def test_zero_k_rejected(self):
        with pytest.raises(InvalidParameters):
            CouplerParams(k=0.0, gamma_nl=0.001, delta_k=0.0)

    def test_resonance_rejected(self):
        with pytest.raises(DegenerateParameters):
            CouplerParams(k=0.1, gamma_nl=0.001, delta_k=0.2)

    @pytest.mark.parametrize("gamma_nl", [math.nan, math.inf, complex(0.001, math.nan)])
    def test_non_finite_gamma_nl_rejected(self, gamma_nl):
        with pytest.raises(InvalidParameters):
            CouplerParams(k=0.1, gamma_nl=gamma_nl, delta_k=1e-4)

    def test_near_resonance_passes_outside_threshold(self):
        CouplerParams(k=0.1, gamma_nl=0.001, delta_k=0.2001)


class TestComputeCoefficients:
    def test_identity_at_zero_length(self):
        c = compute_coefficients(CouplerParams(**FIG2), 0.0)
        assert c.f[0] == 1 and c.g[1] == 1 and c.h[0] == 1
        for v in (*c.f[1:], c.g[0], *c.g[2:], *c.h[1:]):
            assert v == 0

    def test_quarter_period(self):
        z = math.pi / (2 * 0.1)
        c = compute_coefficients(CouplerParams(**FIG2), z)
        assert abs(c.f[0]) < 1e-12
        assert abs(c.f[1] - (-1j)) < 1e-12

    def test_frozen_reference_values(self):
        c = compute_coefficients(CouplerParams(**FIG2), 100.0)
        got = dict(zip(["f1", "f2", "f3", "f4"], c.f))
        got.update(zip(["g1", "g2", "g3", "g4"], c.g))
        got.update(zip(["h1", "h2", "h3", "h4"], c.h))
        for name, want in COEFFS_FIG2_Z100.items():
            assert got[name] == pytest.approx(want, abs=1e-15, rel=1e-12), name

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            compute_coefficients(CouplerParams(**FIG2), -1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(InvalidParameters):
            compute_coefficients(CouplerParams(**FIG2), z)
        with pytest.raises(InvalidParameters):
            compute_h2_prime(0.001, 1e-4, z)

    def test_structural_identities_random(self, rng):
        for _ in range(1000):
            p = random_params(rng)
            z = rng.uniform(0.0, 200.0)
            c = compute_coefficients(p, z)
            assert c.h[0] == 1
            assert abs(c.f[0] - c.g[1]) < 1e-14
            assert abs(c.f[1] + c.g[0].conjugate()) < 1e-14
            assert abs(abs(c.f[0]) ** 2 + abs(c.f[1]) ** 2 - 1) < 1e-12

    def test_gamma_linearity(self, rng):
        for _ in range(200):
            p = random_params(rng)
            z = rng.uniform(0.0, 200.0)
            p2 = CouplerParams(k=p.k, gamma_nl=2 * complex(p.gamma_nl), delta_k=p.delta_k)
            c1 = compute_coefficients(p, z)
            c2 = compute_coefficients(p2, z)
            singles = (*c1.f[2:], *c1.g[2:], *c1.h[1:])
            doubles = (*c2.f[2:], *c2.g[2:], *c2.h[1:])
            for a, b in zip(singles, doubles):
                assert abs(b - 2 * a) <= 1e-13 * max(abs(b), 1e-300)

    def test_series_switch_continuity(self):
        # straddle the switch point |dk z| = 1e-6 at |k| = 1, z = 1
        lo = compute_coefficients(CouplerParams(k=1.0, gamma_nl=0.01, delta_k=0.999e-6), 1.0)
        hi = compute_coefficients(CouplerParams(k=1.0, gamma_nl=0.01, delta_k=1.001e-6), 1.0)
        # the closed form just above the switch carries ~eps/|dk z|
        # cancellation error, so continuity holds only to ~1e-8 relative
        for a, b in zip((*lo.f, *lo.g, *lo.h), (*hi.f, *hi.g, *hi.h)):
            if abs(b) > 1e-300:
                assert abs(a - b) / abs(b) < 1e-8

    def test_k_to_zero_matches_h2_prime(self):
        h2 = compute_coefficients(
            CouplerParams(k=1e-8, gamma_nl=0.001, delta_k=1e-4), 100.0
        ).h[1]
        h2p = compute_h2_prime(0.001, 1e-4, 100.0)
        assert abs(h2 - h2p) / abs(h2p) < 1e-6

    def test_complex_k_supported(self, rng):
        p = CouplerParams(k=0.06 + 0.08j, gamma_nl=0.001j, delta_k=0.05)
        c = compute_coefficients(p, 37.0)
        assert abs(abs(c.f[0]) ** 2 + abs(c.f[1]) ** 2 - 1) < 1e-12


class TestH2Prime:
    def test_zero_length(self):
        assert compute_h2_prime(0.001, 1e-4, 0.0) == 0

    def test_zero_mismatch_limit(self):
        assert compute_h2_prime(0.001, 0.0, 50.0) == pytest.approx(-0.05j, abs=1e-15)

    def test_frozen_reference(self):
        # 10 (1 - e^{0.1i}), frozen from high-precision evaluation
        got = compute_h2_prime(0.001, 1e-4, 1000.0)
        assert got == pytest.approx(
            0.049958347219742339 - 0.998334166468281523j, rel=1e-13
        )

    def test_continuity_at_switch(self):
        z = 10.0
        lo = compute_h2_prime(0.001, 0.999e-7, z)
        hi = compute_h2_prime(0.001, 1.001e-7, z)
        assert abs(lo - hi) / abs(hi) < 1e-8


class TestArrayZ:
    def test_rows_match_scalar(self, rng):
        # Every row starts at z = 0, where h2' always takes its series and
        # the coefficients do on the tiny-dk rows; those rows also straddle
        # the switch at |dk z| = SERIES_SWITCH_PHASE.  Differences are
        # rounding of the same expressions, on the scale |value| + |Gamma| z.
        for row in range(240):
            p = random_params(rng)
            z = np.concatenate([[0.0], rng.uniform(0.0, 200.0, 6)])
            if row % 3 == 0:
                dk = abs(p.k) * rng.uniform(1e-9, 1e-7)
                p = CouplerParams(k=p.k, gamma_nl=p.gamma_nl, delta_k=dk)
                switch = SERIES_SWITCH_PHASE / dk
                z = np.concatenate([z, [switch * (1 - 1e-9), switch * (1 + 1e-9)]])
            c = compute_coefficients(p, z)
            rows = [np.broadcast_to(v, z.shape) for v in (*c.f, *c.g, *c.h)]
            rows.append(compute_h2_prime(p.gamma_nl, p.delta_k, z))
            for i, zi in enumerate(z.tolist()):
                s = compute_coefficients(p, zi)
                want = (*s.f, *s.g, *s.h, compute_h2_prime(p.gamma_nl, p.delta_k, zi))
                scale = abs(p.gamma_nl) * zi
                for got, w in zip(rows, want):
                    assert abs(got[i] - w) <= 1e-13 * (abs(w) + scale)

    def test_series_finite_at_long_lengths(self):
        # the series is written in the small phase dk z, so no power of z
        # alone overflows; an array evaluates it on its series elements only
        p = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=0.0)
        for z in (1e200, np.array([0.0, 1e100, 1e200, 1e300])):
            c = compute_coefficients(p, z)
            assert all(np.isfinite(v).all() for v in (*c.f, *c.g, *c.h))
            assert np.array_equal(compute_h2_prime(0.001, 0.0, z), -1e-3j * z)
        z = np.array([0.0, 1e300, 1e303])  # closed form past z = 0
        c = compute_coefficients(CouplerParams(**FIG2), z)
        assert all(np.isfinite(v).all() for v in (*c.f, *c.g, *c.h))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_invalid_array_z_rejected(self, bad):
        z = np.array([0.0, 10.0, bad, 20.0])
        with pytest.raises(InvalidParameters, match="non-negative"):
            compute_coefficients(CouplerParams(**FIG2), z)
        with pytest.raises(InvalidParameters, match="non-negative"):
            compute_h2_prime(0.001, 1e-4, z)
