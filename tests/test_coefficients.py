import cmath
import math

import numpy as np
import pytest

from zenocoupler import (
    CoherentInputs,
    CouplerParams,
    InvalidParameters,
    compute_coefficients,
    compute_h2_prime,
    zeno_sample,
)

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

    @pytest.mark.parametrize("gamma_nl", [math.nan, math.inf, complex(0.001, math.nan)])
    def test_non_finite_gamma_nl_rejected(self, gamma_nl):
        with pytest.raises(InvalidParameters):
            CouplerParams(k=0.1, gamma_nl=gamma_nl, delta_k=1e-4)

    def test_near_resonance_passes_outside_threshold(self):
        # the 2|k| = |dk| resonance itself is a valid, finite point
        for dk in (0.2, -0.2, 0.2001):
            c = compute_coefficients(CouplerParams(k=0.1, gamma_nl=0.001, delta_k=dk), 50.0)
            assert all(cmath.isfinite(v) for v in (*c.f, *c.g, *c.h))


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
        # tiny mismatches at |dk z| ~ 1e-6: the coefficients are smooth in
        # dk, so two mismatches 2e-9 apart differ by about that relatively
        lo = compute_coefficients(CouplerParams(k=1.0, gamma_nl=0.01, delta_k=0.999e-6), 1.0)
        hi = compute_coefficients(CouplerParams(k=1.0, gamma_nl=0.01, delta_k=1.001e-6), 1.0)
        for a, b in zip((*lo.f, *lo.g, *lo.h), (*hi.f, *hi.g, *hi.h)):
            if abs(b) > 1e-300:
                assert abs(a - b) / abs(b) < 1e-8

    def test_k_to_zero_matches_h2_prime(self):
        h2 = compute_coefficients(
            CouplerParams(k=1e-8, gamma_nl=0.001, delta_k=1e-4), 100.0
        ).h[1]
        h2p = compute_h2_prime(0.001, 1e-4, 100.0)
        assert abs(h2 - h2p) / abs(h2p) < 1e-6

    def test_overflowing_phase_raises(self):
        # (|dk| + 2|k|) z overflows although z itself is finite
        params = CouplerParams(k=1e10, gamma_nl=1e-3, delta_k=0.0)
        with pytest.raises(InvalidParameters, match="overflows"):
            zeno_sample(params, CoherentInputs(1, 1, 1), 1e303)
        with pytest.raises(InvalidParameters, match="overflows"):
            compute_coefficients(params, np.array([0.0, 1e303]))
        with pytest.raises(InvalidParameters, match="overflows"):
            compute_h2_prime(1e-3, 1e10, 1e303)

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
        # tiny mismatches at |dk z| ~ 1e-6
        z = 10.0
        lo = compute_h2_prime(0.001, 0.999e-7, z)
        hi = compute_h2_prime(0.001, 1.001e-7, z)
        assert abs(lo - hi) / abs(hi) < 1e-8


class TestArrayZ:
    def test_rows_match_scalar(self, rng):
        # Every row starts at z = 0, and every third row has a tiny dk.
        # Differences are rounding of the same expressions, on the scale
        # |value| + |Gamma| z.
        for row in range(240):
            p = random_params(rng)
            z = np.concatenate([[0.0], rng.uniform(0.0, 200.0, 6)])
            if row % 3 == 0:
                dk = abs(p.k) * rng.uniform(1e-9, 1e-7)
                p = CouplerParams(k=p.k, gamma_nl=p.gamma_nl, delta_k=dk)
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
        # D(w) is written with sinc(w z/2), so no power of z alone
        # overflows, and only the phases (|dk| + 2|k|) z bound the length
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


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def quadrature_coefficients(params, z):
    """(f3, f4, g3, g4, h2, h3, h4, h2') from their defining z'-integrals
    over the linear coupler's solution, by composite 16-node Gauss-Legendre
    on panels of at most about 2 rad of the fastest phase (|dk| + 2|k|) z':

        h2, h3, h4 = -i Gamma int e^{i dk z'} (g2^2, 2 g1 g2, g1^2)
        f3, f4 = -2i Gamma* int f2(z - z') e^{-i dk z'} conj(g2, g1)(z')
        g3, g4 = -2i Gamma* int g2(z - z') e^{-i dk z'} conj(g2, g1)(z')
        h2' = -i Gamma int e^{i dk z'}
    """
    k, gam, dk = complex(params.k), complex(params.gamma_nl), params.delta_k
    ak, u = abs(k), k.conjugate() / abs(k)
    panels = math.ceil(z * (abs(dk) + 2 * ak) / 2) + 1
    edges = np.linspace(0.0, z, panels + 1)
    half = np.diff(edges)[:, None] / 2
    s = (edges[:-1, None] + half * (1 + _NODES)).ravel()
    w = (half * _WEIGHTS).ravel()

    def linear(x):  # f2, g1, g2 of the linear coupler
        return -1j * u * np.sin(ak * x), -1j * u.conjugate() * np.sin(ak * x), np.cos(ak * x)

    _, g1, g2 = linear(s)
    f2r, _, g2r = linear(z - s)
    ep = np.exp(1j * dk * s)
    em = ep.conjugate()
    h = -1j * gam * np.array([w @ (ep * g2 * g2), w @ (2 * ep * g1 * g2), w @ (ep * g1 * g1)])
    fg = -2j * gam.conjugate() * np.array(
        [w @ (r * em * c.conjugate()) for r in (f2r, g2r) for c in (g2, g1)])
    return (*fg, *h, -1j * gam * (w @ ep))


class TestQuadratureReference:
    """The seven first-order coefficients and h2' against a quadrature of
    their defining integrals, to 1e-12 of |value| + |Gamma| z."""

    @staticmethod
    def assert_matches(params, z):
        c = compute_coefficients(params, z)
        got = (*c.f[2:], *c.g[2:], *c.h[1:],
               compute_h2_prime(params.gamma_nl, params.delta_k, z))
        scale = abs(params.gamma_nl) * z
        for name, a, b in zip(("f3", "f4", "g3", "g4", "h2", "h3", "h4", "h2'"),
                              got, quadrature_coefficients(params, z)):
            assert abs(a - b) <= 1e-12 * (abs(b) + scale), (name, params, z)

    def test_random_draws(self, rng):
        for _ in range(200):
            k_mag = rng.uniform(0.05, 1.0)
            params = CouplerParams(
                k=complex(k_mag * np.exp(1j * rng.uniform(0, 2 * np.pi))),
                gamma_nl=complex(k_mag * rng.uniform(1e-4, 0.05)
                                 * np.exp(1j * rng.uniform(0, 2 * np.pi))),
                delta_k=rng.uniform(-4.0, 4.0) * k_mag,
            )
            self.assert_matches(params, rng.uniform(0.0, 200.0))

    @pytest.mark.parametrize("k", [0.1, 0.3 - 0.4j])
    def test_zero_mismatch_and_resonance(self, k):
        two_k = 2 * abs(k)
        for dk in (0.0, two_k, -two_k, 1e-14, -1e-14, two_k + 1e-14, two_k - 1e-14):
            for z in (0.0, 1.0, 50.0, 199.0):
                self.assert_matches(CouplerParams(k=k, gamma_nl=1e-3 * cmath.exp(0.7j),
                                                  delta_k=dk), z)
