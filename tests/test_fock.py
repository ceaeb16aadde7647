import math

import numpy as np
import pytest

from zenocoupler import (
    CoherentInputs,
    CouplerParams,
    ExcessiveTruncationLoss,
    InvalidParameters,
    FockStateVector,
    NonConvergence,
    TruncationSpec,
    apply_generator,
    build_coherent_state,
    mode_expectations,
    oracle_zeno_parameter,
    propagate,
    zeno_parameter,
)
from zenocoupler import fock

FIG2_PARAMS = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
SMALL_INPUTS = CoherentInputs(alpha=1.0, beta=1.0, gamma=0.5)

# Poisson tail beyond n=10 for |mu|=1: 1 - sum_{n<=10} e^-1/n!
TAIL_ALPHA1_CUT10 = 1.00477663757e-8


class TestTruncationSpec:
    def test_dimension(self):
        assert TruncationSpec(12, 12, 8).dimension == 13 * 13 * 9

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            TruncationSpec(0, 5, 5)

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            TruncationSpec(300, 300, 300)


class TestBuildCoherentState:
    def test_vacuum(self):
        s = build_coherent_state(CoherentInputs(), TruncationSpec(3, 3, 3))
        assert s.norm_deficit == 0
        grid = s.grid()
        assert grid[0, 0, 0] == 1
        assert np.count_nonzero(grid) == 1

    def test_tail_deficit(self):
        s = build_coherent_state(
            CoherentInputs(alpha=1.0), TruncationSpec(10, 3, 3)
        )
        assert s.norm_deficit == pytest.approx(TAIL_ALPHA1_CUT10, rel=1e-9)

    def test_normalized(self):
        s = build_coherent_state(SMALL_INPUTS, TruncationSpec(10, 10, 6))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_rejects_undersized_cutoff(self):
        with pytest.raises(ExcessiveTruncationLoss):
            build_coherent_state(CoherentInputs(alpha=5.0), TruncationSpec(6, 6, 6))

    def test_annihilation_eigenstate(self):
        # Applying b2 to |gamma> reproduces gamma |gamma> up to edge effects.
        trunc = TruncationSpec(2, 2, 16)
        s = build_coherent_state(CoherentInputs(gamma=1.0), trunc)
        grid = s.grid()
        lowered = np.zeros_like(grid)
        n2 = np.sqrt(np.arange(1, 17))
        lowered[:, :, :-1] = n2[None, None, :] * grid[:, :, 1:]
        residual = lowered - 1.0 * grid
        # renormalization over the discarded tail perturbs every amplitude
        assert np.linalg.norm(residual) < 1e-6


class TestApplyGenerator:
    def test_vanishing_couplings(self):
        s = build_coherent_state(SMALL_INPUTS, TruncationSpec(10, 10, 5))
        params = CouplerParams(k=1e-12, gamma_nl=0.0, delta_k=0.0)
        out = apply_generator(params, 1.0, s)
        assert np.linalg.norm(out.amplitudes) < 1e-11

    def test_vacuum_annihilated(self):
        s = build_coherent_state(CoherentInputs(), TruncationSpec(4, 4, 4))
        out = apply_generator(FIG2_PARAMS, 2.0, s)
        assert np.linalg.norm(out.amplitudes) == 0

    def test_hermiticity(self, rng):
        trunc = TruncationSpec(5, 6, 4)
        for _ in range(100):
            psi = rng.normal(size=trunc.dimension) + 1j * rng.normal(size=trunc.dimension)
            psi /= np.linalg.norm(psi)
            state = FockStateVector(amplitudes=psi, truncation=trunc)
            z = rng.uniform(0, 100)
            gpsi = apply_generator(FIG2_PARAMS, z, state)
            expval = np.vdot(psi, gpsi.amplitudes)
            assert abs(expval.imag) < 1e-12


class TestPropagate:
    def test_zero_length(self):
        trunc = TruncationSpec(10, 10, 6)
        r = propagate(FIG2_PARAMS, SMALL_INPUTS, 0.0, trunc)
        assert r.steps_used == 1
        assert r.norm_drift == 0 and r.conservation_drift == 0
        na, n1, n2 = mode_expectations(r.final_state)
        assert na == pytest.approx(1.0, abs=1e-6)
        assert n2 == pytest.approx(0.25, abs=1e-7)

    def test_linear_coupler_limit(self):
        p = CouplerParams(k=0.1, gamma_nl=0.0, delta_k=0.0)
        inputs = CoherentInputs(alpha=1.0, beta=0.5, gamma=0.0)
        trunc = TruncationSpec(14, 14, 1)
        for z in (5.0, 12.5, 30.0):
            r = propagate(p, inputs, z, trunc)
            na = mode_expectations(r.final_state)[0]
            want = abs(math.cos(0.1 * z) * 1.0 - 1j * math.sin(0.1 * z) * 0.5) ** 2
            assert na == pytest.approx(want, abs=1e-8)

    def test_unitarity_and_conservation(self):
        trunc = TruncationSpec(12, 12, 8)
        r = propagate(FIG2_PARAMS, SMALL_INPUTS, 50.0, trunc)
        assert r.norm_drift <= 1e-10
        assert r.conservation_drift <= 1e-8

    def test_exact_against_dense_reference(self):
        # dk*z = 12 rad: the z-dependence of G is strong, and the rotating
        # frame must remove it exactly.  Reference: eigh of the dense
        # frame generator G(0) - dk N_b2, then the frame phase.
        p = CouplerParams(k=0.1, gamma_nl=0.02, delta_k=0.15)
        inputs = CoherentInputs(alpha=0.3, beta=0.3 + 0.1j, gamma=0.2j)
        trunc = TruncationSpec(6, 6, 4)
        z = 80.0
        dim = trunc.dimension
        columns = []
        for j in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[j] = 1.0
            state = FockStateVector(amplitudes=e, truncation=trunc)
            columns.append(apply_generator(p, 0.0, state).amplitudes)
        n_b2 = np.indices(trunc.shape)[2].ravel().astype(float)
        w, v = np.linalg.eigh(np.array(columns).T - p.delta_k * np.diag(n_b2))
        psi0 = build_coherent_state(inputs, trunc).amplitudes
        want = v @ (np.exp(1j * z * w) * (v.conj().T @ psi0))
        want *= np.exp(1j * p.delta_k * z * n_b2)
        got = propagate(p, inputs, z, trunc).final_state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("z", [-1.0, math.nan, math.inf])
    def test_invalid_length_rejected(self, z):
        with pytest.raises(InvalidParameters):
            propagate(FIG2_PARAMS, SMALL_INPUTS, z, TruncationSpec(8, 8, 5))

    def test_nonconvergence_raises(self, monkeypatch):
        # Two Taylor terms cannot reach the term tolerance at substep norm ~1.
        monkeypatch.setattr(fock, "_TAYLOR_MAX_TERMS", 2)
        trunc = TruncationSpec(10, 10, 6)
        with pytest.raises(NonConvergence):
            propagate(FIG2_PARAMS, SMALL_INPUTS, 50.0, trunc)

    def test_truncation_leak_detected(self):
        # beta = 2 pumps the b2 mode; a 2-photon b2 cutoff must trip the
        # boundary monitor rather than silently bias the result.
        p = CouplerParams(k=0.1, gamma_nl=0.05, delta_k=1e-4)
        inputs = CoherentInputs(alpha=0.0, beta=2.0, gamma=0.0)
        trunc = TruncationSpec(1, 12, 1)
        with pytest.raises(ExcessiveTruncationLoss):
            propagate(p, inputs, 60.0, trunc)


class TestOracleZenoParameter:
    def test_zero_length(self):
        trunc = TruncationSpec(10, 10, 6)
        got = oracle_zeno_parameter(FIG2_PARAMS, SMALL_INPUTS, 0.0, trunc)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_spontaneous_second_order_small(self):
        # First-order theory predicts exactly zero in the spontaneous case;
        # the exact value is the neglected O(gamma_nl^2) remainder, so it
        # must be tiny and contract ~4x when gamma_nl is halved.
        trunc = TruncationSpec(10, 10, 4)
        inputs = CoherentInputs(alpha=1.0, beta=1.0, gamma=0.0)
        full = oracle_zeno_parameter(FIG2_PARAMS, inputs, 30.0, trunc)
        half_params = CouplerParams(k=0.1, gamma_nl=5e-4, delta_k=1e-4)
        half = oracle_zeno_parameter(half_params, inputs, 30.0, trunc)
        assert abs(full) < 1e-3
        assert 3.0 < abs(full) / abs(half) < 5.0

    def test_sign_matches_perturbative(self):
        trunc = TruncationSpec(10, 10, 6)
        exact = oracle_zeno_parameter(FIG2_PARAMS, SMALL_INPUTS, 50.0, trunc)
        pert = zeno_parameter(FIG2_PARAMS, SMALL_INPUTS, 50.0)
        assert exact < 0 and pert < 0
        assert abs(exact - pert) / abs(pert) < 0.15
