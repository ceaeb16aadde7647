import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from zenocoupler import (
    CoherentInputs,
    CouplerParams,
    ExcessiveTruncationLoss,
    InvalidParameters,
    NonConvergence,
    TruncationSpec,
    build_coherent_state,
    mode_expectations,
    oracle_zeno_parameter,
    propagate,
    zeno_parameter,
)
import zenocoupler
from zenocoupler import fock, kernels

FIG2_PARAMS = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
SMALL_INPUTS = CoherentInputs(alpha=1.0, beta=1.0, gamma=0.5)

# Poisson tail beyond n=10 for |mu|=1: 1 - sum_{n<=10} e^-1/n!, to 50 digits
TAIL_ALPHA1_CUT10 = 1.0047766375690937e-08

# Cutoff shapes for the table tests: cutoff 1 in each mode, and n_b1_max < 2,
# where neither b1^2 term fits in the basis.
TABLE_CUTOFFS = [(1, 1, 1), (1, 4, 1), (3, 1, 2), (2, 2, 3), (4, 5, 3), (5, 6, 4)]


def _ladder(n_max):
    """Truncated annihilation operator on 0..n_max."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def _kron_generator(cutoffs, k, g, dk):
    """Dense -k a b1^ - g b1^2 b2^ + H.c. - dk N_b2 from truncated ladder
    matrices, independent of the kernels table."""
    a, b1, b2 = (_ladder(n) for n in cutoffs)
    ia, i1, i2 = (np.eye(n + 1) for n in cutoffs)
    a_b1d = np.kron(np.kron(a, b1.T), i2)
    b1sq_b2d = np.kron(np.kron(ia, b1 @ b1), b2.T)
    n_b2 = np.kron(np.kron(ia, i1), b2.T @ b2)
    gen = -k * a_b1d - g * b1sq_b2d
    return gen + gen.conj().T - dk * n_b2


def _table_generator(cutoffs, k, g, dk):
    """The kernels table of G(0) - dk N_b2 as a dense matrix."""
    ws = fock._workspace(TruncationSpec(*cutoffs))
    vals = ws.mags * kernels.term_coefficients(-dk, -k, -g)[:, None]
    dim = vals.shape[1]
    dense = np.zeros((dim, dim), dtype=complex)
    np.add.at(dense, (np.tile(np.arange(dim), len(vals)), ws.cols.ravel()),
              vals.ravel())
    return dense


def _kernel_apply(trunc, k, g, dk, psi):
    """kernels.apply_generator with the table of G(0) - dk N_b2 on the flat
    state psi, as propagation applies it."""
    ws = fock._workspace(trunc)
    vals = ws.mags * kernels.term_coefficients(-dk, -k, -g)[:, None]
    x = psi.reshape(trunc.shape)
    return kernels.apply_generator(x, np.empty_like(x), ws.cols, vals).ravel()


def _random_couplings(rng):
    k = complex(rng.normal(), rng.normal())
    g = complex(rng.normal(), rng.normal())
    return k, g, float(rng.normal())


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestTruncationSpec:
    def test_dimension(self):
        assert TruncationSpec(12, 12, 8).dimension == 13 * 13 * 9

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            TruncationSpec(0, 5, 5)

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            TruncationSpec(300, 300, 300)
        # the guard counts the oracle's pair grid, one n_a slice more
        assert TruncationSpec(1, 1000, 1000).dimension == 2 * 1001 * 1001
        with pytest.raises(ValueError):
            TruncationSpec(1, 1100, 1100)
        # an oracle point at the limit peaks near 1.3 GB: measured on 30k
        # pair-grid states, where the Chebyshev block already has the 3
        # rows it has at the limit, tables and statistics built inside
        trunc = TruncationSpec(1, 100, 100)
        fock._workspace.cache_clear()
        tracemalloc.start()
        try:
            oracle_zeno_parameter(CouplerParams(k=1e-4, gamma_nl=1e-3, delta_k=1e-2),
                                  CoherentInputs(0.0, 0.3, 0.2), 0.5, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_state = peak / (3 * 101 * 101)
        assert per_state * fock.MAX_BASIS_DIMENSION <= 1.4e9


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
        # the deficit is 1 - (kept mass), and doubles near 1 are 1.1e-16
        # apart, so it cannot be accurate to 1e-9 relative: the bound is
        # absolute, a few such steps (2.0e-16 measured)
        assert s.norm_deficit == pytest.approx(TAIL_ALPHA1_CUT10, rel=0, abs=4e-16)

    def test_past_exponential_underflow(self):
        # exp(-|alpha|^2/2) alone underflows to 0 past |alpha| ~ 38.6; at
        # |alpha| = 39 the mean occupation is 1521, far inside the cutoff
        alpha = 39.0 * cmath.exp(0.7j)
        s = build_coherent_state(CoherentInputs(alpha=alpha), TruncationSpec(3000, 1, 1))
        log_poisson = [n * math.log(abs(alpha)) - abs(alpha) ** 2 / 2
                       - 0.5 * math.lgamma(n + 1.0) for n in range(3001)]
        want = np.exp(np.array(log_poisson) + 1j * cmath.phase(alpha) * np.arange(3001))
        grid = s.grid()
        np.testing.assert_allclose(grid[:, 0, 0], want, rtol=1e-12, atol=1e-300)
        assert np.count_nonzero(grid[:, 1:, :]) == np.count_nonzero(grid[:, :, 1:]) == 0
        assert 0 <= s.norm_deficit < 1e-12

    def test_huge_amplitude_rejected(self):
        # |alpha|^2 overflows a float: a typed truncation error, not an
        # OverflowError from the arithmetic
        with pytest.raises(ExcessiveTruncationLoss):
            build_coherent_state(CoherentInputs(alpha=1e200), TruncationSpec(3, 3, 3))

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
        trunc = TruncationSpec(10, 10, 5)
        s = build_coherent_state(SMALL_INPUTS, trunc)
        out = _kernel_apply(trunc, 1e-12, 0.0, 0.0, s.amplitudes)
        assert np.linalg.norm(out) < 1e-11

    def test_vacuum_annihilated(self):
        trunc = TruncationSpec(4, 4, 4)
        s = build_coherent_state(CoherentInputs(), trunc)
        out = _kernel_apply(trunc, 0.1, 0.001, 1e-4, s.amplitudes)
        assert np.linalg.norm(out) == 0

    def test_hermiticity(self, rng):
        trunc = TruncationSpec(5, 6, 4)
        for _ in range(100):
            psi = _random_state(rng, trunc.dimension)
            gpsi = _kernel_apply(trunc, *_random_couplings(rng), psi)
            assert abs(np.vdot(psi, gpsi).imag) < 1e-12


class TestGeneratorTable:
    @pytest.mark.parametrize("cutoffs", TABLE_CUTOFFS)
    def test_matches_ladder_matrices(self, rng, cutoffs):
        for _ in range(5):
            k, g, dk = _random_couplings(rng)
            want = _kron_generator(cutoffs, k, g, dk)
            assert np.max(np.abs(_table_generator(cutoffs, k, g, dk) - want)) <= 1e-13

    @pytest.mark.parametrize("cutoffs", TABLE_CUTOFFS)
    def test_apply_generator_matches_ladder_matrices(self, rng, cutoffs):
        trunc = TruncationSpec(*cutoffs)
        for _ in range(5):
            k, g, dk = _random_couplings(rng)
            psi = _random_state(rng, trunc.dimension)
            want = _kron_generator(cutoffs, k, g, dk) @ psi
            assert np.max(np.abs(_kernel_apply(trunc, k, g, dk, psi) - want)) <= 1e-13

    @pytest.mark.parametrize("cutoffs", TABLE_CUTOFFS)
    def test_hermitian(self, rng, cutoffs):
        for _ in range(5):
            dense = _table_generator(cutoffs, *_random_couplings(rng))
            assert np.max(np.abs(dense - dense.conj().T)) <= 1e-15


class TestKernelBinding:
    # perfbench/run.py prints the module of fock._apply_kernel and
    # KERNEL_BACKEND, and its tracer reads the grid shape from the kernel's
    # first argument.
    def test_fock_calls_the_kernels_module(self):
        assert fock._apply_kernel is kernels.apply_generator
        assert zenocoupler.KERNEL_BACKEND == kernels.KERNEL_BACKEND

    def test_first_argument_is_the_amplitude_grid(self, monkeypatch):
        shapes = []

        def spy(*args):
            shapes.append(args[0].shape)
            return kernels.apply_generator(*args)

        monkeypatch.setattr(fock, "_apply_kernel", spy)
        inputs = CoherentInputs(alpha=0.3, beta=0.3, gamma=0.2)
        for trunc in (TruncationSpec(6, 5, 4), TruncationSpec(7, 6, 5)):
            shapes.clear()
            propagate(FIG2_PARAMS, inputs, 20.0, trunc)
            assert len(shapes) > 1 and set(shapes) == {trunc.shape}
            # an oracle point runs on the pair grid: one more n_a slice
            shapes.clear()
            oracle_zeno_parameter(FIG2_PARAMS, inputs, 20.0, trunc)
            da, d1, d2 = trunc.shape
            assert len(shapes) > 1 and set(shapes) == {(da + 1, d1, d2)}


class TestPropagate:
    def test_zero_length(self):
        trunc = TruncationSpec(10, 10, 6)
        r = propagate(FIG2_PARAMS, SMALL_INPUTS, 0.0, trunc)
        assert r.steps_used == 0
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
        cutoffs = (6, 6, 4)
        trunc = TruncationSpec(*cutoffs)
        z = 80.0
        n_b2 = np.indices(trunc.shape)[2].ravel().astype(float)
        w, v = np.linalg.eigh(_kron_generator(cutoffs, p.k, p.gamma_nl, p.delta_k))
        psi0 = build_coherent_state(inputs, trunc).amplitudes
        want = v @ (np.exp(1j * z * w) * (v.conj().T @ psi0))
        want *= np.exp(1j * p.delta_k * z * n_b2)
        got = propagate(p, inputs, z, trunc).final_state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_random_points_against_dense_reference(self, rng):
        # eigh of the independent ladder-matrix generator; dz up to 100 puts
        # the spectral half-width h of A dz in the hundreds.
        most_matvecs = 0
        for i in range(20):
            cutoffs = TABLE_CUTOFFS[i % len(TABLE_CUTOFFS)]
            trunc = TruncationSpec(*cutoffs)
            k, g, dk = _random_couplings(rng)
            dz = float(rng.uniform(0.0, 100.0)) if i % 2 else float(rng.uniform(0.0, 1.0))
            w, v = np.linalg.eigh(_kron_generator(cutoffs, k, g, dk))
            psi0 = _random_state(rng, trunc.dimension)
            want = v @ (np.exp(1j * dz * w) * (v.conj().T @ psi0))
            psi = psi0.reshape(trunc.shape).copy()
            ws = fock._workspace(trunc)
            matvecs = fock._expm_step(ws, (ws.cols, ws.mags), k, g, dk, dz, psi)
            most_matvecs = max(most_matvecs, matvecs)
            assert np.max(np.abs(psi.ravel() - want)) <= 1e-12
        # 299 matvecs (degree 300) need h > 196, so at least one case had a
        # spectral interval of A dz wider than 392.
        assert most_matvecs >= 299

    def test_three_row_block_against_dense_reference(self, rng, monkeypatch):
        # past about 22k states the block of Chebyshev terms has its floor
        # of 3 rows and is summed every 3 steps; force that on a small grid
        monkeypatch.setattr(fock, "_TERM_BLOCK_BYTES", 0)
        cutoffs = (4, 5, 3)
        trunc = TruncationSpec(*cutoffs)
        ws = fock._workspace(trunc)
        for dz in (0.05, 3.0, 40.0):
            k, g, dk = _random_couplings(rng)
            w, v = np.linalg.eigh(_kron_generator(cutoffs, k, g, dk))
            psi0 = _random_state(rng, trunc.dimension)
            want = v @ (np.exp(1j * dz * w) * (v.conj().T @ psi0))
            psi = psi0.reshape(trunc.shape).copy()
            fock._expm_step(ws, (ws.cols, ws.mags), k, g, dk, dz, psi)
            assert np.max(np.abs(psi.ravel() - want)) <= 1e-12

    def test_expectations_carried_on_the_report(self):
        trunc = TruncationSpec(10, 10, 6)
        for z in (0.0, 50.0):
            r = propagate(FIG2_PARAMS, SMALL_INPUTS, z, trunc)
            assert r.expectations == mode_expectations(r.final_state)

    @pytest.mark.parametrize("z", [-1.0, math.nan, math.inf])
    def test_invalid_length_rejected(self, z):
        with pytest.raises(InvalidParameters):
            propagate(FIG2_PARAMS, SMALL_INPUTS, z, TruncationSpec(8, 8, 5))

    @pytest.mark.parametrize("z", [1e9, 1e308])
    def test_huge_length_raises_before_any_matvec(self, monkeypatch, z):
        # h ~ z would need a degree far above the cap; no polynomial could
        # finish, so the step must refuse at once (at 1e308, h overflows).
        def no_matvec(*args):
            raise AssertionError("matvec after the degree check")

        monkeypatch.setattr(fock, "_apply_kernel", no_matvec)
        inputs = CoherentInputs(alpha=0.3, beta=0.3, gamma=0.2)
        start = time.perf_counter()
        with pytest.raises(NonConvergence):
            propagate(FIG2_PARAMS, inputs, z, TruncationSpec(7, 7, 5))
        assert time.perf_counter() - start < 1.0

    def test_truncation_leak_detected(self):
        # beta = 2 pumps the b2 mode; a 2-photon b2 cutoff must trip the
        # boundary monitor rather than silently bias the result.
        p = CouplerParams(k=0.1, gamma_nl=0.05, delta_k=1e-4)
        inputs = CoherentInputs(alpha=0.0, beta=2.0, gamma=0.0)
        trunc = TruncationSpec(1, 12, 1)
        with pytest.raises(ExcessiveTruncationLoss):
            propagate(p, inputs, 60.0, trunc)


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("h", [1e-12, 0.3, 8.0, 200.0, 2000.0])
    def test_series_matches_exponential(self, rng, h):
        # x on a 2^-20 grid makes h*x exact, so exp(ihx) is rounded once.
        # At h = 2000, (h/2)^N / N! overflows a float: the degree scan must
        # run in log space to return at all.
        x = rng.integers(-2**20, 2**20, size=500, endpoint=True) / 2.0**20
        x = np.concatenate([x, [-1.0, 0.0, 1.0]])
        a = fock._chebyshev_coefficients(h)
        prev, cur = np.ones_like(x), x.copy()
        total = a[0] * prev + a[1] * cur
        for a_n in a[2:]:
            prev, cur = cur, 2.0 * x * cur - prev
            total += a_n * cur
        assert np.max(np.abs(total - np.exp(1j * h * x))) <= 1e-13


class TestSpectralInterval:
    """The Weyl interval of the Chebyshev step against dense eigenvalues of
    the ladder-matrix generator."""

    @pytest.mark.parametrize("cutoffs", TABLE_CUTOFFS + [(7, 7, 5)])
    def test_holds_the_spectrum(self, rng, cutoffs):
        ws = fock._workspace(TruncationSpec(*cutoffs))
        for i in range(8 if ws.dimension < 300 else 4):
            k, g, dk = _random_couplings(rng)
            if i % 4 == 1:
                k = 0.0                             # the probe-free reference
            elif i % 4 == 2:
                g *= 30.0                           # gamma_nl dominated
            elif i % 4 == 3:
                dk = -10.0 * abs(dk)                # a large negative mismatch
            lo, hi = fock._spectral_interval(ws, dk, abs(k), abs(g))
            w = np.linalg.eigvalsh(_kron_generator(cutoffs, k, g, dk))
            # the pair grid's reference slice: n_a = 0 only, so k drops out
            w_slice = np.linalg.eigvalsh(_kron_generator((0,) + cutoffs[1:], k, g, dk))
            tol = 1e-13 * max(1.0, np.max(np.abs(w)))
            assert lo <= min(w[0], w_slice[0]) + tol
            assert max(w[-1], w_slice[-1]) <= hi + tol

    @pytest.mark.parametrize("cutoffs", [(2, 2, 3), (5, 6, 4), (7, 7, 5)])
    def test_tight_at_small_nonlinearity(self, rng, cutoffs):
        # |gamma_nl| << |k|, as in perfbench's oracle_scan: the Weyl interval
        # is within 3% of the spectrum's width, which sets the Chebyshev
        # degree
        ws = fock._workspace(TruncationSpec(*cutoffs))
        for dk in (1e-4, -1e-2, 0.3):
            k = 0.1 * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            g = 1e-3 * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            lo, hi = fock._spectral_interval(ws, dk, abs(k), abs(g))
            w = np.linalg.eigvalsh(_kron_generator(cutoffs, k, g, dk))
            assert w[0] >= lo and w[-1] <= hi <= lo + 1.03 * (w[-1] - w[0])

    @pytest.mark.parametrize("cutoffs", [(1, 1), (1, 4), (3, 1), (2, 2), (4, 5),
                                         (5, 6), (7, 7), (12, 3)])
    def test_ladder_bound(self, cutoffs):
        # mu_max of a b1^ + a^ b1 on the (n_a, n_b1) box, from above
        a, b1 = (_ladder(n) for n in cutoffs)
        b = np.kron(a, b1.T)
        want = np.linalg.eigvalsh(b + b.T)[-1]
        assert want <= fock._ladder_bound(*cutoffs) <= want + 1e-9


class TestWorkCount:
    """Matvecs per propagation, counted at the kernel binding.  A propagator
    as slow as the earlier substepped Taylor sum (180 and 720 matvecs)
    fails these on any host."""

    @pytest.fixture
    def matvecs(self, monkeypatch):
        count = [0]

        def spy(*args):
            count[0] += 1
            return kernels.apply_generator(*args)

        monkeypatch.setattr(fock, "_apply_kernel", spy)
        return count

    def test_oracle_scan_point(self, matvecs):
        # the dk = 0.3 stratum of perfbench's oracle_scan, without jitter
        params = CouplerParams(k=0.1, gamma_nl=1e-3, delta_k=0.3)
        inputs = CoherentInputs(alpha=0.3, beta=0.3, gamma=0.2)
        oracle_zeno_parameter(params, inputs, 6.0, TruncationSpec(7, 7, 5))
        assert matvecs[0] <= 36

    @pytest.mark.parametrize("delta_k", [1e-4, 1e-2])
    def test_oracle_scan_small_dk(self, matvecs, delta_k):
        # the Weyl interval is about |k| mu_max wide here, which sets the
        # degree
        params = CouplerParams(k=0.1, gamma_nl=1e-3, delta_k=delta_k)
        inputs = CoherentInputs(alpha=0.3, beta=0.3, gamma=0.2)
        oracle_zeno_parameter(params, inputs, 6.0, TruncationSpec(7, 7, 5))
        assert matvecs[0] <= 28

    def test_validate_point(self, matvecs):
        # the oracle pair of `zenocoupler validate`
        full, _ = fock._oracle_pair(FIG2_PARAMS, SMALL_INPUTS, 50.0, TruncationSpec(10, 10, 6))
        assert full.steps_used == matvecs[0] <= 122

    def test_long_propagation(self, matvecs):
        # h ~ 93: the (h/2)^N/N! scan alone keeps 158 terms, the trailing
        # Bessel terms below the tolerance are dropped down to 145
        r = propagate(FIG2_PARAMS, SMALL_INPUTS, 50.0, TruncationSpec(12, 12, 8))
        assert r.steps_used == matvecs[0] <= 144


def _separate_pair(params, inputs, z, trunc):
    """The full and probe-free reference runs as two propagations."""
    ref_inputs = CoherentInputs(alpha=0.0, beta=inputs.beta, gamma=inputs.gamma)
    return (fock._propagate_raw(params.k, params.gamma_nl, params.delta_k, inputs, z, trunc),
            fock._propagate_raw(0.0, params.gamma_nl, params.delta_k, ref_inputs, z, trunc))


def _assert_reports_match(got, want):
    assert np.max(np.abs(got.final_state.amplitudes - want.final_state.amplitudes)) <= 1e-14
    assert np.max(np.abs(np.subtract(got.expectations, want.expectations))) <= 1e-14
    assert got.final_state.norm_deficit == want.final_state.norm_deficit


class TestOraclePair:
    """The full system and its probe-free reference in one recurrence on
    the pair grid, against two separate propagations."""

    @pytest.mark.parametrize("cutoffs", TABLE_CUTOFFS)
    def test_matches_separate_propagations(self, rng, monkeypatch, cutoffs):
        # random inputs fill these small grids to their edges; the loss
        # limit is lifted so that every draw compares the algebra
        monkeypatch.setattr(fock, "TRUNCATION_LOSS_LIMIT", math.inf)
        trunc = TruncationSpec(*cutoffs)
        for i in range(5):
            k, g, dk = _random_couplings(rng)
            params = CouplerParams(k=k, gamma_nl=g, delta_k=dk)
            inputs = CoherentInputs(*(complex(*rng.normal(scale=0.5, size=2))
                                      for _ in range(3)))
            z = 0.0 if i == 0 else float(rng.uniform(0.0, 3.0))
            full, ref = fock._oracle_pair(params, inputs, z, trunc)
            want_full, want_ref = _separate_pair(params, inputs, z, trunc)
            _assert_reports_match(full, want_full)
            _assert_reports_match(ref, want_ref)
            # one recurrence: the reference takes the full run's degree
            assert ref.steps_used == full.steps_used == want_full.steps_used

    def test_zero_couplings(self):
        # gamma_nl = dk = 0: the reference alone has half-width h = 0 (a bare
        # phase); in the pair it takes the probe's interval
        params = CouplerParams(k=0.1, gamma_nl=0.0, delta_k=0.0)
        trunc = TruncationSpec(12, 12, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full, ref = fock._oracle_pair(params, SMALL_INPUTS, 50.0, trunc)
        want_full, want_ref = _separate_pair(params, SMALL_INPUTS, 50.0, trunc)
        _assert_reports_match(full, want_full)
        _assert_reports_match(ref, want_ref)
        assert want_ref.steps_used == 0 < ref.steps_used

    def test_reference_stays_at_zero_n_a(self):
        trunc = TruncationSpec(10, 10, 6)
        _, ref = fock._oracle_pair(FIG2_PARAMS, SMALL_INPUTS, 50.0, trunc)
        grid = ref.final_state.grid()
        assert grid.shape == trunc.shape
        assert np.count_nonzero(grid[1:]) == 0
        assert ref.expectations[0] == 0

    def test_reference_leak_detected(self):
        # the probe pulls b1 photons into a (the Zeno effect), so only the
        # probe-free reference pumps b2 past its 2-photon cutoff
        params = CouplerParams(k=1.0, gamma_nl=0.05, delta_k=0.0)
        inputs = CoherentInputs(alpha=0.0, beta=0.5, gamma=0.0)
        trunc = TruncationSpec(8, 8, 2)
        propagate(params, inputs, 5.0, trunc)  # the full system alone passes
        with pytest.raises(ExcessiveTruncationLoss):
            fock._oracle_pair(params, inputs, 5.0, trunc)


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

    def test_zero_couplings_reference(self):
        # gamma_nl = dk = 0 gives the probe-free reference a zero generator
        # (half-width h = 0): its step is a phase, with no division by h.
        params = CouplerParams(k=0.1, gamma_nl=0.0, delta_k=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle_zeno_parameter(params, SMALL_INPUTS, 50.0,
                                        TruncationSpec(12, 12, 8))
        # b2 is decoupled at gamma_nl = 0, so <N_b2> is unchanged in both runs
        assert math.isfinite(got) and abs(got) <= 1e-12

    def test_sign_matches_perturbative(self):
        trunc = TruncationSpec(10, 10, 6)
        exact = oracle_zeno_parameter(FIG2_PARAMS, SMALL_INPUTS, 50.0, trunc)
        pert = zeno_parameter(FIG2_PARAMS, SMALL_INPUTS, 50.0)
        assert exact < 0 and pert < 0
        assert abs(exact - pert) / abs(pert) < 0.15
