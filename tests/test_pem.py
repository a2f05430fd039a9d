import collections
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.stats import multivariate_normal

import pem_reference
import sim_reference
from spinfid import bounds, harness, model, pem, sde_sim
from spinfid.errors import (InvalidParametersError, MapBoundaryError,
                            NumericalDegeneracyError)
from spinfid.filters import default_prior
from spinfid.model import Constant, GaussianPrior, SpmParams
from spinfid.sde_sim import MeasurementRecord, simulate

# the probing times of the c06/c07/c08/c14 acceptance fixture
C06_TIMES = (5e-5, 1e-4, 2e-4, 3.5e-4, 5e-4, 1e-3, 2e-3, 5e-3)


def _small_params():
    # modest magnitudes keep the hand-built joint covariance well conditioned
    return SpmParams(omega_bar=3.0, g_D=1.2, R=0.8, N=50.0, q=0.5,
                     Delta=0.1, T2_override=1.0)


def _prior(p, sigma_omega=1.0, spin_sigma=0.0, spin_mean=None):
    """The (omega, J_y, J_z) prior: omega ~ N(omega_bar, sigma_omega^2) and
    a spin of isotropic spread spin_sigma about spin_mean, the polarized
    state (0, N/2) unless given."""
    if spin_mean is None:
        spin_mean = (0.0, 0.5 * p.N)
    return GaussianPrior(np.array([p.omega_bar, *spin_mean]), np.diag(
        [sigma_omega ** 2, spin_sigma ** 2, spin_sigma ** 2]))


def _bad_prior(p, kind):
    """A prior the likelihood and the bound reject, of the given kind."""
    prior = default_prior(p, 1e3)
    mean, cov = prior.mean, prior.cov.copy()
    if kind == "2-dim":
        return GaussianPrior(mean[:2], cov[:2, :2])
    if kind == "4-dim":
        return GaussianPrior(np.append(mean, 0.0),
                             np.diag([*np.diag(cov), 1.0]))
    if kind == "omega-spin covariance":
        cov[0, 2] = cov[2, 0] = 1e3
    else:  # zero omega variance
        cov[0, 0] = 0.0
    return GaussianPrior(mean, cov)


class TestNegLogJoint:
    def test_single_step_by_hand(self):
        p = _small_params()
        prior = _prior(p, sigma_omega=2.0, spin_sigma=3.0)
        omega, y = 3.4, 17.0
        rec = MeasurementRecord(p.Delta, np.array([y]))
        out = pem.kalman_neg_log_joint(omega, rec, p, prior)

        t2 = 1.0
        a = sim_reference.discrete_spin_transition(omega, p.Delta, t2)
        b2 = 0.5 * p.q * p.N * (1.0 - math.exp(-2.0 * p.Delta / t2))
        m_pred = a @ prior.mean[1:]
        p_pred = a @ prior.cov[1:, 1:] @ a.T + b2 * np.eye(2)
        s = p.R / p.Delta + p.g_D ** 2 * p_pred[1, 1]
        resid = y - p.g_D * m_pred[1]
        expected = (0.5 * (resid ** 2 / s + math.log(s))
                    + 0.5 * (omega - p.omega_bar) ** 2 / 4.0)
        assert out.neg_log_joint == pytest.approx(expected, rel=1e-12)
        assert out.residuals[0] == pytest.approx(resid)
        assert out.innovation_vars[0] == pytest.approx(s)

    def test_matches_joint_gaussian_density(self):
        # oracle: for fixed omega the record is jointly Gaussian, so the
        # innovation-form value must equal the explicit multivariate normal
        # log-density built from the propagated mean/covariance, up to the
        # dropped (k/2) ln 2*pi constant
        p = _small_params()
        prior = _prior(p, sigma_omega=2.0, spin_sigma=1.5)
        omega = 3.7
        k = 30
        t2 = 1.0
        a = sim_reference.discrete_spin_transition(omega, p.Delta, t2)
        b2 = 0.5 * p.q * p.N * (1.0 - math.exp(-2.0 * p.Delta / t2))

        means = []
        covs = []  # marginal 2x2 spin covariances after each step
        m = prior.mean[1:].copy()
        c = prior.cov[1:, 1:].copy()
        for _ in range(k):
            m = a @ m
            c = a @ c @ a.T + b2 * np.eye(2)
            means.append(m.copy())
            covs.append(c.copy())

        sigma_y = np.empty((k, k))
        powers = [np.eye(2)]
        for _ in range(k):
            powers.append(a @ powers[-1])
        for i in range(k):
            for j in range(i + 1):
                cross = powers[i - j] @ covs[j]  # Cov(J_i, J_j)
                sigma_y[i, j] = sigma_y[j, i] = p.g_D ** 2 * cross[1, 1]
        sigma_y += (p.R / p.Delta) * np.eye(k)
        mu_y = p.g_D * np.array([mm[1] for mm in means])

        rng = np.random.default_rng(0)
        y = mu_y + rng.standard_normal(k) * math.sqrt(sigma_y[0, 0])
        rec = MeasurementRecord(p.Delta, y)
        out = pem.kalman_neg_log_joint(omega, rec, p, prior)
        log_lik = multivariate_normal.logpdf(y, mean=mu_y, cov=sigma_y)
        prior_quad = 0.5 * (omega - p.omega_bar) ** 2 / 4.0
        expected = -log_lik - 0.5 * k * math.log(2.0 * math.pi) + prior_quad
        assert out.neg_log_joint == pytest.approx(expected, rel=1e-9)

    def test_grid_matches_scalar(self):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rng = np.random.default_rng(1)
        rec = MeasurementRecord(p.Delta, rng.standard_normal(25) * 5.0)
        omegas = np.linspace(1.0, 5.0, 17)
        grid_vals = pem.neg_log_joint_grid(omegas, rec, p, prior)
        scalar_vals = [pem.kalman_neg_log_joint(w, rec, p, prior).neg_log_joint
                       for w in omegas]
        assert np.allclose(grid_vals, scalar_vals, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(ys=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
           cuts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           omega=st.floats(0.5, 6.0))
    def test_prefixes_match_truncated_records(self, ys, cuts, omega):
        # one pass must give, at every length (repeats included), exactly
        # the J of the truncated record, for a float omega, for a grid and
        # for a complex omega
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.array(ys))
        lengths = sorted(min(c, len(ys)) for c in cuts)
        grid = np.linspace(omega - 0.4, omega + 0.4, 5)
        stepped = complex(omega, 1e-20)
        scalar = pem.neg_log_joint_prefixes(omega, rec, p, prior, lengths)
        gridded = pem.neg_log_joint_prefixes(grid, rec, p, prior, lengths)
        complexed = pem.neg_log_joint_prefixes(stepped, rec, p, prior, lengths)
        for k, j_scalar, j_grid, j_complex in zip(lengths, scalar, gridded,
                                                  complexed):
            sub = rec.truncated(k)
            assert j_scalar == pem.kalman_neg_log_joint(
                omega, sub, p, prior).neg_log_joint
            assert np.array_equal(j_grid, pem.neg_log_joint_grid(
                grid, sub, p, prior))
            assert j_complex == pem.neg_log_joint_prefixes(
                stepped, sub, p, prior, [k])[0]

    @settings(max_examples=300, deadline=None)
    @given(params=st.builds(
               SpmParams, omega_bar=st.floats(0.1, 1e5),
               g_D=st.floats(1e-3, 10.0), R=st.floats(1e-2, 1e3),
               N=st.floats(1.0, 1e6), q=st.floats(0.0, 1.0),
               Delta=st.floats(1e-6, 1.0), T2_override=st.floats(1e-4, 10.0)),
           ys=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
           cuts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
           shift=st.floats(-3.0, 3.0), spin_sigma=st.floats(0.0, 10.0))
    def test_matches_unhoisted_reference(self, params, ys, cuts, shift,
                                         spin_sigma):
        # the split passes (gains, then mean and J) with the coefficient
        # products formed once per pass round as the fused recursion with
        # the expressions written out, for a float, a complex omega and a
        # grid
        prior = _prior(params, spin_sigma=spin_sigma)
        rec = MeasurementRecord(params.Delta, np.array(ys))
        lengths = sorted(min(c, len(ys)) for c in cuts)
        omega = params.omega_bar + shift
        for w in (omega, complex(omega, 1e-20 * omega),
                  np.linspace(omega - 1.0, omega + 1.0, 7)):
            got = pem.neg_log_joint_prefixes(w, rec, params, prior, lengths)
            want = pem_reference.neg_log_joint_prefixes(
                w, rec, params, prior, lengths)
            assert len(got) == len(want)
            for j_got, j_want in zip(got, want):
                assert np.array_equal(np.atleast_1d(j_got).view(np.int64),
                                      np.atleast_1d(j_want).view(np.int64))

    def test_innovations_of_wrapper(self):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.random.default_rng(2).normal(size=12))
        out = pem.kalman_neg_log_joint(3.1, rec, p, prior)
        assert out.residuals.shape == out.innovation_vars.shape == (12,)
        assert np.all(out.innovation_vars > 0.0)
        data_term = 0.5 * np.sum(out.residuals ** 2 / out.innovation_vars
                                 + np.log(out.innovation_vars))
        prior_term = 0.5 * (3.1 - p.omega_bar) ** 2
        assert out.neg_log_joint == pytest.approx(data_term + prior_term,
                                                  rel=1e-12)

    def test_nonfinite_input_raises(self):
        # a record holds finite samples only, but the square of one can
        # still overflow the running sum
        p = _small_params()
        prior = _prior(p)
        rec = MeasurementRecord(p.Delta, np.array([1.0, 1e200]))
        with pytest.raises(NumericalDegeneracyError):
            pem.kalman_neg_log_joint(3.0, rec, p, prior)

    @pytest.mark.parametrize("lengths", [[], [0], [-1, 3], [4, 3], [5, 6],
                                         [5, 50]])
    @pytest.mark.parametrize("omega", [3.0, complex(3.0, 1e-20),
                                       np.linspace(2.0, 4.0, 5)],
                             ids=["float", "complex", "grid"])
    def test_bad_lengths_raise_before_any_table(self, omega, lengths):
        # lengths must ascend (repeats allowed) within 1..len(record); the
        # kept table is neither replaced nor evicted by a rejected call
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(5.0))
        kept = pem.neg_log_joint_grid(np.linspace(1.0, 2.0, 3), rec, p,
                                      prior)
        table, = pem._gain_memo.values()
        with pytest.raises(InvalidParametersError, match="lengths"):
            pem.neg_log_joint_prefixes(omega, rec, p, prior, lengths)
        assert list(pem._gain_memo.values()) == [table]
        assert pem.neg_log_joint_prefixes(
            3.0, rec, p, prior, [2, 2, 5])[2] == pem.kalman_neg_log_joint(
                3.0, rec, p, prior).neg_log_joint
        assert kept.tobytes() == pem.neg_log_joint_grid(
            np.linspace(1.0, 2.0, 3), rec, p, prior).tobytes()

    @pytest.mark.parametrize("k", [0, 6])
    def test_score_passes_check_their_lengths(self, k):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(5.0))
        with pytest.raises(InvalidParametersError, match="lengths"):
            pem.neg_log_joint_score(3.0, rec, p, prior, [k])
        with pytest.raises(InvalidParametersError, match="lengths"):
            pem.score_and_information(3.0, rec, p, prior, k)


    def test_record_at_another_period_raises_before_any_table(self):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(5.0))
        pem.neg_log_joint_grid(np.linspace(1.0, 2.0, 3), rec, p, prior)
        table, = pem._gain_memo.values()
        other = MeasurementRecord(0.5 * p.Delta, np.arange(5.0))
        for call in (
                lambda: pem.kalman_neg_log_joint(3.0, other, p, prior),
                lambda: pem.neg_log_joint_grid(np.linspace(2.0, 4.0, 5),
                                               other, p, prior),
                lambda: pem.neg_log_joint_score(3.0, other, p, prior, [5]),
                lambda: pem.score_and_information(3.0, other, p, prior, 5),
                lambda: pem.map_estimate(other, p, prior)):
            with pytest.raises(InvalidParametersError, match="Delta"):
                call()
        assert list(pem._gain_memo.values()) == [table]




def _c06_record(p, run, sigma=harness.DEFAULT_SIGMA_OMEGA):
    """Run ``run`` of the c06 fixture, simulated to its last probing time."""
    k = sde_sim.sample_indices(C06_TIMES, p.Delta)[-1]
    return sde_sim._mc_shot(p, p.omega_bar, sigma, k, 5, 0, run)[1]


class TestGainTable:
    @settings(max_examples=60, deadline=None)
    @given(ys_a=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
           ys_b=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
           cuts=st.lists(st.integers(1, 30), min_size=1, max_size=4),
           sigma=st.floats(0.01, 3.0))
    def test_warm_table_matches_cold(self, ys_a, ys_b, cuts, sigma):
        # J of record B from a table that record A built (or, when A is
        # shorter, from the table built again for B) equals J from a cold
        # table, bit for bit
        p = _small_params()
        prior = _prior(p, sigma_omega=sigma, spin_sigma=1.0)
        grid = np.linspace(p.omega_bar - 5.0 * sigma,
                           p.omega_bar + 5.0 * sigma, 9)
        rec_a = MeasurementRecord(p.Delta, np.array(ys_a))
        rec_b = MeasurementRecord(p.Delta, np.array(ys_b))
        lengths = sorted(min(c, len(ys_b)) for c in cuts)
        pem._gain_memo.clear()
        cold = pem.neg_log_joint_prefixes(grid, rec_b, p, prior, lengths)
        pem._gain_memo.clear()
        pem.neg_log_joint_grid(grid, rec_a, p, prior)
        warm = pem.neg_log_joint_prefixes(grid, rec_b, p, prior, lengths)
        assert len(pem._gain_memo) == 1
        for j_cold, j_warm in zip(cold, warm):
            assert j_cold.tobytes() == j_warm.tobytes()

    def test_fit_after_another_record_matches_fit_alone(self):
        p = SpmParams()
        prior = default_prior(p, harness.DEFAULT_SIGMA_OMEGA)
        rec_a, rec_b = _c06_record(p, 0), _c06_record(p, 1).truncated(300)
        pem._gain_memo.clear()
        alone = pem.map_estimates(rec_b, [40, 100, 300], p, prior)
        pem._gain_memo.clear()
        pem.map_estimates(rec_a, [len(rec_a.outcomes)], p, prior)
        assert pem.map_estimates(rec_b, [40, 100, 300], p, prior) == alone

    @pytest.mark.parametrize("change", ["grid", "params", "spin prior"])
    def test_table_is_not_reused_for_other_inputs(self, change):
        # a table built for other gains must not serve the pass
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        grid = np.linspace(2.0, 4.0, 5)
        rec = MeasurementRecord(p.Delta,
                                np.random.default_rng(7).normal(size=20))
        other = {"grid": (grid + 1e-9, p, prior),
                 "params": (grid, replace(p, q=0.6), prior),
                 "spin prior": (grid, p, _prior(p, spin_sigma=1.1))}
        pem._gain_memo.clear()
        cold = pem.neg_log_joint_grid(grid, rec, p, prior)
        pem._gain_memo.clear()
        g, q, s = other[change]
        pem.neg_log_joint_grid(g, rec, q, s)
        warm = pem.neg_log_joint_grid(grid, rec, p, prior)
        assert warm.tobytes() == cold.tobytes()

    def test_a_table_read_in_part_is_not_kept(self):
        # the rows are filled as the blocks are read: a table is kept only
        # once its last block has been read
        p = _small_params()
        spin_cov = pem._prior_terms(_prior(p, spin_sigma=1.0))[3]
        pem._gain_memo.clear()
        blocks = pem._gain_blocks(np.linspace(2.0, 4.0, 5), p, spin_cov,
                                  2 * pem._BLOCK + 5)
        next(blocks)
        blocks.close()
        assert not pem._gain_memo

    def test_table_is_read_only(self):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(6.0))
        pem.neg_log_joint_grid(np.linspace(2.0, 4.0, 5), rec, p, prior)
        table, = pem._gain_memo.values()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.0

    def test_table_holds_two_values_a_step(self):
        # the predicted covariance entries (p12-, p22-) of every step
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        grid = np.linspace(2.0, 4.0, 5)
        rec = MeasurementRecord(p.Delta, np.arange(6.0))
        pem._gain_memo.clear()
        pem.neg_log_joint_grid(grid, rec, p, prior)
        table, = pem._gain_memo.values()
        assert table.shape == (6, 2) + grid.shape
        assert table.nbytes == 2 * 6 * grid.size * 8

    def test_five_ms_at_one_us_keep_the_map_grid_table(self, monkeypatch):
        # 16 MiB hold 5,216 steps of the 201-point grid: a 5 ms record
        # sampled every 1 us keeps its table, and J from it is the
        # streamed J, bit for bit
        p = SpmParams(Delta=1e-6)
        prior = default_prior(p, harness.DEFAULT_SIGMA_OMEGA)
        rec = simulate(p, Constant(p.omega_bar), 5e-3, seed=3)[1]
        steps = len(rec.outcomes)
        assert steps == 5000
        sigma = harness.DEFAULT_SIGMA_OMEGA
        grid = np.linspace(p.omega_bar - pem.MAP_BRACKET_SIGMAS * sigma,
                           p.omega_bar + pem.MAP_BRACKET_SIGMAS * sigma,
                           pem.MAP_GRID_POINTS)
        lengths = [1000, 4999, 5000]
        pem._gain_memo.clear()
        kept = pem.neg_log_joint_prefixes(grid, rec, p, prior, lengths)
        table, = pem._gain_memo.values()
        assert table.shape == (steps, 2, pem.MAP_GRID_POINTS)
        assert table.nbytes <= pem._TABLE_BYTES
        pem._gain_memo.clear()
        monkeypatch.setattr(pem, "_TABLE_BYTES", 0)
        streamed = pem.neg_log_joint_prefixes(grid, rec, p, prior, lengths)
        assert not pem._gain_memo
        assert _bits(kept) == _bits(streamed)

    def test_record_over_the_limit_keeps_no_table(self, monkeypatch):
        # one step past the limit (two values a step), the gains are
        # streamed, the table kept before is evicted, and J keeps its bits
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta,
                                np.random.default_rng(5).normal(size=40))
        grid = np.linspace(2.0, 4.0, 7)
        kept = pem.neg_log_joint_grid(grid, rec, p, prior)
        assert len(pem._gain_memo) == 1
        monkeypatch.setattr(pem, "_TABLE_BYTES", 39 * 2 * grid.nbytes)
        streamed = pem.neg_log_joint_grid(grid + 0.5, rec, p, prior)
        assert not pem._gain_memo
        assert streamed.tobytes() == pem_reference.neg_log_joint_prefixes(
            grid + 0.5, rec, p, prior, [40])[0].tobytes()
        again = pem.neg_log_joint_grid(grid, rec, p, prior)
        assert not pem._gain_memo
        assert again.tobytes() == kept.tobytes()


def _bits(values) -> list:
    """(dtype, shape, bytes) of each value: equal lists are equal J."""
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, values)]


class TestBlockBody:
    """The array body against the oracle's written-out per-step loop, bit
    for bit, over grid shapes, block edges and the three gain sources."""

    GRIDS = {
        "0-d": lambda w: np.array(w),
        "1 point": lambda w: np.array([w]),
        "5 points": lambda w: np.linspace(w - 0.5, w + 0.5, 5),
        "201 points": lambda w: np.linspace(w - 2.0, w + 2.0, 201),
        "2-D": lambda w: np.linspace(w - 1.0, w + 1.0, 12).reshape(3, 4),
        "complex": lambda w: np.linspace(w - 1.0, w + 1.0, 7) + 1e-20j,
    }

    @pytest.mark.parametrize("gains", ["cold", "warm", "streamed"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_matches_reference(self, monkeypatch, grid, gains):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        b = pem._BLOCK
        rng = np.random.default_rng(11)
        # a warm table is built for a longer record
        rec, longer = (MeasurementRecord(p.Delta, 5.0 * rng.normal(
            size=size)) for size in (2 * b + 5, 3 * b + 1))
        lengths = [1, b - 1, b, b, b + 1, 2 * b, 2 * b + 5, 2 * b + 5]
        omega = self.GRIDS[grid](3.1)
        pem._gain_memo.clear()
        if gains == "warm":
            pem.neg_log_joint_prefixes(omega, longer, p, prior, [3 * b + 1])
        elif gains == "streamed":
            monkeypatch.setattr(pem, "_TABLE_BYTES", 0)
        got = pem.neg_log_joint_prefixes(omega, rec, p, prior, lengths)
        assert _bits(got) == _bits(pem_reference.neg_log_joint_prefixes(
            omega, rec, p, prior, lengths))
        assert len(pem._gain_memo) == (gains != "streamed")

    @settings(max_examples=40, deadline=None)
    @given(ys=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
           cuts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
           omega=st.floats(0.5, 6.0), streamed=st.booleans())
    def test_j_does_not_depend_on_the_block_size(self, ys, cuts, omega,
                                                 streamed):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.array(ys))
        lengths = sorted(min(c, len(ys)) for c in cuts)
        grid = np.linspace(omega - 0.4, omega + 0.4, 5)
        want = _bits(pem_reference.neg_log_joint_prefixes(
            grid, rec, p, prior, lengths))
        for block in (1, 2, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pem, "_BLOCK", block)
                if streamed:
                    patch.setattr(pem, "_TABLE_BYTES", 0)
                pem._gain_memo.clear()
                assert _bits(pem.neg_log_joint_prefixes(
                    grid, rec, p, prior, lengths)) == want

    def test_gain_blocks_are_the_gains_of_each_step(self, monkeypatch):
        # the two derivations of the gains pinned to each other: the blocks
        # of a 0-d and a 201-point grid, from a cold, a warm and a streamed
        # table, give back the k1, k2 and S of ``_gains``' records, and
        # ln S is np.log of those S
        p = SpmParams()
        steps = 5 * pem._BLOCK - 20  # four blocks and a partial one
        spin_cov = pem._prior_terms(default_prior(p, 1e3))[3]
        for grid in ("0-d", "201 points"):
            omega = self.GRIDS[grid](p.omega_bar)
            records = itertools.islice(pem._gains(omega, p, spin_cov), steps)
            _, _, k1, k2, s_var = map(np.array, zip(*records))
            want = _bits([np.stack((k1, k2), axis=1), s_var, np.log(s_var)])
            for gains in ("cold", "warm", "streamed"):
                if gains != "warm":
                    pem._gain_memo.clear()
                with pytest.MonkeyPatch.context() as patch:
                    if gains == "streamed":
                        patch.setattr(pem, "_TABLE_BYTES", 0)
                    # each block's arrays are overwritten by the next: copy
                    blocks = [[a.copy() for a in block] for block in
                              pem._gain_blocks(omega, p, spin_cov, steps)]
                assert len(pem._gain_memo) == (gains != "streamed")
                k12, s, ln_s = map(np.concatenate, zip(*blocks))
                assert _bits([k12, s, ln_s]) == want, (grid, gains)

        # one block of a 0-d grid's (p12-, p22-), fed through a patched
        # ``_gains``, against ``_gains``' expressions on each step's numpy
        # scalars: with AVX-512, ln S written next to S, as in an
        # interleaved layout, would take libm's log, which differs from
        # numpy's SIMD log in the last bit for about 1 double in 10^4
        p = _small_params()
        n = 50_000
        monkeypatch.setattr(pem, "_BLOCK", n)
        monkeypatch.setattr(pem, "_gain_memo", {})
        rng = np.random.default_rng(2)
        predicted = np.exp(rng.uniform(-20.0, 20.0, size=(n, 2)))
        monkeypatch.setattr(pem, "_gains", lambda omega, p, spin_cov: map(
            tuple, predicted))
        (k12, s_var, ln_s), = pem._gain_blocks(np.array(3.1), p, (), n)
        g, r = p.g_D, model.measurement_noise_variance(p)
        want = []
        for p12p, p22p in map(tuple, predicted):
            s = r + g * g * p22p
            want.append((g * p12p / s, g * p22p / s, s, np.log(s)))
        want = np.array(want)
        assert _bits([k12, s_var, ln_s]) == _bits(
            [want[:, :2], want[:, 2], want[:, 3]])

    def test_innovations_are_read_of_a_scalar_only(self):
        p = _small_params()
        prior = _prior(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(6.0))
        innovations = []
        pem.neg_log_joint_prefixes(3.1, rec, p, prior, [4, 6], innovations)
        full = pem.kalman_neg_log_joint(3.1, rec, p, prior)
        assert innovations[0::2] == full.residuals.tolist()
        assert innovations[1::2] == full.innovation_vars.tolist()
        with pytest.raises(InvalidParametersError, match="scalar"):
            pem.neg_log_joint_prefixes(np.array([3.1]), rec, p, prior, [6],
                                       [])


class TestPriorAndOmegaChecks:
    USERS = {
        "kalman_neg_log_joint": lambda rec, p, prior: pem.kalman_neg_log_joint(
            p.omega_bar, rec, p, prior),
        "neg_log_joint_grid": lambda rec, p, prior: pem.neg_log_joint_grid(
            np.linspace(p.omega_bar - 1e3, p.omega_bar + 1e3, 5), rec, p,
            prior),
        "map_estimate": lambda rec, p, prior: pem.map_estimate(rec, p, prior),
        "bcrb_numeric": lambda rec, p, prior: bounds.bcrb_numeric(
            p, prior, 1e-4, 2),
    }

    @pytest.mark.parametrize("user", sorted(USERS))
    @pytest.mark.parametrize("kind", ["2-dim", "4-dim",
                                      "omega-spin covariance",
                                      "zero omega variance"])
    def test_bad_prior_raises_before_any_pass(self, monkeypatch, user, kind):
        def no_pass(*args, **kwargs):
            raise AssertionError("ran a pass on a bad prior")
        monkeypatch.setattr(pem, "_gains", no_pass)
        monkeypatch.setattr(sde_sim, "_mc_shot", no_pass)
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        with pytest.raises(InvalidParametersError, match="prior"):
            self.USERS[user](rec, p, _bad_prior(p, kind))

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
    def test_nonfinite_omega_raises(self, omega):
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        prior = default_prior(p, 1e3)
        with pytest.raises(InvalidParametersError, match="omega"):
            pem.kalman_neg_log_joint(omega, rec, p, prior)
        with pytest.raises(InvalidParametersError, match="omega"):
            pem.neg_log_joint_grid(np.array([p.omega_bar, omega]), rec, p,
                                   prior)


    @pytest.mark.parametrize("omega", [10 ** 400, -10 ** 400], ids=repr)
    def test_integer_omega_beyond_float_range_raises(self, omega):
        # once a bare TypeError from np.isfinite on an object array
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        with pytest.raises(InvalidParametersError,
                           match="likelihood omega must be finite"):
            pem.kalman_neg_log_joint(omega, rec, p, default_prior(p, 1e3))

    @pytest.mark.parametrize("omega", [1e300, -1e300, complex(1e300, 1.0)],
                             ids=repr)
    def test_omega_whose_prior_term_overflows_raises(self, omega):
        # (omega - mu)^2 leaves float range: once a bare OverflowError,
        # raised after the pass
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        with pytest.raises(InvalidParametersError,
                           match="likelihood prior term is beyond float "
                                 "range at omega = "):
            pem.neg_log_joint_prefixes(omega, rec, p, default_prior(p, 1e3),
                                       [20])

    def test_kalman_neg_log_joint_of_an_omega_whose_prior_term_overflows(
            self):
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        with pytest.raises(InvalidParametersError,
                           match=r"at omega = 1e\+300$"):
            pem.kalman_neg_log_joint(1e300, rec, p, default_prior(p, 1e3))

    def test_integer_omega_beyond_numpy_integers_is_a_number(self):
        # 2**64 is a float-range number that numpy holds in no integer
        # dtype; it once raised a bare TypeError from np.isfinite
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.ones(20))
        prior = default_prior(p, 1e3)
        assert pem.kalman_neg_log_joint(2 ** 64, rec, p, prior).neg_log_joint \
            == pem.kalman_neg_log_joint(2.0 ** 64, rec, p, prior).neg_log_joint

    @pytest.mark.parametrize("omega", [
        True, np.bool_(False), "1", None, [1.0], np.array(["1"]),
        np.array([True]), np.array([1.0], dtype=object)],
        ids=repr)
    def test_omega_that_is_no_number_raises(self, omega):
        # True once gave J at 1 rad/s and "1" a bare TypeError
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        prior = default_prior(p, 1e3)
        with pytest.raises(InvalidParametersError,
                           match="omega must be a number or an array of "
                                 "numbers"):
            pem.neg_log_joint_prefixes(omega, rec, p, prior, [20])

    @pytest.mark.parametrize("grid", [["1", "2"], [True, False],
                                      [1.0 + 0j, 2.0]], ids=repr)
    def test_grid_that_is_not_real_raises(self, grid):
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.zeros(20))
        with pytest.raises(InvalidParametersError,
                           match="omega grid must be integers or floats"):
            pem.neg_log_joint_grid(grid, rec, p, default_prior(p, 1e3))

    def test_integer_omega_is_a_number(self):
        p = SpmParams()
        rec = MeasurementRecord(p.Delta, np.ones(20))
        prior = default_prior(p, 1e3)
        assert pem.neg_log_joint_prefixes(62832, rec, p, prior, [20]) == \
            pem.neg_log_joint_prefixes(62832.0, rec, p, prior, [20])
        assert pem.neg_log_joint_prefixes(
            np.array([62832]), rec, p, prior, [20])[0] == \
            pem.neg_log_joint_grid([62832.0], rec, p, prior)


class TestScore:
    @pytest.mark.parametrize("p, spin_scale", [(SpmParams(q=0.0), 0.0),
                                               (SpmParams(), 0.1)],
                             ids=["q=0 pinned spin", "default"])
    def test_matches_richardson_central_difference(self, p, spin_scale):
        # the complex-step score of every prefix against the central
        # difference of each truncated record with its h^2 error
        # extrapolated away; that reference is good to about 1e-6
        sigma = 2.0 * math.pi * 2e3
        prior = _prior(p, sigma, spin_scale * p.N)
        rng = np.random.default_rng(3)
        omega = p.omega_bar + sigma * rng.standard_normal()
        _, rec = simulate(p, Constant(omega), 1e-3, seed=rng)
        lengths = list(range(1, len(rec.outcomes) + 1))
        scores = pem.neg_log_joint_score(omega, rec, p, prior, lengths)
        h = 1e-4 * sigma
        for k, score in zip(lengths, scores):
            sub = rec.truncated(k)
            coarse, fine = (bounds.neg_log_joint_gradient(
                omega, sub, p, prior, step)
                for step in (h, h / 2.0))
            assert score == pytest.approx((4.0 * fine - coarse) / 3.0,
                                          rel=1e-5)


    @pytest.mark.parametrize("t", [1e-4, 1e-3, 5e-3])
    def test_information_matches_noiseless_fisher_information(self, t):
        # q = 0 and a pinned spin leave a deterministic damped sinusoid in
        # white noise, whose Fisher information is known in closed form
        p = SpmParams(q=0.0)
        sigma = 2.0 * math.pi * 2e3
        prior = _prior(p, sigma)
        omega = p.omega_bar + 300.0
        _, rec = simulate(p, Constant(omega), t, seed=1)
        _, _, info = pem.score_and_information(
            omega, rec, p, prior, len(rec.outcomes))
        assert info - 1.0 / sigma ** 2 == pytest.approx(
            bounds.fi_noiseless_discrete(omega, t, p), rel=1e-12)

    def test_information_matches_central_differences(self):
        # both terms of I, (d eps/d omega)^2 / S and (d S/d omega / S)^2 / 2,
        # from central differences of the float passes' innovations; the
        # parameters make S depend on omega strongly
        p = _small_params()
        prior = _prior(p, sigma_omega=10.0, spin_sigma=50.0)
        rec = MeasurementRecord(p.Delta,
                                np.random.default_rng(8).normal(size=30) * 5.0)
        omega, h = 3.2, 1e-5
        _, _, info = pem.score_and_information(omega, rec, p, prior, 30)
        mid, plus, minus = (pem.kalman_neg_log_joint(
            w, rec, p, prior) for w in (omega, omega + h,
                                                          omega - h))
        d_resid = (plus.residuals - minus.residuals) / (2.0 * h)
        d_s = (plus.innovation_vars - minus.innovation_vars) / (2.0 * h)
        s = mid.innovation_vars
        s_term = 0.5 * np.sum((d_s / s) ** 2)
        assert s_term > 0.1 * info
        want = np.sum(d_resid ** 2 / s) + s_term + 1.0 / 10.0 ** 2
        assert info == pytest.approx(want, rel=1e-7)

    def test_score_and_j_match_their_own_passes(self):
        p = SpmParams()
        prior = _prior(p, 2.0 * math.pi * 2e3, 0.1 * p.N)
        rec = _c06_record(p, 2)
        omega = p.omega_bar + 123.0
        j, score, _ = pem.score_and_information(omega, rec, p, prior, 700)
        assert score == pem.neg_log_joint_score(omega, rec, p, prior, [700])[0]
        assert j == pytest.approx(pem.neg_log_joint_prefixes(
            omega, rec, p, prior, [700])[0], rel=1e-14)

    @pytest.mark.parametrize("call", [
        lambda w, rec, p, prior: pem.neg_log_joint_score(w, rec, p, prior,
                                                         [20]),
        lambda w, rec, p, prior: pem.score_and_information(w, rec, p, prior,
                                                           20),
        lambda w, rec, p, prior: pem.map_estimate(rec, p, prior),
    ], ids=["score", "score and information", "map_estimate"])
    def test_a_complex_step_whose_rotation_overflows(self, call):
        # the step 1e-20 sigma = 1e10 rad/s at sigma = 1e30 puts
        # cosh(eps Delta) = cosh(5e4) beyond float range: once a bare
        # OverflowError ("math range error") from cmath.cos
        p = SpmParams()
        rec = simulate(p, Constant(p.omega_bar), 1e-4, seed=0)[1]
        with pytest.raises(InvalidParametersError,
                           match=r"^the rotation at omega = .*"
                                 r"\+10000000000j\) is beyond float range$"):
            call(p.omega_bar, rec, p, default_prior(p, 1e30))

    def test_a_complex_step_whose_likelihood_overflows(self):
        # at sigma = 1e27 the step's rotation is finite and J is not
        p = SpmParams()
        rec = simulate(p, Constant(p.omega_bar), 1e-4, seed=0)[1]
        with pytest.raises(NumericalDegeneracyError):
            pem.neg_log_joint_score(p.omega_bar, rec, p,
                                    default_prior(p, 1e27), [20])


class TestMapEstimate:
    def test_recovers_constant_frequency(self):
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        truth = p.omega_bar + 0.7 * sigma
        _, rec = simulate(p, Constant(truth), 2e-3, seed=11)
        prior = _prior(p, sigma)
        omega_hat, j_norm = pem.map_estimate(rec, p, prior)
        assert omega_hat == pytest.approx(truth, abs=2.0)
        assert math.isfinite(j_norm)

    def test_determinism(self):
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 1e3), 5e-4, seed=2)
        prior = _prior(p, sigma)
        r1 = pem.map_estimate(rec, p, prior)
        r2 = pem.map_estimate(rec, p, prior)
        assert r1 == r2

    def test_refinement_beats_grid_resolution(self):
        # the returned minimum must be at least as good as every grid point
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 500.0), 5e-4, seed=4)
        prior = _prior(p, sigma)
        omega_hat, j_norm = pem.map_estimate(rec, p, prior)
        grid = np.linspace(p.omega_bar - 5 * sigma, p.omega_bar + 5 * sigma,
                           pem.MAP_GRID_POINTS)
        j_grid = pem.neg_log_joint_grid(grid, rec, p, prior)
        assert j_norm * len(rec.outcomes) <= j_grid.min() + 1e-9

    def test_boundary_raises(self):
        p = SpmParams()
        sigma = 100.0  # very narrow prior, truth 8 sigma away
        truth = p.omega_bar + 8.0 * sigma
        _, rec = simulate(p, Constant(truth), 2e-3, seed=0)
        prior = _prior(p, sigma)
        with pytest.raises(MapBoundaryError):
            pem.map_estimate(rec, p, prior)

    def test_empty_record(self):
        p = SpmParams()
        with pytest.raises(InvalidParametersError, match="empty"):
            pem.map_estimate(MeasurementRecord(p.Delta, np.empty(0)), p,
                             _prior(p, spin_mean=(0.0, 0.0)))

    def test_multi_length_fit_matches_truncated_fits(self):
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 800.0), 5e-4, seed=6)
        prior = default_prior(p, sigma)
        lengths = [10, 40, 40, 100]
        fits = pem.map_estimates(rec, lengths, p, prior)
        assert fits == [pem.map_estimate(rec.truncated(k), p, prior)
                        for k in lengths]

    @pytest.mark.parametrize("sigma", [harness.DEFAULT_SIGMA_OMEGA, 1.0],
                             ids=["c06 prior", "sigma=1"])
    def test_matches_golden_section_reference(self, sigma):
        # the score root against the golden-section minimum on runs of the
        # c06 fixture, and on a prior as narrow as its 50 us bound
        p = SpmParams()
        prior = default_prior(p, sigma)
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        for r in range(3):
            rec = _c06_record(p, r, sigma)
            fits = pem.map_estimates(rec, ks, p, prior)
            for oracle in (pem_reference.map_estimates,
                           pem_reference.brent_map_estimates):
                for (w, j), (w_ref, j_ref) in zip(
                        fits, oracle(rec, ks, p, prior)):
                    assert abs(w - w_ref) <= pem.MAP_TOL
                    assert j == pytest.approx(j_ref, rel=1e-6)

    @pytest.mark.parametrize("sigma", [harness.DEFAULT_SIGMA_OMEGA, 1.0],
                             ids=["c06 prior", "sigma=1"])
    def test_moves_less_than_the_tolerance_from_the_grid_start(self, sigma):
        # the vertex start changes only where scoring stops: both fits end
        # within MAP_TOL of the root, so they differ by less than 2 MAP_TOL
        # (at most 1.05e-3 rad/s, at run 70, k = 20, over the fixture's
        # 1600 fits) and here, on its first runs, by less than MAP_TOL
        p = SpmParams()
        prior = default_prior(p, sigma)
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        for r in range(4):
            rec = _c06_record(p, r, sigma)
            fits = pem.map_estimates(rec, ks, p, prior)
            for k, (w, j), (w_ref, j_ref) in zip(
                    ks, fits, pem_reference.grid_start_map_estimates(
                        rec, ks, p, prior)):
                root = optimize.brentq(
                    lambda x: pem.neg_log_joint_score(x, rec, p, prior,
                                                      [k])[0],
                    min(w, w_ref) - pem.MAP_TOL, max(w, w_ref) + pem.MAP_TOL,
                    xtol=1e-9)
                assert abs(w - root) <= pem.MAP_TOL
                assert abs(w_ref - root) <= pem.MAP_TOL
                assert abs(w - w_ref) < pem.MAP_TOL
                assert j == pytest.approx(j_ref, rel=1e-6)

    def test_score_without_sign_change_raises(self, monkeypatch):
        terms = pem.score_and_information

        def positive_score(*args):
            j, score, info = terms(*args)
            return j, abs(score), info
        monkeypatch.setattr(pem, "score_and_information", positive_score)
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 500.0), 5e-4, seed=4)
        prior = _prior(p, sigma_omega=sigma)
        with pytest.raises(MapBoundaryError, match="sign"):
            pem.map_estimate(rec, p, prior)

    @pytest.mark.parametrize("lengths", [[], [0], [5, 3], [101]])
    def test_multi_length_fit_rejects_bad_lengths(self, lengths):
        p = SpmParams()
        prior = _prior(p, 1e3, spin_mean=(0.0, 0.0))
        rec = MeasurementRecord(p.Delta, np.zeros(100))
        with pytest.raises(InvalidParametersError):
            pem.map_estimates(rec, lengths, p, prior)


@st.composite
def _around_a_minimum(draw):
    """J at a grid minimum and its neighbours, (a, b, c) with a > b <= c:
    magnitudes up to 1e300 and down to 1e-300 (subnormal too), and
    neighbours a few ulps above b, whose differences nearly cancel."""
    b = draw(st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300))

    def rise():
        if draw(st.booleans()):
            return b + draw(st.integers(0, 4)) * math.ulp(b)
        return b + draw(st.floats(0.0, 1e300))
    a, c = rise(), rise()
    assume(a > b)
    return a, b, c


class TestVertexStart:
    @given(sigma=st.sampled_from([harness.DEFAULT_SIGMA_OMEGA, 1.0]),
           i=st.integers(1, pem.MAP_GRID_POINTS - 2), abc=_around_a_minimum())
    @settings(max_examples=300, deadline=None)
    def test_start_lies_within_half_a_step(self, sigma, i, abc):
        # the start of every fit is inside the bracket _score_root takes
        mu = SpmParams().omega_bar
        grid = np.linspace(mu - pem.MAP_BRACKET_SIGMAS * sigma,
                           mu + pem.MAP_BRACKET_SIGMAS * sigma,
                           pem.MAP_GRID_POINTS)
        lo, w, hi = (float(v) for v in grid[i - 1:i + 2])
        start = pem._vertex(lo, w, hi, *abc)
        assert lo < start < hi
        assert abs(start - w) <= 0.25 * (hi - lo) + math.ulp(w)

    @pytest.mark.parametrize("v", [-0.5, -0.2, 0.0, 0.3, 0.5])
    def test_start_is_the_vertex_of_a_parabola(self, v):
        lo, w, hi = 9.0, 10.0, 11.0
        a, b, c = ((x - w - v) ** 2 for x in (lo, w, hi))
        assert pem._vertex(lo, w, hi, a, b, c) == pytest.approx(w + v,
                                                                abs=1e-15)


class TestMapPassBudget:
    @staticmethod
    def _count_passes(monkeypatch):
        """A counter of the likelihood passes: "grid" and "float" passes,
        and the complex passes under the record length each one reads."""
        passes = collections.Counter()
        prefixes = pem.neg_log_joint_prefixes

        def counted(omega, rec, p, prior, lengths, *args, **kwargs):
            if isinstance(omega, complex):
                k, = lengths
                passes[k] += 1
            else:
                passes["grid" if isinstance(omega, np.ndarray) else
                       "float"] += 1
            return prefixes(omega, rec, p, prior, lengths, *args, **kwargs)
        monkeypatch.setattr(pem, "neg_log_joint_prefixes", counted)
        return passes

    def test_fits_take_one_grid_pass_and_few_complex_passes(self,
                                                            monkeypatch):
        # from the vertex of the grid parabola, the 1600 fits of the
        # fixture's 200 runs took 2.2 complex passes on average, at most 3
        p = SpmParams()
        prior = default_prior(p, harness.DEFAULT_SIGMA_OMEGA)
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        passes = self._count_passes(monkeypatch)
        per_fit = []
        for r in range(4):
            rec = _c06_record(p, r)
            passes.clear()
            pem.map_estimates(rec, ks, p, prior)
            assert passes["grid"] == 1
            assert passes["float"] == 0
            per_fit += [passes[k] for k in ks]
        assert max(per_fit) <= 3
        assert sum(per_fit) <= 3 * len(per_fit)

    def test_record_without_information_starts_at_the_prior_mean(
            self, monkeypatch):
        # at a vanishing measurement strength J is the prior's quadratic, on
        # which the vertex of the grid parabola is the prior mean: the first
        # pass reads a score of about zero, the second the other sign
        p = SpmParams(g_D=1e-30)
        prior = default_prior(p, harness.DEFAULT_SIGMA_OMEGA)
        rec = MeasurementRecord(p.Delta, np.zeros(40))
        starts = []
        score_root = pem._score_root

        def spy(terms, lo, w, hi):
            starts.append(w)
            return score_root(terms, lo, w, hi)
        monkeypatch.setattr(pem, "_score_root", spy)
        passes = self._count_passes(monkeypatch)
        fits = pem.map_estimates(rec, [10, 40], p, prior)
        assert starts == [pytest.approx(p.omega_bar, rel=1e-15)] * 2
        assert passes == {"grid": 1, 10: 2, 40: 2}
        for w, _ in fits:
            assert abs(w - p.omega_bar) <= pem.MAP_TOL

    @staticmethod
    def _weak_record(g_d):
        """A 40-sample record, 3000 rad/s off omega_bar, at a readout gain
        so weak that I overstates d2J/domega2 (4x at g_D = 1e-9)."""
        p = SpmParams(g_D=g_d)
        _, rec = simulate(p, Constant(p.omega_bar + 3000.0), 2e-4, seed=1)
        return rec, p, default_prior(p, harness.DEFAULT_SIGMA_OMEGA)

    @pytest.mark.parametrize("g_d", [1e-9, 3e-10])
    def test_weak_record_fit_is_within_tolerance_of_the_root(self, g_d):
        # Fisher steps alone stopped 2.97e-3 rad/s short at g_D = 1e-9
        rec, p, prior = self._weak_record(g_d)
        (w, _), = pem.map_estimates(rec, [len(rec.outcomes)], p, prior)
        (root, _), = pem_reference.brent_map_estimates(
            rec, [len(rec.outcomes)], p, prior)
        assert abs(w - root) <= pem.MAP_TOL

    def test_weak_record_fit_takes_few_passes(self, monkeypatch):
        # 27 complex passes with Fisher steps alone, 10 with secant steps
        rec, p, prior = self._weak_record(1e-9)
        passes = self._count_passes(monkeypatch)
        pem.map_estimate(rec, p, prior)
        assert passes["grid"] == 1
        assert passes[len(rec.outcomes)] <= 12

    def test_bisection_fallback_converges(self, monkeypatch):
        # an information a million times too small makes every scoring step
        # leave the bracket, so the fit runs on bisection alone
        p = SpmParams()
        prior = default_prior(p, harness.DEFAULT_SIGMA_OMEGA)
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        rec = _c06_record(p, 0)
        fits = pem.map_estimates(rec, ks, p, prior)
        terms = pem.score_and_information
        passes = []

        def weak_information(*args):
            passes.append(args[-1])
            j, score, info = terms(*args)
            return j, score, 1e-6 * info
        monkeypatch.setattr(pem, "score_and_information", weak_information)
        forced = pem.map_estimates(rec, ks, p, prior)
        assert len(passes) > 10 * len(ks)
        for k, (w, j), (w_ref, _) in zip(ks, forced, fits):
            assert abs(w - w_ref) <= pem.MAP_TOL
            assert j == pytest.approx(pem.neg_log_joint_prefixes(
                w, rec, p, prior, [k])[0] / k, rel=1e-12)
