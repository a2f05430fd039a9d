"""End-to-end acceptance checks: one test per shipped guarantee, each
printing a single pass/fail line.

The slow Monte-Carlo experiments (error-vs-time curves) are computed once in
a module-scoped fixture and shared by the criteria that read them.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from spinfid import atoms, bounds, filters, harness, model, sde_sim
from spinfid.harness import ExperimentConfig
from spinfid.model import (Constant, GaussianPrior, OrnsteinUhlenbeck,
                           SpmParams, Step, Wiener)

TWO_PI = 2.0 * math.pi


def _report(capsys, num, desc, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:2d}] {desc}: {status}" +
              (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


@pytest.fixture(scope="module")
def error_vs_time_curve():
    """200-run error-vs-time experiment at the reference parameters: EKF with
    a mildly diffusive assumed random walk, MAP re-fit per probing time, the
    Monte-Carlo Bayesian bound and the universal floor."""
    p = SpmParams()
    cfg = ExperimentConfig(
        params=p,
        assumed_signal=Wiener(p.omega_bar, 10.0),
        estimators=("ekf", "pem"),
        bounds=("bcrb_numeric", "floor"),
        bound_samples=400,
        runs=200,
        seed=0,
        sweep_axis="time",
        sweep_values=(5e-5, 1e-4, 2e-4, 3.5e-4, 5e-4, 1e-3, 2e-3, 5e-3),
    )
    return harness.run_error_vs_time(cfg)


def test_c01_noise_strength_constant(capsys):
    q_big = model.atomic_noise_strength(SpmParams())
    dev = abs(q_big / 1.26e14 - 1.0)
    _report(capsys, 1, "atomic noise strength matches 1.26e14 Hz",
            dev < 0.005, f"Q = {q_big:.4g}, deviation {dev:.2%}")


def test_c02_integrator_strong_orders(capsys):
    # constant-frequency spin SDE, shared Brownian paths: endpoint RMS error
    # vs an exact-discretization fine-grid reference
    p = SpmParams()
    s = Constant(p.omega_bar)
    t2 = model.coherence_time(p)
    qm = math.sqrt(model.atomic_noise_strength(p))
    t_end = 1e-4
    hs = [4e-6, 2e-6, 1e-6, 5e-7]
    hf = 5e-7 / 16
    nf = int(round(t_end / hf))
    a_mat = np.array([[-1.0 / t2, p.omega_bar], [-p.omega_bar, -1.0 / t2]])
    ea = sla.expm(a_mat * hf)

    n_paths = 100
    errs_it = np.zeros((len(hs), n_paths))
    errs_em = np.zeros((len(hs), n_paths))
    for path in range(n_paths):
        rng = np.random.default_rng(
            np.random.SeedSequence(123, spawn_key=(path,)))
        z1 = rng.standard_normal((nf, 2))
        z2 = rng.standard_normal((nf, 2))
        dw = 0.5 * math.sqrt(hf) * (math.sqrt(3.0) * z1 + z2)
        zi = (hf ** 1.5 / math.sqrt(3.0)) * z1  # time integral per fine step

        x = np.array([0.0, 0.5 * p.N])
        for i in range(nf):
            x = ea @ x + qm * dw[i] + a_mat @ (qm * zi[i])
        ref = x

        for j, h in enumerate(hs):
            m = int(round(h / hf))
            n = int(round(t_end / h))
            xit = np.array([p.omega_bar, 0.0, 0.5 * p.N])
            xem = xit.copy()
            for k in range(n):
                seg_dw = dw[k * m:(k + 1) * m]
                seg_zi = zi[k * m:(k + 1) * m]
                cum = np.concatenate(
                    [np.zeros((1, 2)), np.cumsum(seg_dw, axis=0)[:-1]])
                xi_c = seg_dw.sum(axis=0)
                ze_c = (cum * hf + seg_zi).sum(axis=0)
                inc = (np.array([0.0, xi_c[0], xi_c[1]]),
                       np.array([0.0, ze_c[0], ze_c[1]]))
                xit = sde_sim.ito_taylor_1p5_step(xit, h, p, s, increments=inc)
                xem = sde_sim.euler_maruyama_step(
                    xem, h, p, s, increment=np.array([0.0, xi_c[0], xi_c[1]]))
            errs_it[j, path] = np.linalg.norm(xit[1:] - ref)
            errs_em[j, path] = np.linalg.norm(xem[1:] - ref)

    lh = np.log(hs)
    slope_it = np.polyfit(lh, np.log(np.sqrt((errs_it ** 2).mean(axis=1))), 1)[0]
    slope_em = np.polyfit(lh, np.log(np.sqrt((errs_em ** 2).mean(axis=1))), 1)[0]
    ok = slope_it >= 1.4 and 0.8 <= slope_em <= 1.2
    _report(capsys, 2, "strong convergence orders (Taylor 1.5 / Euler)",
            ok, f"slopes {slope_it:.2f} / {slope_em:.2f}")


def test_c03_fisher_information_self_consistency(capsys):
    p = SpmParams()
    t2 = model.coherence_time(p)
    omega = p.omega_bar

    p_inf = SpmParams(T2_override=1e9)
    worst_nd = max(
        abs(bounds.fi_noiseless_continuous(omega, t, p_inf)
            / bounds.fi_no_decoherence(omega, t, p_inf) - 1.0)
        for t in np.geomspace(1e-6, 1e-2, 9))

    t_short = t2 / 1000.0
    dev_short = abs(bounds.fi_short_time(omega, t_short, p)
                    / bounds.fi_noiseless_continuous(omega, t_short, p) - 1.0)
    dev_asym = abs(bounds.fi_asymptotic(omega, p)
                   / bounds.fi_noiseless_continuous(omega, 50.0 * t2, p) - 1.0)
    ok = worst_nd < 1e-8 and dev_short < 0.01 and dev_asym < 1e-3
    _report(capsys, 3, "analytic Fisher-information family is self-consistent",
            ok, f"no-decoherence {worst_nd:.1e}, short {dev_short:.2%}, "
                f"asymptotic {dev_asym:.2e}")


def test_c04_crb_scaling_slopes(capsys):
    p = SpmParams()
    omega = p.omega_bar

    ts_short = np.geomspace(1e-8, 1e-7, 6)
    crb_short = [1.0 / bounds.fi_noiseless_continuous(omega, t, p)
                 for t in ts_short]
    slope_short = np.polyfit(np.log(ts_short), np.log(crb_short), 1)[0]

    p_inf = SpmParams(T2_override=1e3)
    ts_tr = np.geomspace(2e-3, 2e-2, 6)
    crb_tr = [1.0 / bounds.fi_noiseless_continuous(omega, t, p_inf)
              for t in ts_tr]
    slope_tr = np.polyfit(np.log(ts_tr), np.log(crb_tr), 1)[0]

    ok = abs(slope_short + 5.0) <= 0.05 and abs(slope_tr + 3.0) <= 0.1
    _report(capsys, 4, "bound scaling laws t^-5 (short) and t^-3 (transient)",
            ok, f"slopes {slope_short:.3f} / {slope_tr:.3f}")


def test_c05_numeric_bound_matches_analytic(capsys):
    # switch off the atomic noise and pin the initial spin: exactly the
    # regime of the closed-form Gaussian-prior bound
    p = SpmParams(q=0.0)
    sigma = TWO_PI * 2e3
    prior = GaussianPrior(np.array([p.omega_bar, 0.0, 0.5 * p.N]),
                          np.diag([sigma ** 2, 0.0, 0.0]))
    numeric = bounds.bcrb_numeric(p, prior, 1e-3, n_samples=1000, seed=0)
    analytic = bounds.bcrb_analytic_gaussian_prior(p, sigma, 1e-3)
    dev = abs(numeric.value / analytic - 1.0)
    _report(capsys, 5, "Monte-Carlo bound within 5% of the analytic bound",
            dev < 0.05, f"deviation {dev:.2%} (MC rel err ~4%)")


def test_c06_map_estimator_follows_bound(capsys, error_vs_time_curve):
    curve = error_vs_time_curve
    ratio = curve.rmse["pem"][-1] / curve.bound["bcrb_numeric"][-1]
    _report(capsys, 6, "MAP RMS error tracks the Bayesian bound at 5 ms",
            0.9 <= ratio <= 1.3, f"ratio {ratio:.3f}")


def test_c07_filter_steady_state_precision(capsys, error_vs_time_curve):
    rms = error_vs_time_curve.rmse["ekf"][-1]
    limit = TWO_PI * 0.02
    _report(capsys, 7, "EKF reaches sub-0.02 Hz precision at 5 ms",
            rms <= limit, f"RMS {rms:.4f} rad/s vs limit {limit:.4f}")


def test_c08_transient_mse_slope(capsys, error_vs_time_curve):
    # the first half-decade after 0.05 ms is still crossing over from the
    # short-time t^-5 regime, so the fit uses the settled 0.1-0.5 ms span
    curve = error_vs_time_curve
    sel = (curve.axis >= 1e-4 - 1e-12) & (curve.axis <= 5e-4 + 1e-12)
    slope = np.polyfit(np.log(curve.axis[sel]),
                       np.log(curve.rmse["pem"][sel] ** 2), 1)[0]
    _report(capsys, 8, "MAP transient MSE decays as t^-3",
            abs(slope + 3.0) <= 0.4, f"slope {slope:.2f}")


def test_c09_atom_number_sweep(capsys):
    sigma = TWO_PI * 2e3
    duration = 5e-3

    # bound shape over the atom-number grid
    ns = [1e9, 1e10, 1e11, 1e12, 1e13, 1e14]
    vals = []
    for n in ns:
        p = SpmParams().with_atom_number(n)
        prior = filters.default_prior(p, sigma)
        vals.append(bounds.bcrb_numeric(p, prior, duration,
                                        n_samples=60, seed=0).value)
    i_min = int(np.argmin(vals))
    interior = 0 < i_min < len(ns) - 1

    # paired EKF/CKF comparison in the fast-decoherence corner
    p13 = SpmParams().with_atom_number(1e13)
    diffs = []
    k = sde_sim.sample_indices([duration], p13.Delta)[0]
    for r in range(100):
        omega_true, rec = sde_sim._mc_shot(p13, p13.omega_bar, sigma, k, 5, 0,
                                           r)
        errs = {}
        for kind in ("ekf", "ckf"):
            fcfg = filters.FilterConfig(
                kind, Wiener(p13.omega_bar, 0.0),
                filters.default_prior(p13, sigma), p13)
            trace = filters.run_filter(fcfg, rec)
            errs[kind] = trace.omega_hat[-1] - omega_true
        diffs.append(errs["ekf"] ** 2 - errs["ckf"] ** 2)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    ckf_not_worse = diffs.mean() >= -1.645 * se

    ok = interior and ckf_not_worse
    _report(capsys, 9, "bound has interior optimum in N; CKF beats EKF at 1e13",
            ok, f"argmin N = {ns[i_min]:.0e}, paired mean diff "
                f"{diffs.mean():.3g} (se {se:.3g})")


def test_c10_sampling_period_robustness(capsys):
    cfg = ExperimentConfig(
        sigma_omega=2000.0,
        estimators=("ekf",),
        runs=100,
        seed=0,
        duration=5e-3,
        sweep_axis="sampling",
        sweep_values=(5e-7, 5e-6, 5e-5),
    )
    curve = harness.run_error_vs_delta(cfg)
    rmse = curve.rmse["ekf"]
    ratio_fast = rmse[0] / rmse[1]
    ratio_slow = rmse[2] / rmse[1]
    ok = abs(ratio_fast - 1.0) <= 0.3 and ratio_slow >= 10.0
    _report(capsys, 10, "error flat down to 0.5 us, degrades past Nyquist",
            ok, f"0.5us/5us = {ratio_fast:.2f}, 50us/5us = {ratio_slow:.3g}")


def test_c11_filter_statistical_consistency(capsys):
    p = SpmParams(Delta=1e-6)
    details = []
    ok = True
    for d_c in (1e7, 1e9):
        s = OrnsteinUhlenbeck(p.omega_bar, 1.0, d_c)
        cfg = ExperimentConfig(params=p, true_signal=s, assumed_signal=s,
                               duration=5e-3, substeps=8, seed=3)
        result = harness.run_tracking(cfg)
        nis = float(result.trace.nis.mean())
        burn = int(round(0.5e-3 / p.Delta))
        err = np.abs(result.true_error[burn:])
        sig = result.trace.sigma_omega_pred[burn:]
        frac = float(np.mean(err < 3.0 * sig))
        ok = ok and 0.8 <= nis <= 1.3 and frac >= 0.99
        details.append(f"d_c={d_c:.0e}: NIS {nis:.3f}, frac {frac:.4f}")
    _report(capsys, 11, "tracking filter is statistically consistent", ok,
            "; ".join(details))


def test_c12_step_tracking(capsys):
    omega_bar = TWO_PI * 9.4e3
    jump = TWO_PI * 500.0
    p = SpmParams(omega_bar=omega_bar, Delta=1e-6)
    signal = Step(omega_bar, ((0.5e-3, omega_bar + jump), (1.2e-3, omega_bar)))
    cfg = ExperimentConfig(
        params=p, true_signal=signal,
        assumed_signal=Wiener(omega_bar, 1e8),
        duration=2e-3, substeps=1, seed=0)
    result = harness.run_tracking(cfg)

    details = []
    ok = True
    for t_jump, target in ((0.5e-3, omega_bar + jump), (1.2e-3, omega_bar)):
        idx = int(round((t_jump + 1e-4) / p.Delta)) - 1
        err = abs(result.trace.omega_hat[idx] - target)
        ok = ok and err <= 0.1 * jump
        details.append(f"recovery error {err / jump:.3f} of jump")
    _report(capsys, 12, "relocks within 0.1 ms after frequency steps", ok,
            "; ".join(details))


def test_c13_atom_count_estimator(capsys):
    p = SpmParams()
    k = 4_000_000
    n_hats = []
    for seed in range(50):
        y = atoms.sample_steady_state_outcomes(p, p.omega_bar, k, seed=seed)
        n_hats.append(atoms.estimate_atom_number(y, p).n_hat)
    n_hats = np.array(n_hats)
    rel_std = n_hats.std(ddof=1) / p.N
    rel_mean = n_hats.mean() / p.N
    ok = 0.05 <= rel_std <= 0.15 and 0.97 <= rel_mean <= 1.03
    _report(capsys, 13, "atom-count estimator scatter and bias at k = 4e6",
            ok, f"std/N {rel_std:.3f}, mean/N {rel_mean:.3f}")


def test_c14_universal_floor(capsys, error_vs_time_curve):
    curve = error_vs_time_curve
    floor = curve.bound["floor"][0]
    worst = min(min(curve.rmse["ekf"]), min(curve.rmse["pem"]))
    _report(capsys, 14, "no measured error beats the universal floor",
            worst >= floor, f"min RMS {worst:.4g} vs floor {floor:.4g}")
