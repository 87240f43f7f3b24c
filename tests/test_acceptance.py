"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity.

Criteria 1, 2, 5, 7 and 8 run the checks of ``pnofdm verify`` on their own
frozen seeds.  The Monte-Carlo criteria share one seeded 2500-frame study at
30 dB (``mc30``); statistical separations use paired one-sided tests on
per-frame quantities with common random numbers, so every outcome is
deterministic given the frozen seeds.
"""

import numpy as np
import pytest

from pnofdm.estimators import error_decomposition, uls
from pnofdm.link import LinkConfig, decode_frame, simulate
from pnofdm.phasenoise import spectral_vector
from pnofdm.experiments import (
    _check_duality,
    _check_error_identity,
    _check_geometry,
    _check_ppt,
    _check_regularity,
    parse_config,
    run_scenario,
)
from test_estimators import noise_free_system


Z95 = 1.645  # one-sided 95% normal quantile


def report(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def paired_greater(worse, better):
    """One-sided paired z-statistic that mean(worse) > mean(better)."""
    d = np.asarray(worse, dtype=float) - np.asarray(better, dtype=float)
    se = d.std(ddof=1) / np.sqrt(d.size)
    return d.mean() / se if se > 0 else np.inf * np.sign(d.mean())


@pytest.fixture(scope="module")
def mc30():
    """Shared 2500-frame study at 30 dB: per-frame errors, costs, residuals.

    The unconstrained-vs-common-phase BER comparison is heavy-tailed (rare
    estimator blowups carry most of the difference), so the paired test
    needs a few thousand frames to resolve it decisively; 2500 keeps the
    whole criterion within its runtime budget.  No estimator may fall back
    on any frame: a flagged output fails the fixture.
    """
    names = ("cpe", "uls", "nls", "gls", "genie")
    frames = 2500
    errors = {n: np.zeros(frames, dtype=int) for n in names}
    costs = {n: np.zeros(frames) for n in ("uls", "nls", "gls")}
    residuals = {n: np.zeros(frames) for n in ("nls", "gls")}
    start = 0
    for block, results in simulate(LinkConfig(snr_db=30.0), names, frames, 190230):
        trials = slice(start, start + len(block))
        start = trials.stop
        sent = np.stack([f.info_bits for f in block])
        for name, outputs in results.items():
            # One decoder call per estimator and block.
            assert not any(flagged for _, flagged in outputs), f"{name} fell back to cpe in trials {trials}"
            decoded = decode_frame(block, [out.delta_hat for out, _ in outputs])
            errors[name][trials] = np.count_nonzero(decoded != sent, axis=1)
            if name in costs:
                costs[name][trials] = [out.diagnostics.cost for out, _ in outputs]
            if name in residuals:
                residuals[name][trials] = [out.diagnostics.geometry_residual for out, _ in outputs]
    bits = frames * sent.shape[1]
    return {"errors": errors, "costs": costs, "residuals": residuals, "bits": bits, "frames": frames}


def test_criterion_1_geometry_construction():
    report(1, *_check_geometry(51_000, 100))


def test_criterion_2_ppt_validity_and_preservation():
    report(2, *_check_ppt(52_000, 100))


def test_criterion_3_exact_recovery_regime():
    worst = 0.0
    for n_c, seed in ((16, 0), (16, 1), (32, 2), (32, 3)):
        sys, model, theta = noise_free_system(n_c, 53_000 + seed)
        out = uls(sys, model)
        delta = spectral_vector(theta)
        worst = max(worst, np.linalg.norm(out.delta_hat - delta) / np.linalg.norm(delta))
    report(3, worst < 1e-8, f"worst relative recovery error (noise-free, all pilots): {worst:.2e}")


def test_criterion_4_constant_phase_error_anchor():
    n = 256
    rng = np.random.default_rng(54_000)
    theta = rng.uniform(-np.pi, np.pi, n)
    x = (1.0 / n) * np.exp(-1j * (theta - 0.2))
    dec = error_decomposition(np.fft.fft(x), theta)
    target = 2 * (1 - np.cos(0.2))
    err = abs(dec.relative - target)
    report(4, err < 1e-10, f"relative error at kappa=1, omega=0.2: {dec.relative:.12f} vs {target:.12f}")


def test_criterion_5_total_error_identity():
    report(5, *_check_error_identity(55_000, 1000))


def test_criterion_6_constrained_feasibility_and_cost_order(mc30):
    worst_res = max(mc30["residuals"]["nls"].max(), mc30["residuals"]["gls"].max())
    c = mc30["costs"]
    tol = 1e-9
    lower_ok = np.mean(c["uls"] <= c["gls"] * (1 + tol) + tol)
    upper_ok = np.mean(c["gls"] <= c["nls"] * (1 + tol) + tol)
    passed = worst_res < 1e-10 and lower_ok >= 0.99 and upper_ok >= 0.99
    report(
        6,
        passed,
        f"worst constrained residual {worst_res:.2e}; cost order uls<=gls on "
        f"{lower_ok:.1%}, gls<=nls on {upper_ok:.1%} of {mc30['frames']} frames",
    )


def test_criterion_7_strong_duality():
    # The shared check passes proven gaps of any size; on these frozen
    # instances the criterion also bounds the worst relative gap.
    passed, detail, worst_rel = _check_duality(((3, 6, 20, 71_000), (5, 10, 10, 72_000)))
    report(7, passed and worst_rel < 1e-3, detail)


def test_criterion_8_regularity_condition():
    report(8, *_check_regularity((3, 5, 7, 9)))


def test_criterion_9_ber_ordering_at_30db(mc30):
    e = mc30["errors"]
    ber = {n: e[n].sum() / mc30["bits"] for n in e}
    z_cpe_uls = paired_greater(e["cpe"], e["uls"])
    z_uls_gls = paired_greater(e["uls"], e["gls"])
    z_uls_nls = paired_greater(e["uls"], e["nls"])
    gls_best = ber["gls"] == min(ber[n] for n in ("cpe", "uls", "nls", "gls"))
    passed = min(z_cpe_uls, z_uls_gls, z_uls_nls) > Z95 and gls_best
    report(
        9,
        passed,
        "BER at 30 dB: "
        + ", ".join(f"{n}={ber[n]:.2e}" for n in ("cpe", "uls", "nls", "gls", "genie"))
        + f"; paired z: cpe>uls {z_cpe_uls:.1f}, uls>gls {z_uls_gls:.1f}, uls>nls {z_uls_nls:.1f}",
    )


def test_criterion_10_mse_trend_and_cis_worst():
    from pnofdm.experiments import ExperimentConfig, _mse_trials

    rhos = (0.005, 0.02, 0.1, 0.2)
    estimators = ("uls", "nls", "gls", "cis")
    cfg = ExperimentConfig(
        scenario="mse-vs-bandwidth", trials=250, estimators=estimators, seed=101_000
    )
    per_rho = {rho: _mse_trials(cfg, rho) for rho in rhos}
    ok = True
    details = []
    for est in estimators:
        means = [per_rho[rho][est].mean() for rho in rhos]
        for lo, hi in zip(rhos[:-1], rhos[1:]):
            d = per_rho[hi][est] - per_rho[lo][est]
            z = d.mean() / (d.std(ddof=1) / np.sqrt(d.size))
            ok &= z > -Z95  # never a significant decrease
        details.append(f"{est}: " + "->".join(f"{m:.3f}" for m in means))
    z_cis = min(
        paired_greater(per_rho[0.2]["cis"], per_rho[0.2][other])
        for other in ("uls", "nls", "gls")
    )
    ok &= z_cis > Z95
    report(10, ok, "; ".join(details) + f"; cis-worst z at rho=0.2: {z_cis:.1f}")


def test_criterion_11_omega_concentration():
    from pnofdm.experiments import ExperimentConfig, _omega_samples

    cfg = ExperimentConfig(scenario="phase-error-pdf", trials=300, seed=111_000)
    results = []
    for t_kind in ("ppt", "lft"):
        omega = _omega_samples(cfg, t_kind)
        counts, edges = np.histogram(omega, bins=41, range=(-1.0, 1.0))
        peak = np.argmax(counts)
        mode_center = (edges[peak] + edges[peak + 1]) / 2
        median_abs = float(np.median(np.abs(omega)))
        results.append((t_kind, mode_center, median_abs))
    passed = all(abs(m) < 0.05 and med < 0.1 for _, m, med in results)
    report(
        11,
        passed,
        "; ".join(f"{t}: mode {m:+.3f}, median|omega| {med:.3f}" for t, m, med in results),
    )


def test_criterion_12_reproducibility(tmp_path):
    configs = [
        "scenario = phase-error-pdf\ntrials = 5\nn_c = 64\nn = 4\nseed = 7\n",
        "scenario = trajectory-traces\nn_c = 64\nn = 4\nseed = 9\n",
    ]
    identical = True
    for i, text in enumerate(configs):
        cfg = parse_config(text)
        (a,) = run_scenario(cfg, tmp_path / f"a{i}")
        (b,) = run_scenario(cfg, tmp_path / f"b{i}")
        identical &= a.read_bytes() == b.read_bytes()
    report(12, identical, f"{len(configs)} scenarios rerun byte-identical")
