"""
Release acceptance gates.

One test per criterion; each prints a single line with the measured values
and its PASS/FAIL verdict before asserting, so the gate results can be read
off the test log directly.

Gate styles
-----------
* exact:       frozen sample-size cells and minimality certificates;
* statistical: 1000-replicate Monte Carlo rejection rates at the pinned
  session seed, gated by bands roughly 2.5 binomial standard errors wide
  around the analytic target (the same bands as the module suites);
* oracle:      live extended-precision (mpmath) and 10^7-draw Monte Carlo
  cross-checks of the distribution kernel and the estimator;
* mechanical:  bit-identical output across repeats and worker counts.
"""

import json
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from conftest import MC_SEED
from mrtpower import NumericError
from mrtpower.design import (
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.distributions import FDistParams, f_cdf, f_quantile, ncf_cdf
from mrtpower.estimator import (
    Dataset,
    asymptotic_targets,
    fit_working_model,
    sandwich_variance,
)
from mrtpower.samplesize import SizingInputs, solve_sample_size
from mrtpower.simulate import (
    ErrorProcess,
    GenerativeModel,
    generate_dataset,
    monte_carlo,
)

# 42-day, 5-decision design, rho = 0.4, effect peaking on day 29, zero
# initial effect, alpha0 = 0.05, target power 0.80:
# (average effect, constant availability) -> minimal n.
SIZING_TABLE = {
    (0.10, 0.7): 32, (0.10, 0.6): 36, (0.10, 0.5): 42, (0.10, 0.4): 52,
    (0.09, 0.7): 38, (0.09, 0.6): 44, (0.09, 0.5): 51, (0.09, 0.4): 63,
    (0.08, 0.7): 47, (0.08, 0.6): 54, (0.08, 0.5): 64, (0.08, 0.4): 78,
    (0.07, 0.7): 60, (0.07, 0.6): 69, (0.07, 0.5): 81, (0.07, 0.4): 101,
    (0.06, 0.7): 79, (0.06, 0.6): 92, (0.06, 0.5): 109, (0.06, 0.4): 135,
    (0.05, 0.7): 112, (0.05, 0.6): 130, (0.05, 0.5): 155, (0.05, 0.4): 193,
}

# Six-week spot checks: availability -> n at average effects 0.10/0.08/0.06.
SIX_WEEK_SIZES = {0.5: (42, 64, 109), 0.7: (32, 47, 79)}

MC_REPS = 1000
ALPHA0 = 0.05
POWER_BAND = (0.75, 0.82)
FAMILY_BAND = (0.74, 0.84)
TYPE_I_BAND = (0.033, 0.067)
MISSPEC_BAND = (0.54, 0.66)


def _report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def design():
    return TrialDesign(days=42, decisions_per_day=5, rho=0.4)


@pytest.fixture(scope="module")
def features(design):
    return build_quadratic_features(design)


@pytest.fixture(scope="module")
def tau_half(design):
    return make_availability("constant", 0.5, design)


@pytest.fixture(scope="module")
def effect_10(design):
    return elicit_quadratic_effect(0.0, 0.10, 29, design)


@pytest.fixture(scope="module")
def sizing_results(design, features):
    """All 24 reference cells solved once, with the wall-clock time."""
    start = time.perf_counter()
    results = {
        (dbar, avg): solve_sample_size(
            SizingInputs(
                design=design,
                features=features,
                tau=make_availability("constant", avg, design),
                effect=elicit_quadratic_effect(0.0, dbar, 29, design),
                alpha0=ALPHA0,
                power_target=0.80,
            )
        )
        for (dbar, avg) in SIZING_TABLE
    }
    return results, time.perf_counter() - start


def _power_model(design, effect, tau):
    return GenerativeModel.working_true(design, effect, tau, ErrorProcess("iid-normal"))


def _run(model, n=42):
    return monte_carlo(model, n, MC_REPS, ALPHA0, seed=MC_SEED)


# =====================================================================
# 1-3: sizing grid, spot checks, minimality certificates
# =====================================================================


def test_criterion_01_sizing_table_exact(sizing_results):
    results, elapsed = sizing_results
    mismatches = [
        f"{cell}: got {results[cell].n}, want {want}"
        for cell, want in SIZING_TABLE.items()
        if results[cell].n != want
    ]
    passed = not mismatches and elapsed < 1.0
    _report(
        "01 sizing table",
        passed,
        f"{24 - len(mismatches)}/24 cells exact in {elapsed:.3f}s (limit 1s)"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_02_six_week_spot_checks(design, features):
    got = {}
    for avg, expected in SIX_WEEK_SIZES.items():
        got[avg] = tuple(
            solve_sample_size(
                SizingInputs(
                    design=design,
                    features=features,
                    tau=make_availability("constant", avg, design),
                    effect=elicit_quadratic_effect(0.0, dbar, 29, design),
                    alpha0=ALPHA0,
                    power_target=0.80,
                )
            ).n
            for dbar in (0.10, 0.08, 0.06)
        )
    passed = got == SIX_WEEK_SIZES
    _report("02 six-week sizes", passed, f"got {got}, want {SIX_WEEK_SIZES}")


def test_criterion_03_minimality_certificates(sizing_results):
    results, _ = sizing_results
    bad = [
        cell
        for cell, res in results.items()
        if not (res.achieved_power >= 0.80 > res.power_at_n_minus_1)
    ]
    _report(
        "03 minimality",
        not bad,
        f"{24 - len(bad)}/24 cells certify power(n) >= 0.80 > power(n-1)"
        + (f"; failed: {bad}" if bad else ""),
    )


# =====================================================================
# 4-8: Monte Carlo rejection-rate gates
# =====================================================================


def test_criterion_04_type_i_error(null_mc):
    report, elapsed = null_mc
    in_band = TYPE_I_BAND[0] <= report.rate <= TYPE_I_BAND[1]
    passed = in_band and elapsed < 120.0
    _report(
        "04 type-I error",
        passed,
        f"null rate {report.rate:.4f} in [{TYPE_I_BAND[0]}, {TYPE_I_BAND[1]}], "
        f"{report.replicates}/{report.requested} replicates in {elapsed:.1f}s "
        f"(limit 120s)",
    )


def test_criterion_05_power(design, effect_10, tau_half):
    report = _run(_power_model(design, effect_10, tau_half))
    passed = POWER_BAND[0] <= report.rate <= POWER_BAND[1]
    _report(
        "05 power",
        passed,
        f"rate {report.rate:.4f} in [{POWER_BAND[0]}, {POWER_BAND[1]}] at n=42",
    )


def test_criterion_06_error_family_robustness(design, effect_10, tau_half):
    rates = {}
    for family, phi in (
        ("iid-t3-scaled", 0.0),
        ("iid-exp-centered", 0.0),
        ("ar1", 0.6),
        ("ar1", -0.6),
        ("ar5", 0.6),
        ("ar5", -0.6),
    ):
        model = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess(family, phi)
        )
        label = family if phi == 0.0 else f"{family}({phi:+g})"
        rates[label] = _run(model).rate
    out = {k: v for k, v in rates.items() if not FAMILY_BAND[0] <= v <= FAMILY_BAND[1]}
    detail = ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
    _report(
        "06 error families",
        not out,
        f"rates in [{FAMILY_BAND[0]}, {FAMILY_BAND[1]}]: {detail}",
    )


def test_criterion_07_heteroscedastic_degradation(design, effect_10, tau_half):
    rates = {}
    for ratio in (1.2, 0.8):
        model = GenerativeModel.heteroscedastic(
            design, effect_10, tau_half, ErrorProcess("iid-normal"),
            variance_ratio=ratio, variance_trend="constant",
        )
        rates[ratio] = _run(model).rate
    passed = rates[1.2] < 0.78 <= rates[0.8]
    _report(
        "07 heteroscedastic",
        passed,
        f"ratio 1.2 rate {rates[1.2]:.4f} < 0.78 <= ratio 0.8 rate {rates[0.8]:.4f}",
    )


def test_criterion_08_effect_misspecification(design, tau_half):
    # sized for an average effect of 0.10 (n=42) but the truth is 0.08
    true_effect = elicit_quadratic_effect(0.0, 0.08, 29, design)
    report = _run(_power_model(design, true_effect, tau_half))
    passed = MISSPEC_BAND[0] <= report.rate <= MISSPEC_BAND[1]
    _report(
        "08 misspecification",
        passed,
        f"rate {report.rate:.4f} in [{MISSPEC_BAND[0]}, {MISSPEC_BAND[1]}] "
        f"at n=42 with true average effect 0.08",
    )


# =====================================================================
# 9: distribution kernel against independent oracles
# =====================================================================

CENTRAL_GRID = [
    (1, 5, (0.1, 1.0, 3.0, 10.0)),
    (2, 10, (0.2, 1.5, 4.0, 8.0)),
    (3, 36, (0.5, 1.0, 2.0, 4.0)),
    (5, 17, (0.3, 1.0, 2.5, 5.0)),
    (10, 204, (0.5, 1.0, 1.6, 2.5)),
]

NONCENTRAL_GRID = [
    (3, 36, 12.9726, (1.0, 2.5, 3.5, 6.0)),
    (3, 103, 16.8, (1.0, 2.0, 3.0, 5.0)),
    (1, 8, 4.0, (0.5, 2.0, 5.0, 12.0)),
    (2, 20, 7.5, (0.5, 2.0, 4.0, 9.0)),
    (5, 40, 20.0, (1.0, 2.5, 4.0, 7.0)),
]

MC_ORACLE_DRAWS = 10_000_000


def test_criterion_09_distribution_kernel():
    mp.mp.dps = 30

    def density(u, d1, d2):
        d1, d2 = mp.mpf(d1), mp.mpf(d2)
        return (
            (d1 / d2) ** (d1 / 2)
            / mp.beta(d1 / 2, d2 / 2)
            * u ** (d1 / 2 - 1)
            * (1 + d1 * u / d2) ** (-(d1 + d2) / 2)
        )

    quad_err = 0.0
    for d1, d2, xs in CENTRAL_GRID:
        for x in xs:
            oracle = float(mp.quad(lambda u: density(u, d1, d2), [0, x]))
            quad_err = max(quad_err, abs(f_cdf(x, FDistParams(d1, d2)) - oracle))

    worst_z = 0.0
    for d1, d2, lam, xs in NONCENTRAL_GRID:
        stream = np.random.SeedSequence(entropy=MC_SEED, spawn_key=(d1, d2))
        draws = np.random.Generator(np.random.Philox(stream)).noncentral_f(
            d1, d2, lam, size=MC_ORACLE_DRAWS
        )
        for x in xs:
            phat = float(np.mean(draws <= x))
            se = np.sqrt(phat * (1.0 - phat) / MC_ORACLE_DRAWS)
            z = abs(ncf_cdf(x, FDistParams(d1, d2, lam)) - phat) / se
            worst_z = max(worst_z, z)

    roundtrip = 0.0
    for d1, d2, _ in CENTRAL_GRID:
        params = FDistParams(d1, d2)
        for prob in (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
            roundtrip = max(roundtrip, abs(f_cdf(f_quantile(prob, params), params) - prob))
        for x in (0.2, 0.5, 1.0, 2.0, 5.0):
            back = f_quantile(f_cdf(x, params), params)
            roundtrip = max(roundtrip, abs(back - x) / max(1.0, x))

    passed = quad_err <= 1e-10 and worst_z <= 3.0 and roundtrip <= 1e-8
    _report(
        "09 distribution kernel",
        passed,
        f"central vs quadrature max |err| {quad_err:.2e} (<=1e-10); "
        f"noncentral vs {MC_ORACLE_DRAWS:.0e}-draw MC worst {worst_z:.2f} SE (<=3); "
        f"quantile roundtrip max {roundtrip:.2e} (<=1e-8)",
    )


# =====================================================================
# 10: estimator against a live extended-precision oracle
# =====================================================================


def _mp_estimator_oracle(dataset, feats):
    """Brute-force fit and sandwich variances at 50 significant digits."""
    q, p = feats.q, feats.p
    B, Z = feats.B, feats.Z
    X, y = [], []
    for rec in dataset:
        xi = mp.zeros(len(rec.avail), q + p)
        yi = mp.zeros(len(rec.avail), 1)
        for t in range(len(rec.avail)):
            on = mp.mpf(int(rec.avail[t]))
            centered = mp.mpf(int(rec.action[t])) - mp.mpf(float(rec.prob[t]))
            for k in range(q):
                xi[t, k] = on * mp.mpf(B[t, k])
            for k in range(p):
                xi[t, q + k] = on * centered * mp.mpf(Z[t, k])
            if rec.avail[t] == 1:
                yi[t] = mp.mpf(float(rec.outcome[t]))
        X.append(xi)
        y.append(yi)
    n = len(X)
    G = mp.zeros(q + p, q + p)
    v = mp.zeros(q + p, 1)
    for xi, yi in zip(X, y):
        G += xi.T * xi
        v += xi.T * yi
    theta = mp.lu_solve(G, v)
    resid = [yi - xi * theta for xi, yi in zip(X, y)]

    qhat = mp.zeros(p, p)
    for rec in dataset:
        for t in range(len(rec.avail)):
            if rec.avail[t] == 1:
                r = mp.mpf(float(rec.prob[t]))
                w = r * (1 - r)
                for a in range(p):
                    for b in range(p):
                        qhat[a, b] += w * mp.mpf(Z[t, a]) * mp.mpf(Z[t, b])
    qinv = mp.inverse(qhat / n)
    what = mp.zeros(p, p)
    for xi, ei in zip(X, resid):
        mi = (xi.T * ei)[q:, :]
        what += mi * mi.T
    sigma_unadj = qinv * (what / n) * qinv

    ginv = mp.inverse(G)
    what = mp.zeros(p, p)
    for xi, ei in zip(X, resid):
        hat = xi * ginv * xi.T
        adjusted = mp.lu_solve(mp.eye(xi.rows) - hat, ei)
        gi = (xi.T * adjusted)[q:, :]
        what += gi * gi.T
    block = mp.inverse(G / n)[q:, q:]
    sigma_adj = block * (what / n) * block
    cond = mp.mnorm(G, 1) * mp.mnorm(G ** -1, 1)
    return theta, sigma_unadj, sigma_adj, cond


def _to_numpy(matrix):
    return np.array(
        [[float(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]
    )


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_criterion_10_estimator_oracle_equivalence():
    mp.mp.dps = 50
    collected = 0
    attempt = 0
    worst = 0.0
    while collected < 50 and attempt < 1500:
        rng = np.random.default_rng(attempt)
        attempt += 1
        n = int(rng.integers(3, 6))
        days = int(rng.integers(3, 5))
        design = TrialDesign(days=days, decisions_per_day=1, rho=0.4)
        feats = build_quadratic_features(design)
        subjects = []
        for _ in range(n):
            avail = (rng.random(days) < 0.8).astype(np.int8)
            action = ((rng.random(days) < 0.4).astype(np.int8) & avail).astype(np.int8)
            outcome = np.where(avail == 1, rng.normal(size=days), np.nan)
            subjects.append((avail, action, np.full(days, 0.4), outcome))
        dataset = Dataset(*map(np.stack, zip(*subjects)))
        try:
            fit = fit_working_model(dataset, feats)
            # conditioning filter: the hat-matrix adjustment is only well
            # posed when every subject's leverage stays away from 1
            rows = []
            for rec in dataset:
                on = rec.avail.astype(np.float64)
                centered = (rec.action - rec.prob) * on
                rows.append(
                    np.hstack([on[:, None] * feats.B, centered[:, None] * feats.Z])
                )
            gram = sum(x.T @ x for x in rows)
            leverage = 0.0
            for x in rows:
                hat = x @ np.linalg.solve(gram, x.T)
                leverage = max(
                    leverage, np.linalg.eigvalsh(0.5 * (hat + hat.T)).max()
                )
            if leverage > 0.95:
                continue
            sig_unadj = sandwich_variance(dataset, fit, feats, False)
            sig_adj = sandwich_variance(dataset, fit, feats, True)
        except NumericError:
            continue
        try:
            theta_o, unadj_o, adj_o, cond = _mp_estimator_oracle(dataset, feats)
        except ZeroDivisionError:
            continue
        if cond > mp.mpf(10) ** 9:
            continue
        theta = np.concatenate([fit.alpha_hat, fit.beta_hat])
        worst = max(
            worst,
            _rel(theta, _to_numpy(theta_o).ravel()),
            _rel(sig_unadj, _to_numpy(unadj_o)),
            _rel(sig_adj, _to_numpy(adj_o)),
        )
        collected += 1
    passed = collected == 50 and worst <= 1e-9
    _report(
        "10 estimator oracle",
        passed,
        f"{collected}/50 well-conditioned instances, worst relative error "
        f"{worst:.2e} (<=1e-9), {attempt} candidates screened",
    )


# =====================================================================
# 11: large-sample consistency
# =====================================================================


def test_criterion_11_large_sample_consistency(design, features, effect_10, tau_half):
    model = _power_model(design, effect_10, tau_half)
    dataset = generate_dataset(model, 10_000, seed=MC_SEED)
    fit = fit_working_model(dataset, features)
    sigma = sandwich_variance(dataset, fit, features, True)
    _, beta_targets = asymptotic_targets(model, features)
    se = np.sqrt(np.diag(sigma) / len(dataset))
    z = np.abs(fit.beta_hat - beta_targets) / se
    passed = bool(np.all(z <= 3.0))
    _report(
        "11 consistency",
        passed,
        f"n=10000 fit within {np.max(z):.2f} MC SE of the asymptotic targets "
        f"(componentwise limit 3)",
    )


# =====================================================================
# 12: bit-identical determinism
# =====================================================================


def test_criterion_12_determinism(tmp_path):
    config = {
        "design": {"days": 3, "decisions_per_day": 4, "rho": 0.4},
        "availability": {"kind": "constant", "average": 0.6},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 0.3, "max_day": 2},
        "errors": {"family": "ar1", "phi": 0.6},
        "scenario": {"name": "working-true"},
        "n": 9,
        "alpha0": 0.05,
        "reps": 10,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    def run(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "mrtpower.cli", "simulate", str(path), *extra],
            capture_output=True, text=True, check=True,
        )
        return proc.stdout

    outputs = {
        "run 1": run(),
        "run 2": run(),
        "3 workers": run("--threads", "3"),
    }
    baseline = outputs["run 1"]
    diffs = [name for name, out in outputs.items() if out != baseline]
    # same check in-process for the library entry point
    design = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
    model = GenerativeModel.working_true(
        design,
        elicit_quadratic_effect(0.0, 0.3, 2, design),
        make_availability("constant", 0.6, design),
        ErrorProcess("ar1", 0.6),
    )
    first = monte_carlo(model, 9, 10, 0.05, seed=3).to_dict()
    second = monte_carlo(model, 9, 10, 0.05, seed=3, threads=2).to_dict()
    passed = not diffs and first == second
    _report(
        "12 determinism",
        passed,
        "CLI output bit-identical across repeats and worker counts"
        + (f"; differing: {diffs}" if diffs else "")
        + ("" if first == second else "; in-process thread counts differ"),
    )
