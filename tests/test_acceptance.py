"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live). Every
tolerance is pinned here; nothing is deferred to later calibration."""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from labeldp.attacks import marginal_guess
from labeldp.cli import main as cli_main
from labeldp.data import Dataset, MixtureModel, gen_mixture
from labeldp.mechanisms import alibi, randomized_response
from labeldp.metrics import (
    UtilitySpec,
    advantage_bound,
    bound_factor,
    calibrate_epsilon,
    eau_empirical,
    eau_monte_carlo,
    hoeffding_lower_bound,
    leau_exact,
    reconstruction_bound,
    universal_bound,
)
from labeldp.experiments import (
    CtrConfig,
    SimulationConfig,
    Thm1Config,
    check_simulation,
    run_ctr,
    run_simulation,
    run_thm1_demo,
)
from labeldp.models import BayesModel, ConstantModel, log_loss
from test_models import cross_entropy_grad, cross_entropy_loss

mpmath.mp.dps = 40


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_closed_form_bound_suite():
    start = time.perf_counter()
    ok = True
    eps_grid = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    delta_grid = [0.0, 1e-6, 1e-3, 0.02, 0.25]
    for eps in eps_grid:
        for delta in delta_grid:
            ref = float(1 - 2 / (1 + mpmath.exp(eps)) * (1 - mpmath.mpf(delta)))
            ok &= abs(advantage_bound(eps, delta, 0.8) - ref * 0.8) < 1e-12
            ok &= abs(universal_bound(eps, delta, 3.0) - ref * 3.0) < 1e-12
            ok &= abs(bound_factor(eps, delta) - ref) < 1e-12
            recon_ref = float(1 - mpmath.exp(-mpmath.mpf(eps)) + mpmath.mpf(delta) * 100)
            ok &= abs(reconstruction_bound(eps, delta, 100) - recon_ref) < 1e-12
            if eps > 0:
                hoeff_ref = float(
                    1 - 2 * mpmath.exp(-((1 / (1 + mpmath.exp(-mpmath.mpf(eps))) - mpmath.mpf(0.5)) ** 2) * 200)
                )
                ok &= abs(hoeffding_lower_bound(eps, 200) - max(0.0, hoeff_ref)) < 1e-12
            if 0 < ref < 1 and delta < 0.5:
                cal = calibrate_epsilon(ref * 3.0, delta, 3.0)
                ok &= cal.feasible and abs(cal.epsilon - eps) < 1e-9
    # Anchors.
    ok &= advantage_bound(0.0, 0.0, 1.0) == 0.0
    ok &= abs(calibrate_epsilon(0.5, 0.0, 1.0).epsilon - math.log(3)) < 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, "closed-form bound suite", ok, f"{elapsed:.2f}s")


def test_criterion_2_rr_label_dp_property():
    start = time.perf_counter()
    n, eps = 10**6, 1.0
    keep_target = math.e / (math.e + 1.0)

    out = randomized_response(np.zeros(n, dtype=np.int64), 2, eps, seed=20)
    keep_rate = float(np.mean(out == 0))
    ok = abs(keep_rate - keep_target) < 0.0014

    counts = np.bincount(out, minlength=2).astype(float)
    for a in range(2):
        for b in range(2):
            if a == b:
                continue
            eta = 3.0 * math.sqrt(1.0 / counts[a] + 1.0 / counts[b])
            ok &= counts[a] / counts[b] <= math.exp(eps) * (1.0 + eta)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(2, "RR label-DP property", ok, f"keep rate {keep_rate:.6f}, {elapsed:.2f}s")


def test_criterion_3_simulation_reduced_preset():
    start = time.perf_counter()
    reports = run_simulation(SimulationConfig(**SimulationConfig.presets["fig1-reduced"], seed=7))
    elapsed = time.perf_counter() - start

    violations = check_simulation(reports)  # covers (a), (d), and L-EAU constancy
    ok_a_d = not violations
    ok_b = all(r["leau"] >= 0.5 for r in reports if r["m"] == 2)
    ok_c = all(
        r["eau"] >= 0.95
        for r in reports
        if r["m"] == 100 and r["epsilon"] == 10.0
    )
    ok_time = elapsed < 60.0
    ok = ok_a_d and ok_b and ok_c and ok_time
    report(
        3, "simulation reduced preset", ok,
        f"{len(reports)} cells, {elapsed:.1f}s, "
        f"bound/monotone={'ok' if ok_a_d else violations[:1]}, "
        f"m2-leau>=0.5={ok_b}, m100-eps10-eau>=0.95={ok_c}",
    )


def test_criterion_4_thm1_demonstration():
    start = time.perf_counter()
    rows = run_thm1_demo(Thm1Config(epsilon=1.0, n_values=(100, 1000), trials=200, seed=13))
    elapsed = time.perf_counter() - start

    ok = abs(rows[0]["hoeffding_lower_bound"] - 0.9903968056906015) < 1e-12
    for row in rows:
        ok &= row["empirical_eau"] >= row["hoeffding_lower_bound"]
    ok &= elapsed < 30.0
    detail = ", ".join(
        f"n={row['n']}: eau={row['empirical_eau']:.6f} >= bound={row['hoeffding_lower_bound']:.6f}"
        for row in rows
    )
    report(4, "majority-vote lower-bound demo", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_5_ctr_study():
    config = CtrConfig(seed=5)  # p1=0.03, n=1e5, eps in {inf, 8, 4, 2, 1, 0.1}
    reports = run_ctr(config)

    finite = [r for r in reports if math.isfinite(r["epsilon"])]
    ok_a = all(r["advantage"] <= r["theoretical_bound"] for r in finite)
    ok_d = all(
        r["advantage"] <= r["theoretical_bound"]
        for r in finite
        if r["epsilon"] == 0.1 and r["mechanism"] == "rr"
    )

    from labeldp.data import gen_skewed_binary, split
    from labeldp.rng import derive_seed

    ds, _ = gen_skewed_binary(config.source, config.n, derive_seed(config.seed, "ctr-data"))
    train, _, _ = split(ds, config.split_fractions, derive_seed(config.seed, "ctr-split"))
    marginal = np.bincount(train.labels, minlength=2) / len(train)

    # (c) evaluates the constant baseline over all 1e5 rows, where the
    # +-0.005 window is 2.6 sigma of the empirical-marginal noise.
    entropy_003 = 0.13474216817976674
    baseline_loss = log_loss(ConstantModel(marginal), ds)
    ok_c = abs(baseline_loss - entropy_003) < 0.005
    spec = UtilitySpec.weighted(marginal)
    guess = marginal_guess(marginal, len(train), spec)
    guess_eau = eau_empirical(guess, train.labels, spec)
    sigma3 = 3.0 * spec.bound / math.sqrt(len(train))
    ok_b = abs(guess_eau - 0.5) <= sigma3

    ok = ok_a and ok_b and ok_c and ok_d
    report(
        5, "skewed click-prediction study", ok,
        f"bounds={ok_a}, marginal-guess eau={guess_eau:.4f}, "
        f"baseline log loss={baseline_loss:.4f} vs {entropy_003:.4f}",
    )


def test_criterion_6_oracle_consistency():
    ok = True
    details = []

    # (i) Monte-Carlo SPA on the released exact conditional (the Bayes
    # classifier, label-independent) vs exact L-EAU on 6 mixture configurations.
    for m, sigma in [(2, 1.0), (2, 10.0), (2, 100.0), (100, 1.0), (100, 10.0), (100, 100.0)]:
        ds, posterior = gen_mixture(MixtureModel(m, 100, sigma), 50, seed=31)
        probs = posterior(ds.features)
        spec = UtilitySpec.zero_one()

        def pipeline(features, labels, seeds, posterior=posterior, m=m):
            return [BayesModel(posterior, m) for _ in labels]

        est, se = eau_monte_carlo(probs, ds.features, pipeline, spec, trials=200, seed=37)
        exact = leau_exact(probs, spec)
        close = abs(est - exact) <= 3.0 * max(se, 1e-12)
        ok &= close
        details.append(f"m={m},s={sigma:g}:{'ok' if close else 'off'}")

    # (ii) ALIBI denoised agreement vs an independent noise simulation.
    n, eps = 10**6, 2.0
    ds = Dataset(np.zeros((n, 1)), (np.arange(n) % 2).astype(np.int64), 2)
    impl_rate = np.mean(alibi(ds, eps, seed=41).labels == ds.labels)
    rng = np.random.default_rng(43)
    scale = 2.0 / eps
    true = rng.integers(0, 2, n)
    noisy = np.eye(2)[true] + rng.laplace(0, scale, size=(n, 2))
    loglik0 = -np.abs(noisy - np.array([1.0, 0.0])).sum(axis=1) / scale
    loglik1 = -np.abs(noisy - np.array([0.0, 1.0])).sum(axis=1) / scale
    oracle_rate = np.mean((loglik1 > loglik0).astype(np.int64) == true)
    alibi_ok = abs(impl_rate - oracle_rate) < 0.003
    ok &= alibi_ok
    details.append(f"alibi:{impl_rate:.4f} vs {oracle_rate:.4f}")

    # (iii) Analytic logistic gradient vs central finite differences.
    rng = np.random.default_rng(47)
    design = np.hstack([rng.normal(size=(15, 4)), np.ones((15, 1))])
    onehot = np.zeros((15, 3))
    onehot[np.arange(15), rng.integers(0, 3, 15)] = 1.0
    h = 1e-5
    grad_ok = True
    for _ in range(10):
        W = rng.normal(size=(5, 3))
        grad = cross_entropy_grad(W, design, onehot)
        numeric = np.zeros_like(W)
        for i in range(5):
            for j in range(3):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                numeric[i, j] = (
                    cross_entropy_loss(Wp, design, onehot)
                    - cross_entropy_loss(Wm, design, onehot)
                ) / (2 * h)
        rel = np.max(np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-8))
        grad_ok &= rel < 1e-4
    ok &= grad_ok
    details.append(f"grad-fd:{'ok' if grad_ok else 'off'}")

    report(6, "oracle-consistency suite", ok, "; ".join(details))


def test_criterion_7_determinism(tmp_path, capsys):
    jobs = {
        "simulate": ["simulate", "--class-counts", "2", "--dim", "6", "--sigmas", "1.0",
                     "--n", "24", "--trials", "8", "--epsilons", "0.5,4.0",
                     "--iterations", "10", "--seed", "9"],
        "thm1": ["thm1", "--epsilon", "1.0", "--n-values", "20,40", "--trials", "25",
                 "--seed", "9"],
        "ctr": ["ctr", "--n", "1500", "--positive-rate", "0.1", "--dim", "4",
                "--epsilons", "inf,1.0", "--iterations", "12", "--seed", "9"],
    }
    ok = True
    for name, args in jobs.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert cli_main(args + ["--output", str(first)]) == 0
        assert cli_main(args + ["--output", str(second)]) == 0
        same = first.read_bytes() == second.read_bytes()
        same &= (tmp_path / f"{name}_a.csv.manifest.json").read_bytes() == (
            tmp_path / f"{name}_b.csv.manifest.json"
        ).read_bytes()
        ok &= same
    capsys.readouterr()  # drop CLI chatter so the verdict line stands alone
    report(7, "harness determinism", ok)
