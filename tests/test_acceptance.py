"""End-to-end acceptance gate.

Nine criteria, one test each, asserted at fixed tolerances and budgets.
Each test prints a single summary line (visible with pytest -s; under -v
the test verdicts themselves give the per-criterion pass/fail report).
"""

import json
import time

import numpy as np

import sparsid.recursion as rec
from sparsid import (
    DictionarySpec,
    HorseshoeState,
    NoiseModel,
    RecursionConfig,
    Sample,
    batch_fit,
    build_matrix,
    check_pe,
    gen_sparse_regression,
    initial_horseshoe,
    simulate_lorenz,
    utility,
)
from sparsid.cli import main as cli_main
from sparsid.monitor import gram
from sparsid.posterior import posterior_from_moments
from sparsid.simulate import LorenzConfig, SparseRegressionConfig, lorenz_coefficients

from conftest import make_samples
from test_posterior import dense_information, dense_oracle


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: PASS{suffix}")


# ---------------------------------------------------------------------- 1


def random_prior(rng, n_p, n_y):
    noise = NoiseModel(rng.uniform(0.2, 2.0, size=n_y))
    hs = HorseshoeState(
        local_scales=rng.uniform(0.2, 3.0, size=(n_p, n_y)),
        global_scale=float(rng.uniform(0.5, 2.0)),
    )
    return noise, hs


def test_criterion_01_gaussian_roundtrip_and_scalar_agreement():
    """The estimator's own information algebra: a slide adds a batch's Gram
    and cross term to the window's (G, C), and a later slide divides them
    out again; the posterior of an n_p = 1 window is the closed-form scalar
    one."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    specs = {
        n: DictionarySpec(state_dim=n, poly_degree=1, include_bias=False)
        for n in range(1, 6)
    }
    worst = 0.0
    for _ in range(1000):
        n_p = int(rng.integers(1, 6))
        n_y = int(rng.integers(1, 4))
        psi = rng.normal(size=(int(rng.integers(1, 21)), n_p))
        window_gram, cross = gram(psi), psi.T @ rng.normal(size=(len(psi), n_y))
        psi_b = rng.normal(size=(int(rng.integers(1, 11)), n_p))
        gram_b, cross_b = gram(psi_b), psi_b.T @ rng.normal(size=(len(psi_b), n_y))
        back_gram = (window_gram + gram_b) - gram_b
        back_cross = (cross + cross_b) - cross_b
        noise, hs = random_prior(rng, n_p, n_y)
        before = posterior_from_moments(specs[n_p], noise, hs, window_gram, cross)
        after = posterior_from_moments(specs[n_p], noise, hs, back_gram, back_cross)
        worst = max(
            worst,
            float(np.max(np.abs(back_gram - window_gram))),
            float(np.max(np.abs(back_cross - cross))),
            float(np.max(np.abs(after.s_blocks - before.s_blocks))),
            float(np.max(np.abs(after.b_blocks - before.b_blocks))),
        )
    assert worst < 1e-12

    worst_solve = 0.0
    for _ in range(1000):
        psi = rng.normal(size=(int(rng.integers(1, 21)), 1))
        window_gram, cross = gram(psi), psi.T @ rng.normal(size=(len(psi), 1))
        noise, hs = random_prior(rng, 1, 1)
        post = posterior_from_moments(specs[1], noise, hs, window_gram, cross)
        g, c = float(window_gram[0, 0]), float(cross[0, 0])
        var = float(noise.output_variances[0])
        lam, tau = float(hs.local_scales[0, 0]), hs.global_scale
        # S = g / sigma^2 + 1 / (lambda^2 tau^2), b = c / sigma^2, bit for bit
        s = g / var + 1.0 / (lam * lam * tau**2)
        b = c / var
        assert post.s_blocks[0, 0, 0] == s and post.b_blocks[0, 0] == b
        # the Cholesky solve rounds differently from one division
        mean = float(post.mean_blocks()[0, 0])
        cov = float(post.covariance_blocks()[0, 0, 0])
        worst_solve = max(
            worst_solve, abs(mean - b / s) / abs(b / s), abs(cov - 1.0 / s) * s
        )
    assert worst_solve <= 1e-15

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(
        1, "information algebra",
        f"max drift {worst:.2e}, scalar solve {worst_solve:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------- 2


def test_criterion_02_blockwise_equals_dense_kronecker_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n_p = int(rng.integers(1, 7))
        n_y = int(rng.integers(1, 4))
        t = int(rng.integers(1, 41))
        spec = DictionarySpec(state_dim=n_p, poly_degree=1, include_bias=False)
        states = rng.normal(size=(t, n_p))
        ys = rng.normal(size=(t, n_y))
        variances = rng.uniform(0.2, 2.0, size=n_y)
        hs = HorseshoeState(
            local_scales=rng.uniform(0.2, 3.0, size=(n_p, n_y)),
            global_scale=float(rng.uniform(0.5, 2.0)),
        )
        samples = [Sample(float(i), states[i], ys[i]) for i in range(t)]
        post = batch_fit(spec, samples, NoiseModel(variances), hs)
        s_ref, b_ref, mu_ref = dense_oracle(
            build_matrix(spec, states), ys, variances, hs.prior_precision
        )
        s_dense, b_dense = dense_information(post)
        worst = max(
            worst,
            float(np.max(np.abs(s_dense - s_ref))),
            float(np.max(np.abs(post.mean() - mu_ref))),
        )
        assert float(np.max(np.abs(b_dense - b_ref))) < 1e-10
    assert worst < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(2, "kronecker-block exactness", f"max gap {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------- 3


def test_criterion_03_recursion_tracks_batch_for_500_steps():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    geometries = [
        (DictionarySpec(state_dim=2, poly_degree=2), 40, 5),  # 6 columns
        (DictionarySpec(state_dim=8, poly_degree=1, include_bias=False), 50, 5),
    ]
    worst_mu = 0.0
    worst_s = 0.0
    for spec, window, batch in geometries:
        coef = np.zeros((spec.n_columns, 1))
        coef[: min(3, spec.n_columns), 0] = (2.0, -1.0, 0.5)[: min(3, spec.n_columns)]
        n = window + 250 * batch
        samples = make_samples(rng, spec, coef, noise_std=0.1, n=n)
        noise = NoiseModel([0.01])
        hs = initial_horseshoe(spec, 1)
        cfg = RecursionConfig(
            window=window, batch_in=batch, forget=batch,
            forgetting_factor=1.0, theta_mode="fixed", policy="warn",
        )
        state = rec.init(spec, cfg, samples[:window], noise, hs)
        for k in range(window, n, batch):
            out = rec.step(state, samples[k : k + batch])
            if not out.accepted:
                continue
            ref = batch_fit(spec, samples[k + batch - window : k + batch], noise, hs)
            snap = rec.snapshot(state)
            gap_mu = float(np.max(np.abs(snap.mean() - ref.mean())))
            s_ref = dense_information(ref)[0]
            s_norm = float(np.max(np.abs(s_ref)))
            gap_s = float(np.max(np.abs(dense_information(snap)[0] - s_ref)))
            worst_mu = max(worst_mu, gap_mu)
            worst_s = max(worst_s, gap_s / (1.0 + s_norm))
            assert gap_mu < 1e-8
            assert gap_s < 1e-8 * (1.0 + s_norm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(
        3, "recursive-batch equivalence",
        f"mu gap {worst_mu:.2e}, S gap {worst_s:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------- 4


def run_case1_seed(seed):
    scen = SparseRegressionConfig(
        m=50, n_samples=600, nonzero_fraction=0.3, noise_variance=0.1, seed=seed
    )
    x, y, beta = gen_sparse_regression(scen)
    spec = DictionarySpec(state_dim=50, poly_degree=1, include_bias=False)
    samples = [Sample(float(i), x[i], y[i]) for i in range(600)]
    cfg = RecursionConfig(
        window=200, batch_in=10, forget=10, theta_mode="adaptive", policy="warn"
    )
    state = rec.init(spec, cfg, samples[:200], NoiseModel([0.1]))
    for k in range(200, 600, 10):
        rec.step(state, samples[k : k + 10])
    estimate = rec.snapshot(state).mean_blocks()[0]
    truth = beta[-1]
    return estimate, truth


def test_criterion_04_sparse_stream_reproduction():
    nonzero_errors = []
    zero_estimates = []
    for seed in range(20):
        estimate, truth = run_case1_seed(seed)
        active = truth != 0.0
        nonzero_errors.extend(np.abs(estimate[active] - truth[active]))
        zero_estimates.extend(np.abs(estimate[~active]))
    med_active = float(np.median(nonzero_errors))
    med_null = float(np.median(zero_estimates))
    assert med_active < 0.2
    assert med_null < 0.05
    announce(
        4, "sparse stream recovery",
        f"median active err {med_active:.3f}, median null {med_null:.1e}, 20 seeds",
    )


# ---------------------------------------------------------------------- 5


def test_criterion_05_regime_switch_recovery():
    scen = SparseRegressionConfig(
        m=20, n_samples=700, nonzero_fraction=0.3, noise_variance=0.1,
        switch_at=350, seed=12,
    )
    x, y, beta = gen_sparse_regression(scen)
    spec = DictionarySpec(state_dim=20, poly_degree=1, include_bias=False)
    samples = [Sample(float(i), x[i], y[i]) for i in range(700)]
    window, batch = 100, 10
    cfg = RecursionConfig(
        window=window, batch_in=batch, forget=batch,
        theta_mode="adaptive", policy="warn",
    )
    state = rec.init(spec, cfg, samples[:window], NoiseModel([0.1]))
    truth_post = beta[-1]
    errors = []
    for k in range(window, 700, batch):
        out = rec.step(state, samples[k : k + batch])
        snap = rec.snapshot(state)
        assert np.linalg.eigvalsh(snap.s_blocks).min() > 0, (
            f"S lost definiteness at step {out.step_index}"
        )
        errors.append(float(np.linalg.norm(snap.mean_blocks()[0] - truth_post)))

    smooth = np.convolve(errors, np.ones(5) / 5.0, mode="valid")
    # step index (into `errors`) right after the switch enters the stream
    switch_step = (350 - window) // batch
    steady = float(np.mean(smooth[-10:]))
    budget = 5 * window // batch  # 50 steps
    recovered = np.nonzero(smooth[switch_step:] < 2.0 * steady)[0]
    assert recovered.size > 0, "error never re-converged after the switch"
    assert recovered[0] <= budget
    announce(
        5, "regime-switch recovery",
        f"recovered in {recovered[0]} steps (budget {budget}), steady {steady:.3f}",
    )


# ---------------------------------------------------------------------- 6


TRUE_SUPPORTS = (
    {"x1", "x2"},
    {"x1", "x2", "x1*x3"},
    {"x3", "x1*x2"},
)


def test_criterion_06_lorenz_structure_and_drift_tracking():
    t0 = time.perf_counter()
    rows = simulate_lorenz(
        LorenzConfig(dt=0.01, t_end=100.0, noise_std=1.0, seed=6)
    )
    spec = DictionarySpec(state_dim=3, poly_degree=2)
    window, batch = 1000, 50
    cfg = RecursionConfig(
        window=window, batch_in=batch, forget=batch,
        theta_mode="adaptive", policy="warn",
    )
    state = rec.init(spec, cfg, tuple(a[:window] for a in rows), NoiseModel([1.0, 1.0, 1.0]))
    labels = list(spec.column_labels)
    idx_x2 = labels.index("x2")
    idx_x3 = labels.index("x3")
    k1_gap = []
    k3_gap = []
    for k in range(window, len(rows[0]) - batch + 1, batch):
        out = rec.step(state, tuple(a[k : k + batch] for a in rows))
        if not out.accepted:
            continue
        t = out.timestamp
        if 20.0 <= t <= 100.0:
            means = rec.snapshot(state).mean_blocks()
            k1_true, k3_true = lorenz_coefficients(t)
            k1_gap.append(abs(means[0][idx_x2] - k1_true))
            k3_gap.append(abs(-means[2][idx_x3] - k3_true))

    means = rec.snapshot(state).mean_blocks()
    for i, expected in enumerate(TRUE_SUPPORTS):
        order = np.argsort(-np.abs(means[i]))
        top = {labels[j] for j in order[: len(expected)]}
        assert top == expected, f"output {i + 1} support {top} != {expected}"

    assert max(k1_gap) < 0.5
    assert max(k3_gap) < 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        6, "lorenz structure and drift",
        f"max k1 gap {max(k1_gap):.3f}, max k3 gap {max(k3_gap):.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------- 7


def test_criterion_07_monitor_classifications():
    rng = np.random.default_rng(707)
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    redundant = degrading = 0
    trials = 100
    for _ in range(trials):
        states = rng.normal(size=(6, 2))
        if utility(spec, states, states).classification == "redundant":
            redundant += 1
        informative_old = rng.normal(size=(5, 2))
        report = utility(spec, np.zeros((5, 2)), informative_old)
        if report.classification == "degrading":
            degrading += 1
    assert redundant == trials
    assert degrading == trials

    direction = rng.normal(size=2)
    collinear = np.outer(rng.normal(size=25), direction)
    for alpha1 in (1e-15, 1e-9, 1e-3, 1.0, 1e3):
        assert not check_pe(spec, collinear, alpha1).satisfied
    announce(7, "monitor classifications", f"{trials}/{trials} on both injections")


# ---------------------------------------------------------------------- 8


def test_criterion_08_discounted_information_stays_in_rayleigh_band():
    rng = np.random.default_rng(808)
    spec = DictionarySpec(state_dim=3, poly_degree=1, include_bias=False)
    variances = np.array([0.1, 0.2])
    xi = 0.95
    window = 20
    coef = np.array([[1.0, 0.5], [0.0, -1.0], [2.0, 0.0]])
    samples = make_samples(rng, spec, coef, noise_std=0.3, n=420)
    cfg = RecursionConfig(
        window=window, batch_in=1, forget=0, forgetting_factor=xi,
        theta_mode="fixed", policy="warn",
    )
    state = rec.init(spec, cfg, samples[:window], NoiseModel(variances))
    burn_in = 200
    eigs_seen = []
    for i, k in enumerate(range(window, 420)):
        out = rec.step(state, [samples[k]])
        assert out.accepted
        assert rec.step_record(state, out)["prior_floor"]  # the prior floors the posterior
        if i >= burn_in:
            for block in state.s_blocks:
                eigs_seen.append(np.linalg.eigvalsh(block))
    eigs_seen = np.concatenate(eigs_seen)

    states = np.array([s.state for s in samples])
    alpha_lo = np.inf
    alpha_hi = 0.0
    for start in range(0, 420 - window + 1):
        pe = check_pe(spec, states[start : start + window], alpha1=1e-12)
        alpha_lo = min(alpha_lo, pe.min_avg_eig)
        alpha_hi = max(alpha_hi, pe.max_avg_eig)

    prec = 1.0 / variances
    lower = prec.min() * alpha_lo / (1.0 - xi) * 0.9
    upper = prec.max() * alpha_hi / (1.0 - xi) * 1.1
    assert eigs_seen.min() >= lower, f"{eigs_seen.min():.2f} < band floor {lower:.2f}"
    assert eigs_seen.max() <= upper, f"{eigs_seen.max():.2f} > band cap {upper:.2f}"
    announce(
        8, "forgetting eigenvalue band",
        f"eigs [{eigs_seen.min():.1f}, {eigs_seen.max():.1f}] in "
        f"[{lower:.1f}, {upper:.1f}]",
    )


# ---------------------------------------------------------------------- 9


def test_criterion_09_fit_runs_are_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(
        ["--mode", "simulate", "--case", "case1", "--m", "8", "--n", "300",
         "--seed", "9", "--output", str(sim)]
    ) == 0
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({"include_bias": False, "noise_variances": 0.1}))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            ["--mode", "fit", "--input", str(sim / "data.csv"), "--output", str(out),
             "--config", str(cfg_path), "--window", "100", "--batch-in", "10",
             "--forget", "10", "--degree", "1"]
        )
        assert code == 0
        blobs.append((out / "steps.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) > 0
    announce(9, "byte-identical reruns", f"{len(blobs[0])} bytes per run")
