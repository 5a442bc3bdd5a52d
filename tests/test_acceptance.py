"""Release acceptance checklist: eleven end-to-end criteria with stated budgets.

Each test prints one ``[criterion N] PASS/FAIL`` summary line with its
measured numbers before asserting, so a red criterion still reports how far
off it landed.  Run ``pytest tests/test_acceptance.py -v -s`` to see the
lines for passing criteria too.
"""

import time

import numpy as np

from lqmatern.asymptotics import sandwich, std_errs
from lqmatern.estimate import FitChain, fit
from lqmatern.gauss_lik import ReplicateSet, chol_factor
from lqmatern.matern import LocationSet, MaternParams, build_cov, matern_cov
from lqmatern.qselect import (QGridSpec, default_kappa_spec, kappa,
                              select_q_kappa, select_q_sqv)
from lqmatern.simulate import (ContaminationSpec, SimConfig, gen_replicates,
                               make_locations, simulate_dataset)
from lqmatern.variogram import variogram_by_replicate
from oracles import (build_cov_grad, log_likelihood, loglik_columns,
                     lq_of_loglik, matern_grad, matern_hess, total_lq, ustar,
                     vstar)

THETA0 = MaternParams(1.0, 0.1, 0.5)    # kappa(THETA0) = 10
KAPPA0 = 10.0
N_SEEDS = 20


def report(num, ok, detail, t0):
    print("\n[criterion %d] %s: %s (%.1fs)"
          % (num, "PASS" if ok else "FAIL", detail, time.perf_counter() - t0))


def mean_se(samples):
    """Mean over axis 0 and its standard error from the spread of the rows."""
    a = np.asarray(samples, dtype=float)
    return a.mean(axis=0), a.std(axis=0, ddof=1) / np.sqrt(a.shape[0])


def rand_theta(rng, nu_hi=2.0):
    return MaternParams(rng.uniform(0.3, 3.0), rng.uniform(0.05, 1.0),
                        rng.uniform(0.1, nu_hi))


def test_criterion_01_kernel_derivatives():
    # analytic gradient/Hessian of the kernel against central differences;
    # any entry touching nu is held to a looser tolerance, which covers the
    # truncation error of the Hessian differences' longer nu step
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sb, worst_nu = 0.0, 0.0
    for _ in range(200):
        th = rand_theta(rng)
        h = rng.uniform(0.05, 1.5)
        t = th.as_array()
        g = matern_grad(h, th)
        for j, s_rel in enumerate((1e-6, 1e-6, 1e-5)):
            s = s_rel * t[j]
            tp, tm = t.copy(), t.copy()
            tp[j] += s
            tm[j] -= s
            fd = (matern_cov(h, MaternParams(*tp))
                  - matern_cov(h, MaternParams(*tm))) / (2 * s)
            rel = abs(g[j] - fd) / max(abs(fd), 1e-8 * th.sigma2)
            if j < 2:
                worst_sb = max(worst_sb, rel)
            else:
                worst_nu = max(worst_nu, rel)
        hh = matern_hess(h, th)
        for k in range(3):
            s = 1e-6 * t[k] if k < 2 else 1e-3 * max(1.0, t[k])
            tp, tm = t.copy(), t.copy()
            tp[k] += s
            tm[k] -= s
            fd = (matern_grad(h, MaternParams(*tp))
                  - matern_grad(h, MaternParams(*tm))) / (2 * s)
            rel = np.abs(hh[:, k] - fd) / np.maximum(np.abs(fd),
                                                     1e-6 * th.sigma2)
            for j in range(3):
                if j < 2 and k < 2:
                    worst_sb = max(worst_sb, rel[j])
                else:
                    worst_nu = max(worst_nu, rel[j])
    ok = worst_sb < 1e-6 and worst_nu < 1e-4
    report(1, ok, "200 points, worst rel err %.2e (sigma2/beta, allow 1e-6), "
           "%.2e (nu entries, allow 1e-4)" % (worst_sb, worst_nu), t0)
    assert worst_sb < 1e-6
    assert worst_nu < 1e-4
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_likelihood_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        while True:
            c = rng.uniform(0.0, 1.0, size=(n, 2))
            d = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(-1))
            if d[~np.eye(n, dtype=bool)].min() > 0.05:
                break
        locs = LocationSet(c)
        th = rand_theta(rng)
        cov = build_cov(locs, th)
        z = gen_replicates(locs, th, 1,
                           seed=int(rng.integers(1e6))).data[:, 0]
        got = log_likelihood(z, chol_factor(cov))
        quad = z @ np.linalg.inv(cov) @ z
        _sign, logdet = np.linalg.slogdet(cov)
        want = -0.5 * n * np.log(2 * np.pi) - 0.5 * quad - 0.5 * logdet
        worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    report(2, ok, "50 instances n <= 8, worst |chol - dense| = %.2e "
           "(allow 1e-10)" % worst, t0)
    assert worst < 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_lq_limit():
    t0 = time.perf_counter()
    cfg = SimConfig(THETA0, n=100, m=100, layout="grid", seed=0)
    locs, reps, _ = simulate_dataset(cfg)
    ls = loglik_columns(reps.data, chol_factor(build_cov(locs, cfg.theta)))
    q_near = 1.0 - 1e-8
    worst = max(abs(lq_of_loglik(l, q_near) - l)
                / (1.0 + abs(l)) for l in ls)
    prof = FitChain(reps, locs).profile((1.0, 0.9999))
    a = prof[0].theta_hat.as_array()
    b = prof[1].theta_hat.as_array()
    rel = np.abs(b - a) / np.abs(a)
    ok = worst < 1e-6 and rel.max() < 0.01
    report(3, ok, "L_q at q = 1 - 1e-8 within %.2e of l (allow 1e-6); "
           "theta-hat(0.9999) vs theta-hat(1) max rel %.2e (allow 1e-2)"
           % (worst, rel.max()), t0)
    assert worst < 1e-6
    assert rel.max() < 0.01
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_scaling_invariance():
    # The fit searches the log-domain value logsumexp((1-q) l) / (1-q) and
    # reports a scaled surrogate of it; both are increasing transforms of
    # the exact Lq sum, so theta-hat must maximize total_lq itself: its
    # Hessian there is negative definite, and one Newton step on total_lq
    # in log theta, with central differences (step 1e-5 for the gradient,
    # 1e-3 for the Hessian), measures the relative distance to the maximum.
    t0 = time.perf_counter()
    cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=16, m=30, layout="grid",
                    seed=0)
    locs, reps, _ = simulate_dataset(cfg)
    q = 0.9
    res = fit(reps, locs, q)
    x0 = np.log(res.theta_hat.as_array())

    def exact(x):
        return total_lq(reps, locs, MaternParams(*np.exp(x)), q)

    e_g, e_h = 1e-5 * np.eye(3), 1e-3 * np.eye(3)
    grad = np.array([(exact(x0 + e_g[j]) - exact(x0 - e_g[j])) / 2e-5
                     for j in range(3)])
    hess = np.array([[(exact(x0 + e_h[j] + e_h[k]) - exact(x0 + e_h[j] - e_h[k])
                       - exact(x0 - e_h[j] + e_h[k])
                       + exact(x0 - e_h[j] - e_h[k])) / 4e-6
                      for k in range(3)] for j in range(3)])
    top_eig = float(np.linalg.eigvalsh(hess).max())
    rel = float(np.abs(np.linalg.solve(hess, -grad)).max()) if top_eig < 0.0 \
        else float("inf")
    ok = rel < 1e-6
    report(4, ok, "Newton step on the exact Lq sum from theta-hat, max rel "
           "%.2e (allow 1e-6); largest Hessian eigenvalue %.3g (need < 0)"
           % (rel, top_eig), t0)
    assert top_eig < 0.0
    assert rel < 1e-6
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_clean_data_recovery():
    # Under the model the fixed-q estimator targets theta_q = (q sigma2, beta,
    # nu): f^(1-q) f_theta0 is again Gaussian, so the population Lq equation
    # is solved there, and the target's kappa is q kappa0.  That shrinkage
    # trades bias for variance (Ferrari & Yang 2010): were kappa-hat(q)
    # exactly q kappa-hat(1), MSE(q) < MSE(1) would hold once
    # Var kappa-hat(1) > (1-q) kappa0^2 / (1+q), which is 0.50, 2.56 and 5.26
    # on this grid against a measured 5.6 (seeds 0-19) to 8.3 (seeds 0-99),
    # so a raw MSE ranking that q = 1 must win is not promised at
    # n = m = 100.
    # The clauses check the target itself and the efficiency of q = 1
    # against the bias-corrected kappa-hat(q)/q, both paired across seeds
    # with 3-se bands; the raw MSEs are printed for information.
    t0 = time.perf_counter()
    grid = (1.0, 0.99, 0.95, 0.9)
    thetas = {q: [] for q in grid}
    for seed in range(N_SEEDS):
        cfg = SimConfig(THETA0, n=100, m=100, layout="grid", seed=seed)
        locs, reps, _ = simulate_dataset(cfg)
        for f in FitChain(reps, locs).profile(grid):
            thetas[f.q].append(f.theta_hat)
    kap = {q: np.array([kappa(th) for th in thetas[q]]) for q in grid}
    est = {q: np.array([th.as_array() for th in thetas[q]]) for q in grid}
    mse = {q: float(np.mean((kap[q] - KAPPA0) ** 2)) for q in grid}
    med = float(np.median(kap[1.0]))

    target_z, paired_z = {}, {}
    for q in grid[1:]:
        mean, se = mean_se(est[q] / est[1.0])
        target_z[q] = np.abs(mean - np.array([q, 1.0, 1.0])) / se
        mean, se = mean_se((kap[1.0] - KAPPA0) ** 2
                           - (kap[q] / q - KAPPA0) ** 2)
        paired_z[q] = float(mean / se)
    worst_target = max(float(z.max()) for z in target_z.values())
    worst_paired = max(paired_z.values())
    ok = (abs(med - KAPPA0) <= 0.1 * KAPPA0 and worst_target <= 3.0
          and worst_paired <= 3.0)
    report(5, ok, "median kappa-hat at q = 1: %.3f (allow within 10%% of "
           "10); mean theta-hat(q)/theta-hat(1) off (q, 1, 1) by %s se "
           "(allow 3); MSE(1) - MSE of kappa-hat(q)/q at %s se (allow 3); "
           "raw kappa-hat MSE by q: %s"
           % (med, {q: [round(float(v), 2) for v in z]
                    for q, z in target_z.items()},
              {q: round(z, 2) for q, z in paired_z.items()},
              {q: round(v, 3) for q, v in mse.items()}), t0)
    assert abs(med - KAPPA0) <= 0.1 * KAPPA0
    for q in grid[1:]:
        assert target_z[q].max() <= 3.0, \
            "theta-hat(%s)/theta-hat(1) misses (q, 1, 1) by %s se" \
            % (q, target_z[q])
        assert paired_z[q] <= 3.0, \
            "kappa-hat(%s)/%s beats q = 1 by %.2f paired se" \
            % (q, q, paired_z[q])
    assert time.perf_counter() - t0 < 900.0


def test_criterion_06_contamination_robustness():
    t0 = time.perf_counter()
    err1, err99 = [], []
    for seed in range(N_SEEDS):
        cfg = SimConfig(THETA0, n=100, m=100, layout="grid", seed=seed,
                        contamination=ContaminationSpec(r=0.1, noise_sd=1.0))
        locs, reps, _ = simulate_dataset(cfg)
        prof = FitChain(reps, locs).profile((1.0, 0.99))
        err1.append(abs(kappa(prof[0].theta_hat) - KAPPA0))
        err99.append(abs(kappa(prof[1].theta_hat) - KAPPA0))
    med1, med99 = float(np.median(err1)), float(np.median(err99))
    wins = int(np.sum(np.asarray(err99) < np.asarray(err1)))
    ok = med1 > med99 and wins >= int(0.7 * N_SEEDS)
    report(6, ok, "median |kappa-hat - 10|: MLE %.3f vs q = 0.99 %.3f; "
           "q = 0.99 wins %d/%d seeds (need >= 14)"
           % (med1, med99, wins, N_SEEDS), t0)
    assert med1 > med99
    assert wins >= int(0.7 * N_SEEDS)
    assert time.perf_counter() - t0 < 1200.0


def test_criterion_07_q_selection():
    # The contaminated clause fails (2/20 against 10) through the selector's
    # rule, which criterion 9 pins, not through the fits.  On DEFAULT_GRID
    # the pass-0 series |kappa_{k-1}/kappa_k - 1| scales with the grid step
    # (0.001 at the start, 0.025 at the end), so a kappa path that drifts
    # steadily with q is never accepted.  Clean paths drift (the target is
    # q kappa0, and one dataset's path moves further with the noise in
    # beta-hat and nu-hat); contaminated paths rise as q falls, some turning
    # over near q = 0.97-0.95, and none plateaus.  The pivot k* lands on
    # the last interval (20/20 clean seeds, 17/20 contaminated), the refined
    # grid linspace(0.9, 0.9, 8) has zero span, and the walk returns
    # span-exhausted with q* = 1; the clean clause passes through that
    # fallback.  Dividing the series by the step gave q* <= 0.99 on 6/20
    # contaminated seeds, and an equally spaced first grid on 7/20.  Which
    # rule and grid the paper uses is not settled by the material in the
    # repository, so the selector and the clause stand.
    t0 = time.perf_counter()
    clean_hits, contam_hits = 0, 0
    contam_vals = []
    tags = {"stabilized": "S", "span-exhausted": "E", "fallback-to-one": "F"}
    clean_walks, contam_walks = [], []

    def walk(sel):
        k_star = sel.trace[0].k_star
        return "%s%s" % ("-" if k_star is None else k_star, tags[sel.reason])

    for seed in range(N_SEEDS):
        cfg = SimConfig(THETA0, n=100, m=100, layout="grid", seed=seed)
        locs, reps, _ = simulate_dataset(cfg)
        sel = select_q_kappa(FitChain(reps, locs), default_kappa_spec())
        clean_hits += sel.q_star >= 0.99
        clean_walks.append(walk(sel))

        cfgx = SimConfig(THETA0, n=100, m=100, layout="grid", seed=seed,
                         contamination=ContaminationSpec(r=0.1, noise_sd=1.0))
        locsx, repsx, _ = simulate_dataset(cfgx)
        selx = select_q_kappa(FitChain(repsx, locsx), default_kappa_spec())
        contam_hits += selx.q_star <= 0.99
        contam_vals.append(round(selx.q_star, 4))
        contam_walks.append(walk(selx))
    ok = clean_hits >= 12 and contam_hits >= 10
    report(7, ok, "clean q* >= 0.99 in %d/%d (need >= 12); contaminated "
           "q* <= 0.99 in %d/%d (need >= 10); contaminated picks %s; "
           "pass-0 k* and reason by seed 0-%d (S stabilized, "
           "E span-exhausted, F fallback-to-one): clean %s, contaminated %s"
           % (clean_hits, N_SEEDS, contam_hits, N_SEEDS,
              sorted(set(contam_vals)), N_SEEDS - 1, " ".join(clean_walks),
              " ".join(contam_walks)), t0)
    assert clean_hits >= 12
    assert contam_hits >= 10, \
        "selector chose q <= 0.99 on only %d/%d contaminated seeds" \
        % (contam_hits, N_SEEDS)
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_08_sandwich_machinery():
    # At q = 1 and the true theta, K -> I and J -> -I, the exact Fisher
    # information I_jk = 1/2 tr(Sigma^-1 dS_j Sigma^-1 dS_k), computed here
    # with a dense inverse (cond(I) = 20 at n = 9).  -J^-1 K -> identity in
    # the same limit, but J^-1 amplifies the sampling noise of the Hessian
    # average: other 5000-replicate blocks of the same draws read 0.04-0.12
    # off identity, so that deviation is printed, not asserted.  K - I,
    # J + I and K + J are each held to 4 standard errors entrywise, with the
    # errors from batch means over 50 blocks of 100 replicates.
    t0 = time.perf_counter()
    locs_fd = make_locations(9, "uniform", seed=1)
    rng = np.random.default_rng(108)

    def rand_theta_fd():
        return MaternParams(rng.uniform(0.5, 2.0), rng.uniform(0.15, 0.5),
                            rng.uniform(0.2, 1.6))

    def lq_contrib(z, theta, q):
        l = log_likelihood(z, chol_factor(build_cov(locs_fd, theta)))
        return lq_of_loglik(l, q)

    def fd_steps(theta):
        t = theta.as_array()
        # nu takes a longer step; the tolerances below cover its
        # truncation error
        return np.array([1e-6 * t[0], 1e-6 * t[1], 1e-3 * max(1.0, t[2])])

    worst_u = 0.0
    for q in (1.0, 0.95, 0.8):
        for _ in range(8):
            theta = rand_theta_fd()
            z = gen_replicates(locs_fd, theta, 1,
                               seed=int(rng.integers(1e6))).data[:, 0]
            got = ustar(z, locs_fd, theta, q)
            t = theta.as_array()
            steps = fd_steps(theta)
            want = np.empty(3)
            for r in range(3):
                tp, tm = t.copy(), t.copy()
                tp[r] += steps[r]
                tm[r] -= steps[r]
                want[r] = (lq_contrib(z, MaternParams(*tp), q)
                           - lq_contrib(z, MaternParams(*tm), q)) \
                    / (2 * steps[r])
            worst_u = max(worst_u, np.abs(got - want).max()
                          / max(np.abs(want).max(), 1.0))

    worst_v = 0.0
    for q in (1.0, 0.9):
        for _ in range(5):
            theta = rand_theta_fd()
            t = theta.as_array()
            z = gen_replicates(locs_fd, theta, 1,
                               seed=int(rng.integers(1e6))).data[:, 0]
            got = vstar(z, locs_fd, theta, q)
            steps = fd_steps(theta)
            want = np.empty((3, 3))
            for r in range(3):
                tp, tm = t.copy(), t.copy()
                tp[r] += steps[r]
                tm[r] -= steps[r]
                want[:, r] = (ustar(z, locs_fd, MaternParams(*tp), q)
                              - ustar(z, locs_fd,
                                      MaternParams(*tm), q)) \
                    / (2 * steps[r])
            worst_v = max(worst_v, np.abs(got - want).max()
                          / max(np.abs(want).max(), 1.0))

    locs9 = make_locations(9, "uniform", seed=3)
    theta0 = MaternParams(1.0, 0.25, 0.3)
    z = gen_replicates(locs9, theta0, 20000, seed=0)
    U = sandwich(z, locs9, theta0, 1.0).U      # the score: e^s = 1 at q = 1
    mean = U.mean(axis=1)
    se = U.std(axis=1, ddof=1) / np.sqrt(U.shape[1])
    mc_sigmas = float(np.max(np.abs(mean) / se))

    data = z.data[:, :5000]
    parts = sandwich(ReplicateSet(data), locs9, theta0, 1.0)
    dev = float(np.abs(-np.linalg.solve(parts.J, parts.K)
                       - np.eye(3)).max())

    S_inv = np.linalg.inv(build_cov(locs9, theta0))
    B = np.einsum("ab,jbc->jac", S_inv, build_cov_grad(locs9, theta0))
    fisher = 0.5 * np.einsum("jab,kba->jk", B, B)
    blocks = [sandwich(ReplicateSet(data[:, i:i + 100]), locs9, theta0, 1.0)
              for i in range(0, 5000, 100)]
    K_b = np.array([b.K for b in blocks])
    J_b = np.array([b.J for b in blocks])
    # equal-size blocks: their mean is the full-sample K and J
    batches_ok = (np.allclose(K_b.mean(axis=0), parts.K, rtol=1e-12, atol=0)
                  and np.allclose(J_b.mean(axis=0), parts.J, rtol=1e-12,
                                  atol=0))
    z_K = float(np.max(np.abs(parts.K - fisher) / mean_se(K_b)[1]))
    z_J = float(np.max(np.abs(parts.J + fisher) / mean_se(J_b)[1]))
    z_KJ = float(np.max(np.abs(parts.K + parts.J) / mean_se(K_b + J_b)[1]))

    ok = (worst_u < 1e-5 and worst_v < 1e-4 and mc_sigmas <= 3.0
          and batches_ok and max(z_K, z_J, z_KJ) <= 4.0)
    report(8, ok, "ustar FD rel %.2e (allow 1e-5); vstar FD rel %.2e "
           "(allow 1e-4); score MC mean max %.2f se (allow 3); at n = 9, "
           "m = 5000 against the exact Fisher information: K - I %.2f se, "
           "J + I %.2f se, K + J %.2f se (allow 4); -J^-1 K off identity by "
           "%.3f (not asserted)"
           % (worst_u, worst_v, mc_sigmas, z_K, z_J, z_KJ, dev), t0)
    assert worst_u < 1e-5
    assert worst_v < 1e-4
    assert mc_sigmas <= 3.0
    assert batches_ok, "block means do not reproduce the full K and J"
    assert z_K <= 4.0, "K misses the Fisher information by %.2f se" % z_K
    assert z_J <= 4.0, "J misses minus the Fisher information by %.2f se" \
        % z_J
    assert z_KJ <= 4.0, "K + J misses zero by %.2f se" % z_KJ
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_selector_hand_traces():
    t0 = time.perf_counter()

    # SQV walk on (1, .97, .94, .91): series (0.045, 0.045, 0.1) against
    # L = 0.05, pivot lands on the last point, refined span collapses,
    # fall back to q* = 1
    sqv_table = {1.0: 1.0, 0.97: 1.135, 0.94: 1.27, 0.91: 1.57}
    res = select_q_sqv(
        lambda q: MaternParams(sqv_table[round(q, 6)], 1.0, 1.0),
        lambda th, q: np.ones(3),
        QGridSpec(grid=(1.0, 0.97, 0.94, 0.91)), m=1)
    sqv_ok = (res.q_star == 1.0 and res.reason == "span-exhausted"
              and len(res.trace) == 2
              and np.allclose(res.trace[0].series, (0.045, 0.045, 0.1))
              and res.trace[0].k_star == 3
              and np.allclose(res.trace[1].grid, 0.91))

    # ratio walk on (1, .99, .98, .97): dkappa (0.1, 0.1, 10) against
    # L = 4, same collapse to the fallback
    kap_table = {1.0: 13.31, 0.99: 12.1, 0.98: 11.0, 0.97: 1.0}
    resk = select_q_kappa(
        lambda q: MaternParams(kap_table[round(q, 6)], 1.0, 0.5),
        QGridSpec(grid=(1.0, 0.99, 0.98, 0.97), L=4.0))
    kap_ok = (resk.q_star == 1.0 and resk.reason == "span-exhausted"
              and len(resk.trace) == 2
              and np.allclose(resk.trace[0].series, (0.1, 0.1, 10.0))
              and resk.trace[0].k_star == 3
              and resk.trace[1].series == ())

    ok = sqv_ok and kap_ok
    report(9, ok, "SQV walk %s; ratio walk %s (stub fits)"
           % ("exact" if sqv_ok else "MISMATCH",
              "exact" if kap_ok else "MISMATCH"), t0)
    assert sqv_ok
    assert kap_ok
    assert time.perf_counter() - t0 < 1.0


def test_criterion_10_variogram_oracle():
    t0 = time.perf_counter()
    theta = MaternParams(1.0, 0.2, 0.5)
    locs = make_locations(100, "grid")
    reps = gen_replicates(locs, theta, 50, seed=11)
    curves = variogram_by_replicate(reps, locs, n_bins=10)
    filled = curves[0].counts > 0
    gbar = np.mean([c.gamma[filled] for c in curves], axis=0)
    h = curves[0].bin_centers[filled]
    # nu = 1/2 makes the true curve the exponential model
    want = theta.sigma2 * (1.0 - np.exp(-h / theta.beta))
    mad = float(np.abs(gbar - want).mean())
    ok = mad < 0.15 * theta.sigma2
    report(10, ok, "mean |empirical - exponential model| = %.4f over %d "
           "filled bins (allow 0.15)" % (mad, int(filled.sum())), t0)
    assert mad < 0.15 * theta.sigma2
    assert time.perf_counter() - t0 < 120.0


def test_criterion_11_se_calibration():
    # The sandwich se sqrt(diag(J^-1 K J^-1)) is per replicate, so sqrt(m)
    # times the spread of theta-hat across datasets is its target.  The
    # median se over the datasets must lie within 3 Monte Carlo standard
    # errors of sqrt(m) sd(theta-hat), the standard error of an sd from R
    # draws being sd / sqrt(2 (R - 1)): a band of about 21% at R = 100.
    # That band tells the sandwich apart from the diagonal of
    # J^-1/2 K^1/2 J^-1/2, which reads beta at 0.42 of the target here.
    t0 = time.perf_counter()
    n_data, m, qs = 100, 100, (1.0, 0.95)
    hats = {q: [] for q in qs}
    ses = {q: [] for q in qs}
    for seed in range(1000, 1000 + n_data):
        cfg = SimConfig(THETA0, n=100, m=m, layout="grid", seed=seed)
        locs, reps, _ = simulate_dataset(cfg)
        chain = FitChain(reps, locs)
        for q in qs:
            theta = chain(q)
            hats[q].append(theta.as_array())
            ses[q].append(std_errs(sandwich(reps, locs, theta, q)).se)
    z, ratio = {}, {}
    for q in qs:
        target = np.sqrt(m) * np.std(hats[q], axis=0, ddof=1)
        med = np.median(ses[q], axis=0)
        z[q] = (med - target) / (target / np.sqrt(2.0 * (n_data - 1)))
        ratio[q] = med / target
    worst = max(float(np.abs(v).max()) for v in z.values())
    ok = worst <= 3.0
    report(11, ok, "median se / (sqrt(m) sd of theta-hat) over %d datasets "
           "by q, (sigma2, beta, nu): %s; off by %s MC se (allow 3)"
           % (n_data, {q: [round(float(v), 3) for v in r]
                       for q, r in ratio.items()},
              {q: [round(float(v), 2) for v in r] for q, r in z.items()}), t0)
    for q in qs:
        assert np.abs(z[q]).max() <= 3.0, \
            "median se at q = %s misses sqrt(m) sd(theta-hat) by %s MC se" \
            % (q, z[q])
    assert time.perf_counter() - t0 < 120.0
