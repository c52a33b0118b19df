"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single pass line (visible with pytest -s / on failure);
the -v test names double as the criterion checklist.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from lapeig import graph as G
from lapeig import harness as H
from lapeig import interp as I
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig import singular as SG
from lapeig import spectral as S
from lapeig.errors import FExceedsOne, GapViolation

IND = K.indicator_kernel()
MASTER_SEED = 20240501


def _report(name, detail):
    print(f"criterion {name}: PASS ({detail})")


def test_criterion_01_exact_algebra():
    t0 = time.time()
    clique = G.build_graph(M.ambient_cloud([[0, 0], [0.1, 0], [0, 0.1]]), IND, 0.5)
    assert np.allclose(S.unnormalized_spectrum(clique, 2).values, [0, 3, 3], atol=1e-9)
    path = G.build_graph(M.ambient_cloud([[0.0], [0.5], [1.0]]), IND, 0.6)
    assert np.allclose(S.unnormalized_spectrum(path, 2).values, [0, 1, 3], atol=1e-9)
    norm_vals = S.normalized_spectrum(path, 2, IND, 1).values
    assert np.allclose(norm_vals, [0.0, 0.5, 7.0 / 6.0], atol=1e-9)
    dense = sla.eigh(path.laplacian().toarray(), np.diag(path.degrees),
                     eigvals_only=True)
    assert np.allclose(norm_vals, dense, atol=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("01 exact algebra", f"t={elapsed:.2f}s")


def test_criterion_02_constants():
    t0 = time.time()
    assert K.sigma_eta(IND, 1) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert K.sigma_tilde_eta(IND, 1) == pytest.approx(2.0, abs=1e-10)
    assert IND.psi(0.0) == pytest.approx(0.5, abs=1e-10)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("02 constants", f"t={elapsed:.2f}s")


def test_criterion_03_eigenvalue_convergence():
    t0 = time.time()
    config = H.ExperimentConfig(n_grid=(512, 1024, 2048, 4096), trials=20, k_max=4,
                                master_seed=MASTER_SEED)
    report = H.run_convergence(config)
    assert not report.failures
    medians = report.medians()
    assert medians[4096][0] <= 0.2
    seq = [medians[n][0] for n in config.n_grid]
    assert all(a >= b for a, b in zip(seq, seq[1:]))
    fit = H.fit_rate(report)
    assert fit.slope < 0.0
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    _report("03 eigenvalue convergence",
            f"median@4096={medians[4096][0]:.3f}, slope={fit.slope:.2f}, "
            f"t={elapsed:.0f}s")


def test_criterion_04_normalized_convergence():
    config = H.ExperimentConfig(mode="normalized", n_grid=(4096,), trials=20,
                                k_max=4, master_seed=MASTER_SEED)
    report = H.run_convergence(config)
    assert not report.failures
    assert np.allclose(report.targets, [0, 1, 1, 4, 4])
    median = report.medians()[4096][0]
    assert median <= 0.2
    _report("04 normalized convergence", f"median@4096={median:.3f}")


def test_criterion_05_square_boundary():
    config = H.ExperimentConfig(manifold="square", n_grid=(4096,), trials=20,
                                k_max=2, master_seed=MASTER_SEED)
    report = H.run_convergence(config)
    assert not report.failures
    target = 0.25 * (math.pi / 2.0) ** 2
    assert report.targets[1] == pytest.approx(target, rel=1e-12)
    meds = {k: float(np.median([r.rel_error for r in report.rows if r.k == k]))
            for k in (1, 2)}
    assert meds[1] <= 0.25
    assert meds[2] <= 0.25
    _report("05 square boundary", f"medians={meds[1]:.3f},{meds[2]:.3f}")


def test_criterion_06_nonconstant_density():
    config = H.ExperimentConfig(density="cos:0.5", n_grid=(4096,), trials=20,
                                k_max=2, master_seed=MASTER_SEED)
    report = H.run_convergence(config)
    assert not report.failures
    meds = {k: float(np.median([r.rel_error for r in report.rows if r.k == k]))
            for k in (1, 2)}
    assert meds[1] <= 0.25
    assert meds[2] <= 0.25
    _report("06 non-constant density", f"medians={meds[1]:.3f},{meds[2]:.3f}")


def test_criterion_07_eigenvector_alignment():
    config = H.ExperimentConfig(n_grid=(4096,), trials=20, k_max=4,
                                master_seed=MASTER_SEED)
    summary = H.run_eigvec_alignment(config, 1, 2)
    frac = summary.fraction_below(0.1)
    assert frac >= 0.8
    mass_ok = np.mean([t.mass_discrepancy <= 0.05 for t in summary.trials])
    assert mass_ok >= 0.8
    _report("07 eigenvector alignment",
            f"frac(resid<=0.1)={frac:.2f}, frac(mass<=5%)={mass_ok:.2f}")


def test_criterion_08_interpolation():
    cloud = M.sample_iid(M.UnitCircle(), 2048, H.splitmix64(MASTER_SEED, 8))
    eps = G.epsilon_schedule(2048, 1)
    ctx = I.InterpolationContext(cloud=cloud, kernel=IND, eps=eps)
    queries = np.random.default_rng(MASTER_SEED).uniform(0.0, 2.0 * math.pi, 100)
    ones = I.lambda_eps(ctx, np.ones(2048), queries)
    assert np.all(ones == 1.0)
    u = I.restrict(np.sin, cloud)
    vals = I.lambda_eps(ctx, u, queries)
    worst = float(np.max(np.abs(vals - np.sin(queries))))
    assert worst <= eps + 1e-12  # Lip(sin) = 1
    _report("08 interpolation", f"max defect={worst:.4f} <= eps={eps:.4f}")


def test_criterion_09_form_comparison_suite(monkeypatch):
    monkeypatch.setattr(S, "GRID_DENSITY", 128)
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)

    def rand_spd(n, ridge=1.0):
        a = rng.standard_normal((n, n))
        return a @ a.T / n + ridge * np.eye(n)

    def rand_psd(n):
        a = rng.standard_normal((n, n))
        return a @ a.T / n

    level_sequence = np.array([0.5, 1.5, 3.0, 5.0, 7.5, 10.0, 13.0, 16.0])
    violations = 0
    block_checks = 0
    attempts = 0
    while block_checks < 100 and attempts < 400:
        attempts += 1
        n = int(rng.integers(4, 9))

        # projection-clamp bound on a random restricted form
        inner = rand_spd(n)
        form = rand_psd(n)
        vals, _ = S.form_eigensystem(form, inner)
        lam = float(rng.uniform(0.1, 3.0))
        clamped = S.clamped_form(form, inner, lam, lam + float(rng.uniform(0, 2)))
        ldim = int(rng.integers(1, n + 1))
        basis = rng.standard_normal((n, ldim))
        sub = sla.eigh(basis.T @ clamped @ basis, basis.T @ inner @ basis,
                       eigvals_only=True)
        if any(sub[j] < min(lam, vals[j]) - 1e-8 for j in range(ldim)):
            violations += 1

        # minimax transfer bound with gridded supremum plus slack
        k = int(rng.integers(1, 4))
        chk = S.eigenvalue_comparison_check(
            rand_psd(n), rand_spd(n), rand_psd(n), rand_spd(n),
            rng.standard_normal((n, n)), k)
        if not chk.passed:
            violations += 1

        # block-projection conclusion on a perturbed pair
        base = np.diag(level_sequence[:n])
        q = sla.qr(rng.standard_normal((n, n)))[0]
        d1 = q @ base @ q.T
        d2 = d1 + 0.01 * rand_psd(n)
        inner2 = np.eye(n) + 0.005 * rand_psd(n)
        q1 = np.eye(n) + 0.005 * rng.standard_normal((n, n))
        try:
            rep = S.eigenvector_comparison(d1, np.eye(n), d2, inner2, q1,
                                           np.linalg.inv(q1))
        except (GapViolation, FExceedsOne):
            continue
        block_checks += 1
        if not rep.conclusion_ok:
            violations += 1

    elapsed = time.time() - t0
    assert block_checks >= 100
    assert violations == 0
    assert elapsed < 120.0
    _report("09 form comparison suite",
            f"{block_checks} block checks, 0 violations, t={elapsed:.0f}s")


def test_criterion_10_corner_sensitivity():
    t0 = time.time()
    config = SG.SensitivityConfig(alpha=0.0, m2_radius=1.0,
                                  eps_grid=(0.2, 0.1, 0.05, 0.025),
                                  quad_resolution=256)
    rows = H.corner_l1_sweep(config)
    limit = rows[0].limit_rhs
    l1 = [row.l1_deviation for row in rows]
    assert l1[-1] >= 0.5 * l1[0]  # no decay toward zero
    for row in rows[-2:]:
        assert abs(row.l1_deviation - limit) <= 0.2 * limit
    midpoints = H.face_midpoint_deviations(config)
    for (_, a), (_, b) in zip(midpoints, midpoints[1:]):
        assert a >= 2.0 * b
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _report("10 corner sensitivity",
            f"L1@0.025={l1[-1]:.2f} vs limit={limit:.2f}, t={elapsed:.0f}s")


def test_criterion_11_dyadic_suite():
    theta = SG.geometric_theta(0.5)
    prof = SG.dyadic_profile(theta, 12)
    assert np.array_equal(SG.level_alpha(prof, 1), [0.0, 1.0, 0.0])
    x = prof.grid()
    for n in range(2, 12):
        # contraction identity of the interpolants
        fn1 = SG.profile_function(prof, x, level=n + 1)
        fn = SG.profile_function(prof, x, level=n)
        fn0 = SG.profile_function(prof, x, level=n - 1)
        lhs = np.max(np.abs(fn1 - fn))
        rhs = 0.5 ** (n + 1) / 2.0 * np.max(np.abs(fn - fn0))
        assert abs(lhs - rhs) <= 1e-12
    for n in range(2, 13):
        th = 0.5 ** n
        d = SG.dyadic_slopes(prof, level=n)
        prev = SG.dyadic_slopes(prof, level=n - 1)
        half = 2 ** (n - 1)
        k = np.arange(2 ** (n - 2))
        # slope and jump recursions hold as array identities
        assert np.max(np.abs(d.slopes[4 * k] - (th / 2 * prev.slopes[2 * k + 1]
                                                + (1 - th / 2) * prev.slopes[2 * k]))) <= 1e-12
        assert np.max(np.abs(d.jumps[4 * k + 2]
                             - (1 + th) * prev.jumps[(2 * k + 1) % half])) <= 1e-12
        assert d.total_jump <= (1 + 4 * th) * prev.total_jump + 1e-12
        assert np.max(np.abs(d.slopes)) <= 2.0 * math.exp(prof.theta_sum) + 1e-12
    exact = SG.dyadic_profile_exact(lambda l: Fraction(1, 2 ** l), 12)
    for level in range(1, 13):
        _, jumps = SG.dyadic_slopes_exact(exact[::2 ** (12 - level)])
        assert all(j != 0 for j in jumps)
    zero = SG.DyadicProfile(level=5, alpha=np.zeros(33), theta_values=np.array([]),
                            theta_sum=0.0)
    assert SG.curve_speed_constant(zero).value == 1.0
    _report("11 dyadic suite", "identities exact to 1e-12, jumps nonzero")


def test_criterion_12_determinism():
    config = H.ExperimentConfig(n_grid=(256, 512), trials=2, k_max=2,
                                master_seed=MASTER_SEED)
    first = H.report_csv_text(H.run_convergence(config))
    second = H.report_csv_text(H.run_convergence(config))
    assert first.encode() == second.encode()
    _report("12 determinism", f"{len(first.splitlines()) - 1} rows byte-identical")


def test_criterion_13_singular_surface():
    # eps = auto:1.5: the unit-constant schedule ignores this surface's volume
    # (58.3) and leaves most graphs disconnected at n = 2048
    config = H.ExperimentConfig(manifold="singular", n_grid=(2048, 8192), trials=3,
                                k_max=8, eps_rule="auto:1.5", master_seed=MASTER_SEED)
    report = H.run_convergence(config)
    assert not report.failures
    # flat torus of sides L = 9.27879 and 2 pi: (2 pi / L)^2 twice, then 1 twice
    volume = 9.27879 * 2.0 * math.pi
    np.testing.assert_allclose(report.targets[1:5] * volume,
                               [0.45854, 0.45854, 1.0, 1.0], rtol=1e-5)
    medians = {n: report.medians()[n][0] for n in config.n_grid}
    eps = {n: G.eps_from_rule(config.eps_rule, n, 2) for n in config.n_grid}
    assert medians[8192] <= 0.15
    assert medians[8192] <= medians[2048]
    assert medians[8192] / eps[8192] <= medians[2048] / eps[2048]
    _report("13 singular surface",
            f"median@8192={medians[8192]:.3f}, median/eps={medians[8192] / eps[8192]:.2f}")
