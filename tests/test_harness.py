import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lapeig import harness as H
from lapeig import manifolds as M
from lapeig import spectral as S
from lapeig.cli import main
from lapeig.errors import GapViolation, InsufficientGrid

SMALL = H.ExperimentConfig(n_grid=(128, 256), trials=2, k_max=2, master_seed=77)


def test_splitmix_no_collisions():
    seen = set()
    for n in range(64):
        for trial in range(2 ** 14):
            seen.add(H.splitmix64(123, n, trial))
    assert len(seen) == 64 * 2 ** 14


def test_splitmix_order_sensitivity():
    assert H.splitmix64(1, 2) != H.splitmix64(2, 1)


def test_run_convergence_shape():
    report = H.run_convergence(SMALL)
    assert len(report.rows) == 2 * 2 * 3
    assert not report.failures
    zero_rows = [r for r in report.rows if r.k == 0]
    assert all(abs(r.rescaled) < 1e-10 for r in zero_rows)
    assert all(r.target == 0.0 for r in zero_rows)


def test_normalized_targets():
    cfg = H.ExperimentConfig(mode="normalized", n_grid=(128,), trials=1, k_max=2,
                             master_seed=1)
    _, targets = H.target_spectrum(cfg)
    assert np.allclose(targets, [0.0, 1.0, 1.0])


def test_cosine_targets_from_oracle():
    cfg = H.ExperimentConfig(density="cos:0.5", n_grid=(128,), trials=1, k_max=2,
                             master_seed=1)
    _, targets = H.target_spectrum(cfg)
    oracle = M.oracle_spectrum_circle_weighted(M.cosine_density(0.5), 4096, 2)
    assert np.allclose(targets, oracle, atol=1e-12)


def test_fit_rate_exact_power_law():
    report = H.run_convergence(SMALL)
    # overwrite with a synthetic exact power law, then recover its slope
    synth = H.ConvergenceReport(config=H.ExperimentConfig(
        n_grid=(256, 512, 1024, 2048), trials=1, k_max=1, master_seed=0),
        targets=np.array([0.0, 1.0]))
    for n in synth.config.n_grid:
        err = 3.0 * n ** (-1.0 / 3.0)
        synth.rows.append(H.TrialRow(n=n, trial=0, k=1, eps=0.1, raw=0.0,
                                     rescaled=1.0 + err, target=1.0, rel_error=err))
    fit = H.fit_rate(synth)
    assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert fit.residual < 1e-12
    for row in list(synth.rows):
        synth.rows.append(H.TrialRow(n=row.n, trial=1, k=1, eps=0.1, raw=0.0,
                                     rescaled=1.5, target=1.0, rel_error=0.5))
    synth.rows = [r for r in synth.rows if r.trial == 1]
    flat = H.fit_rate(synth)
    assert flat.slope == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InsufficientGrid):
        H.fit_rate(report)


def test_csv_deterministic():
    a = H.report_csv_text(H.run_convergence(SMALL))
    b = H.report_csv_text(H.run_convergence(SMALL))
    assert a == b
    header = a.splitlines()[0]
    assert header == "n,trial,k,eps,raw,rescaled,target,rel_error"
    assert len(a.splitlines()) == 1 + 2 * 2 * 3


def test_csv_empty_report():
    empty = H.ConvergenceReport(config=SMALL, targets=np.zeros(3))
    text = H.report_csv_text(empty)
    assert text == "n,trial,k,eps,raw,rescaled,target,rel_error\n"


def test_json_roundtrip(tmp_path):
    report = H.run_convergence(SMALL)
    path = tmp_path / "report.json"
    assert main(["converge", "--n-grid", "128,256", "--trials", "2", "--k-max", "2",
                 "--seed", "77", "--format", "json", "--out", str(path)]) == 0
    with open(path) as fh:
        obj = json.load(fh)
    assert [H.TrialRow(**row) for row in obj["rows"]] == report.rows
    config = obj["metadata"]["config"]
    assert H.ExperimentConfig(**dict(config, n_grid=tuple(config["n_grid"]))) == report.config
    assert np.array_equal(obj["targets"], report.targets)
    assert obj["failures"] == [list(f) for f in report.failures]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_describe_names_the_package_not_the_working_directory(tmp_path, monkeypatch):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "init.defaultBranch=main"]
    subprocess.run(git + ["init", "-q", str(tmp_path)], check=True)
    subprocess.run(git + ["-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "x"],
                   check=True)
    head = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tmp_path,
                          capture_output=True, text=True, check=True).stdout.strip()
    monkeypatch.chdir(tmp_path)
    report = H.ConvergenceReport(config=SMALL, targets=np.zeros(3))
    assert H.report_json_obj(report)["metadata"]["git_describe"] != head


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_describe_skips_a_repository_that_does_not_track_the_package(tmp_path):
    # a vendored copy, untracked inside another repository, has no commit of its own
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "init.defaultBranch=main"]
    subprocess.run(git + ["init", "-q", str(tmp_path)], check=True)
    subprocess.run(git + ["-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "x"],
                   check=True)
    shutil.copytree(Path(H.__file__).parent, tmp_path / "vendor" / "lapeig",
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = "from lapeig import harness; print(harness._git_describe())"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(tmp_path / "vendor")})
    assert out.stdout.strip() == "unknown"


def test_config_refuses_nonpositive_threads():
    for bad in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            H.ExperimentConfig(threads=bad)


def test_threaded_run_matches_sequential():
    threaded = H.ExperimentConfig(n_grid=(128, 256), trials=2, k_max=2,
                                  master_seed=77, threads=4)
    assert (H.report_csv_text(H.run_convergence(threaded))
            == H.report_csv_text(H.run_convergence(SMALL)))


def test_mode_consistency_constant_density():
    # for constant rho the normalized target is 1/rho times the weighted one,
    # and the empirical medians track the same ratio
    base = dict(n_grid=(2048,), trials=3, k_max=2, master_seed=5)
    un = H.run_convergence(H.ExperimentConfig(mode="unnormalized", **base))
    no = H.run_convergence(H.ExperimentConfig(mode="normalized", **base))
    rho = 1.0 / (2.0 * math.pi)
    med_un = np.median([r.rescaled for r in un.rows if r.k == 1])
    med_no = np.median([r.rescaled for r in no.rows if r.k == 1])
    assert med_no / med_un == pytest.approx(1.0 / rho, rel=0.25)


def test_alignment_run():
    cfg = H.ExperimentConfig(n_grid=(1024,), trials=4, k_max=4, master_seed=3)
    summary = H.run_eigvec_alignment(cfg, 1, 2)
    assert summary.gap == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert len(summary.trials) == 4
    assert summary.fraction_below(0.1) >= 0.75
    for trial in summary.trials:
        assert trial.mass_discrepancy < 0.2


def test_alignment_constant_block():
    # the all-ones function lies exactly in the kernel eigenvector span
    cfg = H.ExperimentConfig(n_grid=(512,), trials=1, k_max=2, master_seed=9)
    model, _ = H.target_spectrum(cfg)
    from lapeig import graph as G
    from lapeig.kernels import indicator_kernel
    cloud = M.sample_iid(model, 512, 11)
    graph = G.build_graph(cloud, indicator_kernel(), G.epsilon_schedule(512, 1))
    spec = S.unnormalized_spectrum(graph, 2)
    rep = S.subspace_alignment(np.ones((512, 1)), spec.vectors[:, :1])
    assert rep.residuals[0] <= 1e-12


def test_alignment_sampled_mass():
    rng = np.random.default_rng(0)
    n = 4096
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    mean_sq = np.mean(np.sin(theta) ** 2)
    sigma = math.sqrt(0.125 / n)  # Var(sin^2) = 1/8
    assert abs(mean_sq - 0.5) <= 3.0 * sigma + 1e-3


def test_alignment_block_guard():
    cfg = H.ExperimentConfig(n_grid=(256,), trials=1, k_max=4, master_seed=3)
    with pytest.raises(GapViolation):
        H.run_eigvec_alignment(cfg, 2, 3)  # splits a frequency pair


def test_config_validation():
    with pytest.raises(ValueError):
        H.ExperimentConfig(n_grid=(512, 256))
    with pytest.raises(ValueError):
        H.ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        H.ExperimentConfig(mode="sideways")


LAZY_QUADRATURE_PROBE = """
import json, sys
import numpy as np
from lapeig import harness, kernels, singular
for mode in ("unnormalized", "normalized"):
    harness.run_convergence(harness.ExperimentConfig(
        manifold="circle", kernel="indicator", mode=mode, n_grid=(256,), trials=2))
cfg = singular.SensitivityConfig(alpha=0.3, m2_radius=0.7, eps_grid=(0.2,))
harness.corner_l1_sweep(cfg, nodes_per_face=8)
harness.face_midpoint_deviations(cfg)
corner = [singular.corner_defect_profile(2, 0.3), singular.corner_defect_l1_limit(cfg, 2)]
QUAD = ("scipy.integrate", "scipy.optimize")
before = [name for name in QUAD if name in sys.modules]
ones = kernels.custom_kernel(np.ones_like, 0.0)
values = [kernels.sigma_eta(ones, 2), float(ones.psi(0.3)), *corner]
print(json.dumps({"before": before, "after": [name for name in QUAD if name in sys.modules],
                  "values": [v.hex() for v in values]}))
"""


def test_closed_form_runs_load_no_quadrature_code():
    # a fresh interpreter, since other tests import scipy.integrate themselves:
    # a closed-form sweep, the corner sweep and the corner defect's closed
    # forms load neither scipy.integrate nor the scipy.optimize it brings, and
    # a custom kernel's moment and psi still integrate on demand; every value
    # is pinned to the bit
    out = subprocess.run([sys.executable, "-c", LAZY_QUADRATURE_PROBE], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(H.__file__).parents[1])})
    got = json.loads(out.stdout)
    assert got["before"] == []
    assert got["after"] == ["scipy.integrate", "scipy.optimize"]
    assert got["values"] == ["0x1.921fb54442d18p-1", "0x1.d1eb851eb851ep-2",
                             "-0x1.b71e877aab451p-3", "0x1.b262a82ac64c3p+3"]
