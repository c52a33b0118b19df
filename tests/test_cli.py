import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from lapeig import graph as graph_module
from lapeig import spectral
from lapeig.cli import _graph_from_json, _graph_to_json, build_parser, main
from lapeig.errors import LapeigError
from lapeig.graph import build_graph, connectivity_report, epsilon_schedule
from lapeig.kernels import custom_kernel, parse_kernel
from lapeig.manifolds import make_manifold, sample_iid


def run(argv):
    return main(argv)


def test_kernel_info(tmp_path, capsys):
    assert run(["kernel-info", "--kernel", "indicator", "--m", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sigma_eta"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert obj["sigma_tilde_eta"] == pytest.approx(2.0, abs=1e-10)


def test_sample_graph_spectrum_pipeline(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.json"
    graph_path = tmp_path / "graph.json"
    assert run(["sample", "--manifold", "circle", "--density", "const",
                "--n", "300", "--seed", "7", "--out", str(cloud_path)]) == 0
    cloud = json.loads(cloud_path.read_text())
    assert cloud["n"] == 300
    assert len(cloud["points_ambient"]) == 300
    assert len(cloud["params_intrinsic"][0]) == 1

    assert run(["graph", "--in", str(cloud_path), "--eps", "auto:1",
                "--kernel", "indicator", "--out", str(graph_path)]) == 0
    graph = json.loads(graph_path.read_text())
    assert set(graph) >= {"n", "eps", "triplets"}
    i, j, v = graph["triplets"][0]
    assert v > 0.0

    assert run(["spectrum", "--in", str(graph_path), "--k", "4"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert set(spec) == {"mode", "k", "values", "rescaled", "eps", "n", "residual", "matvecs"}
    assert spec["mode"] == "unnormalized"
    assert len(spec["values"]) == 5
    assert len(spec["rescaled"]) == 5
    assert spec["values"] == sorted(spec["values"])
    assert 0.0 <= spec["residual"] <= 1e-8

    assert run(["spectrum", "--in", str(graph_path), "--k", "2",
                "--normalized"]) == 0
    nspec = json.loads(capsys.readouterr().out)
    assert nspec["mode"] == "normalized"
    assert 0.0 <= nspec["residual"] <= 1e-8


def test_converge_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["converge", "--n-grid", "128,256", "--trials", "2", "--k-max", "2",
            "--seed", "3"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.reader(out1.open()))
    assert rows[0] == ["n", "trial", "k", "eps", "raw", "rescaled", "target",
                       "rel_error"]
    assert len(rows) == 1 + 2 * 2 * 3


def test_converge_json(tmp_path):
    out = tmp_path / "r.json"
    assert run(["converge", "--n-grid", "128,256", "--trials", "1", "--k-max", "1",
                "--seed", "5", "--format", "json", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert "config" in obj["metadata"]
    assert obj["metadata"]["config"]["master_seed"] == 5
    # an unwritable report path is a validation error, in either format
    for fmt in ("csv", "json"):
        assert run(["converge", "--n-grid", "128,256", "--trials", "1", "--k-max", "1",
                    "--format", fmt, "--out", str(tmp_path / "missing" / "r")]) == 2


def test_readme_command_lines_parse():
    # every lap-eig line of the README's command block names real flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
             if cmd.startswith("lap-eig ")]
    assert len(lines) == 9
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_align_command(tmp_path):
    out = tmp_path / "align.json"
    assert run(["align", "--n", "512", "--trials", "2", "--block", "1,2",
                "--seed", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["block"] == [1, 2]
    assert len(obj["trials"]) == 2
    assert all(0.0 <= t["max_residual"] <= 1.0 for t in obj["trials"])


def test_interp_command(tmp_path):
    cloud_path = tmp_path / "cloud.json"
    values_path = tmp_path / "u.json"
    out = tmp_path / "interp.csv"
    assert run(["sample", "--manifold", "circle", "--density", "const",
                "--n", "400", "--seed", "2", "--out", str(cloud_path)]) == 0
    values_path.write_text(json.dumps([1.0] * 400))
    assert run(["interp", "--cloud", str(cloud_path), "--u", str(values_path),
                "--query", "grid:64", "--eps", "auto:1", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["theta", "value"]
    assert len(rows) == 65
    assert all(float(v) == 1.0 for _, v in rows[1:])
    for empty in ("grid:0", "grid:-2"):
        assert run(["interp", "--cloud", str(cloud_path), "--u", str(values_path),
                    "--query", empty, "--eps", "auto:1", "--out", str(out)]) == 2


def test_dyadic_command(tmp_path):
    out = tmp_path / "profile.csv"
    assert run(["dyadic", "--theta", "geometric:0.5", "--level", "6",
                "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x", "alpha", "d_n", "e_n"]
    assert len(rows) == 1 + 2 ** 6
    assert float(rows[1][1]) == 0.0  # alpha(0)


def test_sensitivity_command(tmp_path):
    out = tmp_path / "sens.csv"
    assert run(["sensitivity", "--alpha", "0", "--r", "1",
                "--eps-grid", "0.2,0.1", "--quad", "64", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["eps", "l1_deviation", "limit_rhs"]
    assert len(rows) == 3
    # the closed form at alpha = 0, r = 1, m = 2, to the bit
    assert float(rows[1][2]) == math.pi ** 3 / 2.0


def test_validation_exit_code(tmp_path):
    assert run(["graph", "--in", str(tmp_path / "missing.json"), "--eps", "1",
                "--out", str(tmp_path / "x.json")]) == 2
    assert run(["kernel-info", "--kernel", "boxcar", "--m", "1"]) == 2
    assert run(["sensitivity", "--quad", "0", "--out", str(tmp_path / "s.csv")]) == 2
    for threads in ("0", "-4"):
        assert run(["converge", "--threads", threads, "--out", str(tmp_path / "c.csv")]) == 2
    for grid in ("0.2,0", "0.2,-0.1", "0.2,0.0001"):
        assert run(["sensitivity", "--eps-grid", grid, "--quad", "64",
                    "--out", str(tmp_path / "s.csv")]) == 2
    # a radius that is not finite and positive, an alpha that is not finite
    for flag, value in (("--r", "-1"), ("--r", "0"), ("--r", "nan"), ("--r", "inf"),
                        ("--alpha", "nan"), ("--alpha", "inf")):
        assert run(["sensitivity", flag, value, "--eps-grid", "0.2", "--quad", "64",
                    "--out", str(tmp_path / "s.csv")]) == 2
    cloud_path = tmp_path / "cloud.json"
    for seed in ("-1", str(2 ** 64)):
        assert run(["sample", "--manifold", "circle", "--n", "50", "--seed", seed,
                    "--out", str(cloud_path)]) == 2
    assert run(["sample", "--manifold", "circle", "--n", "50", "--seed", "1",
                "--out", str(cloud_path)]) == 0
    cloud = json.loads(cloud_path.read_text())
    # n that disagrees with the points, 2-column circle params (once flattened
    # into twice the chart points), 3-D circle points
    params2 = [[t[0], t[0]] for t in cloud["params_intrinsic"]]
    points3 = [x + [0.0] for x in cloud["points_ambient"]]
    # a NaN or infinite coordinate, which JSON writes as NaN or Infinity; a
    # NaN parameter would leave its node a lone self-loop
    non_finite = []
    for key, bad in (("params_intrinsic", math.nan), ("points_ambient", math.nan),
                     ("points_ambient", -math.inf)):
        coords = [list(x) for x in cloud[key]]
        coords[5][0] = bad
        non_finite.append(dict(cloud, **{key: coords}))
    # also n and seed that are null, fractional, text or out of range, a
    # manifold or density that is no string, and a top level that is no object
    for bad in (*non_finite, dict(cloud, n=60), dict(cloud, params_intrinsic=params2),
                dict(cloud, points_ambient=points3), dict(cloud, n=None),
                dict(cloud, n=50.5), dict(cloud, n="50"), dict(cloud, seed=None),
                dict(cloud, seed=1.5), dict(cloud, seed="1"), dict(cloud, seed=-1),
                dict(cloud, seed=2 ** 64), dict(cloud, seed=True),
                dict(cloud, manifold=["circle"]), dict(cloud, density=3), [1, 2]):
        cloud_path.write_text(json.dumps(bad))
        assert run(["graph", "--in", str(cloud_path), "--eps", "1", "--metric", "intrinsic",
                    "--out", str(tmp_path / "g.json")]) == 2
    # a sphere cloud with 1-column params
    assert run(["sample", "--manifold", "sphere", "--n", "50", "--seed", "1",
                "--out", str(cloud_path)]) == 0
    sphere = json.loads(cloud_path.read_text())
    params1 = [t[:1] for t in sphere["params_intrinsic"]]
    cloud_path.write_text(json.dumps(dict(sphere, params_intrinsic=params1)))
    assert run(["graph", "--in", str(cloud_path), "--eps", "1",
                "--out", str(tmp_path / "g.json")]) == 2
    # the connected path 0-1-2, then with empty triplets, an asymmetric K, a
    # negative weight (eigenvalue -1), a fractional index and a repeated pair
    # (summed, it gave lambda = 0, 1.268, 4.732 in place of 0, 1, 3)
    graph_path = tmp_path / "graph.json"
    header = {"n": 3, "eps": 0.5, "kernel": "indicator", "metric": "ambient", "m": 1}
    path = [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [0, 1, 1.0], [1, 0, 1.0],
            [1, 2, 1.0], [2, 1, 1.0]]
    for triplets, code in ((path, 0), ([], 2), (path + [[0, 2, 1.0]], 2),
                           (path + [[0, 2, -1.0], [2, 0, -1.0]], 2),
                           (path + [[0, 1.5, 1.0], [1.5, 0, 1.0]], 2),
                           (path + [[0, 1, 1.0], [1, 0, 1.0]], 2)):
        graph_path.write_text(json.dumps(dict(header, triplets=triplets)))
        assert run(["spectrum", "--in", str(graph_path), "--k", "1"]) == code
    # eps that is not finite and positive (a rescaled -8, infinities, NaN), m
    # that is not an integer >= 1 (JSON true is no number for either), a metric
    # other than ambient or intrinsic, a kernel that is no string, and then a
    # top level that is no object
    for key, value in (("eps", -0.5), ("eps", 0.0), ("eps", math.nan), ("eps", True),
                       ("m", 1.7), ("m", 0), ("m", None), ("m", True), ("n", None),
                       ("n", 3.5), ("n", "3"), ("n", 0),
                       ("metric", "bogus"), ("metric", ["not", "a", "string"]),
                       ("kernel", ["x"])):
        graph_path.write_text(json.dumps(dict(header, triplets=path, **{key: value})))
        assert run(["spectrum", "--in", str(graph_path), "--k", "1"]) == 2
    graph_path.write_text(json.dumps([1, 2]))
    assert run(["spectrum", "--in", str(graph_path), "--k", "1"]) == 2
    # interp values that are no JSON list of numbers: an object, text, a JSON
    # true, nested lists; an object ended in a TypeError with exit 1
    assert run(["sample", "--manifold", "circle", "--n", "50", "--seed", "1",
                "--out", str(cloud_path)]) == 0
    values_path = tmp_path / "u.json"
    # and values that are not finite, which JSON writes as NaN or Infinity:
    # a NaN once came back as nan in the CSV with exit 0
    for bad in ({"a": 1}, ["x"] * 50, [1.0] * 49 + [True], [[1.0]] * 50, "1",
                [1.0] * 49 + [math.nan], [math.inf] + [1.0] * 49, [1.0] * 49 + [-math.inf]):
        values_path.write_text(json.dumps(bad))
        assert run(["interp", "--cloud", str(cloud_path), "--u", str(values_path),
                    "--eps", "auto:1", "--out", str(tmp_path / "i.csv")]) == 2
    # an unknown query spec, and a cloud whose chart is not 1-D
    values_path.write_text(json.dumps([1.0] * 50))
    assert run(["interp", "--cloud", str(cloud_path), "--u", str(values_path),
                "--query", "bogus:8", "--eps", "auto:1", "--out", str(tmp_path / "i.csv")]) == 2
    sphere_path = tmp_path / "sphere.json"
    assert run(["sample", "--manifold", "sphere", "--n", "50", "--seed", "1",
                "--out", str(sphere_path)]) == 0
    assert run(["interp", "--cloud", str(sphere_path), "--u", str(values_path),
                "--eps", "auto:1", "--out", str(tmp_path / "i.csv")]) == 2
    # an unknown theta spec, a ratio outside (0, 1), a level below 1
    for flags in (["--theta", "power:2"], ["--theta", "geometric:2"], ["--level", "0"]):
        assert run(["dyadic", *flags, "--out", str(tmp_path / "d.csv")]) == 2
    # eigenvector alignment needs the circle, whose block functions are explicit
    assert run(["align", "--manifold", "square", "--trials", "1", "--n", "64",
                "--out", str(tmp_path / "a.json")]) == 2


def test_eps_rule_forms(tmp_path):
    cloud_path = tmp_path / "cloud.json"
    assert run(["sample", "--manifold", "circle", "--n", "200", "--seed", "3",
                "--out", str(cloud_path)]) == 0
    assert run(["graph", "--in", str(cloud_path), "--eps", "autox",
                "--out", str(tmp_path / "bad.json")]) == 2
    fixed, plain = tmp_path / "fixed.json", tmp_path / "plain.json"
    for rule, out in (("fixed:0.3", fixed), ("0.3", plain)):
        assert run(["graph", "--in", str(cloud_path), "--eps", rule,
                    "--out", str(out)]) == 0
    assert fixed.read_bytes() == plain.read_bytes()


def test_disconnected_graph(tmp_path, monkeypatch):
    # eps = 0.05 leaves these circle samples in dozens of components
    out = tmp_path / "r.json"
    assert run(["converge", "--n-grid", "128,256", "--trials", "2", "--k-max", "2",
                "--eps", "fixed:0.05", "--seed", "1", "--format", "json",
                "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["rows"] == []
    assert [f[:2] for f in obj["failures"]] == [[128, 0], [128, 1], [256, 0], [256, 1]]

    cloud_path = tmp_path / "cloud.json"
    graph_path = tmp_path / "graph.json"
    assert run(["sample", "--manifold", "circle", "--n", "128", "--seed", "1",
                "--out", str(cloud_path)]) == 0
    assert run(["graph", "--in", str(cloud_path), "--eps", "0.05",
                "--out", str(graph_path)]) == 0
    for flags in ([], ["--normalized"]):
        assert run(["spectrum", "--in", str(graph_path), "--k", "2"] + flags) == 2
    assert run(["align", "--n", "256", "--trials", "1", "--eps", "fixed:0.05",
                "--out", str(tmp_path / "align.json")]) == 2

    # sphere, n=2048, auto:0.5, seed 2: two components, refused before any solve
    assert run(["sample", "--manifold", "sphere", "--n", "2048", "--seed", "2",
                "--out", str(cloud_path)]) == 0
    assert run(["graph", "--in", str(cloud_path), "--eps", "auto:0.5",
                "--out", str(graph_path)]) == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("eigsh called on a disconnected graph")

    monkeypatch.setattr(spectral, "eigsh", no_solve)
    for flags in ([], ["--normalized"]):
        assert run(["spectrum", "--in", str(graph_path), "--k", "4"] + flags) == 2


def test_zero_weight_triplets_are_no_edges(tmp_path, monkeypatch):
    # two triangles joined only by stored zero weights: two components
    tri = [[a, b, 1.0] for a in range(3) for b in range(3)]
    trips = tri + [[a + 3, b + 3, w] for a, b, w in tri] + [[2, 3, 0.0], [3, 2, 0.0]]
    obj = {"n": 6, "eps": 0.5, "kernel": "indicator", "metric": "ambient", "m": 1,
           "triplets": trips}
    graph, _ = _graph_from_json(obj)
    assert connectivity_report(graph).components == 2
    assert np.array_equal(graph.degrees, [3.0] * 6)

    def no_solve(*args, **kwargs):
        raise AssertionError("eigsh called on a disconnected graph")

    monkeypatch.setattr(spectral, "eigsh", no_solve)
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(obj))
    for flags in ([], ["--normalized"]):
        assert run(["spectrum", "--in", str(graph_path), "--k", "1"] + flags) == 2


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    cloud_path = tmp_path / "cloud.json"
    graph_path = tmp_path / "graph.json"
    assert run(["sample", "--manifold", "circle", "--n", "1100", "--seed", "3",
                "--out", str(cloud_path)]) == 0
    assert run(["graph", "--in", str(cloud_path), "--eps", "auto",
                "--out", str(graph_path)]) == 0
    capsys.readouterr()
    assert run(["spectrum", "--in", str(graph_path), "--k", "4"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert 0.0 <= spec["residual"] <= 1e-8

    real_eigsh = spectral.eigsh

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spectral, "eigsh", out_of_memory)
    assert run(["spectrum", "--in", str(graph_path), "--k", "4"]) == 3

    # eigenvalues off by far more than the residual tolerance
    graph, _ = _graph_from_json(json.loads(graph_path.read_text()))
    shift = 1e-6 * 2.0 * graph.degrees.max()

    def perturbed_eigsh(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        return vals + shift, vecs

    monkeypatch.setattr(spectral, "eigsh", perturbed_eigsh)
    assert run(["spectrum", "--in", str(graph_path), "--k", "4"]) == 3


@pytest.mark.parametrize("exc", [RuntimeError("block failed"), MemoryError()])
def test_block_worker_failure_exit_code(exc, tmp_path, monkeypatch):
    # a failure inside one block of a split Lanczos matvec, on a pool thread
    cloud_path = tmp_path / "cloud.json"
    graph_path = tmp_path / "graph.json"
    assert run(["sample", "--manifold", "circle", "--n", "1100", "--seed", "3",
                "--out", str(cloud_path)]) == 0
    assert run(["graph", "--in", str(cloud_path), "--eps", "auto",
                "--out", str(graph_path)]) == 0
    monkeypatch.setattr(spectral, "_CORES", 2)
    monkeypatch.setattr(spectral, "MATVEC_BLOCK_NNZ", 1000)

    class FailingBlock:
        def dot(self, x):
            raise exc

    real = spectral._row_blocks
    monkeypatch.setattr(spectral, "_row_blocks",
                        lambda mat, count: real(mat, count)[:1] + [FailingBlock()])
    assert run(["spectrum", "--in", str(graph_path), "--k", "4"]) == 3
    monkeypatch.setattr(spectral, "_row_blocks", real)
    assert run(["spectrum", "--in", str(graph_path), "--k", "4"]) == 0


def test_out_of_memory_graph_exit_code(tmp_path, monkeypatch, capsys):
    # a graph JSON whose n alone needs 800 PB of CSR index, more than any
    # address space holds, so the allocation fails whatever the overcommit rule
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps({"n": 10 ** 17, "eps": 0.1, "kernel": "indicator",
                                      "m": 1, "triplets": [[0, 0, 1.0], [1, 1, 1.0]]}))
    capsys.readouterr()
    assert run(["spectrum", "--in", str(graph_path), "--k", "1"]) == 2
    assert "does not fit in memory" in capsys.readouterr().err

    # the k-d tree's std::bad_alloc, which reaches Python as a MemoryError
    class Tree:
        def __init__(self, *args, **kwargs):
            pass

        def query_pairs(self, *args, **kwargs):
            raise MemoryError("std::bad_alloc")

    cloud_path = tmp_path / "cloud.json"
    assert run(["sample", "--manifold", "circle", "--n", "300", "--seed", "3",
                "--out", str(cloud_path)]) == 0
    monkeypatch.setattr(graph_module, "cKDTree", Tree)
    capsys.readouterr()
    assert run(["graph", "--in", str(cloud_path), "--eps", "auto",
                "--out", str(tmp_path / "g.json")]) == 2
    assert "does not fit in memory" in capsys.readouterr().err
    # a sweep records each trial as failed and still writes its report
    out = tmp_path / "c.json"
    assert run(["converge", "--n-grid", "256,512", "--trials", "2", "--format", "json",
                "--out", str(out)]) == 0
    failures = json.loads(out.read_text())["failures"]
    assert len(failures) == 4
    assert all("does not fit in memory" in f[2] for f in failures)


@pytest.mark.parametrize("base", ["indicator", "triangular:1.2", "gauss"])
def test_stretched_graph_reads_back(base, tmp_path, capsys):
    # sample -> graph JSON -> spectrum gives graph_spectrum's values for a
    # stretched profile, and a custom one is refused when its graph is written
    cloud = sample_iid(make_manifold("circle"), 300, 3)
    graph_path = tmp_path / "graph.json"
    for factor in (0.5, 0.75, 1.5):
        kernel = parse_kernel(base).stretched(factor)
        graph = build_graph(cloud, kernel, factor * epsilon_schedule(cloud.n, 1, 1.5))
        graph_path.write_text(json.dumps(_graph_to_json(graph, 1)))
        for mode, flags in (("unnormalized", []), ("normalized", ["--normalized"])):
            capsys.readouterr()
            assert run(["spectrum", "--in", str(graph_path), "--k", "4"] + flags) == 0
            got = json.loads(capsys.readouterr().out)
            spec, rescaled = spectral.graph_spectrum(graph, 4, mode, kernel, 1)
            tol = 1e-12 * spec.values[-1]
            np.testing.assert_allclose(got["values"], spec.values, rtol=0.0, atol=tol)
            np.testing.assert_allclose(got["rescaled"], rescaled, rtol=1e-12)
            assert got["matvecs"] == spec.matvecs > 0
    custom = build_graph(cloud, custom_kernel(np.ones_like, 0.0), 0.2)
    with pytest.raises(LapeigError, match="cannot be read back"):
        _graph_to_json(custom, 1)
