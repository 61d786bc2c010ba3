import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import gwfract
from gwfract.branching import Binomial, sample_gw
from gwfract.cli import config_schema, main
from gwfract.geometry import (box_dimension, cloud_to_csv, ifs_to_json, percolation_ifs, render,
                              sierpinski_ifs)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    return code, json.loads(out), err


def test_cli_import_skips_scipy_stats_and_signal():
    # scipy.stats was most of start-up time; scipy.signal would load it again;
    # scipy.spatial loads only when a hull or a KD-tree is first built
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwfract.__file__)))
    code = ("import sys, gwfract.cli; print(sorted(m for m in sys.modules if m.split('.')[:2]"
            " in (['scipy', 'stats'], ['scipy', 'signal'], ['scipy', 'spatial'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_schema_is_valid_draft_2020_12():
    schema = config_schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    assert schema["properties"]["command"]["enum"]


def test_moran_json():
    code, doc, _ = run_json(["moran", "--percolation", "b=3,d=2,p=0.6"])
    assert code == 0
    assert doc["delta"] == pytest.approx(math.log(5.4) / math.log(3), abs=1e-9)


def test_moran_human_output():
    code, out, _ = run(["moran", "--percolation", "b=3,d=2,p=0.6"])
    assert code == 0
    assert "1.5350" in out


def test_extinction_json():
    code, doc, _ = run_json(["extinction", "--percolation", "b=3,d=2,p=0.6"])
    assert code == 0
    assert doc["q"] == pytest.approx(2.630764838635632e-4, abs=1e-12)


def test_fixpoint_solvers_agree():
    # one solver: the JSON always carries the checked interval, and the
    # removed --solver switch is rejected as bad input, as is --strategy
    # trivial, which only a collection holding the empty set resolves to
    base = ["fixpoint", "--offspring", "bin:3:0.9", "--collection", "ary:2"]
    code, doc, _ = run_json(base)
    assert code == 0
    assert doc["tau"] == pytest.approx(25.0 / 27.0, abs=1e-8)
    assert doc["converged"] is True
    lo, hi = doc["interval"]
    assert lo <= 2.0 / 27.0 <= hi and hi - lo <= 1e-10
    assert doc["s0"] == hi
    code2, doc2, _ = run_json(base + ["--tol", "1e-13"])
    assert code2 == 0
    assert doc2["interval"][1] - doc2["interval"][0] <= 1e-13
    assert doc2["s0"] == pytest.approx(doc["s0"], abs=1e-10)
    for bad in (["--solver", "bisect"], ["--strategy", "trivial"]):
        with pytest.raises(SystemExit) as exc:
            run(base + bad)
        assert exc.value.code == 2


def test_gk_curve_single_point():
    code, doc, _ = run_json(["gk-curve", "--percolation", "b=3,d=2,p=0.6",
                             "--k", "3", "--a", "8"])
    assert code == 0
    row = doc["curve"][0]
    assert row["value"] == pytest.approx(0.000544166038225461, rel=1e-9)
    assert row["method"] == "exact"


def test_gk_curve_point_from_c_and_csv_in_outdir(tmp_path):
    # with --k, --c stands for a_k = ceil(c^k); --outdir writes the curve as CSV
    model = ["gk-curve", "--percolation", "b=3,d=2,p=0.6"]
    code, doc, _ = run_json(model + ["--k", "3", "--c", "2.5"])
    assert code == 0
    (row,) = doc["curve"]
    assert row["a_k"] == math.ceil(2.5 ** 3) == 16
    assert row == run_json(model + ["--k", "3", "--a", "16"])[1]["curve"][0]
    code, doc, _ = run_json(model + ["--c", "2", "--k-max", "3", "--outdir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "gk_curve.csv").read_text().splitlines()
    assert lines[0] == "k,a_k,value,se,method"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [str(r["k"]), str(r["a_k"]), repr(r["value"])] for r in doc["curve"]]
    assert [r["a_k"] for r in doc["curve"]] == [2, 4, 8]


def test_fixpoint_block_shorthand_and_json_files(tmp_path):
    # diffuse-block:b:k:d names the block collection; both specs may be files
    (tmp_path / "law.json").write_text(json.dumps({"kind": "binomial", "n": 8, "p": 0.99}))
    (tmp_path / "coll.json").write_text(json.dumps({"kind": "diffuse_block", "b": 2, "k": 3,
                                                    "d": 1}))
    code, doc, _ = run_json(["fixpoint", "--offspring", "bin:8:0.99",
                             "--collection", "diffuse-block:2:3:1"])
    assert code == 0 and doc["strategy"] == "enum" and doc["converged"] is True
    # a full block of 4 among 8 letters: below the 4-ary tau, above 0
    assert 0.0 < doc["tau"] < run_json(["fixpoint", "--offspring", "bin:8:0.99",
                                        "--collection", "ary:4"])[1]["tau"]
    code, doc2, _ = run_json(["fixpoint", "--offspring", str(tmp_path / "law.json"),
                              "--collection", str(tmp_path / "coll.json")])
    assert code == 0 and doc2 == doc


def test_bad_shorthand_exits_2():
    code, out, err = run(["moran", "--percolation", "b=3,p=0.6", "--json"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-config"


@pytest.mark.parametrize("argv", [
    ["fixpoint", "--offspring", "bin:x:0.5", "--collection", "ary:2"],
    ["extinction", "--offspring", "bern:0.5,zz"],
    ["fixpoint", "--offspring", "bin:3:0.9", "--collection", "ary:q"],
    ["fixpoint", "--offspring", "bin:9:0.9", "--collection", "diffuse-block:2:x"],
    ["boxdim", "--percolation", "b=3,d=2,p=0.6", "--depth", "3", "--scales", "0.5,abc"],
    ["experiment", "dimension-ladder", "--percolation", "b=3,d=2,p=0.7", "--c-seq", "2,x"],
    ["experiment", "dimension-ladder", "--percolation", "b=3,d=2,p=0.7", "--seeds", "0,y"],
    ["experiment", "non-diffuseness", "--percolation", "b=3,d=2,p=0.6",
     "--beta-ladder", "0.1,zz"],
    ["simulate", "--config", "CFG"],
])
def test_value_that_is_not_a_number_exits_2(tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "simulate",
                               "percolation": {"b": 3, "d": 2, "p": 0.6},
                               "params": {"depth": "x"}}))
    code, doc, err = run_json([str(cfg) if a == "CFG" else a for a in argv])
    assert code == 2
    assert doc["error"] == "invalid-config"
    assert doc["message"].startswith("bad ")


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "moran",
                               "percolation": {"b": 3, "d": 2, "p": 0.6},
                               "bogus": 1}))
    code, out, err = run(["moran", "--config", str(cfg), "--json"])
    assert code == 2
    assert json.loads(out)["message"] == (
        "Additional properties are not allowed ('bogus' was unexpected)")
    # two errors: the message is jsonschema's best match, not the first found
    cfg.write_text(json.dumps({"command": "moran",
                               "percolation": {"b": 1, "d": 2, "p": 0.6},
                               "seed": "x"}))
    code, out, err = run(["moran", "--config", str(cfg), "--json"])
    assert code == 2
    assert json.loads(out)["message"] == "'x' is not of type 'integer'"


def test_config_file_supplies_model(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "moran",
                               "percolation": {"b": 3, "d": 2, "p": 0.6}}))
    code, doc, _ = run_json(["moran", "--config", str(cfg)])
    assert code == 0
    assert doc["delta"] == pytest.approx(1.535026479282073, abs=1e-9)


def test_zero_flags_override_config(tmp_path):
    # 0 == False: an explicit --seed 0 or --threads 0 must still reach the config
    cfg = tmp_path / "cfg.json"
    argv = ["extinction", "--offspring", "bin:3:0.6", "--trials", "2000"]
    cfg.write_text(json.dumps({"command": "extinction", "seed": 5}))
    seed0 = run_json(argv + ["--seed", "0"])[1]
    assert run_json(argv + ["--seed", "0", "--config", str(cfg)])[1] == seed0
    assert run_json(argv + ["--config", str(cfg)])[1] == run_json(argv + ["--seed", "5"])[1]
    assert run_json(argv + ["--config", str(cfg)])[1] != seed0
    cfg.write_text(json.dumps({"command": "extinction", "threads": 0}))
    assert run(argv + ["--json", "--config", str(cfg)])[0] == 2
    assert run(argv + ["--json", "--threads", "0"])[0] == 2


def test_missing_config_file_exits_2():
    code, out, _ = run(["moran", "--config", "/nonexistent/cfg.json", "--json"])
    assert code == 2


def test_extract_not_found_exits_3():
    code, doc, _ = run_json(["extract", "--percolation", "b=2,d=2,p=0.6",
                             "--pipeline", "block", "--c", "2", "--k", "4",
                             "--scan-budget", "4"])
    assert code == 3
    assert doc["error"] == "not-found"
    assert "stats" in doc and "predicted" in doc["stats"]


def test_node_budget_exits_4():
    code, doc, _ = run_json(["extract", "--percolation", "b=2,d=2,p=0.95",
                             "--pipeline", "block", "--c", "3", "--k", "3",
                             "--node-budget", "5"])
    assert code == 4
    assert doc["error"] == "resource-limit"


def test_json_output_is_byte_identical():
    argv = ["simulate", "--percolation", "b=3,d=2,p=0.6", "--depth", "4",
            "--seed", "9", "--json"]
    _, out1, _ = run(argv)
    _, out2, _ = run(argv)
    assert out1 == out2


def test_simulate_artifacts(tmp_path):
    tree = tmp_path / "t.txt"
    cloud = tmp_path / "c.csv"
    pgm = tmp_path / "r.pgm"
    code, doc, _ = run_json(["simulate", "--percolation", "b=3,d=2,p=0.6",
                             "--depth", "4", "--seed", "9",
                             "--tree-out", str(tree), "--cloud-out", str(cloud),
                             "--render", str(pgm)])
    assert code == 0
    assert doc["level_sizes"][0] == 1
    assert tree.read_text().strip()
    first = cloud.read_text().splitlines()[0].split(",")
    assert len(first) == 2 and all(float(x) >= 0 for x in first)
    assert pgm.read_bytes().startswith(b"P5")


def test_render_from_tree_file(tmp_path):
    tree = tmp_path / "t.txt"
    run(["simulate", "--percolation", "b=3,d=2,p=0.6", "--depth", "3",
         "--seed", "9", "--tree-out", str(tree)])
    out = tmp_path / "r.pgm"
    code, _, _ = run(["render", "--percolation", "b=3,d=2,p=0.6",
                      "--tree", str(tree), "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"P5")


def test_render_full_grid_and_sampled_tree(tmp_path):
    # without --tree, --depth renders the full grid, and --sample a sampled tree
    out = tmp_path / "r.pgm"
    model = ["render", "--percolation", "b=3,d=2,p=0.7", "--out", str(out)]
    code, doc, _ = run_json(model + ["--depth", "3"])
    assert code == 0 and doc["points"] == 9 ** 3
    assert out.read_bytes().startswith(b"P5")
    code, doc, _ = run_json(model + ["--sample", "--depth", "4", "--seed", "2"])
    tree = sample_gw(Binomial(9, 0.7), 4, 2).tree
    assert code == 0
    assert doc["points"] == len(render(percolation_ifs(3, 2), tree=tree).points) > 0


def test_render_tree_with_unknown_letter_exits_2(tmp_path):
    tree = tmp_path / "t.txt"
    tree.write_text("\n0\n0-12\n")  # letter 12 has no map among the 9
    code, _, _ = run(["render", "--percolation", "b=3,d=2,p=0.6",
                      "--tree", str(tree), "--out", str(tmp_path / "r.pgm")])
    assert code == 2


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_render_and_boxdim_of_sampled_tree_are_pinned(tmp_path):
    tree = tmp_path / "t.txt"
    tree.write_text(sample_gw(Binomial(9, 0.7), 6, 2).tree.to_text())
    pgm, csv = tmp_path / "r.pgm", tmp_path / "r.csv"
    code, doc, _ = run_json(["render", "--percolation", "b=3,d=2,p=0.7", "--tree", str(tree),
                             "--out", str(pgm), "--cloud-out", str(csv)])
    assert code == 0
    assert doc["points"] == 47032
    assert doc["eps"] == 0.0038798725991031403
    assert _sha(csv) == "ebda1b4b2e94274c63eaf4bc020ec8a731d2d555de50921609c00289d3de4f49"
    assert _sha(pgm) == "30994772ec2e35599cf3e4a958349ed2182cec1ad9057766606b077b707633fc"
    code, doc, _ = run_json(["boxdim", "--cloud", str(csv)])
    assert code == 0
    assert [c for _, c in doc["table"]] == [9, 121, 1788, 22106] + [47032] * 8
    assert doc["dim"] == 0.3738943902462389


def test_boxdim_full_grid_is_pinned():
    scales = ",".join(repr(3.0 ** -j) for j in range(1, 5))
    code, doc, _ = run_json(["boxdim", "--percolation", "b=3,d=2,p=0.7", "--depth", "5",
                             "--anchor", "origin", "--scales", scales])
    assert code == 0
    assert [c for _, c in doc["table"]] == [9, 81, 729, 6561]
    assert doc["dim"] == 1.9999999999999993


def test_boxdim_of_sampled_tree():
    code, doc, _ = run_json(["boxdim", "--percolation", "b=3,d=2,p=0.7", "--sample",
                             "--depth", "4", "--seed", "2"])
    assert code == 0
    dim, table = box_dimension(render(percolation_ifs(3, 2),
                                      tree=sample_gw(Binomial(9, 0.7), 4, 2).tree))
    assert doc["dim"] == dim
    assert doc["table"] == [[s, c] for s, c in table]


@pytest.mark.parametrize("line", ["0-x", "0--1", "+1", "0 - 1", "1_0"])
def test_render_malformed_tree_line_exits_2(tmp_path, line):
    tree = tmp_path / "t.txt"
    tree.write_text("\n0\n%s\n" % line)
    code, doc, _ = run_json(["render", "--percolation", "b=3,d=2,p=0.6",
                             "--tree", str(tree), "--out", str(tmp_path / "r.pgm")])
    assert code == 2
    assert doc["error"] == "invalid-config"


@pytest.mark.parametrize("rows", ["0.1,0.2\n0.3\n", "0.1,0.2\n0.3,zero\n"])
def test_boxdim_malformed_cloud_csv_exits_2(tmp_path, rows):
    path = tmp_path / "c.csv"
    path.write_text(rows)
    code, doc, _ = run_json(["boxdim", "--cloud", str(path)])
    assert code == 2
    assert doc["error"] == "invalid-config"


@pytest.mark.parametrize("rows", ["0.1,0.2,0.5,0.1\n0.3,0.5,0.1\n",
                                  "0.1,0.2,0.5,0.1\n0.3,0.4,half,0.1\n"])
def test_check_ahlfors_malformed_measured_csv_exits_2(tmp_path, rows):
    path = tmp_path / "m.csv"
    path.write_text(rows)
    code, doc, _ = run_json(["check-ahlfors", "--measured", str(path), "--alpha", "1"])
    assert code == 2
    assert doc["error"] == "invalid-config"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, cols", [(["boxdim", "--cloud"], 2),
                                        (["check-diffuse", "--beta", "0.01", "--cloud"], 2),
                                        (["check-ahlfors", "--alpha", "1", "--measured"], 4)],
                         ids=["boxdim", "check-diffuse", "check-ahlfors"])
def test_non_finite_csv_value_exits_2(tmp_path, argv, cols, value):
    # a 3 x 3 grid of points, each of mass 1/9 and radius 1/6, one value spoilt
    rows = [[(i + 0.5) / 3, (j + 0.5) / 3, 1 / 9, 1 / 6][:cols] for i in range(3) for j in range(3)]
    rows[4][1] = value
    path = tmp_path / "c.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    code, doc, _ = run_json(argv + [str(path)])
    assert code == 2
    assert doc["error"] == "invalid-config" and "not finite" in doc["message"]


def test_boxdim_on_cloud_csv(tmp_path):
    cloud = render(percolation_ifs(3, 2), depth=3)
    path = tmp_path / "c.csv"
    path.write_text(cloud_to_csv(cloud))
    code, doc, _ = run_json(["boxdim", "--cloud", str(path),
                             "--eps", repr(cloud.eps),
                             "--scales", "1,0.3333333333333333,0.1111111111111111",
                             "--anchor", "origin"])
    assert code == 0
    assert doc["dim"] == pytest.approx(2.0, abs=1e-6)


def test_check_diffuse_pass_and_fail():
    base = ["check-diffuse", "--percolation", "b=3,d=2,p=1", "--depth", "6",
            "--scales", "2", "--balls", "80"]
    code, doc, _ = run_json(base + ["--beta", "0.01"])
    assert code == 0
    assert doc["pass"] is True
    code2, doc2, _ = run_json(base + ["--beta", "0.9"])
    assert code2 == 3
    assert doc2["pass"] is False


def test_check_diffuse_zero_balls_exits_2():
    code, doc, _ = run_json(["check-diffuse", "--percolation", "b=3,d=2,p=1",
                             "--depth", "6", "--balls", "0", "--beta", "0.01"])
    assert code == 2
    assert doc["error"] == "invalid-config"


@pytest.mark.parametrize("argv", [
    ["gk-curve", "--offspring", "bern:0.9,0.9,0.9,0.9,0.9", "--k", "8", "--a", "5000",
     "--s", "0.2", "--trials", "0"],
    ["gk-curve", "--offspring", "bern:0.9,0.9,0.9,0.9,0.9", "--k", "8", "--a", "5000",
     "--s", "0.2", "--trials", "-5"],
    ["extinction", "--offspring", "bin:3:0.9", "--trials", "-1"],
    ["experiment", "convergence-g-k", "--percolation", "b=2,d=2,p=0.9", "--c", "2",
     "--trials", "0"],
])
def test_bad_trials_exits_2(argv):
    code, doc, _ = run_json(argv)
    assert code == 2
    assert doc["error"] == "invalid-config"


def test_extinction_negative_mc_depth_exits_2():
    code, doc, _ = run_json(["extinction", "--offspring", "bin:3:0.9", "--trials", "10",
                             "--mc-depth", "-1"])
    assert code == 2
    assert doc["error"] == "invalid-config"


def test_extract_block_non_integer_c_exits_2():
    # c = 2.5 is not cut to 2: c^k = 39.0625 is no arity
    code, doc, _ = run_json(["extract", "--pipeline", "block", "--percolation",
                             "b=2,d=2,p=0.9", "--c", "2.5", "--k", "4"])
    assert code == 2
    assert doc["error"] == "invalid-config"
    assert "not an integer" in doc["message"]


_STAR_IFS = {"d": 2, "maps": [{"r": 0.45, "t": [0.0, 0.0], "angle": 0.0},
                              {"r": 0.4, "t": [0.6, 0.0], "angle": 0.0},
                              {"r": 0.4, "t": [0.0, 0.6], "angle": 0.0},
                              {"r": 0.45, "t": [0.55, 0.55], "angle": 0.0}]}


@pytest.mark.parametrize("path, flags", [
    ("block", ["--scan-budget", "-1"]), ("block", ["--node-budget", "-1"]),
    ("section", ["--scan-budget", "-1"]), ("section", ["--node-budget", "0"]),
    ("star", ["--scan-budget", "-1"]), ("star", ["--node-budget", "-1"]),
    ("block", ["--levels", "2"]),
])
def test_extract_bad_budget_or_block_levels_exits_2(tmp_path, path, flags):
    # a budget below 1 is bad input, not a miss or a hit limit; block runs
    # are sized by --depth, so --levels is not silently dropped
    if path == "block":
        argv = ["--percolation", "b=2,d=2,p=0.9", "--pipeline", "block", "--c", "2",
                "--k", "4"]
    elif path == "section":
        argv = ["--percolation", "b=3,d=2,p=0.7", "--pipeline", "section",
                "--rho", repr(3.0 ** -4), "--alpha", "1", "--c", "0.05"]
    else:  # unequal ratios take the star pipeline
        (tmp_path / "ifs.json").write_text(json.dumps(_STAR_IFS))
        argv = ["--ifs", str(tmp_path / "ifs.json"), "--offspring", "bin:4:0.95",
                "--pipeline", "section", "--rho", "0.0625", "--alpha", "1.5", "--c", "0.02"]
    code, doc, _ = run_json(["extract"] + argv + flags)
    assert code == 2
    assert doc["error"] == "invalid-config"
    assert ("--depth" in doc["message"]) == ("--levels" in flags)


@pytest.mark.parametrize("rho, alpha, digest", [
    ("0.0625", "1.5", "0b593a3a07e101a3"), ("0.03125", "1.2", "76279edb00c8b7c6")])
def test_extract_star_json_is_pinned(tmp_path, rho, alpha, digest):
    # unequal ratios: one and two star levels
    (tmp_path / "ifs.json").write_text(json.dumps(_STAR_IFS))
    code, out, _ = run(["extract", "--ifs", str(tmp_path / "ifs.json"), "--offspring",
                        "bin:4:0.95", "--pipeline", "section", "--c", "0.02", "--rho", rho,
                        "--alpha", alpha, "--json"])
    assert code == 0
    assert json.loads(out)["pipeline"] == "general-star"
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


_SECTION_GRID = ["--percolation", "b=3,d=2,p=0.7", "--pipeline", "section",
                 "--rho", repr(3.0 ** -4), "--c", "0.05"]


@pytest.mark.parametrize("argv, digest", [
    # a block miss puts the seed in params; a section miss adds certs
    (["--percolation", "b=2,d=2,p=0.6", "--pipeline", "block", "--c", "2", "--k", "4",
      "--scan-budget", "4"], "64049214d9bef4e9"),
    (_SECTION_GRID + ["--alpha", "1.6309297535714573", "--levels", "2", "--seed", "0",
                      "--scan-budget", "1"], "2fe06af38107f29e"),
])
def test_extract_miss_json_is_pinned(argv, digest):
    code, out, _ = run(["extract"] + argv + ["--json"])
    assert code == 3
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


def test_extract_section_depth_is_levels_times_step():
    # rho = 3^-4 on the 3x3 grid: a section step is k = 4 base levels
    argv = ["extract"] + _SECTION_GRID + ["--alpha", "1", "--seed", "20", "--json"]
    for flags in (["--depth", "8"], ["--levels", "2"], ["--depth", "8", "--levels", "2"]):
        code, out, _ = run(argv + flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith("eebc2f0435e995e5")
    for flags in (["--depth", "7"], ["--depth", "8", "--levels", "3"]):
        assert run(argv + flags)[0] == 2


def test_extract_reduced_section_rejects_depth(tmp_path):
    # the gasket is reduced to its level-2 section system, whose steps are
    # not base levels: a depth there used to be dropped without a word
    (tmp_path / "gasket.json").write_text(json.dumps(ifs_to_json(sierpinski_ifs())))
    argv = ["extract", "--ifs", str(tmp_path / "gasket.json"), "--offspring", "bin:3:0.95",
            "--pipeline", "section", "--rho", "0.015625", "--alpha", repr(7.0 / 6),
            "--c", "0.05", "--seed", "3"]
    for depth in ("6", "7", "60"):
        code, doc, _ = run_json(argv + ["--depth", depth])
        assert code == 2
        assert doc["error"] == "invalid-config"
        assert "--levels" in doc["message"]


def test_extinction_zero_trials_skips_monte_carlo():
    code, doc, _ = run_json(["extinction", "--offspring", "bin:3:0.9", "--trials", "0"])
    assert code == 0 and "mc" not in doc


def test_check_ahlfors_zero_balls_exits_2(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.1,0.2,0.5,0.1\n0.3,0.4,0.5,0.1\n")
    code, doc, _ = run_json(["check-ahlfors", "--measured", str(path), "--alpha", "1",
                             "--balls", "0"])
    assert code == 2
    assert doc["error"] == "invalid-config"


_MEASURED = "0.1,0.2,0.5,0.1\n0.3,0.4,0.5,0.1\n"


@pytest.mark.parametrize("argv", [
    *(["render", "--percolation", "b=3,d=2,p=0.6", "--depth", "2", "--out", "{out}",
       "--pixels", n] for n in ("0", "-3")),
    *(["simulate", "--percolation", "b=3,d=2,p=0.6", "--depth", "2", "--render", "{out}",
       "--pixels", n] for n in ("0", "-3")),
    *(["extract", "--pipeline", "block", "--percolation", "b=2,d=2,p=0.95", "--c", "3",
       "--k", "3", "--render", "{out}", "--pixels", n] for n in ("0", "-3")),
    *(["check-ahlfors", "--measured", "{measured}", "--alpha", "1", "--balls", "12",
       "--r-count", n] for n in ("0", "-2")),
    *(["diffuse-cert", "--percolation", "b=3,d=2,p=0.6", flag, n]
      for flag, n in (("--directions", "0"), ("--directions", "-5"), ("--points", "0"))),
])
def test_bad_counts_exit_2(tmp_path, argv):
    # a pixel, radius, direction or point count below 1 is bad input, not a crash
    (tmp_path / "m.csv").write_text(_MEASURED)
    paths = {"out": str(tmp_path / "out.pgm"), "measured": str(tmp_path / "m.csv")}
    code, doc, _ = run_json([a.format(**paths) for a in argv])
    assert code == 2
    assert doc["error"] == "invalid-config"
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("argv", [
    *(["experiment", "non-diffuseness", "--percolation", "b=3,d=2,p=0.6", "--depth", "6",
       "--budget", n] for n in ("0", "-3")),
    *(["gk-curve", "--percolation", "b=2,d=2,p=0.9", "--c", "2", "--k-max", n]
      for n in ("0", "-1")),
    *(["experiment", "convergence-g-k", "--percolation", "b=2,d=2,p=0.9", "--c", "2",
       "--k-max", n] for n in ("0", "-1")),
])
def test_search_budget_and_k_max_below_one_exit_2(argv):
    # a search budget or a curve length below 1 is bad input: no traceback,
    # no empty curve, and no flag silently dropped
    code, doc, _ = run_json(argv)
    assert code == 2
    assert doc["error"] == "invalid-config"


@pytest.mark.parametrize("flags", [["--eps", "-1"], ["--eps", "nan"], ["--eps", "inf"],
                                   ["--beta", "nan"], ["--beta", "inf"]])
def test_check_diffuse_bad_eps_or_beta_exits_2(tmp_path, flags):
    path = tmp_path / "cloud.csv"
    path.write_text(cloud_to_csv(render(percolation_ifs(3, 2), depth=3)))
    argv = ["check-diffuse", "--cloud", str(path), "--eps", "0.001", "--beta", "0.01"]
    code, doc, _ = run_json(argv + flags)
    assert code == 2
    assert doc["error"] == "invalid-config"


@pytest.mark.parametrize("flags", [["--alpha", "nan"], ["--alpha", "-1"], ["--alpha", "0"],
                                   ["--max-spread", "nan"], ["--max-spread", "-1"]])
def test_check_ahlfors_bad_alpha_or_cap_exits_2(tmp_path, flags):
    path = tmp_path / "m.csv"
    path.write_text("0.1,0.2,0.5,0.1\n0.3,0.4,0.5,0.1\n")
    argv = ["check-ahlfors", "--measured", str(path), "--alpha", "1", "--balls", "12"]
    code, doc, _ = run_json(argv + flags)
    assert code == 2
    assert doc["error"] == "invalid-config"


def test_check_diffuse_zero_diameter_cloud_exits_2(tmp_path):
    path = tmp_path / "one_point.csv"
    path.write_text("0.5,0.5\n")
    code, doc, _ = run_json(["check-diffuse", "--cloud", str(path), "--eps", "0",
                             "--beta", "0.1"])
    assert code == 2
    assert doc["error"] == "invalid-config"


def test_check_diffuse_tiny_hull_exits_3(tmp_path):
    # every hull edge of the first three points is shorter than 1e-15
    path = tmp_path / "tiny.csv"
    path.write_text("0,0\n0,1e-16\n1e-16,0\n1,1\n")
    code, doc, _ = run_json(["check-diffuse", "--cloud", str(path), "--beta", "0.1"])
    assert code == 3
    assert doc["pass"] is False


def test_check_ahlfors_roundtrip(tmp_path):
    meas = tmp_path / "m.csv"
    code, doc, _ = run_json(["extract", "--percolation", "b=2,d=2,p=0.95",
                             "--pipeline", "block", "--c", "3", "--k", "3",
                             "--seed", "0", "--measured-out", str(meas)])
    assert code == 0
    alpha = doc["alpha"]
    code2, doc2, _ = run_json(["check-ahlfors", "--measured", str(meas),
                               "--alpha", repr(alpha), "--balls", "60"])
    assert code2 == 0
    assert doc2["spread"] >= 1.0
    code3, _, _ = run_json(["check-ahlfors", "--measured", str(meas),
                            "--alpha", repr(alpha), "--balls", "60",
                            "--max-spread", "1.0"])
    assert code3 == 3


def test_extract_measure_and_render_outputs(tmp_path):
    # the measure CSV holds every tree node with mass A^-h; the render is a PGM
    meas, pgm = tmp_path / "m.csv", tmp_path / "e.pgm"
    code, doc, _ = run_json(["extract", "--percolation", "b=2,d=2,p=0.95",
                             "--pipeline", "block", "--c", "3", "--k", "3", "--seed", "0",
                             "--measure-out", str(meas), "--render", str(pgm),
                             "--pixels", "64"])
    assert code == 0 and doc["arity"] == 27 and doc["leaf_count"] == 27 ** doc["levels"]
    lines = meas.read_text().splitlines()
    assert lines[0] == "word,mass"
    assert len(lines) == 1 + sum(27 ** h for h in range(doc["levels"] + 1))
    for line in lines[1:]:
        word, mass = line.rsplit(",", 1)
        assert float(mass) == 27.0 ** -(word.count("-") + 1 if word else 0)
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5") and b"64 64" in blob[:20]


def test_diffuse_cert_command():
    code, doc, _ = run_json(["diffuse-cert", "--percolation", "b=3,d=2,p=0.6",
                             "--directions", "400"])
    assert code == 0
    assert 0.1 < doc["c_low"] <= doc["raw_min"] <= 1 / 6.0 + 1e-6


@pytest.mark.parametrize("model, want", [
    ("grid", {"c_low": 0.15653158710442192, "raw_min": 0.15708466203808155,
              "tol": 0.0005530749336596329, "note": "",
              "witness": {"normal": [1.0, 0.0], "offset": 0.5}}),
    ("gasket", {"c_low": 0.0, "raw_min": 0.0, "tol": 0.0005831145040414705, "note": "",
                "witness": {"normal": [1.0, 0.0], "offset": 0.4993489583333333}}),
])
def test_diffuse_cert_json_is_pinned(tmp_path, model, want):
    # the full certificate, bit for bit; only the section pipeline's
    # threshold readers stop early
    if model == "grid":
        argv = ["--percolation", "b=3,d=2,p=0.7"]
    else:
        (tmp_path / "gasket.json").write_text(json.dumps(ifs_to_json(sierpinski_ifs())))
        argv = ["--ifs", str(tmp_path / "gasket.json")]
    code, doc, _ = run_json(["diffuse-cert"] + argv)
    assert code == 0
    assert doc == dict(want, command="diffuse-cert")


def test_experiment_convergence_json(tmp_path):
    code, doc, _ = run_json(["experiment", "convergence-g-k",
                             "--percolation", "b=3,d=2,p=0.9", "--c", "2",
                             "--k-max", "3", "--trials", "1500",
                             "--outdir", str(tmp_path)])
    assert code == 0
    assert doc["experiment"] == "convergence_g_k"
    assert doc["verdict"] in ("pass", "fail")
    assert (tmp_path / "convergence_g_k.json").exists()


@pytest.mark.parametrize("argv", [
    ["moran", "--percolation", "b=3,d=2,p=0.6"],
    ["experiment", "convergence-g-k", "--percolation", "b=3,d=2,p=0.9", "--c", "2",
     "--k-max", "2", "--trials", "400"],
])
def test_threads_flag_config_key_and_variable_have_no_effect(tmp_path, monkeypatch, argv):
    plain = run(argv + ["--json"])[:2]
    flag = run(argv + ["--json", "--threads", "3"])[:2]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": argv[0], "threads": 3}))
    monkeypatch.setenv("GWFRACT_THREADS", "5")
    config_and_env = run(argv + ["--json", "--config", str(cfg)])[:2]
    assert plain[0] == 0
    assert plain == flag == config_and_env


def _readme_usage_lines():
    """The `gwfract` commands of README.md's CLI usage block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in text.split("```sh\n")[1:] if b.startswith("gwfract "))
    block = block.split("```")[0].replace("\\\n", " ")
    return [ln.split()[1:] for ln in block.splitlines() if ln.startswith("gwfract ")]


def test_readme_usage_block_runs(tmp_path, monkeypatch):
    # every command of the usage block runs as written, in order, on the
    # files the earlier ones write
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(json.dumps(ifs_to_json(percolation_ifs(2, 2))))
    lines = _readme_usage_lines()
    assert len(lines) == 12
    for argv in lines:
        code, _, err = run(argv)
        assert code == 0, (argv, err)
