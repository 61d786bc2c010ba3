import contextlib
import io
import json
import math
import os

import jsonschema
import pytest

from gwfract.cli import config_schema, main
from gwfract.geometry import cloud_to_csv, percolation_ifs, render


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    return code, json.loads(out), err


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
    base = ["fixpoint", "--offspring", "bin:3:0.9", "--collection", "ary:2"]
    code, doc, _ = run_json(base)
    assert code == 0
    assert doc["tau"] == pytest.approx(25.0 / 27.0, abs=1e-8)
    code2, doc2, _ = run_json(base + ["--solver", "bisect"])
    assert code2 == 0
    assert doc2["s0"] == pytest.approx(doc["s0"], abs=1e-7)
    assert doc2["method"] == "bisect"


def test_gk_curve_single_point():
    code, doc, _ = run_json(["gk-curve", "--percolation", "b=3,d=2,p=0.6",
                             "--k", "3", "--a", "8"])
    assert code == 0
    row = doc["curve"][0]
    assert row["value"] == pytest.approx(0.000544166038225461, rel=1e-9)
    assert row["method"] == "exact"


def test_bad_shorthand_exits_2():
    code, out, err = run(["moran", "--percolation", "b=3,p=0.6", "--json"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-config"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "moran",
                               "percolation": {"b": 3, "d": 2, "p": 0.6},
                               "bogus": 1}))
    code, out, err = run(["moran", "--config", str(cfg), "--json"])
    assert code == 2


def test_config_file_supplies_model(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "moran",
                               "percolation": {"b": 3, "d": 2, "p": 0.6}}))
    code, doc, _ = run_json(["moran", "--config", str(cfg)])
    assert code == 0
    assert doc["delta"] == pytest.approx(1.535026479282073, abs=1e-9)


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


def test_diffuse_cert_command():
    code, doc, _ = run_json(["diffuse-cert", "--percolation", "b=3,d=2,p=0.6",
                             "--directions", "400"])
    assert code == 0
    assert 0.1 < doc["c_low"] <= doc["raw_min"] <= 1 / 6.0 + 1e-6


def test_experiment_convergence_json(tmp_path):
    code, doc, _ = run_json(["experiment", "convergence-g-k",
                             "--percolation", "b=3,d=2,p=0.9", "--c", "2",
                             "--k-max", "3", "--trials", "1500",
                             "--outdir", str(tmp_path)])
    assert code == 0
    assert doc["experiment"] == "convergence_g_k"
    assert doc["verdict"] in ("pass", "fail")
    assert (tmp_path / "convergence_g_k.json").exists()


def test_threads_env_propagation(monkeypatch):
    # --threads reaches the handler through the environment for that call only
    import gwfract.cli as cli

    seen = []
    moran = cli.HANDLERS["moran"]

    def spy(cfg):
        seen.append(os.environ.get("GWFRACT_THREADS"))
        return moran(cfg)

    monkeypatch.setitem(cli.HANDLERS, "moran", spy)
    for before in (None, "5"):
        if before is None:
            monkeypatch.delenv("GWFRACT_THREADS", raising=False)
        else:
            monkeypatch.setenv("GWFRACT_THREADS", before)
        code, _, _ = run_json(["moran", "--percolation", "b=3,d=2,p=0.6",
                               "--threads", "3"])
        assert code == 0
        assert seen[-1] == "3"
        assert os.environ.get("GWFRACT_THREADS") == before


def test_threads_env_restored_after_error(monkeypatch):
    monkeypatch.delenv("GWFRACT_THREADS", raising=False)
    code, _, _ = run(["moran", "--percolation", "b=3,d=2,p=0.01",
                      "--threads", "3"])
    assert code == 2
    assert "GWFRACT_THREADS" not in os.environ
