import json

import numpy as np
import pytest

from rarehit import cli, cylinder, hitting_tail, scaling, uniform_iid
from rarehit.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, main


def run(argv, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_tail_matches_exact(tmp_path):
    code, text = run(["tail", "--model", "iid-uniform-2",
                      "--target", "cyl:1,1", "--K", "6"], tmp_path)
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0].startswith("# config:")
    cfg = json.loads(lines[0][len("# config:"):])
    assert cfg["analysis"] == "tail" and cfg["K"] == 6
    data = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
    ref = hitting_tail(uniform_iid(2), cylinder([1, 1]), 6)
    for row, expected in zip(data, ref.values):
        assert float(row[1]) == pytest.approx(expected, abs=1e-15)


def test_lambda_json(tmp_path):
    code, text = run(["lambda", "--model", "iid-uniform-2",
                      "--target", "cyl:" + ",".join(["1"] * 12)], tmp_path)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["config"]["analysis"] == "lambda"
    assert doc["result"]["regime"] == "quantitative"
    assert doc["result"]["s"] == 498


def test_verify_assert_passes(tmp_path):
    code, text = run(["verify", "--model", "iid-uniform-2",
                      "--target", "cyl:1,1,1,1,1,1,1,1", "--assert"], tmp_path)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["report"]["passed"] is True


def test_limitlaw_assert(tmp_path):
    code, text = run(["limitlaw", "--model", "iid-uniform-2",
                      "--target", "cyl:1,1", "--assert"], tmp_path)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["kac_violation"] <= 1e-10
    assert doc["result"]["sandwich_violation"] <= 1e-10


def test_rarity_d0(tmp_path):
    code, text = run(["rarity", "d0", "--q", "4", "--h-bits", "1.7"], tmp_path)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert 0.40 <= doc["result"]["D0"] <= 0.43


def test_rarity_epsilon(tmp_path):
    code, text = run(["rarity", "epsilon", "--model", "iid-uniform-2",
                      "--kappa", "1", "--n", "20"], tmp_path)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["k"] == 2 and doc["result"]["m"] == 10
    assert doc["result"]["surrogate"] is False


def test_rarity_rate(tmp_path):
    code, text = run(["rarity", "rate", "--kappa-table",
                      json.dumps({str(n): 2 ** n for n in range(2, 10)})], tmp_path)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["rate"] == pytest.approx(np.log(2), abs=1e-12)


def test_sweep(tmp_path):
    code, text = run(["sweep", "--model", "iid-uniform-2", "--point", "0",
                      "--n-min", "2", "--n-max", "5", "--assert"], tmp_path)
    assert code == EXIT_OK
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "n,mu_A,lambda,D_hit,D_ret,bound"
    assert len(lines) == 5


def test_mc_roundtrip_deterministic(tmp_path):
    argv = ["mc", "--model", "iid-uniform-2", "--target", "cyl:1,1",
            "--kind", "hitting", "--N", "40", "--seed", "7", "--cap", "50"]
    _, a = run(argv, tmp_path, "a.csv")
    _, b = run(argv, tmp_path, "b.csv")
    assert a == b
    lines = a.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "# seed=7"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 41


def test_model_file_input(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"kind": "markov",
                                "transition": [[0.9, 0.1], [0.5, 0.5]]}))
    code, text = run(["tail", "--model", f"@{spec}",
                      "--target", "cyl:0,1", "--K", "3"], tmp_path)
    assert code == EXIT_OK
    assert "# mu_A=" in text


def test_bad_model_exit_config(tmp_path):
    code, _ = run(["tail", "--model", "nonsense",
                   "--target", "cyl:1", "--K", "3"], tmp_path)
    assert code == EXIT_CONFIG


def test_nonstochastic_model_exit_config(tmp_path):
    code, _ = run(["tail", "--model", '{"kind":"iid","probs":[0.7,0.7]}',
                   "--target", "cyl:1", "--K", "3"], tmp_path)
    assert code == EXIT_CONFIG


def test_expansion_too_large_exit_resource(tmp_path):
    center = ",".join(["0"] * 40)
    code, _ = run(["tail", "--model", "iid-uniform-2",
                   "--target", f"hamming:{center}:0.5", "--K", "3"], tmp_path)
    assert code == EXIT_RESOURCE


def test_missing_subcommand_exit_config(capsys):
    assert main([]) == EXIT_CONFIG


def test_format_flag_is_gone(tmp_path):
    code, _ = run(["lambda", "--model", "iid-uniform-2", "--target", "cyl:1,1",
                   "--format", "json"], tmp_path)
    assert code == EXIT_CONFIG


def test_help_exit_ok():
    assert main(["--help"]) == EXIT_OK


def test_unreachable_scale_exit_resource(tmp_path):
    code, _ = run(["lambda", "--model", "iid-uniform-2",
                   "--target", "cyl:" + ",".join(["1"] * 60)], tmp_path)
    assert code == EXIT_RESOURCE
    code, _ = run(["verify", "--model", "iid-uniform-2",
                   "--target", "cyl:" + ",".join(["1"] * 40), "--assert"], tmp_path)
    assert code == EXIT_RESOURCE


def test_sweep_assert_builds_each_certificate_once(tmp_path, monkeypatch):
    calls = []
    real = scaling.scale_certificate

    def counted(model, target, *a, **kw):
        calls.append(target.n)
        return real(model, target, *a, **kw)

    monkeypatch.setattr(scaling, "scale_certificate", counted)
    code, _ = run(["sweep", "--model", "iid-uniform-2", "--point", "0,1",
                   "--n-min", "2", "--n-max", "6", "--assert"], tmp_path)
    assert code == EXIT_OK
    assert calls == [2, 3, 4, 5, 6]


def test_sweep_s0_outside_the_table(tmp_path, capsys):
    argv = ["sweep", "--model", "iid-uniform-2", "--point", "0", "--n-min", "2",
            "--n-max", "3"]
    assert run(argv + ["--s0", "-0.5"], tmp_path)[0] == EXIT_CONFIG
    assert "s0 must be non-negative" in capsys.readouterr().err
    assert run(argv + ["--s0", "1e9"], tmp_path)[0] == EXIT_RESOURCE
    assert "beyond tail horizon" in capsys.readouterr().err
