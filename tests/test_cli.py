import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rarehit import (
    cli,
    cylinder,
    errors,
    exact,
    hitting_tail,
    limitlaw,
    scaling,
    targets,
    uniform_iid,
)
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


def _tail_header_target(tmp_path, spec):
    code, text = run(["tail", "--model", "iid-uniform-12", "--target", spec, "--K", "2"],
                     tmp_path)
    assert code == EXIT_OK
    return json.loads(text.splitlines()[0][len("# config:"):])["target"]


@pytest.mark.parametrize("spec, words", [
    ("cyl:1,10", ["1,10"]),
    ("cyl:11,0", ["11,0"]),
    ("hamming:0,11:0.5", ["0,0", "0,1", "0,10", "0,11", "0,2", "0,3", "0,4", "0,5", "0,6",
                          "0,7", "0,8", "0,9", "1,11", "10,11", "11,11", "2,11", "3,11",
                          "4,11", "5,11", "6,11", "7,11", "8,11", "9,11"]),
])
def test_tail_header_words_parse_back(tmp_path, spec, words):
    # Once a symbol has two digits the header writes words in the --target
    # comma syntax, so cyl:1,10 and cyl:11,0 no longer both read "110".
    header = _tail_header_target(tmp_path, spec)
    assert sorted(header["words"]) == words
    union = json.dumps({"union": [{"cylinder": w} for w in header["words"]]})
    assert cli.parse_target(union, 12) == cli.parse_target(spec, 12)


def test_tail_header_runs_single_digit_symbols_together(tmp_path):
    assert _tail_header_target(tmp_path, "cyl:1,1,0")["words"] == ["110"]


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


def test_limitlaw_s0_beyond_the_usable_horizon(tmp_path, capsys):
    # t_max of binary 1,1 is 0.9 * 10.09...: the grid from s0 would run backwards
    code, _ = run(["limitlaw", "--model", "iid-uniform-2",
                   "--target", "cyl:1,1", "--s0", "9.5"], tmp_path)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "s0 = 9.5 must lie below the usable horizon t_max = 9.08" in err


def test_limitlaw_s0_zero_warns_nothing(tmp_path):
    # the Kac bound G(s) <= 1/s holds trivially at s = 0: no division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["limitlaw", "--model", "iid-uniform-2",
                          "--target", "cyl:1,1", "--s0", "0", "--assert"], tmp_path)
    assert code == EXIT_OK
    assert json.loads(text)["result"]["kac_violation"] <= 1e-10


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


@pytest.mark.parametrize("model", [
    {"kind": "iid", "probs": [0.8, 0.2]},
    {"kind": "markov", "transition": [[0.9, 0.1], [0.5, 0.5]]},
], ids=["iid82", "markov"])
def test_rarity_epsilon_at_n_one_on_a_non_uniform_source(tmp_path, model):
    # k = 2 gives m = 1, so the deficiency is taken over the empty word alone,
    # whose measure 1 = e^0 is not above the threshold.
    code, text = run(["rarity", "epsilon", "--model", json.dumps(model),
                      "--kappa", "1", "--n", "1"], tmp_path)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert result["aep_deficiency"] == 0.0
    assert result["epsilon_n"] == 2.0
    assert result["surrogate"] is True


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


def test_tail_beyond_the_step_cap_exit_resource(tmp_path, capsys):
    # refused before the engine allocates its 16 bytes a step
    K = exact.MAX_TAIL_STEPS + 1
    tracemalloc.start()
    try:
        code, text = run(["tail", "--model", "iid-uniform-2", "--target", "cyl:1,1",
                          "--K", str(K)], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE and text == ""
    assert peak < 1 << 20
    assert f"K = {K} exceeds the step cap {exact.MAX_TAIL_STEPS}" in capsys.readouterr().err


def test_null_target_tail_refused_before_any_push(tmp_path, capsys):
    # the chain refuses mu(A) = 0 before the hitting warm-up or any step
    tracemalloc.start()
    try:
        code, text = run(["tail", *NULL_TARGET, "--K", str(exact.MAX_TAIL_STEPS)], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, text) == (EXIT_CONFIG, "")
    assert peak < 1 << 20
    # tail builds its own chain: no scale is involved, so none is named
    assert capsys.readouterr().err == "analysis failed: target has zero measure\n"


@pytest.mark.parametrize("D", ["inf", "nan", "-0.1"])
def test_bad_hamming_radius_exit_config(tmp_path, capsys, D):
    code, _ = run(["lambda", "--model", "iid-uniform-2", "--target", f"hamming:0,1,0:{D}"],
                  tmp_path)
    assert code == EXIT_CONFIG
    assert "Hamming radius D must be finite and >= 0" in capsys.readouterr().err


def test_missing_subcommand_exit_config(capsys):
    assert main([]) == EXIT_CONFIG


def test_format_flag_is_gone(tmp_path):
    code, _ = run(["lambda", "--model", "iid-uniform-2", "--target", "cyl:1,1",
                   "--format", "json"], tmp_path)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["tail", "--model", "iid-uniform-2", "--target", "cyl:1,1", "--K", "6"],
    ["mc", "--model", "iid-uniform-2", "--target", "cyl:1,1", "--N", "5", "--seed", "0"],
])
def test_assert_flag_only_where_it_is_honoured(tmp_path, argv):
    # tail and mc check nothing, so they do not accept --assert
    assert run(argv + ["--assert"], tmp_path) == (EXIT_CONFIG, "")


def fail_certificate_checks(monkeypatch):
    # with the slack at -1 the mu_tau_le_s, ratio and lambda checks all fail
    monkeypatch.setattr(scaling, "_CHECK_SLACK", -1.0)


def fail_sandwich(monkeypatch):
    monkeypatch.setattr(limitlaw, "check_sandwich", lambda *a: 1.0)


U2_1X12 = ["--model", "iid-uniform-2", "--target", "cyl:" + ",".join(["1"] * 12)]
U2_1X8 = ["--model", "iid-uniform-2", "--target", "cyl:" + ",".join(["1"] * 8)]
U2_1X2 = ["--model", "iid-uniform-2", "--target", "cyl:1,1"]
SWEEP_01 = ["sweep", "--model", "iid-uniform-2", "--point", "0,1", "--n-min"]


@pytest.mark.parametrize("argv, spoil, code", [
    pytest.param(["lambda", *U2_1X12], fail_certificate_checks, EXIT_ASSERTION, id="lambda"),
    pytest.param(["verify", *U2_1X8], fail_certificate_checks, EXIT_ASSERTION, id="verify"),
    pytest.param(["limitlaw", *U2_1X2], fail_sandwich, EXIT_ASSERTION, id="limitlaw"),
    pytest.param([*SWEEP_01, "2", "--n-max", "12"], fail_certificate_checks, EXIT_ASSERTION,
                 id="sweep"),
    # lambda and sweep assert the checks of quantitative certificates only, verify of
    # every certificate: cyl:1,1 and the sweep rows n <= 11 are all trivial
    pytest.param(["lambda", *U2_1X2], fail_certificate_checks, EXIT_OK, id="lambda-trivial"),
    pytest.param(["verify", *U2_1X2], fail_certificate_checks, EXIT_ASSERTION,
                 id="verify-trivial"),
    pytest.param([*SWEEP_01, "2", "--n-max", "11"], fail_certificate_checks, EXIT_OK,
                 id="sweep-trivial"),
])
def test_assert_maps_a_failed_check_to_its_exit_code(tmp_path, monkeypatch, argv, spoil, code):
    spoil(monkeypatch)
    asserted = run(argv + ["--assert"], tmp_path, "asserted.txt")
    plain = run(argv, tmp_path, "plain.txt")
    assert (asserted[0], plain[0]) == (code, EXIT_OK)
    assert asserted[1] == plain[1]  # the full report is written either way
    if argv[0] == "sweep":
        rows = [ln for ln in plain[1].splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == int(argv[-1])  # the column names, then n = 2..n_max
    else:
        result = json.loads(plain[1])["result"]
        if argv[0] == "limitlaw":
            assert result["sandwich_violation"] == 1.0
        else:
            cert = result.get("certificate", result)
            assert not all(cert["checks"].values())


def _leaves(parser, path=()):
    """(subcommand path, leaf parser) of every leaf under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sp in action.choices.items():
            yield from _leaves(sp, path + (name,))


def _surface(parser) -> dict:
    """Option -> (dest, action, required, default, type, choices) of a leaf, plus its
    mutually exclusive groups."""
    options = {", ".join(a.option_strings): (
        a.dest, type(a).__name__, a.required, a.default, getattr(a.type, "__name__", a.type),
        a.choices) for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    groups = [(g.required, [a.dest for a in g._group_actions])
              for g in parser._mutually_exclusive_groups]
    return {"options": options, "groups": groups}


def _opt(dest, required=False, default=None, type=None, choices=None, action="_StoreAction"):
    return (dest, action, required, default, type, choices)


OUT = {"--out": _opt("out")}
MODEL = {"--model": _opt("model", True)}
INPUTS = {**MODEL, "--target": _opt("target", True), **OUT}
ASSERT = {"--assert": _opt("assert_", default=False, action="_StoreTrueAction")}
S0 = {"--s0": _opt("s0", default=0.05, type="float")}
PARSER_SURFACE = {
    "tail": {**INPUTS, "--K": _opt("K", True, type="int")},
    "lambda": {**INPUTS, **ASSERT},
    "verify": {**INPUTS, **ASSERT},
    "limitlaw": {**INPUTS, **ASSERT, **S0},
    "rarity epsilon": {**MODEL, **OUT, "--kappa": _opt("kappa", True, type="int"),
                       "--n": _opt("n", True, type="int")},
    "rarity d0": {**OUT, "--q": _opt("q", True, type="int"),
                  "--h-bits": _opt("h_bits", type="float"),
                  "--h-nats": _opt("h_nats", type="float")},
    "rarity rate": {**OUT, "--kappa-table": _opt("kappa_table", True)},
    "rarity kappa": {**OUT, "--n": _opt("n", True, type="int"),
                     "--D": _opt("D", True, type="float"), "--q": _opt("q", True, type="int")},
    "mc": {**INPUTS, "--kind": _opt("kind", default="hitting", choices=["hitting", "return"]),
           "--N": _opt("N", True, type="int"), "--seed": _opt("seed", True, type="int"),
           "--cap": _opt("cap", type="int")},
    "sweep": {**MODEL, **OUT, **ASSERT, **S0, "--point": _opt("point", True),
              "--n-min": _opt("n_min", True, type="int"),
              "--n-max": _opt("n_max", True, type="int")},
}


def test_every_leaf_parser_keeps_its_option_surface():
    leaves = dict(_leaves(cli.build_parser()))
    assert list(leaves) == list(PARSER_SURFACE)
    for name, parser in leaves.items():
        groups = [(True, ["h_bits", "h_nats"])] if name == "rarity d0" else []
        assert _surface(parser) == {"options": PARSER_SURFACE[name], "groups": groups}, name


# Prints the loaded scipy.sparse* and scipy.optimize* modules, costly to import.
PRINT_HEAVY_SCIPY = ("print([m for m in sys.modules "
                     "if m.split('.')[:2] in (['scipy', 'sparse'], ['scipy', 'optimize'])])")


def child(code: str, **kw) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter importing rarehit from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, **kw)


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter importing rarehit from this tree."""
    return child(code, check=True).stdout


def test_cli_import_leaves_scipy_optimize_out():
    # neither scipy.sparse nor scipy.optimize is loaded by the import alone
    assert fresh(f"import sys, rarehit.cli; {PRINT_HEAVY_SCIPY}") == "[]\n"


def test_dense_chain_lambda_leaves_scipy_sparse_out(tmp_path):
    argv = ["lambda", "--model", "iid-uniform-2", "--target", "cyl:" + ",".join(["1"] * 12),
            "--out", str(tmp_path / "out.json")]
    out = fresh(f"import sys; from rarehit import cli; print(cli.main({argv!r})); "
                + PRINT_HEAVY_SCIPY)
    assert out == f"{EXIT_OK}\n[]\n"


def test_dense_chain_kac_solve_loads_scipy_on_demand():
    out = fresh("import sys; from rarehit import cylinder, exact, uniform_iid; "
                "m, A = uniform_iid(2), cylinder([1, 1]); "
                "print(exact.ComposedChain(m, A).switch); "
                f"{PRINT_HEAVY_SCIPY}; print(repr(exact.return_expectation(m, A)))")
    switch, before_solve, kac = out.splitlines()
    assert (switch, before_solve) == ("0", "[]")  # a dense chain, built without scipy
    assert float(kac) == pytest.approx(4.0, abs=1e-12)


def test_help_exit_ok():
    assert main(["--help"]) == EXIT_OK


def test_oversized_alphabet_refused_before_its_matrix():
    # 30000^2 doubles are 6.7 GiB: past the child's 1 GiB of address space
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["tail", "--model", "iid-uniform-30000", "--target", "cyl:1", "--K", "3"]
    done = child(f"import sys; from rarehit import cli; sys.exit(cli.main({argv!r}))",
                 preexec_fn=limit)
    assert done.returncode == EXIT_RESOURCE
    assert done.stderr == "resource cap exceeded: alphabet of 30000 symbols exceeds the cap 256\n"


def test_failed_allocation_exits_resource_with_one_line():
    # 10^11 int64 hitting times are 745 GiB: past the child's 1 GiB of address space
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["mc", "--model", "iid-uniform-2", "--target", "cyl:1", "--N", str(10 ** 11),
            "--seed", "0", "--cap", "1"]
    done = child(f"import sys; from rarehit import cli; sys.exit(cli.main({argv!r}))",
                 preexec_fn=limit)
    assert (done.returncode, done.stdout) == (EXIT_RESOURCE, "")
    assert done.stderr.startswith("resource cap exceeded: Unable to allocate 745. GiB")
    assert done.stderr.count("\n") == 1


def test_every_resource_cap_error_exits_resource(monkeypatch, tmp_path, capsys):
    caps = [errors.AlphabetTooLargeError, errors.EnumerationTooLargeError,
            errors.ExpansionTooLargeError, errors.RejectionBudgetExceededError,
            errors.HorizonTooShortError, errors.HorizonTooLongError,
            errors.MeasureUnderflowError]
    assert set(caps) <= set(errors.ResourceCapError.__subclasses__())
    for exc in caps:
        def refuse(*a, **kw):
            raise exc("over the cap")
        monkeypatch.setattr(scaling, "scale_certificate", refuse)
        code, _ = run(["lambda", "--model", "iid-uniform-2", "--target", "cyl:1,1"], tmp_path)
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == "resource cap exceeded: over the cap\n"


VERIFY_01 = ["verify", "--model", "iid-uniform-2", "--target", "cyl:0,1"]
# Appends to ``built`` on every ArgumentParser construction.
COUNT_PARSERS = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
                 "argparse.ArgumentParser.__init__ = "
                 "lambda self, *a, **kw: built.append(1) or init(self, *a, **kw); ")


def test_a_second_main_call_builds_no_parser(tmp_path, monkeypatch):
    assert run(VERIFY_01, tmp_path)[0] == EXIT_OK  # builds the parser unless built before
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    assert run(VERIFY_01, tmp_path)[0] == EXIT_OK
    assert main(["rarity", "kappa", "--n", "4", "--D", "0.25", "--q", "2",
                 "--out", str(tmp_path / "kappa.json")]) == EXIT_OK
    assert built == []


def test_cli_import_builds_no_parser():
    argv = [*VERIFY_01, "--out", os.devnull]
    out = fresh(COUNT_PARSERS + "import rarehit.cli; print(len(built)); "
                f"rarehit.cli.main({argv!r}); print(len(built) > 0)")
    assert out == "0\nTrue\n"  # none at import, and the count sees the first main's


def test_shared_parser_gives_each_call_fresh_defaults(tmp_path, monkeypatch):
    seen = []
    parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **kw: seen.append(parse(self, *a, **kw)) or seen[-1])
    lam = ["lambda", "--model", "iid-uniform-2", "--target", "cyl:1,1"]
    assert run(lam + ["--assert"], tmp_path)[0] == EXIT_OK
    assert run(lam, tmp_path)[0] == EXIT_OK
    assert run([*MC_CYL, "--kind", "return", "--cap", "50"], tmp_path)[0] == EXIT_OK
    assert run(MC_CYL, tmp_path)[0] == EXIT_OK
    point = ["--model", "iid-uniform-2", "--target", "cyl:1,1"]
    assert run(["limitlaw", *point, "--s0", "0.2"], tmp_path)[0] == EXIT_OK
    assert run(["limitlaw", *point], tmp_path)[0] == EXIT_OK
    assert [ns.assert_ for ns in seen[:2]] == [True, False]
    assert [(ns.kind, ns.cap) for ns in seen[2:4]] == [("return", 50), ("hitting", None)]
    assert not hasattr(seen[2], "assert_")
    assert [ns.s0 for ns in seen[4:]] == [0.2, 0.05]
    assert [ns.func for ns in seen] == [cli._cmd_lambda] * 2 + [cli._cmd_mc] * 2 + [
        cli._cmd_limitlaw] * 2
    assert len({id(ns) for ns in seen}) == len(seen)


def one_shot(argv: list) -> str:
    """The output of ``argv`` as the first and only main call of a fresh interpreter,
    which must exit 0."""
    return fresh("import sys; from rarehit import cli; "
                 f"sys.exit(cli.main({argv!r} + ['--out', '-']))")


@pytest.mark.parametrize("before, argv", [
    pytest.param(["verify", "--model", "iid-uniform-2"], VERIFY_01, id="parse-error-then-verify"),
    pytest.param(["--help"], ["sweep", "--model", "iid-uniform-2", "--point", "0,1",
                              "--n-min", "2", "--n-max", "5"], id="help-then-sweep"),
])
def test_a_call_after_an_early_exit_matches_a_fresh_process(tmp_path, capsys, before, argv):
    assert main(before) == (EXIT_OK if "--help" in before else EXIT_CONFIG)
    capsys.readouterr()
    assert run(argv, tmp_path) == (EXIT_OK, one_shot(argv))


def test_unreachable_scale_exit_resource(tmp_path):
    code, _ = run(["lambda", "--model", "iid-uniform-2",
                   "--target", "cyl:" + ",".join(["1"] * 60)], tmp_path)
    assert code == EXIT_RESOURCE
    code, _ = run(["verify", "--model", "iid-uniform-2",
                   "--target", "cyl:" + ",".join(["1"] * 40), "--assert"], tmp_path)
    assert code == EXIT_RESOURCE


def test_sweep_assert_builds_each_certificate_once(tmp_path, monkeypatch):
    calls = []
    real = scaling.scale_search

    def counted(tail, n, alpha_n):
        calls.append(n)
        return real(tail, n, alpha_n)

    monkeypatch.setattr(scaling, "scale_search", counted)
    code, _ = run(["sweep", "--model", "iid-uniform-2", "--point", "0,1",
                   "--n-min", "2", "--n-max", "6", "--assert"], tmp_path)
    assert code == EXIT_OK
    assert calls == [2, 3, 4, 5, 6]


ONES_1074 = ["--model", "iid-uniform-2", "--target", "cyl:" + ",".join(["1"] * 1074)]


def test_lambda_refuses_an_underflowed_target(tmp_path, capsys):
    # mu(1^1074) = 2^-1074 is the smallest subnormal: every absorbed increment
    # underflows, so d = 0, which would certify s = 2n and lambda = 0.
    assert run(["lambda", *ONES_1074, "--assert"], tmp_path) == (EXIT_RESOURCE, "")
    assert capsys.readouterr().err == (
        "resource cap exceeded: d = 0 although mu(A) = 4.94e-324 > 0: early-hit "
        "probabilities underflow\n")
    # verify, limitlaw and sweep refuse it before the certificate, from mu(A)
    for argv in (["verify", *ONES_1074], ["limitlaw", *ONES_1074],
                 ["sweep", "--model", "iid-uniform-2", "--point", "1", "--n-min", "1074",
                  "--n-max", "1074"]):
        assert run(argv, tmp_path) == (EXIT_RESOURCE, "")
        assert "H(K) <= 0.0001 needs K > cap" in capsys.readouterr().err


def _count_cylinders(monkeypatch):
    built = []
    real = targets.cylinder

    def counted(word):
        built.append(len(word))
        return real(word)

    monkeypatch.setattr(targets, "cylinder", counted)
    return built


def test_sweep_builds_no_cylinder_past_a_refusal(tmp_path, monkeypatch):
    built = _count_cylinders(monkeypatch)
    code, _ = run(["sweep", "--model", "iid-uniform-2", "--point", "0",
                   "--n-min", "27", "--n-max", "2000"], tmp_path)
    assert code == EXIT_RESOURCE
    assert built == [27]


def test_sweep_to_n_max_2_63_refuses_as_a_short_sweep_does(tmp_path, capsys):
    # The range is checked from its ends, never listed; n = 25 needs a
    # horizon beyond the step cap either way.
    results = []
    for n_max in (30, 2 ** 63):
        code, _ = run(["sweep", "--model", "iid-uniform-2", "--point", "0",
                       "--n-min", "25", "--n-max", str(n_max)], tmp_path)
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == EXIT_RESOURCE and "Traceback" not in results[0][1]


def test_sweep_refuses_a_cylinder_of_zero_measure_before_its_automaton(tmp_path, capsys,
                                                                      monkeypatch):
    # mu(0^n) = 2^-n underflows from n = 1075 on, and no factor is 0: the
    # word is measured and refused as an underflow, with no automaton.
    monkeypatch.setattr(exact, "build_automaton", None)
    code, _ = run(["sweep", "--model", "iid-uniform-2", "--point", "0",
                   "--n-min", "200000", "--n-max", "200001"], tmp_path)
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err == ("resource cap exceeded: mu(A) underflows double "
                                       "precision: log10 mu(A) = -60206\n")


def _no_automaton_nor_push(monkeypatch):
    """Calls to build_automaton and to the engine's pushes, recorded and not run."""
    calls = []
    monkeypatch.setattr(exact, "build_automaton", lambda *a: calls.append("automaton"))
    for name in ("extend", "grow"):
        monkeypatch.setattr(exact.TailEngine, name, lambda *a, **k: calls.append("push"))
    return calls


U2_TARGET = ["--model", "iid-uniform-2", "--target"]


@pytest.mark.parametrize("argv, message", [
    # mu(A) <= mu(tau <= n) <= n*mu(A) puts sqrt(d) in [1.32e-9, 1.1e-8], whose
    # crossing mu(tau <= j) <= j*mu(A) lies past 10^8 steps.
    (["lambda", *U2_TARGET, "cyl:" + ",".join("1" * 60)],
     "threshold sqrt(d) >= 1.32e-09 with mu(A)=8.67e-19 needs more than 100000000 steps"),
    (["lambda", *U2_TARGET, "cyl:" + ",".join("1" * 1000)],
     "threshold sqrt(d) >= 4.32e-151 with mu(A)=9.33e-302 needs more than 100000000 steps"),
    # H(K) >= 1 - K*mu(A) stays above the truncation target at the cap.
    *[([cmd, *U2_TARGET, "cyl:" + ",".join("1" * 60)], "H(K) <= 0.0001 needs K > cap 100000000")
      for cmd in ("verify", "limitlaw")],
    (["sweep", "--model", "iid-uniform-2", "--point", "1", "--n-min", "60", "--n-max", "61"],
     "H(K) <= 0.0001 needs K > cap 100000000"),
], ids=["lambda-1^60", "lambda-1^1000", "verify-1^60", "limitlaw-1^60", "sweep-1^60"])
def test_refusals_that_the_measure_decides_build_no_automaton(tmp_path, capsys, monkeypatch,
                                                               argv, message):
    calls = _no_automaton_nor_push(monkeypatch)
    assert run(argv, tmp_path) == (EXIT_RESOURCE, "")
    assert capsys.readouterr().err == f"resource cap exceeded: {message}\n"
    assert calls == []


UNDERFLOW_SOURCES = [  # each source's first n at which mu(symbol^n) underflows to 0
    ("iid-uniform-2", "1", 1075, "-323.607"),
    ('{"kind":"iid","probs":[0.8,0.2]}', "1", 463, "-323.623"),
    ("iid-uniform-4", "3", 538, "-323.908"),
    ('{"kind":"markov","transition":[[0.9,0.1],[0.5,0.5]]}', "1", 1073, "-323.482"),
]


@pytest.mark.parametrize("cmd", ["lambda", "verify", "limitlaw", "sweep", "tail"])
@pytest.mark.parametrize("model, symbol, n, log10", UNDERFLOW_SOURCES,
                         ids=["u2", "iid82", "u4", "markov"])
def test_an_underflowed_measure_is_refused_as_underflow(tmp_path, capsys, monkeypatch, cmd,
                                                         model, symbol, n, log10):
    # The float mu(A) is 0 but no factor is: exit 3 naming log10 mu(A), not
    # "zero measure", before any automaton.
    calls = _no_automaton_nor_push(monkeypatch)
    if cmd == "sweep":
        argv = [cmd, "--model", model, "--point", symbol, "--n-min", str(n), "--n-max", str(n)]
    else:
        argv = [cmd, "--model", model, "--target", "cyl:" + ",".join([symbol] * n)]
        argv += ["--K", "5"] if cmd == "tail" else []
    assert run(argv, tmp_path) == (EXIT_RESOURCE, "")
    assert capsys.readouterr().err == ("resource cap exceeded: mu(A) underflows double "
                                       f"precision: log10 mu(A) = {log10}\n")
    assert calls == []


def test_lambda_trajectory_builds_no_cylinder_past_a_refusal(monkeypatch):
    built = _count_cylinders(monkeypatch)
    with pytest.raises(errors.HorizonTooShortError):
        scaling.lambda_trajectory(uniform_iid(2), "0", range(60, 2000))
    assert built == [60]


def test_sweep_s0_outside_the_table(tmp_path, capsys):
    argv = ["sweep", "--model", "iid-uniform-2", "--point", "0", "--n-min", "2",
            "--n-max", "3"]
    assert run(argv + ["--s0", "-0.5"], tmp_path)[0] == EXIT_CONFIG
    assert "s0 must be non-negative" in capsys.readouterr().err
    assert run(argv + ["--s0", "1e9"], tmp_path)[0] == EXIT_RESOURCE
    assert "beyond tail horizon" in capsys.readouterr().err


NEVER_ONE = '{"kind":"iid","probs":[1.0,0.0]}'  # mu([1,1]) = 0
NULL_TARGET = ["--model", NEVER_ONE, "--target", "cyl:1,1"]
MC_CYL = ["mc", "--model", "iid-uniform-2", "--target", "cyl:1,1", "--N", "5", "--seed", "0"]
BAD_MODELS = [
    *[(f"uniform-{q}", f"iid-uniform-{q}", f"cannot parse model spec 'iid-uniform-{q}'")
      for q in ("0", "1", "-2", "four")],
    ("iid-nan", '{"kind":"iid","probs":[NaN,0.5]}', "NaN entries"),
    ("markov-nan", '{"kind":"markov","transition":[[NaN,1],[0.5,0.5]]}', "NaN entries"),
    ("iid-no-probs", '{"kind":"iid"}', "numeric array under 'probs'"),
    ("markov-no-transition", '{"kind":"markov"}', "numeric array under 'transition'"),
    ("iid-probs-object", '{"kind":"iid","probs":{"a":1}}', "numeric array under 'probs'"),
    ("iid-probs-of-objects", '{"kind":"iid","probs":[{"a":1},0.5]}', "numeric array"),
    ("markov-ragged", '{"kind":"markov","transition":[[0.5,0.5],[1]]}', "numeric array"),
    ("iid-probs-huge-int", '{"kind":"iid","probs":[1%s,0]}' % ("0" * 400),
     "numeric array under 'probs'"),
]
WORD = "must be comma-separated decimal symbols without leading zeros"
BAD_WORDS = [
    ("cyl-01", "cyl:01", f"word '01' {WORD}"),
    ("cyl-empty-symbol", "cyl:1,,0", f"word '1,,0' {WORD}"),
    ("hamming-00", "hamming:00,1:0.5", f"word '00,1' {WORD}"),
    ("cylinder-01", '{"cylinder":"01"}', f"word '01' {WORD}"),
]
SWEEP = ["sweep", "--model", "iid-uniform-2", "--point"]
BAD_TARGETS = [
    ("hamming-no-D", '{"hamming":{"center":"0,1"}}', "needs a number under 'D'"),
    ("hamming-D-list", '{"hamming":{"center":"0,1","D":[1]}}', "needs a number under 'D'"),
    ("hamming-center-list", '{"hamming":{"center":[0,1],"D":0.5}}',
     "needs a word string under 'center'"),
    ("cylinder-number", '{"cylinder":5}', "needs a word string under 'cylinder'"),
    ("union-object", '{"union":{"cylinder":"0,1"}}', "needs a list under 'union'"),
    ("union-of-numbers", '{"union":[5]}', "target spec must be a JSON object"),
    ("hamming-D-huge-int", '{"hamming":{"center":"0,1","D":1%s}}' % ("0" * 400),
     "needs a number under 'D'"),
    ("cyl-symbol-beyond-64-bits", f"cyl:0,{2 ** 64}", "target symbols must lie in 0..2^63-1"),
    *[(f"hamming-{name}", spec, f"cannot parse target spec '{spec}': expected "
       "hamming:<center>:<D>") for name, spec in [("two-fields", "hamming:0,1"),
                                                  ("four-fields", "hamming:0,1:0.5:7"),
                                                  ("D-not-a-number", "hamming:0,1:abc")]],
]


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["lambda", *NULL_TARGET], EXIT_CONFIG, "target has zero measure; no scale exists",
                 id="lambda-null-set"),
    pytest.param(["verify", *NULL_TARGET], EXIT_CONFIG, "zero measure", id="verify-null-set"),
    pytest.param(["limitlaw", *NULL_TARGET], EXIT_CONFIG, "zero measure",
                 id="limitlaw-null-set"),
    pytest.param(["sweep", "--model", NEVER_ONE, "--point", "1", "--n-min", "2",
                  "--n-max", "3"], EXIT_CONFIG, "zero measure", id="sweep-null-set"),
    pytest.param([*MC_CYL, "--cap", "0"], EXIT_CONFIG, "censor_cap must be >= 1",
                 id="mc-cap-0"),
    pytest.param([*MC_CYL, "--cap", "-3"], EXIT_CONFIG, "censor_cap must be >= 1",
                 id="mc-cap-negative"),
    pytest.param([*MC_CYL, "--cap", str(2 ** 63)], EXIT_RESOURCE,
                 f"censor_cap {2 ** 63} exceeds the int64 hit-time limit", id="mc-cap-2^63"),
    pytest.param(["mc", "--model", "iid-uniform-2", "--target", "cyl:" + ",".join("1" * 70),
                  "--N", "5", "--seed", "0"], EXIT_RESOURCE,
                 "exceeds the int64 hit-time limit", id="mc-default-cap-1^70"),
    pytest.param(["mc", *NULL_TARGET, "--kind", "return", "--N", "5", "--seed", "0",
                  "--cap", "10"], EXIT_CONFIG, "zero measure", id="mc-return-null-set"),
    pytest.param(["mc", *NULL_TARGET, "--N", "5", "--seed", "0"], EXIT_CONFIG,
                 "zero measure", id="mc-default-cap-null-set"),
    pytest.param(["rarity", "epsilon", "--model", "iid-uniform-2", "--kappa", "1",
                  "--n", "0"], EXIT_CONFIG, "need n >= 1", id="epsilon-n-0"),
    pytest.param(["rarity", "epsilon", "--model", "iid-uniform-2", "--kappa", "0",
                  "--n", "20"], EXIT_CONFIG, "kappa_n >= 1", id="epsilon-kappa-0"),
    pytest.param(["rarity", "rate", "--kappa-table", '{"0":4}'], EXIT_CONFIG,
                 "need n >= 1", id="rate-n-0"),
    pytest.param(["rarity", "kappa", "--n", "-3", "--D", "0.2", "--q", "4"], EXIT_CONFIG,
                 "need n >= 1", id="kappa-n-negative"),
    pytest.param(["rarity", "d0", "--q", "1", "--h-bits", "0.5"], EXIT_CONFIG, "q >= 2",
                 id="d0-q-1"),
    *[pytest.param(["rarity", "d0", "--q", "4", flag], EXIT_CONFIG,
                   "entropy level must be positive and finite", id=f"d0-{flag[2:]}")
      for flag in ("--h-bits=nan", "--h-nats=inf", "--h-bits=-inf", "--h-nats=0")],
    pytest.param(["rarity", "kappa", "--n", "2000", "--D", "0.2", "--q", "4"], EXIT_CONFIG,
                 "kappa bound ((1 + D(q-1)) / D^D)^n exceeds the float range",
                 id="kappa-bound-overflow"),
    pytest.param(["rarity", "epsilon", "--model", "iid-uniform-2", "--kappa", str(2 ** 1100),
                  "--n", "2000"], EXIT_CONFIG, "m*kappa_n exceeds the float range",
                 id="epsilon-kappa-overflow"),
    pytest.param(["rarity", "d0", "--q", str(10 ** 400), "--h-bits", "1"], EXIT_CONFIG,
                 "alphabet size q exceeds the float range", id="d0-q-overflow"),
    pytest.param(["rarity", "kappa", "--n", "10", "--D", "0.2", "--q", str(10 ** 400)],
                 EXIT_CONFIG, "alphabet size q exceeds the float range", id="kappa-q-overflow"),
    *[pytest.param(["lambda", "--model", model, "--target", "cyl:1,1"], EXIT_CONFIG, message,
                   id=f"model-{name}") for name, model, message in BAD_MODELS],
    *[pytest.param(["lambda", "--model", "iid-uniform-2", "--target", target], EXIT_CONFIG,
                   message, id=f"target-{name}")
      for name, target, message in BAD_TARGETS + BAD_WORDS],
    pytest.param([*SWEEP, "01", "--n-min", "2", "--n-max", "3"], EXIT_CONFIG,
                 f"word '01' {WORD}", id="sweep-point-01"),
    pytest.param([*SWEEP, "0", "--n-min", "5", "--n-max", "2", "--assert"], EXIT_CONFIG,
                 "no cylinder length in range(5, 3)", id="sweep-empty-n-range"),
    pytest.param([*SWEEP, "0", "--n-min", "0", "--n-max", "3"], EXIT_CONFIG,
                 "cylinder length n = 0 in range(0, 4) must be >= 1", id="sweep-n-min-0"),
    pytest.param(["tail", *NULL_TARGET, "--K", "5"], EXIT_CONFIG, "zero measure",
                 id="tail-null-set"),
    *[pytest.param(["rarity", "rate", "--kappa-table", table], EXIT_CONFIG,
                   f"--kappa-table must be a JSON object mapping decimal integers n to "
                   f"integers kappa_n, got {table!r}", id=f"rate-{name}")
      for name, table in [("list", "[1]"), ("string", '"abc"'), ("not-json", "abc"),
                          ("null-kappa", '{"4":null}'), ("float-kappa", '{"4":1.5}'),
                          ("bool-kappa", '{"4":true}'), ("word-key", '{"four":16}'),
                          ("padded-key", '{"04":16}')]],
    pytest.param(["rarity", "d0", "--q", "4", "--h-bits", "1.7", "--h-nats", "2"], EXIT_CONFIG,
                 "argument --h-nats: not allowed with argument --h-bits", id="d0-both-entropies"),
    pytest.param(["rarity", "d0", "--q", "4"], EXIT_CONFIG,
                 "one of the arguments --h-bits --h-nats is required", id="d0-no-entropy"),
    *[pytest.param(["limitlaw", "--model", "iid-uniform-2", "--target", "cyl:1,1",
                    f"--s0={s0}"], EXIT_CONFIG, f"--s0 must be non-negative, got {s0}",
                   id=f"limitlaw-s0-{s0}") for s0 in ("-1.0", "nan")],
    *[pytest.param(["tail", "--model", model, "--target", "cyl:1", "--K", "3"], EXIT_RESOURCE,
                   "alphabet of 257 symbols exceeds the cap 256", id=f"model-{name}-257")
      for name, model in [("iid-uniform", "iid-uniform-257"),
                          ("iid-json", json.dumps({"kind": "iid", "probs": [1 / 257] * 257}))]],
])
def test_refusals_exit_with_a_typed_error(tmp_path, capsys, argv, code, message):
    assert run(argv, tmp_path) == (code, "")
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()  # a refusal leaves --out untouched


SPEC_KEYS = ["kind", "probs", "transition", "cylinder", "hamming", "center", "D", "union"]
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["iid", "markov", "0", "1", "0,1", "1,1,0"]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10)
SHORT_TEXT = st.tuples(st.sampled_from(["", "cyl:", "hamming:", "{", "@"]),
                       st.text(max_size=12)).map("".join)
FREE_INPUT = {
    "--kappa-table": lambda v: ["rarity", "rate", f"--kappa-table={v}"],
    "--model": lambda v: ["tail", f"--model={v}", "--target", "cyl:1,1", "--K", "3"],
    "--target": lambda v: ["tail", "--model", "iid-uniform-2", f"--target={v}", "--K", "3"],
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option=st.sampled_from(sorted(FREE_INPUT)), value=SMALL_JSON.map(json.dumps) | SHORT_TEXT)
def test_no_cli_input_escapes_as_a_traceback(tmp_path, monkeypatch, option, value):
    # K = 3 keeps every accepted tail short; "@<path>" reads only inside tmp_path
    monkeypatch.chdir(tmp_path)
    argv = FREE_INPUT[option](value) + ["--out", str(tmp_path / "out.txt")]
    assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_ASSERTION, EXIT_RESOURCE)
