"""Golden SHA-256 digests of the JSON and CSV reports of `lambda`, `verify`,
`limitlaw` and `sweep`.

The report bytes are an external contract: these digests were recorded once
and must not move when the certificate and limit-law layers are rewritten.
Every chain here has at most 34 states, so no threaded BLAS product can move
a bit.
"""
import hashlib

import pytest

from rarehit.cli import EXIT_OK, main

U2 = "iid-uniform-2"
MK = '{"kind":"markov","transition":[[0.9,0.1],[0.5,0.5]]}'
IID82 = '{"kind":"iid","probs":[0.8,0.2]}'

GOLDEN = {
    "lambda-u2-1": (
        ["lambda", "--model", U2, "--target", "cyl:1"],
        "5aa9a7837c84607052a50c56117c3861df5cf7df8177a8c83db51533d2e9c240"),
    "lambda-u2-1^12": (
        ["lambda", "--model", U2, "--target", "cyl:" + ",".join(["1"] * 12)],
        "99ee977391b512afb3002e70dcba112fcc70e4a18d99a806983a11afed7c6d58"),
    "lambda-mk-(01)^5": (
        ["lambda", "--model", MK, "--target", "cyl:" + ",".join(["0", "1"] * 5)],
        "8f18f008a543c7d0c86cdd2d78cbfd835098e5f015f71e520bd9c4844a6f14e9"),
    "verify-u2-1^10": (
        ["verify", "--model", U2, "--target", "cyl:" + ",".join(["1"] * 10)],
        "1254a688ee1f2cae119286967aeb3d6f4b75dd389eeb9ad10979da0de1eec102"),
    "verify-mk-ball(01)^4": (
        ["verify", "--model", MK, "--target", "hamming:0,1,0,1,0,1,0,1:0.13"],
        "a68a018259a8c78b3a557c674278f8f70a089f4f94cd6c381c883df71977ac1d"),
    "limitlaw-u2-1,1": (
        ["limitlaw", "--model", U2, "--target", "cyl:1,1"],
        "a4edbd4f8b8aed78bb45872c9509ed696a5081058c91d7dc4c6e01ca48a351aa"),
    "limitlaw-mk-0,1": (
        ["limitlaw", "--model", MK, "--target", "cyl:0,1"],
        "87ce0af88a84c321c47cd26f5da75f1c7e7b95fcf48da3bb95828ab6a5821d39"),
    "sweep-u2-0": (
        ["sweep", "--model", U2, "--point", "0", "--n-min", "2", "--n-max", "6"],
        "4fa75c391e8098a0aef7e8bf89d398a2b326da607216cb00cab07a2fe1af8937"),
    "sweep-iid82-0,1": (
        ["sweep", "--model", IID82, "--point", "0,1", "--n-min", "1", "--n-max", "5",
         "--s0", "0.2"],
        "cc51d9bb0000548d57884b27191d659bc32c819e82c4e32711be501cfb5f6cf9"),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_report_digest(tmp_path, case):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
