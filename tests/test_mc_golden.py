"""Golden SHA-256 digests of Monte Carlo batch output.

The bytes of ``write_batch_csv`` (and of ``rarehit mc --out``) for a fixed
seed are an external contract: these digests were recorded once and must
never change.  The cases cover {hitting, return} x {IID, Markov} x
{explicit target, window predicate}, a batch that crosses a row tile, a rare
target whose trajectories run past several uniform chunks, and one full CLI
output file with its config header.
"""
import hashlib
import io

import pytest

from rarehit import (
    cylinder,
    hamming_predicate,
    iid,
    markov,
    mc,
    union,
    uniform_iid,
)
from rarehit.cli import EXIT_OK, main

IID3 = iid([0.5, 0.3, 0.2])
MK3 = markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.4, 0.1, 0.5]])
EXPLICIT = union([cylinder([0, 1, 2]), cylinder([2, 2, 1]), cylinder([1, 0, 0])])
PREDICATE = hamming_predicate([0, 1, 2, 0], 0.25, 3)

GOLDEN = {
    ("hitting", "iid", "explicit"):
        "fba8253a917b444d6c2b3bf3692f3c72d4e03148cce46930cee0cba6c0d25152",
    ("hitting", "iid", "predicate"):
        "2fab5fb421e708b8d8859547503ff1c45c4453d2f394e04c4efebd1d525ff221",
    ("hitting", "markov", "explicit"):
        "6306604250faf64f9a6a677f7e4a707a856aa9b4199aced12574e67280d519b2",
    ("hitting", "markov", "predicate"):
        "a129d714f030735fa68293d97f31f1d62f3e96594d6b65d8a2a9e73386be69a0",
    ("return", "iid", "explicit"):
        "f99e32b197df606f8bf9571884196e2df5ec55127a47e9eb903836631c68f494",
    ("return", "iid", "predicate"):
        "9dc0bc85476775a7b7d464ae7c2dac9de9e9e1ee35015963deb008e6746eb3b4",
    ("return", "markov", "explicit"):
        "9cdf0e2909ae6d07c0ae98b55b56649a49291304103a90406530c9cbd2256525",
    ("return", "markov", "predicate"):
        "9f68edf15168aa0da2ceeedc1c50cf95e8eb03609e40646bcce13465c51753d5",
}
GOLDEN_TILE = "5f00fd0b9be92b2760ae704cac3f254f3877aa33be08fa433691fb6ac77810e7"
GOLDEN_RARE = "22a3b638d84cb4814786c9ccb7eea0b7794166160670be4fbff3120315bb9848"
GOLDEN_CLI = "e21c6369f5e2e08a0f97e070ddface20553927fbee20e2ab8c2f3f138c825420"


def _digest(batch) -> str:
    buf = io.StringIO()
    mc.write_batch_csv(buf, batch)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_batch_digest(case):
    kind, model_name, target_name = case
    model = IID3 if model_name == "iid" else MK3
    target = EXPLICIT if target_name == "explicit" else PREDICATE
    sampler = mc.sample_hitting if kind == "hitting" else mc.sample_return
    batch = sampler(model, target, 300, seed=5, censor_cap=40)
    assert _digest(batch) == GOLDEN[case]


def test_batch_digest_across_a_row_tile():
    # Markov rejection sampling of the initial windows runs in both tiles
    batch = mc.sample_return(MK3, PREDICATE, 1100, seed=3, censor_cap=40)
    assert _digest(batch) == GOLDEN_TILE


def test_batch_digest_rare_target_long_trajectories():
    # mean hitting time ~510: most rows consume several hundred uniforms
    batch = mc.sample_hitting(uniform_iid(2), cylinder([1] * 8), 150, seed=11,
                              censor_cap=700)
    assert _digest(batch) == GOLDEN_RARE


def test_cli_mc_output_digest(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["mc", "--model", '{"kind":"markov","transition":[[0.9,0.1],[0.5,0.5]]}',
                 "--target", "hamming:0,1,1,0:0.25", "--kind", "return", "--N", "400",
                 "--seed", "0", "--cap", "60", "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CLI
