"""Command output is pinned byte for byte.

Each digest is the SHA-256 of the command's stdout at commit f3edb7a
(``enumerate E6 --tsv``, which pins all 833 E6 w_min words and
z-coordinates, at f36d8e3; ``enumerate E7 --minimax --tsv`` at adba8b9; ``verify typeAC --json`` at
aa3907c; ``enumerate E6 --json``, ``enumerate E7 --minimax --json`` and the
rank-10 ``enumerate A10``, whose words reach the letter s10, at d11cd30).
Leading NAME=VALUE words set environment variables for the command.  A
refactor that keeps these passing changed no byte of any covered report.
"""

from __future__ import annotations

import hashlib

import pytest

from adnil.cli import main

DIGESTS = (
    ("table7", "102444c6b88d1f650199a1fc2855e6925f87b3004dbc07f0eea5c69bf167f9f0"),
    ("table7 --tsv", "6711a23220b17b630c00d647ed0c176da5d113dc26132727a82e0663bb3aeed8"),
    ("table7 --json", "bcfa95e9ddec15b4432cdb340aac5c77e7fff47a3930a0b95b5459145b5fcb3c"),
    ("count B3", "7c9d784c6a072fbc448c8109667c629ac3e43d7c6be377d1aa1c4489aff1ae1e"),
    ("count B3 --tsv", "06fe51f951b90e6c01d45098f0d2276583af700cf4c3bb35ac72f9ac90c14ad1"),
    ("count B3 --json", "f5b50983618f35957c75d00b67ed1c9c39dbb6a0bc3af197418e1360dc1dc243"),
    ("count E6", "d347650f77a046f983ccc145b85c5f97372f5d74e48462e3f069a1b7cafa5f0f"),
    ("count E6 --tsv", "bea7811506a37497710fb0b5b4b29299b79ecbe0cc292139d79605044b5e93ff"),
    ("count E6 --json", "67b20f1dbee7dbac9d74f365a04da1c30efb06246b2e5bfe1548a2e15f843ed5"),
    ("enumerate G2", "0354101fef74a094482cbe5f41f7e1f60607d9f75b4b145628774db1bf739738"),
    ("enumerate G2 --tsv", "e5cb4317bdd47cea477b1c56197f169013bb6133c5d3478511606e3076b11902"),
    ("enumerate G2 --json", "9fb20b6b00f17020aff044bb8ffb98268275be4ecc4e9feeb40d68108d4a3035"),
    ("enumerate A4", "3a4b2d836feb1b4e8c1f313cccf0cbb810de4cf79c21786a85c0bfdad2df44bb"),
    ("enumerate A4 --tsv", "338e620ff2fc9d492ec2f29b76d5a2873a906db18b8069bcbba3d7d703265da5"),
    ("enumerate A4 --json", "9fab37c94512fd6d7b1f467fdab375eb213ade5e6daf6dac369633b56511830e"),
    ("enumerate F4", "bc4cb2d410d6eb0fd109f2d232946aa2232f726fe12d8c8bbe2077a5cef4f788"),
    ("enumerate F4 --tsv", "cd8d62de81298f451e43c1e9627a12d230be95f1349273581026b367aeae2fa9"),
    ("enumerate F4 --json", "e7ef731db9b825cabedaf972a160b57d980c35dddb92c58c6b858a353812b18c"),
    ("enumerate E6 --tsv", "4851ab6f5c8a78494e9b6a37cdecd7292c0180e63f8590214f80668718c5b8ca"),
    ("enumerate E7 --minimax --tsv", "7d8e0f0a350df0dc395245f645220430c70b3df3fb092072ddac9c68cdd44bb6"),
    ("enumerate E6 --json", "bff15cb920857b4765134628a733d8034dbc58aa9c28b96b6d8a8643590a0323"),
    ("enumerate E7 --minimax --json", "8fceca8daa9210483959013d99436f32339f67ad2a321fb318e0d235fab881d6"),
    (
        "ADNIL_MAX_RANK=10 enumerate A10 --strictly-positive --abelian --tsv",
        "b31bd4ef2f9471f919090878eae7d2cb3f44ffd99c81f2180379a120d6985452",
    ),
    ("verify identities", "5d840fd41d03ecc718c4b27fc2da7435ef32be3f15baf8473cf87af3cf5c9ab8"),
    ("verify counting", "662d3d28af664a3dc5a521f82313910ae002c69063469dc5b5371753b32050bc"),
    ("verify typeAC", "29d29bdc63429de1319e23862bd3781c137ae4c87537749bd5f88a9bd15b77e8"),
    ("verify typeAC --json", "68a2122954d3a76b9f88e6d1f88b3072fa777e9f205f66b0ae2384e4e181a7e2"),
    ("verify normalizer-oracles --type B3", "52b5b6c32ee295d7430b615bc99b2cf5b35ec0105fe6bb95282aa010cbfc2b8a"),
    ("verify affine --type G2 --seed 0", "bd97a4d503153932933e00bb10f91b2cb8dd76a7637e7d5f7d19400dc632260b"),
    ("verify shi --type B2 --seed 0", "e929bb993a93db5d05385ae33732fd94d0136c07e505fd0c87f2dfe30415ac6c"),
)


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_stdout_digest(capsys, monkeypatch, command, digest):
    argv = command.split()
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
