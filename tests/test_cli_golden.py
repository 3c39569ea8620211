"""Byte-identity guard on the fast README commands, two small hot runs, a
small thermal-width sweep (its v_d = 0 series included) and the JSON,
all-preset, computed-constants and one-point-grid output routes.

Each command runs in-process through ``cli.main``; the test asserts
exit 0 and the SHA-256 of everything it wrote to stdout.  A refactor
that claims unchanged outputs must keep every digest.  The hot
``spectrum`` run pins the Gauss-Hermite thermal average outside the
memo of ``coherences.reuse_betas``; the hot ``calibrate`` pins it inside.
The hot ``delay`` on fig8ab reaches the 2048-node level, where the
nodes of zero weight are not evaluated.

The digests pin the numbers this host's numpy/LAPACK build produces
(the last printed digit can follow the BLAS kernel in use).  An
intentional numeric change regenerates them from the new stdout and
says so in CHANGES.md, naming the commands whose bytes moved.
"""

import hashlib

import pytest

from chiralight.cli import main

GOLDEN = {
    "spectrum --preset fig2a --grid -10:10:2001":
        "48cfe07a4b8f2b95346c5571e14dc9f867d2c10e34d5ffa485618334cf8faf6f",
    "delay --preset fig7 --omega3 0.7,1,1.5,5 --mode both":
        "16fc83b63393c2d481d64bbe38a16c85d4dbff8d111cf8733bb83bc2cd3f3b0a",
    "crossover --preset fig7":
        "e6a280b8f089c4edc1d5b6c545df1aaf0cb6a0530a42702cdfe5648ccc98862f",
    "pulse --preset fig8ab":
        "c5a836fff2b287bcff678d05af3137cc298994176f1eba23484021476ddc1b6e",
    "pulse --preset fig8ab --vacuum":
        "757e4ac43528d9f272e31cf6f0b7d1f90b4461afda4e02f0eb98576c2e83e864",
    "calibrate --preset fig8ab --target 1415.65":
        "a7da884950948c0dfbbdf839723496852ab64ec7e58fbf58fc64f8b503480f91",
    "calibrate --preset fig8ab --target 1618.15 --mode hot --quantity n_0":
        "0ccf7abf56731c3a9122a110f188701c585a2a6f2f1f15339595ac3870fc7b22",
    "spectrum --preset fig4a --mode hot --grid -1:1:5":
        "7f295caa3b3bdb15e71c0224340f257a09cd48dfe3cfa7af720eb8d528889db1",
    "delay --preset fig8ab --mode hot":
        "cba7946328f5a479e6d57bdea2dd367c10c56a02fe4053748f2d32029c9f7080",
    "preset-dump fig2":
        "78b52a251fa1cd520e0f99ebe98bbabfe599ce876d062e76462fea66bb9d387a",
    "spectrum --preset fig2a --grid -1:1:5 --format json":
        "012ab38f6efccc9ff6f4a357e53bc367c34c5dab1027a572935a633f5c671405",
    "delay --preset fig7 --omega3 0.7,1,1.5,5 --mode both --format json":
        "986c28eefdbbcc0a4af708d49ab6af04e3fe233e1f50932842ccbaf9bf93dafa",
    "preset-dump":
        "55731dece43ae94b8d6d86836faa59dd6648ea08e7db1631499b2c3206d7bb34",
    "pulse --preset fig2a":
        "98b93050cebdf96f43908b48bf71b3cd90cefa5a245613cb644adcb633ae2bb7",
    "spectrum --preset fig2a --grid 0.3:5:1":
        "2b71f1617d184e8decede677e83987b7364d9583d346e6fb0f9823cfd98e215a",
    "spectrum --preset fig6 --vd 0,0.1 --grid -1:1:5":
        "38081f602406e93e731d8ffc9ed207fbb2c461935d0ce67deebefaa5d324efe9",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_readme_command_stdout_is_unchanged(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
