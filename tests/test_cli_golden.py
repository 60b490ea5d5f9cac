"""Golden bytes: the sha256 of stdout and the exit code of canonical commands.

The hashes pin the reports byte for byte, so a refactor of the report or the
CLI that changes a single character fails here rather than in a hand diff.
Regenerate a hash only when a report is meant to change, and say why.
"""

import hashlib

import pytest

from wpdcert.cli import main

GOLDEN = [
    ("certify --n 2 --depth 8 --prime 7", 0, "e41718b2b2bbbe14c4a5d0b375682315ce8ac6f1290836864a9bb6363c616cf3"),
    ("certify --n 2 --depth 8 --prime 7 --format csv", 0, "dc3ee8af11e7ed4da7cecf803d301bf508f7c7972dfadb3a6cdc0d25f5fd24d8"),
    ("certify --n 3 --depth 12", 0, "9aa985899f4067c2613e7a540ae2029179b102023b8b45ca34df903c7ff849de"),
    ("certify --n 2 --depth 8 --eps 0.2", 0, "32b488eb7ea53ff2ccc0e6169e9d0d92e6649aa3caef13f67f44662d18e79bb6"),
    ("axis --n 2 --depth 4", 0, "f2dbdfb266eeabc7c122ee546a08933ab3155049713930d212b9b57a0cd72082"),
    ("axis --n 2 --depth 4 --format csv", 0, "868e4ab98e66cf468c3f354ad0a88238c51304608197c10683414c3774c09e34"),
    ("orbit --n 3 --label q0 --iters 4", 0, "2fcc2e12c6ae186204ededc7c813d93c771c3bc5e747fbbb0eca0673c38b178e"),
    ("geodesic --n 2 --depth 20 --t 0.4", 0, "276236fb381b2f051f1b773ea281a93fd1b2c1ec8caf857dcb443b0fe74dff30"),
    ("geodesic --n 2 --depth 20 --t 0.4 --format csv", 0, "fd91aebfdfbca672ded4c29317cc247e79d2642aaae70ba31ada473f7590e959"),
    ("tube --lo 0 --hi 2 --radius 0.4 --z 1.0", 0, "d580675ba0af65801e8f3508364959e0cf6f47a893e086c6bce0e7e15ccd6c20"),
    (
        "tube --lo -1 --hi 3 --radius 0.3 --inner-lo 0 --inner-hi 2 --inner-radius 0.3",
        0,
        "49c32f57722728a90bbc0f25bf6e23ce61600e8c03ee20b92c46f805dfce7d03",
    ),
    (
        "tube --exponents --eps 0.1 --eta 0.15 --length 0.693 --zlo -1 --zhi 1 --w 0",
        0,
        "8f266270e8217a3a3470028113a62211de8ee1be226025edca2c82446a646278",
    ),
    (
        "tube --lo -0.1 --hi 2.1 --radius 1.5 --inner-lo 0 --inner-hi 2 --inner-radius 0.05",
        1,
        "c07ef9f913cc74e11dfe4af19e758abf29bda44a15b7339a42a66534544e52f4",
    ),
    ("oracle --n 2 --prime 7", 0, "925b7868d5be4ff5a1a8d49b6b8e58038fb70aed74857d532531bca97a9796dd"),
    ("oracle --n 2 --prime 7 --format csv", 0, "dc3ee8af11e7ed4da7cecf803d301bf508f7c7972dfadb3a6cdc0d25f5fd24d8"),
    # the benchmark's largest report (about 700 KB), and Fix-set records over F_17
    ("axis --n 3 --depth 200", 0, "94b27191e66159a1cf9a348bf2332851712301df04ed78802244d9a3c34fcffd"),
    ("oracle --n 3 --prime 17", 0, "9b1ac356362648b558b4f7f82f20c432034d0dd18c5fad92b411f5efe4b5464a"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_and_exit_code_are_pinned(capsys, command, code, digest):
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
