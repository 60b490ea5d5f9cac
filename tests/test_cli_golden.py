"""Golden bytes: the sha256 of stdout and the exit code of canonical commands.

The hashes pin the reports byte for byte, so a refactor of the report or the
CLI that changes a single character fails here rather than in a hand diff.
Regenerate a hash only when a report is meant to change, and say why.
"""

import hashlib

import pytest

from wpdcert.cli import main

GOLDEN = [
    ("certify --n 2 --depth 8 --prime 7", 0, "3441d9e77ef7939aa90d3f9433bc58c6e85fd528f90c8e81da17eb7dac1d0919"),
    ("certify --n 2 --depth 8 --prime 7 --format csv", 0, "dc3ee8af11e7ed4da7cecf803d301bf508f7c7972dfadb3a6cdc0d25f5fd24d8"),
    ("certify --n 3 --depth 12", 0, "40d0d1f5b51240b15bf850144b939f718650c3b749221fea189ac50e42f2452f"),
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
    ("oracle --n 2 --prime 7", 0, "d5923b8fda90e97cdd2e12c761b044fe1daab8f76a8f240f672ddb36f510987f"),
    ("oracle --n 2 --prime 7 --format csv", 0, "dc3ee8af11e7ed4da7cecf803d301bf508f7c7972dfadb3a6cdc0d25f5fd24d8"),
    # the benchmark's largest report (about 700 KB), and Fix-set records over F_17
    ("axis --n 3 --depth 200", 0, "94b27191e66159a1cf9a348bf2332851712301df04ed78802244d9a3c34fcffd"),
    ("oracle --n 3 --prime 17", 0, "cc1c86b3a2e14ef178b38b09a70327ac62f200b259595a70130ec777732be202"),
    # large depths, where the n^(2d+2) denominators and the insertion order of
    # w_scaled (which the geodesic point's float sums follow) show
    ("certify --n 2 --depth 800", 0, "f062277a822d15b634b4e1f238ec92102c559fdb51d7cc8b77672ab9883073bf"),
    ("certify --n 5 --depth 120 --format csv", 0, "26c6904c52657110cf8d0f16f36790955c769d573096c9ec9b968721aa2a8f46"),
    ("geodesic --n 3 --depth 200 --t 0.4", 0, "df9513c5ca3c48e21d2bd4e949321c3251bf588a0fc21e653425f0d5a88f16b3"),
    ("axis --n 2 --depth 800 --format csv", 0, "3b9cf1a948428168b0af81405813fbeefeca5bd8c4cf6eb7a3065cf40dc664ed"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_and_exit_code_are_pinned(capsys, command, code, digest):
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
