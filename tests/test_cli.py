"""Command-line front end: flags, formats, determinism, exit codes."""

import json
import math

import pytest

from wpdcert import certifier
from wpdcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_json_pass(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", "2", "--depth", "8", "--prime", "7")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["passed"] is True
    assert data["field"] == "Fp:7"
    assert data["fix_set"]["cardinality"] == 3
    # reals carry 12 significant digits
    assert data["star_window"]["eps_max"] == "0.289715917385"


def test_certify_char_divides_n_exits_2(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", "2", "--prime", "2")
    assert code == 2
    assert out == ""
    assert "characteristic divides n" in json.loads(err)["error"]


def test_certify_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "certify", "--n", "2", "--depth", "6", "--prime", "7")
    _, out2, _ = run_cli(capsys, "certify", "--n", "2", "--depth", "6", "--prime", "7")
    assert out1 == out2


def test_orbit_table(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "3", "--label", "q0", "--iters", "4")
    assert code == 0
    data = json.loads(out)
    assert [e["index"] for e in data["orbit"]] == [5, 10, 15, 20]
    assert [e["label"] for e in data["orbit"]] == ["q5@n3", "q10@n3", "q15@n3", "q20@n3"]
    # p-family iterates in its natural (inverse) direction
    code, out, _ = run_cli(capsys, "orbit", "--n", "2", "--label", "p1", "--iters", "2")
    data = json.loads(out)
    assert [e["index"] for e in data["orbit"]] == [4, 7]
    assert [e["power"] for e in data["orbit"]] == [-1, -2]


def test_orbit_out_of_domain_exits_2(capsys):
    code, _, err = run_cli(capsys, "orbit", "--n", "2", "--label", "anon3")
    assert code == 2 and "orbit" in json.loads(err)["error"]


def test_orbit_csv(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "3", "--label", "q0", "--iters", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "power,label,index"
    assert lines[1] == "1,q5@n3,5"


def test_axis_report(capsys):
    code, out, _ = run_cli(capsys, "axis", "--n", "2", "--depth", "4")
    assert code == 0
    data = json.loads(out)
    assert data["b_plus_dot_b_minus"] == "1"
    assert data["w_norm_sq"] == "1025/1024"  # 1 + 2^-10
    assert data["w_scaled"]["ell"] == "2"


def test_geodesic_report(capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--n", "2", "--depth", "20", "--t", "0.4")
    assert code == 0
    data = json.loads(out)
    assert data["distance_l_to_axis"].startswith("0.8813735870")
    assert data["point_at_t"]["distance_from_l"] == "0.4"


@pytest.mark.parametrize(
    "t, message",
    [
        ("nan", "is not finite"),
        ("inf", "is not finite"),
        ("-inf", "is not finite"),
        ("700", "overflows floats"),  # the point's self-pairing overflowed to nan
        ("711", "overflows floats"),  # cosh(t) itself overflows
        ("-711", "overflows floats"),
    ],
)
def test_geodesic_point_past_float_range_exits_2(capsys, t, message):
    code, out, err = run_cli(capsys, "geodesic", "--n", "2", "--depth", "20", f"--t={t}")
    assert code == 2 and out == ""
    assert message in json.loads(err)["error"]


def test_geodesic_point_near_float_range_is_finite(capsys):
    code, out, err = run_cli(capsys, "geodesic", "--n", "2", "--depth", "20", "--t", "350")
    assert code == 0 and err == ""
    assert all(math.isfinite(float(v)) for v in json.loads(out)["point_at_t"].values())


def test_tube_queries(capsys):
    code, out, _ = run_cli(capsys, "tube", "--lo", "0", "--hi", "2", "--radius", "0.4", "--z", "1.0")
    assert code == 0
    assert "radius" in json.loads(out)

    code, out, _ = run_cli(
        capsys, "tube", "--lo", "-1", "--hi", "3", "--radius", "0.3",
        "--inner-lo", "0", "--inner-hi", "2", "--inner-radius", "0.3",
    )
    assert code == 0
    assert json.loads(out)["traverses"] is True

    # a failed traversal is a failed verdict
    code, out, _ = run_cli(
        capsys, "tube", "--lo", "-0.1", "--hi", "2.1", "--radius", "1.5",
        "--inner-lo", "0", "--inner-hi", "2", "--inner-radius", "0.05",
    )
    assert code == 1
    assert json.loads(out)["traverses"] is False

    code, out, _ = run_cli(
        capsys, "tube", "--exponents", "--eps", "0.1", "--eta", "0.15",
        "--length", "0.693", "--zlo", "-1", "--zhi", "1", "--w", "0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True and data["exponents"]["N"] >= 1

    code, _, err = run_cli(capsys, "tube", "--lo", "0", "--hi", "1", "--radius", "0.1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "tube --lo 0 --hi 2000 --radius 0.4 --z 1000",
        "tube --exponents --eps 0.5 --eta 0.15 --length 0.693 --zlo -1000 --zhi 1000 --w 0",
    ],
)
def test_tube_past_cosh_overflow_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    data = json.loads(out)
    if "radius" in data:
        assert data["radius"] == "0"
    else:
        assert data["exponents"]["N"] == data["exponents"]["M"] > 1000
        assert all(math.isfinite(float(v)) for v in data["outer"].values())


@pytest.mark.parametrize(
    "argv",
    [
        "tube --lo 0 --hi 2 --radius nan --z 1",
        "tube --lo 0 --hi 2 --radius 0.4 --z nan",
        "tube --lo 0 --hi inf --radius 0.4 --z 1",
        "tube --lo -1 --hi 3 --radius 0.3 --inner-lo 0 --inner-hi 2 --inner-radius nan",
        "tube --exponents --eps 0.1 --eta 0.15 --length 0.693 --zlo -1 --zhi 1 --w inf",
    ],
)
def test_non_finite_tube_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "finite" in json.loads(err)["error"]


def test_tube_exponents_past_float_resolution_exits_2(capsys):
    # N*L with N ~ 1e300 has lost all precision: no traversal can be verified
    argv = "tube --exponents --eps 0.1 --eta 0.15 --length 1e-300 --zlo -1 --zhi 1 --w 0"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "2**53" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        "certify --n 3 --depth 999",  # support 2(2n-1)(depth+1) = 10000, the bound
        "orbit --n 3 --label q0 --iters 10000",
        "certify --n 100 --depth 2",  # n^2 - 1 = 9999 symbolic Fix-set maps
        "oracle --n 101 --prime 5",  # over F_p at most p - 1 maps
        "oracle --n 500 --prime 7",  # the largest n of the Fix-set search
    ],
)
def test_size_bounds_admit_their_limit(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == "" and out


@pytest.mark.parametrize(
    "argv, message",
    [
        ("certify --n 3 --depth 1000", "= 10010 exceeds 10000"),  # one level past the bound
        ("axis --n 2 --depth 1666", "= 10002 exceeds 10000"),
        ("geodesic --n 2 --depth 1666", "= 10002 exceeds 10000"),
        ("certify --n 2 --depth 100000", "= 600006 exceeds 10000"),
        ("certify --n 5000 --depth 2", "= 59994 exceeds 10000"),
        ("orbit --n 3 --label q0 --iters 10001", "--iters <= 10000"),
        ("certify --n 101 --depth 2", "= 10200 exceeds 10000"),
        ("oracle --n 501 --prime 7", "needs n <= 500, got n = 501"),
        ("oracle --n 100000 --prime 7", "needs n <= 500, got n = 100000"),
    ],
)
def test_size_bounds_exit_2_past_their_limit(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert message in json.loads(err)["error"]


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--prime", "5")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["cardinality"] == 1
    assert data["oracle_count"] == 25 * 16

    code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--prime", "7", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "source,a,b,c,d"
    assert "symbolic,1,0,1,0" in lines and "bruteforce,2,0,4,0" in lines


def test_oracle_accepts_large_n(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "17", "--prime", "5")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["cardinality"] == 4 == len(data["bruteforce"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "axis", "--n", "2", "--depth", "3", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "certify", "--n", "2", "--depth", "3", "--output", str(target))
    assert code == 2 and out == ""
    assert "cannot write --output" in json.loads(err)["error"]
    assert not target.exists()


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_orbit_needs_positive_iters(capsys, iters):
    code, out, err = run_cli(capsys, "orbit", "--n", "3", "--label", "q0", "--iters", iters)
    assert code == 2 and out == ""
    assert "--iters" in json.loads(err)["error"]


def test_failed_monotonicity_exits_1(monkeypatch, capsys):
    real = certifier.fix_monotonicity_check
    monkeypatch.setattr(certifier, "fix_monotonicity_check", lambda *a: real(*a) | {"ok": False})
    code, out, err = run_cli(capsys, "certify", "--n", "2", "--depth", "8", "--prime", "7")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["passed"] is False
    assert data["verdicts"]["monotonicity_ok"] is False
    assert data["monotonicity"]["ok"] is False
    assert all(v for k, v in data["verdicts"].items() if k != "monotonicity_ok")


def test_oracle_mismatch_exits_1(monkeypatch, capsys):
    real = certifier.fix_set_bruteforce
    monkeypatch.setattr(certifier, "fix_set_bruteforce", lambda n, p: real(n, p)[:-1])
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--prime", "7")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["match"] is False
    assert data["cardinality"] == 2
