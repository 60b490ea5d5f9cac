"""Command-line front end: flags, formats, determinism, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wpdcert
from wpdcert import certifier, cli
from wpdcert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_certify_has_no_eps_option(capsys):
    # the window is decided at eps_max alone, which decides every smaller eps
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--n", "2", "--depth", "8", "--eps", "0.2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        "wpdcert: error: unrecognized arguments: --eps 0.2"
    ]


def test_translation_tolerance_is_exact_past_float_underflow(capsys):
    # sqrt(2) 2^-(depth+1) underflows to 0.0 from depth 1074; the report prints
    # its exact square, the bound that the verdict is decided against
    code, out, err = run_cli(capsys, "certify", "--n", "2", "--depth", "1665")
    assert code == 0 and err == ""
    translation = json.loads(out)["translation"]
    tolerance_sq = Fraction(translation["tolerance_sq"])
    assert tolerance_sq == Fraction(2, 2 ** (2 * 1666)) != 0
    gap = Fraction(translation["cosh_value"]) - Fraction(translation["expected"])
    assert gap != 0
    assert translation["ok"] is (gap**2 <= tolerance_sq) is True


def test_projection_is_re_decided_from_the_printed_exact_values(capsys):
    # sqrt(2) 2^-(depth+1) underflows past depth 1074; the report prints the
    # exact cosh^2 d(l, w) = 2/w.w and the exact bound it is decided against
    code, out, err = run_cli(capsys, "certify", "--n", "2", "--depth", "1665")
    assert code == 0 and err == ""
    projection = json.loads(out)["projection"]
    tolerance = Fraction(projection["tolerance"])
    assert tolerance == Fraction(2, 2 ** (2 * 1666)) != 0
    gap = Fraction(projection["cosh_sq"]) - 2
    assert gap != 0
    assert projection["ok"] is (abs(gap) <= tolerance) is True


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "2", "--depth", "20", "--prime", "1000000009"],
        ["oracle", "--n", "2", "--prime", str(2**61 - 1)],
    ],
    ids=["certify", "oracle"],
)
def test_large_prime_is_refused_before_any_work(capsys, argv):
    # the search bound p <= 150 is checked first: the primality test of
    # 2^61 - 1 and the listing of roots of unity over F_1000000009 would
    # each take minutes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "infeasible" in json.loads(err)["error"]


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
    for label, message in (
        ("anon3", "cannot parse point label"),  # not a tower point
        ("q0@n3", "does not belong to the n=2 tower"),
    ):
        code, out, err = run_cli(capsys, "orbit", "--n", "2", "--label", label)
        assert code == 2 and out == ""
        assert message in json.loads(err)["error"]


def test_orbit_csv(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "3", "--label", "q0", "--iters", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "power,label,index"
    assert lines[1] == "1,q5@n3,5"


@pytest.mark.parametrize(
    "argv",
    ["certify --n 2 --depth 8 --prime 7", "axis --n 3 --depth 200", "oracle --n 2 --prime 7", "orbit --n 3 --label q0"],
)
def test_csv_rows_are_built_for_csv_output_only(monkeypatch, capsys, argv):
    built = []
    real = cli._emit

    def emit(payload, args, rows=None, passed=True):
        def counted():
            built.append(args.format)
            return rows()

        return real(payload, args, counted, passed)

    monkeypatch.setattr(cli, "_emit", emit)
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, *argv.split(), "--format", fmt)
        assert code == 0 and out
    assert built == ["csv"]


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


@pytest.mark.parametrize("t", ["0.4", "15", "20", "300", "-300", "354"])
def test_geodesic_unit_norm_error_is_relative(capsys, t):
    # B(p, p) - 1 over the point's squared Euclidean norm stays at rounding
    # level; unscaled, it grew like cosh(t)^2 (27.1 at t = 20)
    code, out, err = run_cli(capsys, "geodesic", "--n", "2", "--depth", "20", f"--t={t}")
    assert code == 0 and err == ""
    assert float(json.loads(out)["point_at_t"]["unit_norm_error"]) < 1e-14


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
        (f"certify --n {10**400}", "exceeds 10000"),  # past the float range of the window
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


def test_oracle_searches_characteristic_2_past_n_2(capsys):
    # over F_2 the candidates are the 4 translations, and only the identity survives
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--prime", "2")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["cardinality"] == 1 == len(data["bruteforce"])


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


def _readme_cli_commands():
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = (line.split("#", 1)[0].split() for line in block.splitlines())
    return [words[1:] for words in lines if words[:1] == ["wpdcert"]]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_examples_run(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    json.loads(out)


def _module_env():
    """The environment in which a fresh interpreter imports this wpdcert."""
    src = str(Path(wpdcert.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _run_module(command, **kwargs):
    """`python -m wpdcert.cli` on the argv, in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "wpdcert.cli", *command.split()],
        env=_module_env(),
        text=True,
        timeout=120,
        **kwargs,
    )


@pytest.mark.parametrize(
    "command",
    [
        "tube --lo 0 --hi 2 --radius 0.4 --z 1.0",
        "axis --n 2 --depth 4 --format csv",
        "certify --n 2 --depth 8 --prime 7",
        "oracle --n 2 --prime 7",
    ],
)
def test_module_entry_point_matches_main(capsys, command):
    # `python -m wpdcert.cli`, as the README and the benchmark run it, makes
    # cli the __main__ module, where every import inside a command must
    # resolve as well
    proc = _run_module(command, capture_output=True)
    code, out, err = run_cli(capsys, *command.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["axis --n 3 --depth 200", "orbit --n 3 --label q0 --iters 4"])
def test_closed_stdout_exits_2(command):
    # a reader that is gone: the axis report fails in its write, the small
    # orbit table at the flush; either way one error line and no shutdown noise
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module(command, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"].startswith("cannot write stdout: [Errno 32]")


def test_reader_that_closes_mid_report_exits_2():
    # the reader takes one byte of the 700 KB report and goes: the buffered
    # write that it cuts short returns a count without an error, and the rest
    # of the report must still meet the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "wpdcert.cli", "axis", "--n", "3", "--depth", "200"],
        env=_module_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.read(1) == "{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"].startswith("cannot write stdout: [Errno 32]")


def test_readme_lists_every_command():
    assert {argv[0] for argv in _readme_cli_commands()} == {
        "certify", "axis", "orbit", "geodesic", "tube", "oracle"
    }


# --- the exit-code contract on generated argv ---------------------------------

# Valid values, small invalid ones, and huge ones only where they cost no work:
# n or depth past the axis support bound (n past 500 for the Fix-set search,
# while orbit only adds to label indices), --iters past 10000, and a --prime
# past the search bound, which is refused before any primality test.
_HUGE = st.integers(10**4, 10**400)
_FLOAT = st.one_of(
    st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-3", "0.1", "0.4", "2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-3.0, 3.0).map(repr),
)
_N = st.one_of(st.integers(2, 6), st.integers(-3, 12), _HUGE)
_DEPTH = st.one_of(st.integers(2, 30), st.integers(-3, 40), _HUGE)
_PRIME = st.one_of(
    st.sampled_from([5, 7, 13, 17, 19, 31, 37, 41]), st.integers(-7, 40), _HUGE, st.sampled_from([1000000009, 2**61 - 1])
)
_COMMANDS = {
    "certify": {"n": _N, "depth": _DEPTH, "prime": _PRIME},
    "axis": {"n": _N, "depth": _DEPTH},
    "orbit": {
        "n": _N,
        "label": st.sampled_from(["q0", "p0", "p3", "q7", "anon3", "q0@n2", "p1@n3", "q-1", "zz", "", "q" + "9" * 30]),
        "iters": st.one_of(st.integers(-3, 12), _HUGE),
    },
    "geodesic": {"n": _N, "depth": _DEPTH, "t": _FLOAT},
    "tube": {  # tenths from a range where most queries are well posed, or any float
        name: st.one_of(st.integers(lo, hi).map(lambda k: repr(k / 10)), _FLOAT)
        for name, (lo, hi) in {
            "lo": (-30, 0), "hi": (1, 30), "radius": (0, 20), "z": (-30, 30),
            "inner-lo": (-30, 0), "inner-hi": (1, 30), "inner-radius": (0, 20),
            "eps": (0, 20), "eta": (1, 20), "length": (1, 20), "zlo": (-30, 0), "zhi": (1, 30), "w": (-30, 30),
        }.items()
    },
    "oracle": {"n": _N, "prime": _PRIME},
}
_TUBE_MODES = [
    ("lo", "hi", "radius", "z"),
    ("lo", "hi", "radius", "inner-lo", "inner-hi", "inner-radius"),
    ("exponents", "eps", "eta", "length", "zlo", "zhi", "w"),
]


@st.composite
def _cli_argv(draw):
    """(argv without --format, format): options in the --flag value or --flag=value form."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[command]
    if command == "tube":
        names = list(draw(st.sampled_from(_TUBE_MODES)))
        names += draw(st.lists(st.sampled_from(sorted(options) + ["exponents"]), max_size=1))
    else:  # a required option is left out one time in ten, any other half the time
        required = {"n", "label"} | ({"prime"} if command == "oracle" else set())
        names = [name for name in options if draw(st.integers(0, 9)) < (9 if name in required else 5)]
    argv = [command]
    for name in dict.fromkeys(names):
        if name == "exponents":
            argv.append("--exponents")
            continue
        value = str(draw(options[name]))
        argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
    return argv, draw(st.sampled_from(["json", "json", "csv", "xml"]))


def _run_in_process(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            assert exc.code == 2
            code = 2
    return code, out.getvalue()


@settings(max_examples=400, deadline=None)
@given(_cli_argv())
def test_generated_argv_keep_the_exit_code_contract(drawn):
    argv, fmt = drawn
    code, out = _run_in_process(argv + ["--format", fmt])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    if code == 1 and fmt == "csv":  # the verdict key is read from the JSON report
        code, out = _run_in_process(argv)
    if code == 1:
        payload = json.loads(out)
        assert False in (payload.get("passed"), payload.get("match"), payload.get("traverses"))
