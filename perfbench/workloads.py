"""The three benchmark workloads: inputs from a seed, one task, its checks.

Every expected value is computed here from the mathematics, never read back
from the program: the axis pairings from n and depth, the worst cases from n,
the Fix set from ``pow``.  A task returns the start and end of its timed call
and the list of checks it missed; an exception inside a task counts as one
miss.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

#: certify(n, depth) inputs: each n's depth range is cut into equal strata
#: and one depth is drawn near the centre of each, within a tenth of the
#: stratum, so every seed runs nearly the same sizes.  The caps keep every
#: task below the ROADMAP target (2, 800), which is always run, so
#: task_max_s follows that target.
DEPTH_RANGES = {2: (50, 400), 3: (50, 250), 5: (50, 120)}
DEPTH_TARGET = (2, 800)
DEPTH_STRATA = 2

#: Admissible (p = 1 mod n^2 - 1) cases go through certify at depth 20; the
#: others through the oracle path.
PRIME_CERTIFY = ((2, 7), (2, 13), (3, 17))
PRIME_ORACLE = ((2, 11), (3, 5), (3, 7))
PRIME_DEPTH = 20


def expected_fix_set(n: int, p: int) -> list:
    """{(a, 0, a^n, 0) : a^(n^2-1) = 1 mod p}, sorted."""
    return [(a, 0, pow(a, n, p), 0) for a in range(1, p) if pow(a, n * n - 1, p) == 1]


def fix_tuples(maps) -> list:
    """(a, b, c, d) of each map (a x + b, c y + d), read from the coefficient dicts."""
    return sorted(
        (
            f.comp_x.coeffs.get((1, 0), 0),
            f.comp_x.coeffs.get((0, 0), 0),
            f.comp_y.coeffs.get((0, 1), 0),
            f.comp_y.coeffs.get((0, 0), 0),
        )
        for f in maps
    )


def check_certificate(rep, n: int, depth: int) -> list:
    tail = Fraction(1, n ** (2 * depth + 2))
    facts = rep.axis_facts
    misses = []
    if rep.passed is not True:
        misses.append("passed is not true")
    if facts["b_plus_self"] != tail or facts["b_minus_self"] != tail:
        misses.append("b+.b+ or b-.b- differs from n^(-2d-2)")
    if facts["b_cross"] != 1:
        misses.append("b+.b- differs from 1")
    if facts["w_norm_sq"] != 1 + tail:
        misses.append("w.w differs from 1 + n^(-2d-2)")
    if rep.worst_case[3]["worst_case"] != -3:
        misses.append("degree-3 worst case differs from -3")
    if rep.worst_case[2]["worst_case"] != Fraction(-2) + Fraction(1, n):
        misses.append("degree-2 worst case differs from -2 + 1/n")
    return misses


def check_fix_set(maps, n: int, p: int, what: str) -> list:
    if fix_tuples(maps) != expected_fix_set(n, p):
        return [f"{what} Fix set over F_{p} differs from {{(a, 0, a^{n}, 0)}}"]
    return []


class DepthSweep:
    """Symbolic certify(n, depth): the axis, lattice and action layers; no kernel."""

    name = "depth-sweep"
    work_unit = "axis terms 2(2n-1)(depth+1)"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        if tiny:
            self.tasks = [(2, 8), (3, 5), (5, 3)]
        else:
            self.tasks = [DEPTH_TARGET]
            for n, (lo, hi) in DEPTH_RANGES.items():
                width = (hi - lo) / DEPTH_STRATA
                for i in range(DEPTH_STRATA):
                    centre = lo + (i + 0.5) * width
                    self.tasks.append((n, round(centre + rng.uniform(-0.05, 0.05) * width)))
        rng.shuffle(self.tasks)
        self.warmup = (2, 4) if tiny else (2, 50)

    def label(self, task):
        return f"certify.n{task[0]}.d{task[1]}"

    def scaling_key(self, task):
        return ("depth", task[0], task[1])

    def work(self, task):
        n, depth = task
        return 2 * (2 * n - 1) * (depth + 1)

    def run(self, mods, task):
        n, depth = task
        t0 = perf_counter()
        rep = mods.certifier.certify(n, depth)
        t1 = perf_counter()
        return t0, t1, check_certificate(rep, n, depth)


class PrimeSearch:
    """certify(n, 20, p) and the oracle path: the kernel, polymaps and fields layers."""

    name = "prime-search"
    work_unit = "affine candidates p^2 (p-1)^2"

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            self.tasks = [("certify", 2, 7), ("oracle", 3, 5)]
        else:
            self.tasks = [("certify", n, p) for n, p in PRIME_CERTIFY]
            self.tasks += [("oracle", n, p) for n, p in PRIME_ORACLE]
        random.Random(seed).shuffle(self.tasks)
        self.warmup = ("oracle", 3, 5)

    def label(self, task):
        return f"{task[0]}.n{task[1]}.p{task[2]}"

    def scaling_key(self, task):
        return ("prime", task[1], task[2])

    def work(self, task):
        p = task[2]
        return p * p * (p - 1) * (p - 1)

    def run(self, mods, task):
        kind, n, p = task
        certifier = mods.certifier
        t0 = perf_counter()
        if kind == "certify":
            rep = certifier.certify(n, PRIME_DEPTH, p)
            t1 = perf_counter()
            misses = check_certificate(rep, n, PRIME_DEPTH)
            misses += check_fix_set(rep.fix_bruteforce, n, p, "searched")
            misses += check_fix_set(rep.fix_symbolic, n, p, "symbolic")
        else:
            searched = certifier.fix_set_bruteforce(n, p)
            symbolic = certifier.fix_set_symbolic(n, p)
            t1 = perf_counter()
            misses = check_fix_set(searched, n, p, "searched")
            misses += check_fix_set(symbolic, n, p, "symbolic")
        return t0, t1, misses


def cli_commands(rng: random.Random, tiny: bool = False) -> list:
    """The README's canonical commands, with parameters drawn from rng."""

    def real(lo, hi):
        return f"{rng.uniform(lo, hi):.3f}"

    if tiny:
        return [
            ["certify", "--n", "2", "--depth", "4", "--prime", "7"],
            ["orbit", "--n", "3", "--label", "q0", "--iters", str(rng.randint(2, 6))],
            ["tube", "--lo", "0", "--hi", "2", "--radius", "0.4", "--z", real(0.5, 1.5)],
        ]
    def depth():  # near the README's depth 20
        return str(rng.randint(18, 22))

    commands = [
        ["certify", "--n", "3", "--depth", depth()],
        ["certify", "--n", "2", "--depth", "20", "--prime", "7"],  # the slowest; kept fixed
        ["axis", "--n", "2", "--depth", depth()],
        ["orbit", "--n", "3", "--label", rng.choice(("q0", "q1", "p0", "p2")), "--iters", str(rng.randint(2, 8))],
        ["geodesic", "--n", "2", "--depth", depth(), "--t", real(0.1, 1.0)],
        ["tube", "--lo", "0", "--hi", "2", "--radius", real(0.3, 0.5), "--z", real(0.5, 1.5)],
        ["tube", "--lo", "-1", "--hi", "3", "--radius", "0.3", "--inner-lo", "0", "--inner-hi", "2",
         "--inner-radius", real(0.3, 0.4)],
        ["tube", "--exponents", "--eps", "0.1", "--eta", real(0.12, 0.2), "--length", "0.693",
         "--zlo", "-1", "--zhi", "1", "--w", "0"],
        ["oracle", "--n", "2", "--prime", "5"],
        ["axis", "--n", "3", "--depth", "200"],  # large output: 700 KB of JSON
    ]
    rng.shuffle(commands)
    return commands


def check_cli_payload(argv, payload) -> list:
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2])) if command != "tube" else {}
    misses = []
    if command == "certify" and payload.get("passed") is not True:
        misses.append("certify: passed is not true")
    if command == "oracle":
        n, p = int(opts["--n"]), int(opts["--prime"])
        expected = [list(map(str, t)) for t in expected_fix_set(n, p)]
        found = sorted([e["a"], e["b"], e["c"], e["d"]] for e in payload["bruteforce"])
        if payload.get("match") is not True or found != expected:
            misses.append("oracle: searched Fix set differs from {(a, 0, a^n, 0)}")
    if command == "axis":
        n, depth = int(opts["--n"]), int(opts["--depth"])
        tail = Fraction(1, n ** (2 * depth + 2))
        if payload["b_plus_dot_b_minus"] != "1" or payload["w_norm_sq"] != str(1 + tail):
            misses.append("axis: b+.b- or w.w differs from the exact value")
    if command == "orbit":
        n = int(opts["--n"])
        start = int(opts["--label"][1:])
        steps = range(1, int(opts["--iters"]) + 1)
        if [e["index"] for e in payload["orbit"]] != [start + i * (2 * n - 1) for i in steps]:
            misses.append("orbit: indices are not spaced by 2n-1")
    if command == "tube" and payload.get("traverses") is False:
        misses.append("tube: traversal failed")
    return misses


class CliCanonical:
    """`python -m wpdcert.cli` per command: interpreter start, import, report and JSON."""

    name = "cli-canonical"
    work_unit = "commands"

    def __init__(self, seed: int, tiny: bool = False, root=None, env=None):
        self.tasks = cli_commands(random.Random(seed), tiny)
        self.warmup = ["orbit", "--n", "2", "--label", "q0", "--iters", "1"]
        self.root = root
        self.env = env
        self.in_process = False  # traced runs call cli.main in this process
        self.outputs = {}
        self.bytes_out = 0

    def label(self, task):
        return " ".join(task)

    def startup_probe(self, gauge, reps: int = 5):
        """Median interpreter start, and median extra time to import wpdcert.cli."""

        def wall(code):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True, timeout=60)
            return gauge.scaled(t0, perf_counter())

        interpreter = statistics.median(wall("pass") for _ in range(reps))
        with_import = statistics.median(wall("import wpdcert.cli") for _ in range(reps))
        return interpreter, with_import - interpreter

    def scaling_key(self, task):
        return ("command",) + tuple(task)

    def work(self, task):
        return 1

    def run(self, mods, task):
        if self.in_process:
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(buf):
                    code = mods.cli.main(list(task))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            t1 = perf_counter()
            out = buf.getvalue().encode()
        else:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "wpdcert.cli", *task],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                timeout=120,
            )
            t1 = perf_counter()
            code, out = proc.returncode, proc.stdout
        self.bytes_out += len(out)
        return t0, t1, self.check(task, code, out)

    def check(self, task, code, out: bytes) -> list:
        if code != 0:
            return [f"exit code {code}"]
        first = self.outputs.setdefault(tuple(task), out)
        misses = [] if first == out else ["stdout differs from the first run of the same argv"]
        try:
            payload = json.loads(out)
        except ValueError:
            return misses + ["stdout is not JSON"]
        return misses + check_cli_payload(task, payload)


WORKLOADS = {w.name: w for w in (DepthSweep, PrimeSearch, CliCanonical)}
