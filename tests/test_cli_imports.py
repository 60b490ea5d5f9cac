"""Import footprint: each command loads only the wpdcert layers it uses.

A query loads no layer it does not call: ``tube`` neither the lattice nor the
certifier, ``oracle`` neither the action nor the lattice, symbolic ``certify`` no field or map.

Every command runs in a fresh interpreter, which records the loaded modules,
runs ``cli.main`` on the argv and reports the modules that the command loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpdcert

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from wpdcert import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""

ROOT = {"wpdcert", "wpdcert.cli"}
AXIS = ROOT | {"wpdcert.lattice", "wpdcert.action", "wpdcert.report"}
CERTIFY = AXIS | {"wpdcert.certifier"}
SEARCH = CERTIFY | {"wpdcert.polymaps", "wpdcert.fields", "wpdcert._bruteforce"}

FOOTPRINTS = [
    ("orbit --n 3 --label q0 --iters 4", ROOT | {"wpdcert.lattice", "wpdcert.action"}),
    ("tube --lo 0 --hi 2 --radius 0.4 --z 1.0", ROOT | {"wpdcert.hyperbolic", "wpdcert.report"}),
    ("axis --n 2 --depth 4", AXIS),
    ("axis --n 2 --depth 4 --format csv", AXIS),
    ("geodesic --n 2 --depth 20 --t 0.4", AXIS | {"wpdcert.hyperbolic"}),
    ("certify --n 3 --depth 12", CERTIFY),
    ("certify --n 2 --depth 8 --prime 7", SEARCH),
    ("oracle --n 2 --prime 7", SEARCH - {"wpdcert.action", "wpdcert.lattice"}),
]


@pytest.mark.parametrize("command, expected", FOOTPRINTS, ids=[f[0] for f in FOOTPRINTS])
def test_command_loads_only_its_layers(command, expected):
    src = str(Path(wpdcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *command.split()],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    new = set(result["new"])
    assert {m for m in new if m == "wpdcert" or m.startswith("wpdcert.")} == expected
    assert "dataclasses" not in new
    # the CSV writer loads only for CSV output
    assert ("csv" in new) == ("--format csv" in command)
