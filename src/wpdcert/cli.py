"""Command-line front end: certification pipeline, axis/orbit tables, geometry queries.

Exit codes: 0 when the command's verdict passes (or the command is a pure
query), 1 when it fails, 2 on invalid parameters or an unwritable --output.
The verdict is ``passed`` for certify, ``match`` for oracle and ``traverses``
for a tube traversal.  JSON is the canonical format; CSV flattens the tabular
sections.  Reals are printed with 12 significant digits, rationals exactly,
so output is byte-stable.

Each command imports the layers it uses when it runs, and ``_emit`` imports
``csv`` only for CSV output, so that a query such as ``orbit`` or ``tube``
does not pay for loading the certifier or the lattice.

``_emit`` is the one writer of a report.  It writes JSON through ``_dumps``,
which returns ``json.dumps(v, indent=2)`` byte for byte but lets json's C
encoder write each flat container and each list of flat records in one call
(``indent`` alone would select json's pure-Python encoder).  A closed or
full stdout is an unwritable output like a bad ``--output``: exit 2 with the
error on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from itertools import chain


#: largest --iters of the orbit command (its output grows linearly)
MAX_ORBIT_ITERS = 10_000

#: the types json writes as scalars, without a call to ``default``
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _c_encode(v, indent: str) -> str:
    """One call of json's C encoder, with ``indent`` after each item comma."""
    return json.JSONEncoder(separators=("," + indent, ": ")).encode(v)


def _key(k) -> str:
    """A dict key as json writes it: int, float, bool and None keys as their JSON text."""
    if not isinstance(k, str):
        if k is not None and not isinstance(k, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = _c_encode(k, "")
    return _c_encode(k, "")


def _dumps(v, level: int = 0) -> str:
    """``json.dumps(v, indent=2)``, byte for byte, with the work in json's C encoder.

    The C encoder writes each container whose members are all scalars in one
    call, with the newline and indent of the members in its item separator.
    A list of non-empty dicts of scalars (the ``exc`` records of a class, the
    Fix-set maps) is also one call, made with the separator of the records'
    members; one ``str.replace`` then re-cuts the record boundaries.  That is
    sound because a raw newline only ever comes from a separator (json
    escapes it inside strings), no scalar ends in ``}`` and no key starts
    with ``{``.  Everything else recurses.
    """
    is_dict = isinstance(v, dict)
    if not is_dict and not isinstance(v, (list, tuple)):
        return _c_encode(v, "")
    if not v:
        return "{}" if is_dict else "[]"
    outer = "\n" + "  " * level
    inner = outer + "  "
    types = set(map(type, v.values() if is_dict else v))
    if types <= _SCALARS:
        text = _c_encode(v, inner)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if not is_dict and types == {dict} and all(v):
        if set(map(type, chain.from_iterable(map(dict.values, v)))) <= _SCALARS:
            deep = inner + "  "
            text = _c_encode(v, deep).replace("}," + deep + "{", inner + "}," + inner + "{" + deep)
            return "[" + inner + "{" + deep + text[2:-2] + inner + "}" + outer + "]"
    if is_dict:
        parts = [_key(k) + ": " + _dumps(x, level + 1) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    return "[" + inner + ("," + inner).join([_dumps(x, level + 1) for x in v]) + outer + "]"


def _emit(payload: dict, args, rows=None, passed: bool = True) -> int:
    """Write the formatted payload as JSON or CSV to --output or stdout.

    ``rows`` builds the CSV (header, data) and is called for CSV output only;
    by default the payload is flattened to key/value pairs.  ``passed`` is the
    command's verdict (queries pass): exit 0 if it holds, 1 if not.  A report
    that cannot be written, to --output or to stdout, raises ``ValueError``.
    """
    if args.format == "csv":
        import csv

        header, data = rows() if rows else (("key", "value"), _kv_rows(payload))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)
        text = buf.getvalue()
    else:
        text = _dumps(payload) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output: {exc}") from exc
    else:
        # a reader that closes mid-write cuts a write short with no error and a text
        # stream drops the count, so the bytes go out until the pipe takes or refuses them
        out = getattr(sys.stdout, "buffer", None)
        try:
            if out is None:  # an in-memory text stream
                sys.stdout.write(text)
            else:
                sys.stdout.flush()
                data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    written = out.write(data)
                    if not written:
                        raise OSError("stdout took no bytes")
                    data = data[written:]
                out.flush()
        except OSError as exc:
            # the text left in the buffer would fail again at shutdown
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ValueError(f"cannot write stdout: {exc}") from exc
    return 0 if passed else 1


def _kv_rows(payload: dict, prefix=""):
    rows = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_kv_rows(value, prefix=name + "."))
        elif isinstance(value, list):
            rows.append((name, json.dumps(value)))
        else:
            rows.append((name, value))
    return rows


def _fix_rows(symbolic, bruteforce):
    """CSV rows (source, a, b, c, d) of formatted Fix-set maps."""
    rows = []
    for source, maps in (("symbolic", symbolic), ("bruteforce", bruteforce or [])):
        for e in maps:
            if "a" in e:
                rows.append((source, e["a"], e["b"], e["c"], e["d"]))
            else:
                rows.append((source, e["a_exponent"], "", e["c_exponent"], ""))
    return (("source", "a", "b", "c", "d"), rows)


def _cmd_certify(args) -> int:
    from . import certifier

    rep = certifier.certify(args.n, depth=args.depth, p=args.prime)
    payload = rep.to_json_dict()
    fix_set = payload["fix_set"]
    return _emit(payload, args, lambda: _fix_rows(fix_set["symbolic"], fix_set["bruteforce"]), rep.passed)


def _cmd_axis(args) -> int:
    from . import report
    from .action import axis_classes, axis_pairings

    axis = axis_classes(args.n, args.depth)
    pairs = axis_pairings(axis)
    payload = report.to_json(
        {
            "n": axis.n,
            "depth": axis.depth,
            "tail_norm_sq": axis.tail_norm_sq,
            "b_plus_dot_b_minus": pairs["b_cross"],
            "b_plus_self": pairs["b_plus_self"],
            "w_norm_sq": pairs["w_norm_sq"],
            "b_plus": axis.b_plus,
            "b_minus": axis.b_minus,
            "r": axis.r,
            "w_scaled": axis.w_scaled,
        }
    )

    def rows():
        data = []
        for name in ("b_plus", "b_minus", "r", "w_scaled"):
            cls = payload[name]
            data.append((name, "l", cls["ell"]))
            data.extend((name, e["label"], e["coeff"]) for e in cls["exc"])
        return ("class", "label", "coeff"), data

    return _emit(payload, args, rows)


def _parse_orbit_label(text: str, n: int):
    from .lattice import parse_label

    text = text.strip()
    if "@" not in text:
        text = f"{text}@n{n}"
    return parse_label(text)


def _cmd_orbit(args) -> int:
    from .action import orbit_label

    if not 1 <= args.iters <= MAX_ORBIT_ITERS:
        raise ValueError(f"need 1 <= --iters <= {MAX_ORBIT_ITERS}")
    label = _parse_orbit_label(args.label, args.n)
    direction = 1 if label.family == "q" else -1
    entries = []
    for i in range(1, args.iters + 1):
        image = orbit_label(args.n, label, direction * i)
        entries.append({"power": direction * i, "label": str(image), "index": image.index})
    payload = {"n": args.n, "start": str(label), "orbit": entries}
    header = ("power", "label", "index")
    return _emit(payload, args, lambda: (header, [tuple(e[key] for key in header) for e in entries]))


def _cmd_geodesic(args) -> int:
    from . import report
    from .action import axis_classes, axis_pairings

    axis = axis_classes(args.n, args.depth)
    w_norm_sq = axis_pairings(axis)["w_norm_sq"]
    cosh_sq = 2 / w_norm_sq  # a Fraction, as w_norm_sq is
    payload = {
        "n": args.n,
        "depth": args.depth,
        "distance_l_to_axis": math.acosh(math.sqrt(float(cosh_sq))),
        "expected": math.acosh(math.sqrt(2.0)),
        "cosh_sq_exact": cosh_sq,
    }
    if args.t is not None:
        from . import hyperbolic
        from .lattice import line_class

        ell = hyperbolic.as_vector(line_class())
        w_hat = hyperbolic.as_vector(axis.w_scaled) * (1.0 / math.sqrt(float(w_norm_sq) * 2.0))
        point = hyperbolic.geodesic_point(ell, w_hat, args.t)
        # B(p, p) cancels terms of size |p|^2, so its error is relative to that
        norm_sq = point.ell * point.ell + sum(v * v for v in point.exc.values())
        payload["point_at_t"] = {
            "t": args.t,
            "distance_from_l": hyperbolic.distance(ell, point),
            "unit_norm_error": abs(hyperbolic.mdot(point, point) - 1.0) / norm_sq,
        }
    return _emit(report.to_json(payload), args)


def _cmd_tube(args) -> int:
    from . import hyperbolic, report

    modes = [args.z is not None, args.inner_lo is not None, args.exponents]
    if sum(modes) != 1:
        raise ValueError("pick exactly one tube mode: --z, --inner-*, or --exponents")
    if args.exponents:
        needed = (args.eps, args.eta, args.length, args.zlo, args.zhi, args.w)
        if any(v is None for v in needed):
            raise ValueError("--exponents needs --eps --eta --length --zlo --zhi --w")
        n_exp, m_exp = hyperbolic.wpd_exponents(args.eps, args.eta, args.length, args.zlo, args.zhi, args.w)
        payload = {
            "exponents": {"N": n_exp, "M": m_exp},
            "outer": {
                "lo": args.w - n_exp * args.length + args.eps,
                "hi": args.w + m_exp * args.length - args.eps,
                "end_radius": args.eps,
            },
            # informational: wpd_exponents raises rather than return unverified exponents
            "verified": True,
        }
        return _emit(report.to_json(payload), args)
    if None in (args.lo, args.hi, args.radius):
        raise ValueError("tube queries need --lo --hi --radius")
    outer = hyperbolic.Tube(args.lo, args.hi, args.radius)
    if args.z is not None:
        payload = {"tube": outer._asdict(), "z": args.z, "radius": hyperbolic.tube_radius(outer, args.z)}
        return _emit(report.to_json(payload), args)
    if None in (args.inner_hi, args.inner_radius):
        raise ValueError("traversal queries need --inner-lo --inner-hi --inner-radius")
    inner = hyperbolic.Tube(args.inner_lo, args.inner_hi, args.inner_radius)
    traverses = hyperbolic.tube_traverses(outer, inner)
    payload = {"outer": outer._asdict(), "inner": inner._asdict(), "traverses": traverses}
    return _emit(report.to_json(payload), args, passed=traverses)


def _cmd_oracle(args) -> int:
    from . import certifier, report

    symbolic = certifier.fix_set_symbolic(args.n, args.prime)
    brute = certifier.fix_set_bruteforce(args.n, args.prime)
    match = symbolic == brute
    payload = report.to_json(
        {
            "n": args.n,
            "prime": args.prime,
            "oracle_count": certifier.oracle_count(args.prime),
            "cardinality": len(brute),
            "symbolic": symbolic,
            "bruteforce": brute,
            "match": match,
        }
    )
    return _emit(payload, args, lambda: _fix_rows(payload["symbolic"], payload["bruteforce"]), match)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpdcert",
        description="Exact-arithmetic certifier for the discrete action along the axis of (x, y) -> (y, y^n - x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the report to this path instead of stdout")
        return p

    p = common(sub.add_parser("certify", help="run the full certification pipeline"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--prime", type=int, default=None, help="prime p = 1 (mod n^2-1), p not dividing n; omit for symbolic mode")
    p.set_defaults(func=_cmd_certify)

    p = common(sub.add_parser("axis", help="truncated axis classes and their exact pairings"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.set_defaults(func=_cmd_axis)

    p = common(sub.add_parser("orbit", help="orbit of an exceptional label under the shift map"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--label", required=True, help="q0, p3, or a full label like q0@n2")
    p.add_argument("--iters", type=int, default=5)
    p.set_defaults(func=_cmd_orbit)

    p = common(sub.add_parser("geodesic", help="distance from the line class to the axis"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--t", type=float, default=None, help="also report the geodesic point at arclength t")
    p.set_defaults(func=_cmd_geodesic)

    p = common(sub.add_parser("tube", help="tube radius, traversal, or displacement exponents"))
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--z", type=float, help="radius query at this arclength coordinate")
    p.add_argument("--inner-lo", dest="inner_lo", type=float)
    p.add_argument("--inner-hi", dest="inner_hi", type=float)
    p.add_argument("--inner-radius", dest="inner_radius", type=float)
    p.add_argument("--exponents", action="store_true", help="smallest powers whose tube traverses the inner tube")
    p.add_argument("--eps", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--length", type=float, help="translation length per power")
    p.add_argument("--zlo", type=float)
    p.add_argument("--zhi", type=float)
    p.add_argument("--w", type=float)
    p.set_defaults(func=_cmd_tube)

    p = common(sub.add_parser("oracle", help="brute-force Fix-set search vs the closed form"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, required=True, help="any prime not dividing n")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
