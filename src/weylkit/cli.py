"""Deterministic command-line surface.

Subcommands: root-datum, lcf, kl, char, sl2-check, ic-cone,
intersection-form.  Output is a pure function of the flags (fixed
ordering, no timestamps); formats text, csv, json.  Exit codes:
0 success, 2 usage or unsupported input, 3 precondition violation,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from weylkit._exact import base_p_digits
from weylkit.lattice import (
    UnsupportedDatumError,
    build_root_datum,
    coxeter_number,
    index_of_connection,
    rho,
)
from weylkit.coxeter import generators, identity_element, multiply
from weylkit.hecke import kl_polynomial
from weylkit.charring import ResourceLimitError, sl2_simple_character
from weylkit.lcf import decomposition_matrix, sl2_lcf_valid
from weylkit.icstalk import (
    FgAbelianGroup,
    GradedAbelianGroup,
    cone_ic_integral,
    cone_ic_plus,
    cone_ic_stalks_field,
    cone_pushforward_stalks,
    intersection_form_semisimple,
    link_preset,
)

__all__ = ["build_parser", "main"]


class _UsageError(ValueError):
    """Flag combinations the parser alone cannot reject (exit code 2)."""


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_root_datum(args) -> str:
    datum = build_root_datum(args.series, args.variant)
    try:
        rho_coords: list[int] | None = list(rho(datum).coords)
    except ValueError:
        rho_coords = None
    h = coxeter_number(datum)
    kappa = index_of_connection(datum)
    if args.format == "json":
        body = datum.as_json_dict()
        body.update({
            "schema": "weylkit/root-datum/1",
            "rho": rho_coords,
            "coxeter_number": h,
            "index_of_connection": kappa,
        })
        return _json_text(body)
    lines = [f"series: {datum.series}", f"variant: {datum.variant}",
             "cartan:"]
    for row in datum.cartan:
        lines.append("  " + "  ".join(f"{v:2d}" for v in row))
    lines.append("positive roots (weight coords / coroot coords):")
    for wt, c in datum.positive_roots:
        lines.append(f"  {list(wt.coords)} / {list(c.coords)}")
    lines.append("rho: " + (str(rho_coords) if rho_coords is not None
                            else "not in the weight lattice"))
    lines.append(f"coxeter number: {h}")
    lines.append(f"index of connection: {kappa}")
    return "\n".join(lines) + "\n"


def _cmd_lcf(args) -> str:
    series, p = args.series, args.p
    max_len, max_weight = args.max_len, args.max_weight
    if args.preset:
        if series not in (None, "A1"):
            raise _UsageError("preset sl2-p5 fixes the series to A1")
        series, p, max_weight = "A1", 5, 30
    if series is None:
        raise _UsageError("a series is required (or use --preset)")
    if p is None:
        raise _UsageError("--p is required (or use --preset)")
    if max_len is None and max_weight is None:
        max_len = 8
    datum = build_root_datum(series, args.variant)
    matrix = decomposition_matrix(datum, p, max_len=max_len,
                                  max_weight=max_weight,
                                  entries=args.entries)
    if args.jantzen_only:
        matrix = matrix.restrict_to_jantzen()
    if args.format == "csv":
        return matrix.to_csv()
    if args.format == "json":
        return _json_text(matrix.to_json_dict())
    return matrix.render_text()


def _parse_word(spec: str, dihedral: bool) -> list[int]:
    spec = spec.strip()
    if spec == "id":
        return []
    if dihedral:
        m = re.fullmatch(r"w(')?(\d+)", spec)
        if m:
            start = 0 if m.group(1) else 1  # w_m starts with the affine gen
            return [(start + k) % 2 for k in range(int(m.group(2)))]
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse word {spec!r}") from None


def _cmd_kl(args) -> str:
    series = "A1" if args.dihedral else args.series
    if series is None:
        raise _UsageError("a series is required unless --dihedral is given")
    datum = build_root_datum(series, "sc")
    gens = generators(datum)
    elems = []
    for spec in (args.x, args.y):
        word = _parse_word(spec, args.dihedral)
        if any(i < 0 or i >= len(gens) for i in word):
            raise ValueError(f"generator index out of range in {spec!r}")
        el = identity_element(datum)
        for i in word:
            el = multiply(el, gens[i])
        elems.append(el)
    x, y = elems
    poly = kl_polynomial(y, x)
    if args.format == "json":
        return _json_text({
            "schema": "weylkit/kl-polynomial/1",
            "series": series,
            "x": args.x,
            "y": args.y,
            "poly": poly.to_json_dict(),
        })
    return str(poly) + "\n"


def _cmd_char(args) -> str:
    ch = sl2_simple_character(args.n, args.p, max_terms=args.max_terms)
    if args.format == "json":
        return _json_text({
            "schema": "weylkit/character/1",
            "n": args.n,
            "p": args.p,
            "terms": ch.to_json_list(),
        })
    if args.format == "csv":
        lines = ["weight,mult"]
        lines += [f"{w.coords[0]},{c}" for w, c in ch.terms]
        return "\n".join(lines) + "\n"
    return str(ch) + "\n"


def _cmd_sl2_check(args) -> str:
    p, upto = args.p, args.upto
    rows = []
    for n in range(0, upto + 1):
        if n != 0 and n % (2 * p) not in (0, 2 * p - 2):
            continue
        digits = base_p_digits(n, p)
        rows.append((n, digits, sl2_lcf_valid(n, p)))
    if args.format == "json":
        return _json_text({
            "schema": "weylkit/sl2-check/1",
            "p": p,
            "rows": [{"n": n, "digits": d, "lcf_valid": v}
                     for n, d, v in rows],
        })
    sep = "" if p <= 10 else ","
    table = [("n", "digits", "lcf_valid")]
    for n, d, v in rows:
        table.append((str(n), sep.join(str(x) for x in reversed(d)),
                      "yes" if v else "no"))
    if args.format == "csv":
        return "\n".join(",".join(r) for r in table) + "\n"
    widths = [max(len(r[c]) for r in table) for c in range(3)]
    return "\n".join("  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(row)).rstrip()
                     for row in table) + "\n"


def _parse_link(spec: str) -> GradedAbelianGroup:
    if spec.lstrip().startswith("{"):
        raw = json.loads(spec)
        if any(not isinstance(body, dict) for body in raw.values()):
            raise ValueError("each link degree must map to a JSON object")
        unknown = sorted({k for body in raw.values() for k in body}
                         - {"free", "torsion"})
        if unknown:
            raise ValueError(f"unknown link keys {unknown}; "
                             "expected 'free' and 'torsion'")
        return GradedAbelianGroup.from_dict({
            int(deg): FgAbelianGroup(body.get("free", 0),
                                     body.get("torsion", ()))
            for deg, body in raw.items()})
    return link_preset(spec)


def _cmd_ic_cone(args) -> str:
    link = _parse_link(args.link)
    if args.model == "field":
        table = cone_ic_stalks_field(link, args.d, args.p)
    elif args.model == "pushforward":
        table = cone_pushforward_stalks(link, args.d, args.p)
    elif args.model == "integral":
        table = cone_ic_integral(link, args.d)
    else:
        table = cone_ic_plus(link, args.d)
    if args.format == "json":
        return _json_text(table.to_json_dict())
    return table.render_text()


def _cmd_intersection_form(args) -> str:
    try:
        mat = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse matrix: {exc}") from None
    if not isinstance(mat, list) or any(not isinstance(r, list) for r in mat):
        raise ValueError("matrix must be a JSON list of rows")
    ok = intersection_form_semisimple(mat, args.p)
    if args.format == "json":
        return _json_text({
            "schema": "weylkit/intersection-form/1",
            "p": args.p,
            "matrix": mat,
            "semisimple": ok,
        })
    return ("semisimple: yes" if ok else "semisimple: no") + "\n"


def _add_common(sub, formats=("text", "csv", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Exact root-datum, Weyl-group, Kazhdan-Lusztig, "
                    "character and IC-stalk computations.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("root-datum", help="print a root datum summary")
    s.add_argument("series")
    s.add_argument("variant", nargs="?", default="sc",
                   choices=("sc", "adjoint"))
    _add_common(s, ("text", "json"))
    s.set_defaults(func=_cmd_root_datum)

    s = subs.add_parser("lcf", help="decomposition matrix of the zero block")
    s.add_argument("series", nargs="?", default=None)
    s.add_argument("--variant", default="sc", choices=("sc", "adjoint"))
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--max-len", type=int, default=None, dest="max_len",
                   help="word-length bound for the orbit (default 8)")
    s.add_argument("--max-weight", type=int, default=None, dest="max_weight",
                   help="largest weight coordinate; keeps the weights "
                   "whose rows stay within it")
    s.add_argument("--jantzen-only", action="store_true", dest="jantzen_only")
    s.add_argument("--entries", choices=("auto", "lcf", "simple"),
                   default="auto")
    s.add_argument("--preset", choices=("sl2-p5",), default=None,
                   help="sl2-p5: series A1, p 5, weights up to 30")
    _add_common(s)
    s.set_defaults(func=_cmd_lcf)

    s = subs.add_parser("kl", help="one Kazhdan-Lusztig polynomial")
    s.add_argument("series", nargs="?", default=None)
    s.add_argument("--dihedral", action="store_true",
                   help="affine A1; elements named id, w<m>, w'<m>")
    s.add_argument("--x", required=True,
                   help="word as comma-separated generator indices, "
                        "or id/w<m>/w'<m> with --dihedral")
    s.add_argument("--y", required=True)
    _add_common(s, ("text", "json"))
    s.set_defaults(func=_cmd_kl)

    s = subs.add_parser("char", help="simple SL2 character in char p")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--max-terms", type=int, default=10 ** 6,
                   dest="max_terms",
                   help="support cap for character arithmetic")
    _add_common(s)
    s.set_defaults(func=_cmd_char)

    s = subs.add_parser("sl2-check",
                        help="where the character formula is exact for SL2")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--upto", type=int, required=True,
                   help="largest orbit weight to test")
    _add_common(s)
    s.set_defaults(func=_cmd_sl2_check)

    s = subs.add_parser("ic-cone", help="stalk tables for a cone")
    s.add_argument("--link", required=True,
                   help="rp3 | s3 | s1 | lens:m | inline JSON")
    s.add_argument("--d", type=int, required=True,
                   help="complex dimension of the cone")
    s.add_argument("--p", type=int, default=0,
                   help="field characteristic (0 = rationals)")
    s.add_argument("--model",
                   choices=("field", "integral", "plus", "pushforward"),
                   default="field")
    _add_common(s, ("text", "json"))
    s.set_defaults(func=_cmd_ic_cone)

    s = subs.add_parser("intersection-form",
                        help="mod-p nondegeneracy of a symmetric form")
    s.add_argument("--matrix", required=True,
                   help="JSON rows, e.g. [[-2]]")
    s.add_argument("--p", type=int, required=True)
    _add_common(s, ("text", "json"))
    s.set_defaults(func=_cmd_intersection_form)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    >>> main(["kl", "--dihedral", "--x", "w2", "--y", "id"])
    v^2
    0
    >>> main(["intersection-form", "--matrix", "[[-2]]", "--p", "3"])
    semisimple: yes
    0
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
    except (_UsageError, UnsupportedDatumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
