"""Batch CLI: np, certify, witness, census, exponents.

All output is data (JSON or CSV) for external plotting. Exit codes:
0 success, 2 parse error, 3 inadmissible input, 4 hypothesis violation,
5 resource cap. HYPERFIELD_THREADS caps census workers. Config files
are flat key=value lines (UTF-8); unknown keys are rejected.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# Let values like "-5,0,1" (coefficient lists) follow --poly/--curve without
# being mistaken for option strings.
_COEFF_LIST = re.compile(r"^-\d+(?:[,/]-?\d+)*$")

from . import errors as E
from .census import (
    CSV_HEADER,
    CensusConfig,
    ev_threshold_search,
    exponents,
    run_census,
)
from .factor import factor_over_q, good_primes
from .family import (
    ALL_RECIPE_KINDS,
    D3N3_TRANSP,
    K_CYCLE,
    EVEN_N2CYCLE,
    EVEN_NCYCLE,
    FamilyShape,
    HyperellipticCurve,
    Recipe,
    find_admissible_prime,
    normalize_even,
    translate_for_transposition,
    verify_witness,
    witness,
)
from .intpoly import format_poly, monicize, parse_poly
from .newton import newton_polygon
from .perms import frobenius_sample, recognize_sn

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INADMISSIBLE = 3
EXIT_HYPOTHESIS = 4
EXIT_RESOURCE = 5

_PARSE_ERRORS = (E.PolyParseError, ValueError)
_INADMISSIBLE_ERRORS = (E.InadmissiblePrime, E.BadPrime, E.NonCoprimeH, E.WitnessFailed, E.ZeroPolynomial, E.ZeroInput)
_HYPOTHESIS_ERRORS = (E.HypothesisViolated, E.BadEvidence, E.DegreeDrop, E.NonMonic)
_RESOURCE_ERRORS = (E.BoxTooLarge, E.DegreeCapExceeded, E.SearchWindowExceeded, E.SearchExhausted)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _curve_from_args(args) -> HyperellipticCurve:
    f = parse_poly(args.curve)
    if getattr(args, "monicize", False):
        f = monicize(f)
    return HyperellipticCurve(f)


def cmd_np(args) -> int:
    poly = parse_poly(args.poly)
    np_ = newton_polygon(poly, args.prime)
    if args.json:
        _emit(np_.to_json())
    else:
        print(f"Newton polygon of {format_poly(poly)} at p={args.prime}")
        if np_.x_power:
            print(f"  x^{np_.x_power} factor stripped")
        for seg in np_.segments:
            print(f"  segment: length {seg.length}, slope {seg.slope}")
    return EXIT_OK


def cmd_certify(args) -> int:
    poly = parse_poly(args.poly)
    factors = factor_over_q(poly, cap=args.factor_cap)
    proper = [f for f in factors if 0 < f.degree < poly.degree]
    if proper:
        print(f"error: input is reducible; found factor {format_poly(proper[0])}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    primes = good_primes(poly, args.primes)
    types = frobenius_sample(poly, primes)
    evidence = [(t, f"frobenius p={q}") for t, q in zip(types, primes)]
    cert = recognize_sn(poly.degree, evidence, transitive=True)
    _emit(cert.to_json())
    return EXIT_OK


def _recipe_from_name(name: str) -> Recipe:
    name = name.strip().upper()
    if name.startswith("K_CYCLE"):
        inner = name[len("K_CYCLE") :].strip("()")
        return Recipe(K_CYCLE, int(inner))
    if name not in ALL_RECIPE_KINDS or name == K_CYCLE:
        raise E.PolyParseError(f"unknown recipe {name!r}")
    return Recipe(name)


def cmd_witness(args) -> int:
    curve = _curve_from_args(args)
    recipe = _recipe_from_name(args.recipe)
    transform = None
    if recipe.kind in (EVEN_NCYCLE, EVEN_N2CYCLE):
        avoid = tuple(p for p in (2, 3, 5, 7, 11, 13) if args.n % p == 0 or (args.n - 2) % p == 0)
        curve, (k, p) = normalize_even(curve, avoid=avoid)
        transform = {"translate": k, "scale": p}
        prime = args.prime if args.prime is not None else p
        shape = FamilyShape.proof_shape(curve.d, args.n)
    else:
        if recipe.kind == D3N3_TRANSP:
            curve, k = translate_for_transposition(curve)
            if k:
                transform = {"translate": k, "scale": 1}
        shape = FamilyShape.proof_shape(curve.d, args.n)
        prime = args.prime if args.prime is not None else find_admissible_prime(curve, shape, recipe)
    s = witness(curve, shape, recipe, prime, args.seed)
    np_, certs = verify_witness(curve, shape, recipe, s, prime)
    report = {
        "recipe": recipe.label,
        "prime": prime,
        "specialization": {"a": list(s.a), "b": list(s.b)},
        "polygon": np_.to_json(),
        "certificates": [
            {
                "prime": c.prime,
                "cycle_length": c.cycle_length,
                "slope_num": c.slope.numerator,
                "slope_den": c.slope.denominator,
                "witness_digest": c.witness_digest,
            }
            for c in certs
        ],
    }
    if transform:
        report["normalized_model"] = {"f": format_poly(curve.f), **transform}
    _emit(report)
    return EXIT_OK


_CONFIG_KEYS = {
    "curve",
    "monicize",
    "n",
    "Y",
    "sweep",
    "fingerprint_primes",
    "factor_cap",
    "box_cap",
    "workers",
    "out_csv",
    "out_json",
}


def load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise E.PolyParseError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise E.PolyParseError(f"{path}:{line_no}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def cmd_census(args) -> int:
    opts = {}
    if args.config:
        opts = load_config(args.config)
    curve_text = args.curve or opts.get("curve")
    if not curve_text:
        raise E.PolyParseError("census needs --curve or a config file with curve=")
    n = args.n if args.n is not None else int(opts["n"])
    f = parse_poly(curve_text)
    if (args.monicize or opts.get("monicize") == "true") and f.lc != 1:
        f = monicize(f)
    curve = HyperellipticCurve(f)
    try:
        fingerprint_primes = _positive_int(opts.get("fingerprint_primes", args.fingerprint_primes))
    except argparse.ArgumentTypeError as e:
        raise E.PolyParseError(f"fingerprint_primes {e}") from None
    cfg = CensusConfig(
        fingerprint_primes=fingerprint_primes,
        factor_cap=int(opts.get("factor_cap", args.factor_cap)),
        box_cap=int(opts.get("box_cap", args.box_cap)),
        workers=int(opts.get("workers", args.workers)),
    )
    sweep_text = args.sweep or opts.get("sweep")
    if sweep_text:
        ys = [Fraction(tok) for tok in sweep_text.split(",")]
    else:
        y_text = args.Y if args.Y is not None else opts.get("Y")
        if y_text is None:
            raise E.PolyParseError("census needs --Y or --sweep")
        ys = [Fraction(y_text)]
    summaries = []
    csv_path = args.out_csv or opts.get("out_csv")
    csv_lines_all = [CSV_HEADER]
    for y in ys:
        res = run_census(curve, n, y, cfg)
        summaries.append({"Y": str(y), **res.summary})
        csv_lines_all.extend(res.csv_lines)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(csv_lines_all) + "\n")
    out_json = args.out_json or opts.get("out_json")
    payload = summaries if len(summaries) > 1 else summaries[0]
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    _emit(payload)
    return EXIT_OK


def cmd_exponents(args) -> int:
    if args.threshold:
        n0 = ev_threshold_search(args.g)
        _emit({"g": args.g, "improvement_threshold": n0})
        return EXIT_OK
    if args.d is None or args.n is None:
        raise E.PolyParseError("exponents needs --d and --n (or --threshold)")
    rep = exponents(args.g, args.d, args.n)
    _emit(rep.to_json())
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        if _COEFF_LIST.match(arg_string):
            return None  # treat as a value, not an option
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hyperfield", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("np", help="Newton polygon of a polynomial at a prime")
    p.add_argument("--poly", required=True, help="comma-separated coefficients, ascending")
    p.add_argument("--prime", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_np)

    p = sub.add_parser("certify", help="S_n certificate from Frobenius sampling")
    p.add_argument("--poly", required=True)
    p.add_argument("--primes", type=_positive_int, default=100, help="number of good primes to sample")
    p.add_argument("--factor-cap", type=int, default=12)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("witness", help="generate and verify a recipe witness")
    p.add_argument("--curve", required=True, help="f coefficients, ascending")
    p.add_argument("--monicize", action="store_true")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--recipe", required=True)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("census", help="enumerate and certify a coefficient box")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--curve", default=None)
    p.add_argument("--monicize", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--Y", default=None)
    p.add_argument("--sweep", default=None, help="comma-separated Y values")
    p.add_argument("--fingerprint-primes", type=_positive_int, default=50)
    p.add_argument("--factor-cap", type=int, default=12)
    p.add_argument("--box-cap", type=int, default=100_000_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("exponents", help="exact growth exponents / EV threshold")
    p.add_argument("--g", required=True, type=int)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--threshold", action="store_true")
    p.set_defaults(func=cmd_exponents)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _RESOURCE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except _HYPOTHESIS_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except _INADMISSIBLE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except _PARSE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
