"""Batch CLI: np, certify, witness, census, exponents.

All output is data (JSON or CSV) for external plotting. Exit codes:
0 success, 2 parse error, 3 inadmissible input, 4 hypothesis violation,
5 resource cap. HYPERFIELD_THREADS caps census workers. Config files
are flat key=value lines (UTF-8); unknown keys are rejected, and a flag
beats its config key, which beats the default.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
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
from .factor import check_prime_count, factor_over_q, good_splitting_types
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
from .perms import recognize_sn

EXIT_OK = 0
EXIT_PARSE = E.ParseFailure.exit_code
EXIT_INADMISSIBLE = E.Inadmissible.exit_code


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _curve(text: str, monic: bool) -> HyperellipticCurve:
    """The curve y^2 = f for the coefficients in `text`, checked as given;
    with `monic`, its monic model."""
    curve = HyperellipticCurve(parse_poly(text))
    return HyperellipticCurve(monicize(curve.f)) if monic else curve


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
    check_prime_count(args.primes)
    poly = parse_poly(args.poly)
    factors = factor_over_q(poly, cap=args.factor_cap)
    proper = [f for f in factors if 0 < f.degree < poly.degree]
    if proper:
        print(f"error: input is reducible; found factor {format_poly(proper[0])}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    evidence = [(t, f"frobenius p={q}") for q, t in good_splitting_types(poly, args.primes)]
    cert = recognize_sn(poly.degree, evidence)
    print(cert.json_text())
    return EXIT_OK


def _recipe_from_name(name: str) -> Recipe:
    name = name.strip().upper()
    if name.startswith("K_CYCLE"):
        inner = name[len("K_CYCLE") :].strip("()")
        return Recipe(K_CYCLE, _integer("K_CYCLE length", inner))
    if name not in ALL_RECIPE_KINDS or name == K_CYCLE:
        raise E.PolyParseError(f"unknown recipe {name!r}")
    return Recipe(name)


def cmd_witness(args) -> int:
    curve = _curve(args.curve, args.monicize)
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise E.PolyParseError(f"{path}: config file is not UTF-8 text") from None
    except OSError as e:
        raise E.BadPath(f"cannot read config file {path}: {e.strerror}") from None
    out = {}
    for line_no, line in enumerate(lines, 1):
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
    opts = load_config(args.config) if args.config else {}

    def setting(key: str, default=None):
        """The flag if one was given, else the config key, else the default."""
        flag = getattr(args, key)
        return flag if flag is not None else opts.get(key, default)

    curve_text = setting("curve")
    if not curve_text:
        raise E.PolyParseError("census needs --curve or a config file with curve=")
    n = setting("n")
    if n is None:
        raise E.PolyParseError("census needs --n or a config file with n=")
    n = _integer("n", n)
    monic = _switch("monicize", opts.get("monicize", "false"))
    curve = _curve(curve_text, args.monicize or monic)
    defaults = CensusConfig()
    cfg = CensusConfig(**{
        key: _positive_option(key, setting(key, getattr(defaults, key)))
        for key in ("fingerprint_primes", "factor_cap", "box_cap", "workers")
    })
    threads = os.environ.get("HYPERFIELD_THREADS")
    if threads:  # caps the workers, and is checked like them
        cfg = cfg._replace(workers=min(cfg.workers, _positive_option("HYPERFIELD_THREADS", threads)))
    check_prime_count(cfg.fingerprint_primes)
    # --sweep and --Y set one thing, the heights: either flag beats the config.
    height_flags = args.sweep is not None or args.Y is not None
    sweep, y_text = (args.sweep, args.Y) if height_flags else (opts.get("sweep"), opts.get("Y"))
    if sweep is not None:
        ys = [_height(tok) for tok in sweep.split(",")]
    elif y_text is not None:
        ys = [_height(y_text)]
    else:
        raise E.PolyParseError("census needs --Y or --sweep")
    csv_path, json_path = setting("out_csv"), setting("out_json")
    for path in filter(None, (csv_path, json_path)):
        _check_writable(path)
    summaries = []
    csv_lines_all = [CSV_HEADER]
    classified = {}  # each F is classified once over the sweep: classification does not depend on Y
    for y in ys:
        res = run_census(curve, n, y, cfg, classified)
        summaries.append({"Y": str(y), **res.summary})
        csv_lines_all.extend(res.csv_lines)
    if csv_path:
        _write(csv_path, "\n".join(csv_lines_all) + "\n")
    payload = summaries if len(summaries) > 1 else summaries[0]
    text = json.dumps(payload, indent=2)
    if json_path:
        _write(json_path, text)
    print(text)
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Refuse an output path before any census work: it must be a file in
    an existing folder, writable by this process."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
        path if os.path.exists(path) else folder, os.W_OK
    ):
        raise E.BadPath(f"cannot write output file {path}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise E.BadPath(f"cannot write output file {path}: {e.strerror}") from None


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


def _integer(key: str, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise E.PolyParseError(f"{key} must be an integer, got {text!r}") from None


def _switch(key: str, text: str) -> bool:
    """A config switch: exactly true or false."""
    if text not in ("true", "false"):
        raise E.PolyParseError(f"{key} must be true or false, got {text!r}")
    return text == "true"


def _positive_option(key: str, value) -> int:
    """A count setting, from its flag or the config file: at least 1."""
    try:
        return _positive_int(_integer(key, value))
    except argparse.ArgumentTypeError as e:
        raise E.PolyParseError(f"{key} {e}") from None


def _height(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise E.PolyParseError(f"height {text!r} has a zero denominator") from None
    except ValueError:
        raise E.PolyParseError(f"height {text!r} is not a rational number") from None


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first main call, not at
    import, and reused by every later call (parsing leaves it unchanged)."""
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
    p.add_argument("--factor-cap", type=_positive_int, default=12)
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
    # Defaults of these four come from CensusConfig; a flag beats the config file.
    p.add_argument("--fingerprint-primes", type=_positive_int, default=None)
    p.add_argument("--factor-cap", type=_positive_int, default=None)
    p.add_argument("--box-cap", type=_positive_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=None)
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
    except E.HyperfieldError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
