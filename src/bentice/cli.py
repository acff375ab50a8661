"""Batch command-line surface with machine-readable reports.

Every invocation prints one JSON report

    {"verb": ..., "inputs": ..., "verdict": ..., "data": ..., "elapsed_ms": ...}

and exits 0 on pass, 2 on verification failure, 3 on input errors, and 4
when the enumeration caps would be exceeded.  Reports are byte-identical
across runs for a fixed seed, up to the elapsed_ms field.  Each verb
takes only the --emit formats it renders (EMITS); any other is a usage
error, printed by argparse, with exit 3.

Caps default to n <= 4 and lambda_1 <= 8 and can be widened per run with
--max-n/--max-cols or the BENTICE_MAX_N / BENTICE_MAX_COLS environment
variables.  They are decided here and nowhere else: every verb that
builds a model checks each model it will enumerate, from its inputs and
before any model is built; the local relations (ybe, bend, fish,
jellyfish, caduceus) build no model and take no caps.  --workers fans
independent subcases (only present with --family all) over a process
pool of at most one worker per subcase and per CPU; results are merged
in a fixed order so the report does not depend on scheduling.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from .asm import bijection_check, matrix_layout, matrix_text, okada_stats, state_to_matrix
from .characters import character_theorem_check, family_character, tokuyama_check
from .identities import (
    BENT_FAMILIES, DivisibilityError, SuiteSelfCheckError, divisibility_check,
    okada_product_check, quotient_symmetry_check, rho_check,
)
from .models import FAMILIES, ModelError, build_model, row_layout
from .relations import (
    bend_ybe_check, caduceus_check, fish_check, jellyfish_check, ybe_check,
)
from .states import count_states, enumerate_states, partition_function, state_tikz
from .weights import make_scheme

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_INPUT = 3
EXIT_CAP = 4

DEFAULT_MAX_N = 4
DEFAULT_MAX_COLS = 8

# what each verb can render, for --emit
EMITS = {
    "enumerate": ("json", "tikz", "count"),
    "partition": ("json", "latex"),
    "asm": ("json", "text"),
    "character": ("json", "latex"),
    "verify": ("json",),
}

FISH_VARIANTS = {"B": "B", "Cstar": "Cstar_D_no1", "D": "D_with1"}


class InputError(ValueError):
    pass


class EnumerationCapError(RuntimeError):
    """Raised instead of silently attempting a too-large enumeration."""


def _parse_partition(text):
    if not text:
        raise InputError("--lambda is required: comma-separated strictly decreasing parts")
    try:
        parts = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise InputError(f"cannot parse partition {text!r}") from None
    if any(a <= b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 1):
        raise InputError(
            f"partition {text!r} must be strictly decreasing with smallest part >= 1")
    if not parts:
        raise InputError("partition must be nonempty")
    return parts


def _need(args, name):
    value = getattr(args, name.strip("-").replace("-", "_"), None)
    if value is None:
        raise InputError(f"--{name} is required for this verb")
    return value


def _families(args):
    fam = _need(args, "family")
    if fam == "all":
        return list(BENT_FAMILIES)
    if fam not in FAMILIES:
        raise InputError(f"unknown family {fam!r}; choose from {FAMILIES} or 'all'")
    return [fam]


def _family(args):
    """The family of a verb that runs one; only verify rho/okada fan 'all' out."""
    if args.family == "all":
        raise InputError("--family all is accepted only by 'verify rho' and 'verify okada'; "
                         "name one family")
    return _families(args)[0]


def _rank(args) -> int:
    n = 2 if args.n is None else args.n
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    return n


def _caps(args) -> tuple:
    """The caps in force: each flag, else its environment variable, else the default."""
    return (_cap(args.max_n, "BENTICE_MAX_N", DEFAULT_MAX_N),
            _cap(args.max_cols, "BENTICE_MAX_COLS", DEFAULT_MAX_COLS))


def _cap(flag, variable: str, default: int) -> int:
    if flag is not None:
        return flag
    text = os.environ.get(variable)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{variable}={text!r} is not an integer") from None


def _check_caps(args, family, lam):
    """Raise EnumerationCapError if the model family^lam exceeds the caps in force."""
    max_n, max_cols = _caps(args)
    if len(lam) > max_n or lam[0] > max_cols:
        raise EnumerationCapError(
            f"model {family}^{list(lam)} exceeds caps n<={max_n}, lambda_1<={max_cols}")


def _pool_map(fn, items, workers):
    workers = min(workers or 1, len(items), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool loads multiprocessing, pickle and socket,
        # which a run without workers never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# one top-level worker per parallel verb so the pool can pickle it
def _rho_case(case):
    family, n, regime = case
    return family, regime, rho_check(family, n, regime)["ok"]


def _okada_case(case):
    family, n = case
    return family, okada_product_check(family, n)["ok"]


def run(args) -> tuple:
    """Dispatch one parsed invocation; returns (verdict, data)."""
    verb = args.verb
    if verb == "enumerate":
        fam = _family(args)
        lam = _parse_partition(_need(args, "lambda"))
        _check_caps(args, fam, lam)
        spec = build_model(fam, lam)
        if args.emit == "count":
            return None, {"count": count_states(spec)}
        states = enumerate_states(spec)
        if args.emit == "tikz":
            return None, {"count": len(states),
                          "tikz": [state_tikz(s) for s in states]}
        return None, {"count": len(states), "states": [s.to_json() for s in states]}

    if verb == "partition":
        fam = _family(args)
        lam = _parse_partition(_need(args, "lambda"))
        scheme = make_scheme(args.scheme or "deformation", fam, len(lam))
        _check_caps(args, fam, lam)
        spec = build_model(fam, lam)
        z = partition_function(spec, scheme)
        data = {"scheme": scheme.name, "states": count_states(spec)}
        if args.emit == "latex":
            data["z"] = z.to_latex()
        else:
            data["z"] = z.to_json()
        return None, data

    if verb == "asm":
        fam = _family(args)
        lam = _parse_partition(_need(args, "lambda"))
        _check_caps(args, fam, lam)
        spec = build_model(fam, lam)
        matrix_layout(spec)                 # family BC has none: reject before enumerating
        states = enumerate_states(spec)
        matrices = [state_to_matrix(s) for s in states]
        data = {"count": len(matrices)}
        if args.emit == "text":
            data["matrices"] = [matrix_text(m) for m in matrices]
        else:
            data["matrices"] = matrices
        rho = list(range(len(lam), 0, -1))
        if fam == "B" and lam == rho:
            data["stats"] = [okada_stats(m).to_json() for m in matrices]
        return None, data

    if verb == "character":
        fam = _family(args)
        text = _need(args, "mu")
        try:
            mu = [int(p) for p in text.split(",")]
        except ValueError:
            raise InputError(f"cannot parse mu {text!r}") from None
        max_n, _ = _caps(args)
        if len(mu) > max_n:
            raise EnumerationCapError(f"mu of length {len(mu)} exceeds cap n<={max_n}")
        chi = family_character(fam, len(mu), mu)
        data = {"mu": mu}
        data["chi"] = chi.to_latex() if args.emit == "latex" else chi.to_json()
        return None, data

    if verb == "verify":
        return _verify(args)

    raise InputError(f"unknown verb {verb!r}")


def _verify(args) -> tuple:
    check = args.check
    workers = args.workers

    if check == "ybe":
        fam = _family(args)
        scheme = make_scheme(args.scheme or "deformation", fam, 2)
        v = ybe_check(scheme.row_weights("1"), scheme.row_weights("2"))
        return v.ok, {"checked": v.checked, "witness": v.witness}

    if check == "bend":
        fam = _family(args)
        if fam not in BENT_FAMILIES:
            raise InputError(f"bend relations exist for families {sorted(BENT_FAMILIES)}")
        # BC's row 2 is its central row at rank 2, with no bend
        scheme = make_scheme(args.scheme or "generic", fam, 3 if fam == "BC" else 2)
        v = bend_ybe_check(scheme, 1, 2)
        return v.ok, {"checked": v.checked, "witness": v.witness}

    if check == "fish":
        fam = _family(args)
        if fam not in FISH_VARIANTS:
            raise InputError(f"fish variants exist for families {sorted(FISH_VARIANTS)}")
        scheme = make_scheme(args.scheme or "generic", fam, 1)
        v = fish_check(scheme, 1, FISH_VARIANTS[fam])
        return v.ok and bool(v.closed_form_ok), v.to_json()

    if check == "jellyfish":
        fam = _family(args)
        n = 2 if fam == "BC" else 1
        if row_layout(fam, n)[1] is None:
            raise InputError("jellyfish variants exist for families ['BC', 'Bstar', 'C']")
        scheme = make_scheme(args.scheme or "generic", fam, n)
        v = jellyfish_check(scheme, 1)
        return v.ok and bool(v.closed_form_ok), v.to_json()

    if check == "caduceus":
        fam = _family(args)
        n = 2 if fam == "BC" else 1
        if row_layout(fam, n)[1] is None:
            raise InputError("caduceus needs a central row: families Bstar, C, BC")
        scheme = make_scheme(args.scheme or "generic", fam, n)
        v = caduceus_check(scheme, 1)
        return v.ok, {"checked": v.checked, "witness": v.witness}

    if check == "divisibility":
        fam = _family(args)
        lam = _parse_partition(_need(args, "lambda"))
        _check_caps(args, fam, lam)
        regime = args.scheme or "deformation"
        try:
            q = divisibility_check(fam, lam, regime, seed=args.seed)
        except (DivisibilityError, SuiteSelfCheckError) as exc:
            return False, {"error": str(exc)}
        sym = quotient_symmetry_check(q, fam, len(lam), regime)
        return sym["ok"], {"quotient": q.to_latex(), "symmetry": sym}

    if check == "rho":
        n = _rank(args)
        fams = _families(args)
        # family A has a deformation factor list only
        cases = [(f, n, regime) for f in fams for regime in ("generic", "deformation")
                 if f != "A" or regime == "deformation"]
        for f in fams:
            _check_caps(args, f, range(n, 0, -1))
        results = _pool_map(_rho_case, cases, workers)
        data = {f"{f}:{regime}": ok for f, regime, ok in results}
        return all(data.values()), data

    if check == "okada":
        n = _rank(args)
        fams = _families(args)
        for f in fams:
            _check_caps(args, f, range(n, 0, -1))
        results = _pool_map(_okada_case, [(f, n) for f in fams], workers)
        data = {f: ok for f, ok in results}
        return all(data.values()), data

    if check == "bijection":
        n = _rank(args)
        fam = "B" if args.family is None else _family(args)
        _check_caps(args, "B", range(n, 0, -1))
        r = bijection_check(fam, n)
        return r["ok"], {"checked": r["checked"]}

    if check == "character":
        fam = _family(args)
        lam = _parse_partition(_need(args, "lambda"))
        _check_caps(args, fam, lam)
        r = character_theorem_check(fam, lam)
        return r["ok"], {"chi": r["chi"].to_latex()}

    if check == "tokuyama":
        if args.family is not None and _family(args) != "A":
            raise InputError("the Tokuyama identity is stated for family A only")
        lam = _parse_partition(_need(args, "lambda"))
        _check_caps(args, "A", lam)
        r = tokuyama_check(lam)
        return r["ok"], {"symbolic_ok": r["symbolic_ok"],
                         "t_minus_one_ok": r["t_minus_one_ok"]}

    raise InputError(f"unknown verification {check!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bentice", description=__doc__)
    sub = parser.add_subparsers(dest="verb")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", help="A, B, Bstar, C, Cstar, D, BC, or all")
    common.add_argument("--lambda", help="comma-separated strict partition")
    common.add_argument("--mu", help="comma-separated dominant weight")
    common.add_argument("--scheme", help="generic, deformation, okada, character, tokuyama")
    common.add_argument("--n", type=int, help="rank for rho/okada/bijection checks")
    common.add_argument("--max-n", type=int, default=None)
    common.add_argument("--max-cols", type=int, default=None)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)
    verbs = {verb: sub.add_parser(verb, parents=[common]) for verb in EMITS}
    for verb, emits in EMITS.items():
        verbs[verb].add_argument("--emit", default="json", choices=emits)
    verbs["verify"].add_argument("check", choices=[
        "ybe", "bend", "fish", "jellyfish", "caduceus", "divisibility",
        "rho", "okada", "bijection", "character", "tokuyama"])
    return parser


def _dumps(value, indent: str = "") -> str:
    """The text of json.dumps(value, indent=2), for the types a report holds.

    With an indent the stdlib encodes in pure Python, one generator per
    value; this writes each list of plain ints in one join.  Tuples print
    as lists, and a bool is tested before int so it never prints as 1 or 0.
    """
    if isinstance(value, (list, tuple, dict)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = indent + "  "
        comma = ",\n" + inner
        # each f-string copies the body once, where + would copy it per operand
        if isinstance(value, dict):
            body = comma.join([f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                               for k, v in value.items()])
            return f"{{\n{inner}{body}\n{indent}}}"
        if set(map(type, value)) == {int}:
            body = comma.join(map(int.__repr__, value))
        else:
            body = comma.join([_dumps(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0,) else 0
    if args.verb is None:
        build_parser().print_usage()
        return EXIT_INPUT
    verb = args.verb if args.verb != "verify" else f"verify {args.check}"
    started = time.monotonic()
    try:
        verdict, data = run(args)
    except (InputError, ModelError, ValueError, EnumerationCapError) as exc:
        print(_dumps({"verb": verb, "error": str(exc)}))
        return EXIT_CAP if isinstance(exc, EnumerationCapError) else EXIT_INPUT
    elapsed = int((time.monotonic() - started) * 1000)
    inputs = {
        "family": args.family, "lambda": getattr(args, "lambda"),
        "mu": args.mu, "scheme": args.scheme, "emit": args.emit,
        "n": args.n, "seed": args.seed, "workers": args.workers,
    }
    report = {
        "verb": verb,
        "inputs": {k: v for k, v in inputs.items() if v is not None},
        "verdict": None if verdict is None else ("pass" if verdict else "fail"),
        "data": data,
        "elapsed_ms": elapsed,
    }
    print(_dumps(report))
    if verdict is False:
        return EXIT_FAIL
    return EXIT_PASS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
