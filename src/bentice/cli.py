"""Batch command-line surface with machine-readable reports.

Every invocation prints one JSON report

    {"verb": ..., "inputs": ..., "verdict": ..., "data": ..., "elapsed_ms": ...}

and exits 0 on pass, 2 on verification failure, 3 on input errors, and 4
when the enumeration caps would be exceeded.  Reports are byte-identical
across runs for a fixed seed, up to the elapsed_ms field.  Each verb
takes only the --emit formats it renders (EMITS); any other is a usage
error, printed by argparse, with exit 3.

COMMANDS has one row per command, keyed by the name its report prints
(see Command), and `run` takes every command through the same steps:
family, inputs, caps, runner.  --lambda, --mu, --scheme or --n on a
command that does not read it is an input error.

Caps default to n <= 4 and lambda_1 <= 8 and can be widened per run with
--max-n/--max-cols or the BENTICE_MAX_N / BENTICE_MAX_COLS environment
variables.  They are decided here and nowhere else: before any model is
built, each model the inputs name is checked (MODELS); the local
relations (ybe, bend, fish, jellyfish, caduceus) read no such input and
take no caps.  --workers (at least 1) fans independent subcases (only
present with --family all) over a process pool of at most one worker
per subcase and per CPU; results are merged in a fixed order so the
report does not depend on scheduling.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from .asm import bijection_check, matrix_text, okada_stats, state_to_matrix
from .characters import character_theorem_check, family_character, tokuyama_check
from .identities import (
    DivisibilityError, SuiteSelfCheckError, divisibility_check, okada_product_check,
    quotient_symmetry_check, rho_check,
)
from .models import BENT_FAMILIES, FAMILIES, SHAPES, ModelError, build_model, rho
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


class InputError(ValueError):
    pass


class EnumerationCapError(RuntimeError):
    """Raised instead of silently attempting a too-large enumeration."""


def _parse_partition(text):
    if not text:
        raise InputError("--lambda is required: comma-separated strictly decreasing parts")
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse partition {text!r}") from None
    if any(a <= b for a, b in zip(parts, parts[1:])) or parts[-1] < 1:
        raise InputError(
            f"partition {text!r} must be strictly decreasing with smallest part >= 1")
    return parts


def _parse_weight(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse mu {text!r}") from None


def _need(args, name):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"--{name} is required for this verb")
    return value


def _at_least_one(flag, value) -> int:
    if value < 1:
        raise InputError(f"--{flag} must be at least 1, got {value}")
    return value


# how a command reads each input, from its flag and its COMMANDS row
READERS = {
    "lambda": lambda args, command: _parse_partition(_need(args, "lambda")),
    "mu": lambda args, command: _parse_weight(_need(args, "mu")),
    "scheme": lambda args, command: args.scheme or command.scheme,
    "n": lambda args, command: _at_least_one("n", 2 if args.n is None else args.n),
}

# the model each input names: family^lambda, family^rho, family^(mu + rho)
MODELS = {
    "lambda": lambda lam: lam,
    "n": rho,
    "mu": lambda mu: [m + len(mu) - i for i, m in enumerate(mu)],
}


def _cap(args, flag: str, default: int) -> int:
    """The cap from --flag, else from BENTICE_<FLAG>, else the default; at least 1."""
    value = getattr(args, flag.replace("-", "_"))
    if value is not None:
        return _at_least_one(flag, value)
    variable = "BENTICE_" + flag.upper().replace("-", "_")
    text = os.environ.get(variable, str(default))
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"{variable}={text!r} is not an integer") from None
    if value < 1:
        raise InputError(f"{variable}={text!r} must be at least 1")
    return value


def _check_caps(args, family, lam):
    """Raise EnumerationCapError if the model family^lam exceeds the caps in force:
    each flag, else its environment variable, else the default."""
    max_n = _cap(args, "max-n", DEFAULT_MAX_N)
    max_cols = _cap(args, "max-cols", DEFAULT_MAX_COLS)
    if len(lam) > max_n or lam[0] > max_cols:
        # a long model is named by its shape: its first two parts, its last and its length
        parts = (list(lam) if len(lam) <= 8
                 else f"[{lam[0]}, {lam[1]}, ..., {lam[-1]}] ({len(lam)} parts)")
        raise EnumerationCapError(
            f"model {family}^{parts} exceeds caps n<={max_n}, lambda_1<={max_cols}")


def _pool_map(fn, items, workers):
    workers = min(workers, len(items), os.cpu_count() or 1)
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


# runners: (args, family or the families of a fan-out, *inputs) -> (verdict, data)
def _enumerate(args, family, lam):
    spec = build_model(family, lam)
    if args.emit == "count":
        return None, {"count": count_states(spec)}
    states = enumerate_states(spec)
    if args.emit == "tikz":
        return None, {"count": len(states), "tikz": [state_tikz(s) for s in states]}
    return None, {"count": len(states), "states": [s.to_json() for s in states]}


def _partition(args, family, lam, scheme):
    scheme = make_scheme(scheme, family, len(lam))
    spec = build_model(family, lam)
    z = partition_function(spec, scheme)
    return None, {"scheme": scheme.name, "states": count_states(spec),
                  "z": z.to_latex() if args.emit == "latex" else z.to_json()}


def _asm(args, family, lam):
    matrices = [state_to_matrix(s) for s in enumerate_states(build_model(family, lam))]
    data = {"count": len(matrices),
            "matrices": [matrix_text(m) for m in matrices] if args.emit == "text" else matrices}
    if family == "B" and lam == list(rho(len(lam))):
        data["stats"] = [okada_stats(m).to_json() for m in matrices]
    return None, data


def _character(args, family, mu):
    chi = family_character(family, len(mu), mu)
    return None, {"mu": mu, "chi": chi.to_latex() if args.emit == "latex" else chi.to_json()}


def _ybe(args, family, scheme):
    scheme = make_scheme(scheme, family, 2)
    v = ybe_check(scheme.row_weights("1"), scheme.row_weights("2"))
    return v.ok, {"checked": v.checked, "witness": v.witness}


def _bent_scheme(scheme, family, regular):
    """The scheme at the least rank with that many regular rows: one more
    where the central row is row n (see models.row_layout)."""
    return make_scheme(scheme, family, regular + (SHAPES[family][0] == "n"))


def _bend(args, family, scheme):
    v = bend_ybe_check(_bent_scheme(scheme, family, 2), 1, 2)
    return v.ok, {"checked": v.checked, "witness": v.witness}


def _fish(args, family, scheme):
    v = fish_check(_bent_scheme(scheme, family, 1), 1)
    return v.ok and bool(v.closed_form_ok), v.to_json()


def _jellyfish(args, family, scheme):
    v = jellyfish_check(_bent_scheme(scheme, family, 1), 1)
    return v.ok and bool(v.closed_form_ok), v.to_json()


def _caduceus(args, family, scheme):
    v = caduceus_check(_bent_scheme(scheme, family, 1), 1)
    return v.ok, {"checked": v.checked, "witness": v.witness}


def _divisibility(args, family, lam, regime):
    try:
        q = divisibility_check(family, lam, regime, seed=args.seed)
    except (DivisibilityError, SuiteSelfCheckError) as exc:
        return False, {"error": str(exc)}
    sym = quotient_symmetry_check(q, family, len(lam), regime)
    return sym["ok"], {"quotient": q.to_latex(), "symmetry": sym}


def _rho(args, families, n):
    # family A has a deformation factor list only
    cases = [(f, n, regime) for f in families for regime in ("generic", "deformation")
             if f != "A" or regime == "deformation"]
    data = {f"{f}:{regime}": ok for f, regime, ok in _pool_map(_rho_case, cases, args.workers)}
    return all(data.values()), data


def _okada(args, families, n):
    data = dict(_pool_map(_okada_case, [(f, n) for f in families], args.workers))
    return all(data.values()), data


def _bijection(args, family, n):
    r = bijection_check(family, n)
    return r["ok"], {"checked": r["checked"]}


def _character_theorem(args, family, lam):
    r = character_theorem_check(family, lam)
    return r["ok"], {"chi": r["chi"].to_latex()}


def _tokuyama(args, family, lam):
    r = tokuyama_check(lam)
    return r["ok"], {"symbolic_ok": r["symbolic_ok"], "t_minus_one_ok": r["t_minus_one_ok"]}


class Command:
    """A row of COMMANDS: the runner, the inputs it reads besides --family in the runner's
    order, the families it covers ("all" fans out), the refusal for others, the --scheme."""

    def __init__(self, run, reads, families=FAMILIES, refusal=None, scheme=None):
        self.run, self.reads, self.families = run, reads, families
        self.refusal, self.scheme = refusal, scheme


# the bent families whose bend meets a central row (jellyfish, caduceus) or not (fish)
_CENTRAL = tuple(f for f in BENT_FAMILIES if SHAPES[f][0] is not None)
_NO_CENTRAL = tuple(f for f in BENT_FAMILIES if SHAPES[f][0] is None)

COMMANDS = {
    "enumerate": Command(_enumerate, ("lambda",)),
    "partition": Command(_partition, ("lambda", "scheme"), scheme="deformation"),
    "asm": Command(_asm, ("lambda",), FAMILIES[:-1],
                   "BC states export via transposition of the D family; no direct matrix dictionary"),
    "character": Command(_character, ("mu",)),
    "verify ybe": Command(_ybe, ("scheme",), scheme="deformation"),
    "verify bend": Command(_bend, ("scheme",), BENT_FAMILIES, "bend relations exist for "
                           f"families {sorted(BENT_FAMILIES)}", "generic"),
    "verify fish": Command(_fish, ("scheme",), _NO_CENTRAL, "fish variants exist for "
                           f"families {sorted(_NO_CENTRAL)}", "generic"),
    "verify jellyfish": Command(_jellyfish, ("scheme",), _CENTRAL, "jellyfish variants "
                                f"exist for families {sorted(_CENTRAL)}", "generic"),
    "verify caduceus": Command(_caduceus, ("scheme",), _CENTRAL, "caduceus needs a central "
                               f"row: families {', '.join(_CENTRAL)}", "generic"),
    "verify divisibility": Command(_divisibility, ("lambda", "scheme"), scheme="deformation"),
    "verify rho": Command(_rho, ("n",), FAMILIES + ("all",)),
    "verify okada": Command(_okada, ("n",), BENT_FAMILIES + ("all",),
                            "family A supports tokuyama/generic weights, not 'okada'"),
    "verify bijection": Command(_bijection, ("n",), ("B",),
                                "the bijection with sign matrices is checked for family B only"),
    "verify character": Command(_character_theorem, ("lambda",), BENT_FAMILIES,
                                "family A has no character-weight identity; use verify tokuyama"),
    "verify tokuyama": Command(_tokuyama, ("lambda",), ("A",),
                               "the Tokuyama identity is stated for family A only"),
}


def _families(command, family) -> list:
    """The families a command runs: --family, else the one its row covers;
    "all" is the six bent families, also on verify rho: it never checks A."""
    if family is None and len(command.families) == 1:
        return list(command.families)
    if family == "all" and "all" in command.families:
        return list(BENT_FAMILIES)
    if family == "all":
        fan_out = " and ".join(f"'{name}'" for name, row in COMMANDS.items()
                               if "all" in row.families)
        raise InputError(f"--family all is accepted only by {fan_out}; name one family")
    if family is None:
        raise InputError("--family is required for this verb")
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from {FAMILIES} or 'all'")
    if family not in command.families:
        raise InputError(command.refusal)
    return [family]


def run(name, args) -> tuple:
    """Run one command: family, inputs, caps, runner; returns (verdict, data)."""
    command = COMMANDS[name]
    families = _families(command, args.family)
    for flag in READERS:
        if flag not in command.reads and getattr(args, flag) is not None:
            raise InputError(f"{name} does not read --{flag}")
    _at_least_one("workers", args.workers)
    inputs = {flag: READERS[flag](args, command) for flag in command.reads}
    for family in families:
        for flag, value in inputs.items():
            if flag in MODELS:
                _check_caps(args, family, MODELS[flag](value))
    family = families if "all" in command.families else families[0]
    return command.run(args, family, *inputs.values())


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
    for verb, emits in EMITS.items():
        sub.add_parser(verb, parents=[common]).add_argument("--emit", default="json", choices=emits)
    sub.choices["verify"].add_argument("check", choices=[
        name.removeprefix("verify ") for name in COMMANDS if name.startswith("verify ")])
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
        verdict, data = run(verb, args)
    except (InputError, ModelError, ValueError, EnumerationCapError) as exc:
        print(_dumps({"verb": verb, "error": str(exc)}))
        return EXIT_CAP if isinstance(exc, EnumerationCapError) else EXIT_INPUT
    elapsed = int((time.monotonic() - started) * 1000)
    inputs = {k: getattr(args, k) for k in
              ("family", "lambda", "mu", "scheme", "emit", "n", "seed", "workers")}
    report = {
        "verb": verb,
        "inputs": {k: v for k, v in inputs.items() if v is not None},
        "verdict": None if verdict is None else ("pass" if verdict else "fail"),
        "data": data,
        "elapsed_ms": elapsed,
    }
    print(_dumps(report))
    return EXIT_FAIL if verdict is False else EXIT_PASS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
