"""The benchmark's fixed instance ladder: one list of CLI invocations per workload.

Each op is the argv of one `bentice` invocation without `--seed` and
`--workers`; the harness appends both (`--workers 1` and the run's seed),
so an op can neither fan out over a process pool nor fix its own seed.
Caps stay at their defaults: no op names `--max-n`/`--max-cols`, and the
child process runs without `BENTICE_MAX_N`/`BENTICE_MAX_COLS`.
"""

BENT_FAMILIES = ("B", "Bstar", "C", "Cstar", "D", "BC")

# Flags the harness owns; an op that set them could leak parallelism,
# raised caps or a fixed seed into a run.
RESERVED_FLAGS = ("--seed", "--workers", "--max-n", "--max-cols")

# divisibility: ~90% of the time is the randomized pre-check plus exact
# division, enumeration is under 1%, so it exercises the polynomial
# division layer.
DIVISIBILITY = [
    ("verify", "divisibility", "--family", fam, "--lambda", lam, "--scheme", scheme)
    for fam in BENT_FAMILIES
    for lam in ("3,2", "4,1")
    for scheme in ("generic", "deformation")
]

# products: builds polynomials (state weights, summation into Z, products,
# alternants) and never divides, so a division change must leave it alone
# while a summation or transfer-matrix change shows here.
PRODUCTS = (
    [("verify", "rho", "--family", "all", "--n", "3"),
     ("verify", "okada", "--family", "all", "--n", "3"),
     ("partition", "--family", "B", "--lambda", "4,3,1", "--scheme", "deformation")]
    # the criterion-7 character grid: lambda = mu + (2, 1)
    + [("verify", "character", "--family", fam, "--lambda", lam)
       for fam in BENT_FAMILIES
       for lam in ("2,1", "3,1", "3,2", "4,1")]
    + [("verify", "character", "--family", "B", "--lambda", "4,2,1")]
    + [("verify", "tokuyama", "--lambda", lam)
       for lam in ("2,1", "3,1", "5,1", "3,2,1", "4,2,1", "5,3,1", "5,4,2")]
)

# states: DFS enumeration and state materialization, with polynomials
# nearly absent, so polynomial and transfer-matrix changes must leave it
# alone.
STATES = [
    ("enumerate", "--family", "C", "--lambda", "5,3,1", "--emit", "count"),
    ("enumerate", "--family", "Bstar", "--lambda", "6,4,1", "--emit", "count"),
    ("asm", "--family", "B", "--lambda", "4,3,2,1"),
    ("verify", "bijection", "--family", "B", "--n", "3"),
]

WORKLOADS = {"divisibility": DIVISIBILITY, "products": PRODUCTS, "states": STATES}


def op_key(op) -> str:
    """The op's name in pins and reports: its argv joined by spaces."""
    return " ".join(op)


def op_argv(op, seed: int) -> list:
    """The argv the harness passes to `bentice.cli.main` for one op."""
    reserved = [flag for flag in op if flag in RESERVED_FLAGS]
    if reserved:
        raise ValueError(f"op {op_key(op)!r} sets harness-owned flags {reserved}")
    return list(op) + ["--workers", "1", "--seed", str(seed)]
