"""Admissible states, state counts and partition functions.

A graph is a sequence of units (``models.Unit``: tetravalent vertices,
u-turn bends, corner joints, and strand crossings for the local
diagrams).  Admissibility is local: a vertex needs two arrows in and two
out, the degree-two units need one each.

Two engines sweep the units in the order given, for a model the order of
``ModelSpec.units`` (bends and rightmost columns first, which prunes
hardest).  Both read one compiled move table per unit (``move_tables``):
the bits of the unit's edges that earlier units set map to the list of
its admissible ``(bits of the edges it sets, tag)``, with every
configuration that clashes with the fixed boundary dropped once, when the
table is built.

- ``enumerate_tags`` backtracks over a flat bit list, trying each unit's
  moves in the order of its configurations, and collects every state, as
  the tuple of the tag each unit took, into a list, so state lists are
  deterministic and stable across runs.  It serves whatever needs the
  states themselves: JSON/TikZ export, the ASM dictionary and its
  bijection, ``partition_function`` and the local diagrams of
  ``relations.local_z``.
- ``contract`` never builds a state.  It keeps only the frontier, the
  bits of the edges a processed unit set and a later unit still reads,
  with one accumulated value per frontier key (a transfer-matrix sum).
  ``count_states`` runs it with every unit worth 1.

A state stores only the tag each unit of its model took, as the paper
names a state by its local configurations (a1..c2, U/D, R/L).  Its vertex
kinds, bend and corner directions, and its weight are read from those
tags by unit position.  Only the exports need edge bits: JSON reads them
through ``ModelSpec.edge_sources``, built once per model, and TikZ from
``models.VERTEX_CONFIGS``.

Weights come from one packed table per units and scheme (``WeightTable``):
each unit's weight in each of its tags (``weights.unit_weights``) is
packed once over the signed layout ``laurent._Signed``, so a state's
single-term weights multiply as one int sum and only its multi-term ones
are multiplied out.  Beside the exponents, a packed weight carries two
counters: a power of i and whether it has a bank.  A table holds one
bank: one whose weights span both raises MixedBankError when it is
built, before any state is listed, so every weight it gives has exactly
the terms and bank of ``LaurentPoly.prod``.  ``state_weight`` reads the
model's table, built once per model and scheme and kept on the model
(``weight_table``), and ``relations.local_z`` weighs a local diagram's
tag tuples through a table of its own units.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .laurent import GInt, LaurentPoly, _check_bank, _Signed
from .models import VERTEX_CONFIGS, ModelSpec
from .weights import unit_weights

def move_tables(units, fixed: dict) -> list:
    """Compile each unit, in sweep order, into ``(reads, sets, moves)``.

    ``reads`` are the unit's edges that an earlier unit set, ``sets`` its
    edges that neither an earlier unit nor ``fixed`` set, and ``moves`` maps
    the bits of ``reads`` to the list of admissible ``(bits of sets, tag)``,
    in the order of ``unit.configs``.  A configuration that clashes with a
    fixed edge, or gives one edge two bits, is dropped here, once per unit.
    """
    seen = set()
    tables = []
    for unit in units:
        edges = dict.fromkeys(e for e, _pol in unit.edges)
        reads = tuple(e for e in edges if e in seen)
        sets = tuple(e for e in edges if e not in seen and e not in fixed)
        moves = {}
        for bits, tag in zip(unit.configs, unit.tags):
            local = {}
            if all(local.setdefault(e, b) == b for (e, _pol), b in zip(unit.edges, bits)) \
                    and all(fixed[e] == b for e, b in local.items() if e in fixed):
                moves.setdefault(tuple(local[e] for e in reads), []).append(
                    (tuple(local[e] for e in sets), tag))
        seen.update(sets)
        tables.append((reads, sets, moves))
    return tables


# the power of i of each unit coefficient, and i**k * (re + im i) by k
_I_POWERS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}
_TURNS = (lambda re, im: (re, im), lambda re, im: (-im, re),
          lambda re, im: (-re, -im), lambda re, im: (im, -re))


class WeightTable:
    """Every unit's weight in each of its tags, packed once for one scheme.

    Every weight is formed here, once (``weights.unit_weights``), and all of
    them must share one bank, kept as ``bank``: a table whose weights span
    both banks, or that forms a crossing of rows of two banks, raises
    MixedBankError before any state is listed or weighed.  The weights'
    variables share one signed layout (``laurent._Signed``) whose bound is
    the number of units times the largest |exponent| of any weight, so a
    product of one weight per unit never leaves a slot.  Below the
    variables' slots sit two counters of ``count`` bits each: a power of i,
    then the number of factors with a bank.  ``weights`` maps each unit's
    tags to their packed weights:

    - one term with a unit coefficient (1, i, -1, -i): one int, the packed
      monomial plus the coefficient's power of i and, if it has a bank, 1
      in the second counter;
    - zero: None;
    - any other weight: (its count in the second counter, its bit of the
      signature, its terms as ``(packed monomial, re, im)``).

    A state's signature adds up the bits of its weights of the last kind,
    one bit field per distinct weight (a weight object that several units
    share is one weight), so it names the multiset of those factors, and
    ``products`` keeps their product, multiplied out over packed keys,
    by signature.  Decoded monomials are kept by key in ``monomials``.
    """

    __slots__ = ("units", "bank", "weights", "layout", "count", "products", "monomials")

    def __init__(self, units, scheme):
        self.units = units
        polys = [unit_weights(unit, scheme) for unit in units]
        self.bank = None
        for p in (p for ws in polys for p in ws.values()):
            _check_bank(self.bank, p.bank)
            if self.bank is None:
                self.bank = p.bank
        monomials = [m for ws in polys for p in ws.values() for m in p.terms]
        top = max((abs(e) for m in monomials for _, e in m), default=0)
        self.count = (3 * len(units)).bit_length()
        self.layout = _Signed({v for m in monomials for v, _ in m}, len(units) * top,
                              low=2 * self.count)
        packed, field = {}, len(units).bit_length()
        for p in (p for ws in polys for p in ws.values()):
            if id(p) not in packed:
                packed[id(p)] = self._packed(p, 1 << field * len(packed))
        self.weights = [{tag: packed[id(p)] for tag, p in ws.items()} for ws in polys]
        self.products, self.monomials = {}, {}

    def _packed(self, p: LaurentPoly, bit: int):
        if p.is_zero():
            return None
        banked = 0 if p.bank is None else 1 << self.count
        if len(p.terms) == 1:
            ((m, c),) = p.terms.items()
            if c.is_unit():
                return self.layout.pack(m) + banked + _I_POWERS[c.re, c.im]
        return banked, bit, tuple((self.layout.pack(m), c.re, c.im) for m, c in p.terms.items())

    def weigh(self, tags) -> LaurentPoly:
        """The product of each unit's weight in its tag, equal to
        ``LaurentPoly.prod`` over them, bank included.

        The single terms add up into one int; the other factors are
        multiplied out over packed keys, once per signature, and each
        monomial is unpacked once.  A zero weight ends the product.  As in
        ``prod``, the product has the table's bank if one of its factors
        has a bank, even where their monomials cancel.
        """
        key = signature = 0
        factors = []
        for weights, tag in zip(self.weights, tags):
            w = weights[tag]
            if w.__class__ is int:
                key += w
            elif w is None:
                return LaurentPoly._of({}, None)
            else:
                key += w[0]
                signature += w[1]
                factors.append(w[2])
        terms = self.products.get(signature)
        if terms is None:
            terms = self.products[signature] = _multiplied(factors)
        mask = (1 << self.count) - 1
        turn = _TURNS[(key & mask) % 4]
        bank = self.bank if key >> self.count & mask else None
        key -= key & ((1 << 2 * self.count) - 1)
        read, monomials = self.layout.read, self.monomials
        out = {}
        for k, re, im in terms:
            k += key
            m = monomials.get(k)
            if m is None:
                m = monomials[k] = read(k)
            out[m] = GInt(*turn(re, im))
        return LaurentPoly._of(out, bank)


def _multiplied(factors) -> tuple:
    """The product of packed polynomials, as ``(packed monomial, re, im)``."""
    terms = {0: (1, 0)}
    for factor in factors:
        out = {}
        for k1, (re1, im1) in terms.items():
            for k2, re2, im2 in factor:
                re, im = out.get(k1 + k2, (0, 0))
                out[k1 + k2] = (re + re1 * re2 - im1 * im2, im + re1 * im2 + im1 * re2)
        terms = {k: c for k, c in out.items() if c != (0, 0)}
    return tuple((k, re, im) for k, (re, im) in terms.items())


def weight_table(spec: ModelSpec, scheme) -> WeightTable:
    """The model's WeightTable under scheme, built once per model and scheme.

    It is kept on the model (``ModelSpec.weight_tables``) beside the scheme
    itself, which keeps the scheme's id from naming another scheme.
    """
    tables = spec.weight_tables
    if id(scheme) not in tables:
        tables[id(scheme)] = (scheme, WeightTable(spec.units, scheme))
    return tables[id(scheme)][1]


def enumerate_tags(units, fixed: dict) -> list:
    """Every orientation consistent with all units and the fixed edges, depth
    first, trying each unit's configurations in order.  An orientation is the
    tuple of the tag each unit took, in the order of ``units``."""
    # the edges each unit sets take the next slice of one flat bit list
    index, steps = {}, []
    for reads, sets, moves in move_tables(units, fixed):
        lo = len(index)
        index.update((e, lo + k) for k, e in enumerate(sets))
        steps.append((_picker([index[e] for e in reads]), lo, len(index), moves))
    bits = [False] * len(index)
    tags = [None] * len(steps)
    found = []

    def dfs(i: int):
        if i == len(steps):
            found.append(tuple(tags))
            return
        read, lo, hi, moves = steps[i]
        for new, tag in moves.get(read(bits), ()):
            # a later unit only reads what this and earlier units set, so
            # each move overwrites the last and nothing needs undoing
            bits[lo:hi] = new
            tags[i] = tag
            dfs(i + 1)

    dfs(0)
    return found


def contract(units, fixed: dict, unit_value):
    """Sum, over every orientation consistent with the units and the fixed
    edges, of the product of ``unit_value(unit, tag)`` over the units.

    The units are swept in order through their ``move_tables``.  The
    frontier maps each key, the bits of the open edges (set by a swept
    unit and read by a unit still to come), to the sum of the products over
    the swept units; an edge leaves the key after its last unit.  Values
    need only ``+`` and ``*``: as with ``sum`` and ``math.prod``, the empty
    sum is 0 and the empty product is 1.
    """
    last = {}
    for i, unit in enumerate(units):
        for edge, _pol in unit.edges:
            last[edge] = i
    open_edges = ()
    frontier = {(): 1}
    for i, (unit, (reads, sets, table)) in enumerate(zip(units, move_tables(units, fixed))):
        scope = open_edges + sets
        kept = [k for k, e in enumerate(scope) if last[e] > i]
        moves = {key: [(new, unit_value(unit, tag)) for new, tag in options]
                 for key, options in table.items()}
        read, keep = _picker([open_edges.index(e) for e in reads]), _picker(kept)
        out = {}
        for key, value in frontier.items():
            for new, weight in moves.get(read(key), ()):
                nxt = keep(key + new)
                term = value * weight
                out[nxt] = out[nxt] + term if nxt in out else term
        frontier, open_edges = out, tuple(scope[k] for k in kept)
    return frontier.get((), 0)


def _picker(positions):
    """seq -> the tuple of its items at positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return lambda seq, p=positions[0]: (seq[p],)
    return lambda seq: ()


# ---------------------------------------------------------------------------
# full models


@dataclass(frozen=True)
class IceState:
    """One admissible state of a model: the tag each unit took."""

    spec: ModelSpec
    tags: tuple            # aligned with spec.units

    def _tags(self, kind: str) -> dict:
        """Map label -> tag for every unit of the given kind."""
        return {u.label: tag for u, tag in zip(self.spec.units, self.tags) if u.kind == kind}

    def vertex_kinds(self) -> dict:
        """Map (row, col) -> kind for every tetravalent vertex."""
        return self._tags("vertex")

    def bend_dirs(self) -> dict:
        """Map unbarred row label -> 'U' or 'D'."""
        return {row: tag for (row,), tag in self._tags("bend").items()}

    def corner_dir(self) -> Optional[str]:
        return self._tags("corner").get(())

    def to_json(self) -> dict:
        configs = [u.configs[u.tags.index(tag)] for u, tag in zip(self.spec.units, self.tags)]
        return {
            "family": self.spec.family,
            "lambda": list(self.spec.lam),
            "edges": {name: configs[i][k] for name, i, k in self.spec.edge_sources},
            "kinds": {f"{r}:{c}": k for (r, c), k in sorted(self.vertex_kinds().items())},
            "bends": self.bend_dirs(),
            "corner": self.corner_dir(),
        }


def enumerate_states(spec: ModelSpec) -> list:
    """All admissible states, complete and in a stable deterministic order."""
    return [IceState(spec=spec, tags=tags) for tags in enumerate_tags(spec.units, spec.boundary)]


def count_states(spec: ModelSpec) -> int:
    """The number of admissible states, by contraction: no state is built."""
    return contract(spec.units, spec.boundary, lambda unit, tag: 1)


def state_weight(state: IceState, scheme) -> LaurentPoly:
    """Product of Boltzmann weights over all units: vertices, bends and corner."""
    return weight_table(state.spec, scheme).weigh(state.tags)


def partition_function(spec: ModelSpec, scheme) -> LaurentPoly:
    """Sum of state weights; associative merge, order independent.  The
    model's table is built first, so a scheme whose weights span both
    banks is refused before any state is listed."""
    weight_table(spec, scheme)
    return LaurentPoly.sum(state_weight(s, scheme) for s in enumerate_states(spec))


# ---------------------------------------------------------------------------
# exports


def state_tikz(state: IceState) -> str:
    """TikZ in the style of the figures: arrow tips at edge midpoints."""
    spec = state.spec
    # coordinates are stored doubled so that edge midpoints stay integral
    xof = {col: 2 * (i + 1) for i, col in enumerate(spec.full_cols)}
    if spec.half_col is not None:
        xof[spec.half_col] = 2 * (len(spec.full_cols) + 1)
    yof = {row: 2 * (len(spec.rows) - i) for i, row in enumerate(spec.rows)}
    top = _coord(2 * len(spec.rows) + 1)
    lines = ["\\begin{tikzpicture}[scale=.75]"]
    for row in spec.rows:
        lines.append(f"\\node [label=left:${_row_tex(row)}$] at ({_coord(0)},{_coord(yof[row])}) {{}};")
    for col in spec.full_cols:
        lines.append(f"\\node [label=above:${col}$] at ({_coord(xof[col])},{top}) {{}};")
    if spec.half_col is not None:
        lines.append(
            f"\\node [label=above:${spec.half_col}$] at ({_coord(xof[spec.half_col])},{top}) {{}};")

    def tip_h(bit):
        return ">" if bit else "<"

    def tip_v(bit):
        return "<" if bit else ">"   # path is drawn downward; up-arrow is a back-tip

    # rows top to bottom, each left to right
    kinds = state.vertex_kinds()
    for row, col in sorted(kinds, key=lambda label: (-yof[label[0]], -label[1])):
        x, y = xof[col], yof[row]
        n, e, s, w = VERTEX_CONFIGS[kinds[row, col]]
        lines.append(f"\\draw [{tip_h(w)}-{tip_h(e)}] "
                     f"({_coord(x - 1)},{_coord(y)}) -- ({_coord(x + 1)},{_coord(y)});")
        lines.append(f"\\draw [{tip_v(n)}-{tip_v(s)}] "
                     f"({_coord(x)},{_coord(y + 1)}) -- ({_coord(x)},{_coord(y - 1)});")
    for row, tag in state.bend_dirs().items():
        yt, yb = yof[row], yof[row + "b"]
        x = max(xof.values()) + 1
        lines.append(f"% bend {row}: {tag}")
        lines.append(f"\\draw ({_coord(x)},{_coord(yt)}) arc (90:-90:{_coord((yt - yb) // 2)});")
    tag = state.corner_dir()
    if tag is not None:
        lines.append(f"% corner: {tag}")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)


def _coord(doubled: int) -> str:
    """A nonnegative doubled coordinate as a one-place decimal: 5 -> 2.5."""
    return f"{doubled // 2}.{5 * (doubled % 2)}"


def _row_tex(row: str) -> str:
    return f"\\overline{{{row[:-1]}}}" if row.endswith("b") else row
