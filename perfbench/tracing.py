"""Outside-in tracing of bentice's layers for the traced benchmark run.

The layers are bentice's modules.  `Tracer.install` replaces each traced
public function with a wrapper in every `bentice.*` module namespace that
binds the same function object (methods are replaced on their class), so
calls through re-exports and `from .x import y` names are traced too.
Each wrapped call records a span (name, start, end, parent, op id) in
memory; `Tracer.uninstall` puts every original object back and checks it.

`LaurentPoly.__add__`/`__mul__` are deliberately not traced: they run
millions of times, and their cost lands in the self time of the caller
(`states.partition_function.self_s` is summation, for example).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

# (layer name, module, attribute path inside the module)
TARGETS = [
    ("models.build_model", "bentice.models", "build_model"),
    ("weights.make_scheme", "bentice.weights", "make_scheme"),
    ("states.enumerate_states", "bentice.states", "enumerate_states"),
    ("states.state_weight", "bentice.states", "state_weight"),
    ("states.partition_function", "bentice.states", "partition_function"),
    ("laurent.exact_divide", "bentice.laurent", "LaurentPoly.exact_divide"),
    ("laurent.substitute", "bentice.laurent", "LaurentPoly.substitute"),
    ("identities.divisibility_check", "bentice.identities", "divisibility_check"),
    ("identities.probabilistic_divides", "bentice.identities", "probabilistic_divides"),
    ("identities.quotient_symmetry_check", "bentice.identities", "quotient_symmetry_check"),
    ("identities.known_factor", "bentice.identities", "known_factor"),
    ("identities.rho_check", "bentice.identities", "rho_check"),
    ("identities.okada_product_check", "bentice.identities", "okada_product_check"),
    ("characters.character_theorem_check", "bentice.characters", "character_theorem_check"),
    ("characters.family_character", "bentice.characters", "family_character"),
    ("characters.alternant", "bentice.characters", "alternant"),
    ("characters.tokuyama_check", "bentice.characters", "tokuyama_check"),
    ("asm.state_to_matrix", "bentice.asm", "state_to_matrix"),
    ("asm.bijection_check", "bentice.asm", "bijection_check"),
    ("asm.okada_matrix_weight", "bentice.asm", "okada_matrix_weight"),
    ("cli.main", "bentice.cli", "main"),
]
LAYERS = [name for name, _, _ in TARGETS]

# Counters recorded where the work happens, with their units.
COUNTERS = {"states.states_out": "count", "states.z_terms": "count",
            "states.nonzero_weight_ratio": "fraction", "laurent.exact_divide.steps": "count",
            "identities.precheck_points": "count", "cli.report_bytes": "bytes"}

OP_SPAN = "op"
TOP_LAYER = "cli.main"


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = inspect.getattr_static(owner, attr, None) if inspect.isclass(owner) \
        else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def _bentice_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "bentice" or name.startswith("bentice."))]


class Tracer:
    """Span recorder for one traced pass; install, run ops, uninstall."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op id]
        self.counts = Counter()  # counter name -> total
        self.missing = []        # layers whose function no longer exists
        self._stack = []
        self._op = None
        self._patched = []       # (owner, attribute, original)
        self._counters = {       # wrapped layer -> hook(result, signature, args, kwargs)
            "states.enumerate_states": self._count_states_out,
            "states.partition_function": self._count_z_terms,
            "states.state_weight": self._count_nonzero_weight,
            "laurent.exact_divide": self._count_division_steps,
            "identities.probabilistic_divides": self._count_precheck_points,
        }

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside the top-level span of op `op_id`."""
        self._op = op_id
        sid = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._op = None

    def _wrap(self, name, fn):
        count = self._counters.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                count(result, signature, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters -------------------------------------------------------------

    def _count_states_out(self, result, *call):
        self.counts["states.states_out"] += len(result)

    def _count_z_terms(self, result, *call):
        self.counts["states.z_terms"] += len(result.terms)

    def _count_nonzero_weight(self, result, *call):
        self.counts["states.nonzero_weights"] += not result.is_zero()

    def _count_division_steps(self, result, *call):
        # one quotient term per division step
        if result is not None:
            self.counts["laurent.exact_divide.steps"] += len(result.terms)

    def _count_precheck_points(self, result, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["identities.precheck_points"] += bound.arguments["trials"]

    def add_report_bytes(self, n: int):
        self.counts["cli.report_bytes"] += n

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every target that exists; record the rest in `missing`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        found = {}
        for name, module_name, path in TARGETS:
            found[name] = _resolve(module_name, path)  # imports every target module
            if found[name] is None:
                self.missing.append(name)
        modules = _bentice_modules()
        for name, target in found.items():
            if target is None:
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        """Restore every original object, and check that each one is back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for owner, attr, original in self._patched:
            current = inspect.getattr_static(owner, attr) if inspect.isclass(owner) \
                else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"wrapper left on {owner.__name__}.{attr}")
        self._patched = []

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and calls, counters and unattributed time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        metrics = {}
        for name in LAYERS:
            if name in self.missing:
                continue
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{name}.calls"] = calls[name]
        for name in COUNTERS:
            if name != "states.nonzero_weight_ratio":
                metrics[name] = self.counts[name]
        weight_calls = calls["states.state_weight"]
        if weight_calls:
            metrics["states.nonzero_weight_ratio"] = \
                self.counts["states.nonzero_weights"] / weight_calls
        # time inside ops that no layer below cli.main accounts for:
        # argument parsing, verb glue, report rendering, stdout capture
        metrics["trace.unattributed_s"] = self_s[OP_SPAN] + self_s[TOP_LAYER]
        return metrics

    def write_spans(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
