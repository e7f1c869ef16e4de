"""Per-layer tracing of one verify process, from outside the program.

:class:`Tracer` wraps the public functions of each ``qhopf`` module and keeps,
per layer, the call count and the self time: a call's duration minus the part
of it covered by the wrapped calls it made.  Calls above the scalar layer are
also kept as spans ``(name, start, end, parent)`` in memory and written out
when the run ends.  Scalar operations run millions of times per process, so
they are only counted and timed.

Modules import functions by name (``from .algebra import invert``), so a
module-level function is replaced wherever a ``qhopf`` module binds it,
including inside closures such as the check runners ``cli._wrap`` builds.
Methods are replaced once, on their class.  A target the program no longer
has is skipped and its metric reads 0.
"""

from __future__ import annotations

import json
import sys
import time
from types import FunctionType

_perf = time.perf_counter

# (module, class, method names, layer); the names of one entry share a layer
METHODS = [
    ("qhopf.cyclotomic", "Cyclotomic", ("__mul__", "__rmul__"), "cyclotomic.mul"),
    ("qhopf.cyclotomic", "Cyclotomic", ("__add__", "__radd__", "__sub__"), "cyclotomic.add"),
    ("qhopf.cyclotomic", "Cyclotomic", ("inverse",), "cyclotomic.inverse"),
    ("qhopf.cyclotomic", "Cyclotomic", ("embed",), "cyclotomic.embed"),
    ("qhopf.algebra", "Tensor", ("__mul__",), "algebra.tensor_mul"),
    ("qhopf.taft", "TaftAlgebra", ("__init__",), "taft.init"),
    (
        "qhopf.taft",
        "TaftAlgebra",
        ("to_idem", "from_idem", "sub_to_bold", "sub_from_bold", "embed_sub", "project_to_sub"),
        "taft.convert",
    ),
]

# (module, function, layer)
FUNCTIONS = [
    ("qhopf.algebra", "apply_on_factor", "algebra.apply_on_factor"),
    ("qhopf.algebra", "invert", "algebra.invert"),
    ("qhopf.twist", "coboundary_associator", "twist.coboundary_associator"),
    ("qhopf.twist", "build_quasi_hopf", "twist.build_quasi_hopf"),
    ("qhopf.twist", "twisted_coproduct", "twist.twisted_coproduct"),
    ("qhopf.twist", "antipode_elements", "twist.antipode_elements"),
    ("qhopf.twist", "aggregate_to_bold", "twist.aggregate_to_bold"),
    ("qhopf.axioms", "check_quasi_coassoc", "axioms.check_quasi_coassoc"),
    ("qhopf.axioms", "check_pentagon", "axioms.check_pentagon"),
    ("qhopf.axioms", "check_counit", "axioms.check_counit"),
    ("qhopf.axioms", "check_antipode", "axioms.check_antipode"),
    ("qhopf.axioms", "check_basic", "axioms.check_basic"),
    ("qhopf.axioms", "check_grading", "axioms.check_grading"),
    ("qhopf.axioms", "check_radical_ideal", "axioms.check_radical_ideal"),
    ("qhopf.cocycle", "check_cocycle", "cocycle.check_cocycle"),
    ("qhopf.cocycle", "class_invariant", "cocycle.class_invariant"),
    ("qhopf.bqrep", "check_bq_semisimple", "bqrep.check_bq_semisimple"),
    ("qhopf.bqrep", "operator_module", "bqrep.operator_module"),
    ("qhopf.linalg", "sparse_rank", "linalg.sparse_rank"),
    ("qhopf.linalg", "solve_square", "linalg.solve"),
    ("qhopf.linalg", "mat_inverse", "linalg.solve"),
]

# layers that are counted and timed but not kept as spans
UNRECORDED = ("cyclotomic.",)


class _FunctionProbe:
    """Stands in for a module-level function.  Attribute reads fall through to
    the original: ``cli._wrap`` reads ``__code__`` to see whether a check takes
    a seed."""

    __slots__ = ("_fn", "_probe")

    def __init__(self, fn, probe):
        self._fn = fn
        self._probe = probe

    def __call__(self, *args, **kwargs):
        return self._probe(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._fn, name)


def _functions_in(value):
    if isinstance(value, FunctionType):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, FunctionType):
                yield item
            elif isinstance(item, tuple):
                yield from (v for v in item if isinstance(v, FunctionType))


def _rebind(original, replacement):
    """Replace every binding of ``original`` in the loaded qhopf modules."""
    for name, mod in list(sys.modules.items()):
        if name != "qhopf" and not name.startswith("qhopf."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                continue
            for fn in _functions_in(value):
                for cell in fn.__closure__ or ():
                    try:
                        if cell.cell_contents is original:
                            cell.cell_contents = replacement
                    except ValueError:  # empty cell
                        pass


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.spans: list = []
        self._stack: list = []
        self._pairs = [0]

    def _probe(self, fn, layer: str, measure=None):
        acc = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        spans = None if layer.startswith(UNRECORDED) else self.spans

        def probe(*args, **kwargs):
            # frame: [time covered by child calls, span id]
            frame = [0.0, -1]
            if spans is not None:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                acc[0] += 1
                acc[1] += duration - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if spans is not None:
                    spans[frame[1]] = (layer, start, end, parent[1] if parent else -1)
            if measure is not None:
                measure(args, result)
            return result

        return probe

    def _count(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    # term counts, taken outside the timed interval
    def _operand_terms(self, args, result):
        self._count("cyclotomic.operand_terms", _terms(args[0]) + _terms(args[1]))

    def _tensor_out_terms(self, args, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self._count("algebra.tensor_mul_out_terms", len(terms))

    def _convert_terms(self, args, result):
        self._count("taft.convert_in_terms", len(args[1].terms))
        self._count("taft.convert_out_terms", len(result.terms))

    def install(self):
        """Wrap every target; qhopf.cli must already be imported."""
        measures = {
            "cyclotomic.mul": self._operand_terms,
            "algebra.tensor_mul": self._tensor_out_terms,
            "taft.convert": self._convert_terms,
        }
        for module, cls_name, names, layer in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            probes = {}
            for name in names:
                original = cls.__dict__.get(name)
                if original is None:
                    continue
                if id(original) not in probes:
                    probes[id(original)] = self._probe(original, layer, measures.get(layer))
                setattr(cls, name, probes[id(original)])
        for module, name, layer in FUNCTIONS:
            original = getattr(sys.modules[module], name, None)
            if original is not None:
                _rebind(original, _FunctionProbe(original, self._probe(original, layer)))
        # term pairs multiplied inside Tensor.__mul__: counted, not timed
        algebra = sys.modules["qhopf.algebra"]
        pair_product = getattr(algebra, "_acc_product", None)
        if pair_product is not None:
            pairs = self._pairs

            def counted(*args):
                pairs[0] += 1
                return pair_product(*args)

            algebra._acc_product = counted

    def metrics(self) -> dict[str, float]:
        """Layer figures under their benchmark names (calls, self seconds, terms)."""

        def calls(layer):
            return self.layers.get(layer, [0, 0.0])[0]

        def self_s(layer):
            return self.layers.get(layer, [0, 0.0])[1]

        out = {}
        for layer in ("cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse"):
            out[layer + "_calls"] = calls(layer)
            out[layer + "_s"] = self_s(layer)
        scalar_ops = calls("cyclotomic.mul") + calls("cyclotomic.add")
        out["cyclotomic.embed_calls"] = calls("cyclotomic.embed")
        out["cyclotomic.mixed_share"] = calls("cyclotomic.embed") / scalar_ops if scalar_ops else 0.0
        mul_operands = 2 * calls("cyclotomic.mul")
        out["cyclotomic.mean_operand_terms"] = (
            self.counts.get("cyclotomic.operand_terms", 0) / mul_operands if mul_operands else 0.0
        )
        for layer in ("algebra.tensor_mul", "algebra.apply_on_factor", "algebra.invert"):
            out[layer + "_calls"] = calls(layer)
            out[layer + "_s"] = self_s(layer)
        out["algebra.tensor_mul_pairs"] = self._pairs[0]
        out["algebra.tensor_mul_out_terms"] = self.counts.get("algebra.tensor_mul_out_terms", 0)
        out["taft.convert_calls"] = calls("taft.convert")
        out["taft.convert_s"] = self_s("taft.convert")
        out["taft.convert_in_terms"] = self.counts.get("taft.convert_in_terms", 0)
        out["taft.convert_out_terms"] = self.counts.get("taft.convert_out_terms", 0)
        out["taft.init_s"] = self_s("taft.init")
        out["twist.twisted_coproduct_calls"] = calls("twist.twisted_coproduct")
        for layer in (
            "twist.coboundary_associator",
            "twist.build_quasi_hopf",
            "twist.twisted_coproduct",
            "twist.antipode_elements",
            "twist.aggregate_to_bold",
            "axioms.check_quasi_coassoc",
            "axioms.check_pentagon",
            "axioms.check_counit",
            "axioms.check_antipode",
            "axioms.check_basic",
            "axioms.check_grading",
            "axioms.check_radical_ideal",
            "cocycle.check_cocycle",
            "cocycle.class_invariant",
            "bqrep.check_bq_semisimple",
            "bqrep.operator_module",
            "linalg.sparse_rank",
            "linalg.solve",
        ):
            out[layer + "_s"] = self_s(layer)
        out["cocycle.check_cocycle_calls"] = calls("cocycle.check_cocycle")
        out["linalg.sparse_rank_calls"] = calls("linalg.sparse_rank")
        return out

    def write_spans(self, path):
        """One JSON array [name, start, end, parent span index] per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _terms(value) -> int:
    terms = getattr(value, "_c", None)
    if terms is not None:
        return len(terms)
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return sum(1 for c in coeffs if c)
    return 1  # a rational factor
