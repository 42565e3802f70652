"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each isoalg module (a layer)
and records one span per call: name, start, end, parent span and op id.
Spans are kept in flat in-memory arrays and written to a side file when the
run ends.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over its spans.

``cli``, ``models``, ``norms`` and ``normalform`` import with
``from .x import y``, so a wrapper is bound under every name that holds the
original in every isoalg module, and methods are patched on their class.
Unwrapped helpers (``IsometrySystem.power``, ``hs_norm``, ``_term_product``,
...) count towards the wrapped function that calls them.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# layer (isoalg module) -> public functions and methods whose spans it reports
LAYERS = {
    "linalg": ["spectral_norm", "herm_eig", "psd_sqrt", "is_partial_isometry"],
    "algebra": [
        "generate_closure", "commutant", "extend_delta", "extend_delta_star",
        "FiniteStarAlgebra.contains", "FiniteStarAlgebra.project",
        "IsometrySystem.delta_n", "check_coefficient_algebra",
        "check_intertwining_equivalents", "check_extendability",
        "check_commutative_extendability", "check_extension_towers",
        "verify_power_identities",
    ],
    "normalform": ["nf_multiply", "NormalForm.__init__", "NormalForm.eval",
                   "gauge", "reduce", "check_adjoint_intertwining"],
    "norms": ["sample_coefficient_bound", "gauge_invariance_sample",
              "norm_limit_sample", "norm_limit", "random_normal_form",
              "sum_norm_estimates_sample"],
    "models": ["load_model", "build_qdeform", "build_polar_model",
               "polar_structure_suite", "qdeform_relations_suite"],
    "cli": ["dump_json"],
}

# Traced so that the CLI's own glue counts as cli self time; every op is one
# call, so its call count and inclusive time are not reported.
ROOT = ("cli", "main")


def _nilpotency_index(system) -> float:
    """Smallest k with U^k = 0, or infinity when U is not nilpotent."""
    for k in range(1, system.dim + 1):
        if not system.power(k).any():
            return k
    return float("inf")


class Tracer:
    """Span recorder for the functions in ``LAYERS``.

    ``install`` binds the wrappers and ``uninstall`` restores the originals,
    so untraced and traced ops can alternate in one process.
    """

    def __init__(self):
        self.names = [ROOT] + [(layer, fn) for layer, fns in LAYERS.items()
                               for fn in fns]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.op_id = -1
        self.term_products = 0
        self.term_products_live = 0
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self._nil = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, nid: int, count_terms: bool):
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, outermost = self.parent, self.op, self.outermost
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            if count_terms:
                self._count_terms(args[0], args[1])
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            outermost.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1

        return functools.update_wrapper(traced, fn)

    def _count_terms(self, x, y) -> None:
        """Term products of nf_multiply(x, y), from the operands' degrees;
        live ones have |j + k| below the nilpotency index of U."""
        system = x.system
        nil = self._nil.get(system)
        if nil is None:
            nil = self._nil[system] = _nilpotency_index(system)
        dx, dy = x.degrees(), y.degrees()
        self.term_products += len(dx) * len(dy)
        self.term_products_live += sum(1 for j in dx for k in dy
                                       if abs(j + k) < nil)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "isoalg" or name.startswith("isoalg.")]
        for nid, (layer, qualname) in enumerate(self.names):
            module = sys.modules[f"isoalg.{layer}"]
            count = (layer, qualname) == ("normalform", "nf_multiply")
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, nid, count))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, nid, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy .npz); times are seconds from
        the first span."""
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        a["start"] -= t0
        a["end"] -= t0
        a["names"] = np.array([f"{layer}.{fn}" for layer, fn in self.names])
        np.savez_compressed(path, **a)

    def summary(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op call counts, inclusive and layer self times, and counters,
        as ``{metric: (value, unit)}``."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(a["name_id"], minlength=n_names)
        outer = a["outermost"] == 1
        inclusive = np.bincount(a["name_id"][outer], weights=dur[outer],
                                minlength=n_names)
        by_name_self = np.bincount(a["name_id"], weights=self_time,
                                   minlength=n_names)

        out: dict[str, tuple[float, str]] = {}
        for nid, (layer, fn) in enumerate(self.names):
            if (layer, fn) == ROOT:
                continue
            out[f"{layer}.{fn}.calls"] = (calls[nid] / ops, "1/op")
            out[f"{layer}.{fn}.s"] = (inclusive[nid] / ops, "s/op")
        for layer in LAYERS:
            total = sum(by_name_self[nid]
                        for nid, (lay, _) in enumerate(self.names)
                        if lay == layer)
            out[f"{layer}.self_s"] = (total / ops, "s/op")
        out["normalform.term_products"] = (self.term_products / ops, "1/op")
        out["normalform.term_products_live"] = (
            self.term_products_live / ops, "1/op")
        return {k: (float(v), u) for k, (v, u) in out.items()}
