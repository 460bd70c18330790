"""Span recorder for traced benchmark runs.

``install`` replaces the public functions and methods of every ``uhlenbeck``
layer with timing wrappers.  A function is replaced under every module name
it is bound to (``bvariety.kernel_basis`` as well as ``core.kernel_basis``),
methods are replaced on their class, and ``Recorder.uninstall`` puts every
original back.  Spans (name, start, end, parent, item) and counts stay in
memory until ``write_spans`` is called at the end of the run.  Untraced runs
never import this module.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer): public functions wrapped under every bound name.
FUNCTIONS = [
    ("core", "rank", "core.elim"),
    ("core", "kernel_basis", "core.elim"),
    ("core", "solve_linear", "core.elim"),
    ("core", "inverse", "core.elim"),
    ("core", "rref", "core.elim"),
    ("core", "char_poly", "core.char_poly"),
    ("core", "squarefree_factorization", "core.squarefree"),
    ("core", "nilpotent_jordan_type", "core.jordan_type"),
    ("core", "krylov_span_dim", "core.krylov"),
    ("partitions", "partitions", "partitions.enum"),
    ("bvariety", "check_btriple", "bvariety.check"),
    ("bvariety", "triple_stabilizer_dim", "bvariety.stabilizer"),
    ("bvariety", "support", "bvariety.support"),
    ("bvariety", "support_poly_p", "bvariety.support"),
    ("bvariety", "solve_commutator_system", "bvariety.solve"),
    ("bvariety", "commutator_system_solvable", "bvariety.solve"),
    ("bvariety", "solve_Y_space", "bvariety.solve"),
    ("bvariety", "component_dimension", "bvariety.component"),
    ("bvariety", "fiber_probe", "bvariety.fiber"),
    ("calogero", "verify_cm", "calogero.verify"),
    ("calogero", "joint_centralizer_dim", "calogero.centralizer"),
    ("calogero", "sample_cm", "calogero.sample"),
    ("quiver", "check_relations", "quiver.relations"),
    ("quiver", "generated_subrep", "quiver.closure"),
    ("quiver", "find_destabilizer", "quiver.find_destabilizer"),
    ("quiver", "decide_stability_121", "quiver.decide_121"),
    ("ncalgebra", "normal_form", "ncalgebra.normal_form"),
    ("ncalgebra", "graded_dim_computed", "ncalgebra.graded_dim"),
    ("ncalgebra", "dual_graded_dims", "ncalgebra.dual"),
    ("ic", "ic_stalk", "ic.stalk"),
    ("ic", "punctual_hilbert_betti", "ic.betti"),
    ("ic", "strata", "ic.strata"),
    ("ic", "smallness_audit", "ic.audit"),
    ("ic", "uhlenbeck_fixed_points", "ic.fixed_points"),
    ("serialize", "fraction_to_str", "serialize"),
    ("serialize", "parse_fraction", "serialize"),
    ("serialize", "matrix_to_json", "serialize"),
    ("serialize", "matrix_from_json", "serialize"),
    ("serialize", "vector_to_json", "serialize"),
    ("serialize", "vector_from_json", "serialize"),
    ("serialize", "rep_to_json", "serialize"),
    ("serialize", "rep_from_json", "serialize"),
    ("serialize", "triple_to_json", "serialize"),
    ("serialize", "triple_from_json", "serialize"),
    ("serialize", "pair_to_json", "serialize"),
    ("serialize", "pair_from_json", "serialize"),
    ("cli", "main", "cli.dispatch"),
]

# (module, class, method, layer): methods wrapped on the class itself.
METHODS = [
    ("core", "RatMatrix", "__matmul__", "core.matmul"),
    ("core", "RatPoly", "__mul__", "core.ratpoly_mul"),
    ("core", "Subspace", "__init__", "core.subspace"),
    ("core", "Subspace", "sum", "core.subspace"),
    ("core", "Subspace", "intersect", "core.subspace"),
    ("core", "Subspace", "image_under", "core.subspace"),
    ("core", "Subspace", "contains", "core.subspace"),
]

ITEM = "item"

# Every layer name, in a stable order.
LAYERS = list(dict.fromkeys(layer for *_, layer in FUNCTIONS + METHODS))


def _elim_cells(fn_name, args):
    m = args[0]
    if fn_name == "solve_linear":
        return m.rows * (m.cols + 1)
    if fn_name == "inverse":
        return m.rows * 2 * m.cols
    return m.rows * m.cols


class Recorder:
    """Stack-based span recorder; self time is accumulated as spans close."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[list] = []  # [span slot, name id, start, child time]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = -1
        self._search_dims: list[set] = [set()]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def push(self, name: str):
        slot = len(self.spans)
        self.spans.append(None)  # filled in by pop
        self._stack.append([slot, self._name_id(name), time.perf_counter(), 0.0])

    def pop(self):
        end = time.perf_counter()
        slot, nid, start, child = self._stack.pop()
        dur = end - start
        self.self_s[self.names[nid]] += dur - child
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[slot] = (nid, start, end, parent, self.item)
        return dur

    def begin_item(self, index: int):
        self.item = index
        self.push(ITEM)

    def end_item(self) -> float:
        return self.pop()

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn, layer: str, fn_name: str):
        rec = self
        counts = rec.counts

        if layer == "core.elim":
            def count(args, result):
                counts["core.elim.cells"] += _elim_cells(fn_name, args)
        elif layer == "core.matmul":
            def count(args, result):
                a, b = args
                counts["core.matmul.mults"] += a.rows * a.cols * b.cols
        elif layer == "partitions.enum":
            def count(args, result):
                counts["partitions.enum.items"] += len(result)
        elif layer == "quiver.closure":
            def count(args, result):
                dims = result[0]
                seen = rec._search_dims[-1]
                if dims != (0, 0, 0) and dims != args[0].dim and dims not in seen:
                    counts["quiver.closure.useful"] += 1
                seen.add(dims)
        else:
            count = None

        search = layer in ("quiver.find_destabilizer", "quiver.decide_121")
        solvable = fn_name == "commutator_system_solvable"

        def wrapper(*args, **kwargs):
            rec.calls[layer] += 1
            if search:
                rec._search_dims.append(set())
            if solvable:
                solves_before = counts["bvariety.solves"]
            rec.push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.pop()
                if search:
                    rec._search_dims.pop()
            if count is not None:
                count(args, result)
            if fn_name == "solve_commutator_system":
                counts["bvariety.solves"] += 1
            if solvable:
                counts["bvariety.solvable.calls"] += 1
                if counts["bvariety.solves"] == solves_before:
                    counts["bvariety.solvable.fast_rejects"] += 1
            return result

        wrapper.__name__ = getattr(fn, "__name__", fn_name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "uhlenbeck"):
        """Wrap every target under every name it is bound to in ``package``."""
        mods = {name: mod for name, mod in list(sys.modules.items()) if name == package or name.startswith(package + ".")}
        for mod_name, fn_name, layer in FUNCTIONS:
            home = mods.get(f"{package}.{mod_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapped = self._wrapper(original, layer, fn_name)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(mods[f"{package}.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrapper(original, layer, meth))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        return {name: t for name, t in self.self_s.items() if name != ITEM}

    def write_spans(self, path, meta: dict):
        """Write every recorded span, with its name table, as gzipped JSON."""
        done = [s for s in self.spans if s is not None]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "fields": ["name", "start", "end", "parent", "item"],
                    "spans": done,
                },
                fh,
            )
