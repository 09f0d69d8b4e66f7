"""Outside-in tracing of schur_alloc: spans around public functions, numpy
factorization counts, and the per-layer metrics derived from them.

Nothing in the package is edited. `Tracer.install` replaces each listed
function at every `schur_alloc` module attribute that holds it (for example
`allocator.seriate` as well as `seriation.seriate`) and each factorization
in `numpy.linalg`; `Tracer.restore` puts every original back. Spans are kept
in memory with their parent and written out by `write_spans`.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer name -> (module under schur_alloc, public functions traced)
LAYERS = {
    "seriation": ("seriation", ("seriate",)),
    "schur": ("schur", ("max_feasible_gamma", "schur_complement", "b_vector",
                        "augment_intra", "augment_inter")),
    "shrinkage": ("shrinkage", ("weak_shrink",)),
    "portfolio": ("portfolio", ("fitness", "min_var_unit")),
    "linalg": ("_linalg", ("checked_solve",)),
    "covmat": ("covmat", ("sample_gaussian", "empirical_covariance")),
    "allocator": ("allocator", ("allocate",)),
}
FUNCTIONS = [(layer, fn) for layer, (_, fns) in LAYERS.items() for fn in fns]

# numpy.linalg factorizations counted; eigh and cholesky are not used today
# but are what the planned shrinkage and gamma-cap rewrites would call.
NUMPY_OPS = ("svd", "solve", "eigvalsh", "eigh", "cholesky")
# Layers a factorization count is attributed to; any other enclosing layer,
# or none, counts as "other".
COUNT_LAYERS = ("allocator", "schur", "shrinkage", "portfolio", "linalg", "covmat", "other")

# span record fields
NAME, PARENT, ROOT, START, END = range(5)


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = list(FUNCTIONS)
        self.spans: list[list] = []        # [name index, parent, root, start, end]
        self.stack: list[int] = []
        self.np_counts = defaultdict(lambda: [0, 0])   # (op, layer) -> [calls, elems]
        self.alloc_info: dict[int, dict] = {}          # allocate span -> report summary
        self.shrink_peaks: list[float] = []            # bytes, one per weak_shrink call
        self.shrink_grid = [0, 0]                      # [skipped, evaluated] grid points
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import schur_alloc  # noqa: F401  (loads every submodule)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "schur_alloc" or name.startswith("schur_alloc."))]
        for idx, (layer, fn_name) in enumerate(self.names):
            home = sys.modules.get(f"schur_alloc.{LAYERS[layer][0]}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(idx, layer, fn_name, original)
            holders = [(module, attr) for module in modules
                       for attr, value in vars(module).items() if value is original]
            for module, attr in holders:
                self._patch(module, attr, wrapper)
        for op in NUMPY_OPS:
            self._patch(np.linalg, op, self._count(op, getattr(np.linalg, op)))

    def restore(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, idx: int, layer: str, fn_name: str, fn):
        spans, stack = self.spans, self.stack
        after = {"allocate": self._after_allocate,
                 "weak_shrink": self._after_shrink}.get(fn_name)
        measure_memory = fn_name == "weak_shrink"

        def traced(*args, **kwargs):
            me = len(spans)
            record = [idx, stack[-1] if stack else -1, stack[0] if stack else me, 0.0, 0.0]
            spans.append(record)
            stack.append(me)
            if measure_memory:
                tracemalloc.start()
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                if measure_memory:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    self.shrink_peaks.append(peak)
            if after is not None:
                after(me, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, op: str, fn):
        spans, stack, counts = self.spans, self.stack, self.np_counts
        names = self.names

        def counted(a, *args, **kwargs):
            layer = names[spans[stack[-1]][NAME]][0] if stack else "other"
            entry = counts[(op, layer if layer in COUNT_LAYERS else "other")]
            entry[0] += 1
            entry[1] += int(np.size(a))
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _after_allocate(self, me, args, kwargs, report) -> None:
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        requested = config.gammas.gamma_c if config is not None else 0.0
        self.alloc_info[me] = {
            "gamma": requested,
            "eff": [s.gamma_c for s in report.splits],
            "capped": sum(s.gamma_c < requested for s in report.splits),
            "halvings": sum(s.halvings for s in report.splits),
            "zeroed": sum(s.gamma_zeroed for s in report.splits),
        }

    def _after_shrink(self, me, args, kwargs, result) -> None:
        self.shrink_grid[0] += len(result.skipped)
        self.shrink_grid[1] += len(result.skipped) + len(result.curve)

    # -- results --------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for spans recorded during `wall_s` seconds of tracing."""
        spans, names = self.spans, self.names
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]

        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        root_s = 0.0
        per_gamma = {0.0: [0.0, 0.0, 0.0], 1.0: [0.0, 0.0, 0.0]}  # wall, seriation self, schur incl.
        caps = complements_in_cap = 0
        min_own = 0.0
        cap_idx = names.index(("schur", "max_feasible_gamma"))
        comp_idx = names.index(("schur", "schur_complement"))
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            own = dur - child_s[i]
            min_own = min(min_own, own)
            layer = names[rec[NAME]][0]
            calls[rec[NAME]] += 1
            self_s[rec[NAME]] += own
            layer_self[layer] += own
            if rec[PARENT] < 0:
                root_s += dur
            caps += rec[NAME] == cap_idx
            if rec[NAME] == comp_idx and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == cap_idx:
                complements_in_cap += 1
            info = self.alloc_info.get(rec[ROOT])
            if info is None or info["gamma"] not in per_gamma:
                continue
            bucket = per_gamma[info["gamma"]]
            if i == rec[ROOT]:
                bucket[0] += dur
            elif layer == "seriation":
                bucket[1] += own
            elif layer == "schur" and names[spans[rec[PARENT]][NAME]][0] != "schur":
                bucket[2] += dur

        out: dict[str, tuple[float, str]] = {}
        for (layer, fn), n, s in zip(names, calls, self_s):
            out[f"{layer}.{fn}.calls"] = (n, "count")
            out[f"{layer}.{fn}.self_s"] = (s, "s")
        for layer, s in layer_self.items():
            out[f"{layer}.self_frac"] = (s / wall_s, "ratio")
        out["seriation.g0_frac"] = (_ratio(per_gamma[0.0][1], per_gamma[0.0][0]), "ratio")
        out["schur.incl_g1_frac"] = (_ratio(per_gamma[1.0][2], per_gamma[1.0][0]), "ratio")
        out["schur.complements_per_cap"] = (_ratio(complements_in_cap, caps), "ratio")
        out["shrinkage.weak_shrink.peak_mb"] = (
            max(self.shrink_peaks, default=0) / 2**20, "MB")
        out["shrinkage.skipped_frac"] = (_ratio(*self.shrink_grid), "ratio")

        infos = list(self.alloc_info.values())
        g1 = [x for x in infos if x["gamma"] == 1.0]
        g1_splits = [g for x in g1 for g in x["eff"]]
        out["allocator.splits"] = (sum(len(x["eff"]) for x in infos), "count")
        out["allocator.eff_gamma_mean_g1"] = (_ratio(sum(g1_splits), len(g1_splits)), "ratio")
        out["allocator.capped_frac_g1"] = (
            _ratio(sum(x["capped"] for x in g1), len(g1_splits)), "ratio")
        out["allocator.halvings"] = (sum(x["halvings"] for x in infos), "count")
        out["allocator.gamma_zeroed"] = (sum(x["zeroed"] for x in infos), "count")

        for op in NUMPY_OPS:
            for layer in COUNT_LAYERS:
                n, elems = self.np_counts.get((op, layer), (0, 0))
                out[f"linalg.{op}.{layer}.calls"] = (n, "count")
                out[f"linalg.{op}.{layer}.elems"] = (elems, "elems")

        # Self times sum to the root spans' time, and with the unspanned rest to
        # the wall time, only if every child lies inside its parent and the
        # roots inside the traced loop.
        unspanned = wall_s - root_s
        if unspanned < -1e-9 or min_own < -1e-9:
            raise RuntimeError(f"spans overlap: unspanned {unspanned} s, self time {min_own} s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unspanned_s"] = (unspanned, "s")
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: layer, function, parent, root, start, end."""
        with open(path, "w") as handle:
            for rec in self.spans:
                layer, fn = self.names[rec[NAME]]
                handle.write(json.dumps([layer, fn, rec[PARENT], rec[ROOT],
                                         rec[START], rec[END]]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
