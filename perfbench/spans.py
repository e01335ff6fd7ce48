"""Outside-in span recorder for the traced benchmark pass.

`Recorder.install()` replaces every public `spanflow` function in each
`spanflow` module namespace that imported it by name (for example
`spanflow.cli.cost`, `spanflow.decompose.shortest_distances`, and the names the
package `spanflow` re-exports), `linprog` as `spanflow.flow` imported it,
`spanflow.cli.main`, and a few class methods (the `Decomposer` build and
sampling methods, `TerminalGraph` and `TerminalMetric` construction).  A call
that crosses a module boundary therefore opens a span whose layer is the module
that defines the callee.  Calls inside one module stay unwrapped, except to
the functions in `HOME_WRAPPED`, which are wrapped in their own module too:
`graphs.terminal_metric` runs Dijkstra and `flow.quality_ratio` solves LPs
through them, and their counters must see every call.  `uninstall()` puts the
originals back.

Each span is `[name, start, end, parent, job]`; spans stay in memory until the
benchmark writes them out.  Work counters are read at the same boundaries from
arguments and results: LP sizes and iterations, Dijkstra sources, the span
model each `Decomposer` chose, bytes through `textio`.
"""
from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("metric", "tightspan", "graphs", "decompose", "flow", "hard6", "textio", "cli")
BENCH = "bench"   # the benchmark's own pass and job spans

METHODS = (
    ("decompose", "Decomposer", "__init__"),
    ("decompose", "Decomposer", "assignment"),
    ("decompose", "Decomposer", "assignment_ids"),
    ("decompose", "Decomposer", "solution"),
    ("graphs", "TerminalGraph", "__init__"),
    ("metric", "TerminalMetric", "__init__"),
    ("metric", "TerminalMetric", "from_pairs"),
)
HOME_WRAPPED = {"shortest_distances", "max_concurrent_flow"}

MODEL_NAMES = {"_FanModel": "fan", "_PlanarModel": "planar", "_TreeModel": "tree",
               "_SnapModel": "snap"}
SAMPLING = {"decompose.Decomposer.assignment", "decompose.Decomposer.assignment_ids",
            "decompose.Decomposer.solution"}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, float] = defaultdict(float)
        self.models: dict[str, int] = defaultdict(int)
        self.tags: dict[str, int] = defaultdict(int)
        self._patched: list = []
        self._sources: set = set()
        self._graphs: list = []   # holds graphs so ids stay unique within a job
        self.dijkstra_distinct = 0

    def open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float) -> None:
        self.stack.pop()
        self.spans[idx][2] = end

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def begin_job(self, job_id: str) -> None:
        self.job = job_id

    def end_job(self) -> None:
        self.dijkstra_distinct += len(self._sources)
        self._sources = set()
        self._graphs = []
        self.job = None

    def wrap(self, name: str, fn, hook=None):
        rec = self

        def traced(*args, **kwargs):
            idx = rec.open(name, perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx, perf_counter())
            if hook is not None:
                hook(rec, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        import spanflow
        mods = {name: importlib.import_module(f"spanflow.{name}") for name in LAYERS}
        for ns in [spanflow, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                pkg, _, home = obj.__module__.rpartition(".")
                if pkg != "spanflow" or home not in mods:
                    continue
                if ns is mods[home] and attr not in HOME_WRAPPED:
                    continue
                self._patch(ns, attr, f"{home}.{attr}", obj)
        self._patch(mods["flow"], "linprog", "flow.linprog", mods["flow"].linprog)
        self._patch(mods["cli"], "main", "cli.main", mods["cli"].main)
        for home, cls_name, meth in METHODS:
            cls = getattr(mods[home], cls_name)
            raw = cls.__dict__[meth]
            name = f"{home}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, HOOKS.get(name)))
            else:
                wrapped = self.wrap(name, raw, HOOKS.get(name))
            self._patched.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def _patch(self, ns, attr: str, name: str, fn) -> None:
        self._patched.append((ns, attr, fn))
        setattr(ns, attr, self.wrap(name, fn, HOOKS.get(name)))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched = []


# -- counters read at the boundaries -----------------------------------------


def _dijkstra(rec, args, kwargs, out):
    g = args[0] if args else kwargs["g"]
    source = args[1] if len(args) > 1 else kwargs["source"]
    rec._graphs.append(g)
    rec._sources.add((id(g), source))


def _linprog(rec, args, kwargs, out):
    c = args[0] if args else kwargs["c"]
    for key in ("A_ub", "A_eq"):
        mat = kwargs.get(key)
        if mat is not None:
            rec.counts["flow.lp_rows"] += mat.shape[0]
            rec.counts["flow.lp_nnz"] += mat.nnz
    rec.counts["flow.lp_cols"] += len(c)
    rec.counts["flow.lp_iterations"] += int(getattr(out, "nit", 0))
    rec.counts["flow.lp_ok"] += bool(out.success)


def _enumerate(rec, args, kwargs, out):
    rec.counts["tightspan.cells_out"] += len(out.cells)


def _build(rec, args, kwargs, out):
    dec = args[0]
    rec.models[MODEL_NAMES.get(type(dec.model).__name__, "other")] += 1
    rec.tags[dec.template.tag] += 1


def _sample(rec, args, kwargs, out):
    if rec.parent_name() in SAMPLING:
        return  # `solution` samples through `assignment`; count it once
    rec.counts["decompose.samples"] += 1
    rec.counts["decompose.clusters"] += (out.size() if hasattr(out, "size")
                                         else len(set(out.values())))


def _generate(rec, args, kwargs, out):
    rec.counts["hard6.edges_generated"] += len(out.graph.edges)


def _read(rec, args, kwargs, out):
    text = args[0] if args else kwargs["text"]
    rec.counts["textio.bytes_read"] += len(text.encode())


def _write(rec, args, kwargs, out):
    rec.counts["textio.bytes_written"] += len(out.encode())


HOOKS = {
    "graphs.shortest_distances": _dijkstra,
    "flow.linprog": _linprog,
    "tightspan.enumerate_complex": _enumerate,
    "decompose.Decomposer.__init__": _build,
    "decompose.Decomposer.assignment": _sample,
    "decompose.Decomposer.assignment_ids": _sample,
    "decompose.Decomposer.solution": _sample,
    "hard6.generate": _generate,
    **{f"textio.load_{k}": _read for k in ("metric", "graph", "demand")},
    **{f"textio.dump_{k}": _write for k in ("metric", "graph", "demand")},
}


# -- per-layer metrics ----------------------------------------------------------


def self_times(spans: list) -> dict[str, float]:
    """Self time per layer: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.partition(".")[0]] += end - start - child[i]
    return out


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = rec.spans
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    sample_s = 0.0
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        if name in SAMPLING and (parent < 0 or spans[parent][0] not in SAMPLING):
            sample_s += end - start
    selfs = self_times(spans)
    c = rec.counts
    runs = calls["graphs.shortest_distances"]
    samples = c["decompose.samples"]
    solves = calls["flow.linprog"]
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "cli.calls": calls["cli.main"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "textio.bytes_read": c["textio.bytes_read"],
        "textio.bytes_written": c["textio.bytes_written"],
        "tightspan.enumerate_calls": calls["tightspan.enumerate_complex"],
        "tightspan.enumerate_s": total["tightspan.enumerate_complex"],
        "tightspan.cells_out": c["tightspan.cells_out"],
        "tightspan.project_calls": calls["tightspan.project"],
        "tightspan.project_s": total["tightspan.project"],
        "tightspan.membership_calls": calls["tightspan.in_tight_span"],
        "graphs.dijkstra_runs": runs,
        "graphs.dijkstra_s": total["graphs.shortest_distances"],
        "graphs.dijkstra_repeat_ratio": runs / rec.dijkstra_distinct if rec.dijkstra_distinct else 0.0,
        "graphs.project_graph_s": total["graphs.project_graph"],
        "decompose.build_calls": calls["decompose.Decomposer.__init__"],
        "decompose.build_s": total["decompose.Decomposer.__init__"],
        "decompose.samples": samples,
        "decompose.sample_s": sample_s,
        "decompose.cost_calls": calls["decompose.cost"],
        "decompose.cost_s": total["decompose.cost"],
        "decompose.expected_cost_s": total["decompose.expected_cost"],
        "decompose.contract_s": total["decompose.contract"],
        "decompose.clusters_per_sample": c["decompose.clusters"] / samples if samples else 0.0,
        "flow.lp_solves": solves,
        "flow.lp_solve_s": total["flow.linprog"],
        "flow.lp_host_s": total["flow.max_concurrent_flow"] - total["flow.linprog"],
        "flow.lp_rows": c["flow.lp_rows"],
        "flow.lp_cols": c["flow.lp_cols"],
        "flow.lp_nnz": c["flow.lp_nnz"],
        "flow.lp_iterations": c["flow.lp_iterations"],
        "flow.lp_ok_frac": c["flow.lp_ok"] / solves if solves else 0.0,
        "flow.oracle_s": total["flow.exact_single_commodity"],
        "flow.dual_s": total["flow.dual_value"],
        "hard6.generate_s": total["hard6.generate"],
        "hard6.edges_generated": c["hard6.edges_generated"],
        "hard6.snap_s": total["hard6.grid_snap"],
        "hard6.losses_s": total["hard6.losses"],
        "hard6.directional_s": total["hard6.directional_losses"],
        "hard6.planar_s": total["hard6.planar_losses"],
        "hard6.adjust_s": total["hard6.adjust_solution"],
        "trace.spans": len(spans),
    })
    for model in ("fan", "planar", "tree", "snap"):
        out[f"decompose.model_{model}"] = rec.models.get(model, 0)
    return out
