"""Span recording for the traced run, and the per-layer metrics it yields.

Inside the benchmark process only, every public name that a module imports
from the layer below (and every package entry point the benchmark itself
calls) is replaced by a recorder that keeps a span -- name, start, end,
parent span and task -- in memory.  Nothing under src/ is edited, and the
originals are restored when the traced passes end.
"""

from __future__ import annotations

from collections import defaultdict
import functools
import importlib
import json
import statistics
import time

import workloads

__all__ = ["Tracer", "PATCHES", "API_SPANS", "layer_metrics", "PER_LAYER"]

# (module, attribute, span name): the names each module imports from the
# layer below.  Same-module calls that cross a layer (normalize_gamma ->
# pnorm, verify_thm1 -> statement2_family) resolve through module globals,
# so patching the defining module's attribute captures them too.
PATCHES = [
    ("sl_extremal.potentials", "pnorm", "potentials.pnorm"),
    ("sl_extremal.families", "lambda1", "eigensolver.lambda1"),
    ("sl_extremal.families", "lambda1_zero", "eigensolver.lambda1_zero"),
    ("sl_extremal.families", "pnorm", "potentials.pnorm"),
    ("sl_extremal.families", "normalize_gamma", "potentials.normalize_gamma"),
    ("sl_extremal.families", "statement2_family", "families.statement2_family"),
    ("sl_extremal.cli", "lambda1", "eigensolver.lambda1"),
    ("sl_extremal.cli", "lambda1_zero", "eigensolver.lambda1_zero"),
    ("sl_extremal.cli", "pnorm", "potentials.pnorm"),
    ("sl_extremal.cli", "wminus1_dist", "sobolev.wminus1_dist"),
    ("sl_extremal.cli", "verify_thm1", "families.verify_thm1"),
    ("sl_extremal.cli", "verify_thm2", "families.verify_thm2"),
    ("sl_extremal.cli", "search_extremum", "families.search_extremum"),
    ("sl_extremal.cli", "statement1_family", "families.statement1_family"),
    ("sl_extremal.cli", "statement2_family", "families.statement2_family"),
    ("sl_extremal.cli", "dumps", "jsonio.dumps"),
]

# the benchmark's own entry points into the package: api attribute -> span
API_SPANS = {
    "cli_main": "cli.main",
    "lambda1": "eigensolver.lambda1",
    "lambda1_fd": "eigensolver.lambda1_fd",
    "pnorm": "potentials.pnorm",
    "wminus1_dist": "sobolev.wminus1_dist",
    "statement1_family": "families.statement1_family",
    "statement2_family": "families.statement2_family",
    "search_extremum": "families.search_extremum",
}

# (metric, unit) per layer; every one is printed on every workload
PER_LAYER = [
    ("eigensolver.lambda1.calls", "count"),
    ("eigensolver.lambda1.busy_s", "s"),
    ("eigensolver.lambda1.p50_ms", "ms"),
    ("eigensolver.lambda1.iterations", "count"),
    ("eigensolver.lambda1.cells", "count"),
    ("eigensolver.lambda1.err_max", "rel"),
    ("eigensolver.lambda1.hint_hit_ratio", "ratio"),
    ("eigensolver.lambda1.failed", "count"),
    ("eigensolver.lambda1.share", "ratio"),
    ("eigensolver.lambda1_fd.calls", "count"),
    ("eigensolver.lambda1_fd.busy_s", "s"),
    ("eigensolver.lambda1_fd.p50_ms", "ms"),
    ("eigensolver.lambda1_fd.nodes", "count"),
    ("eigensolver.lambda1_fd.err_max", "rel"),
    ("eigensolver.lambda1_fd.failed", "count"),
    ("eigensolver.lambda1_fd.share", "ratio"),
    ("eigensolver.lambda1_zero.calls", "count"),
    ("eigensolver.lambda1_zero.busy_s", "s"),
    ("potentials.pnorm.calls", "count"),
    ("potentials.pnorm.busy_s", "s"),
    ("potentials.pnorm.cells", "count"),
    ("potentials.normalize_gamma.calls", "count"),
    ("potentials.normalize_gamma.busy_s", "s"),
    ("potentials.normalize_gamma.failed", "count"),
    ("sobolev.wminus1_dist.calls", "count"),
    ("sobolev.wminus1_dist.busy_s", "s"),
    ("sobolev.wminus1_dist.grid_nodes", "count"),
    ("sobolev.wminus1_dist.bytes_computed", "B"),
    ("families.verify_thm1.calls", "count"),
    ("families.verify_thm1.self_s", "s"),
    ("families.verify_thm2.calls", "count"),
    ("families.verify_thm2.self_s", "s"),
    ("families.search_extremum.calls", "count"),
    ("families.search_extremum.self_s", "s"),
    ("families.search_extremum.evaluations", "count"),
    ("families.search_extremum.accept_ratio", "ratio"),
    ("families.statement1_family.calls", "count"),
    ("families.statement1_family.self_s", "s"),
    ("families.statement2_family.calls", "count"),
    ("families.statement2_family.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.exit_nonzero", "count"),
    ("jsonio.dumps.calls", "count"),
    ("jsonio.dumps.busy_s", "s"),
    ("jsonio.dumps.bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        # span: [name, start, end, parent index, task id, failed]
        self.spans: list[list] = []
        # span index -> (args, kwargs, result) for layers whose counters
        # read arguments or results
        self.calls: dict[int, tuple] = {}
        self.task = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        spans, calls, stack = self.spans, self.calls, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.task, False]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[5] = True
                raise
            finally:
                stack.pop()
            span[2] = clock()
            calls[index] = (args, kwargs, result)
            return result

        return recorder

    def install(self, api):
        """Patch the package's cross-layer imports and return ``api`` with
        its entry points wrapped.  A name missing from a module or from the
        api is reported as absent rather than raising."""
        self.absent = []
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        traced = dict(vars(api))
        for attr, span in API_SPANS.items():
            if traced.get(attr) is None:
                self.absent.append(f"api.{attr}")
            else:
                traced[attr] = self.wrap(span, traced[attr])
        return type(api)(**traced)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path, context):
        names = ["name", "start", "end", "parent", "task", "failed"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"context": context, "fields": names, "spans": self.spans}, handle)


def _cells(q):
    bps, hs, deltas = workloads.step_data(q)
    return len(hs) + len({s for s, _ in deltas} - set(bps))


def layer_metrics(tracer, passes, first_pass_tasks, checker, wall_traced, wall_plain):
    """Per-pass layer metrics from the spans of ``passes`` identical traced
    passes.  Errors are taken over the calls made in the first traced pass
    (the later passes repeat them)."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for i, (name, start, end, parent, task, failed) in enumerate(tracer.spans):
        by_name[name].append(i)
        if parent is not None:
            child_time[parent] += end - start
    spans = tracer.spans

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_pass(x):
        return x / passes

    out = {}
    layers = {m.rsplit(".", 1)[0] for m, _ in PER_LAYER} - {"trace"}
    for layer in layers:
        idx = by_name.get(layer, [])
        ok = [i for i in idx if i in tracer.calls]
        out[f"{layer}.calls"] = per_pass(len(idx))
        out[f"{layer}.busy_s"] = per_pass(sum(dur(i) for i in idx))
        out[f"{layer}.self_s"] = per_pass(sum(dur(i) - child_time[i] for i in idx))
        out[f"{layer}.p50_ms"] = 1e3 * statistics.median(dur(i) for i in idx) if idx else 0.0
        out[f"{layer}.failed"] = per_pass(len(idx) - len(ok))
        out[f"{layer}.share"] = out[f"{layer}.busy_s"] / wall_traced

        if layer == "eigensolver.lambda1":
            hinted = hits = 0
            iters = cells = 0
            for i in ok:
                args, kwargs, res = tracer.calls[i]
                iters += res.iterations
                cells += _cells(args[0])
                hint = kwargs.get("bracket_hint")
                if hint is not None:
                    hinted += 1
                    hits += hint[0] <= res.bracket[0] and res.bracket[1] <= hint[1]
            out[f"{layer}.iterations"] = per_pass(iters)
            out[f"{layer}.cells"] = per_pass(cells)
            out[f"{layer}.hint_hit_ratio"] = hits / hinted if hinted else 0.0
        elif layer == "eigensolver.lambda1_fd":
            out[f"{layer}.nodes"] = per_pass(sum(tracer.calls[i][0][2] for i in ok))
        elif layer == "potentials.pnorm":
            out[f"{layer}.cells"] = per_pass(sum(len(workloads.step_data(tracer.calls[i][0][0])[1])
                                                 for i in ok))
        elif layer == "sobolev.wminus1_dist":
            nodes = sum(tracer.calls[i][0][2] + 1 for i in ok)
            out[f"{layer}.grid_nodes"] = per_pass(nodes)
            # one banded solve reads and writes four float64 arrays of grid_n + 1
            out[f"{layer}.bytes_computed"] = per_pass(8 * 4 * nodes)
        elif layer == "families.search_extremum":
            evals = sum(tracer.calls[i][2].evaluations for i in ok)
            accepted = sum(len(tracer.calls[i][2].trace) - 1 for i in ok)
            out[f"{layer}.evaluations"] = per_pass(evals)
            out[f"{layer}.accept_ratio"] = accepted / evals if evals else 0.0
        elif layer == "cli.main":
            out[f"{layer}.exit_nonzero"] = per_pass(sum(tracer.calls[i][2] != 0 for i in ok))
        elif layer == "jsonio.dumps":
            out[f"{layer}.bytes"] = per_pass(sum(len(tracer.calls[i][2]) for i in ok))

    out["eigensolver.lambda1.err_max"] = _err_max(
        tracer, by_name["eigensolver.lambda1"], first_pass_tasks, checker,
        lambda call: call[2].lambda1)
    out["eigensolver.lambda1_fd.err_max"] = _err_max(
        tracer, by_name["eigensolver.lambda1_fd"], first_pass_tasks, checker,
        lambda call: call[2])
    out["trace.wall_s"] = wall_traced
    out["trace.overhead_s"] = wall_traced - wall_plain
    return {m: (out.get(m, 0.0), unit) for m, unit in PER_LAYER}


def _err_max(tracer, indices, tasks, checker, value_of):
    worst = 0.0
    for i in indices:
        if tracer.spans[i][4] not in tasks or i not in tracer.calls:
            continue
        call = tracer.calls[i]
        q, bc = call[0][0], call[0][1]
        bps, hs, deltas = workloads.step_data(q)
        ref = checker.lam(bps, hs, deltas, bc.k0sq, bc.k1sq)
        worst = max(worst, workloads.eig_err(value_of(call), ref))
    return worst
