"""Span tracer installed by the benchmark around the program's public functions.

The program has no tracing of its own, so the benchmark wraps the functions
that mark each layer boundary.  A wrapper records one span per call: id,
parent span, operation id, layer name, start and end (``perf_counter``
seconds) and an optional extra value taken from the call's arguments or
result.  Spans stay in memory until the run ends.

Modules of the package import many of these functions by name
(``from .solvers import solve_forward_quasilinear``), so a wrapper replaces
every binding of the original function object in every ``hiercontrol``
module; ``install`` fails if any binding is left unwrapped.  Methods are
wrapped on the class, and ``scipy.sparse.linalg.splu`` on the scipy module
the package calls it through.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, attribute) for module-level functions.
FUNCTIONS = (
    ("scenario.load", "hiercontrol.scenario", "load_scenario"),
    ("grids.stencil", "hiercontrol.grids", "gradient_matrices"),
    ("solvers.qfwd", "hiercontrol.solvers", "solve_forward_quasilinear"),
    ("solvers.assembly", "hiercontrol.solvers", "slice_operator"),
    ("solvers.factors", "hiercontrol.solvers", "state_factors"),
    ("solvers.factors", "hiercontrol.solvers", "sensitivity_factors"),
    ("solvers.march", "hiercontrol.solvers", "march_forward"),
    ("solvers.march", "hiercontrol.solvers", "march_adjoint"),
    ("solvers.splu", "scipy.sparse.linalg", "splu"),
    ("nash.compute", "hiercontrol.nash", "compute_nash"),
    ("nash.coefficients", "hiercontrol.nash", "coefficients_from_state"),
    ("nash.residuals", "hiercontrol.nash", "with_first_order_residuals"),
    ("leader.solve", "hiercontrol.leader", "solve_leader"),
    ("fixedpoint.solve", "hiercontrol.fixedpoint", "solve_hierarchic"),
    ("fixedpoint.linearize", "hiercontrol.fixedpoint", "linearize_at"),
    ("verification.duality", "hiercontrol.verification", "check_duality"),
    ("verification.oracle", "hiercontrol.verification", "oracle_nash_gap"),
    ("verification.second_order", "hiercontrol.verification", "check_second_order"),
    ("verification.observability", "hiercontrol.verification", "probe_observability"),
    ("verification.carleman", "hiercontrol.verification", "probe_carleman"),
    ("outputs.emit", "hiercontrol.outputs", "emit_csv"),
    ("outputs.emit", "hiercontrol.outputs", "emit_report"),
    ("outputs.emit", "hiercontrol.outputs", "emit_svg"),
    ("cli.main", "hiercontrol.cli", "main"),
)

# (layer, class attribute of hiercontrol.leader.GramianContext)
METHODS = (
    ("leader.context", "__init__"),
    ("leader.gramian", "gramian_apply"),
    ("leader.coupled", "solve_primal"),
    ("leader.coupled", "solve_transposed"),
)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hiercontrol" or n.startswith("hiercontrol."))]


class Tracer:
    """Wrappers for every traced function; ``install``/``uninstall`` swap them in."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]
        self._next = 0
        self._op = None
        # program objects seen during the current operation, for the self-checks
        self.contexts: list = []
        self.program = defaultdict(int)
        self._patches = []            # (owner, attribute, original, wrapper)
        self._undo = []               # (owner, attribute, original) while installed
        self._op_start = 0

        from hiercontrol.leader import GramianContext, leader_duality_gap

        self._duality_gap = leader_duality_gap
        post = {
            "solvers.splu": self._post_splu,
            "outputs.emit": self._post_emit,
            "leader.context": self._post_context,
            "leader.solve": self._post_solve,
            "nash.compute": self._post_nash,
            "fixedpoint.solve": self._post_fixedpoint,
        }
        for layer, modname, attr in FUNCTIONS:
            owner = sys.modules[modname]
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig, self._wrap(layer, orig, post.get(layer))))
        for layer, attr in METHODS:
            orig = vars(GramianContext)[attr]
            self._patches.append(
                (GramianContext, attr, orig, self._wrap(layer, orig, post.get(layer))))

    # ----------------------------------------------------------------- spans
    def _wrap(self, layer, fn, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            span = [sid, tracer._stack[-1], tracer._op, layer, perf_counter(), 0.0, None]
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if post is not None:
                span[6] = post(args, kwargs, result)
            return result

        return traced

    def _post_splu(self, args, kwargs, lu):
        return int(lu.L.nnz + lu.U.nnz)

    def _post_emit(self, args, kwargs, result):
        return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))

    def _post_context(self, args, kwargs, result):
        ctx = args[0]
        self.contexts.append(ctx)
        return ctx.size if ctx.strategy == "monolithic" else 0

    def _post_solve(self, args, kwargs, sol):
        self.program["cg_iterations"] += sol.cg_iterations
        return self._duality_gap(args[0], sol)

    def _post_nash(self, args, kwargs, sol):
        self.program["nash_iterations"] += sol.picard_iterations
        return None

    def _post_fixedpoint(self, args, kwargs, rep):
        self.program["outer_iterations"] += rep.iterations
        return None

    # --------------------------------------------------------------- patching
    def install(self, op):
        """Start operation ``op``: replace every binding of each traced function."""
        self._op = op
        self._op_start = len(self.spans)
        self.contexts = []
        self.program = defaultdict(int)
        modules = _package_modules()
        for owner, attr, orig, wrapper in self._patches:
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, orig))
                continue
            for mod in [owner] + [m for m in modules if m is not owner]:
                for name in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, orig))
        originals = {id(orig) for _, _, orig, _ in self._patches}
        for mod in modules:
            for name, value in vars(mod).items():
                if id(value) in originals:
                    self.uninstall()
                    raise RuntimeError(f"{mod.__name__}.{name} escaped the tracer")

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    def op_report(self):
        """Layer metrics of the last operation and its counter self-check.

        Returns (metrics, mismatches); a mismatch names a count the trace
        derives that differs from the program's own counter.
        """
        metrics = layer_metrics(self.spans[self._op_start:])
        program = dict(self.program)
        program["gramian_applications"] = sum(c.gramian_applications for c in self.contexts)
        self.contexts = []
        pairs = (
            ("gramian_applications", "leader.gramian_calls"),
            ("cg_iterations", "leader.cg_iterations"),
            ("nash_iterations", "nash.picard_iterations"),
            ("outer_iterations", "fixedpoint.outer_iterations"),
        )
        mismatches = [
            f"{key}: program {program.get(key, 0)} != trace {metrics[name]}"
            for key, name in pairs if program.get(key, 0) != metrics[name]
        ]
        return metrics, mismatches

    def write(self, path):
        """All spans as JSON lines: id, parent, op, layer, start, end, extra."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one operation

# layer -> e2e map lives in bench/README.md; these are the names reported.
LAYER_METRICS = (
    ("scenario.load_s", "s"),
    ("grids.stencil_calls", "count"),
    ("grids.stencil_s", "s"),
    ("solvers.qfwd_calls", "count"),
    ("solvers.qfwd_self_s", "s"),
    ("solvers.assembly_calls", "count"),
    ("solvers.assembly_s", "s"),
    ("solvers.factors_calls", "count"),
    ("solvers.factors_s", "s"),
    ("solvers.march_calls", "count"),
    ("solvers.march_s", "s"),
    ("solvers.splu_calls", "count"),
    ("solvers.splu_s", "s"),
    ("solvers.splu_fill_nnz", "count"),
    ("nash.calls", "count"),
    ("nash.picard_iterations", "count"),
    ("nash.self_s", "s"),
    ("nash.coefficients_s", "s"),
    ("nash.residuals_s", "s"),
    ("leader.context_calls", "count"),
    ("leader.context_s", "s"),
    ("leader.monolithic_unknowns", "count"),
    ("leader.solve_calls", "count"),
    ("leader.solve_self_s", "s"),
    ("leader.cg_iterations", "count"),
    ("leader.gramian_calls", "count"),
    ("leader.gramian_s", "s"),
    ("leader.coupled_solves", "count"),
    ("leader.coupled_s", "s"),
    ("leader.marches_per_coupled_solve", "ratio"),
    ("leader.duality_gap_max", "ratio"),
    ("fixedpoint.outer_iterations", "count"),
    ("fixedpoint.linearize_calls", "count"),
    ("fixedpoint.self_s", "s"),
    ("verification.duality_s", "s"),
    ("verification.oracle_s", "s"),
    ("verification.second_order_s", "s"),
    ("verification.observability_s", "s"),
    ("verification.carleman_s", "s"),
    ("outputs.emit_calls", "count"),
    ("outputs.emit_s", "s"),
    ("outputs.bytes", "bytes"),
    ("cli.self_s", "s"),
)


def layer_metrics(spans) -> dict:
    """Counts, inclusive seconds and self seconds per layer for one operation.

    A span's self time is its duration minus the durations of its direct
    children; calls are strictly nested because the program is
    single-threaded.
    """
    layer = {}
    count = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    extra = defaultdict(list)
    for sid, parent, _, name, t0, t1, ext in spans:
        layer[sid] = name
        count[name] += 1
        total[name] += t1 - t0
        own[name] += t1 - t0
        if ext is not None:
            extra[name].append(ext)
    under = defaultdict(int)          # (parent layer, child layer) -> calls
    for sid, parent, _, name, t0, t1, _ in spans:
        if parent in layer:
            own[layer[parent]] -= t1 - t0
            under[(layer[parent], name)] += 1
    coupled = count["leader.coupled"]
    return {
        "scenario.load_s": total["scenario.load"],
        "grids.stencil_calls": count["grids.stencil"],
        "grids.stencil_s": total["grids.stencil"],
        "solvers.qfwd_calls": count["solvers.qfwd"],
        "solvers.qfwd_self_s": own["solvers.qfwd"],
        "solvers.assembly_calls": count["solvers.assembly"],
        "solvers.assembly_s": total["solvers.assembly"],
        "solvers.factors_calls": count["solvers.factors"],
        "solvers.factors_s": total["solvers.factors"],
        "solvers.march_calls": count["solvers.march"],
        "solvers.march_s": total["solvers.march"],
        "solvers.splu_calls": count["solvers.splu"],
        "solvers.splu_s": total["solvers.splu"],
        "solvers.splu_fill_nnz": sum(extra["solvers.splu"]),
        "nash.calls": count["nash.compute"],
        # each compute_nash factors once per Picard iteration plus once for
        # its final consistency pass
        "nash.picard_iterations": under[("nash.compute", "solvers.factors")]
        - count["nash.compute"],
        "nash.self_s": own["nash.compute"],
        "nash.coefficients_s": total["nash.coefficients"],
        "nash.residuals_s": total["nash.residuals"],
        "leader.context_calls": count["leader.context"],
        "leader.context_s": total["leader.context"],
        "leader.monolithic_unknowns": sum(extra["leader.context"]),
        "leader.solve_calls": count["leader.solve"],
        "leader.solve_self_s": own["leader.solve"],
        # one Gramian application per CG iteration
        "leader.cg_iterations": under[("leader.solve", "leader.gramian")],
        "leader.gramian_calls": count["leader.gramian"],
        "leader.gramian_s": total["leader.gramian"],
        "leader.coupled_solves": coupled,
        "leader.coupled_s": total["leader.coupled"],
        "leader.marches_per_coupled_solve":
            under[("leader.coupled", "solvers.march")] / coupled if coupled else 0.0,
        "leader.duality_gap_max": max(extra["leader.solve"], default=0.0),
        # solve_hierarchic linearizes once per outer iteration
        "fixedpoint.outer_iterations": under[("fixedpoint.solve", "fixedpoint.linearize")],
        "fixedpoint.linearize_calls": count["fixedpoint.linearize"],
        "fixedpoint.self_s": own["fixedpoint.solve"],
        "verification.duality_s": total["verification.duality"],
        "verification.oracle_s": total["verification.oracle"],
        "verification.second_order_s": total["verification.second_order"],
        "verification.observability_s": total["verification.observability"],
        "verification.carleman_s": total["verification.carleman"],
        "outputs.emit_calls": count["outputs.emit"],
        "outputs.emit_s": total["outputs.emit"],
        "outputs.bytes": sum(extra["outputs.emit"]),
        "cli.self_s": own["cli.main"],
    }
