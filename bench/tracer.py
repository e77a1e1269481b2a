"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the revbcd modules from outside the
package: each wrapped call records a span (name, start, end, parent) and
adds its duration to per-name totals.  A span's self time is its duration
minus the time its wrapped children cover.  Aggregates are exact for every
call; raw spans are kept in memory up to a cap and written when the run
ends, so a hot function called millions of times cannot exhaust memory.

Each wrapped name is patched wherever the revbcd modules hold the original
object: module globals (``revbcd.cli.bcd_add`` as well as
``revbcd.ledger.bcd_add``), dispatch tables such as ``verify.SCOPES`` and
``designs.DESIGN_BUILDERS``, and class attributes for methods
(``CompiledNetlist.run_state``).  ``uninstall`` puts every original back.

Functions called once per gate (``gates.gate_cost``, ``gate_semantics``)
are deliberately not wrapped: a span per gate would cost more than the
work it measures.  Their time lands in the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _count_gates_if_outermost(tracer, args, result, parent):
    # build_design dispatches to the wrapped builders, so only the outermost
    # designs span counts the gates it returns.
    if parent is None or not parent.startswith("designs."):
        tracer.add("designs.build.gates", len(result.gates))


def _count_gate_evals(tracer, args, result, parent):
    tracer.add("simulator.gate_evals", len(args[0].netlist.gates))


def _count_json_bytes(tracer, args, result, parent):
    # serialize emits ASCII-only JSON, so characters equal UTF-8 bytes.
    tracer.add("netlist.json_bytes", len(result))


# (module, attribute, exit hook).  "Class.method" patches the class.
TARGETS = (
    ("gates", "is_bijective", None),
    ("netlist", "serialize", _count_json_bytes),
    ("netlist", "deserialize", None),
    ("designs", "build_design", _count_gates_if_outermost),
    ("designs", "build_dec_rca", _count_gates_if_outermost),
    ("designs", "build_dec_csk", _count_gates_if_outermost),
    ("designs", "build_pdfa", _count_gates_if_outermost),
    ("designs", "build_scl", _count_gates_if_outermost),
    ("designs", "build_skip_generator", _count_gates_if_outermost),
    ("designs", "build_skip_block", _count_gates_if_outermost),
    ("designs", "build_correction", _count_gates_if_outermost),
    ("simulator", "compile_netlist", None),
    ("simulator", "CompiledNetlist.run_state", _count_gate_evals),
    ("simulator", "check_permutation", None),
    ("metrics", "structural_metrics", None),
    ("metrics", "arrival_profile", None),
    ("metrics", "critical_path", None),
    ("metrics", "metric_decomposition", None),
    ("verify", "run_scope", None),
    ("verify", "verify_adders", None),
    ("verify", "verify_metric_fidelity", None),
    ("verify", "adder_sum", None),
    ("ledger", "encode", None),
    ("ledger", "decode", None),
    ("ledger", "bcd_add", None),
    ("ledger", "ingest_csv", None),
    ("ledger", "sum_ledger", None),
    ("costs", "cost_table", None),
    ("costs", "structural_discrepancy_report", None),
    ("costs", "pareto_points", None),
    ("costs", "pareto_front", None),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 1
        self._undo: list = []

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, on_exit=None):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.total_ns[name] = tracer.total_ns.get(name, 0) + duration
                tracer.self_ns[name] = (
                    tracer.self_ns.get(name, 0) + duration - frame[2]
                )
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append(
                        (span_id, parent[0] if parent else 0, name, start, end)
                    )
                else:
                    tracer.dropped += 1
            if on_exit is not None:
                on_exit(tracer, args, result, parent[1] if parent else None)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever the revbcd modules refer to it."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "revbcd" or key.startswith("revbcd."))
        ]
        for module_name, attr, on_exit in targets:
            module = sys.modules[f"revbcd.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original, on_exit))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, on_exit)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._set(m, key, wrapper)
                    elif isinstance(value, dict):
                        self._patch_table(value, original, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((setattr, owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _patch_table(self, table: dict, original, wrapper) -> None:
        for key, value in list(table.items()):
            if value is original:
                new = wrapper
            elif isinstance(value, tuple) and any(v is original for v in value):
                new = tuple(wrapper if v is original else v for v in value)
            else:
                continue
            self._undo.append((dict.__setitem__, table, key, value))
            table[key] = new

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, value = self._undo.pop()
            setter(owner, key, value)

    # -- results ----------------------------------------------------------------

    def seconds(self, name: str, own: bool = False) -> float:
        table = self.self_ns if own else self.total_ns
        return table.get(name, 0) / 1e9

    def self_sum_seconds(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def dump(self, path: Path) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": s, "parent": p, "name": n, "start_ns": a, "end_ns": b}
                for s, p, n, a, b in self.spans
            ],
            "spans_dropped": self.dropped,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "calls": self.calls,
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def layer_values(
    tracer: Tracer,
    cycles: int,
    cache_hits: int,
    cache_misses: int,
    traced_wall_s: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer metric values from the traced cycles of one run.

    Times and counts are per cycle; the names and units are listed under
    ``per_layer`` in BENCHMARK.json.
    """
    t = tracer
    per = 1.0 / cycles
    designs_s = sum(v for k, v in t.self_ns.items() if k.startswith("designs.")) / 1e9
    run_state_ns = t.total_ns.get("simulator.run_state", 0)
    gate_evals = t.counts.get("simulator.gate_evals", 0)
    lookups = cache_hits + cache_misses
    return {
        "designs.build.s": designs_s * per,
        "designs.build.gates": t.counts.get("designs.build.gates", 0) * per,
        "netlist.serialize.s": t.seconds("netlist.serialize") * per,
        "netlist.deserialize.s": t.seconds("netlist.deserialize") * per,
        "netlist.json_bytes": t.counts.get("netlist.json_bytes", 0) * per,
        "simulator.compile.s": t.seconds("simulator.compile_netlist") * per,
        "simulator.compile.calls": t.calls.get("simulator.compile_netlist", 0) * per,
        "simulator.compile.hit_ratio": cache_hits / lookups if lookups else 0.0,
        "simulator.run_state.s": run_state_ns / 1e9 * per,
        "simulator.gate_evals": gate_evals * per,
        "simulator.ns_per_gate_eval": run_state_ns / gate_evals if gate_evals else 0.0,
        "simulator.check_permutation.self_s": t.seconds("simulator.check_permutation", own=True) * per,
        "ledger.encode.s": t.seconds("ledger.encode") * per,
        "ledger.decode.s": t.seconds("ledger.decode") * per,
        "ledger.bcd_add.self_s": t.seconds("ledger.bcd_add", own=True) * per,
        "ledger.ingest_csv.s": t.seconds("ledger.ingest_csv") * per,
        "ledger.sum_ledger.self_s": t.seconds("ledger.sum_ledger", own=True) * per,
        "ledger.additions": t.calls.get("ledger.bcd_add", 0) * per,
        "verify.adder_sum.self_s": t.seconds("verify.adder_sum", own=True) * per,
        "verify.verify_adders.self_s": t.seconds("verify.verify_adders", own=True) * per,
        "verify.verify_metric_fidelity.s": t.seconds("verify.verify_metric_fidelity") * per,
        "verify.run_scope.self_s": t.seconds("verify.run_scope", own=True) * per,
        "verify.vectors": t.calls.get("verify.adder_sum", 0) * per,
        "metrics.structural_metrics.self_s": t.seconds("metrics.structural_metrics", own=True) * per,
        "metrics.arrival_profile.s": t.seconds("metrics.arrival_profile") * per,
        "metrics.arrival_profile.calls": t.calls.get("metrics.arrival_profile", 0) * per,
        "metrics.critical_path.self_s": t.seconds("metrics.critical_path", own=True) * per,
        "metrics.metric_decomposition.self_s": t.seconds("metrics.metric_decomposition", own=True) * per,
        "costs.cost_table.s": t.seconds("costs.cost_table") * per,
        "costs.structural_discrepancy_report.self_s": t.seconds("costs.structural_discrepancy_report", own=True) * per,
        "costs.pareto.s": (t.seconds("costs.pareto_points") + t.seconds("costs.pareto_front")) * per,
        "gates.is_bijective.s": t.seconds("gates.is_bijective") * per,
        "cli.main.self_s": t.seconds("cli.main", own=True) * per,
        "trace.attributed_frac": t.self_sum_seconds() / traced_wall_s if traced_wall_s else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
