"""Structural figures of merit: gate count, constant inputs, garbage
outputs, quantum cost, and critical-path delay.

Delay model: pure longest path over per-gate delays.  Inputs and constants
start at time 0; a gate completes at (max arrival over its pins) + its
delay and sets all its pins, pass-through outputs included, to the
completion time.  Circuit delay is the maximum arrival over the designated
named outputs; garbage lines do not set the delay.

Every figure that needs arrivals reads them from one forward sweep,
`arrival_profile`.  Besides each gate's completion it links each gate to
its critical predecessor, so the critical path is a walk along those links
and the stage split reads each line's first and last gate from it too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DecompositionError, MetricsUndefinedError
from .gates import ALL_KINDS, gate_cost
from .netlist import Netlist

# Per-kind quantum cost and delay, read once per gate by the sweeps below.
_QC = {kind: gate_cost(kind)[0] for kind in ALL_KINDS}
_DELAY = {kind: gate_cost(kind)[1] for kind in ALL_KINDS}


@dataclass(frozen=True)
class MetricReport:
    """gc / ci / go / qc / delay bundle for one netlist or one stage."""

    gc: int
    ci: int
    go: int
    qc: int
    delay: int

    def __str__(self) -> str:
        return (
            f"gc={self.gc} ci={self.ci} go={self.go} "
            f"qc={self.qc} delay={self.delay}"
        )


@dataclass(frozen=True)
class ArrivalProfile:
    """What one forward sweep over the gates records.

    Per gate g: ``completions[g]``, its completion time, and ``via[g]``,
    the last gate before g to touch g's latest-arriving pin (the lowest
    pin position on a tie), or -1 when that arrival is 0.  Per line:
    ``final``, its arrival after the last gate, and ``first`` / ``last``,
    the first and last gate touching it (-1 when none does).
    """

    final: tuple[int, ...]
    completions: tuple[int, ...]
    via: tuple[int, ...]
    first: tuple[int, ...]
    last: tuple[int, ...]


def arrival_profile(netlist: Netlist) -> ArrivalProfile:
    arr = [0] * netlist.width
    first = [-1] * netlist.width
    last = [-1] * netlist.width
    completions = []
    via = []
    delay = _DELAY
    for g, (kind, pins) in enumerate(zip(netlist.gates.kinds, netlist.gates.pins)):
        # The latest pin, the lowest position on a tie (strict >).
        t = -1
        for p in pins:
            a = arr[p]
            if a > t:
                t = a
                top = p
        # An untouched line arrives at 0 and every touched one later, so
        # the latest pin's last gate is -1 exactly when its arrival is 0.
        via.append(last[top])
        t += delay[kind]
        completions.append(t)
        for p in pins:
            arr[p] = t
            if last[p] < 0:
                first[p] = g
            last[p] = g
    return ArrivalProfile(
        tuple(arr), tuple(completions), tuple(via), tuple(first), tuple(last)
    )


def structural_metrics(netlist: Netlist) -> MetricReport:
    """Compute the full metric bundle for a netlist with named outputs."""
    if not netlist.outputs:
        raise MetricsUndefinedError(
            "structural metrics need designated outputs"
        )
    final = arrival_profile(netlist).final
    return MetricReport(
        gc=len(netlist.gates),
        ci=len(netlist.const_lines()),
        go=len(netlist.garbage_lines()),
        qc=sum(map(_QC.__getitem__, netlist.gates.kinds)),
        delay=max(map(final.__getitem__, netlist.outputs.lines)),
    )


def critical_path(netlist: Netlist) -> list[int]:
    """Gate indices along the longest path to the slowest named output.

    Starts at the last gate on the named output with the greatest arrival
    (the first-named one on a tie) and follows each gate's `via` link, the
    gate that set its latest-arriving pin, until an arrival of 0.  The
    path is empty when that output arrives at 0.
    """
    if not netlist.outputs:
        raise MetricsUndefinedError("critical path needs designated outputs")
    return _walk(netlist, arrival_profile(netlist))


def _walk(netlist: Netlist, profile: ArrivalProfile) -> list[int]:
    """`critical_path` of a netlist with outputs, read from its profile."""
    final, via = profile.final, profile.via
    line = max(netlist.outputs.lines, key=final.__getitem__)
    path: list[int] = []
    gate = profile.last[line]
    while gate >= 0:
        path.append(gate)
        gate = via[gate]
    path.reverse()
    return path


def metric_decomposition(netlist: Netlist) -> dict[str, MetricReport]:
    """Per-stage metric bundles for a fully stage-tagged netlist.

    gc/qc sum per stage over that stage's gates.  A constant line counts
    toward the stage of the first gate consuming it; a garbage line counts
    toward the stage of the last gate touching it.  The delay figure is
    the stage's contribution to the circuit critical path (the sum of
    critical-path gate delays tagged with that stage), matching the
    additive per-stage delay arithmetic of the designs.  Stages come in
    the order their first gate does.
    """
    if not netlist.outputs:
        raise MetricsUndefinedError("decomposition needs designated outputs")
    kinds, stages = netlist.gates.kinds, netlist.gates.stages
    if None in stages:
        i = stages.index(None)
        raise DecompositionError(f"gate {i} ({kinds[i]}) has no stage tag")
    rows: dict[str, list[int]] = {}  # stage -> [gc, ci, go, qc, delay]
    # A Counter keeps its keys in first-seen order: stages by first gate.
    for (stage, kind), count in Counter(zip(stages, kinds)).items():
        row = rows.setdefault(stage, [0, 0, 0, 0, 0])
        row[0] += count
        row[3] += count * _QC[kind]

    profile = arrival_profile(netlist)
    consts = netlist.const_lines()
    firsts = list(map(profile.first.__getitem__, consts))
    if -1 in firsts:
        line = consts[firsts.index(-1)]
        raise DecompositionError(f"constant line {line} is consumed by no gate")
    garbage = netlist.garbage_lines()
    lasts = list(map(profile.last.__getitem__, garbage))
    if -1 in lasts:
        line = garbage[lasts.index(-1)]
        raise DecompositionError(f"garbage line {line} is touched by no gate")
    for stage, count in Counter(map(stages.__getitem__, firsts)).items():
        rows[stage][1] += count
    for stage, count in Counter(map(stages.__getitem__, lasts)).items():
        rows[stage][2] += count
    path = _walk(netlist, profile)
    on_path = zip(map(stages.__getitem__, path), map(kinds.__getitem__, path))
    for (stage, kind), count in Counter(on_path).items():
        rows[stage][4] += count * _DELAY[kind]

    return {stage: MetricReport(*row) for stage, row in rows.items()}


def total(reports: Iterable[MetricReport]) -> MetricReport:
    """The column sums of metric bundles.  Every figure of a stage split
    adds up to the netlist's, so for every netlist `metric_decomposition`
    accepts, ``total(metric_decomposition(nl).values())`` equals
    ``structural_metrics(nl)``."""
    rows = [(r.gc, r.ci, r.go, r.qc, r.delay) for r in reports]
    return MetricReport(*map(sum, zip((0, 0, 0, 0, 0), *rows)))
