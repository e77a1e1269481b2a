"""Structural figures of merit: gate count, constant inputs, garbage
outputs, quantum cost, and critical-path delay.

Delay model: pure longest path over per-gate delays.  Inputs and constants
start at time 0; a gate completes at (max arrival over its pins) + its
delay and sets all its pins, pass-through outputs included, to the
completion time.  Circuit delay is the maximum arrival over the designated
named outputs; garbage lines do not set the delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionError, LineIndexError, MetricsUndefinedError
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

    def as_dict(self) -> dict[str, int]:
        return {
            "gc": self.gc,
            "ci": self.ci,
            "go": self.go,
            "qc": self.qc,
            "delay": self.delay,
        }

    def __str__(self) -> str:
        return (
            f"gc={self.gc} ci={self.ci} go={self.go} "
            f"qc={self.qc} delay={self.delay}"
        )


@dataclass(frozen=True)
class ArrivalProfile:
    """Per-line final arrivals plus per-gate completion bookkeeping.

    Callers that need several figures of one netlist compute it once and
    pass it to each as ``profile=``.
    """

    final: tuple[int, ...]
    completions: tuple[int, ...]
    pre_arrivals: tuple[tuple[int, ...], ...]


def arrival_profile(netlist: Netlist) -> ArrivalProfile:
    arr = [0] * netlist.width
    completions = []
    pres = []
    delay = _DELAY
    for kind, pins, _ in netlist.gates:
        pre = tuple([arr[p] for p in pins])
        t = max(pre) + delay[kind]
        for p in pins:
            arr[p] = t
        completions.append(t)
        pres.append(pre)
    return ArrivalProfile(tuple(arr), tuple(completions), tuple(pres))


def arrival_of(netlist: Netlist, line_or_name: int | str) -> int:
    """Arrival time (delta units) of a line index or a named output."""
    profile = arrival_profile(netlist)
    if isinstance(line_or_name, str):
        try:
            line = netlist.output_map[line_or_name]
        except KeyError:
            raise LineIndexError(f"no output named {line_or_name!r}")
    else:
        line = line_or_name
        if not 0 <= line < netlist.width:
            raise LineIndexError(f"line {line} outside 0..{netlist.width - 1}")
    return profile.final[line]


def circuit_delay(
    netlist: Netlist, *, profile: ArrivalProfile | None = None
) -> int:
    if not netlist.outputs:
        raise MetricsUndefinedError(
            "delay needs designated outputs; none are named"
        )
    if profile is None:
        profile = arrival_profile(netlist)
    return max(profile.final[line] for _, line in netlist.outputs)


def structural_metrics(
    netlist: Netlist, *, profile: ArrivalProfile | None = None
) -> MetricReport:
    """Compute the full metric bundle for a netlist with named outputs.

    `profile`, when given, must be `arrival_profile(netlist)`.
    """
    if not netlist.outputs:
        raise MetricsUndefinedError(
            "structural metrics need designated outputs"
        )
    qc = sum(_QC[kind] for kind, _, _ in netlist.gates)
    return MetricReport(
        gc=len(netlist.gates),
        ci=len(netlist.const_lines()),
        go=len(netlist.garbage_lines()),
        qc=qc,
        delay=circuit_delay(netlist, profile=profile),
    )


def critical_path(
    netlist: Netlist, *, profile: ArrivalProfile | None = None
) -> list[int]:
    """Gate indices along the longest path to the slowest named output.

    Walks backwards from the named output with the greatest arrival,
    always following the pin with the greatest pre-gate arrival (ties
    break to the lowest pin position, so the path is deterministic).
    The setter of a line at time t is the last gate touching that line
    that completes at t.

    One backward sweep finds every setter: the search for the next one
    starts just below the previous setter.  That skips no candidate
    because every gate delay is at least 1: the previous setter, and every
    later gate touching the line it hands on, completes strictly later
    than that line's pre-gate arrival t.
    """
    if not netlist.outputs:
        raise MetricsUndefinedError("critical path needs designated outputs")
    if profile is None:
        profile = arrival_profile(netlist)
    line, t = max(
        ((l, profile.final[l]) for _, l in netlist.outputs),
        key=lambda item: item[1],
    )
    path: list[int] = []
    cursor = len(netlist.gates) - 1
    while t > 0:
        setter = None
        for idx in range(cursor, -1, -1):
            if line in netlist.gates[idx].pins and profile.completions[idx] == t:
                setter = idx
                break
        if setter is None:
            break  # arrival 0 or a line never touched
        path.append(setter)
        cursor = setter - 1
        pins = netlist.gates[setter].pins
        pre = profile.pre_arrivals[setter]
        best = max(range(len(pins)), key=lambda pos: (pre[pos], -pos))
        line = pins[best]
        t = pre[best]
    path.reverse()
    return path


def _stage_of(gate, index: int) -> str:
    if gate.stage is None:
        raise DecompositionError(f"gate {index} ({gate.kind}) has no stage tag")
    return gate.stage


def metric_decomposition(
    netlist: Netlist, *, profile: ArrivalProfile | None = None
) -> dict[str, MetricReport]:
    """Per-stage metric bundles for a fully stage-tagged netlist.

    gc/qc sum per stage over that stage's gates.  A constant line counts
    toward the stage of the first gate consuming it; a garbage line counts
    toward the stage of the last gate touching it.  The delay figure is
    the stage's contribution to the circuit critical path (the sum of
    critical-path gate delays tagged with that stage), matching the
    additive per-stage delay arithmetic of the designs.  `profile`, when
    given, must be `arrival_profile(netlist)`.
    """
    if not netlist.outputs:
        raise MetricsUndefinedError("decomposition needs designated outputs")
    stages: list[str] = []
    for i, g in enumerate(netlist.gates):
        s = _stage_of(g, i)
        if s not in stages:
            stages.append(s)

    first_toucher: dict[int, int] = {}
    last_toucher: dict[int, int] = {}
    for i, g in enumerate(netlist.gates):
        for p in g.pins:
            first_toucher.setdefault(p, i)
            last_toucher[p] = i

    gc = {s: 0 for s in stages}
    qc = {s: 0 for s in stages}
    ci = {s: 0 for s in stages}
    go = {s: 0 for s in stages}
    delay = {s: 0 for s in stages}

    for kind, _, stage in netlist.gates:
        gc[stage] += 1
        qc[stage] += _QC[kind]

    for line in netlist.const_lines():
        if line not in first_toucher:
            raise DecompositionError(
                f"constant line {line} is consumed by no gate"
            )
        ci[netlist.gates[first_toucher[line]].stage] += 1

    for line in netlist.garbage_lines():
        if line not in last_toucher:
            raise DecompositionError(
                f"garbage line {line} is touched by no gate"
            )
        go[netlist.gates[last_toucher[line]].stage] += 1

    for idx in critical_path(netlist, profile=profile):
        kind, _, stage = netlist.gates[idx]
        delay[stage] += _DELAY[kind]

    return {
        s: MetricReport(gc[s], ci[s], go[s], qc[s], delay[s]) for s in stages
    }
