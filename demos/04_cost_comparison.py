#!/usr/bin/env python3
# Reproduce the published cost/delay comparison and the Pareto fronts.

from pathlib import Path

from revbcd import cost_table, improvement, pareto_front, pareto_points
from revbcd.costs import (
    render_markdown,
    render_svg,
    round_half_up,
    structural_discrepancy_report,
)

print("quantum-cost comparison across digit sizes:\n")
print(render_markdown(cost_table("qc")))

print("\ndelay comparison:\n")
print(render_markdown(cost_table("delay")))

print("\nheadline averages:")
for proposed, metric in (("Dec-RCA", "qc"), ("Dec-CSK", "delay")):
    rep = improvement(proposed, metric=metric)
    print(f"  {proposed} {metric}: {round_half_up(rep.average)}% average improvement")

print("\nPareto fronts (non-dominated in cost and delay):")
for n in (16, 32, 64):
    front = pareto_front(pareto_points(n))
    print(f"  N={n}: " + ", ".join(f"{p.name} ({p.qc}, {p.delay})" for p in front))

out = Path("pareto-N16.svg")
points = pareto_points(16)
out.write_text(render_svg(points, pareto_front(points)), encoding="utf-8")
print(f"\nwrote a scatter plot to {out}")

print("\n" + structural_discrepancy_report())
