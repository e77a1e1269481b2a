#!/usr/bin/env python3
# Carry-skip mechanics: the bypass condition, worst-case vectors, and the
# structural delay advantage over the ripple design.

from revbcd import (
    build_dec_csk,
    build_dec_rca,
    decimal_propagate,
    structural_metrics,
)
from revbcd.verify import adder_sum

print("digit pairs that bypass the carry (their sum is exactly 9):")
pairs = [(a, b) for a in range(10) for b in range(10) if decimal_propagate(a, b)]
print(" ", pairs, "\n")

# 88888889 + 11111111: digit 0 generates a carry, every other digit pair
# sums to 9, so the carry skips across the entire operand.
for a, b in ((88888889, 88888889), (88888889, 11111111)):
    total, carry, _ = adder_sum("dec-csk", 8, a, b)
    print(f"{a} + {b} = {carry}{total:08d}")

print("\nstructural delay, ripple vs carry-skip:")
print(f"{'digits':>6} {'ripple':>7} {'skip':>5}")
for n in (1, 2, 4, 8, 16):
    d_rca = structural_metrics(build_dec_rca(n)).delay
    d_csk = structural_metrics(build_dec_csk(n)).delay
    print(f"{n:>6} {d_rca:>7} {d_csk:>5}")
print("\nthe ripple chain grows 25 delta per digit; the skip chain grows 5,")
print("one multiplexer plus one copy gate per digit.")
