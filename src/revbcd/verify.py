"""Reusable verification suites: gate laws, adder oracles, metric fidelity.

Each check returns a VerifyResult; run_scope drives the named scope with a
fixed seed so every randomized pass is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .designs import (
    build_dec_csk,
    build_dec_rca,
    build_pdfa,
    build_skip_generator,
    decimal_propagate,
    skip_carry,
)
from .errors import InvalidArgumentError
from .gates import ALL_KINDS, is_bijective
from .ledger import DigitVector, adder_port, cached_adder, decode, encode
from .metrics import structural_metrics
from .simulator import CompiledNetlist, compile_netlist


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str


def adder_sum(compiled: CompiledNetlist, n: int, a: int, b: int, cin: int = 0):
    """Simulate one addition; returns (sum, carry, restored_ok)."""
    total, carry, ok = adder_port(compiled).add(encode(a, n), encode(b, n), cin)
    return decode(total), carry, ok


def verify_gates() -> VerifyResult:
    bad = [k.value for k in ALL_KINDS if not is_bijective(k)]
    return VerifyResult(
        "gates",
        not bad,
        f"{len(ALL_KINDS) - len(bad)}/{len(ALL_KINDS)} bijective"
        + (f"; failing: {bad}" if bad else ""),
    )


def verify_pdfa() -> VerifyResult:
    port = adder_port(compile_netlist(build_pdfa()))
    checked = failures = 0
    for a in range(10):
        for b in range(10):
            for c in range(2):
                total, carry, restored = port.add(
                    DigitVector((a,)), DigitVector((b,)), c
                )
                ok = (
                    total.digits == ((a + b + c) % 10,)
                    and carry == int(a + b + c >= 10)
                    and restored
                )
                checked += 1
                failures += not ok
    return VerifyResult(
        "pdfa", failures == 0, f"{checked - failures}/{checked} oracle matches"
    )


def verify_propagate() -> VerifyResult:
    compiled = compile_netlist(build_skip_generator())
    port = adder_port(compiled)
    p_line = compiled.netlist.output_map["P"]
    failures = 0
    for da in range(10):
        for db in range(10):
            want = int(da + db == 9)
            state = port.pack(DigitVector((da,)), DigitVector((db,)))
            compiled.run_state(state)
            if decimal_propagate(da, db) != want or state[p_line] != want:
                failures += 1
    rows_bad = 0
    for p in range(2):
        for dc in range(2):
            for g in range(2):
                if skip_carry(p, dc, g) != (dc if p else g):
                    rows_bad += 1
    passed = failures == 0 and rows_bad == 0
    return VerifyResult(
        "propagate",
        passed,
        f"{100 - failures}/100 digit pairs sound; carry-select rows "
        f"{8 - rows_bad}/8",
    )


def verify_adders(
    seed: int = 0, samples: int = 1000, sizes: tuple[int, ...] = (2, 4, 8, 16)
) -> VerifyResult:
    rng = random.Random(seed)
    failures = 0
    checked = 0
    for n in sizes:
        rca = cached_adder("dec-rca", n).compiled
        csk = cached_adder("dec-csk", n).compiled
        for _ in range(samples):
            a = rng.randrange(10**n)
            b = rng.randrange(10**n)
            c = rng.randrange(2)
            want = ((a + b + c) % 10**n, int(a + b + c >= 10**n))
            got_r = adder_sum(rca, n, a, b, c)
            got_c = adder_sum(csk, n, a, b, c)
            checked += 1
            if not (
                got_r[:2] == want and got_c[:2] == want and got_r[2] and got_c[2]
            ):
                failures += 1
    return VerifyResult(
        "adders",
        failures == 0,
        f"{checked - failures}/{checked} sampled vectors match native "
        f"addition on both designs (seed={seed})",
    )


def verify_metric_fidelity() -> VerifyResult:
    problems = []
    for n in range(1, 9):
        m = structural_metrics(build_dec_rca(n))
        want = (10 * n, 8 * n, 4 * n, 45 * n, 25 * n + 10)
        if (m.gc, m.ci, m.go, m.qc, m.delay) != want:
            problems.append(f"ripple N={n}: {m}")
    delays = {n: structural_metrics(build_dec_csk(n)).delay for n in range(2, 7)}
    slopes = {delays[n + 1] - delays[n] for n in range(2, 6)}
    if slopes != {5}:
        problems.append(f"carry-skip delay slopes {sorted(slopes)} != 5")
    return VerifyResult(
        "metrics",
        not problems,
        "ripple formulas 1..8 exact; carry-skip slope 5/digit"
        if not problems
        else "; ".join(problems),
    )


SCOPES = {
    "gates": (verify_gates,),
    "pdfa": (verify_pdfa,),
    "propagate": (verify_propagate,),
    "metrics": (verify_metric_fidelity,),
    "adders": (verify_adders,),
}


def run_scope(scope: str, seed: int = 0, samples: int = 1000) -> list[VerifyResult]:
    """Run one scope of SCOPES, or all of them in order for "all"."""
    if scope == "all":
        names = tuple(SCOPES)
    elif scope in SCOPES:
        names = (scope,)
    else:
        choices = ", ".join(SCOPES)
        raise InvalidArgumentError(
            f"unknown verify scope {scope!r}; expected all or one of {choices}"
        )
    results = []
    for name in names:
        for check in SCOPES[name]:
            if check is verify_adders:
                results.append(check(seed=seed, samples=samples))
            else:
                results.append(check())
    return results
