"""Reversible-logic BCD adder toolkit.

Gate library, line-based netlists with bit-exact simulation, structural
cost/delay analysis, two BCD adder constructions (ripple and carry-skip),
reproduction of the published cost comparison dataset with Pareto
analysis, and an exact-arithmetic transaction-ledger demonstration.
"""

from .costs import (
    CostPoint,
    CostTable,
    ImprovementReport,
    MODELS,
    cost_table,
    improvement,
    pareto_front,
    pareto_points,
    structural_discrepancy_report,
)
from .designs import (
    build_correction,
    build_dec_csk,
    build_dec_rca,
    build_design,
    build_pdfa,
    build_scl,
    build_skip_block,
    build_skip_generator,
    decimal_propagate,
    scl_function,
    skip_carry,
)
from .errors import RevbcdError
from .gates import GateKind, gate_cost, gate_semantics, gate_truth_table
from .ledger import (
    CsvConfig,
    LedgerRecord,
    LedgerReport,
    bcd_add,
    decode,
    encode,
    generate_synthetic_csv,
    ingest_csv,
    sum_ledger,
)
from .metrics import (
    MetricReport,
    arrival_profile,
    critical_path,
    metric_decomposition,
    structural_metrics,
)
from .netlist import (
    GateInstance,
    LineRole,
    Netlist,
    const_role,
    deserialize,
    input_role,
    serialize,
)
from .simulator import (
    SimulationResult,
    check_permutation,
    run,
    truth_table,
)

__version__ = "1.0.0"
