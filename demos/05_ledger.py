#!/usr/bin/env python3
# Exact-money demonstration: per-client totals through a simulated adder.

import tempfile
from pathlib import Path

from revbcd import CsvConfig, generate_synthetic_csv, ingest_csv, sum_ledger

workdir = Path(tempfile.mkdtemp())
csv_path = generate_synthetic_csv(workdir / "transactions.csv",
                                  rows=2000, groups=800, seed=1)
print(f"synthesized {csv_path}")
print("sample rows:")
for line in csv_path.read_text(encoding="utf-8").splitlines()[:4]:
    print("  " + line)

config = CsvConfig(group_column="client_id", amount_column="amount")
records, diags = ingest_csv(csv_path, config)
print(f"\ningested {diags.rows_kept}/{diags.rows_read} rows "
      f"(amounts normalized to integer cents; debits kept by magnitude)")

report = sum_ledger(records, design="dec-csk", width=16)
print(f"\nsummed through the carry-skip adder, width {report.width} digits:")
for group in list(report.totals)[:5]:
    cents = report.totals[group]
    print(f"  {group}: {cents // 100}.{cents % 100:02d}")
print("  ...")
print(f"\nverification: {report.summary()}")
print("every group total equals the native integer sum"
      if report.verified else "MISMATCH FOUND")
