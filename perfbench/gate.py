"""Correctness gate for the benchmark's workloads.

A run passes when its command exits 0, its summary says passed, it
writes the expected number of rows, and every row obeys the verdict
rules.  At a seed with a stored reference, every cell must also match:
text cells exactly, numeric cells within ABS_TOL with the same NaN
pattern.  Bytes are not compared: they move with the BLAS thread count
(|delta| ~1e-14) while no verdict does.

    python3 perfbench/gate.py      # self-test on doctored outputs
"""

import csv
import gzip
import io
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
ABS_TOL = 1e-10

OK_TRIAL_VERDICTS = ("Satisfied", "Equality")


def thermal_row_failed(row):
    return row["passed"] != "true"


def cmoe_row_failed(row):
    # Suppressed counts as failed even though the CLI's own passed flag
    # ignores it: a suppressed trial checked nothing
    if row["suite"] == "equality":
        return row["verdict"] != "Equality"
    return row["verdict"] not in OK_TRIAL_VERDICTS


def lemma_row_failed(row):
    return row["passed"] != "true"


def lemma_row_counts(row):
    return row["exploratory"] == "false"


def read_csv(path):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.reader(fh))


def write_csv_gz(path, table):
    # mtime=0 keeps the file byte-stable across regenerations
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(table)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(text.getvalue().encode())


def reference_path(workload, seed, seeded):
    name = f"{workload}.seed{seed}.csv.gz" if seeded else f"{workload}.csv.gz"
    return os.path.join(REFERENCE_DIR, name)


def _cell_differs(ref, out):
    try:
        a, b = float(ref), float(out)
    except ValueError:
        return ref != out
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) != math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a != b
    return abs(a - b) > ABS_TOL


def compare_to_reference(table, ref):
    """Problems found comparing an output table against its reference."""
    if table[0] != ref[0]:
        return [f"header {table[0]} differs from reference {ref[0]}"]
    if len(table) != len(ref):
        return [f"{len(table) - 1} rows, reference has {len(ref) - 1}"]
    problems = []
    for lineno, (got, want) in enumerate(zip(table[1:], ref[1:]), start=2):
        for col, a, b in zip(ref[0], want, got):
            if _cell_differs(a, b):
                problems.append(f"line {lineno} {col}: {b} vs reference {a}")
    return problems


def check(table, expected_rows, row_failed, counts=None, exit_code=0, summary_passed=True,
          reference=None):
    """Gate one workload's output table (header first).

    Returns (problems, attempted, failed).  attempted counts the rows that
    are operations (all rows unless counts says otherwise); a non-zero
    exit fails every one of them.
    """
    problems = []
    rows = [dict(zip(table[0], r)) for r in table[1:]] if table else []
    ops = [r for r in rows if counts is None or counts(r)]
    attempted = max(len(ops), 1)
    failed = sum(1 for r in ops if row_failed(r))
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        failed = attempted
    if not summary_passed:
        problems.append("summary does not say passed")
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if reference is not None and table:
        found = compare_to_reference(table, reference)
        problems.extend(found[:5])
        if len(found) > 5:
            problems.append(f"... {len(found) - 5} more cells differ")
    return problems, attempted, failed


def self_test():
    """The gate must fail a flipped verdict, a gap moved by 1e-9 and a dropped row."""
    ref = read_csv(reference_path("cmoe-cli", 20260823, True))
    expected = len(ref) - 1
    header = ref[0]
    verdict, gap = header.index("verdict"), header.index("gap")
    line = next(i for i, r in enumerate(ref) if i and r[verdict] == "Satisfied")

    flipped = [list(r) for r in ref]
    flipped[line][verdict] = "Equality"
    shifted = [list(r) for r in ref]
    shifted[line][gap] = repr(float(ref[line][gap]) + 1e-9)
    dropped = ref[:line] + ref[line + 1 :]

    ok = True
    cases = [("reference itself", ref, True), ("flipped verdict", flipped, False),
             ("gap + 1e-9", shifted, False), ("dropped row", dropped, False)]
    for name, table, should_pass in cases:
        problems, _, _ = check(table, expected, cmoe_row_failed, reference=ref)
        passed = not problems
        verdict_text = "passes" if passed else "fails: " + problems[0]
        print(f"gate self-test, {name}: {verdict_text}")
        ok = ok and passed == should_pass
    print("gate self-test " + ("OK" if ok else "FAILED"))
    return ok


if __name__ == "__main__":
    sys.exit(0 if self_test() else 1)
