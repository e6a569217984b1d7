"""Self-test of the output checks.

Runs each workload once on small inputs, confirms the checks accept the
program's real outputs (apart from failures that match a known fault's
signature), then corrupts one output at a time and confirms the matching
check rejects it.
Run from the repository root::

    python3 stepbench/selftest.py

Exits 0 when every corruption is rejected, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import inputs
import run

problems: list[str] = []


def expect(label: str, ops, rejected: str | None) -> None:
    """``rejected`` must be among the failing operations that no known fault
    explains (None: there may be none)."""
    bad = {op[0] for op in ops if checks.unexpected(op)}
    if rejected is None and bad:
        problems.append(f"{label}: real output failed {sorted(bad)}")
    elif rejected is not None and rejected not in bad:
        problems.append(f"{label}: corruption not rejected by '{rejected}'")
    else:
        print(f"selftest: {label}: ok", file=sys.stderr)


def edit_table(src: Path, dst: Path, mutate) -> None:
    with open(src, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fieldnames, rows = reader.fieldnames, list(reader)
    mutate(rows)
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def scale(row: dict, key: str, factor: float) -> None:
    row[key] = repr(float(row[key]) * factor)


def steps_selftest(tmp: Path) -> None:
    src = tmp / "steps_in"
    src.mkdir()
    inputs.gen_steps_raw(src, 7)
    out = tmp / "steps_out"
    run.run_child("steps_raw", src, out, False)
    minutes = out / "minutes"
    sidecar = src / "raw" / f"{checks.RAW_ID}.csv.sfg1"
    base = checks.check_steps(minutes, sidecar, src)
    expect("steps_raw real output", base, None)
    known = sorted(op[0] for op in base if not op[1])
    if len(known) != 3:
        problems.append(f"steps_raw real output: expected 3 known-fault failures, got {known}")

    def corrupt(label: str, subject: str, mutate, rejected: str) -> None:
        bad = tmp / "bad_minutes"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(minutes, bad)
        table = f"{subject}_minutes.csv"
        edit_table(minutes / table, bad / table, mutate)
        expect(label, checks.check_steps(bad, sidecar, src), rejected)

    def zero(column):
        def mutate(rows):
            for r in rows:
                r[column] = "0.0"
        return mutate

    def double(column):
        def mutate(rows):
            for r in rows:
                scale(r, column, 2.0)
        return mutate

    raw, probe = checks.RAW_ID, checks.PROBE_ID
    corrupt("zeroed template column", raw, zero("steps_template"),
            f"{raw} detector template (plausible)")
    corrupt("doubled spectral column", raw, double("steps_spectral"), f"{raw} detector spectral")
    corrupt("zeroed probe peak column", probe, zero("steps_peak_original"),
            f"{probe} detector peak_original")
    corrupt("doubled probe template column", probe, double("steps_template"),
            f"{probe} detector template")
    corrupt("one minute row short", raw, lambda rows: rows.pop(), "minute rows")
    blob = bytearray(sidecar.read_bytes())
    blob[-1] ^= 1
    bad_sidecar = tmp / "bad.sfg1"
    bad_sidecar.write_bytes(bytes(blob))
    expect("one sidecar bit flipped", checks.check_steps(minutes, bad_sidecar, src),
           f"{raw} sidecar")


def analyze_selftest(tmp: Path) -> None:
    src = tmp / "analyze_in"
    src.mkdir()
    inputs.gen_analyze_cohort(src, 7)
    recount = checks.recount_cohort(src / "minutes.csv")
    out = tmp / "analyze_out"
    run.run_child("analyze_cohort", src, out, False)
    tables = out / "tables"
    expect("analyze_cohort real output", checks.check_analyze(tables, src, recount), None)

    def corrupt(label: str, table: str, mutate, rejected: str) -> None:
        bad = tmp / f"bad_{table}"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(tables, bad)
        edit_table(tables / f"{table}.csv", bad / f"{table}.csv", mutate)
        expect(label, checks.check_analyze(bad, src, recount), rejected)

    def day_off_by_one(rows):
        rows[0]["n_valid_minutes"] = str(int(rows[0]["n_valid_minutes"]) + 1)

    def flip_inclusion(rows):
        rows[0]["included"] = str(1 - int(rows[0]["included"]))

    def nudge_mean(rows):
        row = next(r for r in rows if r["mean_steps_template"])
        scale(row, "mean_steps_template", 1.0 + 1e-6)

    def nudge_weighted_mean(rows):
        scale(next(r for r in rows if r["age_group"] == "all"), "mean", 1.0 + 1e-6)

    def break_symmetry(rows):
        row = next(r for r in rows if r["var_a"] != r["var_b"])
        scale(row, "correlation", 0.5)

    corrupt("one day count off by one", "day_summaries", day_off_by_one, "table day_summaries")
    corrupt("one inclusion flipped", "validity_report", flip_inclusion, "table validity_report")
    corrupt("one subject mean nudged", "subject_summaries", nudge_mean, "table subject_summaries")
    corrupt("one weighted mean nudged", "weighted_means", nudge_weighted_mean, "table weighted_means")
    corrupt("one correlation halved", "correlations", break_symmetry, "table correlations")


def survival_selftest(tmp: Path) -> None:
    src = tmp / "survival_in"
    src.mkdir()
    inputs.gen_survival_nhanes(src, 7)
    out = tmp / "survival_out"
    result = run.run_child("survival_nhanes", src, out, False)
    with np.load(out / "survival.npz") as npz:
        arrays = dict(npz)
    expect("survival_nhanes real output", checks.check_survival(result, arrays), None)
    measure = sorted(result["fits"])[0]
    names = [str(n) for n in arrays["names"]]
    age_sd = float(arrays["x"][:, names.index("age")].std(ddof=1))

    def corrupt(label: str, mutate, rejected: str, array_edit=None) -> None:
        bad = json.loads(json.dumps(result))
        mutate(bad)
        bad_arrays = dict(arrays)
        if array_edit is not None:
            array_edit(bad_arrays)
        expect(label, checks.check_survival(bad, bad_arrays), rejected)

    def perturb_beta(r):
        r["fits"][measure]["beta"][0] += 0.05 / age_sd  # age, not the reported HR

    def hr_outside_ci(r):
        hr, lo, hi = r["fits"][measure]["hr"]
        r["fits"][measure]["hr"] = [hr, lo, hr * 0.999]

    def scaled_beta_off(r):
        r["fits"][measure]["scaled_beta"][-1] *= 1.001

    def traditional_at_chance(r):
        r["suite"][0][1] = 0.49

    def fold_c_off(a):
        a["fold_c"] = a["fold_c"] + 1e-9

    def probe_beta_off(r):
        r["probe"]["beta"][0] *= 1.05

    def probe_at_iteration_cap(r):
        r["probe"]["error"] = "ConvergenceError: Newton-Raphson did not converge"
        r["probe"]["loglik_seq"] = r["probe"]["loglik_seq"][-1:] * (checks.COX_MAX_ITER + 1)

    hr_op = f"hazard ratio {measure}"
    corrupt("age beta perturbed by 0.05 sd", perturb_beta, hr_op)
    corrupt("HR above its CI", hr_outside_ci, hr_op)
    corrupt("scaled beta off by 0.1 %", scaled_beta_off, hr_op)
    corrupt("traditional cvC at 0.49", traditional_at_chance, "model traditional")
    corrupt("held-out C off by 1e-9", lambda r: None, "held-out fold C", fold_c_off)
    corrupt("probe beta off by 5 %", probe_beta_off, "cox probe fit")
    corrupt("probe stopped at the iteration cap", probe_at_iteration_cap, "cox probe fit")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "stepforge" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    inputs.RAW_HOURS = 0.25
    inputs.NHANES_SUBJECTS = 800
    tmp = run.WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        steps_selftest(tmp)
        analyze_selftest(tmp)
        survival_selftest(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(f"selftest: FAILED {problem}", file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
