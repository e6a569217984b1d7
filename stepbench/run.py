"""stepforge benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 stepbench/run.py --workload steps_raw --seed 1 --seconds 36 --trace 0

Inputs are generated once per (workload, seed) under ``stepbench/work`` and
reused.  The run then repeats whole rounds for about ``--seconds`` seconds.
Each round is a fresh ``stepbench/child.py`` process running stepforge with
one job; its outputs are checked before the next round starts.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (rounds then alternate untraced and traced,
so the tracing overhead is measured in the same run).  Untraced runs follow
every round with a fresh process that only imports ``stepforge.cli``, so
``setup_s`` has about twice as many samples as there are rounds.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
WORKLOADS = ("steps_raw", "analyze_cohort", "survival_nhanes")
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150
KEEP_INPUTS = 3
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEPFORGE_")}
    # One BLAS thread: the box has two cores and stepforge runs with one job.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def prepare_inputs(workload: str, seed: int) -> Path:
    """Generate the workload's files for this seed unless already present."""
    import checks
    import inputs

    base = WORK / "inputs"
    final = base / f"{workload}-{seed}"
    ready = final / "ready"
    if ready.exists():
        ready.touch()
        return final
    partial = base / f"{workload}-{seed}.partial"
    shutil.rmtree(partial, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    partial.mkdir(parents=True)
    started = time.perf_counter()
    inputs.GENERATORS[workload](partial, seed)
    if workload == "analyze_cohort":
        expect = checks.recount_cohort(partial / "minutes.csv")
        (partial / "expect.json").write_text(json.dumps(expect))
    (partial / "ready").touch()
    partial.rename(final)
    log(f"inputs: {workload} seed {seed} generated in {time.perf_counter() - started:.1f} s")
    older = sorted(base.glob(f"{workload}-*/ready"), key=lambda p: p.stat().st_mtime)
    for stale in older[:-KEEP_INPUTS]:
        shutil.rmtree(stale.parent, ignore_errors=True)
    return final


def run_child(workload: str, inputs: Path, round_dir: Path, traced: bool) -> dict | None:
    round_dir.mkdir(parents=True)
    with open(round_dir / "child.log", "w", encoding="utf-8") as out:
        try:
            subprocess.run(
                [sys.executable, str(BENCH / "child.py"), workload, str(inputs),
                 str(round_dir), "1" if traced else "0"],
                env=child_env(), stdout=out, stderr=subprocess.STDOUT,
                timeout=ROUND_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            log(f"round {round_dir.name}: timed out after {ROUND_TIMEOUT_S} s")
            return None
    result_file = round_dir / "result.json"
    if not result_file.exists():
        tail = (round_dir / "child.log").read_text(encoding="utf-8")[-2000:]
        log(f"round {round_dir.name}: no result\n{tail}")
        return None
    return json.loads(result_file.read_text())


def check_round(workload: str, inputs: Path, round_dir: Path, result: dict | None) -> list:
    import checks
    import numpy as np

    if workload == "steps_raw":
        return checks.check_steps(
            round_dir / "minutes", inputs / "raw" / f"{checks.RAW_ID}.csv.sfg1", inputs
        )
    if workload == "analyze_cohort":
        expect = json.loads((inputs / "expect.json").read_text())
        return checks.check_analyze(round_dir / "tables", inputs, expect)
    if result is None:
        return [("survival stage", False, "round failed")] * checks.N_SURVIVAL_OPS
    with np.load(round_dir / "survival.npz") as arrays:
        return checks.check_survival(result, dict(arrays))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    traced_run = args.trace == "1"

    root = Path.cwd()
    if not (root / "src" / "stepforge" / "cli.py").is_file():
        log(f"error: {root} holds no stepforge source tree (src/stepforge); run from the repo root")
        return 2
    sys.path.insert(0, str(root / "src"))
    # "Build": byte-compile once so every round imports from warm .pyc files.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
    inputs = prepare_inputs(args.workload, args.seed)

    import checks

    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    def remove_sidecars() -> None:
        for sidecar in (inputs / "raw").glob("*.sfg1"):
            sidecar.unlink()

    rounds: list[tuple[bool, dict]] = []
    setup: list[float] = []
    attempted = failed = 0
    correct = True
    durations: list[float] = []
    start = time.monotonic()
    try:
        while True:
            traced = traced_run and len(durations) % 2 == 1
            round_dir = run_dir / f"round-{len(durations)}"
            began = time.monotonic()
            remove_sidecars()
            result = run_child(args.workload, inputs, round_dir, traced)
            ops = check_round(args.workload, inputs, round_dir, result)
            if not traced_run:
                probe = run_child("setup", inputs, run_dir / f"setup-{len(durations)}", False)
                if probe is not None:
                    setup.append(probe["setup_s"])
            durations.append(time.monotonic() - began)
            attempted += len(ops)
            for op in ops:
                if op[1]:
                    continue
                failed += 1
                known = not checks.unexpected(op)
                correct &= known
                log(f"round {len(durations) - 1}: FAILED{' (known fault)' * known} {op[0]}: {op[2]}")
            if result is not None:
                rounds.append((traced, result))
                setup.append(result["setup_s"])
                log(f"round {len(durations) - 1}{' traced' if traced else ''}: "
                    f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
                    f"rss {result['peak_rss_mb']:.1f} MB, setup {result['setup_s']:.3f} s")
            elapsed = time.monotonic() - start
            if traced_run and len(durations) < 2:
                continue
            if elapsed + median(durations) > args.seconds:
                break
        while not traced_run and len(setup) < SETUP_SAMPLES:
            probe = run_child("setup", inputs, run_dir / f"setup-extra-{len(setup)}", False)
            if probe is None:
                break
            setup.append(probe["setup_s"])
    finally:
        remove_sidecars()
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for traced, r in rounds if not traced]
    with_trace = [r for traced, r in rounds if traced]
    if not plain or (traced_run and not with_trace):
        log("error: no round finished, so there is nothing to report")
        return 1
    metrics = {}
    if traced_run:
        import layers

        units = dict(layers.METRICS)
        for name in with_trace[0]["layers"]:
            metrics[name] = {"value": median([r["layers"][name] for r in with_trace]),
                             "unit": units[name]}
        traced_wall = median([r["wall_s"] for r in with_trace])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - median([r["wall_s"] for r in plain]), "unit": "s"
        }
    else:
        for name, unit in END_TO_END:
            samples = setup if name == "setup_s" else [r[name] for r in plain]
            metrics[name] = {"value": median(samples), "unit": unit}
    log(f"{args.workload} seed {args.seed}: {len(durations)} rounds in "
        f"{time.monotonic() - start:.1f} s, {failed}/{attempted} operations failed")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
