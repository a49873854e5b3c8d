"""One measuring round of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace: 0|1>

Imports pmcs from ./src, builds the workload's inputs (the monotonic clock
at that moment is reported as ``ready``; the clock is shared by all processes
of the machine, so the parent takes the set-up time from it), runs the cold
pass, then warm passes until ``seconds`` after the cold pass started, timing
the calibration kernels (calibrate.py) after each pass.  With
trace = 1 the warm passes alternate untraced and traced.  ``seconds`` = 0
stops after set-up.  For figures_cli only ``import pmcs.cli`` is timed: each
CLI process pays exactly that before it works.

Prints one JSON line with the raw samples, output digests and row checks.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


class SweepRunner:
    """Runs passes over a list of SweepConfigs in this process."""

    def __init__(self, cfgs):
        import workloads
        from pmcs import sweeps

        self.digest = workloads.digest
        self.sweeps = sweeps
        self.cfgs = cfgs
        self.failed_ops = 0
        self.attempted = 0

    def run_pass(self, keep_rows: bool = False):
        """(per-op seconds, per-op output digests, per-op rows or None)."""
        import traceback

        sweeps = self.sweeps
        latencies, digests, rows_out = [], [], []
        for cfg in self.cfgs:
            self.attempted += 1
            start = time.perf_counter()
            try:
                rows = sweeps.run_sweep(cfg)
                text = sweeps.render(rows, cfg.family, cfg.format)
            except Exception:  # an op that raises is a failed op; keep measuring
                latencies.append(time.perf_counter() - start)
                self.failed_ops += 1
                traceback.print_exc()
                digests.append("failed")
                rows_out.append(None)
                continue
            latencies.append(time.perf_counter() - start)
            digests.append(self.digest(text.encode("utf-8")))
            rows_out.append(rows if keep_rows else None)
        return latencies, digests, rows_out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "figures_cli":
        import pmcs.cli  # noqa: F401

        return {"ready": time.perf_counter()}
    import workloads

    cfgs = workloads.SWEEPS[workload](seed)
    out: dict = {"ready": time.perf_counter()}
    if seconds <= 0:
        return out

    import resource

    import pmcs

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(pmcs.__file__).startswith(src + os.sep):
        raise SystemExit(f"pmcs imported from {pmcs.__file__}, not from {src}")
    runner = SweepRunner(cfgs)
    check = workloads.RowCheck()
    start = time.perf_counter()
    deadline = start + seconds
    cold, reference, rows = runner.run_pass(keep_rows=True)
    for i, (cfg, op_rows) in enumerate(zip(cfgs, rows)):
        if op_rows is None:
            continue
        if len(op_rows) != workloads.expected_rows(cfg):
            check.problems.append(f"op {i}: {len(op_rows)} rows, expected {workloads.expected_rows(cfg)}")
        for row in op_rows:
            check.add(row.as_record(cfg.family), f"op {i}")
    del rows

    import calibrate

    calibration = [calibrate.measure()]  # after the cold pass: it must find BLAS cold
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    warm, untraced, traced = [], [], []
    mismatched = passes = 0
    while True:
        round_start = time.perf_counter()
        lat, dig, _ = runner.run_pass()
        passes += 1
        mismatched += dig != reference
        if tracer is None:
            warm.append(lat)
        else:
            untraced.append(sum(lat))
            tracer.install()
            try:
                t_lat, t_dig, _ = runner.run_pass()
            finally:
                tracer.uninstall()
            mismatched += t_dig != reference
            traced.append({"pass_s": sum(t_lat), "stats": tracer.snapshot()})
        calibration.append(calibrate.measure())
        now = time.perf_counter()
        if now + 0.5 * (now - round_start) > deadline:
            break
    out.update(
        cold_s=sum(cold), calibration=calibration, reference=reference,
        warm=warm, untraced=untraced, traced=traced,
        passes=passes, mismatched=mismatched, attempted=runner.attempted, failed=runner.failed_ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        check=check.summary(), problems=check.problems, gated=check.gated,
    )
    return out


if __name__ == "__main__":
    name, seed_arg, seconds_arg, trace_arg = sys.argv[1:5]
    print(json.dumps(measure(name, int(seed_arg), float(seconds_arg), trace_arg == "1")))
