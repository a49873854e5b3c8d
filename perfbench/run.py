"""pmcs benchmark: sweep workloads end to end, or per layer with tracing.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

Run it from the root of a pmcs checkout; it imports the package from ./src.
Load model: a closed loop with one client.  An op is one
``sweeps.run_sweep`` plus ``sweeps.render`` (for figures_cli, one ``pmcs``
CLI process), and ops run one after another.  An in-process run is five
fresh worker processes in turn (worker.py), each measuring a fifth of the
time: set-up, a cold pass, warm passes.  No threads are started; BLAS keeps
the thread count it inherits.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Both check the outputs: exact-regime norms, byte-identical
output on every pass, row counts and finite values.  The last line of stdout
is a JSON object {correct, attempted, failed, metrics}; the exit code is 0
only when the outputs are correct.  NOTES.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh processes per run: the in-process workers, each measuring a fifth of
# the time, or figures_cli's set-up probes.  Each gives one set-up sample.
ROUNDS = 5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd: list[str], stderr_path: str) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB),
    the RSS read for this child alone through wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def _worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh worker process (worker.py); adds its set-up time."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), repr(seconds), str(int(trace))],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


class Samples:
    """What one run measured, pooled over its workers or CLI passes, with the
    calibration kernel times (calibrate.py) taken between its passes."""

    def __init__(self):
        self.setup: list[float] = []
        self.cold: list[float] = []
        self.warm: list[float] = []  # op latencies of the warm passes, pass after pass
        self.calibration: list[dict[str, float]] = []
        self.peak_rss: list[float] = []
        self.untraced: list[float] = []  # pass times
        self.traced: list[tuple[float, float, dict]] = []  # (pass time, covered time, aggregates)
        self.reference: list[str] = []
        self.passes = 0
        self.mismatched = 0
        self.attempted = 0
        self.failed = 0
        self.summary: dict = {}
        self.problems: list[str] = []
        self.gated = 0
        self.preset_digests: dict[str, str] = {}


def measure_in_process(workload: str, seed: int, seconds: float, trace: bool) -> Samples:
    """ROUNDS fresh workers (one when tracing) share the measuring time, so the
    cold passes and set-ups are spread over the run, not bunched at its start."""
    got = Samples()
    rounds = 1 if trace else ROUNDS
    results = [_worker(workload, seed, seconds / rounds, trace) for _ in range(rounds)]
    got.setup = [r["setup_s"] for r in results]
    first = results[0]
    got.reference = first["reference"]
    got.summary, got.problems, got.gated = first["check"], first["problems"], first["gated"]
    for r in results:
        got.cold.append(r["cold_s"])
        for lat in r["warm"]:
            got.warm.extend(lat)
        got.calibration.extend(r["calibration"])
        got.peak_rss.append(r["peak_rss_mb"])
        got.untraced.extend(r["untraced"])
        got.traced.extend((t["pass_s"], t["pass_s"], t["stats"]) for t in r["traced"])
        got.passes += r["passes"]
        got.mismatched += r["mismatched"] + (r["reference"] != got.reference)
        got.attempted += r["attempted"]
        got.failed += r["failed"]
    return got


# ---------------------------------------------------------------- CLI


class CliRunner:
    """Runs passes of the figures_cli commands, one fresh process each."""

    def __init__(self, commands, workdir: str):
        self.commands = commands
        self.workdir = workdir
        self.failed_ops = 0
        self.attempted = 0
        self.peak_rss_mb: list[float] = []  # largest child of each untraced pass

    def _out(self, name: str, suffix: str) -> str:
        return os.path.join(self.workdir, f"{name}.{suffix}")

    def run_pass(self, traced: bool = False):
        """(per-op seconds, per-op output digests, per-child traced stats)."""
        import workloads

        latencies, digests, stats = [], [], []
        rss = 0.0
        for name, argv, suffix in self.commands:
            out = self._out(name, suffix)
            if os.path.exists(out):
                os.remove(out)
            stats_path = os.path.join(self.workdir, f"{name}.stats.json")
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), stats_path]
            else:
                cmd = [sys.executable, "-m", "pmcs.cli"]
            self.attempted += 1
            elapsed, code, child_rss = _run_child(cmd + argv + ["--out", out], self._out(name, "stderr"))
            latencies.append(elapsed)
            rss = max(rss, child_rss)
            if code != 0 or not os.path.exists(out):
                self.failed_ops += 1
                with open(self._out(name, "stderr"), encoding="utf-8", errors="replace") as handle:
                    sys.stderr.write(f"{name}: exit code {code}\n{handle.read()}")
                digests.append("failed")
                continue
            with open(out, "rb") as handle:
                digests.append(workloads.digest(handle.read()))
            if traced:
                with open(stats_path, encoding="utf-8") as handle:
                    stats.append(json.load(handle))
        if not traced:
            self.peak_rss_mb.append(rss)
        return latencies, digests, stats

    def check_rows(self, check) -> dict:
        """Row checks on the preset outputs of the last pass; returns the preset digests."""
        import csv

        import workloads
        from pmcs import sweeps

        digests = {}
        for name, _, suffix in workloads.CLI_PRESETS:
            path = self._out(name, suffix)
            if not os.path.exists(path):
                continue
            with open(path, "rb") as handle:
                digests[name] = workloads.digest(handle.read())
            with open(path, encoding="utf-8", newline="") as handle:
                records = json.load(handle) if suffix == "json" else list(csv.DictReader(handle))
            want = workloads.expected_rows(sweeps.preset_config(name))
            if len(records) != want:
                check.problems.append(f"{name}: {len(records)} rows, expected {want}")
            for rec in records:
                check.add(rec, name)
        return digests


def measure_cli(seed: int, seconds: float, trace: bool, workdir: str) -> Samples:
    """figures_cli: every op is a fresh process, so every pass is a cold pass."""
    import workloads

    got = Samples()
    if not trace:
        got.setup = [_worker("figures_cli", seed, 0.0, False)["setup_s"] for _ in range(ROUNDS)]
    runner = CliRunner(workloads.figures_cli(seed), workdir)
    check = workloads.RowCheck()
    start = time.perf_counter()
    deadline = start + seconds
    lat, got.reference, _ = runner.run_pass()
    got.cold.append(sum(lat))
    got.preset_digests = runner.check_rows(check)
    while True:
        round_start = time.perf_counter()
        lat, dig, _ = runner.run_pass()
        got.passes += 1
        got.mismatched += dig != got.reference
        if trace:
            got.untraced.append(sum(lat))
            t_lat, t_dig, snaps = runner.run_pass(traced=True)
            got.mismatched += t_dig != got.reference
            # Interpreter start and import lie outside every span (setup_s
            # measures them), so the covered time is each child's main().
            covered = sum(s["main_s"] for s in snaps)
            got.traced.append((sum(t_lat), covered, merge_snapshots([s["stats"] for s in snaps])))
        else:
            got.cold.append(sum(lat))
            got.warm.extend(lat)
        now = time.perf_counter()
        if now + 0.5 * (now - round_start) > deadline:
            break
    got.peak_rss = runner.peak_rss_mb
    got.attempted, got.failed = runner.attempted, runner.failed_ops
    got.summary, got.problems, got.gated = check.summary(), check.problems, check.gated
    return got


# ---------------------------------------------------------------- metrics


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def timing_metrics(got: Samples, points: int, n_ops: int, speed: float) -> dict:
    """The timed end-to-end metrics, divided by the host's speed factor (1 for
    the raw values)."""
    warm = got.warm
    return {
        "setup_s": statistics.median(got.setup) / speed,
        "cold_pass_s": statistics.median(got.cold) / speed,
        "points_per_s": points * (len(warm) / n_ops) / sum(warm) * speed,
        "sweep_p50_ms": statistics.median(warm) * 1e3 / speed,
        "sweep_p90_ms": _p90(warm) * 1e3 / speed,
    }


def _ok_frac(by_s: dict, s: str | None) -> float:
    picked = [v for k, v in by_s.items() if s is None or k == s]
    calls = sum(v.get("calls", 0) for v in picked)
    return sum(v.get("ok", 0) for v in picked) / calls if calls else 0.0


def layer_value(name: str, snap: dict, state_points: int):
    """One per-layer metric of BENCHMARK.json from a traced pass."""
    if name == "states.build_state.per_point":
        return snap["states.build_state.calls"] / state_points if state_points else 0.0
    if name == "nonclassical.quasiprob_oracle.ok_frac":
        return _ok_frac(snap["quasiprob_oracle_by_s"], None)
    prefix = "nonclassical.quasiprob_oracle.ok_frac.s_"
    if name.startswith(prefix):
        return _ok_frac(snap["quasiprob_oracle_by_s"], repr(float(name[len(prefix):])))
    return snap[name]


def merge_snapshots(snaps: list[dict]) -> dict:
    """Sum the aggregates of several traced processes (one CLI pass)."""
    out: dict = {}
    quasi: dict = {}
    for snap in snaps:
        for key, value in snap.items():
            if key == "quasiprob_oracle_by_s":
                for s, counts in value.items():
                    slot = quasi.setdefault(s, {})
                    for k, v in counts.items():
                        slot[k] = slot.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    out["quasiprob_oracle_by_s"] = quasi
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS's own thread count, as inherited (read, never set)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit or "unavailable (not a git checkout)",
        "seed": seed,
    }


# ---------------------------------------------------------------- one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import workloads
    from pmcs import sweeps

    if workload == "figures_cli":
        presets = [sweeps.preset_config(name) for name, _, _ in workloads.CLI_PRESETS]
        op_names = [name for name, _, _ in workloads.figures_cli(seed)]
        workdir = os.path.join(ROOT, ".perfbench_run", f"{workload}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            got = measure_cli(seed, seconds, trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass
    else:
        presets = workloads.SWEEPS[workload](seed)
        op_names = [f"op{i}" for i in range(len(presets))]
        got = measure_in_process(workload, seed, seconds, trace)
    points = sum(workloads.grid_points(cfg) for cfg in presets)
    state_points = sum(workloads.state_points(cfg) for cfg in presets)

    problems = list(got.problems)
    if got.mismatched:
        problems.append(f"output differs from the first cold pass on {got.mismatched} passes")
    if workload in ("closed_form", "figures_cli") and got.gated == 0:
        problems.append("exact-regime gate saw no rows")
    if got.failed:
        problems.append(f"{got.failed} ops failed")

    summary = got.summary
    detail: dict = {"workload": workload, "environment": environment(seed)}
    detail.update(summary)
    detail.update({
        "passes": got.passes, "ops_per_pass": len(op_names), "points_per_pass": points,
        "state_points_per_pass": state_points,
        "output_digest": workloads.digest("".join(got.reference).encode()),
        "op_digests": dict(zip(op_names, got.reference)),
    })
    if workload == "figures_cli":
        detail["preset_digests"] = got.preset_digests
        detail["preset_digests_match_seed"] = {
            n: d.startswith(workloads.KNOWN_PRESET_DIGESTS[n]) for n, d in got.preset_digests.items()
        }

    metrics: dict = {}
    if trace:
        snaps = [snap for _, _, snap in got.traced]
        overhead = statistics.median(t for t, _, _ in got.traced) - statistics.median(got.untraced)
        uncovered = []
        for _, covered, snap in got.traced:
            self_sum = sum(v for k, v in snap.items() if k.endswith(".self_s"))
            uncovered.append(covered - self_sum)
            if not -1e-3 <= covered - self_sum <= max(overhead, 0.0) + 0.01 * covered:
                problems.append(f"self_s sums to {self_sum:.4f} s of a {covered:.4f} s traced pass "
                                f"(overhead {overhead:.4f} s)")
        detail["trace"] = {
            "overhead_s": overhead, "uncovered_s": uncovered, "untraced_pass_s": got.untraced,
            "traced_pass_s": [t for t, _, _ in got.traced],
        }
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(layer_value(name, snap, state_points) for snap in snaps)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        n_ops = len(op_names)
        p90 = _p90(got.warm)
        kernel = workloads.SPEED_KERNEL[workload]
        speed = calibrate.speed_factor(got.calibration, kernel) if kernel else 1.0
        values = timing_metrics(got, points, n_ops, speed)
        values.update(peak_rss_mb=statistics.median(got.peak_rss), ok_frac=1.0 - summary["failed_frac"])
        raw = timing_metrics(got, points, n_ops, 1.0)
        detail.update({
            "setup_samples_s": got.setup, "cold_samples_s": got.cold, "warm_ops": len(got.warm),
            "samples_above_p90": sum(1 for v in got.warm if v > p90),
            "warm_pass_s": [sum(got.warm[i:i + n_ops]) for i in range(0, len(got.warm), n_ops)],
            "op_median_ms": {name: statistics.median(got.warm[i::n_ops]) * 1e3 for i, name in enumerate(op_names)},
            "peak_rss_samples_mb": got.peak_rss, "raw": raw,
            "speed_kernel": workloads.SPEED_KERNEL[workload], "speed_factor": speed,
        })
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    correct = not problems
    print(f"{workload} seed={seed} trace={int(trace)}: {got.passes} passes, "
          f"{'correct' if correct else 'INCORRECT'}")
    for name, m in metrics.items():
        scaled = not trace and detail["speed_factor"] != 1.0 and name in detail["raw"]
        raw_note = f"   (raw {detail['raw'][name]:.6g})" if scaled else ""
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}{raw_note}")
    if not trace:
        print(f"  {'failed_frac':<48} {summary['failed_frac']:.6g} ratio "
              f"({summary['error_rows']} of {summary['rows']} rows carry an error)")
        print(f"  {'error classes':<48} {summary['error_classes']}")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": got.attempted, "failed": got.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; non-zero if any fails."""
    import workloads

    status = 0
    results = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("detail ")))
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        results[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps({"all_correct": status == 0, "results": results}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them, in turn, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pmcs", "__init__.py")):
        print(f"error: no pmcs package under {SRC}; run from the root of a pmcs checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, SRC)
    import workloads

    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
