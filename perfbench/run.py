"""Benchmark of the onofftomo command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src``.
With ``--trace 0`` every CLI call is its own process, started one at a time,
and the run repeats the workload's legs for about S seconds, reporting the
sum of the legs' median wall times, the set-up (import) time and the peak
resident memory.
With ``--trace 1`` the legs run once untraced and once traced inside this
process, through ``onofftomo.cli.main``, and the run reports per-layer span
times and counts.  Both modes check the outputs against closed-form
references.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_SAMPLES = 3
CALL_TIMEOUT_S = 150.0

BLAS_ENV = {v: str(BLAS_THREADS) for v in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy loads in this process

sys.path[:0] = [str(HERE), str(SRC)]
import workloads  # noqa: E402
from tracer import Tracer, p50_and_tail  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    env.pop("ONOFFTOMO_OUT", None)
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, max RSS MiB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdout=log, stderr=log)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_seconds() -> float:
    """Time to import onofftomo.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import onofftomo.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=WORK, env=child_env(),
                         capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def import_breakdown() -> dict[str, float]:
    """Self import time per top-level package, from ``python -X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import onofftomo.cli"],
                         cwd=WORK, env=child_env(), capture_output=True, text=True,
                         timeout=CALL_TIMEOUT_S, check=True)
    totals = {"numpy": 0.0, "scipy": 0.0, "onofftomo": 0.0}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = float(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us / 1e6
    return totals


def leg_argv(leg, config_path: Path, data_path: Path, out_dir: Path) -> list[str]:
    fill = {"config": str(config_path), "data": str(data_path), "out": str(out_dir)}
    return [a.format(**fill) for a in leg.args]


def prepare_pass(wl, tag: str) -> tuple[Path, dict]:
    """Directory, config file and per-leg output directories of one pass."""
    pass_dir = WORK / tag
    pass_dir.mkdir(parents=True)
    workloads.write_config(str(pass_dir / "config.json"), wl.config, str(pass_dir))
    return pass_dir, {leg.metric: pass_dir / leg.metric for leg in wl.legs}


def same_files(a: Path, b: Path) -> bool:
    """Both directories exist and hold the same file names with the same bytes."""
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def run_pass_inprocess(wl, tag: str, log, tracer=None) -> float:
    """One pass through ``onofftomo.cli.main`` in this process; wall seconds."""
    from onofftomo import cli

    pass_dir, dirs = prepare_pass(wl, tag)
    t0 = time.perf_counter()
    for leg in wl.legs:
        argv = leg_argv(leg, pass_dir / "config.json", dirs["simulate_s"] / "dataset.json",
                        dirs[leg.metric])
        sink = io.StringIO()
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        log.check(f"{leg.metric}: exit code 0 (in-process)", code == 0, f"exit {code}")
    wall = time.perf_counter() - t0
    check_outputs(wl, dirs, log)
    return wall


def check_outputs(wl, dirs, log) -> None:
    try:
        wl.check({k: str(v) for k, v in dirs.items()}, log)
    except (OSError, ValueError, KeyError) as exc:
        log.check("outputs readable", False, f"{type(exc).__name__}: {exc}")


def timing_metrics(wl, seconds: float, log, tamper=None) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics plus the extra figures for the table.

    One full pass runs every leg in order and its outputs are checked.  The
    rest of the time goes to repeat samples, each of the leg with the fewest
    samples that still fits (the pass order breaks ties), so the legs are
    sampled in whole passes while they fit and the remainder is filled with
    the shorter legs.  Each repeat must reproduce the first pass's output
    files byte for byte.  The gated time is total_s, the sum of the legs'
    median times: single legs of a few seconds spread too widely between
    runs on a shared machine to carry a bound of their own.
    """
    start = time.perf_counter()
    import_seconds()  # compiles bytecode and warms the file cache; not counted
    setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
    pass_dir, dirs = prepare_pass(wl, "pass")
    walls: dict[str, list] = {leg.metric: [] for leg in wl.legs}
    rss = 0.0

    def sample(leg, out_dir: Path) -> None:
        nonlocal rss
        argv = [sys.executable, "-m", "onofftomo.cli"] + leg_argv(
            leg, pass_dir / "config.json", dirs["simulate_s"] / "dataset.json", out_dir)
        code, wall, leg_rss = run_child(argv, out_dir.parent / f"{out_dir.name}.log")
        log.check(f"{leg.metric}: exit code 0", code == 0, f"exit {code}")
        walls[leg.metric].append(wall)
        rss = max(rss, leg_rss)

    for leg in wl.legs:
        sample(leg, dirs[leg.metric])
        if tamper:
            tamper(leg.metric, dirs[leg.metric])
    check_outputs(wl, dirs, log)

    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [leg for leg in wl.legs if statistics.median(walls[leg.metric]) <= left]
        if not fits:
            break
        leg = min(fits, key=lambda leg: len(walls[leg.metric]))
        out_dir = pass_dir / f"{leg.metric}.{len(walls[leg.metric])}"
        sample(leg, out_dir)
        log.check(f"{leg.metric}: repeat reproduces the outputs",
                  same_files(dirs[leg.metric], out_dir))

    med = {k: statistics.median(v) for k, v in walls.items()}
    fail_frac = log.failed / max(log.attempted, 1)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "total_s": (sum(med.values()), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "ok_frac": (1.0 - fail_frac, "ratio"),
    }
    extra = {k: (v, "s") for k, v in med.items()}
    extra.update({f"{k}.samples": (len(v), "count") for k, v in walls.items()})
    extra["max_err"] = (log.max_err, "abs")
    extra["fail_frac"] = (fail_frac, "ratio")
    return metrics, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl, log) -> tuple[dict, dict]:
    """Traced run: per-layer metrics plus the extra figures for the table."""
    imports = [import_breakdown() for _ in range(SETUP_SAMPLES)]
    import onofftomo.cli  # noqa: F401  imported before either pass is timed

    untraced = run_pass_inprocess(wl, "untraced", log)
    tracer = Tracer()
    with tracer.patch():
        traced = run_pass_inprocess(wl, "traced", log, tracer)

    durs, self_s = tracer.durations()
    c = tracer.counts
    em_calls = c["emrecon.reconstruct_pn.calls"]
    passes = sum(it for it, _ in tracer.em_results)
    em_p50, em_tail, em_pct = p50_and_tail(durs["emrecon.reconstruct_pn"])
    rep_p50, rep_tail, rep_pct = p50_and_tail(durs["uncertainty.replica"])
    kernels = c["inversion.build_kernel.calls"]
    disp = c["fock.displacement_matrix.calls"]
    attempts = c["fock.displaced_photon_distribution.calls"]
    ms = 1e3
    metrics = {
        "emrecon.reconstruct_pn.calls": (em_calls, "count"),
        "emrecon.reconstruct_pn.self_s": (self_s["emrecon.reconstruct_pn"], "s"),
        "emrecon.reconstruct_pn.p50_ms": (em_p50 * ms, "ms"),
        "emrecon.reconstruct_pn.tail_ms": (em_tail * ms, "ms"),
        "emrecon.passes": (passes, "count"),
        "emrecon.us_per_pass": (_ratio(self_s["emrecon.reconstruct_pn"] * 1e6, passes), "us"),
        "emrecon.converged_ratio": (_ratio(sum(ok for _, ok in tracer.em_results), em_calls), "ratio"),
        "emrecon.records_per_nmax": (_ratio(em_calls, len(tracer.em_problems)), "ratio"),
        "uncertainty.bootstrap.self_s": (self_s["uncertainty.bootstrap"], "s"),
        "uncertainty.replica.p50_ms": (rep_p50 * ms, "ms"),
        "uncertainty.replica.tail_ms": (rep_tail * ms, "ms"),
        "uncertainty.replicas": (c["uncertainty.replica.calls"], "count"),
        "uncertainty.replica_fail_ratio": (
            _ratio(c["uncertainty.replica.raised"], c["uncertainty.replica.calls"]), "ratio"),
        "inversion.build_kernel.calls": (kernels, "count"),
        "inversion.build_kernel.self_s": (self_s["inversion.build_kernel"], "s"),
        "inversion.kernel_retry_ratio": (_ratio(c["inversion.build_kernel.raised"], kernels), "ratio"),
        "inversion.kernel_repeat_ratio": (_ratio(c["inversion.build_kernel.repeats"], kernels), "ratio"),
        "inversion.reconstruct_density_matrix.self_s": (
            self_s["inversion.reconstruct_density_matrix"], "s"),
        "fock.displacement_matrix.calls": (disp, "count"),
        "fock.displacement_matrix.self_s": (self_s["fock.displacement_matrix"], "s"),
        "fock.displacement_repeat_ratio": (_ratio(c["fock.displacement_matrix.repeats"], disp), "ratio"),
        "fock.displaced_useful_ratio": (
            _ratio(c["fock.displaced_photon_distribution_auto.calls"], attempts), "ratio"),
        "fock.displaced_photon_distribution.self_s": (
            self_s["fock.displaced_photon_distribution"], "s"),
        "detector.simulate_dataset.self_s": (self_s["detector.simulate_dataset"], "s"),
        "detector.cells": (c["detector.cells"], "count"),
        "datafile.self_s": (sum(v for k, v in self_s.items() if k.startswith("datafile.")), "s"),
        "datafile.bytes_written": (c["datafile.bytes_written"], "bytes"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "import.scipy_s": (statistics.median(i["scipy"] for i in imports), "s"),
        "import.numpy_s": (statistics.median(i["numpy"] for i in imports), "s"),
        "import.onofftomo_s": (statistics.median(i["onofftomo"] for i in imports), "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "max_err": (log.max_err, "abs"),
    }
    extra = {
        "emrecon.reconstruct_pn.tail_pct": (em_pct, "%"),
        "uncertainty.replica.tail_pct": (rep_pct, "%"),
        "run.untraced_s": (untraced, "s"),
        "run.traced_s": (traced, "s"),
        "fail_frac": (log.failed / max(log.attempted, 1), "ratio"),
    }
    return metrics, extra


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny=False, tamper=None) -> dict:
    """Run one workload and return the result object (also used by the self-test)."""
    wl = workloads.make_workload(workload, seed, tiny=tiny)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    log = workloads.CheckLog()
    if trace:
        metrics, extra = layer_metrics(wl, log)
    else:
        metrics, extra = timing_metrics(wl, seconds, log, tamper)
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "errors": log.errors,
        "failures": log.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onofftomo" / "cli.py").is_file():
        print(f"error: no onofftomo sources under {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"environment: {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for section in ("metrics", "extra"):
        for name, m in result[section].items():
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for name, err in result["errors"].items():
        print(f"  error {name:<52} {err:.3e}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
