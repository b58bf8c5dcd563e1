"""Self-test of the benchmark itself, on tiny versions of every workload.

    python3 perfbench/selftest.py

Checks that each workload emits exactly the metrics BENCHMARK.json names, in
both modes, with every check passing; and that a corrupted dataset count or
a CLI call that exits nonzero shows up as failed checks.  Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TABLE_ONLY = {"dm_bootstrap": {"simulate_s", "reconstruct_s", "bootstrap_s"},
              "wigner_scan": {"simulate_s", "reconstruct_s"},
              "oracle": {"exact_s", "simulate_s", "reconstruct_s"}}


def bump_first_count(metric, out_dir):
    if metric == "simulate_s":
        path = out_dir / "dataset.json"
        doc = json.loads(path.read_text())
        doc["records"][0]["off_counts"][0] += 1
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def truncate_dataset(metric, out_dir):
    if metric == "simulate_s":
        path = out_dir / "dataset.json"
        path.write_text(path.read_text()[:100])


def main() -> int:
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    for name in workloads.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run.run(name, workloads.DEFAULT_SEED, 0.0, bool(trace), tiny=True)
            want = {m["name"] for m in SPEC[section]}
            expect(set(res["metrics"]) == want,
                   f"{name} trace {trace}: emits the {section} metrics")
            expect(res["correct"] and res["failed"] == 0 and res["extra"]["fail_frac"]["value"] == 0,
                   f"{name} trace {trace}: every check passes {res['failures']}")
            if not trace:
                expect(TABLE_ONLY[name] | {"fail_frac"} <= set(res["extra"]),
                       f"{name}: reports {sorted(TABLE_ONLY[name] | {'fail_frac'})}")

    for tamper, what, failed_check in (
        (bump_first_count, "a corrupted dataset count", "golden SHA-256"),
        (truncate_dataset, "a nonzero CLI exit", "reconstruct_s: exit code 0"),
    ):
        res = run.run("wigner_scan", workloads.DEFAULT_SEED, 0.0, False, tiny=True, tamper=tamper)
        expect(res["extra"]["fail_frac"]["value"] > 0
               and any(failed_check in f for f in res["failures"]),
               f"{what} raises fail_frac: {res['failures']}")

    shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
