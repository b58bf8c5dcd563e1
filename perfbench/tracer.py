"""In-memory spans around the package's public functions, timed from outside.

``Tracer.patch()`` swaps each traced function for a wrapper in every module
namespace that calls it and restores the originals on exit.  A span records
its name, start, end and parent; counts and repeat keys are recorded at the
same boundaries.  Nothing runs concurrently, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (function name, modules whose namespace calls it)
TRACED = {
    "emrecon.reconstruct_pn": ("reconstruct_pn", ("cli", "uncertainty")),
    "uncertainty.bootstrap": ("bootstrap", ("cli",)),
    "inversion.reconstruct_density_matrix": ("reconstruct_density_matrix", ("cli", "uncertainty")),
    "inversion.build_kernel": ("build_kernel", ("inversion",)),
    "fock.displacement_matrix": ("displacement_matrix", ("fock", "inversion")),
    "fock.displaced_photon_distribution": ("displaced_photon_distribution", ("fock", "detector")),
    "fock.displaced_photon_distribution_auto": ("displaced_photon_distribution_auto", ("cli", "detector")),
    "detector.simulate_dataset": ("simulate_dataset", ("cli",)),
    "datafile.write_dataset_file": ("write_dataset_file", ("cli",)),
    "datafile.read_dataset_file": ("read_dataset_file", ("cli",)),
    "datafile.write_csv": ("write_csv", ("cli",)),
    "datafile.read_csv": ("read_csv", ("cli",)),
    "datafile.dumps_canonical": ("dumps_canonical", ("cli", "datafile")),
    "datafile.write_text_atomic": ("write_text_atomic", ("cli", "datafile")),
}

# The bootstrap pipelines are closures; their factories are wrapped so each
# replica the closure reconstructs becomes one "uncertainty.replica" span.
PIPELINE_FACTORIES = ("wigner_pipeline", "dm_pipeline")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self.em_results: list = []
        self.em_problems: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _repeat(self, name: str, key) -> None:
        """Count a call whose key an earlier call of ``name`` already had."""
        if key in self._seen[name]:
            self.counts[name + ".repeats"] += 1
        self._seen[name].add(key)

    def _observe(self, name, args, result):
        if name == "emrecon.reconstruct_pn":
            self.em_results.append((result.iterations, result.converged))
            self.em_problems.add((result.distribution.n_max, args[0].grid.etas.tobytes()))
        elif name == "fock.displacement_matrix":
            self._repeat(name, (complex(args[0]), int(args[1])))
        elif name == "detector.simulate_dataset":
            self.counts["detector.cells"] += sum(len(ds.off_counts) for ds in result)
        elif name == "datafile.write_text_atomic":
            self.counts["datafile.bytes_written"] += len(args[1].encode("utf-8"))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if name == "inversion.build_kernel":
                s, amp, n_max, m_max = args[:4]
                self._repeat(name, (s, float(amp), n_max, m_max))
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            self._observe(name, args, result)
            return result

        return traced

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self._wrap("uncertainty.replica", factory(*args, **kwargs))

        return traced_factory

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for name, (attr, modules) in TRACED.items():
                for mod_name in modules:
                    mod = importlib.import_module(f"onofftomo.{mod_name}")
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            cli = importlib.import_module("onofftomo.cli")
            for attr in PIPELINE_FACTORIES:
                saved.append((cli, attr, getattr(cli, attr)))
                setattr(cli, attr, self._wrap_factory(getattr(cli, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- aggregation -------------------------------------------------------

    def durations(self) -> tuple[dict, dict]:
        """Per span name: the list of durations and the summed self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        durs: dict[str, list] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            durs[name].append(end - start)
            self_s[name] += end - start - child[i]
        return durs, self_s


def p50_and_tail(samples) -> tuple[float, float, float]:
    """Median, and the highest percentile with at least ten samples beyond it.

    Returns (p50, tail value, tail percentile).  With twenty samples or fewer
    that percentile does not exceed the median, and the tail falls back to it.
    """
    if not len(samples):
        return 0.0, 0.0, 0.0
    xs = np.sort(np.asarray(samples, float))
    p50 = float(np.median(xs))
    if xs.size <= 20:
        return p50, p50, 50.0
    idx = xs.size - 11  # ten samples lie above xs[idx]
    return p50, float(xs[idx]), 100.0 * (idx + 1) / xs.size
