"""The benchmark's workloads: generated configs, CLI legs and output checks.

Every workload is a closed loop of CLI calls, one process at a time.  The
configs are generated here from the seed, so the program sees nothing but
those inputs.  References are closed forms evaluated here, never values
computed by the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre

WORKLOAD_NAMES = ("dm_bootstrap", "wigner_scan", "oracle")
DEFAULT_SEED = 1

# SHA-256 of dataset.json written by `simulate` at DEFAULT_SEED, per workload
# and size.  A change to the sampler, the efficiency grid or the file format
# shows up here as a failed check.
GOLDEN_DATASETS = {
    ("dm_bootstrap", "full"): "593326935b1f8f1e448499331aab4b115933e24541044aad693e4dc6162d06e6",
    ("wigner_scan", "full"): "96982d128d7279c5bd58cccec23173f28c32af739e44df688aabeced772427fb",
    ("oracle", "full"): "91a5e338ad7ced0be91383278e03438786acef656794de235f830660a7774de7",
    ("dm_bootstrap", "tiny"): "593326935b1f8f1e448499331aab4b115933e24541044aad693e4dc6162d06e6",
    ("wigner_scan", "tiny"): "75101c581e88d2444f2900eddfe2e90634dc845e0ff21776dbb0c023820c9279",
    ("oracle", "tiny"): "0c9e6589f2ab4be3831d5552f34de3fb78d1f1ca784088f5749fa13575dc7fa3",
}

GRID = {"k": 25, "eta_max": 0.67}
PLAIN_EM = {"n_max": None, "tol": 1e-12, "max_iter": 3000, "accelerate": False}

# Gates on the largest deviation from the reference, per comparison.
TOL_DM_COHERENT = 0.1    # one seed; acceptance criterion 2 bounds the seed average at 0.05
TOL_WIGNER_DATA = 0.05   # acceptance criterion 3's data-mode bound
TOL_EXACT = 1e-6         # acceptance criterion 1's bound on the analytic chain
TOL_ORACLE_DATA = 0.02   # EM truncation and stopping residue at 10^12 shots


@dataclass(frozen=True)
class Leg:
    """One CLI call: the metric its wall time feeds and its arguments.

    ``args`` may contain the placeholders {config}, {data} and {out}.
    """

    metric: str
    args: tuple[str, ...]


SIMULATE = Leg("simulate_s", ("simulate", "--config", "{config}", "--out", "{out}"))
RECONSTRUCT = Leg("reconstruct_s",
                  ("reconstruct", "--config", "{config}", "--data", "{data}", "--out", "{out}"))
EXACT = Leg("exact_s", ("reconstruct", "--config", "{config}", "--exact", "--out", "{out}"))


@dataclass
class CheckLog:
    """Outcome of every correctness check made in a run."""

    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0
    errors: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def error(self, name: str, err: float, tol: float) -> None:
        """Gate one deviation from a reference and fold it into max_err."""
        self.check(name, math.isfinite(err) and err <= tol, f"error {err:.3e} > {tol:g}")
        self.errors[name] = max(err, self.errors.get(name, 0.0))
        if math.isfinite(err):
            self.max_err = max(self.max_err, err)


@dataclass(frozen=True)
class Workload:
    name: str
    size: str  # "full", or "tiny" for the self-test
    config: dict
    legs: tuple[Leg, ...]

    def check(self, dirs: dict[str, str], log: CheckLog) -> None:
        """Check the outputs of one pass; ``dirs`` maps leg metric -> output dir."""
        path = os.path.join(dirs["simulate_s"], "dataset.json")
        log.check("dataset.json written", os.path.exists(path))
        if self.config["seed"] == DEFAULT_SEED and os.path.exists(path):
            want, got = GOLDEN_DATASETS[(self.name, self.size)], dataset_sha256(path)
            log.check("dataset.json golden SHA-256", got == want, f"{got} != {want}")
        CHECKS[self.name](self.config, dirs, log)


def dataset_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _keyed(rows, value: str, *keys) -> dict:
    return {tuple(r[k] for k in keys): float(r[value]) for r in rows}


def _element(row) -> complex:
    return complex(float(row["real"]), float(row["imag"]))


# -- closed forms ----------------------------------------------------------

def coherent_element(z: float, n: int, m: int) -> float:
    """<n|z><z|m> for real z > 0."""
    return math.exp(-z * z + (n + m) * math.log(z)
                    - 0.5 * (math.lgamma(n + 1) + math.lgamma(m + 1)))


def thermal_wigner(r: float, n_th: float) -> float:
    """Parity-convention Wigner value of a thermal state at radius r."""
    return math.exp(-2.0 * r * r / (1.0 + 2.0 * n_th)) / (1.0 + 2.0 * n_th)


def thermal_diagonal(n, n_th: float):
    """<n|rho|n> = n_th^n / (1 + n_th)^(n + 1)."""
    return np.exp(n * math.log(n_th) - (n + 1) * math.log1p(n_th))


def displaced_thermal_pn(n, r: float, n_th: float):
    """Photon-number distribution of a thermal state displaced by |alpha| = r.

    p_n = n_th^n / (1 + n_th)^(n+1) exp(-r^2 / (1 + n_th)) L_n(-r^2 / (n_th (1 + n_th))).
    """
    return (thermal_diagonal(n, n_th) * math.exp(-r * r / (1.0 + n_th))
            * eval_genlaguerre(n, 0, -r * r / (n_th * (1.0 + n_th))))


# -- per-workload checks -----------------------------------------------------

def check_dm_bootstrap(config, dirs, log: CheckLog) -> None:
    z = float(config["state"]["z"])
    for metric in ("reconstruct_s", "bootstrap_s"):
        rows = _read_rows(os.path.join(dirs[metric], "dm.csv"))
        err = max((abs(_element(r) - coherent_element(z, int(r["n"]), int(r["m"])))
                   for r in rows if int(r["n"]) < 8), default=math.inf)
        log.error(f"{metric}: dm[:8,:8] vs coherent |z><z|", err, TOL_DM_COHERENT)
    missing = sum(not r["stderr"] for r in rows)  # rows of the bootstrap leg
    log.check("bootstrap: every dm.csv row has a stderr", bool(rows) and not missing,
              f"{missing} of {len(rows)} rows lack one")


def check_wigner_scan(config, dirs, log: CheckLog) -> None:
    n_th = float(config["state"]["n_th"])
    rows = _read_rows(os.path.join(dirs["reconstruct_s"], "wigner.csv"))
    log.check("wigner.csv has one row per amplitude",
              len(rows) == len(config["modulation"]["amps"]), f"{len(rows)} rows")
    err = max((abs(float(r["wigner"]) - thermal_wigner(float(r["amp"]), n_th)) for r in rows),
              default=math.inf)
    log.error("wigner vs thermal closed form", err, TOL_WIGNER_DATA)


def check_oracle(config, dirs, log: CheckLog) -> None:
    n_th = float(config["state"]["n_th"])
    exact, data = dirs["exact_s"], dirs["reconstruct_s"]

    pn_exact = _keyed(_read_rows(os.path.join(exact, "pn.csv")), "p", "amp", "phase", "n")
    err = max((abs(p - displaced_thermal_pn(int(n), float(amp), n_th))
               for (amp, _, n), p in pn_exact.items()), default=math.inf)
    log.error("exact: p_n vs displaced-thermal closed form", err, TOL_EXACT)

    w_exact = _keyed(_read_rows(os.path.join(exact, "wigner.csv")), "wigner", "amp", "phase")
    err = max((abs(w - thermal_wigner(float(amp), n_th)) for (amp, _), w in w_exact.items()),
              default=math.inf)
    log.error("exact: wigner vs thermal closed form", err, TOL_EXACT)

    rows = _read_rows(os.path.join(exact, "dm.csv"))
    err = max((abs(_element(r) - (thermal_diagonal(int(r["n"]), n_th) if r["n"] == r["m"] else 0.0))
               for r in rows if int(r["n"]) < 8), default=math.inf)
    log.error("exact: dm[:8,:8] vs thermal diagonal", err, TOL_EXACT)

    # Data mode against exact mode.  Data-mode dm elements are not gated: the
    # |alpha| = 2 kernel amplifies the EM residue far beyond any useful bound.
    pn_data = _keyed(_read_rows(os.path.join(data, "pn.csv")), "p", "amp", "phase", "n")
    err = max((abs(pn_data.get(k, 0.0) - pn_exact.get(k, 0.0)) for k in pn_exact.keys() | pn_data),
              default=math.inf)
    log.error("data: p_n vs exact mode", err, TOL_ORACLE_DATA)

    w_data = _keyed(_read_rows(os.path.join(data, "wigner.csv")), "wigner", "amp", "phase")
    log.check("data: wigner rows match exact-mode rows", w_data.keys() == w_exact.keys())
    err = max((abs(w - w_exact.get(k, math.inf)) for k, w in w_data.items()), default=math.inf)
    log.error("data: wigner vs exact mode", err, TOL_ORACLE_DATA)


CHECKS = {
    "dm_bootstrap": check_dm_bootstrap,
    "wigner_scan": check_wigner_scan,
    "oracle": check_oracle,
}


# -- workload definitions --------------------------------------------------

def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """Config and legs of one workload; ``tiny`` shrinks it for the self-test."""
    em = dict(PLAIN_EM, max_iter=300 if tiny else 3000)
    if name == "dm_bootstrap":
        config = {
            "state": {"kind": "coherent", "z": 1.8},
            "modulation": {"amps": [0.1], "n_phases": 12},
            "grid": GRID,
            "shots": 30000,
            "seed": seed,
            "em": em,
            "targets": ["pn", "dm"],
            "dm": {"s_max": 1, "m_max": 12},
        }
        replicas = 2 if tiny else 3
        legs = (SIMULATE, RECONSTRUCT,
                Leg("bootstrap_s", RECONSTRUCT.args + ("--bootstrap", str(replicas))))
    elif name == "wigner_scan":
        amps = np.linspace(0.0, 3.0, 4 if tiny else 16)
        config = {
            "state": {"kind": "thermal", "n_th": 2.4},
            "modulation": {"amps": [round(float(a), 12) for a in amps], "n_phases": 1},
            "grid": GRID,
            "shots": 30000,
            "seed": seed,
            "em": em,
            "targets": ["pn", "wigner"],
        }
        legs = (SIMULATE, RECONSTRUCT)
    elif name == "oracle":
        # The accelerated EM's pass count is chaotic in the data: about one
        # record in thirty takes ten times the usual passes, so across seeds
        # the data leg's time varies twofold.  Its dataset is therefore always
        # sampled with DEFAULT_SEED, and --seed leaves this workload unchanged.
        # No "em" section: the CLI's accelerated defaults apply.
        config = {
            "state": {"kind": "thermal", "n_th": 1.0},
            "modulation": {"amps": [1.0] if tiny else [1.0, 2.0, 3.0],
                           "n_phases": 8 if tiny else 16},
            "grid": GRID,
            "shots": 10**12,
            "seed": DEFAULT_SEED,
            "targets": ["pn", "wigner", "dm"],
            "dm": {"s_max": 3, "m_max": None},
        }
        legs = (EXACT, SIMULATE, RECONSTRUCT)
    else:
        raise KeyError(name)
    return Workload(name, "tiny" if tiny else "full", config, legs)


def write_config(path: str, config: dict, out_dir: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(config, output={"dir": out_dir}), fh, indent=1)
