"""Command-line workflow: simulate, reconstruct, report, selftest.

Configuration is one JSON document (unknown fields rejected):

    {"state": {"kind": "thermal", "n_th": 2.4},
     "modulation": {"amps": [0.0, 0.5, 1.0], "n_phases": 1},
     "grid": {"k": 25, "eta_max": 0.67},
     "shots": 30000,
     "seed": 1,
     "em": {"n_max": null, "tol": 1e-9, "max_iter": 100000, "accelerate": true},
     "targets": ["pn", "wigner", "dm"],
     "dm": {"s_max": 2, "m_max": null, "svd_cutoff": 1e-8, "residual_bound": 0.05},
     "output": {"dir": "out"}}

Exit codes: 0 success, 2 validation error, 3 numerical failure (including a
partial run with a failure manifest), 4 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import selftest
from .datafile import (
    DatasetBundle,
    dumps_canonical,
    read_csv,
    read_dataset_file,
    uniform_phases_or_error,
    write_csv,
    write_dataset_file,
    write_text_atomic,
)
from .detector import ModulationSpec, simulate_dataset, uniform_grid
from .emrecon import EMConfig, default_truncation, reconstruct_pn_batch
from .emrecon import reconstruct_pn  # noqa: F401  (perfbench/tracer.py patches it here)
from .errors import ConfigError, ReconstructionError
from .fock import (
    FockDensityMatrix,
    displaced_photon_distribution_auto,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
)
from .inversion import (
    conventional_wigner_value,
    reconstruct_density_matrix,
    wigner_map_from_data,
)
from .uncertainty import bootstrap, dm_pipeline, dm_tag, wigner_pipeline, wigner_tag

OUTPUT_DIR_ENV = "ONOFFTOMO_OUT"

_STATE_PARAMS = {
    "vacuum": set(),
    "coherent": {"z"},
    "thermal": {"n_th"},
    "phase_averaged_coherent": {"z"},
    "fock": {"n"},
}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    state: dict
    amps: tuple[float, ...]
    n_phases: int
    grid_k: int
    eta_max: float
    shots: int
    seed: int
    em: EMConfig
    targets: tuple[str, ...]
    s_max: int
    m_max: int | None
    svd_cutoff: float
    residual_bound: float
    out_dir: str | None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _check_keys(
            doc,
            {"state", "modulation", "grid", "shots", "seed", "em", "targets", "dm", "output"},
            "config",
        )
        state = doc.get("state")
        if not isinstance(state, dict) or "kind" not in state:
            raise ConfigError("config needs a state section with a 'kind'")
        kind = state["kind"]
        if kind not in _STATE_PARAMS:
            raise ConfigError(f"unknown state kind {kind!r}")
        _check_keys(state, {"kind", "n_max"} | _STATE_PARAMS[kind], f"state ({kind})")
        missing = _STATE_PARAMS[kind] - set(state)
        if missing:
            raise ConfigError(f"state {kind!r} missing parameter(s): {sorted(missing)}")

        mod = doc.get("modulation", {})
        _check_keys(mod, {"amps", "n_phases"}, "modulation")
        amps = tuple(float(a) for a in mod.get("amps", [0.0]))
        if not amps or any(a < 0 or not math.isfinite(a) for a in amps):
            raise ConfigError("modulation.amps must be finite and >= 0")
        if len(set(amps)) != len(amps):
            raise ConfigError("modulation.amps must be distinct")
        n_phases = int(mod.get("n_phases", 1))
        if n_phases < 1:
            raise ConfigError("modulation.n_phases must be >= 1")

        grid = doc.get("grid", {})
        _check_keys(grid, {"k", "eta_max"}, "grid")
        grid_k = int(grid.get("k", 25))
        eta_max = float(grid.get("eta_max", 0.67))
        if grid_k < 2:
            raise ConfigError("grid.k must be >= 2")
        if not (0.0 < eta_max <= 1.0):
            raise ConfigError("grid.eta_max must lie in (0, 1]")

        shots = int(doc.get("shots", 30000))
        if shots < 1:
            raise ConfigError("shots must be >= 1")
        seed = int(doc.get("seed", 0))
        if not (0 <= seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")

        em_doc = doc.get("em", {})
        _check_keys(em_doc, {"n_max", "tol", "max_iter", "accelerate"}, "em")
        try:
            em = EMConfig(
                n_max=em_doc.get("n_max"),
                tol=float(em_doc.get("tol", 1e-9)),
                max_iter=int(em_doc.get("max_iter", 100000)),
                accelerate=bool(em_doc.get("accelerate", True)),
            )
        except ValueError as err:
            raise ConfigError(f"em: {err}") from err

        targets = tuple(doc.get("targets", ["pn"]))
        bad = set(targets) - {"pn", "wigner", "dm"}
        if bad or not targets:
            raise ConfigError(f"targets must be a non-empty subset of pn|wigner|dm, got {targets!r}")

        dm_doc = doc.get("dm", {})
        _check_keys(dm_doc, {"s_max", "m_max", "svd_cutoff", "residual_bound"}, "dm")
        s_max = int(dm_doc.get("s_max", 2))
        m_max = dm_doc.get("m_max")
        m_max = None if m_max is None else int(m_max)
        svd_cutoff = float(dm_doc.get("svd_cutoff", 1e-8))
        residual_bound = float(dm_doc.get("residual_bound", 0.05))
        if s_max < 0:
            raise ConfigError("dm.s_max must be >= 0")
        if m_max is not None and m_max < 0:
            raise ConfigError("dm.m_max must be >= 0")
        if not (0 < svd_cutoff < 1):
            raise ConfigError("dm.svd_cutoff must lie in (0, 1)")

        out_doc = doc.get("output", {})
        _check_keys(out_doc, {"dir"}, "output")
        out_dir = out_doc.get("dir")

        return cls(
            state=dict(state),
            amps=amps,
            n_phases=n_phases,
            grid_k=grid_k,
            eta_max=eta_max,
            shots=shots,
            seed=seed,
            em=em,
            targets=targets,
            s_max=s_max,
            m_max=m_max,
            svd_cutoff=svd_cutoff,
            residual_bound=residual_bound,
            out_dir=out_dir,
        )


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def build_state(spec: dict) -> tuple[FockDensityMatrix, int]:
    """State factory from a config state section; returns (rho, truncation)."""
    kind = spec["kind"]
    if kind == "fock":
        n = int(spec["n"])
        trunc = int(spec.get("n_max", n))
        return make_fock(n, trunc), trunc
    if kind == "vacuum":
        trunc = int(spec.get("n_max", 0))
        return make_fock(0, trunc), trunc
    if kind == "coherent":
        mean = float(spec["z"]) ** 2
        factory = lambda t: make_coherent(float(spec["z"]), t)  # noqa: E731
    elif kind == "thermal":
        mean = float(spec["n_th"])
        factory = lambda t: make_thermal(float(spec["n_th"]), t)  # noqa: E731
    elif kind == "phase_averaged_coherent":
        mean = float(spec["z"]) ** 2
        factory = lambda t: make_phase_averaged_coherent(float(spec["z"]), t)  # noqa: E731
    else:  # pragma: no cover - guarded by RunConfig
        raise ConfigError(f"unknown state kind {kind!r}")
    if "n_max" in spec and spec["n_max"] is not None:
        trunc = int(spec["n_max"])
        return factory(trunc), trunc
    trunc = math.ceil(mean + 6.0 * math.sqrt(mean) + 10.0)
    from .errors import TruncationError

    while True:
        try:
            return factory(trunc), trunc
        except TruncationError:
            if trunc > 2000:
                raise
            trunc = math.ceil(1.5 * trunc) + 10


def _resolve_out_dir(arg_out: str | None, cfg_out: str | None) -> str:
    out = arg_out or cfg_out or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _amp_seed(seed: int, amp_index: int) -> int:
    """Per-amplitude substream; identity for the first amplitude so a
    single-amp run uses the (seed, l, k) cells directly."""
    if amp_index == 0:
        return seed
    return int(np.random.SeedSequence(entropy=[seed, amp_index]).generate_state(1, np.uint64)[0])


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    out_dir = _resolve_out_dir(args.out, cfg.out_dir)
    rho, trunc = build_state(cfg.state)
    grid = uniform_grid(cfg.eta_max, cfg.grid_k)
    counts = {}
    for ai, amp in enumerate(cfg.amps):
        mod = ModulationSpec.uniform(amp, cfg.n_phases)
        datasets = simulate_dataset(rho, mod, grid, cfg.shots, _amp_seed(seed, ai))
        for pi, ds in enumerate(datasets):
            counts[(ai, pi)] = np.asarray(ds.off_counts)
    bundle = DatasetBundle(
        seed=seed,
        shots=cfg.shots,
        state=cfg.state,
        truncation=trunc,
        amps=cfg.amps,
        phases=tuple(2.0 * math.pi * np.arange(cfg.n_phases) / cfg.n_phases),
        grid=grid,
        counts=counts,
    )
    path = os.path.join(out_dir, "dataset.json")
    write_dataset_file(path, bundle)
    print(f"state: {cfg.state}")
    print(f"grid: K={cfg.grid_k} eta_max={cfg.eta_max}")
    print(f"modulation: amps={list(cfg.amps)} n_phases={cfg.n_phases}")
    print(f"shots: {cfg.shots}  seed: {seed}")
    print(f"wrote {len(counts)} records -> {path}")
    return 0


def _exact_bundle(cfg: RunConfig) -> tuple[FockDensityMatrix, dict]:
    """Analytic displaced distributions per (amp_index, phase_index)."""
    rho, _ = build_state(cfg.state)
    phases = 2.0 * math.pi * np.arange(cfg.n_phases) / cfg.n_phases
    dists = {}
    for ai, amp in enumerate(cfg.amps):
        for pi, phase in enumerate(phases):
            alpha = amp * cmath.exp(1j * phase)
            dists[(ai, pi)] = displaced_photon_distribution_auto(rho, alpha)
    return rho, dists


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out_dir(args.out, cfg.out_dir)
    if args.exact and args.bootstrap:
        raise ConfigError("--bootstrap needs sampled data; it cannot run with --exact")
    if not args.exact and not args.data:
        raise ConfigError("reconstruct needs --data FILE (or --exact)")

    diagnostics: dict = {"em": [], "dm": {}, "failures": []}
    pn_rows, wigner_rows, dm_rows = [], [], []
    stderr_by_tag: dict[str, float] = {}

    if args.exact:
        rho, dists = _exact_bundle(cfg)
        phases = 2.0 * math.pi * np.arange(cfg.n_phases) / cfg.n_phases
        groups = {
            amp: [(phases[pi], dists[(ai, pi)]) for pi in range(cfg.n_phases)]
            for ai, amp in enumerate(cfg.amps)
        }
        diagnostics["mode"] = "exact"
    else:
        groups = read_dataset_file(args.data).by_amp()
        diagnostics["mode"] = "data"
    if args.bootstrap:
        seed = args.seed if args.seed is not None else cfg.seed
        diagnostics["bootstrap"] = {"replicas": args.bootstrap, "seed": seed, "outcomes": []}

    def record_failure(amp, target, err):
        diagnostics["failures"].append({"amp": amp, "target": target, "error": str(err)})

    for amp, group in groups.items():
        if args.exact:
            dist_list = [d for _, d in group]
            phase_list = [ph for ph, _ in group]
        else:
            datasets = group
            n_bar = cfg.em.n_max or max(default_truncation(ds) for ds in datasets)
            em_cfg = dataclasses.replace(cfg.em, n_max=n_bar)
            try:
                results = reconstruct_pn_batch(datasets, em_cfg)
            except ReconstructionError as err:
                record_failure(amp, "em", err)
                continue
            dist_list = [r.distribution for r in results]
            phase_list = [ds.phase for ds in datasets]
            for ds, r in zip(datasets, results):
                diagnostics["em"].append(
                    {
                        "amp": ds.amp,
                        "phase": ds.phase,
                        "n_max": n_bar,
                        "iterations": r.iterations,
                        "converged": r.converged,
                        "residual": r.residual,
                        "final_ll": r.final_ll,
                        "ll_decreases": r.ll_decreases,
                    }
                )

        if "pn" in cfg.targets:
            for phase, dist in zip(phase_list, dist_list):
                for n, p in enumerate(dist.probs):
                    pn_rows.append((amp, phase, n, float(p)))

        # each target's point estimate and bootstrap fail on their own, so a
        # rank-deficient dm kernel keeps the wigner rows and their stderr
        if "wigner" in cfg.targets:
            try:
                table = {
                    complex(amp * cmath.exp(1j * phase)): dist
                    for phase, dist in zip(phase_list, dist_list)
                }
                wmap = wigner_map_from_data(table)
                for pt, phase in zip(wmap.points, phase_list):
                    row = [amp, phase, pt.alpha.real, pt.alpha.imag, pt.value, None, pt.flagged]
                    if args.conventional_wigner:
                        row.append(conventional_wigner_value(pt.value))
                    wigner_rows.append(tuple(row))
                if args.bootstrap:
                    _attach_bootstrap(amp, "wigner", wigner_pipeline(em_cfg), datasets,
                                      args.bootstrap, stderr_by_tag, diagnostics["bootstrap"])
            except ReconstructionError as err:
                record_failure(amp, "wigner", err)

        if "dm" in cfg.targets:
            try:
                uniform_phases_or_error(phase_list)
                res = reconstruct_density_matrix(
                    dist_list,
                    amp,
                    s_max=cfg.s_max,
                    m_max=cfg.m_max,
                    svd_cutoff=cfg.svd_cutoff,
                    residual_bound=cfg.residual_bound,
                )
                diagnostics["dm"][repr(amp)] = [
                    {
                        "s": f.s,
                        "condition": f.condition,
                        "residual": f.residual,
                        "reliable": f.reliable,
                    }
                    for f in res.fits
                ]
                for f in res.fits:
                    for m, v in enumerate(f.values):
                        dm_rows.append(
                            (amp, f.s, m + f.s, m, v.real, v.imag, None,
                             f.condition, f.residual, f.reliable)
                        )
                if args.bootstrap:
                    pipe = dm_pipeline(amp, cfg.s_max, cfg.m_max, em_cfg, svd_cutoff=cfg.svd_cutoff)
                    _attach_bootstrap(amp, "dm", pipe, datasets, args.bootstrap,
                                      stderr_by_tag, diagnostics["bootstrap"], prefix=f"{amp!r}:")
            except ReconstructionError as err:
                record_failure(amp, "dm", err)

    if args.bootstrap:
        wigner_rows = [
            row[:5] + (stderr_by_tag.get(wigner_tag(row[0], row[1])),) + row[6:]
            for row in wigner_rows
        ]
        dm_rows = [
            row[:6] + (stderr_by_tag.get(f"{row[0]!r}:" + dm_tag(row[2], row[3])),) + row[7:]
            for row in dm_rows
        ]

    wrote = []
    if "pn" in cfg.targets:
        path = os.path.join(out_dir, "pn.csv")
        write_csv(path, ["amp", "phase", "n", "p"], pn_rows)
        wrote.append(path)
    if "wigner" in cfg.targets:
        header = ["amp", "phase", "re_alpha", "im_alpha", "wigner", "stderr", "flagged"]
        if args.conventional_wigner:
            header.append("conventional")
        path = os.path.join(out_dir, "wigner.csv")
        write_csv(path, header, wigner_rows)
        wrote.append(path)
    if "dm" in cfg.targets:
        path = os.path.join(out_dir, "dm.csv")
        write_csv(
            path,
            ["amp", "s", "n", "m", "real", "imag", "stderr", "condition", "residual", "reliable"],
            dm_rows,
        )
        wrote.append(path)
    diag_path = os.path.join(out_dir, "diagnostics.json")
    write_text_atomic(diag_path, dumps_canonical(diagnostics))
    wrote.append(diag_path)
    for path in wrote:
        print(f"wrote {path}")
    if diagnostics["failures"]:
        print(f"{len(diagnostics['failures'])} target(s) failed; see {diag_path}", file=sys.stderr)
        return 3
    return 0


def _attach_bootstrap(amp, target, pipeline, datasets, n_replicas, stderr_by_tag, diag,
                      prefix="") -> None:
    """Bootstrap one target's point-estimate estimator for one amplitude.

    Stores each tag's stddev under ``prefix + tag`` and appends the replicas
    that reconstructed and the ones that failed to ``diag["outcomes"]``; a
    BootstrapError propagates.
    """
    reports = bootstrap(datasets, pipeline, n_replicas, diag["seed"])
    for rep in reports:
        stderr_by_tag[prefix + rep.tag] = rep.stddev
    succeeded = reports[0].replicas
    diag["outcomes"].append({"amp": amp, "target": target, "succeeded": succeeded,
                             "failed": n_replicas - succeeded})


def cmd_report(args) -> int:
    results = args.results
    out_dir = _resolve_out_dir(args.out, None) if args.out else results
    wrote = []

    wigner_path = os.path.join(results, "wigner.csv")
    if os.path.exists(wigner_path):
        header, rows = read_csv(wigner_path)
        idx = {h: i for i, h in enumerate(header)}
        parsed = sorted(
            rows, key=lambda r: (float(r[idx["amp"]]), float(r[idx["phase"]]))
        )
        out_rows = [
            (float(r[idx["amp"]]), float(r[idx["phase"]]), float(r[idx["wigner"]]),
             float(r[idx["stderr"]]) if r[idx["stderr"]] else None)
            for r in parsed
        ]
        path = os.path.join(out_dir, "wigner_radial.csv")
        write_csv(path, ["amp", "phase", "wigner", "stderr"], out_rows)
        wrote.append(path)
        print("wigner radial profile (amp, value):")
        for amp, phase, w, se in out_rows:
            err = f" +- {se:.3g}" if se is not None else ""
            print(f"  r={amp:<8g} phi={phase:<8.4g} W={w:+.6f}{err}")

    pn_path = os.path.join(results, "pn.csv")
    if os.path.exists(pn_path):
        header, rows = read_csv(pn_path)
        idx = {h: i for i, h in enumerate(header)}
        out_rows = [
            (float(r[idx["amp"]]), float(r[idx["phase"]]), int(r[idx["n"]]), float(r[idx["p"]]))
            for r in rows
        ]
        path = os.path.join(out_dir, "pn_table.csv")
        write_csv(path, ["amp", "phase", "n", "p"], out_rows)
        wrote.append(path)
        first = [r for r in out_rows if (r[0], r[1]) == (out_rows[0][0], out_rows[0][1])]
        print(f"photon distribution at amp={first[0][0]:g}, phase={first[0][1]:g}:")
        for _, _, n, p in first[:12]:
            print(f"  p[{n:>2}] = {p:.6f} |{'#' * int(round(40 * p))}")

    dm_path = os.path.join(results, "dm.csv")
    theory = None
    if args.config:
        cfg = load_config(args.config)
        theory, _ = build_state(cfg.state)
    if os.path.exists(dm_path):
        header, rows = read_csv(dm_path)
        idx = {h: i for i, h in enumerate(header)}
        out_rows = []
        for r in rows:
            re, im = float(r[idx["real"]]), float(r[idx["imag"]])
            out_rows.append((int(r[idx["n"]]), int(r[idx["m"]]), re, im, math.hypot(re, im)))
        path = os.path.join(out_dir, "dm_table.csv")
        write_csv(path, ["n", "m", "real", "imag", "abs"], out_rows)
        wrote.append(path)
        print("density-matrix elements (n, m, |value|):")
        for n, m, re, im, mag in out_rows[:12]:
            print(f"  <{n}|rho|{m}> = {re:+.5f}{im:+.5f}j  |.|={mag:.5f}")
        if theory is not None:
            deltas = []
            for n, m, re, im, _ in out_rows:
                if n < theory.dim and m < theory.dim:
                    ref = theory.entries[n, m]
                    deltas.append((n, m, abs(complex(re, im) - ref)))
            path = os.path.join(out_dir, "delta.csv")
            write_csv(path, ["n", "m", "delta"], deltas)
            wrote.append(path)
            if deltas:
                worst = max(d for _, _, d in deltas)
                print(f"delta map vs theory: {len(deltas)} entries, max delta = {worst:.3e}")

    if not wrote:
        raise ConfigError(f"no result files found under {results!r}")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cmd_selftest(_args) -> int:
    return 0 if selftest.run_selftest() else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onofftomo",
        description="Photon statistics, Wigner and density-matrix reconstruction "
        "from on/off click data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset file")
    sim.add_argument("--config", required=True, help="run configuration (JSON)")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", default=None, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="reconstruct targets from a dataset")
    rec.add_argument("--config", required=True)
    rec.add_argument("--data", default=None, help="dataset file from 'simulate'")
    rec.add_argument("--exact", action="store_true",
                     help="analytic pipeline from the config state (no dataset)")
    rec.add_argument("--bootstrap", type=int, default=None, metavar="B",
                     help="attach bootstrap error columns (B replicas)")
    rec.add_argument("--seed", type=int, default=None, help="bootstrap seed override")
    rec.add_argument("--out", default=None)
    rec.add_argument("--conventional-wigner", action="store_true",
                     help="add the (2/pi)-normalized Wigner column")
    rec.set_defaults(func=cmd_reconstruct)

    rep = sub.add_parser("report", help="summarize result files into plot-ready tables")
    rep.add_argument("--results", required=True, help="directory with reconstruct outputs")
    rep.add_argument("--config", default=None,
                     help="config providing the theory state for delta maps")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_report)

    st = sub.add_parser("selftest", help="run the noiseless round-trip suite")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ReconstructionError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
