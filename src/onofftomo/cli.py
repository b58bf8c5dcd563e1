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

Numbers must be JSON numbers: a string or a boolean where one is expected is
a validation error.

Exit codes: 0 success, 2 validation error, 3 numerical failure (including a
partial run with a failure manifest), 4 I/O error.  ``--log-level`` shows the
``onofftomo.*`` log records at that level and above on standard error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import selftest
from .datafile import (
    DatasetBundle,
    as_float,
    as_int,
    dumps_canonical,
    read_csv,
    read_dataset_file,
    write_csv,
    write_dataset_file,
    write_text_atomic,
)
from .detector import ModulationSpec, simulate_dataset, uniform_grid, uniform_phases
from .emrecon import (DEFAULT_MAX_ITER, DEFAULT_TOL, EMConfig, default_truncation,
                      reconstruct_pn_batch)
from .emrecon import reconstruct_pn  # noqa: F401  (perfbench/tracer.py patches it here)
from .errors import ConfigError, ReconstructionError, TruncationError
from .fock import (
    FockDensityMatrix,
    displaced_photon_distribution,
    displaced_photon_distribution_auto,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
)
from .inversion import (
    DEFAULT_RESIDUAL_BOUND,
    DEFAULT_S_MAX,
    DEFAULT_SVD_CUTOFF,
    check_dm_input,
    conventional_wigner_value,
    reconstruct_density_matrix,
    wigner_map_from_data,
)
from .uncertainty import EMPipeline, dm_readout, dm_tag, resample, summarize
from .uncertainty import wigner_readout, wigner_tag
# perfbench/tracer.py patches these here; reconstruct solves its replicas
# itself and no longer calls bootstrap, so that span reads 0
from .uncertainty import bootstrap, dm_pipeline, wigner_pipeline  # noqa: F401

OUTPUT_DIR_ENV = "ONOFFTOMO_OUT"

_STATE_PARAMS = {
    "vacuum": set(),
    "coherent": {"z"},
    "thermal": {"n_th"},
    "phase_averaged_coherent": {"z"},
    "fock": {"n"},
}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")


def _number(kind, value, where: str, low=None, optional: bool = False):
    """``kind(value)`` (kind int or float) of a JSON number, at least ``low``
    if given; None passes where optional.  Anything else, a string, a boolean
    or a fractional number for an int included, raises ConfigError naming
    the field."""
    if optional and value is None:
        return None
    try:
        number = as_int(value, where) if kind is int else as_float(value, where)
    except (TypeError, ValueError) as err:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {expected}, got {value!r}") from err
    if low is not None and number < low:
        raise ConfigError(f"{where} must be >= {low}")
    return number


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
        if not isinstance(kind, str) or kind not in _STATE_PARAMS:
            raise ConfigError(f"unknown state kind {kind!r}")
        _check_keys(state, {"kind", "n_max"} | _STATE_PARAMS[kind], f"state ({kind})")
        missing = _STATE_PARAMS[kind] - set(state)
        if missing:
            raise ConfigError(f"state {kind!r} missing parameter(s): {sorted(missing)}")
        for name in _STATE_PARAMS[kind]:
            value = _number(int if name == "n" else float, state[name], f"state.{name}")
            if name == "n_th" and not 0 <= value < math.inf:
                raise ConfigError("state.n_th must be finite and >= 0")
            if name == "z" and not math.isfinite(value):
                raise ConfigError("state.z must be finite")
        _number(int, state.get("n_max"), "state.n_max", optional=True)

        mod = doc.get("modulation", {})
        _check_keys(mod, {"amps", "n_phases"}, "modulation")
        amps = mod.get("amps", [0.0])
        if not isinstance(amps, list):
            raise ConfigError(f"modulation.amps must be a list, got {amps!r}")
        amps = tuple(_number(float, a, "modulation.amps") for a in amps)
        if not amps or any(a < 0 or not math.isfinite(a) for a in amps):
            raise ConfigError("modulation.amps must be finite and >= 0")
        if len(set(amps)) != len(amps):
            raise ConfigError("modulation.amps must be distinct")
        n_phases = _number(int, mod.get("n_phases", 1), "modulation.n_phases", low=1)

        grid = doc.get("grid", {})
        _check_keys(grid, {"k", "eta_max"}, "grid")
        grid_k = _number(int, grid.get("k", 25), "grid.k", low=2)
        eta_max = _number(float, grid.get("eta_max", 0.67), "grid.eta_max")
        if not (0.0 < eta_max <= 1.0):
            raise ConfigError("grid.eta_max must lie in (0, 1]")

        shots = _number(int, doc.get("shots", 30000), "shots", low=1)
        if shots >= 2**63:  # off counts are int64
            raise ConfigError("shots must be < 2**63")
        seed = _number(int, doc.get("seed", 0), "seed")
        if not (0 <= seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")

        em_doc = doc.get("em", {})
        _check_keys(em_doc, {"n_max", "tol", "max_iter", "accelerate"}, "em")
        accelerate = em_doc.get("accelerate", EMConfig.accelerate)
        if not isinstance(accelerate, bool):
            raise ConfigError(f"em.accelerate must be true or false, got {accelerate!r}")
        em_n_max = _number(int, em_doc.get("n_max"), "em.n_max", optional=True)
        tol = _number(float, em_doc.get("tol", DEFAULT_TOL), "em.tol")
        max_iter = _number(int, em_doc.get("max_iter", DEFAULT_MAX_ITER), "em.max_iter")
        try:
            em = EMConfig(n_max=em_n_max, tol=tol, max_iter=max_iter, accelerate=accelerate)
        except ValueError as err:  # each message starts with the field's name
            raise ConfigError(f"em.{err}") from err

        targets = doc.get("targets", ["pn"])
        if not (isinstance(targets, list) and targets
                and all(t in ("pn", "wigner", "dm") for t in targets)):
            raise ConfigError(f"targets must be a non-empty subset of pn|wigner|dm, got {targets!r}")

        dm_doc = doc.get("dm", {})
        _check_keys(dm_doc, {"s_max", "m_max", "svd_cutoff", "residual_bound"}, "dm")
        s_max = _number(int, dm_doc.get("s_max", DEFAULT_S_MAX), "dm.s_max", low=0)
        m_max = _number(int, dm_doc.get("m_max"), "dm.m_max", low=0, optional=True)
        svd_cutoff = _number(float, dm_doc.get("svd_cutoff", DEFAULT_SVD_CUTOFF), "dm.svd_cutoff")
        residual_bound = _number(float, dm_doc.get("residual_bound", DEFAULT_RESIDUAL_BOUND),
                                 "dm.residual_bound")
        if not (0 < svd_cutoff < 1):
            raise ConfigError("dm.svd_cutoff must lie in (0, 1)")
        if not (0 <= residual_bound < math.inf):
            raise ConfigError("dm.residual_bound must be finite and >= 0")

        out_doc = doc.get("output", {})
        _check_keys(out_doc, {"dir"}, "output")
        out_dir = out_doc.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"output.dir must be a string, got {out_dir!r}")

        return cls(state=dict(state), amps=amps, n_phases=n_phases, grid_k=grid_k,
                   eta_max=eta_max, shots=shots, seed=seed, em=em, targets=tuple(targets),
                   s_max=s_max, m_max=m_max, svd_cutoff=svd_cutoff,
                   residual_bound=residual_bound, out_dir=out_dir)


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def build_state(spec: dict) -> tuple[FockDensityMatrix, int]:
    """State factory from a config state section; returns (rho, truncation)."""
    kind, trunc = spec["kind"], spec.get("n_max")
    if kind in ("fock", "vacuum"):
        n = int(spec.get("n", 0))
        trunc = n if trunc is None else int(trunc)
        return make_fock(n, trunc), trunc
    factory = {"coherent": make_coherent, "thermal": make_thermal,
               "phase_averaged_coherent": make_phase_averaged_coherent}[kind]
    param = float(spec["n_th" if kind == "thermal" else "z"])
    mean = param if kind == "thermal" else param**2
    if trunc is not None:
        return factory(param, int(trunc)), int(trunc)
    trunc = math.ceil(mean + 6.0 * math.sqrt(mean) + 10.0)
    while True:
        try:
            return factory(param, trunc), trunc
        except TruncationError:
            if trunc > 2000:
                raise
            trunc = math.ceil(1.5 * trunc) + 10


def _resolve_out_dir(arg_out: str | None, cfg_out: str | None) -> str:
    """The output directory, created here: each command calls this right
    before its first write, so a rejected command leaves no directory."""
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
    rho, trunc = build_state(cfg.state)
    grid = uniform_grid(cfg.eta_max, cfg.grid_k)
    records = []
    for ai, amp in enumerate(cfg.amps):
        mod = ModulationSpec.uniform(amp, cfg.n_phases)
        records += simulate_dataset(rho, mod, grid, cfg.shots, _amp_seed(seed, ai))
    bundle = DatasetBundle(
        seed=seed,
        shots=cfg.shots,
        state=cfg.state,
        truncation=trunc,
        amps=cfg.amps,
        phases=tuple(uniform_phases(cfg.n_phases)),
        grid=grid,
        records=tuple(records),
    )
    path = os.path.join(_resolve_out_dir(args.out, cfg.out_dir), "dataset.json")
    write_dataset_file(path, bundle)
    print(f"state: {cfg.state}")
    print(f"grid: K={cfg.grid_k} eta_max={cfg.eta_max}")
    print(f"modulation: amps={list(cfg.amps)} n_phases={cfg.n_phases}")
    print(f"shots: {cfg.shots}  seed: {seed}")
    print(f"wrote {len(records)} records -> {path}")
    return 0


_CSV_HEADERS = {
    "pn": ["amp", "phase", "n", "p"],
    "wigner": ["amp", "phase", "re_alpha", "im_alpha", "wigner", "stderr", "flagged"],
    "dm": ["amp", "s", "n", "m", "real", "imag", "stderr", "condition", "residual", "reliable"],
}


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    if args.bootstrap is not None and args.bootstrap < 2:
        raise ConfigError(f"--bootstrap B needs B >= 2, got {args.bootstrap}")
    if args.exact and args.bootstrap:
        raise ConfigError("--bootstrap needs sampled data; it cannot run with --exact")
    if not args.exact and not args.data:
        raise ConfigError("reconstruct needs --data FILE (or --exact)")

    diagnostics: dict = {"em": [], "dm": {}, "failures": [],
                         "mode": "exact" if args.exact else "data"}
    rows: dict[str, list] = {target: [] for target in _CSV_HEADERS}
    if args.bootstrap:
        seed = args.seed if args.seed is not None else cfg.seed
        diagnostics["bootstrap"] = {"replicas": args.bootstrap, "seed": seed, "outcomes": []}

    def record_failure(amp, target, err):
        diagnostics["failures"].append({"amp": amp, "target": target, "error": str(err)})

    # amp -> (phases, records, EM truncation); exact mode has no records and
    # learns its truncation per distribution
    if args.exact:
        rho, _ = build_state(cfg.state)
        phases = list(uniform_phases(cfg.n_phases))
        groups = {amp: (phases, None, None) for amp in cfg.amps}
    else:
        groups = {amp: ([ds.phase for ds in datasets], datasets,
                        cfg.em.n_max or max(default_truncation(ds) for ds in datasets))
                  for amp, datasets in read_dataset_file(args.data).by_amp().items()}
    dm_rows = 0  # exact distributions grow at least to the rows a dm fit needs
    if "dm" in cfg.targets:
        # a dm input that no data can rescue fails before any EM runs
        for amp, (phases, _, n_bar) in groups.items():
            try:
                dm_rows = check_dm_input(amp, cfg.s_max, cfg.m_max, n_bar, phases)
            except ValueError as err:
                raise ConfigError(f"dm at amp {amp!r}: {err}") from err
    # a bootstrap has a read-out only under a wigner or dm target
    draw = args.bootstrap and not {"wigner", "dm"}.isdisjoint(cfg.targets)
    if not args.exact and not draw:
        # one EM call for every record, each at its amplitude's truncation
        records = [(ds, n_bar) for _, datasets, n_bar in groups.values() for ds in datasets]
        solved = iter(reconstruct_pn_batch([ds for ds, _ in records], cfg.em,
                                           n_max=[n_bar for _, n_bar in records]))

    for amp, (phases, datasets, n_bar) in groups.items():
        # the photon-number distributions at every phase of this amplitude
        # feed all three read-outs
        if args.exact:
            alphas = [amp * cmath.exp(1j * phase) for phase in phases]
            dists = [displaced_photon_distribution_auto(rho, alpha) for alpha in alphas]
            # one truncation per amplitude, as data mode's n_bar: two phases'
            # |alpha| may differ in the last bit, and so may their tails' truncations
            trunc = max([dm_rows] + [d.n_max for d in dists])
            dists = [d if d.n_max == trunc else displaced_photon_distribution(rho, a, trunc)
                     for a, d in zip(alphas, dists)]
        else:
            if draw:
                # one EM call per amplitude: its records, then its replicas
                replicas = resample(datasets, args.bootstrap, seed)
                records = datasets + [ds for rep in replicas for ds in rep]
                solved = iter(reconstruct_pn_batch(records, cfg.em, n_max=[n_bar] * len(records)))
            results = [next(solved) for _ in datasets]
            failed = [r for r in results if isinstance(r, ReconstructionError)]
            if failed:
                record_failure(amp, "em", failed[0])
                continue
            dists = [r.distribution for r in results]
            diagnostics["em"] += [
                {"amp": ds.amp, "phase": ds.phase, "n_max": n_bar, "iterations": r.iterations,
                 "converged": r.converged, "residual": r.residual, "final_ll": r.final_ll,
                 "ll_decreases": r.ll_decreases, **({} if r.lam is None else {"lam": r.lam})}
                for ds, r in zip(datasets, results)
            ]

        if "pn" in cfg.targets:
            rows["pn"] += [(amp, phase, n, float(p))
                           for phase, dist in zip(phases, dists) for n, p in enumerate(dist.probs)]

        # point estimates first: a failed one leaves its target out of the
        # bootstrap, so a rank-deficient dm kernel keeps the wigner rows
        readouts = {}
        if "wigner" in cfg.targets:
            wmap = wigner_map_from_data(
                (amp * cmath.exp(1j * phase), dist) for phase, dist in zip(phases, dists))
            readouts["wigner"] = wigner_readout
        if "dm" in cfg.targets:
            try:
                res = reconstruct_density_matrix(
                    dists, amp, s_max=cfg.s_max, m_max=cfg.m_max,
                    svd_cutoff=cfg.svd_cutoff, residual_bound=cfg.residual_bound)
            except ReconstructionError as err:
                record_failure(amp, "dm", err)
            else:
                diagnostics["dm"][repr(amp)] = [{"s": f.s, "condition": f.kernel.condition,
                                                 "residual": f.residual, "reliable": f.reliable}
                                                for f in res.fits]
                readouts["dm"] = dm_readout([f.kernel for f in res.fits])

        # one bootstrap for every standing target; the dm read-out applies the
        # point estimate's kernels, so all targets share its failed replicas
        stderr = {}
        if args.bootstrap and readouts:
            pipeline = EMPipeline(None, tuple(readouts.values()))  # solved above
            try:
                reports = summarize(pipeline.runs(replicas, list(solved)))
            except ReconstructionError as err:
                for target in readouts:
                    record_failure(amp, target, err)
            else:
                succeeded = reports[0].replicas
                diagnostics["bootstrap"]["outcomes"] += [
                    {"amp": amp, "target": target, "succeeded": succeeded,
                     "failed": args.bootstrap - succeeded} for target in readouts]
                stderr = {rep.tag: rep.stddev for rep in reports}

        if "wigner" in readouts:
            for phase, pt in zip(phases, wmap.points):
                row = [amp, phase, pt.alpha.real, pt.alpha.imag, pt.value,
                       stderr.get(wigner_tag(amp, phase)), pt.flagged]
                if args.conventional_wigner:
                    row.append(conventional_wigner_value(pt.value))
                rows["wigner"].append(row)
        if "dm" in readouts:
            rows["dm"] += [
                (amp, f.s, m + f.s, m, v.real, v.imag, stderr.get(dm_tag(m + f.s, m)),
                 f.kernel.condition, f.residual, f.reliable)
                for f in res.fits for m, v in enumerate(f.values)
            ]

    out_dir = _resolve_out_dir(args.out, cfg.out_dir)
    wrote = []
    for target, header in _CSV_HEADERS.items():
        if target in cfg.targets:
            if target == "wigner" and args.conventional_wigner:
                header = header + ["conventional"]
            wrote.append(os.path.join(out_dir, f"{target}.csv"))
            write_csv(wrote[-1], header, rows[target])
    diag_path = os.path.join(out_dir, "diagnostics.json")
    write_text_atomic(diag_path, dumps_canonical(diagnostics))
    wrote.append(diag_path)
    for path in wrote:
        print(f"wrote {path}")
    if diagnostics["failures"]:
        print(f"{len(diagnostics['failures'])} target(s) failed; see {diag_path}", file=sys.stderr)
        return 3
    return 0


def _read_table(path: str, columns: list[str]) -> list[list[str]] | None:
    """The named columns of a results CSV, row by row; None if the file is absent.

    A missing column or a row of the wrong width raises ConfigError (exit 2)
    naming the file.
    """
    if not os.path.exists(path):
        return None
    header, rows = read_csv(path)
    for col in columns:
        if col not in header:
            raise ConfigError(f"{path}: missing column {col!r}")
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"{path}: a row's width differs from the header's")
    idx = [header.index(col) for col in columns]
    return [[row[i] for i in idx] for row in rows]


def cmd_report(args) -> int:
    results = args.results
    wrote = []

    def emit(name, header, out_rows):
        out_dir = _resolve_out_dir(args.out, None) if args.out else results
        wrote.append(os.path.join(out_dir, name))
        write_csv(wrote[-1], header, out_rows)

    rows = _read_table(os.path.join(results, "wigner.csv"), ["amp", "phase", "wigner", "stderr"])
    if rows is not None:
        out_rows = sorted(
            ((float(amp), float(phase), float(w), float(se) if se else None)
             for amp, phase, w, se in rows),
            key=lambda r: r[:2],
        )
        emit("wigner_radial.csv", ["amp", "phase", "wigner", "stderr"], out_rows)
        print("wigner radial profile (amp, value):")
        for amp, phase, w, se in out_rows:
            err = f" +- {se:.3g}" if se is not None else ""
            print(f"  r={amp:<8g} phi={phase:<8.4g} W={w:+.6f}{err}")

    rows = _read_table(os.path.join(results, "pn.csv"), ["amp", "phase", "n", "p"])
    if rows is not None:
        out_rows = [(float(amp), float(phase), int(n), float(p)) for amp, phase, n, p in rows]
        emit("pn_table.csv", ["amp", "phase", "n", "p"], out_rows)
        if out_rows:
            first = [r for r in out_rows if r[:2] == out_rows[0][:2]]
            print(f"photon distribution at amp={first[0][0]:g}, phase={first[0][1]:g}:")
            for _, _, n, p in first[:12]:
                print(f"  p[{n:>2}] = {p:.6f} |{'#' * int(round(40 * p))}")

    theory = None
    if args.config:
        cfg = load_config(args.config)
        theory, _ = build_state(cfg.state)
    rows = _read_table(os.path.join(results, "dm.csv"), ["n", "m", "real", "imag"])
    if rows is not None:
        out_rows = []
        for n, m, re, im in rows:
            re, im = float(re), float(im)
            out_rows.append((int(n), int(m), re, im, math.hypot(re, im)))
        emit("dm_table.csv", ["n", "m", "real", "imag", "abs"], out_rows)
        print("density-matrix elements (n, m, |value|):")
        for n, m, re, im, mag in out_rows[:12]:
            print(f"  <{n}|rho|{m}> = {re:+.5f}{im:+.5f}j  |.|={mag:.5f}")
        if theory is not None:
            deltas = [(n, m, abs(complex(re, im) - theory.entries[n, m]))
                      for n, m, re, im, _ in out_rows if n < theory.dim and m < theory.dim]
            emit("delta.csv", ["n", "m", "delta"], deltas)
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


def _seed(text: str) -> int:
    """``--seed``: an integer under the config rule 0 <= seed < 2**64."""
    if not (text.isdecimal() and int(text) < 2**64):
        raise argparse.ArgumentTypeError(f"expected an integer 0 <= seed < 2**64, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onofftomo",
        description="Photon statistics, Wigner and density-matrix reconstruction "
        "from on/off click data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="show onofftomo log records at this level and above "
                        "on stderr (default: warning)")

    sim = sub.add_parser("simulate", parents=[common], help="generate a synthetic dataset file")
    sim.add_argument("--config", required=True, help="run configuration (JSON)")
    sim.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    sim.add_argument("--out", default=None, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", parents=[common], help="reconstruct targets from a dataset")
    rec.add_argument("--config", required=True)
    rec.add_argument("--data", default=None, help="dataset file from 'simulate'")
    rec.add_argument("--exact", action="store_true",
                     help="analytic pipeline from the config state (no dataset)")
    rec.add_argument("--bootstrap", type=int, default=None, metavar="B",
                     help="attach bootstrap error columns (B replicas)")
    rec.add_argument("--seed", type=_seed, default=None, help="bootstrap seed override")
    rec.add_argument("--out", default=None)
    rec.add_argument("--conventional-wigner", action="store_true",
                     help="add the (2/pi)-normalized Wigner column")
    rec.set_defaults(func=cmd_reconstruct)

    rep = sub.add_parser("report", parents=[common],
                         help="summarize result files into plot-ready tables")
    rep.add_argument("--results", required=True, help="directory with reconstruct outputs")
    rep.add_argument("--config", default=None,
                     help="config providing the theory state for delta maps")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_report)

    st = sub.add_parser("selftest", parents=[common], help="run the noiseless round-trip suite")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("onofftomo")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ReconstructionError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
