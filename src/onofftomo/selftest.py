"""Noiseless round-trip checks runnable from the CLI (`onofftomo selftest`).

Each check exercises one analytic identity end to end and prints a PASS/FAIL
line; the suite returns True only if every check passes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .detector import ModulationSpec, OnOffDataset, off_probabilities, simulate_dataset, uniform_grid
from .emrecon import EMConfig, em_step, reconstruct_pn
from .fock import (
    displaced_photon_distribution,
    displacement_matrix,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
)
from .inversion import build_kernel, reconstruct_density_matrix, wigner_map_exact


def _check_displacement_identity() -> float:
    d = displacement_matrix(0.0, 12)
    return float(np.abs(d - np.eye(12)).max())


def _check_kernel_identity() -> float:
    k = build_kernel(1, 1.0, 30, 8)
    return float(np.abs(k.inverse @ k.forward - np.eye(9)).max())


def _check_coherent_round_trip() -> float:
    z, amp, n_phi = 1.8, 0.1, 12
    rho = make_coherent(z, 40)
    dists = [
        displaced_photon_distribution(rho, amp * cmath.exp(2j * math.pi * l / n_phi), 30)
        for l in range(n_phi)
    ]
    res = reconstruct_density_matrix(dists, amp, s_max=1)
    worst = 0.0
    for m in range(8):
        diag = math.exp(-z * z) * z ** (2 * m) / math.factorial(m)
        worst = max(worst, abs(res.element(m, m) - diag))
        sub = math.exp(-z * z) * z ** (2 * m + 1) / math.sqrt(
            math.factorial(m) * math.factorial(m + 1)
        )
        worst = max(worst, abs(res.element(m + 1, m) - sub))
    return worst


def _check_wigner_profiles() -> float:
    radii = np.array([0.0, 0.7, 1.4, 2.1, 2.8])
    worst = 0.0
    vac = wigner_map_exact(make_fock(0, 0), radii)
    worst = max(worst, float(np.abs(vac.values() - np.exp(-2 * radii**2)).max()))
    n_th = 2.4
    th = wigner_map_exact(make_thermal(n_th, 80, tail_tol=1e-8), radii, tail_tol=1e-7)
    ref = np.exp(-2 * radii**2 / (1 + 2 * n_th)) / (1 + 2 * n_th)
    worst = max(worst, float(np.abs(th.values() - ref).max()))
    z = 2.1
    pac = wigner_map_exact(make_phase_averaged_coherent(z, 40, tail_tol=1e-8), radii, tail_tol=1e-7)
    ref = np.i0(4 * z * radii) * np.exp(-2 * (radii - z) ** 2 - 4 * z * radii)
    worst = max(worst, float(np.abs(pac.values() - ref).max()))
    return worst


def _check_em_fixed_point() -> float:
    grid = uniform_grid(0.67, 25)
    truth = make_thermal(1.0, 12, tail_tol=1e-3).diagonal_distribution().normalized()
    shots = 2**53
    counts = np.rint(off_probabilities(truth, grid) * shots).astype(np.int64)
    data = OnOffDataset(grid=grid, shots=shots, off_counts=counts, amp=0.0, phase=0.0)
    stepped = em_step(truth, data)
    return float(np.abs(stepped.probs - truth.probs).max())


def _check_simulation_determinism() -> float:
    grid = uniform_grid(0.29, 10)
    rho = make_thermal(0.8, 30)
    mod = ModulationSpec.uniform(0.4, 3)
    a = simulate_dataset(rho, mod, grid, 5000, seed=123)
    b = simulate_dataset(rho, mod, grid, 5000, seed=123)
    return 0.0 if all(np.array_equal(x.off_counts, y.off_counts) for x, y in zip(a, b)) else 1.0


def _check_vacuum_em() -> float:
    grid = uniform_grid(0.67, 25)
    counts = np.full(25, 4000, dtype=np.int64)
    data = OnOffDataset(grid=grid, shots=4000, off_counts=counts, amp=0.0, phase=0.0)
    res = reconstruct_pn(data, EMConfig(n_max=10, tol=1e-12, max_iter=5000))
    return float(abs(res.distribution.probs[0] - 1.0))


_CHECKS = [
    ("displacement operator at alpha=0 is the identity", _check_displacement_identity, 1e-12),
    ("kernel pseudo-inverse times forward kernel is the identity", _check_kernel_identity, 1e-8),
    ("noiseless coherent round trip (diag + subdiag, m <= 7)", _check_coherent_round_trip, 1e-6),
    ("exact-mode Wigner profiles match closed forms", _check_wigner_profiles, 1e-6),
    ("exact model data is an EM fixed point", _check_em_fixed_point, 1e-14),
    ("simulation is deterministic under a fixed seed", _check_simulation_determinism, 0.5),
    ("vacuum data reconstructs to the vacuum", _check_vacuum_em, 1e-4),
]


def run_selftest() -> bool:
    ok = True
    for name, fn, bound in _CHECKS:
        try:
            err = fn()
            passed = err <= bound
        except Exception as exc:  # noqa: BLE001 - selftest reports, never raises
            err, passed = float("nan"), False
            print(f"FAIL {name}: raised {exc!r}")
            ok = False
            continue
        print(f"{'PASS' if passed else 'FAIL'} {name} (err={err:.2e}, bound={bound:g})")
        ok = ok and passed
    return ok
