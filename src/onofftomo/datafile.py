"""Dataset and result file formats.

A simulation run is stored as one JSON document:

    {"meta": {"seed": ..., "shots": ..., "state": {...}, "truncation": ...},
     "modulation": {"amp": <number or list>, "phases": [...]},
     "grid": {"etas": ["0.0268", ...]},
     "records": [{"phase_index": 1, "off_counts": [...]}, ...]}

Counts are integers and efficiencies decimal strings, so a file re-parses to
bit-identical values.  ``amp`` is a single number for one modulation
amplitude (the format above, records keyed by 1-based ``phase_index``); runs
covering several amplitudes store a list and each record carries an
additional 1-based ``amp_index``.

Writes are atomic (temp file + rename) and deterministic: the same in-memory
value always serializes to the same bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .detector import EfficiencyGrid, OnOffDataset

_TWO_PI = 2.0 * math.pi


def as_int(value, where: str) -> int:
    """``int(value)``; a number the cast would truncate raises ValueError naming ``where``."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def write_text_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class DatasetBundle:
    """Everything one dataset file holds, in memory."""

    seed: int
    shots: int
    state: dict
    truncation: int | None
    amps: tuple[float, ...]
    phases: tuple[float, ...]
    grid: EfficiencyGrid
    counts: dict  # (amp_index, phase_index) -> np.ndarray, 0-based keys

    def datasets(self) -> list[OnOffDataset]:
        """Flatten to OnOffDataset records, amp-major then phase order."""
        out = []
        for (ai, pi) in sorted(self.counts):
            out.append(
                OnOffDataset(
                    grid=self.grid,
                    shots=self.shots,
                    off_counts=self.counts[(ai, pi)],
                    amp=self.amps[ai],
                    phase=self.phases[pi],
                )
            )
        return out

    def by_amp(self) -> dict[float, list[OnOffDataset]]:
        """Group records per amplitude, phases in grid order."""
        grouped: dict[float, list[OnOffDataset]] = {}
        for ds in self.datasets():
            grouped.setdefault(ds.amp, []).append(ds)
        return grouped

    def to_document(self) -> dict:
        single = len(self.amps) == 1
        records = []
        for (ai, pi) in sorted(self.counts):
            rec = {"phase_index": pi + 1, "off_counts": [int(c) for c in self.counts[(ai, pi)]]}
            if not single:
                rec = {"amp_index": ai + 1, **rec}
            records.append(rec)
        return {
            "meta": {
                "seed": self.seed,
                "shots": self.shots,
                "state": self.state,
                "truncation": self.truncation,
            },
            "modulation": {
                "amp": self.amps[0] if single else list(self.amps),
                "phases": list(self.phases),
            },
            "grid": {"etas": [repr(float(e)) for e in self.grid.etas]},
            "records": records,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "DatasetBundle":
        try:
            meta = doc["meta"]
            mod = doc["modulation"]
            amp = mod["amp"]
            amps = tuple(float(a) for a in amp) if isinstance(amp, list) else (float(amp),)
            if len(set(amps)) != len(amps):
                raise ValueError("modulation amplitudes must be distinct")
            phases = tuple(float(p) for p in mod["phases"])
            grid = EfficiencyGrid(np.array([float(e) for e in doc["grid"]["etas"]]))
            counts = {}
            for rec in doc["records"]:
                ai = as_int(rec.get("amp_index", 1), "amp_index") - 1
                pi = as_int(rec["phase_index"], "phase_index") - 1
                if not (0 <= ai < len(amps) and 0 <= pi < len(phases)):
                    raise ValueError(f"record index out of range: {rec}")
                key = (ai, pi)
                if key in counts:
                    raise ValueError(f"duplicate record for amp {ai + 1}, phase {pi + 1}")
                # cast by OnOffDataset, whose check rejects non-integer counts
                counts[key] = np.array(rec["off_counts"])
            return cls(
                seed=as_int(meta["seed"], "meta.seed"),
                shots=as_int(meta["shots"], "meta.shots"),
                state=dict(meta["state"]),
                truncation=None if meta.get("truncation") is None
                else as_int(meta["truncation"], "meta.truncation"),
                amps=amps,
                phases=phases,
                grid=grid,
                counts=counts,
            )
        except KeyError as err:
            raise ValueError(f"dataset document missing field {err}") from err
        except (AttributeError, TypeError) as err:
            raise ValueError(f"malformed dataset document: {err}") from err


def dumps_canonical(doc) -> str:
    """Stable JSON encoding: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_dataset_file(path: str, bundle: DatasetBundle) -> None:
    write_text_atomic(path, dumps_canonical(bundle.to_document()))


def read_dataset_file(path: str) -> DatasetBundle:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return DatasetBundle.from_document(doc)


def uniform_phases_or_error(phases) -> int:
    """Check phi_l = 2*pi*(l-1)/N and return N (the inversion requires it)."""
    phases = np.asarray(phases, dtype=float)
    n = phases.size
    expected = _TWO_PI * np.arange(n) / n
    if not np.allclose(phases, expected, atol=1e-12):
        raise ValueError(
            "density-matrix inversion needs the uniform phase grid "
            "phi_l = 2*pi*(l-1)/N_phi"
        )
    return n


def write_csv(path: str, header: list[str], rows) -> None:
    """Minimal deterministic CSV writer (floats via repr)."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
