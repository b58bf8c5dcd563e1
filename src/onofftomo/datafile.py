"""Dataset and result file formats.

A simulation run is stored as one JSON document:

    {"meta": {"seed": ..., "shots": ..., "state": {...}, "truncation": ...},
     "modulation": {"amp": <number or list>, "phases": [...]},
     "grid": {"etas": ["0.0268", ...]},
     "records": [{"phase_index": 1, "off_counts": [...]}, ...]}

Counts are integers and efficiencies decimal strings, so a file re-parses to
bit-identical values; every other number must be a JSON number, never a
string or a boolean.  ``amp`` is a single number for one modulation
amplitude (the format above, records keyed by 1-based ``phase_index``); runs
covering several amplitudes store a list and each record carries an
additional 1-based ``amp_index``.

Writes are atomic (temp file + rename) and deterministic: the same in-memory
value always serializes to the same bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .detector import EfficiencyGrid, OnOffDataset


def as_int(value, where: str) -> int:
    """``int(value)`` of a JSON integer; a string, a boolean or a number the
    cast would truncate raises ValueError naming ``where``."""
    if isinstance(value, (str, bool)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def as_float(value, where: str) -> float:
    """``float(value)`` of a JSON number; a string or a boolean raises
    ValueError naming ``where``."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def write_text_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class DatasetBundle:
    """Everything one dataset file holds, in memory; ``records`` run
    amp-major, then in phase order, each at a value of ``amps`` and ``phases``."""

    seed: int
    shots: int
    state: dict
    truncation: int | None
    amps: tuple[float, ...]
    phases: tuple[float, ...]
    grid: EfficiencyGrid
    records: tuple[OnOffDataset, ...]

    def by_amp(self) -> dict[float, list[OnOffDataset]]:
        """Group records per amplitude, phases in grid order."""
        grouped: dict[float, list[OnOffDataset]] = {}
        for ds in self.records:
            grouped.setdefault(ds.amp, []).append(ds)
        return grouped

    def to_document(self) -> dict:
        single = len(self.amps) == 1
        records = []
        for ds in self.records:
            rec = {"phase_index": self.phases.index(ds.phase) + 1,
                   "off_counts": [int(c) for c in ds.off_counts]}
            if not single:
                rec = {"amp_index": self.amps.index(ds.amp) + 1, **rec}
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
            shots = as_int(meta["shots"], "meta.shots")
            mod = doc["modulation"]
            amp = mod["amp"]
            amps = tuple(as_float(a, "modulation.amp") for a in (amp if isinstance(amp, list)
                                                                  else [amp]))
            phases = tuple(as_float(p, "modulation.phases") for p in mod["phases"])
            # a record is found by its values, so they must be distinct
            if len(set(amps)) != len(amps) or len(set(phases)) != len(phases):
                raise ValueError("modulation amplitudes and phases must be distinct")
            grid = EfficiencyGrid(np.array([float(e) for e in doc["grid"]["etas"]]))
            records = {}  # (amp_index, phase_index), 0-based -> OnOffDataset
            for rec in doc["records"]:
                ai = as_int(rec.get("amp_index", 1), "amp_index") - 1
                pi = as_int(rec["phase_index"], "phase_index") - 1
                if not (0 <= ai < len(amps) and 0 <= pi < len(phases)):
                    raise ValueError(f"record index out of range: {rec}")
                if (ai, pi) in records:
                    raise ValueError(f"duplicate record for amp {ai + 1}, phase {pi + 1}")
                # OnOffDataset's check rejects non-integer counts
                records[ai, pi] = OnOffDataset(grid, shots, rec["off_counts"], amps[ai], phases[pi])
            return cls(
                seed=as_int(meta["seed"], "meta.seed"),
                shots=shots,
                state=dict(meta["state"]),
                truncation=None if meta.get("truncation") is None
                else as_int(meta["truncation"], "meta.truncation"),
                amps=amps,
                phases=phases,
                grid=grid,
                records=tuple(records[key] for key in sorted(records)),
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
