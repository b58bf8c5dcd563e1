"""Dataset file schema: round trips, determinism, validation."""

import json
import math

import numpy as np
import pytest

from onofftomo import OnOffDataset, uniform_grid
from onofftomo.datafile import (
    DatasetBundle,
    dumps_canonical,
    read_dataset_file,
    write_dataset_file,
)


def make_bundle(n_amps=1, n_phases=3, k=5):
    grid = uniform_grid(0.67, k)
    rng = np.random.default_rng(0)
    amps = tuple(0.1 * i for i in range(1, n_amps + 1))
    phases = tuple(2 * math.pi * l / n_phases for l in range(n_phases))
    records = tuple(
        OnOffDataset(grid=grid, shots=1000, off_counts=rng.integers(0, 1000, size=k),
                     amp=amp, phase=phase)
        for amp in amps
        for phase in phases
    )
    return DatasetBundle(
        seed=7,
        shots=1000,
        state={"kind": "thermal", "n_th": 1.4},
        truncation=40,
        amps=amps,
        phases=phases,
        grid=grid,
        records=records,
    )


class TestSchema:
    def test_single_amp_document_shape(self):
        doc = make_bundle().to_document()
        assert isinstance(doc["modulation"]["amp"], float)
        assert all(isinstance(e, str) for e in doc["grid"]["etas"])
        assert all("amp_index" not in rec for rec in doc["records"])
        assert doc["records"][0]["phase_index"] == 1

    def test_multi_amp_document_shape(self):
        doc = make_bundle(n_amps=2).to_document()
        assert isinstance(doc["modulation"]["amp"], list)
        assert all("amp_index" in rec for rec in doc["records"])

    def test_round_trip_in_memory(self):
        for n_amps in (1, 3):
            bundle = make_bundle(n_amps=n_amps)
            back = DatasetBundle.from_document(
                json.loads(dumps_canonical(bundle.to_document()))
            )
            assert back.seed == bundle.seed
            assert back.shots == bundle.shots
            assert back.state == bundle.state
            assert back.amps == bundle.amps
            assert np.array_equal(back.grid.etas, bundle.grid.etas)
            assert len(back.records) == len(bundle.records)
            for got, want in zip(back.records, bundle.records):
                assert np.array_equal(got.off_counts, want.off_counts)

    def test_file_round_trip_bit_exact(self, tmp_path):
        bundle = make_bundle(n_amps=2)
        path = tmp_path / "dataset.json"
        write_dataset_file(str(path), bundle)
        text = path.read_text()
        back = read_dataset_file(str(path))
        write_dataset_file(str(path), back)
        assert path.read_text() == text

    def test_datasets_carry_modulation(self):
        bundle = make_bundle(n_amps=2, n_phases=2)
        records = bundle.records
        assert len(records) == 4
        assert records[0].amp == 0.1 and records[-1].amp == 0.2
        grouped = bundle.by_amp()
        assert set(grouped) == {0.1, 0.2}
        assert len(grouped[0.1]) == 2

    def test_missing_field_rejected(self):
        doc = make_bundle().to_document()
        del doc["grid"]
        with pytest.raises(ValueError):
            DatasetBundle.from_document(doc)

    def test_duplicate_record_rejected(self):
        doc = make_bundle().to_document()
        doc["records"].append(dict(doc["records"][0]))
        with pytest.raises(ValueError):
            DatasetBundle.from_document(doc)

    def test_duplicate_amplitude_rejected(self):
        # records are grouped per amplitude, so a repeated one would merge
        doc = make_bundle(n_amps=2).to_document()
        doc["modulation"]["amp"][1] = doc["modulation"]["amp"][0]
        with pytest.raises(ValueError):
            DatasetBundle.from_document(doc)

    def test_out_of_range_index_rejected(self):
        doc = make_bundle().to_document()
        doc["records"][0]["phase_index"] = 99
        with pytest.raises(ValueError):
            DatasetBundle.from_document(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(records=[5]),
        lambda doc: doc.update(meta=None),
        lambda doc: doc["modulation"].update(phases=None),
        # a fractional integer field must not be truncated to a valid one
        lambda doc: doc["meta"].update(shots=1000.5),
        lambda doc: doc["meta"].update(seed=7.5),
        lambda doc: doc["meta"].update(truncation=40.5),
        lambda doc: doc["records"][2].update(phase_index=3.5),
        # records are found by their phase, so a repeated one would merge
        lambda doc: doc["modulation"]["phases"].__setitem__(1, doc["modulation"]["phases"][0]),
    ], ids=["records_int", "meta_null", "phases_null", "shots_fraction", "seed_fraction",
            "truncation_fraction", "phase_index_fraction", "repeated_phase"])
    def test_malformed_document_rejected(self, edit):
        doc = make_bundle().to_document()
        edit(doc)
        with pytest.raises(ValueError):
            DatasetBundle.from_document(doc)

    def test_non_integer_counts_rejected(self):
        # a fractional count must not be truncated to an integer
        doc = make_bundle().to_document()
        doc["records"][0]["off_counts"][0] = 1.5
        with pytest.raises(ValueError, match="integers"):
            DatasetBundle.from_document(doc)
