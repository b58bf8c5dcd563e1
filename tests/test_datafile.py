"""Dataset file schema: round trips, determinism, validation."""

import json
import math

import numpy as np
import pytest

from onofftomo import uniform_grid
from onofftomo.datafile import (
    DatasetBundle,
    dumps_canonical,
    read_dataset_file,
    uniform_phases_or_error,
    write_dataset_file,
)


def make_bundle(n_amps=1, n_phases=3, k=5):
    grid = uniform_grid(0.67, k)
    rng = np.random.default_rng(0)
    amps = tuple(0.1 * i for i in range(1, n_amps + 1))
    phases = tuple(2 * math.pi * l / n_phases for l in range(n_phases))
    counts = {
        (ai, pi): rng.integers(0, 1000, size=k).astype(np.int64)
        for ai in range(n_amps)
        for pi in range(n_phases)
    }
    return DatasetBundle(
        seed=7,
        shots=1000,
        state={"kind": "thermal", "n_th": 1.4},
        truncation=40,
        amps=amps,
        phases=phases,
        grid=grid,
        counts=counts,
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
            for key in bundle.counts:
                assert np.array_equal(back.counts[key], bundle.counts[key])

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
        records = bundle.datasets()
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
    ], ids=["records_int", "meta_null", "phases_null", "shots_fraction", "seed_fraction",
            "truncation_fraction", "phase_index_fraction"])
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
            DatasetBundle.from_document(doc).datasets()


class TestUniformPhases:
    def test_accepts_uniform(self):
        phases = [2 * math.pi * l / 12 for l in range(12)]
        assert uniform_phases_or_error(phases) == 12

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError):
            uniform_phases_or_error([0.0, 1.0, 2.0])
