"""Bundled relaxation tables and the CSV schema around them."""

import pytest

from nvbath import datasets as ds


class TestBundled:
    def test_nv_t2_points(self):
        d = ds.bundled("NV", "T2")
        assert d.temperatures() == [300.0, 20.0, 1.7]
        assert d.values() == [6.7e-6, 8.3e-6, 250e-6]
        assert d.errors() == [0.2e-6, 0.7e-6, 25e-6]

    def test_nv_t1_points(self):
        d = ds.bundled("NV", "T1")
        assert d.temperatures() == [300.0, 40.0]
        assert d.values() == [7.7e-3, 3.8]
        assert d.errors() == [0.4e-3, 0.5]

    def test_n_t2_points(self):
        d = ds.bundled("N", "T2")
        assert d.temperatures() == [300.0, 20.0, 2.5]
        assert d.values() == [5.455e-6, 5.83e-6, 80e-6]
        assert d.errors() == [0.005e-6, 0.04e-6, 9e-6]

    def test_n_t1_points(self):
        d = ds.bundled("N", "T1")
        assert d.temperatures() == [300.0, 40.0]
        assert d.values() == [1.4e-3, 8.3]
        assert d.errors() == [0.01e-3, 4.7]

    def test_sources_annotated(self):
        for center in ds.CENTERS:
            for quantity in ds.QUANTITIES:
                for row in ds.bundled(center, quantity).rows:
                    assert row.source

    def test_saturation_point_flagged(self):
        cold = ds.bundled("NV", "T2").rows[-1]
        assert cold.temperature_k == 1.7
        assert "estimate" in cold.source

    def test_unknown_pair(self):
        with pytest.raises(KeyError):
            ds.bundled("NV", "T3")
        with pytest.raises(ValueError):
            ds.RelaxationDataset("P1", "T2", ds.bundled("NV", "T2").rows)


class TestRowValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="temperature"):
            ds.RelaxationRow(0.0, 1e-6)
        with pytest.raises(ValueError, match="relaxation time"):
            ds.RelaxationRow(300.0, -1e-6)
        with pytest.raises(ValueError, match="error"):
            ds.RelaxationRow(300.0, 1e-6, -1e-7)

    def test_error_defaults_to_zero(self):
        assert ds.RelaxationRow(300.0, 1e-6).error_s == 0.0


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        original = ds.bundled("N", "T2")
        path = tmp_path / "n_t2.csv"
        ds.save_csv(original, path)
        back = ds.load_csv(path, center="N", quantity="T2")
        assert back.temperatures() == original.temperatures()
        assert back.values() == original.values()
        assert back.errors() == original.errors()
        assert back.comments == original.comments

    def test_error_column_optional(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("temperature_K,value_s\n300,6.7e-6\n20,8.3e-6\n")
        d = ds.load_csv(path)
        assert d.errors() == [0.0, 0.0]
        assert d.values() == [6.7e-6, 8.3e-6]

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("temp,value\n300,1\n")
        with pytest.raises(ds.DatasetFormatError, match="line 1"):
            ds.load_csv(path)

    def test_rejects_nonpositive_rows_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("temperature_K,value_s,error_s\n300,6.7e-6,0\n-5,1e-6,0\n")
        with pytest.raises(ds.DatasetFormatError, match="line 3"):
            ds.load_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("temperature_K,value_s,error_s\nwarm,6.7e-6,0\n")
        with pytest.raises(ds.DatasetFormatError, match="line 2"):
            ds.load_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ds.DatasetFormatError, match="header"):
            ds.load_csv(path)
        path.write_text("temperature_K,value_s,error_s\n")
        with pytest.raises(ds.DatasetFormatError, match="no data"):
            ds.load_csv(path)


class TestRateConversion:
    def test_per_second(self):
        d = ds.bundled("NV", "T1")
        temps, rates, errors = ds.as_rate_data(d)
        assert temps == [300.0, 40.0]
        assert rates == pytest.approx([1.0 / 7.7e-3, 1.0 / 3.8], rel=1e-15)
        assert errors == pytest.approx(
            [0.4e-3 / 7.7e-3**2, 0.5 / 3.8**2], rel=1e-15
        )

    def test_per_microsecond(self):
        d = ds.bundled("NV", "T2")
        _, rates, errors = ds.as_rate_data(d, time_unit_s=1e-6)
        assert rates[0] == pytest.approx(1e-6 / 6.7e-6, rel=1e-15)
        assert errors[0] == pytest.approx(1e-6 * 0.2e-6 / 6.7e-6**2, rel=1e-15)
