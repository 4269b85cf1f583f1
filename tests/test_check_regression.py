"""Benchmark regression guard: ratio comparison and exit codes."""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                 "check_regression.py"))
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _sweep_payload(cold, warm=2.6):
    rows = [[name, 540000, 0.9, 1.9, cold, warm]
            for name in ("crc32", "fft")]
    return {"name": "uarch_sweep", "data": {"rows": rows}}


def _write(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


@pytest.fixture
def committed(tmp_path):
    return _write(tmp_path / "committed.json", _sweep_payload(2.0))


class TestCompare:
    def test_identical_results_geomean_one(self):
        data = _sweep_payload(2.0)["data"]
        geomean, detail = check_regression.compare(
            "uarch_sweep", data, data, 0.2)
        assert geomean == pytest.approx(1.0)
        assert len(detail) == 4  # 2 kernels x 2 ratio columns

    def test_only_common_keys_compared(self):
        fresh = _sweep_payload(2.0)["data"]
        committed = _sweep_payload(2.0)["data"]
        committed["rows"].append(["extra", 1, 1, 1, 9.0, 9.0])
        geomean, detail = check_regression.compare(
            "uarch_sweep", fresh, committed, 0.2)
        assert geomean == pytest.approx(1.0)
        assert all(kernel in ("crc32", "fft")
                   for _, kernel, _ in (key for key, *_ in detail))

    def test_no_overlap_returns_none(self):
        geomean, detail = check_regression.compare(
            "uarch_sweep", {"rows": []}, _sweep_payload(2.0)["data"], 0.2)
        assert geomean is None and detail == []


class TestMain:
    def test_ok_within_threshold(self, tmp_path, committed, capsys):
        fresh = _write(tmp_path / "fresh.json", _sweep_payload(1.9))
        code = check_regression.main(["--bench", "uarch_sweep",
                                      "--fresh", fresh,
                                      "--committed", committed])
        assert code == check_regression.EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_regression_distinct_exit_code(self, tmp_path, committed,
                                           capsys):
        fresh = _write(tmp_path / "fresh.json",
                       _sweep_payload(1.0, warm=1.3))
        code = check_regression.main(["--bench", "uarch_sweep",
                                      "--fresh", fresh,
                                      "--committed", committed])
        assert code == check_regression.EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().err

    def test_corrupt_fresh_is_usage_error(self, tmp_path, committed):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = check_regression.main(["--bench", "uarch_sweep",
                                      "--fresh", str(bad),
                                      "--committed", committed])
        assert code == check_regression.EXIT_USAGE

    def test_missing_committed_baseline_passes(self, tmp_path, capsys):
        fresh = _write(tmp_path / "fresh.json", _sweep_payload(1.0))
        code = check_regression.main(
            ["--bench", "uarch_sweep", "--fresh", fresh,
             "--committed", str(tmp_path / "absent.json")])
        assert code == check_regression.EXIT_OK
        assert "nothing to compare" in capsys.readouterr().err

    def test_threshold_is_respected(self, tmp_path, committed):
        fresh = _write(tmp_path / "fresh.json", _sweep_payload(1.5))
        args = ["--bench", "uarch_sweep", "--fresh", fresh,
                "--committed", committed]
        assert check_regression.main(args + ["--threshold", "0.05"]) \
            == check_regression.EXIT_REGRESSION
        assert check_regression.main(args + ["--threshold", "0.5"]) \
            == check_regression.EXIT_OK

    def test_trace_acquisition_spec_reads_acquisition_table(self, tmp_path):
        # Only the native-vs-interp ratio is guarded; a stale table from
        # an older result file (the retired streamed-digest rows) is not.
        def payload(slow_table=None):
            data = {"acquisition_rows": [["crc32", 1, 2.0, 50.0, 100.0,
                                          50.0]],
                    "digest_rows": [["crc32", 1, 10.0, 5.0, 2.0]]}
            if slow_table is not None:
                data[slow_table][0][-1] /= 4  # its ratio column
            return {"name": "trace_acquisition", "data": data}

        args = ["--bench", "trace_acquisition", "--committed",
                _write(tmp_path / "committed.json", payload())]
        for slow_table, expected in (
                (None, check_regression.EXIT_OK),
                ("acquisition_rows", check_regression.EXIT_REGRESSION),
                ("digest_rows", check_regression.EXIT_OK)):
            fresh = _write(tmp_path / "fresh.json", payload(slow_table))
            assert check_regression.main(args + ["--fresh", fresh]) \
                == expected, slow_table
