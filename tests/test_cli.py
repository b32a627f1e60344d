import os

import numpy as np
import pytest

from aebound import cli, dataset, harness, metrics

pytestmark = pytest.mark.filterwarnings("ignore:code dimension")


TINY_CONFIG = """
# tiny synthetic benchmark for tests
dataset = synth
sensors = 2
steps = 240
noise_sd = 0.02
mode = temporal
window = 12
k = 2
bounds = 0.2, 1.0
variants = wae
baselines = ltc, lzw
folds = 2
repetitions = 1
max_iters = 40
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def write_csv(tmp_path, steps=60, sensors=2, seed=0):
    m = dataset.synth_dataset(sensors, steps, seed=seed)
    path = tmp_path / "readings.csv"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(m.sensor_ids) + "\n")
        for j, t in enumerate(m.timestamps):
            fh.write(f"{t}," + ",".join(repr(float(v)) for v in m.values[:, j]) + "\n")
    return str(path)


class TestTrain:
    def test_smoke_and_determinism(self, tiny_config, tmp_path):
        out1 = str(tmp_path / "m1.aeb")
        out2 = str(tmp_path / "m2.aeb")
        assert cli.main(["train", "--config", tiny_config, "--seed", "3", "--out", out1]) == 0
        assert cli.main(["train", "--config", tiny_config, "--seed", "3", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_missing_dataset_path_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset = csv\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.aeb")]) == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"])  # --out missing
        assert exc.value.code == 2


class TestCompressDecompress:
    def test_roundtrip_with_verify(self, tiny_config, tmp_path):
        model_path = str(tmp_path / "m.aeb")
        assert cli.main(["train", "--config", tiny_config, "--seed", "1", "--out", model_path]) == 0
        csv_path = write_csv(tmp_path)
        packets = str(tmp_path / "p.bin")
        assert cli.main([
            "compress", "--model", model_path, "--input", csv_path,
            "--bound", "0.5", "--out", packets, "--verify",
        ]) == 0
        out_csv = str(tmp_path / "rec.csv")
        assert cli.main(["decompress", "--model", model_path, "--packets", packets, "--out", out_csv]) == 0
        assert os.path.getsize(out_csv) > 0

    def test_larger_bound_smaller_stream(self, tiny_config, tmp_path):
        model_path = str(tmp_path / "m.aeb")
        cli.main(["train", "--config", tiny_config, "--seed", "1", "--out", model_path])
        csv_path = write_csv(tmp_path, steps=120)
        small = str(tmp_path / "small.bin")
        large = str(tmp_path / "large.bin")
        assert cli.main(["compress", "--model", model_path, "--input", csv_path,
                         "--bound", "0.05", "--out", small]) == 0
        assert cli.main(["compress", "--model", model_path, "--input", csv_path,
                         "--bound", "2.0", "--out", large]) == 0
        assert os.path.getsize(large) <= os.path.getsize(small)

    def test_nan_bound_fails(self, tiny_config, tmp_path):
        model_path = str(tmp_path / "m.aeb")
        cli.main(["train", "--config", tiny_config, "--seed", "1", "--out", model_path])
        packets = tmp_path / "p.bin"
        assert cli.main(["compress", "--model", model_path, "--input", write_csv(tmp_path),
                         "--bound", "nan", "--out", str(packets), "--verify"]) != 0
        assert not packets.exists()

    def test_lossy_bound_on_lossless_model_roundtrips(self, tiny_config, tmp_path):
        model_path = str(tmp_path / "m.aeb")
        assert cli.main(["train", "--config", tiny_config, "--seed", "1", "--set", "bounds", "0",
                         "--out", model_path]) == 0
        csv_path = write_csv(tmp_path)
        packets, out_csv = str(tmp_path / "p.bin"), str(tmp_path / "rec.csv")
        assert cli.main(["compress", "--model", model_path, "--input", csv_path,
                         "--bound", "0.3", "--out", packets, "--verify"]) == 0
        assert cli.main(["decompress", "--model", model_path, "--packets", packets, "--out", out_csv]) == 0
        windows = dataset.make_windows(dataset.load_csv(csv_path, dataset.CsvSchema("t")), "temporal", 12)
        recon = np.loadtxt(out_csv, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        assert recon.shape == windows.shape
        assert np.max(np.abs(recon - windows)) <= 0.3

    def test_lossless_bound_on_lossy_model_is_usage_error(self, tiny_config, tmp_path, capsys):
        model_path = str(tmp_path / "m.aeb")
        cli.main(["train", "--config", tiny_config, "--seed", "1", "--out", model_path])
        packets = tmp_path / "p.bin"
        assert cli.main(["compress", "--model", model_path, "--input", write_csv(tmp_path),
                         "--bound", "0", "--out", str(packets)]) == 2
        assert not packets.exists()
        assert "lossless" in capsys.readouterr().err

    def test_truncated_packet_file(self, tiny_config, tmp_path, capsys):
        model_path = str(tmp_path / "m.aeb")
        cli.main(["train", "--config", tiny_config, "--seed", "1", "--out", model_path])
        csv_path = write_csv(tmp_path)
        packets = tmp_path / "p.bin"
        cli.main(["compress", "--model", model_path, "--input", csv_path,
                  "--bound", "0.5", "--out", str(packets)])
        packets.write_bytes(packets.read_bytes()[:-2])
        out_csv = str(tmp_path / "rec.csv")
        assert cli.main(["decompress", "--model", model_path, "--packets", str(packets),
                         "--out", out_csv]) == 1
        assert "packet" in capsys.readouterr().err


class TestBench:
    def test_smoke_rows_and_consistency(self, tiny_config, tmp_path):
        outdir = str(tmp_path / "report")
        assert cli.main(["bench", "--config", tiny_config, "--seed", "5", "--out", outdir]) == 0
        lines = open(os.path.join(outdir, "report.csv")).read().strip().splitlines()
        assert lines[0] == harness.CSV_HEADER
        rows = lines[1:]
        # 3 methods (WAE, LTC, LZW) x 2 bounds
        assert len(rows) == 6
        for line in rows:
            parts = line.split(",")
            cr, bc, br, braw = float(parts[2]), int(parts[5]), int(parts[6]), int(parts[7])
            assert cr == metrics.compression_ratio(bc, br, braw)
            assert parts[9] == "ok"
        for plot in ("cr_vs_eps_rel.svg", "cr_vs_eps_abs.svg", "bound_vs_cr.svg"):
            assert os.path.getsize(os.path.join(outdir, plot)) > 0
        assert os.path.getsize(os.path.join(outdir, "manifest.json")) > 0

    def test_deterministic_reports(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli.main(["bench", "--config", tiny_config, "--seed", "7", "--out", out1]) == 0
        assert cli.main(["bench", "--config", tiny_config, "--seed", "7", "--out", out2]) == 0
        csv1 = open(os.path.join(out1, "report.csv"), "rb").read()
        csv2 = open(os.path.join(out2, "report.csv"), "rb").read()
        # wall_time is the one legitimately varying column; strip it
        def strip_time(data):
            lines = data.decode().splitlines()
            return [",".join(l.split(",")[:8] + l.split(",")[9:]) for l in lines]

        assert strip_time(csv1) == strip_time(csv2)

    def test_seed_required(self, tiny_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--config", tiny_config, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2

    def test_report_regeneration(self, tiny_config, tmp_path):
        outdir = str(tmp_path / "report")
        cli.main(["bench", "--config", tiny_config, "--seed", "5", "--out", outdir])
        os.remove(os.path.join(outdir, "bound_vs_cr.svg"))
        assert cli.main(["report", "--report-dir", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "bound_vs_cr.svg"))

    def test_thread_pool_matches_sequential(self, tiny_config, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        cli.main(["bench", "--config", tiny_config, "--seed", "9", "--out", out1])
        monkeypatch.setenv("AEB_THREADS", "4")
        cli.main(["bench", "--config", tiny_config, "--seed", "9", "--out", out2])

        def rows_no_time(path):
            lines = open(os.path.join(path, "report.csv")).read().splitlines()
            return [",".join(l.split(",")[:8] + l.split(",")[9:]) for l in lines]

        assert rows_no_time(out1) == rows_no_time(out2)


class TestHarnessFailureHandling:
    def test_failed_cells_recorded_not_raised(self, tmp_path):
        # PCA with k larger than the data rank fails; the harness must continue
        # 6 training vectors per fold < k=10, so pca_fit must fail per cell
        cfg = harness.BenchmarkConfig(
            sensors=2, steps=60, mode="temporal", window=10, k_list=(10,),
            bounds=(0.5,), variants=(), baseline_methods=("pca", "ltc"),
            folds=2, repetitions=1, seed=0, noise_sd=0.0,
        )
        rows = harness.run_benchmark(cfg)
        by_method = {r.method.split("(")[0]: r for r in rows}
        assert by_method["LTC"].status == "ok"
        assert by_method["PCA"].status.startswith("failed")
