import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aebound import autoencoder as ae, cli, codec, dataset, harness, metrics
from aebound.autoencoder import ModelParams
from aebound.sphering import SpheringScale

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


def _seeded_inputs(tmp_path, default_bound, mode):
    """A seeded 5-sensor CSV and a seeded n=5, k=2 model file of that mode; returns their paths."""
    rng = np.random.default_rng(2024)
    sensors, steps, k = 5, 120, 2
    t = np.arange(steps)
    values = (15.0 + rng.uniform(-0.5, 0.5, (sensors, 1)) + np.sin(2 * np.pi * t / 17 + rng.uniform(0, 6, (sensors, 1)))
              + rng.normal(0, 0.05, (sensors, steps)))
    csv_path = tmp_path / "readings.csv"
    with open(csv_path, "w") as fh:
        fh.write("t," + ",".join(f"s{i}" for i in range(sensors)) + "\n")
        for j, row in enumerate(values.T.tolist()):
            fh.write(f"{1000 + 60 * j}," + ",".join(map(repr, row)) + "\n")
    model = ModelParams(
        w_enc=rng.normal(0, 0.5, (k, sensors)), b_enc=rng.normal(0, 0.1, k),
        w_dec=rng.normal(0, 0.5, (sensors, k)), b_dec=rng.normal(0, 0.1, sensors),
        n=sensors, k=k, sigma=SpheringScale(1.5),
    )
    model_path = tmp_path / "m.aeb"
    codec.save_model(model, default_bound, mode, model_path)
    return csv_path, model_path


class TestTrain:
    def test_smoke_and_determinism(self, tiny_config, tmp_path):
        out1 = str(tmp_path / "m1.aeb")
        out2 = str(tmp_path / "m2.aeb")
        assert cli.main(["train", "--config", tiny_config, "--seed", "3", "--out", out1]) == 0
        assert cli.main(["train", "--config", tiny_config, "--seed", "3", "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_missing_dataset_path_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset = csv\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.aeb")]) == 2

    def test_no_variant_is_usage_error(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "m.aeb"
        assert cli.main(["train", "--config", tiny_config, "--set", "variants", "", "--out", str(out)]) == 2
        assert "variants" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_default_bound_is_usage_error_before_the_fit(self, tiny_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train_model", lambda *args: pytest.fail("trained with an unsavable bound"))
        out = tmp_path / "m.aeb"
        assert cli.main(["train", "--config", tiny_config, "--set", "bounds", "inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "bounds" in err
        assert not out.exists()

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
        windows = dataset.make_windows(dataset.load_csv(csv_path, "t"), "temporal", 12)
        recon = np.loadtxt(out_csv, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        assert recon.shape == windows.shape
        assert np.max(np.abs(recon - windows)) <= 0.3

    def test_lossless_bound_on_lossy_model_is_exact(self, tiny_config, tmp_path):
        model_path = str(tmp_path / "m.aeb")
        assert cli.main(["train", "--config", tiny_config, "--seed", "1", "--out", model_path]) == 0
        csv_path = write_csv(tmp_path)
        packets, out_csv = str(tmp_path / "p.bin"), str(tmp_path / "rec.csv")
        assert cli.main(["compress", "--model", model_path, "--input", csv_path,
                         "--bound", "0", "--out", packets, "--verify"]) == 0
        assert cli.main(["decompress", "--model", model_path, "--packets", packets, "--out", out_csv]) == 0
        windows = dataset.make_windows(dataset.load_csv(csv_path, "t"), "temporal", 12)
        recon = np.loadtxt(out_csv, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        assert np.array_equal(recon.view(np.uint64), windows.view(np.uint64))

    def test_bound_below_float32_resolution_verifies(self, tmp_path, capsys):
        csv_path, model_path = _seeded_inputs(tmp_path, 0.6, "temporal")  # readings near 15
        packets = tmp_path / "p.bin"
        assert cli.main(["compress", "--model", str(model_path), "--input", str(csv_path),
                         "--bound", "1e-9", "--out", str(packets), "--verify"]) == 0
        assert "verify ok" in capsys.readouterr().out
        model, _, _ = codec.load_model(model_path)
        assert codec.read_packet_stream(packets, model.n, model.k).eps.values.dtype == np.float64

    def test_lossy_bound_on_lossless_model_sends_32_bit_patches(self, tiny_config, tmp_path):
        model_path = str(tmp_path / "m.aeb")
        assert cli.main(["train", "--config", tiny_config, "--seed", "1", "--set", "bounds", "0",
                         "--out", model_path]) == 0
        packets = tmp_path / "p.bin"
        assert cli.main(["compress", "--model", model_path, "--input", write_csv(tmp_path, steps=120),
                         "--bound", "0.1", "--out", str(packets)]) == 0
        model, default_bound, _ = codec.load_model(model_path)
        back = codec.read_packet_stream(packets, model.n, model.k)
        assert default_bound == 0.0 and back.eps.values.dtype == np.float32 and back.eps.count > 0
        head = 4 + 4 * model.k + 4 + (model.n + 7) // 8  # prefix, code, mean, indicator
        assert packets.stat().st_size == len(back) * head + 4 * back.eps.count

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

    def test_reports_patch_rate_and_bits_per_reading(self, tmp_path, capsys):
        csv_path, model_path = _seeded_inputs(tmp_path, 0.6, "temporal")
        packets = tmp_path / "p.bin"
        assert cli.main(["compress", "--model", str(model_path), "--input", str(csv_path),
                         "--out", str(packets)]) == 0
        found = re.search(r"patched ([\d.]+)% of (\d+) readings, ([\d.]+) bits per reading written",
                          capsys.readouterr().out)
        assert found is not None
        rate, readings, bits = float(found[1]), int(found[2]), float(found[3])
        model, _, _ = codec.load_model(model_path)
        indicator = codec.read_packet_stream(packets, model.n, model.k).eps.indicator
        assert readings == indicator.size == 5 * 120
        assert rate == pytest.approx(100 * indicator.mean(), abs=0.005)
        assert bits == pytest.approx(8 * packets.stat().st_size / readings, abs=0.0005)


    def test_names_the_readings_no_window_holds(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path, steps=65)  # 5 steps of each of 2 sensors past the last window of 12
        model_path = tmp_path / "m.aeb"
        codec.save_model(ae.init_params(12, 3, seed=0, sigma=SpheringScale(1.0)), 0.5, "temporal", model_path)
        assert cli.main(["compress", "--model", str(model_path), "--input", csv_path,
                         "--out", str(tmp_path / "p.bin")]) == 0
        assert "left out 10 of 130 readings: no window of 12 holds them" in capsys.readouterr().out

    def test_spatial_model_cuts_spatial_windows(self, tmp_path, capsys):
        """A model trained on spatial windows compresses one packet per timestep, with no flag."""
        csv_path = write_csv(tmp_path, steps=60, sensors=23)
        config = tmp_path / "train.cfg"
        config.write_text(f"csv = {csv_path}\nmode = spatial\nk = 4\nbounds = 0.1\nvariants = ae\nmax_iters = 20\n")
        model_path, packets = tmp_path / "m.aeb", tmp_path / "p.bin"
        assert cli.main(["train", "--config", str(config), "--seed", "1", "--out", str(model_path)]) == 0
        assert cli.main(["compress", "--model", str(model_path), "--input", csv_path, "--verify",
                         "--out", str(packets)]) == 0
        out = capsys.readouterr().out
        assert "verify ok" in out and "left out 0 of 1380 readings" in out and "wrote 60 packets" in out
        model, _, mode = codec.load_model(model_path)
        assert (model.n, mode) == (23, "spatial")
        assert len(codec.read_packet_stream(packets, model.n, model.k)) == 60

    def test_mode_is_not_a_compress_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compress", "--model", str(tmp_path / "m.aeb"), "--input", str(tmp_path / "in.csv"),
                      "--mode", "spatial", "--out", str(tmp_path / "p.bin")])
        assert exc.value.code == 2


class TestBench:
    def test_smoke_rows_and_consistency(self, tiny_config, tmp_path):
        outdir = str(tmp_path / "report")
        assert cli.main(["bench", "--config", tiny_config, "--seed", "5", "--out", outdir]) == 0
        lines = Path(outdir, "report.csv").read_text().strip().splitlines()
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
        csv1 = Path(out1, "report.csv").read_bytes()
        csv2 = Path(out2, "report.csv").read_bytes()
        # wall_time is the one legitimately varying column; strip it
        def strip_time(data):
            lines = data.decode().splitlines()
            return [",".join(l.split(",")[:8] + l.split(",")[9:]) for l in lines]

        assert strip_time(csv1) == strip_time(csv2)

    @pytest.mark.parametrize(
        "pairs", [[("variants", ""), ("baselines", "")], [("fold_rotations", "0")], [("k", "0")]],
        ids=["no-method", "no-fold-rotation", "k-0"],
    )
    def test_config_that_sweeps_nothing_fails(self, tiny_config, tmp_path, capsys, pairs):
        outdir = tmp_path / "report"
        extra = [arg for pair in pairs for arg in ("--set", *pair)]
        assert cli.main(["bench", "--config", tiny_config, "--seed", "1", "--out", str(outdir), *extra]) == 2
        assert "usage error:" in capsys.readouterr().err
        assert not outdir.exists()

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

    def test_failed_rows_exit_1_after_writing_the_report(self, tmp_path, capsys):
        # 6 training windows per fold < k=10, so every PCA cell fails; LTC stays ok
        config = tmp_path / "failing.cfg"
        config.write_text("sensors = 2\nsteps = 60\nwindow = 10\nk = 10\nbounds = 0.5\nvariants =\n"
                          "baselines = pca, ltc\nfolds = 2\nrepetitions = 1\nnoise_sd = 0\n")
        outdir = tmp_path / "report"
        assert cli.main(["bench", "--config", str(config), "--seed", "0", "--out", str(outdir)]) == 1
        statuses = {line.split(",")[0]: line.split(",")[9] for line in (outdir / "report.csv").read_text().splitlines()[1:]}
        assert statuses["LTC"] == "ok" and statuses["PCA(k=10)"].startswith("failed:")
        assert "1 of 2 rows failed or partial" in capsys.readouterr().err

    def test_thread_pool_matches_sequential(self, tiny_config, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        monkeypatch.setenv("AEB_THREADS", "1")
        cli.main(["bench", "--config", tiny_config, "--seed", "9", "--out", out1])
        monkeypatch.setenv("AEB_THREADS", "4")
        cli.main(["bench", "--config", tiny_config, "--seed", "9", "--out", out2])

        def rows_no_time(path):
            lines = Path(path, "report.csv").read_text().splitlines()
            return [",".join(l.split(",")[:8] + l.split(",")[9:]) for l in lines]

        assert rows_no_time(out1) == rows_no_time(out2)


class TestConfigKeys:
    @staticmethod
    def _config(*pairs):
        return cli.build_config(argparse.Namespace(config=None, set=[list(p) for p in pairs], seed=None))

    @pytest.mark.parametrize("alias, name, value", [("k", "k_list", "3, 5"), ("baselines", "baseline_methods", "ltc, dct")])
    def test_canonical_name_equals_alias(self, alias, name, value):
        assert self._config((name, value)) == self._config((alias, value))

    def test_bench_with_canonical_k_list(self, tiny_config, tmp_path):
        outdir = tmp_path / "report"
        assert cli.main(["bench", "--config", tiny_config, "--seed", "5", "--out", str(outdir),
                         "--set", "k_list", "3", "--set", "baseline_methods", "ltc"]) == 0
        rows = [line.split(",") for line in (outdir / "report.csv").read_text().splitlines()[1:]]
        assert sorted({r[0] for r in rows}) == ["LTC", "WAE(k=3)"]
        assert [r[9] for r in rows] == ["ok"] * 4

    @pytest.mark.parametrize("key, value", [("wolfe_c1", "1e-3"), ("wolfe_c2", "0.5"), ("max_line_search_steps", "9")])
    def test_line_search_constants_are_not_config_keys(self, tiny_config, tmp_path, capsys, key, value):
        outdir = tmp_path / "report"
        assert cli.main(["bench", "--config", tiny_config, "--seed", "1", "--out", str(outdir), "--set", key, value]) == 2
        assert key in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command, extra, named",
        [
            ("bench", ["--set", "mode", "bogus"], "mode"),
            ("bench", ["--set", "fold_rotations", "0"], "fold_rotations"),
            ("bench", ["--set", "folds", "1"], "folds"),
            ("bench", ["--set", "variants", "bogus"], "variants"),
            ("bench", ["--set", "k", "abc"], "k_list"),
            ("bench", ["--set", "k", "3,3"], "k_list has repeated entries"),
            ("bench", ["--set", "max_iters", "0"], "max_iters"),
            ("bench", ["--set", "bounds", "-1"], "bounds"),
            ("bench", ["--set", "stride", "2"], "stride"),  # windows never overlap; no such key
            ("bench", ["--set", "dataset", "bogus"], "dataset"),
            ("bench", ["--set", "csv", "readings.csv"], "dataset"),  # beside the config's dataset = synth
            ("bench", ["--set", "rho", "2"], "rho"),
            ("bench", ["--set", "beta", "-1"], "beta"),
            ("bench", ["--set", "beta", "nan"], "beta"),
            ("bench", ["--set", "eta", "-0.5"], "eta"),
            ("bench", ["--set", "window", "0"], "window"),
            ("bench", ["--set", "mode", "spatial"], "window"),  # beside the config's window = 12
            ("bench", ["--set", "sensors", "0"], "sensors"),
            ("bench", ["--set", "steps", "0"], "steps"),
            ("bench", ["--set", "noise_sd", "-1"], "noise_sd"),
            ("bench", ["--set", "period_range", "5"], "period_range"),
            ("bench", ["--set", "period_range", "0,0"], "period_range"),
            ("bench", ["--set", "amp_range", "3,1"], "amp_range"),
            ("compress", ["--bound", "nan"], "--bound"),
            ("compress", ["--bound", "-1"], "--bound"),
        ],
        ids=["mode", "fold_rotations", "folds", "variants", "k", "k-repeated", "max_iters", "bounds",
             "stride", "dataset", "dataset-synth-with-csv", "rho", "beta", "beta-nan", "eta", "window",
             "window-spatial", "sensors", "steps", "noise_sd", "period_range-one", "period_range-zero",
             "amp_range-reversed", "bound-nan", "bound-negative"],
    )
    def test_bad_value_is_usage_error(self, tiny_config, tmp_path, capsys, command, extra, named):
        # compress checks --bound before it opens the model or the CSV, neither of which exists here
        prefix = {
            "bench": ["bench", "--config", tiny_config, "--seed", "1"],
            "compress": ["compress", "--model", str(tmp_path / "m.aeb"), "--input", str(tmp_path / "in.csv")],
        }[command]
        out = tmp_path / "out"
        assert cli.main([*prefix, *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_unknown_key_is_usage_error(self, tiny_config, tmp_path, capsys, where):
        extra = []
        if where == "file":
            Path(tiny_config).write_text(TINY_CONFIG + "windw = 12\n")
        else:
            extra = ["--set", "windw", "12"]
        outdir = tmp_path / "report"
        assert cli.main(["bench", "--config", tiny_config, "--seed", "1", "--out", str(outdir), *extra]) == 2
        assert "windw" in capsys.readouterr().err
        assert not outdir.exists()


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


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_aebound(argv, stdout, unbuffered=True) -> subprocess.CompletedProcess:
    """`aebound <argv>` in a child process with the given stdout; stderr is captured."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "aebound.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, text=True, timeout=300)


class TestClosedStdout:
    """A reader that closes stdout early (`aebound ... | head -1`) does not change what the command does."""

    @pytest.fixture
    def closed_pipe(self):
        """The write end of a pipe whose read end is already closed: every write to it fails with EPIPE."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        yield write_end
        os.close(write_end)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_compress_runs_to_its_end(self, tmp_path, closed_pipe, unbuffered):
        csv_path, model_path = _seeded_inputs(tmp_path, 0.6, "temporal")
        packets = tmp_path / "p.bin"
        child = _run_aebound(["compress", "--model", str(model_path), "--input", str(csv_path), "--verify",
                              "--out", str(packets)], closed_pipe, unbuffered)
        assert (child.returncode, child.stderr) == (0, "")
        model, bound, _ = codec.load_model(model_path)
        windows = dataset.make_windows(dataset.load_csv(str(csv_path), "t"), "temporal", model.n)
        decoded = codec.decompress_batch(codec.read_packet_stream(packets, model.n, model.k), model)
        assert np.max(np.abs(decoded - windows)) <= bound

    def test_bench_keeps_its_exit_status(self, tmp_path, closed_pipe):
        config = tmp_path / "failing.cfg"  # every PCA cell fails, as in TestBench
        config.write_text("sensors = 2\nsteps = 60\nwindow = 10\nk = 10\nbounds = 0.5\nvariants =\n"
                          "baselines = pca, ltc\nfolds = 2\nrepetitions = 1\nnoise_sd = 0\n")
        child = _run_aebound(["bench", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "report")],
                             closed_pipe)
        assert child.returncode == 1
        assert "1 of 2 rows failed or partial" in child.stderr and "Broken pipe" not in child.stderr
        assert (tmp_path / "report" / "report.csv").is_file()


def test_cli_and_harness_need_numpy_alone():
    """Beyond what numpy loads itself, importing the CLI and the harness loads only aebound and the standard library."""
    code = ("import sys, numpy; before = set(sys.modules); import aebound.cli, aebound.harness; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'aebound'}))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])))
    assert (child.returncode, child.stdout.strip()) == (0, "[]"), child.stderr


class TestGoldenOutputs:
    """Pinned sha256 digests of the stream and CSV that `compress`/`decompress` write."""

    @pytest.mark.parametrize("mode, default_bound, digests", [
        ("temporal", 0.6, ("abcfada201343e6eb64259f17e6dd69c5004efc5f5aff7e2aa0dc7150f0d104a",
                           "a26402b2453b29951421f5160c3eb72d238d22d047a06b57d2d93a5a2daece70")),
        ("temporal", 0.0, ("5ae97f8c9c375d242291973a8f4a2d3fec73a69f17f2ab02793eeaccb2cc454f",
                           "386158fba45578dd5b975c7043709dca5d19419b8b2f43c3502ef83adb3f1cdc")),
        ("spatial", 0.6, ("d5a775d0ec6898502dae6002e7453d8e00b4db10f7fbf1cb2f1edfee9e204847",
                          "24c1af21ffc489048c36490f3f04afd97cba66c7e0c0beb8d28824e1560e8d0c")),
    ], ids=["temporal-lossy", "temporal-lossless", "spatial-lossy"])
    def test_output_digests(self, tmp_path, mode, default_bound, digests):
        csv_path, model_path = _seeded_inputs(tmp_path, default_bound, mode)
        packets, recon = tmp_path / "p.bin", tmp_path / "rec.csv"
        assert cli.main(["compress", "--model", str(model_path), "--input", str(csv_path),
                         "--out", str(packets)]) == 0
        assert cli.main(["decompress", "--model", str(model_path), "--packets", str(packets),
                         "--out", str(recon)]) == 0
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (packets, recon)) == digests

