import csv
import json
from pathlib import Path

import numpy as np
import pytest

from splitstream import decode, dequantize, detile, encode, quantize, tile
from splitstream.cli import main
from splitstream.pipeline import corpus_stats
from splitstream.quantizer import QuantizerSpec
from splitstream.tensor import read_tensor


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCorpusAndStats:
    def test_gen_corpus_writes_tensors_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen-corpus", "--out", str(out), "--count", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 2
        assert manifest["model"]["seed"] == 0x5EED
        assert manifest["files"] == ["img_0000.ftsr", "img_0001.ftsr"]
        t = read_tensor(out / "img_0000.ftsr")
        assert t.shape == (64, 64, 3)
        assert "wrote 2 tensors" in capsys.readouterr().out

    def test_gen_corpus_at_a_cut(self, tmp_path):
        out = tmp_path / "acts"
        assert main(["gen-corpus", "--out", str(out), "--count", "1",
                     "--cut", "stage2"]) == 0
        assert read_tensor(out / "img_0000.ftsr").shape == (16, 16, 32)

    def test_seed_accepts_hex(self, tmp_path):
        out = tmp_path / "seeded"
        assert main(["gen-corpus", "--out", str(out), "--count", "1",
                     "--seed", "0x10"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model"]["seed"] == 16

    def test_stats_matches_library(self, tmp_path, model):
        out = tmp_path / "stats.json"
        assert main(["stats", "--out", str(out), "--cut", "stage2",
                     "--count", "8"]) == 0
        d = json.loads(out.read_text())
        want = corpus_stats(model, "stage2", 8)
        assert d["sample_count"] == 8
        assert d["aggregate_mean"] == want.aggregate_mean
        assert d["aggregate_std"] == want.aggregate_std
        assert np.asarray(d["per_neuron_mean"]).shape == (16, 16, 32)


class TestSweepCommands:
    def test_quant_sweep_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["quant-sweep", "--out", str(out), "--count", "4",
                     "--levels", "4,8", "--widths", "3.0"]) == 0
        rows = _rows(out)
        assert [set(r) for r in rows] == [
            {"levels", "clip_width", "agreement", "mse"}] * 2
        assert [int(r["levels"]) for r in rows] == [4, 8]
        assert float(rows[1]["mse"]) < float(rows[0]["mse"])

    def test_codec_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["codec-curve", "--out", str(out), "--count", "4",
                     "--qualities", "20,80"]) == 0
        rows = _rows(out)
        assert [int(r["quality"]) for r in rows] == [20, 80]
        assert float(rows[0]["mean_bytes"]) < float(rows[1]["mean_bytes"])

    def test_conceal_sweep(self, tmp_path):
        out = tmp_path / "conceal.csv"
        assert main(["conceal-sweep", "--out", str(out), "--count", "4",
                     "--kinds", "by_element", "--rates", "0.0,0.5",
                     "--strategies", "zero,dataset_mean"]) == 0
        rows = _rows(out)
        assert len(rows) == 4
        for r in rows:
            if float(r["rate"]) == 0.0:
                assert float(r["agreement"]) == 1.0
                assert float(r["mse"]) == 0.0

    def test_motion_demo(self, tmp_path):
        out = tmp_path / "motion.csv"
        assert main(["motion-demo", "--out", str(out), "--shift", "16,0",
                     "--radius", "20"]) == 0
        rows = _rows(out)
        assert [r["cut"] for r in rows] == ["stage1", "stage2", "stage3"]
        for r in rows:
            assert float(r["est_dx"]) == 16.0
            assert float(r["est_dy"]) == 0.0
            assert 0.0 < float(r["valid_fraction"]) <= 1.0


class TestLatencyRegions:
    PROFILES = {
        "profiles": [
            {"name": "client_only", "kind": "client_only",
             "client_infer_s": 0.30},
            {"name": "split_stage2", "kind": "split", "cut": "stage2",
             "client_infer_s": 0.04, "client_encode_s": 0.02,
             "server_decode_s": 0.02, "server_infer_s": 0.04,
             "payload_bytes": 5e4},
            {"name": "server_only", "kind": "server_only",
             "client_encode_s": 0.02, "server_decode_s": 0.01,
             "server_infer_s": 0.02, "payload_bytes": 3e5},
        ]
    }

    def test_regions_from_profile_file(self, tmp_path):
        prof = tmp_path / "profiles.json"
        prof.write_text(json.dumps(self.PROFILES))
        out = tmp_path / "regions.csv"
        assert main(["latency-regions", "--out", str(out),
                     "--profiles", str(prof),
                     "--bandwidths", "1e3..1e9:13", "--rtt", "0.0"]) == 0
        rows = _rows(out)
        assert len(rows) == 13
        picks = [r["strategy"] for r in rows]
        assert picks[0] == "client_only" and picks[-1] == "server_only"
        ordering = [p for i, p in enumerate(picks) if i == 0 or picks[i - 1] != p]
        assert ordering == ["client_only", "split_stage2", "server_only"]
        for r in rows:
            assert float(r["latency"]) > 0


class TestSimulate:
    def test_session_report_written(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "frames": 3, "frame_interval_us": 150_000, "link": {"seed": 1},
        }))
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["frames_completed"] == 3
        assert len(report["frames"]) == 3
        assert "3/3 frames completed" in capsys.readouterr().out


class TestEncodeDecode:
    @pytest.fixture()
    def prepared(self, tmp_path):
        corpus = tmp_path / "c"
        main(["gen-corpus", "--out", str(corpus), "--count", "1",
              "--cut", "stage2"])
        stats = tmp_path / "stats.json"
        main(["stats", "--out", str(stats), "--cut", "stage2",
              "--count", "8"])
        return corpus / "img_0000.ftsr", stats

    def test_round_trip_matches_library_composition(self, prepared, tmp_path,
                                                    model):
        src, stats_path = prepared
        bitstream = tmp_path / "x.ftcb"
        pgm = tmp_path / "plane.pgm"
        assert main(["encode", "--input", str(src), "--out", str(bitstream),
                     "--stats", str(stats_path), "--quality", "90",
                     "--pgm", str(pgm)]) == 0
        out = tmp_path / "x_hat.ftsr"
        assert main(["decode", "--input", str(bitstream),
                     "--out", str(out)]) == 0

        stats = corpus_stats(model, "stage2", 8)
        spec = QuantizerSpec(256, 3.0, "aggregate")
        t = read_tensor(src)
        want_bits = encode(tile(quantize(t, spec, stats)), 90)
        assert bitstream.read_bytes() == want_bits
        want = dequantize(detile(decode(want_bits), spec), stats)
        got = read_tensor(out)
        assert np.array_equal(
            got.data, np.asarray(want.data, dtype=got.data.dtype))

        meta = json.loads(Path(str(bitstream) + ".meta.json").read_text())
        assert meta["quality"] == 90 and meta["levels"] == 256
        assert pgm.read_bytes().startswith(b"P5\n96 96\n255\n")

    def test_encode_to_target(self, prepared, tmp_path):
        src, stats_path = prepared
        bitstream = tmp_path / "t.ftcb"
        assert main(["encode", "--input", str(src), "--out", str(bitstream),
                     "--stats", str(stats_path),
                     "--target-bytes", "3000"]) == 0
        assert len(bitstream.read_bytes()) <= 3000
        meta = json.loads(Path(str(bitstream) + ".meta.json").read_text())
        assert 1 <= meta["quality"] <= 100


class TestErrors:
    def _expect_error(self, argv, capsys, needle=""):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err

    def test_unknown_cut(self, tmp_path, capsys):
        self._expect_error(["stats", "--out", str(tmp_path / "s.json"),
                            "--cut", "nope"], capsys, "unknown cut")

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self._expect_error(["simulate", "--config", str(bad),
                            "--out", str(tmp_path / "r.json")],
                           capsys, "malformed config")

    @pytest.mark.parametrize("config, needle", [
        ({"link": 5}, "LinkScenario"),
        ({"quality": 500}, "quality"),
        ({"quality": 0}, "quality"),
        ({"mss": 0}, "mss"),
        ({"frame_interval_us": -1}, "frame_interval_us"),
        ({"target_bytes": -1}, "target_bytes"),
        ({"pacing_us": 0}, "pacing_us"),
        ({"handshake_retry_us": 0}, "handshake_retry_us"),
        ({"frames": -1}, "frames"),
        ({"top_k": 0}, "top_k"),
        ({"top_k": -1}, "top_k"),
    ])
    def test_invalid_config_values(self, tmp_path, capsys, config, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        # refused before the simulator starts: one error line, no report
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        self._expect_error(["simulate", "--config", str(tmp_path / "no.json"),
                            "--out", str(tmp_path / "r.json")], capsys)

    def test_unknown_strategy(self, tmp_path, capsys):
        self._expect_error(["conceal-sweep", "--out", str(tmp_path / "c.csv"),
                            "--strategies", "zero,nope"], capsys,
                           "unknown strategy")

    def test_bad_shift_syntax(self, tmp_path, capsys):
        self._expect_error(["motion-demo", "--out", str(tmp_path / "m.csv"),
                            "--shift", "5"], capsys, "expected")

    def test_bad_corpus_cut(self, tmp_path, capsys):
        self._expect_error(["gen-corpus", "--out", str(tmp_path / "g"),
                            "--count", "1", "--cut", "stage7"], capsys,
                           "unknown cut")

    def test_decode_without_meta(self, tmp_path, capsys):
        blob = tmp_path / "orphan.ftcb"
        blob.write_bytes(b"\x00" * 8)
        self._expect_error(["decode", "--input", str(blob),
                            "--out", str(tmp_path / "o.ftsr")], capsys)

    def test_argparse_rejects_bad_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--input", "x", "--out", "y", "--mode", "bogus"])
        assert exc.value.code == 2
