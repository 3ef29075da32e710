import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream import (cli, decode, dequantize, detile, encode, pipeline,
                         quantize, tile)
from splitstream.cli import main
from splitstream.pipeline import corpus_stats
from splitstream.quantizer import QuantizerSpec
from splitstream.tensor import FeatureTensor, read_tensor, write_tensor


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

    def test_unreachable_bandwidth_writes_inf(self, tmp_path):
        # with no client_only profile nothing finishes at zero bandwidth
        prof = tmp_path / "profiles.json"
        prof.write_text(json.dumps({"profiles": self.PROFILES["profiles"][1:]}))
        out = tmp_path / "regions.csv"
        assert main(["latency-regions", "--out", str(out),
                     "--profiles", str(prof),
                     "--bandwidths", "0,1e6", "--rtt", "0.0"]) == 0
        assert out.read_bytes() == (
            b"bandwidth,strategy,latency\r\n"
            b"0.0,split_stage2,inf\r\n"
            b"1000000.0,split_stage2,0.16999999999999998\r\n")

    @pytest.mark.parametrize("bandwidths, field", [
        ("nan,1e6", None),                   # a NaN bandwidth point
        ("1e3,1e6", "client_infer_s"),       # a NaN cost, which won every row
        ("1e3,1e6", "payload_bytes"),
    ])
    def test_nan_is_refused(self, tmp_path, capsys, bandwidths, field):
        data = json.loads(json.dumps(self.PROFILES))
        if field:
            data["profiles"][1][field] = float("nan")
        prof = tmp_path / "profiles.json"
        prof.write_text(json.dumps(data))
        out = tmp_path / "regions.csv"
        assert main(["latency-regions", "--out", str(out),
                     "--profiles", str(prof), "--bandwidths", bandwidths]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nan" in err and not out.exists()


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

    def test_infeasible_target_drops_frames(self, tmp_path, capsys):
        # no stream is as small as 1 byte: every frame is dropped, exit 0
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"target_bytes": 1, "frames": 3}))
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["frames_dropped"] == 3
        assert "0/3 frames completed, 3 dropped" in capsys.readouterr().out


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


    @pytest.mark.parametrize("field, value, mode", [
        ("aggregate_std", math.nan, "aggregate"),
        ("aggregate_std", math.inf, "aggregate"),
        ("aggregate_std", -1.0, "aggregate"),
        ("per_neuron_std", math.nan, "per_neuron"),
    ])
    def test_stats_with_a_bad_std_are_refused(self, prepared, tmp_path, capsys,
                                              field, value, mode):
        # a NaN, infinite or negative std once quantized into a stream
        src, stats_path = prepared
        d = json.loads(stats_path.read_text())
        if field == "per_neuron_std":
            d[field][3][5][7] = value
        else:
            d[field] = value
        bad = tmp_path / "bad_stats.json"
        bad.write_text(json.dumps(d))
        bitstream = tmp_path / "bad.ftcb"
        assert main(["encode", "--input", str(src), "--out", str(bitstream),
                     "--stats", str(bad), "--mode", mode]) == 1
        assert "must be finite and non-negative" in capsys.readouterr().err
        assert not bitstream.exists()

    @pytest.mark.parametrize("mode", ["aggregate", "per_neuron"])
    def test_stats_with_an_infinite_mean_are_refused(self, prepared, tmp_path,
                                                     capsys, mode):
        # an infinite aggregate is "close" to the mean of neurons one of
        # which is infinite; decode refused the stream once written
        src, stats_path = prepared
        d = json.loads(stats_path.read_text())
        d["per_neuron_mean"][3][5][7] = math.inf
        d["aggregate_mean"] = math.inf
        bad = tmp_path / "bad_stats.json"
        bad.write_text(json.dumps(d))
        assert "Infinity" in bad.read_text()
        bitstream = tmp_path / "bad.ftcb"
        assert main(["encode", "--input", str(src), "--out", str(bitstream),
                     "--stats", str(bad), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "per-neuron mean must be finite" in err
        assert not bitstream.exists()


    @pytest.mark.parametrize("shape, field", [
        ((1, 1, 70000), "grid columns 265"),
        ((1, 70000, 1), "plane width 70000"),
        ((70000, 1, 1), "plane height 70000"),
    ])
    def test_layout_past_the_header_is_refused(self, tmp_path, capsys, shape,
                                               field):
        src = tmp_path / "t.ftsr"
        write_tensor(FeatureTensor(np.linspace(-1, 1, math.prod(shape),
                                               dtype=np.float32).reshape(shape)),
                     src)
        bitstream = tmp_path / "t.ftcb"
        assert main(["encode", "--input", str(src), "--out", str(bitstream)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err
        assert not bitstream.exists()


# numbers a stats file may hold, ordinary and extreme: non-finite, past
# float32, past float64 (an int JSON writes but no float holds) and subnormal
_STATS_NUMBERS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e-320, 3e38, 1e39, 1e300, -1e300, 1.7e308,
                     math.inf, -math.inf, math.nan, 10 ** 400, -(10 ** 400)]),
    st.integers(-3, 10))
_STATS_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(),
                                        max_size=1))
_STATS_SHAPE = (2, 3, 4)


@st.composite
def _stats_documents(draw):
    """A stats file: well formed, with extreme numbers, with fields of the
    wrong kind or missing, or not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_STATS_JUNK, st.lists(_STATS_NUMBERS, max_size=3)))

    def per_neuron():
        if draw(st.integers(0, 9)) == 0:
            return draw(st.one_of(_STATS_JUNK, _STATS_NUMBERS))
        shape = draw(st.sampled_from([_STATS_SHAPE, _STATS_SHAPE, (2, 3),
                                      (1, 1, 1), (0, 3, 4)]))
        arr = np.full(shape, draw(_STATS_NUMBERS), dtype=object)
        if arr.size and draw(st.booleans()):
            arr.flat[draw(st.integers(0, arr.size - 1))] = draw(_STATS_NUMBERS)
        return arr.tolist()

    doc = {"label": draw(st.one_of(st.just("drawn"), _STATS_JUNK)),
           "per_neuron_mean": per_neuron(), "per_neuron_std": per_neuron()}
    try:
        means = np.asarray(doc["per_neuron_mean"], dtype=np.float64)
        with np.errstate(all="ignore"):
            consistent = float(means.mean()) if means.size else 0.0
    except (TypeError, ValueError, OverflowError):
        consistent = 0.0
    doc["aggregate_mean"] = draw(st.one_of(st.just(consistent),
                                           _STATS_NUMBERS, _STATS_JUNK))
    doc["aggregate_std"] = draw(st.one_of(_STATS_NUMBERS, _STATS_JUNK))
    doc["sample_count"] = draw(st.one_of(_STATS_NUMBERS, _STATS_JUNK))
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


class TestAnyStats:
    @pytest.fixture(scope="class")
    def tensor_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("any_stats") / "t.ftsr"
        data = np.arange(24, dtype=np.float32).reshape(_STATS_SHAPE) / 7.0
        write_tensor(FeatureTensor(data), path)
        return path

    @settings(max_examples=200)
    @given(doc=_stats_documents(),
           mode=st.sampled_from(["aggregate", "per_neuron"]))
    def test_every_stats_file_ends_in_a_decodable_stream_or_an_error(
            self, tensor_path, doc, mode):
        folder = tensor_path.parent
        stats_path, stream = folder / "stats.json", folder / "out.ftcb"
        stats_path.write_text(json.dumps(doc))
        stream.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["encode", "--input", str(tensor_path),
                         "--out", str(stream), "--stats", str(stats_path),
                         "--mode", mode])
        if code == 1:
            text = err.getvalue()
            assert text.startswith("error:") and text.count("\n") == 1
            assert not stream.exists()
            return
        assert code == 0 and stream.exists()
        with contextlib.redirect_stderr(err):
            assert main(["decode", "--input", str(stream),
                         "--out", str(folder / "out.ftsr")]) == 0, err.getvalue()


class TestErrors:
    def _expect_error(self, argv, capsys, needle=""):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err

    def test_unknown_cut(self, tmp_path, capsys):
        self._expect_error(["stats", "--out", str(tmp_path / "s.json"),
                            "--cut", "nope"], capsys, "unknown cut")

    @pytest.mark.parametrize("text", [
        "{not json",
        '[["frames", 2], ["stats_images", 4]]',   # pairs, not an object
        '"ab"',
    ])
    def test_malformed_config(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
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
        ({"levels": 3.5}, "levels"),
        ({"quality": 85.5}, "quality"),
        ({"mss": 1400.5}, "mss"),
        ({"top_k": 2.5}, "top_k"),
        ({"frames": 2.5}, "frames"),
        ({"stats_images": 1}, "stats_images"),
        ({"server_process_us": -1}, "server_process_us"),
        ({"levels": 1000}, "levels"),
        ({"link": {"jitter_us": 0.5}}, "jitter_us"),
        ({"link": {"rtt_us": -2}}, "rtt_us"),
        ({"frames": 1, "link": {"rtt_us": 0}}, "rtt_us"),
        ({"link": {"loss_prob": 1.0}}, "loss_prob"),
        ({"downlink_loss_prob": 1.0}, "loss_prob"),
        ({"link": {"bandwidth_bps": 0}}, "bandwidth"),
        ({"link": {"bandwidth_bps": float("nan")}}, "bandwidth"),
        ({"link": {"bandwidth_bps": 1e-320}, "frames": 2}, "bandwidth"),
        ({"link": {"jitter_us": 2 ** 70}, "frames": 2}, "jitter"),
        ({"frames": 2, "frame_interval_us": 2 ** 64}, "horizon"),
        ({"link": {"duration_us": 2 ** 64}}, "horizon"),
        ({"link": {"duration_us": -5}}, "duration_us"),
        ({"clip_width": "3"}, "clip_width"),
        ({"link": {"bandwidth_bps": "1e6"}}, "bandwidth_bps"),
        ({"link": {"loss_prob": "0.1"}}, "loss_prob"),
        ({"invert_drop_rule": "yes"}, "invert_drop_rule"),
        ({"clip_width": True}, "clip_width"),
        ({"clip_width": float("inf")}, "clip"),
        ({"clip_width": 1e300}, "clip"),
        ({"clip_width": 1e-310}, "clip"),
    ])
    def test_invalid_config_values(self, tmp_path, capsys, monkeypatch,
                                   config, needle):
        def unreachable(*args):
            raise AssertionError("config checked after set-up began")

        # refused before the model or the corpus stats are built, so before
        # the simulator starts: one error line, no report
        monkeypatch.setattr(pipeline, "SplitModel", unreachable)
        monkeypatch.setattr(pipeline, "corpus_stats", unreachable)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
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

    @pytest.mark.parametrize("rates", ["inf", "nan", "-inf", "0.1,inf"])
    def test_conceal_sweep_refuses_a_rate_out_of_range(self, tmp_path, capsys,
                                                       rates):
        out = tmp_path / "c.csv"
        assert main(["conceal-sweep", "--out", str(out), "--count", "3",
                     f"--rates={rates}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rate must be in [0, 1]")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, needle", [
        (["--rtt", "nan"], "--rtt"),
        (["--rtt", "inf"], "--rtt"),
        (["--rtt=-inf"], "--rtt"),
        (["--bandwidths", "1e3..inf:5"], "finite positive"),
        (["--bandwidths", "nan..1e9"], "finite positive"),
        (["--bandwidths", "0..1e3"], "finite positive"),
        (["--bandwidths=-1e3..1e3"], "finite positive"),
        (["--bandwidths", "1e3..1e9:-5"], "at least 1"),
        (["--bandwidths", "1e3..1e9:0"], "at least 1"),
    ])
    def test_latency_regions_refuses_a_bad_grid(self, tmp_path, capsys,
                                                monkeypatch, flags, needle):
        def unreachable(*args):
            raise AssertionError("profiles measured before the flags were checked")

        # refused before any profile is measured or written
        monkeypatch.setattr(cli, "measure_profiles", unreachable)
        out, profiles = tmp_path / "r.csv", tmp_path / "p.json"
        assert main(["latency-regions", "--out", str(out),
                     "--profiles-out", str(profiles)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err
        assert not out.exists() and not profiles.exists()

    def test_bad_shift_syntax(self, tmp_path, capsys):
        self._expect_error(["motion-demo", "--out", str(tmp_path / "m.csv"),
                            "--shift", "5"], capsys, "expected")

    def test_bad_corpus_cut(self, tmp_path, capsys):
        self._expect_error(["gen-corpus", "--out", str(tmp_path / "g"),
                            "--count", "1", "--cut", "stage7"], capsys,
                           "unknown cut")

    def test_negative_corpus_count(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gen-corpus", "--out", str(out), "--count", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--count" in err
        assert not (out / "manifest.json").exists()

    def test_decode_without_meta(self, tmp_path, capsys):
        blob = tmp_path / "orphan.ftcb"
        blob.write_bytes(b"\x00" * 8)
        self._expect_error(["decode", "--input", str(blob),
                            "--out", str(tmp_path / "o.ftsr")], capsys)

    def test_argparse_rejects_bad_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--input", "x", "--out", "y", "--mode", "bogus"])
        assert exc.value.code == 2
