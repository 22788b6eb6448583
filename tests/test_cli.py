import hashlib
import json

import numpy as np
import pytest

from pokebnn.builders import builtin_models
from pokebnn.cli import main
from pokebnn.graphir import load_graph


class TestAnalyze:
    def test_pokebnn_row(self, capsys):
        assert main(["analyze", "--model", "pokebnn-1.0x"]) == 0
        out = capsys.readouterr().out
        assert "3609.5" in out and "57.7" in out

    def test_resnet_ace(self, capsys):
        assert main(["analyze", "--model", "resnet50-bf16"]) == 0
        assert "1046.8" in capsys.readouterr().out

    def test_elementwise_breakdown(self, capsys):
        assert main(["analyze", "--model", "pokebnn-1.0x", "--elementwise"]) == 0
        out = capsys.readouterr().out
        sum_row = next(l for l in out.splitlines() if l.startswith("Sum"))
        adds, muls = (float(v) for v in sum_row.split()[-2:])
        assert abs(adds - 81.9) / 81.9 < 0.02
        assert abs(muls - 38.4) / 38.4 < 0.02

    # sha256 prefixes of "exit code, stdout, stderr" of ``analyze --format
    # json --elementwise``, per builtin: the published cost figures, which
    # the fusion table that cost and the executor share must not move
    ELEMENTWISE_JSON = {
        "pokebnn-0.5x": "9d109f9df27faafa",
        "pokebnn-0.75x": "b9055f9b14d5953a",
        "pokebnn-1.0x": "1f625b80fc242839",
        "pokebnn-1.25x": "c0eef5a78d76b40b",
        "pokebnn-1.4x": "479aac760bde5f03",
        "pokebnn-1.5x": "059a172bfef2de89",
        "pokebnn-1.75x": "9c58e727122513e3",
        "pokebnn-2.0x": "26c5bf9fa4e72bae",
        "pokebnn-toy": "5c2b564c4ac31078",
        "resnet50-bf16": "e7c9086901423f9e",
        "resnet50-fp32": "e7c9086901423f9e",
    }

    def test_elementwise_json_is_unchanged_for_every_builtin(self, capsys):
        got = {}
        for name in sorted(builtin_models()):
            code = main(["analyze", "--model", name, "--format", "json", "--elementwise"])
            out, err = capsys.readouterr()
            got[name] = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()[:16]
        assert got == self.ELEMENTWISE_JSON

    def test_json_format_parses(self, capsys):
        assert main(["analyze", "--model", "pokebnn-0.5x", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "pokebnn-0.5x"
        assert any(b["act_bits"] == "bin" for b in doc["buckets"])

    def test_csv_format(self, capsys):
        assert main(["analyze", "--model", "pokebnn-toy", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_fp32_as_bf16(self, capsys):
        assert main(["analyze", "--model", "resnet50-fp32", "--fp32-as-bf16"]) == 0
        assert "1046.8" in capsys.readouterr().out

    def test_unknown_model_usage_error(self, capsys):
        assert main(["analyze", "--model", "alexnet"]) == 2

    def test_graph_file_input(self, tmp_path, capsys):
        path = tmp_path / "toy.json"
        assert main(["export-graph", "pokebnn-toy", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--model", str(path)]) == 0

    def test_invalid_graph_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--model", str(path)]) == 1

    def test_directory_as_graph_file_usage_error(self, tmp_path, capsys):
        assert main(["analyze", "--model", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and repr(str(tmp_path)) in captured.err

    def test_graph_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        assert main(["analyze", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path} is not UTF-8 text: invalid continuation byte" in captured.err

    @pytest.mark.parametrize("defect, message", [
        ("duplicate_node", "node 'init_conv': duplicate id"),
        ("no_output", "exactly one output node, found 0"),
        ("conv_without_kernel", "node 'init_conv': missing attrs ['kernel']"),
        ("negative_input_shape", "input_shape must be three positive integers"),
        ("scalar_kernel", "node 'init_conv': kernel must be two positive integers, got 3"),
        ("string_stride", "node 'init_conv': stride must be a positive integer, got '2'"),
        ("zero_out_channels",
         "node 'init_conv': out_channels must be a positive integer, got 0"),
        ("zero_kernel_row",
         "node 'init_conv': kernel must be two positive integers, got [0, 4]"),
    ])
    def test_graph_file_failing_validation(self, tmp_path, capsys, defect, message):
        path = tmp_path / "toy.json"
        assert main(["export-graph", "pokebnn-toy", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        conv = next(n for n in doc["nodes"] if n["id"] == "init_conv")
        if defect == "duplicate_node":
            doc["nodes"].insert(doc["nodes"].index(conv) + 1, conv)
        elif defect == "no_output":
            doc["nodes"] = [n for n in doc["nodes"] if n["op"] != "output"]
        elif defect == "conv_without_kernel":
            del conv["attrs"]["kernel"]
        elif defect == "negative_input_shape":
            doc["input_shape"][0] = -doc["input_shape"][0]
        else:
            key, value = {"scalar_kernel": ("kernel", 3), "string_stride": ("stride", "2"),
                          "zero_out_channels": ("out_channels", 0),
                          "zero_kernel_row": ("kernel", [0, 4])}[defect]
            conv["attrs"][key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("edit, message", [
        ("input_shape", "input_shape must be a list [H, W, C], got 32"),
        ("inputs", "node 'init_conv': inputs must be a list of node ids, got 'init_q1'"),
    ])
    def test_graph_file_with_wrong_container_type(self, tmp_path, capsys, edit, message):
        path = tmp_path / "toy.json"
        assert main(["export-graph", "pokebnn-toy", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        if edit == "input_shape":
            doc["input_shape"] = 32
        else:
            conv = next(n for n in doc["nodes"] if n["id"] == "init_conv")
            assert conv["inputs"] == ["init_q1"]
            conv["inputs"] = "init_q1"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestVerifyKernels:
    def test_passes(self, capsys):
        assert main(["verify-kernels", "--cases", "50", "--seed", "7"]) == 0
        assert "all exact" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        main(["verify-kernels", "--cases", "20", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify-kernels", "--cases", "20", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_zero_cases_usage_error(self, capsys):
        assert main(["verify-kernels", "--cases", "0"]) == 2

    def test_injected_fault_detected(self, capsys):
        assert main(["verify-kernels", "--cases", "5", "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "max rel err" in out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_usage_error(self, capsys, instances):
        assert main(["gradcheck", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--instances must be >= 1" in captured.err


# a small toy model and data set for train-toy runs
SMALL = ["--multiplier", "0.125", "--groups", "2", "--samples", "32"]
TEACHER_ROW = ",".join(["0.1"] * 10)


class TestTrainToy:
    def test_short_run(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.ndjson"
        ckpt = tmp_path / "final.ckpt"
        code = main(["train-toy", "--steps", "8", "--seed", "1",
                     "--multiplier", "0.125", "--groups", "2",
                     "--samples", "64",
                     "--metrics", str(metrics), "--checkpoint", str(ckpt)])
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out
        assert len(metrics.read_text().splitlines()) == 8
        from pokebnn.nn.checkpoint import load_tensors
        assert load_tensors(ckpt)

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 6, "phase_switch_step": 2,
                                   "batch_size": 16, "seed": 3}))
        code = main(["train-toy", "--config", str(cfg),
                     "--multiplier", "0.125", "--groups", "2",
                     "--samples", "32"])
        assert code == 0

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "not a mapping"),
        ({"nope": 1}, "unexpected keyword argument 'nope'"),
        ({"total_steps": "5"}, "total_steps must be int, got '5'"),
        ({"decay_dprelu": 1}, "decay_dprelu must be bool, got 1"),
        ({"base_lr": -1}, "base_lr must be > 0, got -1"),
        ({"binary_act_bound": 0}, "binary_act_bound must be > 0, got 0"),
        ({"beta2": 1.0}, "beta2 must be in [0, 1), got 1.0"),
    ])
    def test_bad_config_usage_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train-toy", "--config", str(cfg), *SMALL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config {cfg}: " in captured.err and message in captured.err

    def test_checkpoint_directory_checked_before_training(self, tmp_path, capsys):
        ckpt = tmp_path / "missing" / "final.ckpt"
        assert main(["train-toy", "--steps", "4", *SMALL,
                     "--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no such directory" in captured.err

    @pytest.mark.parametrize("text, code, message", [
        (f"{TEACHER_ROW}\n" * 32, 0, ""),
        (f"{TEACHER_ROW}\n0.1,a\n", 1, "line 2: could not convert string to float: 'a'"),
        (f"{TEACHER_ROW}\n0.1,0.9\n", 1, "line 2: expected 10 columns, found 2"),
        ("0.5,0.5\n" * 32, 1, "line 1: expected 10 columns, found 2"),
        ("nan," + TEACHER_ROW[4:] + "\n", 1, "line 1: probabilities must be non-negative"),
        ("-0.1,0.2," + TEACHER_ROW[8:] + "\n", 1, "line 1: probabilities must be non-negative"),
        ("0.2," + TEACHER_ROW[4:] + "\n", 1, "line 1: row sums to 1.100000, not 1"),
        (f"{TEACHER_ROW}\n" * 2, 1, "2 rows for 32 samples"),
        ("", 1, "no rows"),
    ])
    def test_teacher_file_checked(self, tmp_path, capsys, text, code, message):
        teacher = tmp_path / "teacher.csv"
        teacher.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 4, "distill": str(teacher)}))
        assert main(["train-toy", "--config", str(cfg), *SMALL]) == code
        err = capsys.readouterr().err
        assert message in err and (code == 0 or f"teacher file {teacher}" in err)

    def test_teacher_file_not_utf8(self, tmp_path, capsys):
        teacher = tmp_path / "teacher.csv"
        teacher.write_bytes(b"\xff" + f"{TEACHER_ROW}\n".encode() * 32)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 4, "distill": str(teacher)}))
        assert main(["train-toy", "--config", str(cfg), *SMALL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"teacher file {teacher} is not UTF-8 text: invalid start byte at byte 0"
                in captured.err)

    def test_directory_as_config_usage_error(self, tmp_path, capsys):
        assert main(["train-toy", "--config", str(tmp_path), *SMALL]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_missing_teacher_file_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 4,
                                   "distill": str(tmp_path / "none.csv")}))
        assert main(["train-toy", "--config", str(cfg), *SMALL]) == 2
        assert "none.csv" in capsys.readouterr().err


class TestListAndExport:
    def test_list_builtins(self, capsys):
        assert main(["list-builtins"]) == 0
        out = capsys.readouterr().out
        for name in ("pokebnn-0.5x", "pokebnn-2.0x", "resnet50-bf16",
                     "pokebnn-toy"):
            assert name in out

    def test_export_reloads(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["export-graph", "pokebnn-0.5x", "--out", str(path)]) == 0
        g = load_graph(path)
        assert g.name == "pokebnn-0.5x"


class TestUsage:
    @pytest.mark.parametrize("argv, target", [
        (["train-toy", "--steps", "4", "--metrics"], "missing/m.ndjson"),
        (["train-toy", "--steps", "4", "--metrics"], "."),
        (["train-toy", "--steps", "4", "--checkpoint"], "missing/final.ckpt"),
        (["train-toy", "--steps", "4", "--checkpoint"], "."),
        (["export-graph", "pokebnn-toy", "--out"], "missing/g.json"),
        (["export-graph", "pokebnn-toy", "--out"], "."),
    ])
    def test_output_path_checked_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                 argv, target):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")
        monkeypatch.setattr("pokebnn.cli.build_named", no_work)
        monkeypatch.setattr("pokebnn.train.train_loop", no_work)
        path = tmp_path / target
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        reason = "is a directory" if target == "." else "no such directory"
        assert captured.out == ""
        assert f"argument {argv[-1]}: {path}" in captured.err and reason in captured.err

    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["analyze", "--model", "pokebnn-toy", "--frobnicate"]) == 2

    def test_unknown_command(self):
        assert main(["dance"]) == 2
