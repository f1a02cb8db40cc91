"""Command-line surface: artifacts, determinism, exit codes."""

import json
import struct

import numpy as np
import pytest

from neuralbayes import cli


def run(argv):
    return cli.main(argv)


class TestGenData:
    def test_moons_csv_shape(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["gen-data", "--kind", "moons", "--n", "100", "--dim", "16",
                    "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 201  # header + 2 * n_per rows
        assert len(lines[0].split(",")) == 17
        meta = json.loads((tmp_path / "d.meta.json").read_text())
        assert meta["standardized"] is True and meta["lift"]["dim"] == 16

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["gen-data", "--kind", "circles", "--n", "50", "--seed", "3",
                 "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--kind", "spiral", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NB_SEED", "11")
        a = tmp_path / "a.csv"
        run(["gen-data", "--kind", "moons", "--n", "20", "--out", str(a)])
        monkeypatch.delenv("NB_SEED")
        b = tmp_path / "b.csv"
        run(["gen-data", "--kind", "moons", "--n", "20", "--seed", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind, flags, message", [
        ("moons", ["--noise", "nan"], "noise must be finite and >= 0, got nan"),
        ("circles", ["--noise", "nan"], "noise must be finite and >= 0, got nan"),
        ("blobs", ["--noise", "nan"], "noise must be finite and >= 0, got nan"),
        ("moons", ["--gap", "nan"], "gap must be finite, got nan")])
    def test_nan_setting_exits_1_without_csv(self, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "d.csv"
        assert run(["gen-data", "--kind", kind, "--n", "20", *flags, "--seed", "1",
                    "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NB_SEED", "abc")
        out = tmp_path / "a.csv"
        assert run(["gen-data", "--kind", "moons", "--n", "20", "--out", str(out)]) == 1
        assert "error: NB_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A small end-to-end training run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.csv"
    run(["gen-data", "--kind", "moons", "--n", "60", "--seed", "5", "--out", str(data)])
    out_dir = root / "run"
    code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                "--epochs", "3", "--seed", "1", "--out-dir", str(out_dir)])
    assert code == 0
    return data, out_dir


class TestTrainDml:
    def test_artifacts_exist(self, tiny_run):
        _, out_dir = tiny_run
        for name in ("checkpoint.json", "checkpoint.bin", "train_log.jsonl", "metrics.csv",
                     "predicted_labels.csv", "report.json", "resolved_config.json",
                     "MANIFEST.json"):
            assert (out_dir / name).exists(), name

    def test_manifest_hashes_verify(self, tiny_run):
        import hashlib
        _, out_dir = tiny_run
        manifest = json.loads((out_dir / "MANIFEST.json").read_text())
        for art in manifest["artifacts"]:
            digest = hashlib.sha256((out_dir / art["path"]).read_bytes()).hexdigest()
            assert digest == art["sha256"], art["path"]

    def test_report_fields(self, tiny_run):
        _, out_dir = tiny_run
        report = json.loads((out_dir / "report.json").read_text())
        assert {"cluster_accuracy", "final_loss", "final_objective", "updates"} <= set(report)
        assert 0.0 <= report["cluster_accuracy"] <= 1.0

    def test_resolved_config_persisted(self, tiny_run):
        _, out_dir = tiny_run
        cfg = json.loads((out_dir / "resolved_config.json").read_text())
        assert cfg["mbs"] == 40 and cfg["epochs"] == 3 and cfg["seed"] == 1

    def test_unknown_config_key_rejected(self, tmp_path, tiny_run):
        data, _ = tiny_run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = run(["train-dml", "--data", str(data), "--config", str(cfg),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("contents", [[{"beta": 1}], "beta", 2])
    def test_config_must_be_an_object(self, tmp_path, tiny_run, capsys, contents):
        data, _ = tiny_run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(contents))
        code = run(["train-dml", "--data", str(data), "--config", str(cfg),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {cfg}: a config must be a JSON object" in capsys.readouterr().err

    def test_sweep_entries_must_be_objects(self, tmp_path, tiny_run, capsys):
        data, _ = tiny_run
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"epochs": 1}, [{"beta": 1}]]))
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--sweep", str(sweep), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {sweep} entry 1: a config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()   # checked before the first entry runs

    def test_sweep_must_be_a_list(self, tmp_path, tiny_run, capsys):
        data, _ = tiny_run
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"epochs": 1}))
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--sweep", str(sweep), "--out-dir", str(out)])
        assert code == 1
        assert "error: --sweep expects a JSON list of config objects" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--sweep"])
    def test_unreadable_json_names_its_flag_and_path(self, tmp_path, tiny_run, capsys, flag):
        data, _ = tiny_run
        bad = tmp_path / "bad.json"
        bad.write_text("{bad")
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), flag, str(bad), "--out-dir", str(out)])
        assert code == 1
        assert (f"error: {flag} {bad} is not readable JSON: Expecting property name"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_empty_sweep_is_config_error_before_the_data_loads(self, tmp_path, capsys):
        sweep = tmp_path / "empty.json"
        sweep.write_text("[]")
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(tmp_path / "missing.csv"), "--mbs", "40",
                    "--bs", "40", "--epochs", "1", "--sweep", str(sweep), "--out-dir", str(out)])
        assert code == 1
        assert (f"error: --sweep {sweep} lists no configs; it needs at least one"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_first_faulty_sweep_entry_is_reported(self, tmp_path, tiny_run, capsys):
        # each run is planned in sweep order: entry 0's ids fail before entry 1's rate
        data, _ = tiny_run
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"k": 1}, {"lr": -1}]))
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--epochs", "1", "--sweep", str(sweep), "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "every id must lie in [0, 1)" in err and "learning rate" not in err
        assert not out.exists()

    def test_missing_data_is_reported_before_a_bad_setting(self, tmp_path, capsys):
        data, out = tmp_path / "missing.csv", tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--lr", "-1", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(data) in err and "learning rate" not in err
        assert not out.exists()

    def test_sweep_applies_each_entry_over_config(self, tmp_path, tiny_run):
        data, _ = tiny_run
        base, sweep = tmp_path / "base.json", tmp_path / "sweep.json"
        base.write_text(json.dumps({"beta": 1, "lr": 0.002}))
        sweep.write_text(json.dumps([{"epochs": 1}, {"epochs": 1, "lr": 0.003}]))
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--seed", "1", "--config", str(base), "--sweep", str(sweep),
                    "--out-dir", str(out)])
        assert code == 0
        resolved = [json.loads((out / f"sweep{i:03d}" / "resolved_config.json").read_text())
                    for i in range(2)]
        assert [(r["beta"], r["lr"], r["epochs"]) for r in resolved] == [(1, 0.002, 1),
                                                                         (1, 0.003, 1)]
        assert sorted(p.name for p in out.iterdir()) == ["sweep000", "sweep001"]

    @pytest.mark.parametrize("ids, k", [([0, 1, 2], 2), ([0, 1, -1], 2)])
    def test_k_must_cover_component_ids_before_training(self, tmp_path, capsys, monkeypatch,
                                                        ids, k):
        from neuralbayes import data as D
        from neuralbayes import dml
        calls = []
        real = dml.dml_loss
        monkeypatch.setattr(dml, "dml_loss", lambda p: calls.append(1) or real(p))
        points = np.random.default_rng(3).standard_normal((30, 2))
        data = tmp_path / "d.csv"
        D.save_csv(D.ManifoldDataset(points, np.resize(ids, 30)), data)
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--k", str(k), "--mbs", "10",
                    "--bs", "10", "--epochs", "2", "--out-dir", str(out)])
        assert code == 1
        assert f"every id must lie in [0, {k})" in capsys.readouterr().err
        assert calls == []
        assert not (out / "checkpoint.bin").exists()

    def test_fractional_component_id_fails_before_training(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,component\n0,0,0\n1,1,1\n0,1,1.5\n1,0,0\n")
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "2", "--bs", "2",
                    "--epochs", "1", "--out-dir", str(out)])
        assert code == 1
        assert "d.csv: line 4: component 1.5 is not a 64-bit integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_csv_line_fails_naming_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,component\n0,0,0\n \n1,1,1\n")
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "2", "--bs", "2",
                    "--epochs", "1", "--out-dir", str(out)])
        assert code == 1
        assert (f"error: {data}: line 3: expected 3 comma-separated values, got 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_csv_rows_unlike_the_header_fail(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,component\n0,0,0,1\n1,1,1,1\n")
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "2", "--bs", "2",
                    "--epochs", "1", "--out-dir", str(out)])
        assert code == 1
        assert f"error: {data}: rows have 4 columns, header implies 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("labels, message", [
        (b"abc", "header truncated at byte 3 (need 8)"),
        (struct.pack(">II", 0x803, 4) + bytes(4), "bad magic 0x00000803 at byte 0 "
                                                  "(expected 0x00000801)"),
        (struct.pack(">II", 0x801, 4) + bytes(3), "expected 12 bytes, found 11")],
        ids=["truncated", "magic", "size"])
    def test_bad_idx_label_file_fails(self, tmp_path, capsys, labels, message):
        from neuralbayes import data as D
        D.write_idx(np.zeros((4, 4, 4), np.uint8), np.zeros(4, np.uint8),
                    tmp_path / "i.idx", tmp_path / "good.idx")
        (tmp_path / "l.idx").write_bytes(labels)
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(tmp_path / "i.idx"),
                    "--labels", str(tmp_path / "l.idx"), "--mbs", "2", "--bs", "2",
                    "--epochs", "1", "--out-dir", str(out)])
        assert code == 1
        assert f"error: {tmp_path / 'l.idx'}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_schedule_fails(self, tmp_path, tiny_run):
        data, _ = tiny_run
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "60",
                    "--epochs", "1", "--out-dir", str(tmp_path / "o2")])
        assert code == 1

    def test_early_stopping_split(self, tmp_path, tiny_run):
        data, _ = tiny_run
        out = tmp_path / "es"
        code = run(["train-dml", "--data", str(data), "--mbs", "20", "--bs", "20",
                    "--epochs", "40", "--seed", "1", "--stop-split", "0.2",
                    "--patience", "2", "--out-dir", str(out)])
        assert code == 0
        records = (out / "train_log.jsonl").read_text().splitlines()
        # 96 training points -> 4 updates/epoch; patience 2 stops well short of 40 epochs
        assert len(records) < 160

    @pytest.mark.parametrize("flags, message", [
        (["--stop-split", "1.5"], "--stop-split must lie in [0, 1), got 1.5"),
        (["--stop-split", "-0.1"], "--stop-split must lie in [0, 1), got -0.1"),
        (["--k", "1"], "every id must lie in [0, 1)"),
        (["--patience", "-3"], "patience must be at least 1")])   # checked without a split
    def test_failed_run_leaves_no_directory(self, tmp_path, tiny_run, capsys, flags, message):
        data, _ = tiny_run
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--epochs", "1", *flags, "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "-1"], "learning rate must be finite and > 0, got -1.0"),
        (["--weight-decay", "-1"], "weight decay must be finite and >= 0, got -1.0")])
    def test_bad_adam_setting_exits_1_without_directory(self, tmp_path, capsys, flags, message):
        data = tmp_path / "b.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "30", "--seed", "4",
             "--out", str(data)])
        out = tmp_path / "o"
        code = run(["train-mim", "--data", str(data), "--mbs", "30", "--bs", "30", "--epochs", "2",
                    "--hidden", "16", *flags, "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, message", [
        ({"stop-split": 1.5}, "--stop-split must lie in [0, 1), got 1.5"),
        ({"bs": 60}, "BS must be a multiple of MBS, got MBS=40, BS=60"),
        ({"lr": -1}, "learning rate must be finite and > 0, got -1.0"),
        ({"stop-split": 0.5, "patience": 0}, "patience must be at least 1"),
        ({"beta": -1}, "beta must be nonnegative"),
        ({"beta": "nan"}, "beta must be nonnegative and finite, got nan"),
        ({"beta": "inf"}, "beta must be nonnegative and finite, got inf")])
    def test_bad_last_sweep_entry_fails_before_the_first_run(self, tmp_path, tiny_run, capsys,
                                                             entry, message):
        data, _ = tiny_run
        cfg, sweep = tmp_path / "cfg.json", tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"mbs": 40, "bs": 40, "epochs": 1}))
        sweep.write_text(json.dumps([{"beta": 1}, entry]))
        out = tmp_path / "o"
        code = run(["train-dml", "--data", str(data), "--config", str(cfg), "--sweep", str(sweep),
                    "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "sweep000").exists()


    @pytest.mark.parametrize("command, kind, dim, entry, message", [
        ("train-dml", "moons", 2, {"k": 1}, "every id must lie in [0, 1)"),
        ("train-mim", "blobs", 10, {"arch": "cnn"},
         "arch cnn needs square images; dimension 10 is not a perfect square"),
        ("train-dml", "moons", 2, {"mbs": 400, "bs": 400},
         "dataset of 120 samples cannot fill one mini-batch of 400"),
        ("train-dml", "moons", 2, {"stop-split": 0.7},   # 84 of the 120 rows held out
         "dataset of 36 samples cannot fill one mini-batch of 40")])
    def test_data_checks_run_before_the_first_run(self, tmp_path, capsys, command, kind, dim,
                                                  entry, message):
        data, cfg, sweep = tmp_path / "d.csv", tmp_path / "cfg.json", tmp_path / "sweep.json"
        run(["gen-data", "--kind", kind, "--k", "3", "--n", "60" if kind == "moons" else "40",
             "--dim", str(dim), "--seed", "4", "--out", str(data)])
        cfg.write_text(json.dumps({"mbs": 40, "bs": 40, "epochs": 1}))
        sweep.write_text(json.dumps([{}, entry]))
        out = tmp_path / "o"
        extra = ["--hidden", "8"] if command == "train-mim" else []
        code = run([command, "--data", str(data), "--config", str(cfg), *extra,
                    "--sweep", str(sweep), "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_cnn_arch_in_a_later_entry_fails_before_the_first_run(self, tmp_path, capsys):
        data, cfg, sweep = tmp_path / "d.csv", tmp_path / "cfg.json", tmp_path / "sweep.json"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--dim", "64",
             "--seed", "4", "--out", str(data)])
        cfg.write_text(json.dumps({"arch": "cnn", "mbs": 20, "bs": 20, "epochs": 1}))
        sweep.write_text(json.dumps([{}, {"cnn-arch": "C(4,3,1,0)-P(2,2,0)"}]))
        out = tmp_path / "o"
        code = run(["train-mim", "--data", str(data), "--config", str(cfg), "--sweep", str(sweep),
                    "--out-dir", str(out)])
        assert code == 1
        assert "'P(2,2,0)' takes 4 arguments, got 3" in capsys.readouterr().err
        assert not (out / "sweep000").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"beta": -1}, "alpha and beta must be nonnegative"),
        ({"alpha": -1}, "alpha and beta must be nonnegative"),
        ({"hidden": [8, 0]}, "hidden width 0 is not a positive number of units"),
        ({"beta": "nan"}, "got alpha=2.0, beta=nan"),
        ({"alpha": "-inf"}, "got alpha=-inf, beta=4.0")])
    def test_bad_mim_setting_in_a_later_entry_fails_before_the_first_run(self, tmp_path, capsys,
                                                                        entry, message):
        data, cfg, sweep = tmp_path / "d.csv", tmp_path / "cfg.json", tmp_path / "sweep.json"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--seed", "4",
             "--out", str(data)])
        cfg.write_text(json.dumps({"mbs": 20, "bs": 20, "epochs": 1, "hidden": [8]}))
        sweep.write_text(json.dumps([{}, entry]))
        out = tmp_path / "o"
        code = run(["train-mim", "--data", str(data), "--config", str(cfg), "--sweep", str(sweep),
                    "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "sweep000").exists()

    @pytest.mark.parametrize("flags", [["--beta", "nan"], ["--alpha", "nan"]])
    def test_nan_mim_weight_flag_exits_1_without_directory(self, tmp_path, capsys, flags):
        data = tmp_path / "b.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--seed", "4",
             "--out", str(data)])
        out = tmp_path / "o"
        code = run(["train-mim", "--data", str(data), "--mbs", "20", "--bs", "20", "--epochs", "1",
                    "--hidden", "8", *flags, "--out-dir", str(out)])
        assert code == 1
        assert "alpha and beta must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_loads_the_data_once(self, tmp_path, tiny_run, monkeypatch):
        from neuralbayes import data as D
        data, _ = tiny_run
        loads, real = [], D.load_csv
        monkeypatch.setattr(D, "load_csv", lambda *a, **kw: loads.append(1) or real(*a, **kw))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"epochs": 1}, {"epochs": 1, "beta": 1}]))
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--sweep", str(sweep), "--out-dir", str(tmp_path / "o")])
        assert code == 0 and loads == [1]

    def test_non_finite_loss_exits_1_before_any_artifact(self, tmp_path, tiny_run, monkeypatch,
                                                          capsys):
        from neuralbayes import dml
        from neuralbayes.tensor import Tensor
        make = dml.make_dml_objective

        def make_poisoned(cfg):
            objective, calls = make(cfg), [0]

            def poisoned(net, xb, rng, mode="train"):
                loss, terms = objective(net, xb, rng, mode)
                calls[0] += 1
                if calls[0] == 2:
                    loss = Tensor._from_op(np.array(np.inf), (loss,), "poison")
                    loss._backward = lambda g: None
                return loss, terms

            return poisoned

        monkeypatch.setattr(dml, "make_dml_objective", make_poisoned)
        data, _ = tiny_run
        out = tmp_path / "nan"
        code = run(["train-dml", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--epochs", "3", "--seed", "1", "--out-dir", str(out)])
        assert code == 1
        assert "loss is inf at update step 2" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("kind", ["dml", "mim"])
    def test_holdout_evaluation_moves_nothing(self, kind):
        import argparse
        from neuralbayes import dml, mim, nn
        points = np.random.default_rng(2).standard_normal((60, 3))
        net = nn.build_mlp(3, [6, 5], 2 if kind == "dml" else None, seed=3, batchnorm=True)
        for layer in net.layers:
            if isinstance(layer, nn.BatchNormLayer):
                layer.running_mean = np.full(layer.features, 0.3)
                layer.running_var = np.full(layer.features, 2.0)
        base = (dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=1.0)) if kind == "dml"
                else mim.make_mim_objective(mim.MimConfig(alpha=1.0, beta=1.0)))
        seen = []

        def spy(net, xb, rng, mode="train"):
            loss, terms = base(net, xb, rng, mode)
            seen.append((mode, loss.requires_grad))
            return loss, terms

        args = argparse.Namespace(stop_split=0.25, patience=3)
        keep, callback = cli._stopping_split(args, points, spy, seed=4, mbs=6)
        assert keep.shape == (45, 3)
        before = {k: b.copy() for k, b in net.buffers().items()}
        assert callback(0, net) is False
        # 15 held-out rows in groups of 5: batch statistics, nothing recorded
        assert seen == [("batch", False)] * 3
        for name, b in net.buffers().items():
            assert b.tobytes() == before[name].tobytes(), name

    def test_holdout_peak_does_not_grow_with_the_split(self):
        import argparse
        import tracemalloc
        from neuralbayes import dml, nn
        net = nn.build_mlp(16, [64, 64], 2, seed=5, batchnorm=True, softmax_head=True)
        objective = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=1.0))
        rng = np.random.default_rng(6)
        peak = {}
        for n in (400, 1600):
            args = argparse.Namespace(stop_split=0.5, patience=3)
            _, callback = cli._stopping_split(args, rng.standard_normal((n, 16)), objective,
                                              seed=7, mbs=100)
            tracemalloc.start()
            try:
                callback(0, net)
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peak[1600] - peak[400]) <= 0.1 * peak[400], peak


class TestConfigIsFlags:
    """A ``--config`` object or ``--sweep`` entry is parsed as the flags it
    names, so its values meet the same types and choices."""

    @pytest.mark.parametrize("via", ["config", "sweep"])
    @pytest.mark.parametrize("command, cfg, flag", [
        ("train-dml", {"k": 2.5}, "--k"), ("train-mim", {"scales": "maybe"}, "--scales"),
        ("train-dml", {"arch": "foo"}, "--arch"), ("train-dml", {"beta": True}, "--beta"),
        ("train-dml", {"beta": None}, "--beta")])
    def test_value_its_flag_rejects_is_a_usage_error(self, tmp_path, tiny_run, capsys, via,
                                                     command, cfg, flag):
        data, _ = tiny_run
        path = tmp_path / "cfg.json"
        # in a sweep, the bad entry is the second: no entry runs before it is parsed
        path.write_text(json.dumps(cfg if via == "config" else [{"epochs": 1}, cfg]))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run([command, "--data", str(data), "--mbs", "40", "--bs", "40", f"--{via}", str(path),
                 "--out-dir", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_config_and_flags_give_identical_runs(self, tmp_path):
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "40", "--seed", "4",
             "--out", str(data)])
        common = ["train-mim", "--data", str(data), "--mbs", "40", "--bs", "40", "--epochs", "2",
                  "--seed", "0"]
        cfg = _write_cfg(tmp_path, {"hidden": [16, 16], "weight-decay": 0.01})
        assert run([*common, "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        assert run([*common, "--hidden", "16", "16", "--weight-decay", "0.01",
                    "--out-dir", str(tmp_path / "b")]) == 0
        resolved = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        assert resolved["hidden"] == [16, 16] and resolved["weight-decay"] == 0.01
        for name in ("resolved_config.json", "checkpoint.json", "checkpoint.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_precedence_preset_config_sweep_entry_flag(self, tmp_path):
        cfg, sweep, out = tmp_path / "cfg.json", tmp_path / "sweep.json", tmp_path / "o"
        cfg.write_text(json.dumps({"beta": 3, "mbs": 100, "epochs": 7}))
        sweep.write_text(json.dumps([{"mbs": 50, "epochs": 5}, {"epochs": 6}]))
        argv = ["train-dml", "--preset", "mnist-cnn", "--data", "d.csv", "--config", str(cfg),
                "--sweep", str(sweep), "--epochs", "4", "--out-dir", str(out)]
        parser = cli.build_parser()
        runs = cli._training_runs(parser, parser.parse_args(argv), argv)
        # k and bs from the preset, beta from the config, mbs from the entry, epochs from the flag
        assert [(r.k, r.beta, r.mbs, r.bs, r.epochs, r.out_dir) for r in runs] == [
            (10, 3.0, 50, 5000, 4, str(out / "sweep000")),
            (10, 3.0, 100, 5000, 4, str(out / "sweep001"))]
        assert not out.exists()


# the terms each objective reports, in order, without and with smoothness
TERM_NAMES = {("train-dml", False): ["js_loss", "total"],
              ("train-dml", True): ["js_loss", "smooth", "total"],
              ("train-mim", False): ["mi", "prior", "total"],
              ("train-mim", True): ["mi", "prior", "smooth", "total"]}


class TestObjectiveTerms:
    """Each objective reports the terms it computes, by name, and no others."""

    @pytest.mark.parametrize("command, smooth", list(TERM_NAMES))
    def test_closure_terms(self, command, smooth):
        from neuralbayes import dml, mim, nn
        from neuralbayes.tensor import Tensor
        beta = 1.0 if smooth else 0.0
        if command == "train-dml":
            net = nn.build_mlp(2, [8], 2, seed=1, batchnorm=True, softmax_head=True)
            objective = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=beta))
        else:
            net = nn.build_mlp(2, [8, 8], out_units=None, seed=1)
            objective = mim.make_mim_objective(mim.MimConfig(alpha=1.0, beta=beta))
        xb = Tensor(np.random.default_rng(0).standard_normal((16, 2)))
        loss, terms = objective(net, xb, np.random.default_rng(1))
        assert list(terms) == TERM_NAMES[command, smooth]
        assert terms["total"] == loss.item()

    @pytest.mark.parametrize("command, smooth", list(TERM_NAMES))
    def test_run_logs_terms(self, tmp_path, command, smooth):
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "moons", "--n", "40", "--seed", "4", "--out", str(data)])
        out = tmp_path / "o"
        extra = ["--hidden", "8"] if command == "train-mim" else []
        assert run([command, "--data", str(data), "--mbs", "40", "--bs", "40", "--epochs", "2",
                    "--beta", "1" if smooth else "0", *extra, "--out-dir", str(out)]) == 0
        names = TERM_NAMES[command, smooth]
        records = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
        assert len(records) == 4
        assert all(set(r) == {"step", *names} for r in records)
        rows = [row.split(",") for row in (out / "metrics.csv").read_text().splitlines()]
        assert rows[0] == ["step", "term", "value"]
        assert [(int(step), term, float(value)) for step, term, value in rows[1:]] == [
            (r["step"], name, r[name]) for r in records for name in names]


class TestProbeAndGrid:
    def test_probe_runs_and_leaves_checkpoint(self, tiny_run, capsys):
        data, out_dir = tiny_run
        before = (out_dir / "checkpoint.bin").read_bytes()
        code = run(["probe", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(data), "--layer", "h1", "--epochs", "3", "--seed", "0"])
        assert code == 0
        assert "probe accuracy at tap h1" in capsys.readouterr().out
        assert (out_dir / "checkpoint.bin").read_bytes() == before

    def test_probe_negative_labels_exit_1(self, tiny_run, tmp_path, capsys):
        data, out_dir = tiny_run
        rows = data.read_text().splitlines()
        bad = tmp_path / "neg.csv"
        bad.write_text("\n".join([rows[0], *(r.rsplit(",", 1)[0] + ",-1" for r in rows[1:])])
                       + "\n")
        code = run(["probe", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(bad), "--epochs", "1"])
        assert code == 1
        assert "labels must be nonnegative" in capsys.readouterr().err

    def test_probe_non_finite_loss_exit_1(self, tiny_run, capsys):
        # 45 training rows make one mini-batch per epoch
        data, out_dir = tiny_run
        with np.errstate(all="ignore"):
            code = run(["probe", "--checkpoint", str(out_dir / "checkpoint"),
                        "--data", str(data), "--epochs", "3", "--lr", "1e300", "--seed", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: loss is nan at update step 2 (epoch 1, mini-batch 0)" in captured.err
        assert "probe accuracy" not in captured.out

    def test_probe_unknown_tap_lists_options(self, tiny_run, capsys):
        data, out_dir = tiny_run
        code = run(["probe", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(data), "--layer", "h9"])
        assert code == 1
        assert "unknown tap" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_probe_without_epochs_is_usage_error(self, tiny_run, capsys, epochs):
        data, out_dir = tiny_run
        with pytest.raises(SystemExit) as exc:
            run(["probe", "--checkpoint", str(out_dir / "checkpoint"), "--data", str(data),
                 "--epochs", epochs])
        assert exc.value.code == 2
        assert f"must be a positive integer, got {epochs}" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden", ["0", "-1"])
    def test_probe_without_hidden_units_is_usage_error(self, tiny_run, capsys, hidden):
        data, out_dir = tiny_run
        with pytest.raises(SystemExit) as exc:
            run(["probe", "--checkpoint", str(out_dir / "checkpoint"), "--data", str(data),
                 "--hidden", hidden])
        assert exc.value.code == 2
        assert f"must be a positive integer, got {hidden}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["probe", "export-grid"])
    def test_data_narrower_than_the_dense_checkpoint_exit_1(self, tiny_run, tmp_path, capsys,
                                                            command):
        data, _ = tiny_run
        wide = tmp_path / "wide.csv"
        run(["gen-data", "--kind", "moons", "--n", "30", "--dim", "64", "--seed", "5",
             "--out", str(wide)])
        assert run(["train-dml", "--data", str(wide), "--mbs", "30", "--bs", "30",
                    "--epochs", "1", "--seed", "1", "--out-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        grid = tmp_path / "grid.csv"
        outputs = {"probe": [], "export-grid": ["--out", str(grid)]}[command]
        code = run([command, "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                    "--data", str(data), *outputs])
        assert code == 1
        assert ("error: the checkpoint's dense layer 0 needs 64-D rows; the data are 2-D"
                in capsys.readouterr().err)
        assert not grid.exists()

    def test_export_grid_on_cnn_checkpoint_exits_1(self, tiny_run, tmp_path, capsys):
        moons, _ = tiny_run
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--dim", "64",
             "--seed", "4", "--out", str(data)])
        out_dir = tmp_path / "cnn"
        cfg = {"arch": "cnn", "cnn-arch": "C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)"}
        assert run(["train-mim", "--data", str(data), "--mbs", "20", "--bs", "20",
                    "--epochs", "1", "--beta", "0.5", "--seed", "0", "--out-dir", str(out_dir),
                    "--config", str(_write_cfg(tmp_path, cfg))]) == 0
        capsys.readouterr()
        grid = tmp_path / "grid.csv"
        code = run(["export-grid", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(moons), "--out", str(grid)])
        assert code == 1
        assert ("error: the checkpoint's conv layer 0 needs square images; dimension 2 is "
                "not a perfect square" in capsys.readouterr().err)
        assert not grid.exists()

    def test_export_grid_rows(self, tiny_run, tmp_path):
        data, out_dir = tiny_run
        grid = tmp_path / "grid.csv"
        code = run(["export-grid", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(data), "--resolution", "20", "--out", str(grid)])
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == "x,y,argmax_label,max_prob"
        assert len(lines) == 401

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_export_grid_without_resolution_is_usage_error(self, tiny_run, tmp_path, capsys,
                                                          resolution):
        data, out_dir = tiny_run
        grid = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as exc:
            run(["export-grid", "--checkpoint", str(out_dir / "checkpoint"), "--data", str(data),
                 "--resolution", resolution, "--out", str(grid)])
        assert exc.value.code == 2
        assert f"must be a positive integer, got {resolution}" in capsys.readouterr().err
        assert not grid.exists()

    @pytest.mark.parametrize("command", ["probe", "export-grid"])
    def test_malformed_checkpoint_exits_1(self, tiny_run, tmp_path, capsys, command):
        data, out_dir = tiny_run
        manifest = json.loads((out_dir / "checkpoint.json").read_text())
        del manifest["architecture"]["layers"][0]["out_dim"]
        (tmp_path / "checkpoint.json").write_text(json.dumps(manifest))
        (tmp_path / "checkpoint.bin").write_bytes((out_dir / "checkpoint.bin").read_bytes())
        extra = ["--out", str(tmp_path / "grid.csv")] if command == "export-grid" else []
        code = run([command, "--checkpoint", str(tmp_path / "checkpoint"), "--data", str(data),
                    *extra])
        assert code == 1
        assert "checkpoint manifest" in capsys.readouterr().err
        # a tap, or an integer layer argument, that is not a JSON integer
        from neuralbayes import nn
        cnn = nn.build_cnn(cli.TRAINING_DEFAULTS["train-mim"]["cnn-arch"], (1, 8, 8), seed=0)
        nn.save_checkpoint(cnn, tmp_path / "cnn")

        def pool_kernel(m):
            assert m["architecture"]["layers"][3]["type"] == "maxpool"
            m["architecture"]["layers"][3]["kernel"] = "2"

        for stem, edit, message in [
                (out_dir / "checkpoint", lambda m: m["architecture"].update(taps=["a"]),
                 "checkpoint tap 'a' is not an integer layer index"),
                (out_dir / "checkpoint", lambda m: m["architecture"].update(taps=[2.5]),
                 "checkpoint tap 2.5 is not an integer layer index"),
                (tmp_path / "cnn", pool_kernel,
                 "checkpoint layer 3 (maxpool) needs an integer kernel, got '2'")]:
            manifest = json.loads(stem.with_suffix(".json").read_text())
            edit(manifest)
            (tmp_path / "checkpoint.json").write_text(json.dumps(manifest))
            (tmp_path / "checkpoint.bin").write_bytes(stem.with_suffix(".bin").read_bytes())
            code = run([command, "--checkpoint", str(tmp_path / "checkpoint"),
                        "--data", str(data), *extra])
            assert code == 1
            assert f"error: {message}" in capsys.readouterr().err

    def test_checkpoint_manifest_not_json_exits_1(self, tiny_run, tmp_path, capsys):
        data, out_dir = tiny_run
        (tmp_path / "checkpoint.json").write_text("not json")
        (tmp_path / "checkpoint.bin").write_bytes((out_dir / "checkpoint.bin").read_bytes())
        code = run(["probe", "--checkpoint", str(tmp_path / "checkpoint"), "--data", str(data),
                    "--epochs", "1"])
        assert code == 1
        assert (f"error: checkpoint manifest {tmp_path / 'checkpoint.json'} is not valid JSON"
                in capsys.readouterr().err)

    def test_checkpoint_binary_with_trailing_bytes_exits_1(self, tiny_run, tmp_path, capsys):
        data, out_dir = tiny_run
        raw = (out_dir / "checkpoint.bin").read_bytes()
        (tmp_path / "checkpoint.json").write_text((out_dir / "checkpoint.json").read_text())
        (tmp_path / "checkpoint.bin").write_bytes(raw + b"abc")
        code = run(["probe", "--checkpoint", str(tmp_path / "checkpoint"), "--data", str(data),
                    "--epochs", "1"])
        assert code == 1
        assert (f"error: checkpoint binary has 3 trailing bytes at offset {len(raw)}"
                in capsys.readouterr().err)

    def test_export_grid_handles_lifted_data(self, tmp_path):
        data = tmp_path / "lift.csv"
        run(["gen-data", "--kind", "moons", "--n", "40", "--dim", "8", "--seed", "2",
             "--out", str(data)])
        out_dir = tmp_path / "r"
        run(["train-dml", "--data", str(data), "--mbs", "20", "--bs", "20",
             "--epochs", "2", "--seed", "0", "--out-dir", str(out_dir)])
        grid = tmp_path / "g.csv"
        assert run(["export-grid", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(data), "--resolution", "10", "--out", str(grid)]) == 0
        assert len(grid.read_text().splitlines()) == 101

    def test_export_grid_standardizes_raw_data_with_its_own_statistics(self, tmp_path):
        # a CSV without metadata is raw: the grid spans the raw points and goes
        # through the network standardized with their mean and std
        from neuralbayes import data as D, nn, train
        moons = D.make_two_moons(30, seed=8)
        raw = D.ManifoldDataset(moons.points * 3.0 + 5.0, moons.components)
        data, out_dir, grid = tmp_path / "raw.csv", tmp_path / "r", tmp_path / "g.csv"
        D.save_csv(raw, data)
        assert run(["train-dml", "--data", str(data), "--mbs", "20", "--bs", "20",
                    "--epochs", "2", "--seed", "0", "--out-dir", str(out_dir)]) == 0
        assert run(["export-grid", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(data), "--resolution", "7", "--out", str(grid)]) == 0
        rows = np.loadtxt(grid, delimiter=",", skiprows=1)
        lo, hi = raw.points.min(axis=0), raw.points.max(axis=0)
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 7), np.linspace(lo[1], hi[1], 7),
                             indexing="ij")
        xy = np.column_stack([gx.ravel(), gy.ravel()])
        net = nn.load_checkpoint(out_dir / "checkpoint")
        mean, std = raw.points.mean(axis=0), raw.points.std(axis=0)
        want = train.extract_features(net, (xy - mean) / std, tap="out")
        np.testing.assert_array_equal(rows[:, :2], xy)
        np.testing.assert_array_equal(rows[:, 2], want.argmax(axis=1))
        np.testing.assert_array_equal(rows[:, 3], want.max(axis=1))
        unscaled = train.extract_features(net, xy, tap="out")
        assert not np.array_equal(rows[:, 3], unscaled.max(axis=1))

    def test_export_grid_on_3d_data_without_lift_exits_1(self, tiny_run, tmp_path, capsys):
        from neuralbayes import data as D
        _, out_dir = tiny_run
        data, grid = tmp_path / "d3.csv", tmp_path / "g.csv"
        points = np.random.default_rng(9).standard_normal((10, 3))
        D.save_csv(D.ManifoldDataset(points, np.repeat([0, 1], 5)), data)
        code = run(["export-grid", "--checkpoint", str(out_dir / "checkpoint"),
                    "--data", str(data), "--out", str(grid)])
        assert code == 1
        assert "grid export needs 2-D data or stored lift metadata" in capsys.readouterr().err
        assert not grid.exists()


class TestGradcheckCommand:
    def test_single_case_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["gradcheck", "--seed", "3", "--cases", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True and len(payload["results"]) == 1

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_no_cases_is_usage_error(self, tmp_path, capsys, cases):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["gradcheck", "--cases", cases, "--out", str(out)])
        assert exc.value.code == 2
        assert f"must be a positive integer, got {cases}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_goes_to_stdout_without_out(self, capsys):
        code = run(["gradcheck", "--seed", "3", "--cases", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True and len(payload["results"]) == 1

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gradcheck", "--seed", "3", "--cases", "2", "--out", str(a)])
        run(["gradcheck", "--seed", "3", "--cases", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_control_reports_failure(self, tmp_path, capsys):
        out = tmp_path / "neg.json"
        code = run(["gradcheck", "--seed", "3", "--cases", "2",
                    "--negative-control", "--out", str(out)])
        payload = json.loads(out.read_text())
        # blocking the live branch breaks the equality: every case must show it
        assert all(r["max_rel_diff"] > 1e-2 for r in payload["results"])
        assert payload["pass"] is False and code == 1
        assert "FAILED cases: [0, 1]" in capsys.readouterr().err

    def test_train_mim_runs(self, tmp_path):
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "40", "--seed", "4",
             "--out", str(data)])
        out_dir = tmp_path / "mim"
        code = run(["train-mim", "--data", str(data), "--mbs", "40", "--bs", "40",
                    "--epochs", "2", "--alpha", "1", "--beta", "0.5", "--seed", "0",
                    "--out-dir", str(out_dir),
                    "--config", str(_write_cfg(tmp_path, {"hidden": [16, 16]}))])
        assert code == 0
        log = (out_dir / "train_log.jsonl").read_text().splitlines()
        assert len(log) == 6  # 120 points / mbs 40 = 3 updates per epoch, 2 epochs
        first = json.loads(log[0])
        assert {"step", "mi", "prior", "smooth", "total"} == set(first)

    def test_train_mim_conv_on_idx_images(self, tmp_path):
        from neuralbayes import data as D
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (40, 8, 8), dtype=np.uint8)
        labels = rng.integers(0, 3, 40).astype(np.uint8)
        D.write_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        out_dir = tmp_path / "conv"
        code = run(["train-mim", "--data", str(tmp_path / "i.idx"),
                    "--labels", str(tmp_path / "l.idx"),
                    "--mbs", "20", "--bs", "20", "--epochs", "1", "--beta", "0.5",
                    "--scales", "on", "--seed", "0", "--out-dir", str(out_dir),
                    "--config", str(_write_cfg(tmp_path, {"arch": "cnn"}))])
        assert code == 0
        assert (out_dir / "checkpoint.bin").exists()

    def test_probe_on_cnn_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--dim", "64",
             "--seed", "4", "--out", str(data)])
        out_dir = tmp_path / "cnn"
        cfg = {"arch": "cnn", "cnn-arch": "C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)"}
        assert run(["train-mim", "--data", str(data), "--mbs", "20", "--bs", "20",
                    "--epochs", "1", "--beta", "0.5", "--seed", "0", "--out-dir", str(out_dir),
                    "--config", str(_write_cfg(tmp_path, cfg))]) == 0
        code = run(["probe", "--checkpoint", str(out_dir / "checkpoint"), "--data", str(data),
                    "--hidden", "8", "--epochs", "2", "--seed", "0"])
        assert code == 0
        assert "probe accuracy at tap last" in capsys.readouterr().out

    def test_cnn_arch_on_non_square_data_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--dim", "10",
             "--seed", "4", "--out", str(data)])
        out_dir = tmp_path / "cnn"
        code = run(["train-mim", "--data", str(data), "--mbs", "20", "--bs", "20",
                    "--epochs", "1", "--seed", "0", "--out-dir", str(out_dir),
                    "--config", str(_write_cfg(tmp_path, {"arch": "cnn"}))])
        assert code == 1
        err = capsys.readouterr().err
        assert "arch cnn needs square images; dimension 10 is not a perfect square" in err
        assert not out_dir.exists()

    def test_malformed_cnn_token_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(["gen-data", "--kind", "blobs", "--k", "3", "--n", "20", "--dim", "64",
             "--seed", "4", "--out", str(data)])
        out_dir = tmp_path / "cnn"
        cfg = {"arch": "cnn", "cnn-arch": "C(4,3,1,0)-P(2,2,0)"}
        code = run(["train-mim", "--data", str(data), "--mbs", "20", "--bs", "20",
                    "--epochs", "1", "--seed", "0", "--out-dir", str(out_dir),
                    "--config", str(_write_cfg(tmp_path, cfg))])
        assert code == 1
        assert "'P(2,2,0)' takes 4 arguments, got 3" in capsys.readouterr().err
        for arch, message in [("C(4,3,1,0", "malformed architecture token 'C(4,3,1,0'"),
                              ("C(4,3,1,0)-P(.,.,.,max)",
                               "global pooling is only defined for avg mode"),
                              ("C(4,3,1,0)-P(2,2,0,min)", "unknown pool mode 'min'")]:
            cfg = {"arch": "cnn", "cnn-arch": arch}
            code = run(["train-mim", "--data", str(data), "--mbs", "20", "--bs", "20",
                        "--epochs", "1", "--seed", "0", "--out-dir", str(out_dir),
                        "--config", str(_write_cfg(tmp_path, cfg))])
            assert code == 1
            assert f"error: {message}" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_train_dml_mnist_cnn_preset_on_idx_images(self, tmp_path):
        # the preset scores k = 10 clusters, beyond any permutation search
        from neuralbayes import data as D
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (40, 28, 28), dtype=np.uint8)
        labels = np.arange(40, dtype=np.uint8) % 10
        D.write_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        out_dir = tmp_path / "preset"
        code = run(["train-dml", "--preset", "mnist-cnn", "--data", str(tmp_path / "i.idx"),
                    "--labels", str(tmp_path / "l.idx"), "--mbs", "20", "--bs", "20",
                    "--epochs", "1", "--seed", "0", "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert 0.1 <= report["cluster_accuracy"] <= 1.0

    def test_mnist_cnn_preset_head_follows_k(self, tmp_path):
        from neuralbayes import data as D
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, (30, 24, 24), dtype=np.uint8)
        labels = np.arange(30, dtype=np.uint8) % 3
        D.write_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        out_dir = tmp_path / "preset"
        code = run(["train-dml", "--preset", "mnist-cnn", "--k", "3",
                    "--data", str(tmp_path / "i.idx"), "--labels", str(tmp_path / "l.idx"),
                    "--mbs", "15", "--bs", "15", "--epochs", "1", "--seed", "0",
                    "--out-dir", str(out_dir)])
        assert code == 0
        layers = json.loads((out_dir / "checkpoint.json").read_text())["architecture"]["layers"]
        dense = [layer for layer in layers if layer["type"] == "dense"]
        assert dense[-1]["out_dim"] == 3


def _write_cfg(tmp_path, cfg):
    p = tmp_path / "mimcfg.json"
    p.write_text(json.dumps(cfg))
    return p
