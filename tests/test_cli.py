"""Command surface: flag parsing, artifacts, exit codes, decoupling."""
import ast
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse import cli
from semfuse import losses as losses_mod
from semfuse.autodiff import Tensor
from semfuse.cli import EVAL_HEADER, RunConfig, UsageError, build_parser, main, resolve
from semfuse.data import load_pair, synth_pair, write_dataset
from semfuse.errors import ContractError, NonFiniteError
from semfuse.imageio import Image, load_image, quantize, save_image
from semfuse.instrumentation import snapshot
from semfuse.losses import CSV_HEADER, loss_context
from semfuse.metrics import evaluate_triple
from semfuse.networks import StudentConfig, StudentNet, save_checkpoint
from semfuse.training import Adam, clip_global_norm


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfig:
    def test_every_run_echoes_config(self, capsys):
        # the command, then only its own keys, then the loaded BLAS
        rc, out, _ = run(capsys, "info")
        lines = out.splitlines()
        assert rc == 0
        threads = ad._blas_threads()
        assert lines[:7] == ["command=info", "no_kv=false", "no_pr=false", "no_z=false",
                             "seed=0", f"blas={ad._blas_config() or 'unknown'}",
                             f"blas_threads={'unknown' if threads is None else threads}"]
        assert lines[7].startswith("main ")

    def test_unknown_flag_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "train", "--bogus")
        assert rc == 1 and "bogus" in err

    def test_unknown_command_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1 and "frobnicate" in err

    def test_config_flag_is_a_usage_error(self, tmp_path, capsys):
        # settings come from flags only; there is no config file to read
        out = tmp_path / "run"
        rc, stdout, err = run(capsys, "train", "--synthetic", "2", "--config", "x",
                              "--out", str(out))
        assert rc == 1 and stdout == ""
        assert err.startswith("error:") and "--config" in err, err
        assert not out.exists()


ABLATION_FLAGS = {"--no-sam", "--no-z", "--no-kv", "--no-pr",
                  "--no-fea", "--no-cont", "--no-cs", "--offline"}
# every subcommand's flags, besides --help
COMMAND_FLAGS = {
    "train": {"--data", "--synthetic", "--steps", "--epochs", "--pretrain-epochs",
              "--batch", "--crop", "--lr-main", "--lr-sub", "--lr-floor", "--out", "--seed",
              "--quiet"} | ABLATION_FLAGS,
    "info": {"--no-z", "--no-kv", "--no-pr", "--seed"},
    "fuse": {"--data", "--ckpt", "--out"},
    "eval": {"--data", "--fused", "--out"},
    "gradcheck": {"--term", "--seed"},
}
FUZZ_VALUES = ["-1", "0", "1", "3", "16", "0.5", "nan", "inf", "1e999", "abc", ""]


class TestSettings:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_has_exactly_its_flags(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == COMMAND_FLAGS[command] | {"--help"}

    @pytest.mark.parametrize("argv", [
        ("train", "--synthetic", "2", "--seed", "-1"),
        ("info", "--seed", "-1"),
        ("gradcheck", "--seed", "-1"),
        ("train", "--synthetic", "-1"),
        ("train", "--synthetic", "2", "--lr-main", "nan"),
        ("train", "--synthetic", "2", "--lr-sub", "inf"),
        ("train", "--synthetic", "2", "--lr-floor", "nan"),
        ("info", "--seed", "abc"),
        ("train", "--synthetic", "2", "--batch", "1.5"),
        ("train", "--synthetic", "2", "--crop", "1e3"),
    ])
    def test_malformed_setting_exits_1_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, argv):
        def no_work(*_a, **_k):
            raise AssertionError("work started before the settings were validated")
        for name in ("synth_pair", "discover_pairs", "build_nets", "StudentNet",
                     "build_suite"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "run"
        # only train writes under --out; info and gradcheck do not take it
        rc, _, err = run(capsys, *argv, *(("--out", str(out)) if argv[0] == "train" else ()))
        key, value = argv[-2][2:].replace("-", "_"), argv[-1]
        assert rc == 1 and err.startswith("error:"), err
        assert key in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [(), ("--pretrain-epochs", "1")])
    def test_zero_step_schedule_exits_1_before_any_work(self, tmp_path, capsys,
                                                        monkeypatch, extra):
        def no_work(*_a, **_k):
            raise AssertionError("work started before the schedule was validated")
        for name in ("synth_pair", "build_nets", "StudentNet", "pretrain"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "run"
        rc, _, err = run(capsys, "train", "--synthetic", "2", "--epochs", "0",
                         "--crop", "16", *extra, "--out", str(out))
        assert rc == 1 and err.startswith("error:"), err
        assert "epochs" in err and "steps" in err
        assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_argv_resolves_or_raises_a_typed_error(self, data):
        command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
        pool = sorted(COMMAND_FLAGS[command]
                      | {"--out", "--seed", "--quiet", "--bogus", "--config"})
        argv = [command]
        for _ in range(data.draw(st.integers(0, 5))):
            flag = data.draw(st.sampled_from(pool))
            argv.append(flag)
            # a valued flag mostly gets its value; a missing one is a usage error
            if flag not in ABLATION_FLAGS | {"--quiet"} and data.draw(st.integers(0, 9)):
                argv.append(data.draw(st.sampled_from(FUZZ_VALUES)))
        try:
            cfg = resolve(build_parser().parse_args(argv))
        except (UsageError, ContractError):
            return
        assert isinstance(cfg, RunConfig)
        assert cfg.seed >= 0 and cfg.synthetic >= 0
        if command == "train":
            assert all(map(math.isfinite, (cfg.lr_main, cfg.lr_sub, cfg.lr_floor)))
            cfg.to_train_config()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_each_command_reads_its_keys(self, command):
        # every key a command takes is read on its handler's path: as cfg.<key> in the handler or a cli function it
        # passes cfg to, or through cfg.ablations() or cfg.to_train_config()
        handler, _help, keys = cli._COMMANDS[command]
        unread = set(keys) - keys_read(handler.__name__)
        assert not unread, f"{command} takes but never reads: {sorted(unread)}"


def keys_read(function: str) -> set:
    """The RunConfig keys that the cli function `function` reads on its path."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    methods = {n.name: n for n in config.body if isinstance(n, ast.FunctionDef)}
    settings = {f.name for f in fields(RunConfig)}
    read, seen = set(), set()

    def walk(fn, var):
        if (fn.name, var) in seen:
            return
        seen.add((fn.name, var))
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == var):
                if node.attr == "ablations":            # reads every Ablations field
                    read.update(f.name for f in fields(cli.Ablations))
                elif node.attr in methods:
                    walk(methods[node.attr], "self")
                elif node.attr in settings:
                    read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions):
                callee = functions[node.func.id]
                for arg, param in zip(node.args, callee.args.args):
                    if isinstance(arg, ast.Name) and arg.id == var:
                        walk(callee, param.arg)

    walk(functions[function], "cfg")
    return read


def train_args(out, *extra):
    return ("train", "--synthetic", "2", "--steps", "2", "--batch", "2",
            "--crop", "16", "--seed", "5", "--out", str(out), "--quiet", *extra)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPairWorkerLifecycle:
    """A two-worker `semfuse train` forks a pair worker per pass and leaves
    no process behind, whether it succeeds, aborts or loses the worker."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)

    def test_run_reaps_its_worker(self, tmp_path, capsys, monkeypatch):
        # the pid of every process that computes a fea term, in a file
        pids, real = tmp_path / "pids", losses_mod.loss_fea

        def fea(*a, **k):
            with open(pids, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real(*a, **k)

        monkeypatch.setattr(losses_mod, "loss_fea", fea)
        rc, _, err = run(capsys, *train_args(tmp_path / "run"))
        assert rc == 0 and err == ""
        assert len(set(pids.read_text().split())) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("parent_fails", [True, False])
    def test_abort_exits_2_naming_the_first_failing_pair(self, tmp_path, capsys, monkeypatch,
                                                         parent_fails):
        # pair 0 runs here and pair 1 in the worker, which fails first in
        # time; pair 0's failure, when it comes, is the one named
        parent, real = os.getpid(), losses_mod.loss_fea

        def fea(*a, **k):
            if os.getpid() != parent:
                raise NonFiniteError("pair 1")
            if parent_fails:
                time.sleep(0.2)
                raise NonFiniteError("pair 0")
            return real(*a, **k)

        monkeypatch.setattr(losses_mod, "loss_fea", fea)
        rc, _, err = run(capsys, *train_args(tmp_path / "run"))
        assert rc == 2 and err.startswith("numerical abort:") and "fea" in err
        assert ("pair 0" if parent_fails else "pair 1") in err
        assert_no_child_left()

    def test_killed_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        parent, real = os.getpid(), losses_mod.loss_fea

        def fea(*a, **k):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*a, **k)

        monkeypatch.setattr(losses_mod, "loss_fea", fea)
        rc, _, err = run(capsys, *train_args(tmp_path / "run"))
        assert rc == 1
        assert err == f"error: the pair worker ended in the middle of a phase (signal {signal.SIGKILL})\n"
        assert_no_child_left()


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc, stdout, _ = run(capsys, *train_args(out))
        assert rc == 0
        assert (out / "main.ckpt").exists()
        assert (out / "sub.ckpt").exists()
        lines = (out / "train.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert "checksum=" in stdout

    def test_deterministic_artifacts(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc, _, _ = run(capsys, *train_args(out))
            assert rc == 0
            blobs.append(((out / "main.ckpt").read_bytes(),
                          (out / "sub.ckpt").read_bytes(),
                          (out / "train.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_offline_completes_with_double_rows(self, tmp_path, capsys):
        out = tmp_path / "off"
        rc, _, _ = run(capsys, *train_args(out, "--offline"))
        assert rc == 0
        lines = (out / "train.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + teacher phase + student phase

    def test_progress_lines_without_quiet(self, tmp_path, capsys):
        rc = main(["train", "--synthetic", "2", "--steps", "1", "--batch", "2",
                   "--crop", "16", "--out", str(tmp_path / "p")])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"^step=1 Lds=\S+ Ldm=\S+ lr_m=\S+ lr_s=\S+$", out, re.M)

    def test_numerical_abort_exits_2(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise NonFiniteError("synthetic blowup")

        monkeypatch.setattr(losses_mod, "loss_fea", boom)
        rc, _, err = run(capsys, *train_args(tmp_path / "x"))
        assert rc == 2
        assert "fea" in err

    def test_missing_data_dir_exits_1(self, tmp_path, capsys):
        rc, _, err = run(capsys, "train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_orphan_pairs_listed(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, 1, h=16, w=16, seed=0)
        save_image(Image(np.zeros((16, 16))), data / "stray.vis.pgm")
        rc, _, err = run(capsys, "train", "--data", str(data),
                         "--out", str(tmp_path / "o"))
        assert rc == 1 and "stray" in err

    def test_synthetic_and_data_conflict(self, tmp_path, capsys):
        rc, _, err = run(capsys, "train", "--synthetic", "2",
                         "--data", str(tmp_path))
        assert rc == 1 and "exclusive" in err


@pytest.fixture()
def trained_student_dir(tmp_path):
    """Checkpoint directory with a freshly initialized default student."""
    run_dir = tmp_path / "ckpt"
    run_dir.mkdir()
    student = StudentNet(StudentConfig(), seed=3)
    save_checkpoint(run_dir / "sub.ckpt", student)
    return run_dir


class TestFuse:
    def test_outputs_and_decoupling(self, tmp_path, capsys, trained_student_dir):
        data = tmp_path / "data"
        write_dataset(data, 2, h=16, w=16, seed=9)
        out = tmp_path / "fused"
        before = snapshot()
        rc, stdout, _ = run(capsys, "fuse", "--data", str(data),
                            "--ckpt", str(trained_student_dir), "--out", str(out))
        assert rc == 0
        moved = {k: snapshot()[k] - before.get(k, 0) for k in snapshot()}
        assert moved.get("provider", 0) == 0
        assert moved.get("attention", 0) == 0
        for stem in ("pair000", "pair001"):
            img = load_image(out / f"{stem}.fused.pgm")
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0
        assert "provider/attention ops: 0" in stdout

    def test_color_visible_reattaches_chroma(self, tmp_path, capsys,
                                             trained_student_dir):
        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(4)
        rgb = rng.uniform(0.1, 0.9, size=(16, 16, 3))
        save_image(Image(rgb), data / "c.vis.ppm")
        save_image(Image(rng.uniform(0.1, 0.9, size=(16, 16))), data / "c.ir.pgm")
        out = tmp_path / "fused"
        rc, _, _ = run(capsys, "fuse", "--data", str(data),
                       "--ckpt", str(trained_student_dir), "--out", str(out))
        assert rc == 0
        fused = load_image(out / "c.fused.ppm")
        assert fused.channels == 3

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, 1, h=16, w=16, seed=2)
        rc, _, err = run(capsys, "fuse", "--data", str(data),
                         "--ckpt", str(tmp_path / "void"), "--out",
                         str(tmp_path / "f"))
        assert rc == 1 and "checkpoint" in err

    def test_truncated_checkpoint_exits_1(self, tmp_path, capsys, trained_student_dir):
        data = tmp_path / "data"
        write_dataset(data, 1, h=16, w=16, seed=2)
        ckpt = trained_student_dir / "sub.ckpt"
        blob = ckpt.read_bytes()
        for cut in (60, 200, len(blob) - 3):
            ckpt.write_bytes(blob[:cut])
            rc, _, err = run(capsys, "fuse", "--data", str(data), "--ckpt", str(ckpt),
                             "--out", str(tmp_path / "f"))
            assert rc == 1 and err.startswith("error:"), cut

    def test_non_finite_checkpoint_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, 1, h=16, w=16, seed=2)
        student = StudentNet(StudentConfig(), seed=3)
        name, t = student.named_parameters()[4]
        t.data.flat[7] = np.nan
        save_checkpoint(tmp_path / "sub.ckpt", student)
        rc, _, err = run(capsys, "fuse", "--data", str(data),
                         "--ckpt", str(tmp_path / "sub.ckpt"), "--out", str(tmp_path / "f"))
        assert rc == 1 and err.startswith("error:") and name in err

    def test_deterministic_outputs(self, tmp_path, capsys, trained_student_dir):
        data = tmp_path / "data"
        write_dataset(data, 1, h=16, w=16, seed=6)
        blobs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            rc, _, _ = run(capsys, "fuse", "--data", str(data),
                           "--ckpt", str(trained_student_dir), "--out", str(out))
            assert rc == 0
            blobs.append((out / "pair000.fused.pgm").read_bytes())
        assert blobs[0] == blobs[1]

    def test_runs_without_the_training_forward(self, tmp_path, capsys, monkeypatch):
        # fuse runs the frozen forward without taps: it records no node with
        # parents, runs no adapter conv, and writes the frozen forward's bytes
        data = tmp_path / "data"
        write_dataset(data, 1, h=97, w=131, seed=8)
        student = StudentNet(StudentConfig(), seed=3)
        rng = np.random.default_rng(12)
        for name, t in student.named_parameters():
            if name.endswith(".b"):
                t.data = rng.normal(scale=0.1, size=t.data.shape)
        save_checkpoint(tmp_path / "sub.ckpt", student)
        vis, ir, _ = load_pair(data / "pair000.vis.pgm", data / "pair000.ir.pgm")
        with ad.frozen(student.parameters()):
            want = quantize(student.forward(vis, ir).data[0]).tobytes()

        real_node, real_conv = ad._node, ad.conv2d
        recorded, kernels = [], []

        def node(data, parents=(), backward=None):
            recorded.extend(parents)
            return real_node(data, parents, backward)

        def conv2d(x, w, *args, **kwargs):
            kernels.append(w.name)
            return real_conv(x, w, *args, **kwargs)

        monkeypatch.setattr(ad, "_node", node)
        monkeypatch.setattr(ad, "conv2d", conv2d)
        out = tmp_path / "fused"
        rc, _, _ = run(capsys, "fuse", "--data", str(data),
                       "--ckpt", str(tmp_path / "sub.ckpt"), "--out", str(out))
        assert rc == 0
        assert not recorded
        assert "stem.w" in kernels and "head.w" in kernels
        assert not [k for k in kernels if k.startswith("adapter")]
        blob = (out / "pair000.fused.pgm").read_bytes()
        assert blob == b"P5\n131 97\n255\n" + want

    def test_overfit_identity_pair(self, tmp_path, capsys):
        # a student trained to reproduce I from (I, I) must fuse to ~I
        vis, _ = synth_pair(21, 16, 16)
        target = Tensor(vis[None])
        student = StudentNet(StudentConfig(), seed=5)
        adam = Adam(dict(student.named_parameters()))
        for _ in range(150):
            student.zero_grad()
            fused = student.forward(vis, vis)
            g, m = loss_context(fused, target)
            ad.backward(g + m)
            clip_global_norm(student.parameters())
            adam.step(5e-3)
        run_dir = tmp_path / "ckpt"
        run_dir.mkdir()
        save_checkpoint(run_dir / "sub.ckpt", student)
        data = tmp_path / "data"
        data.mkdir()
        save_image(Image(vis), data / "ident.vis.pgm")
        save_image(Image(vis), data / "ident.ir.pgm")
        out = tmp_path / "fused"
        rc, _, _ = run(capsys, "fuse", "--data", str(data),
                       "--ckpt", str(run_dir), "--out", str(out))
        assert rc == 0
        got = load_image(out / "ident.fused.pgm").data
        assert np.mean(np.abs(got - vis)) <= 0.05


class TestEval:
    def _identity_setup(self, tmp_path):
        rng = np.random.default_rng(11)
        img = np.round(rng.uniform(0.0, 1.0, size=(64, 64)) * 255) / 255.0
        data = tmp_path / "data"
        fused = tmp_path / "fused"
        data.mkdir()
        fused.mkdir()
        save_image(Image(img), data / "t.vis.pgm")
        save_image(Image(img), data / "t.ir.pgm")
        save_image(Image(img), fused / "t.fused.pgm")
        return data, fused, img

    def test_identity_triple_metrics(self, tmp_path, capsys):
        data, fused, _ = self._identity_setup(tmp_path)
        out = tmp_path / "rep"
        rc, _, _ = run(capsys, "eval", "--data", str(data), "--fused",
                       str(fused), "--out", str(out))
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == EVAL_HEADER
        assert len(lines) == 2
        cols = lines[1].split(",")
        assert abs(float(cols[4]) - 1.0) <= 1e-6   # ms_ssim_mean
        assert abs(float(cols[5]) - 2.0) <= 1e-6   # ms_ssim_sum

    def test_stem_with_pgm_and_ppm_fused_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, 2, h=16, w=16, seed=3)
        fused = tmp_path / "fused"
        fused.mkdir()
        for stem in ("pair000", "pair001"):
            vis, ir, _ = load_pair(data / f"{stem}.vis.pgm", data / f"{stem}.ir.pgm")
            save_image(Image((vis + ir) / 2.0), fused / f"{stem}.fused.pgm")
        save_image(Image(np.stack([vis] * 3, axis=-1)), fused / "pair001.fused.ppm")
        out = tmp_path / "rep"
        rc, _, err = run(capsys, "eval", "--data", str(data), "--fused",
                         str(fused), "--out", str(out))
        assert rc == 1 and err.startswith("error:"), err
        assert "pair001" in err and "pair000" not in err
        assert not (out / "metrics.csv").exists()

    def test_matches_module_oracle(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, 2, h=32, w=32, seed=3)
        fused = tmp_path / "fused"
        fused.mkdir()
        for stem in ("pair000", "pair001"):
            vis, ir, _ = load_pair(data / f"{stem}.vis.pgm", data / f"{stem}.ir.pgm")
            save_image(Image((vis + ir) / 2.0), fused / f"{stem}.fused.pgm")
        out = tmp_path / "rep"
        rc, _, _ = run(capsys, "eval", "--data", str(data), "--fused",
                       str(fused), "--out", str(out))
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(lines) == 2
        for stem, line in zip(("pair000", "pair001"), lines):
            vis, ir, _ = load_pair(data / f"{stem}.vis.pgm", data / f"{stem}.ir.pgm")
            f = load_image(fused / f"{stem}.fused.pgm").data
            rep = evaluate_triple(f, vis, ir)
            cols = line.split(",")
            assert float(cols[1]) == rep.en
            assert float(cols[2]) == rep.sd
            assert float(cols[3]) == rep.scd
            assert float(cols[4]) == rep.ms_ssim_mean

    def test_bytes_do_not_depend_on_fused_directory(self, tmp_path, capsys):
        data, fused, _ = self._identity_setup(tmp_path)
        elsewhere = tmp_path / "elsewhere" / "fused"
        shutil.copytree(fused, elsewhere)
        blobs = []
        for i, fused_dir in enumerate((fused, elsewhere)):
            out = tmp_path / f"rep{i}"
            rc, _, _ = run(capsys, "eval", "--data", str(data), "--fused",
                           str(fused_dir), "--out", str(out))
            assert rc == 0
            blobs.append((out / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].decode().splitlines()[1].startswith("t.fused.pgm,")

    def test_small_pairs_warn_in_one_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, 2, h=24, w=24, seed=3)
        fused = tmp_path / "fused"
        fused.mkdir()
        for stem in ("pair000", "pair001"):
            vis, ir, _ = load_pair(data / f"{stem}.vis.pgm", data / f"{stem}.ir.pgm")
            save_image(Image((vis + ir) / 2.0), fused / f"{stem}.fused.pgm")
        rc, _, err = run(capsys, "eval", "--data", str(data), "--fused",
                         str(fused), "--out", str(tmp_path / "rep"))
        assert rc == 0
        assert "warning: min side 24 supports only 2 of 5 scales; weights renormalized" \
            in err.splitlines()
        assert "UserWarning" not in err and "warnings.warn(" not in err

    def test_missing_fused_listed(self, tmp_path, capsys):
        data, fused, _ = self._identity_setup(tmp_path)
        (fused / "t.fused.pgm").unlink()
        rc, _, err = run(capsys, "eval", "--data", str(data), "--fused",
                         str(fused), "--out", str(tmp_path / "rep"))
        assert rc == 1 and "t" in err


class TestGradcheck:
    def test_term_filter_runs_single_check(self, capsys):
        rc, out, _ = run(capsys, "gradcheck", "--term", "fea")
        assert rc == 0
        lines = [ln for ln in out.splitlines() if "worst_rel_err" in ln]
        assert len(lines) == 1 and lines[0].startswith("fea")
        assert "[ok]" in lines[0]

    def test_unknown_term_lists_known(self, capsys):
        rc, _, err = run(capsys, "gradcheck", "--term", "nope")
        assert rc == 1
        assert "teacher" in err and "student" in err

    def test_loss_terms_pass(self, capsys):
        for term in ("context", "cs", "seg"):
            rc, out, _ = run(capsys, "gradcheck", "--term", term)
            assert rc == 0, term
            assert "[ok]" in out

    def test_sentinel_wrong_backward_fails_loudly(self, capsys, monkeypatch):
        real = ad.absval

        def skewed(x):
            out = real(x)
            inner = out._backward
            if inner is not None:
                out._backward = lambda g: tuple(
                    None if pg is None else 1.5 * pg for pg in inner(g))
            return out

        monkeypatch.setattr(ad, "absval", skewed)
        rc, out, _ = run(capsys, "gradcheck", "--term", "context")
        assert rc == 1
        assert "[FAIL]" in out


class TestInfo:
    def _parse(self, out):
        per_layer = {"main": {}, "sub": {}}
        totals = {}
        for line in out.splitlines():
            m = re.match(r"^(main|sub) total (\d+)$", line)
            if m:
                totals[m.group(1)] = int(m.group(2))
                continue
            m = re.match(r"^(main|sub) (\S+) (\d+)$", line)
            if m:
                per_layer[m.group(1)][m.group(2)] = int(m.group(3))
        return per_layer, totals

    def test_counts_sum_to_totals(self, capsys):
        rc, out, _ = run(capsys, "info")
        assert rc == 0
        per_layer, totals = self._parse(out)
        assert sum(per_layer["main"].values()) == totals["main"]
        assert sum(per_layer["sub"].values()) == totals["sub"]

    def test_student_under_budget(self, capsys):
        rc, out, _ = run(capsys, "info")
        _, totals = self._parse(out)
        assert totals["sub"] <= 200_000

    def test_feature_shapes_printed(self, capsys):
        _, out, _ = run(capsys, "info")
        assert re.search(r"^main output \(1, 32, 32\)$", out, re.M)
        assert re.search(r"^sub output \(1, 32, 32\)$", out, re.M)
        assert "main stage0 features" in out
        assert "sub tap0 features" in out

    def test_stable_across_invocations(self, capsys):
        _, out1, _ = run(capsys, "info")
        _, out2, _ = run(capsys, "info")
        assert out1 == out2

    def test_flag_it_does_not_read_is_a_usage_error(self, capsys):
        rc, out, err = run(capsys, "info", "--no-sam")
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "--no-sam" in err

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(_cfg):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        monkeypatch.setitem(cli._COMMANDS, "info", (exhausted,) + cli._COMMANDS["info"][1:])
        rc, _, err = run(capsys, "info")
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: out of memory in semfuse info")
        assert "Traceback" not in err

    def test_another_pipes_break_is_an_error_line(self, capfd, monkeypatch):
        # stdout is still read, so the pipe that broke was another's
        def widowed(_cfg):
            raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setitem(cli._COMMANDS, "info", (widowed,) + cli._COMMANDS["info"][1:])
        assert main(["info"]) == 1
        assert capfd.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_module_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "semfuse", "info"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "sub total" in proc.stdout

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("argv, err", [
        (["info"], ""),
        (["eval", "--data", "{missing}"], "error: no image pairs found in {missing}\n")],
        ids=["info", "eval-missing-data"])
    def test_closed_stdout_exits_1(self, tmp_path, argv, err, unbuffered):
        # the read end is closed before the child starts, so its first write
        # to stdout fails: unbuffered, the echo's first print, before the
        # command runs; buffered, the final flush, after any error line
        missing = tmp_path / "none"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "semfuse", *(a.format(missing=missing) for a in argv)],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr.decode() == ("" if unbuffered else err.format(missing=missing))


class TestFuseNonFinite:
    def test_overflowing_checkpoint_exits_2_naming_the_pair(self, tmp_path, capsys):
        data = tmp_path / "data"
        stems = write_dataset(data, 1, h=16, w=16, seed=2)
        student = StudentNet(StudentConfig(), seed=3)
        for _, t in student.named_parameters():
            t.data = t.data * 1e200
        save_checkpoint(tmp_path / "sub.ckpt", student)
        with np.errstate(over="ignore", invalid="ignore"):
            rc, _, err = run(capsys, "fuse", "--data", str(data),
                             "--ckpt", str(tmp_path / "sub.ckpt"), "--out", str(tmp_path / "f"))
        assert rc == 2 and err.startswith("numerical abort:")
        assert stems[0] in err
        assert not list((tmp_path / "f").glob("*.fused.*"))

    def test_named_abort_comes_before_any_numpy_warning(self, tmp_path, capsys):
        data = tmp_path / "data"
        stems = write_dataset(data, 1, h=16, w=16, seed=2)
        student = StudentNet(StudentConfig(), seed=3)
        for _, t in student.named_parameters():
            t.data = t.data * 1e200
        save_checkpoint(tmp_path / "sub.ckpt", student)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, "fuse", "--data", str(data),
                             "--ckpt", str(tmp_path / "sub.ckpt"), "--out", str(tmp_path / "f"))
        assert rc == 2
        first = err.splitlines()[0]
        assert first.startswith("numerical abort:") and stems[0] in first
