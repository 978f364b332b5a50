"""Command-line surface: train, fuse, eval, gradcheck, info.

Configuration is a flat key=value overlay: defaults, then an optional
config file, then explicit flags, highest last. Every run prints its
command, the settings it takes and the loaded BLAS before doing anything,
so logs are self-describing. Exit codes: 0 success, 1 usage, contract or
out-of-memory error, lost pair worker or closed stdout, 2 numerical abort.
"""
from __future__ import annotations

import argparse
import os
import select
import sys
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import _blas_config, _blas_threads
from .data import discover_pairs, load_pair, synth_pair
from .errors import (CheckpointError, ContractError, NonFiniteError,
                     PnmParseError, TrainingAbort, WorkerError)
from .gradcheck import build_suite
from .imageio import Image, load_image, rgb_to_ycbcr, save_image, ycbcr_to_rgb
from .instrumentation import delta, snapshot
from .metrics import MetricReport, evaluate_triple
from .networks import (StudentNet, build_nets, load_checkpoint, param_count,
                       save_checkpoint)
from .priors import PriorProvider, make_patches
from .training import (Ablations, TrainConfig, alternate_train, frozen,
                       pretrain)

EVAL_HEADER = ",".join(["path"] + [f.name for f in fields(MetricReport)])


class UsageError(ValueError):
    """Bad flags, bad config keys, or missing inputs. Exit code 1."""


@dataclass
class RunConfig:
    """Flat configuration shared by all commands; unknown keys rejected."""

    command: str = ""
    data: str = ""
    out: str = "out"
    ckpt: str = ""
    fused: str = ""
    synthetic: int = 0
    steps: int = 0                  # 0 = derive from epochs
    epochs: int = TrainConfig.distill_epochs
    pretrain_epochs: int = TrainConfig.pretrain_epochs
    batch: int = TrainConfig.batch
    crop: int = TrainConfig.crop
    seed: int = TrainConfig.seed
    lr_main: float = TrainConfig.lr_main
    lr_sub: float = TrainConfig.lr_sub
    lr_floor: float = TrainConfig.lr_floor
    term: str = ""
    quiet: bool = False
    no_sam: bool = False
    no_z: bool = False
    no_kv: bool = False
    no_pr: bool = False
    no_fea: bool = False
    no_cont: bool = False
    no_cs: bool = False
    offline: bool = False

    def ablations(self) -> Ablations:
        return Ablations(**{f.name: getattr(self, f.name) for f in fields(Ablations)})

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(lr_main=self.lr_main, lr_sub=self.lr_sub,
                           lr_floor=self.lr_floor, batch=self.batch,
                           distill_epochs=self.epochs,
                           pretrain_epochs=self.pretrain_epochs,
                           seed=self.seed, crop=self.crop,
                           steps=self.steps or None,
                           ablations=self.ablations())


_TYPES = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str):
    kind = _TYPES[key]
    if kind is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise UsageError(f"setting {key!r} expects a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise UsageError(
            f"setting {key!r} expects {kind.__name__}, got {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """key=value lines; # comments; unknown keys rejected."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "command" or key not in _TYPES:
            raise UsageError(f"unknown config key {key!r} (line {lineno})")
        out[key] = _coerce(key, val.strip())
    return out


def resolve(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    overlay = {}
    path = getattr(args, "config", None)
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from exc
        overlay.update(parse_config_text(text))
        taken = _COMMANDS[args.command][2]
        for key in overlay:
            if key not in taken:
                raise UsageError(f"config key {key!r} is not a setting of {args.command}")
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        overlay[key] = val
    for key, val in overlay.items():
        setattr(cfg, key, val)
    for key in ("seed", "synthetic"):
        if getattr(cfg, key) < 0:
            raise UsageError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    if cfg.command == "train":
        cfg.to_train_config()  # raises ContractError on a bad training setting
    elif cfg.command == "info":
        cfg.ablations().variant()
    return cfg


def _echo(cfg: RunConfig) -> None:
    """command=, each key the command takes, sorted, then the loaded BLAS."""
    print(f"command={cfg.command}")
    for key in sorted(_COMMANDS[cfg.command][2]):
        val = getattr(cfg, key)
        print(f"{key}={str(val).lower() if isinstance(val, bool) else val}")
    for key, val in (("blas", _blas_config()), ("blas_threads", _blas_threads())):
        print(f"{key}={'unknown' if val is None else val}")


# ---------------------------------------------------------------------------
# commands


def _training_pairs(cfg: RunConfig) -> list:
    if cfg.synthetic and cfg.data:
        raise UsageError("--synthetic and --data are mutually exclusive")
    if cfg.synthetic:
        size = cfg.crop
        return [synth_pair(cfg.seed + i, size, size) for i in range(cfg.synthetic)]
    if not cfg.data:
        raise UsageError("training needs --data DIR or --synthetic N")
    pairs = []
    for _stem, vis_path, ir_path in discover_pairs(cfg.data):
        vis, ir, _chroma = load_pair(vis_path, ir_path)
        pairs.append((vis, ir))
    return pairs


def cmd_train(cfg: RunConfig) -> int:
    pairs = _training_pairs(cfg)
    train_cfg = cfg.to_train_config()
    teacher, student = build_nets(cfg.seed, train_cfg.ablations.variant())
    if train_cfg.pretrain_epochs:
        pretrain(teacher, student, pairs, train_cfg)
    report = alternate_train(teacher, student, pairs, train_cfg,
                             verbose=not cfg.quiet)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "main.ckpt", teacher)
    save_checkpoint(out / "sub.ckpt", student)
    report.write_csv(out / "train.csv")
    if report.diverged:
        print(f"halted after {len(report.rows)} steps: epoch-mean loss grew "
              f"past the divergence guard; artifacts still written to {out}")
    print(f"wrote {out / 'main.ckpt'}, {out / 'sub.ckpt'}, {out / 'train.csv'}")
    print(f"final total_sub={report.rows[-1].total_sub!r} checksum={report.checksum}")
    return 0


def _resolve_checkpoint(cfg: RunConfig) -> Path:
    base = Path(cfg.ckpt) if cfg.ckpt else Path(cfg.out)
    path = base / "sub.ckpt" if base.is_dir() else base
    if not path.exists():
        raise UsageError(f"missing checkpoint {path}; train first or pass --ckpt")
    return path


def cmd_fuse(cfg: RunConfig) -> int:
    """Student-only inference: the student's forward with its parameters
    frozen and no adapter taps, so it builds no tape. The prior/attention
    machinery must not run."""
    if not cfg.data:
        raise UsageError("fuse needs --data DIR with paired sources")
    ckpt = _resolve_checkpoint(cfg)
    student = StudentNet(seed=0)
    load_checkpoint(ckpt, student)
    entries = discover_pairs(cfg.data)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    before = snapshot()
    written = []
    with frozen(student.parameters()):
        for stem, vis_path, ir_path in entries:
            vis, ir, chroma = load_pair(vis_path, ir_path)
            fused = student.forward(vis, ir).data[0]
            if not np.isfinite(fused).all():
                raise NonFiniteError(f"non-finite values in the fused image of pair {stem}")
            luma = Image(fused)
            if chroma is not None:
                target = out / f"{stem}.fused.ppm"
                save_image(ycbcr_to_rgb(luma, chroma), target)
            else:
                target = out / f"{stem}.fused.pgm"
                save_image(luma, target)
            written.append(target)
    moved = {k: v for k, v in delta(before).items() if v}
    if moved:
        raise ContractError(
            f"decoupled inference touched excluded paths: {moved}")
    print(f"fused {len(written)} pairs -> {out} "
          f"(provider/attention ops: 0, checked)")
    return 0


def _fused_gray(path: Path) -> np.ndarray:
    img = load_image(path)
    if img.channels == 3:
        y, _ = rgb_to_ycbcr(img)
        return y.data
    return img.data


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.data:
        raise UsageError("eval needs --data DIR with the source pairs")
    fused_dir = Path(cfg.fused) if cfg.fused else Path(cfg.out)
    entries = discover_pairs(cfg.data)
    found = {stem: [c for c in (fused_dir / f"{stem}.fused.pgm", fused_dir / f"{stem}.fused.ppm")
                    if c.exists()]
             for stem, _, _ in entries}
    doubled = [stem for stem, paths in found.items() if len(paths) > 1]
    if doubled:
        raise ContractError(f"both a .fused.pgm and a .fused.ppm in {fused_dir} for: "
                            f"{', '.join(doubled)}")
    missing = [stem for stem, paths in found.items() if not paths]
    if missing:
        raise UsageError(f"missing fused images for: {', '.join(missing)}")
    rows = []
    for stem, vis_path, ir_path in entries:
        fused_path = found[stem][0]
        fused = _fused_gray(fused_path)
        vis, ir, _chroma = load_pair(vis_path, ir_path)
        rep = evaluate_triple(fused, vis, ir)
        rows.append(",".join([fused_path.name]
                             + [repr(getattr(rep, f.name)) for f in fields(rep)]))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "metrics.csv"
    csv_path.write_text("\n".join([EVAL_HEADER] + rows) + "\n")
    print(f"evaluated {len(rows)} triples -> {csv_path}")
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    suite = build_suite(seed=cfg.seed)
    if cfg.term:
        names = [n for n, _ in suite]
        if cfg.term not in names:
            raise UsageError(
                f"unknown term {cfg.term!r}; known: {', '.join(names)}")
        suite = [(n, r) for n, r in suite if n == cfg.term]
    t0 = time.perf_counter()
    all_ok = True
    for _name, runner in suite:
        res = runner()
        print(res.line())
        all_ok = all_ok and res.passed
    print(f"suite finished in {time.perf_counter() - t0:.1f}s")
    return 0 if all_ok else 1


def cmd_info(cfg: RunConfig) -> int:
    teacher, student = build_nets(cfg.seed, cfg.ablations().variant())
    for label, net in (("main", teacher), ("sub", student)):
        for name, t in net.named_parameters():
            print(f"{label} {name} {t.data.size}")
        print(f"{label} total {param_count(net)}")
    vis, ir = synth_pair(cfg.seed, 32, 32)
    provider = PriorProvider()
    masks_vis = provider.masks_for(vis)
    masks_ir = provider.masks_for(ir)
    with frozen(teacher.parameters()), frozen(student.parameters()):
        ref, feats = teacher.forward(vis, ir, make_patches(vis, masks_vis),
                                     make_patches(ir, masks_ir))
        taps = []
        fus = student.forward(vis, ir, taps)
    print(f"main output {tuple(ref.shape)}")
    for i, f in enumerate(feats):
        print(f"main stage{i} features {tuple(f.shape)}")
    print(f"sub output {tuple(fus.shape)}")
    for i, t in enumerate(taps):
        print(f"sub tap{i} features {tuple(t.shape)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag_type(key: str):
    """argparse `type=` for one setting: the same coercion as a config line."""
    def coerce(raw: str):
        try:
            return _coerce(key, raw)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return coerce


_ABLATION_KEYS = tuple(f.name for f in fields(Ablations))
# subcommand -> (handler, help, the RunConfig keys it takes, each one read
# on its path); every flag is --key-with-dashes
_COMMANDS = {
    "train": (cmd_train, "alternating teacher/student optimization",
              ("data", "synthetic", "steps", "epochs", "pretrain_epochs", "batch",
               "crop", "lr_main", "lr_sub", "lr_floor", "out", "seed", "quiet")
              + _ABLATION_KEYS),
    "fuse": (cmd_fuse, "student-only inference", ("data", "ckpt", "out")),
    "eval": (cmd_eval, "fusion metrics over fused/source triples", ("data", "fused", "out")),
    "gradcheck": (cmd_gradcheck, "finite-difference verification suite", ("term", "seed")),
    "info": (cmd_info, "parameter counts and feature shapes", ("no_z", "no_kv", "no_pr", "seed")),
}
_FLAG_HELP = {
    "data": {"help": "directory of <stem>.vis.pgm/.ir.pgm pairs"},
    "synthetic": {"metavar": "N",
                  "help": "train on N seeded synthetic pairs instead of --data"},
    "out": {"help": "output directory"},
    "ckpt": {"help": "checkpoint file or its directory"},
    "fused": {"help": "directory of <stem>.fused images"},
    "term": {"help": "run a single named check"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semfuse",
                     description="semantic-prior fusion pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (_handler, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS,
                           help=help_text)
        p.add_argument("--config", help="key=value config file")
        for key in keys:
            if _TYPES[key] is bool:
                kind = {"action": "store_true"}
            else:
                kind = {"type": _flag_type(key)}
            p.add_argument("--" + key.replace("_", "-"), **kind,
                           **_FLAG_HELP.get(key, {}))
    return parser


def _print_warning(message, *_where) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _stdout_gone() -> bool:
    """Whether stdout is a pipe whose reader has gone: a broken pipe there is
    not another pipe's (an `--out` FIFO) and has no one to report to."""
    try:
        poll = select.poll()
        poll.register(sys.stdout, select.POLLOUT)
    except (AttributeError, OSError, ValueError):       # no poll(), or no descriptor
        return False
    return any(events & (select.POLLERR | select.POLLHUP) for _, events in poll.poll(0))


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        cfg = resolve(args)
        _echo(cfg)
        # numpy's own overflow warnings would print before the named abort;
        # finiteness is checked where a culprit can be named instead. A
        # warning prints as one line, without source path or code line.
        with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
              warnings.catch_warnings()):
            warnings.showwarning = _print_warning
            code = _COMMANDS[cfg.command][0](cfg)
    except (TrainingAbort, NonFiniteError) as exc:
        # first: NonFiniteError is a ContractError
        print(f"numerical abort: {exc}", file=sys.stderr)
        code = 2
    except (UsageError, ContractError, CheckpointError, PnmParseError, OSError,
            WorkerError) as exc:
        if not (isinstance(exc, BrokenPipeError) and _stdout_gone()):
            print(f"error: {exc}", file=sys.stderr)     # else no one is left to tell
        code = 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in semfuse {getattr(args, 'command', '')}{detail}",
              file=sys.stderr)
        code = 1
    try:
        sys.stdout.flush()          # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # its reader has gone, so no one is told; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code
