"""Alternating teacher/student optimization with adaptive updates.

One alternating step is: teacher update on the full objective with the
student frozen, then student update on the distillation objective with
the teacher frozen. First-order only; neither phase unrolls through the
other's update.

Where `autodiff.workers()` is 2 or more, each training pass forks one
worker process, which runs the second half of every batch's pairs while
this process runs the first; the gradients are added in pair order, so
the bytes are those of one process.
"""
from __future__ import annotations

import hashlib
import math
import operator
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, reduce
from multiprocessing import Pipe
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import instrumentation, losses
from .attention import VARIANTS
from .autodiff import Tensor, frozen
from .data import random_crop
from .errors import ContractError, NonFiniteError, TrainingAbort, WorkerError
from .losses import CSV_HEADER, LossBreakdown
from .networks import StudentNet, TeacherNet
from .priors import PriorProvider, make_patches, synth_labels

CLIP_NORM = 10.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIVERGENCE_FACTOR = 10.0
# warmup runs at one constant rate for both nets, high enough that a short
# budget produces a visible source-fidelity gain before annealing starts
PRETRAIN_LR = 5e-3


@dataclass(frozen=True)
class Ablations:
    """Switches matching the ablation study rows."""

    no_sam: bool = False
    no_z: bool = False
    no_kv: bool = False
    no_pr: bool = False
    no_fea: bool = False
    no_cont: bool = False
    no_cs: bool = False
    offline: bool = False

    def variant(self) -> str:
        picked = [v for v in VARIANTS if v != "full" and getattr(self, v)]
        if len(picked) > 1:
            raise ContractError(f"attention variants are mutually exclusive: {picked}")
        return picked[0] if picked else "full"


@dataclass
class TrainConfig:
    lr_main: float = 5e-4
    lr_sub: float = 2e-3
    lr_floor: float = 1e-5
    batch: int = 4
    distill_epochs: int = 5
    pretrain_epochs: int = 0
    seed: int = 0
    crop: int = 32
    steps: int | None = None
    ablations: Ablations = field(default_factory=Ablations)

    def __post_init__(self):
        for name in ("lr_main", "lr_sub", "lr_floor"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise ContractError(f"{name} must be positive and finite, got {lr}")
        if self.lr_floor > min(self.lr_main, self.lr_sub):
            raise ContractError(
                f"lr_floor {self.lr_floor} exceeds a peak learning rate")
        if self.batch < 1:
            raise ContractError(f"batch must be >= 1, got {self.batch}")
        if self.distill_epochs < 0 or self.pretrain_epochs < 0:
            raise ContractError("epoch counts must be >= 0")
        if self.steps is not None and self.steps < 1:
            raise ContractError(f"steps must be >= 1, got {self.steps}")
        if self.steps is None and self.distill_epochs == 0:
            raise ContractError(
                "distill_epochs is 0 and steps is unset: the schedule has zero steps")
        if self.crop < 16:
            raise ContractError(f"crop must be >= 16, got {self.crop}")
        ab = self.ablations
        ab.variant()
        if ab.no_fea and ab.no_cont and ab.no_cs:
            raise ContractError("at least one distillation term must stay enabled")


def cosine_lr(step: int, total_steps: int, lr0: float, lr_floor: float) -> float:
    """Cosine annealing from lr0 down to lr_floor over total_steps."""
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ContractError(f"step must be >= 0, got {step}")
    # exact endpoints: floating point does not guarantee x + (y - x) == y
    if step == 0:
        return lr0
    if step >= total_steps:
        return lr_floor
    return lr_floor + 0.5 * (lr0 - lr_floor) * (1.0 + math.cos(math.pi * step / total_steps))


class Adam:
    """Bias-corrected adaptive-moment updates over a named parameter dict.

    Gradients reach `step` finite: `clip_global_norm` runs first and
    aborts on a NaN or Inf one.
    """

    def __init__(self, params: dict):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        if lr <= 0:
            raise ContractError(f"lr must be positive, got {lr}")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def clip_global_norm(params) -> float:
    """Rescale all gradients so their joint norm is at most CLIP_NORM.

    A non-finite norm aborts the run: naming the first parameter, in the
    order given, whose gradient holds a NaN or Inf, or as `grad-norm` when
    finite gradients overflow the sum of squares.
    """
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    if not math.isfinite(norm):
        # scaling by CLIP_NORM/inf would silently zero every gradient
        for p in params:
            if not np.all(np.isfinite(p.grad)):
                raise TrainingAbort(f"non-finite gradient for parameter {p.name}",
                                    term=p.name)
        raise TrainingAbort("gradient norm is non-finite", term="grad-norm")
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for p in params:
            p.grad *= scale
    return norm


def diverged(prev_epoch_mean, cur_epoch_mean) -> bool:
    """True when the distillation loss grew past the epoch guard factor."""
    if prev_epoch_mean is None:
        return False
    return cur_epoch_mean > DIVERGENCE_FACTOR * prev_epoch_mean


@dataclass
class TrainState:
    """Everything one training run threads through its phases."""

    teacher: TeacherNet
    student: StudentNet
    cfg: TrainConfig
    provider: PriorProvider
    adam_m: Adam
    adam_s: Adam
    rng: np.random.Generator
    worker: _PairWorker | None = None               # set by `_pair_worker` for a pass

    @property
    def stub(self):
        return self.provider.stub


def make_state(teacher: TeacherNet, student: StudentNet, cfg: TrainConfig) -> TrainState:
    return TrainState(
        teacher=teacher, student=student, cfg=cfg,
        provider=PriorProvider(random_patches=cfg.ablations.no_sam),
        adam_m=Adam(dict(teacher.named_parameters())),
        adam_s=Adam(dict(student.named_parameters())),
        rng=np.random.default_rng([cfg.seed, 404]))


def _guard(term: str, fn):
    """`fn()`, or `TrainingAbort(term=term)` if it meets NaN/Inf: a leaf built
    inside raises `NonFiniteError`, and op outputs are not scanned, so each
    tensor returned (a loss, a tuple of them, or an image and its feature
    list) is checked here."""
    try:
        out = fn()
    except NonFiniteError as exc:
        raise TrainingAbort(
            f"non-finite value while computing {term}: {exc}", term=term) from exc
    parts = out if isinstance(out, tuple) else (out,)
    if not all(np.isfinite(t.data).all() for p in parts
               for t in (p if isinstance(p, list) else [p])):
        raise TrainingAbort(f"non-finite value while computing {term}", term=term)
    return out


def _with_masks(state: TrainState, batch) -> list:
    """Each pair as (vis, ir, mv, mi), with the masks of both sources.

    The masks are drawn here, pair by pair, so `state.rng` (which the
    `no_sam` masks draw from) runs in the order of a sequential loop,
    whichever worker later runs each pair.
    """
    return [(vis, ir, state.provider.masks_for(vis, rng=state.rng),
             state.provider.masks_for(ir, rng=state.rng)) for vis, ir in batch]


def _teach(state: TrainState, vis, ir, mv, mi):
    """The guarded teacher forward of one pair with its masks: (ref, feats)."""
    pv, pi = make_patches(vis, mv), make_patches(ir, mi)
    return _guard("teacher-forward", lambda: state.teacher.forward(vis, ir, pv, pi))


def _seg(state: TrainState, ref: Tensor, mv, mi) -> Tensor:
    return _guard("seg", lambda: losses.loss_seg(
        state.stub.forward(ref), synth_labels(mv, mi)))


def _source_context(out: Tensor, vis, ir) -> list:
    """(grad, mse) context terms of `out` against the visible, then the infrared source."""
    return [_guard("context", lambda: losses.loss_context(out, Tensor(src[None])))
            for src in (vis, ir)]


def _fold(state: TrainState, terms_of, pairs) -> tuple:
    """Batch mean of per-pair loss terms, backpropagated pair by pair:
    (float total, float parts, mean gap or None).

    `terms_of(state, *pair)` gives (terms, gap): each term name mapped to
    a graph scalar or a list of them, in the order the terms add (logged
    terms in schema order, `losses.TERMS`), and the pair's gap or None.
    Each pair builds its terms, sums them in that order, scales by 1/n and
    backpropagates into `.grad`, so a process holds one pair's graph at a
    time. With a pass's worker, the worker runs the second half of the
    pairs while this process runs the first, bands inline, as the two
    already use both cores; the worker's per-pair gradients are then added
    into `.grad` in pair order. So each leaf's gradient is the first pair's,
    plus the second's, and so on, in one process or two. Each part sums its
    term over the batch in pair order; the total adds the parts' sums in
    term order.
    """
    inv = 1.0 / len(pairs)
    half = len(pairs) - len(pairs) // 2 if state.worker else len(pairs)
    mine, theirs = pairs[:half], pairs[half:]
    if theirs:
        state.worker.submit(terms_of, theirs, inv)
        with ad.one_worker():
            done = [_run_pair(state, terms_of, pair, inv) for pair in mine]
        done += state.worker.collect()
    else:
        done = [_run_pair(state, terms_of, pair, inv) for pair in mine]
    values, gaps = {}, []
    for pair_values, gap in done:
        gaps.append(gap)
        for key, vals in pair_values.items():
            values.setdefault(key, []).extend(vals)
    sums = {key: reduce(operator.add, vals) for key, vals in values.items()}
    # max with 0: every term is non-negative up to roundoff, and the log
    # rejects negative entries outright
    return (reduce(operator.add, sums.values()) * inv,
            {key: max(0.0, s * inv) for key, s in sums.items()},
            None if gaps[0] is None else float(np.mean(gaps)))


def _run_pair(state: TrainState, terms_of, pair, inv: float) -> tuple:
    """One pair's term values and gap; its gradients are added into `.grad`."""
    terms, gap = terms_of(state, *pair)
    return _backprop_pair(terms, inv), gap


def _backprop_pair(terms: dict, inv: float) -> dict:
    """`backward` through one pair's terms summed in order and scaled by
    `inv`; returns each term's float values. The pair's graph is referenced
    only from here and `_run_pair`, so it is freed when that returns."""
    listed = {k: v if isinstance(v, list) else [v] for k, v in terms.items()}
    ad.backward(reduce(operator.add, [reduce(operator.add, ts) for ts in listed.values()]) * inv)
    return {k: [float(t.data) for t in ts] for k, ts in listed.items()}


# ---------------------------------------------------------------------------
# a pass's pair worker


class _PairWorker:
    """A forked copy of this process that runs pairs of `_fold` for one pass.

    It keeps the fork-time state: the nets, the provider, the config and
    any function patched in by then. Each task carries the parameters'
    current values and requires_grad flags (which say which net is
    frozen), the term function and the pairs with their masks; pickle sends
    a function by name, so a term function is a module-level function or a
    partial of one. The worker keeps the errstate of the call that forked
    it. It clears the parameters' `.grad` before each pair, and the reply
    holds each pair's values, gap and (parameter index, gradient) for every
    gradient set, or the first failing pair's error, and the counters'
    moves, which `collect` adds here.

    The main thread forks it between convs, so the band pool's thread, if
    it has started, is idle; the worker runs its bands inline and never
    touches that pool.
    """

    def __init__(self, state: TrainState):
        self.params = [*state.teacher.parameters(), *state.student.parameters()]
        self.conn, theirs = Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            code = 1
            try:
                with ad.one_worker():                # bands inline: never the band pool
                    self._serve(state, theirs)
                code = 0
            finally:
                os._exit(code)                       # no exit hooks, no second stdout flush
        theirs.close()

    def _serve(self, state: TrainState, conn) -> None:
        """Run tasks until the pipe reaches EOF, as when the parent closes it or dies."""
        while True:
            try:
                data, flags, terms_of, pairs, inv = conn.recv()
            except (EOFError, OSError):
                return
            for p, d, flag in zip(self.params, data, flags):
                np.copyto(p.data, d)
                p.requires_grad = flag
            before, done, error = instrumentation.snapshot(), [], None
            for pair in pairs:
                for p in self.params:
                    p.zero_grad()
                try:
                    values, gap = _run_pair(state, terms_of, pair, inv)
                except Exception as exc:             # raised by the parent, in pair order
                    error = exc
                    break
                done.append((values, gap, [(i, p.grad) for i, p in enumerate(self.params)
                                           if p.grad is not None]))
            conn.send((done, error, instrumentation.delta(before)))

    def submit(self, terms_of, pairs, inv: float) -> None:
        self._talk(self.conn.send, ([p.data for p in self.params],
                                    [p.requires_grad for p in self.params],
                                    terms_of, pairs, inv))

    def collect(self) -> list:
        """The submitted pairs' (values, gap), in order, each pair's gradients
        added into `.grad` in pair order; raises the first failing pair's error."""
        done, error, moves = self._talk(self.conn.recv)
        instrumentation.add(moves)
        if error is not None:
            raise error
        for _, _, grads in done:
            for i, g in grads:
                p = self.params[i]
                p.grad = g if p.grad is None else p.grad + g
        return [(values, gap) for values, gap, _ in done]

    def _talk(self, call, *args):
        try:
            return call(*args)
        except (EOFError, OSError) as exc:
            code = os.waitstatus_to_exitcode(self.close())
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerError(f"the pair worker ended in the middle of a phase ({how})") from exc

    def close(self, kill: bool = False) -> int | None:
        """Close the pipe and reap the worker, first killing it if `kill`; its wait status."""
        self.conn.close()
        if not self.pid:
            return None
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        return status


@contextmanager
def _pair_worker(state: TrainState, per_batch: int):
    """`state.worker` inside the block, where a batch of `per_batch` pairs can
    go to two workers and this process can fork; the worker is reaped on
    every exit, killed first on an error."""
    if ad.workers() < 2 or per_batch < 2 or not hasattr(os, "fork"):
        yield
        return
    worker = state.worker = _PairWorker(state)
    try:
        yield
    except BaseException:
        worker.close(kill=True)
        raise
    finally:
        state.worker = None
        worker.close()


def _sample_terms(state: TrainState, vis, ir, mv, mi, need_seg: bool) -> tuple:
    """The enabled loss terms for one pair as graph scalars, and the pair's
    gap: (terms, gap)."""
    ab = state.cfg.ablations
    ref, feats = _teach(state, vis, ir, mv, mi)
    taps = []
    fus = _guard("student-forward", lambda: state.student.forward(vis, ir, taps))
    vt, it_ = Tensor(vis[None]), Tensor(ir[None])
    terms = {}
    if not ab.no_fea:
        terms["fea"] = _guard("fea", lambda: losses.loss_fea(taps, feats))
    if not ab.no_cont:
        terms["grad"], terms["mse"] = _guard(
            "context", lambda: losses.context_bundle(ref, fus, vt, it_))
    if not ab.no_cs:
        terms["cs_ir"], terms["cs_vis"] = _guard(
            "cs", lambda: losses.loss_cs(fus, ref, vt, it_, mv, mi, state.provider.encoder))
    if need_seg:
        terms["seg"] = _seg(state, ref, mv, mi)
    return terms, float(np.mean(np.abs(fus.data - ref.data)))


def _batch_objective(state: TrainState, batch, need_seg: bool):
    """Mean loss terms over a batch, backpropagated: (float total, parts, mean gap)."""
    return _fold(state, partial(_sample_terms, need_seg=need_seg), _with_masks(state, batch))


def _teacher_terms(state: TrainState, vis, ir, mv, mi) -> tuple:
    """Source fidelity plus segmentation of the teacher alone, for one pair: (terms, None)."""
    ref, _ = _teach(state, vis, ir, mv, mi)
    (g_v, m_v), (g_i, m_i) = _source_context(ref, vis, ir)
    return {"grad": [g_v, g_i], "mse": [m_v, m_i], "seg": _seg(state, ref, mv, mi)}, None


def _update(state: TrainState, net, lr: float, objective) -> tuple:
    """One Adam update of `net` (the teacher or the student) with the other net frozen.

    `objective()` backpropagates the loss into the gradients (through
    `_fold`) and returns a tuple, which is returned.
    """
    other, adam = ((state.student, state.adam_m) if net is state.teacher
                   else (state.teacher, state.adam_s))
    net.zero_grad()
    with frozen(other.parameters()):
        out = objective()
    clip_global_norm(net.parameters())
    adam.step(lr)
    return out


def main_phase(state: TrainState, batch, lr: float):
    """One teacher update on the full objective; student untouched."""
    _, parts, gap = _update(state, state.teacher, lr,
                            lambda: _batch_objective(state, batch, need_seg=True))
    return parts, gap


def sub_phase(state: TrainState, batch, lr: float):
    """One student update on the distillation objective, teacher untouched:
    (float total, parts, gap)."""
    return _update(state, state.student, lr,
                   lambda: _batch_objective(state, batch, need_seg=False))


@dataclass
class TrainReport:
    """Per-step loss rows plus epoch summaries and the final state digest."""

    rows: list = field(default_factory=list)
    epoch_gap: list = field(default_factory=list)
    diverged: bool = False
    checksum: str = ""

    def write_csv(self, path) -> None:
        lines = [CSV_HEADER] + [r.csv_row() for r in self.rows]
        Path(path).write_text("\n".join(lines) + "\n")


def _crop_pair(state: TrainState, vis, ir):
    size = state.cfg.crop
    if vis.shape == (size, size):
        return vis, ir
    return random_crop(vis, ir, size, state.rng)


def _state_digest(teacher, student) -> str:
    joint = teacher.state_checksum() + student.state_checksum()
    return hashlib.sha256(joint.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the schedule: one generator of shuffled, cropped batches and one driver.
# Each update below takes (state, batch, step, total), step counting from 0
# within its pass, and returns (row, gap) or None; a gap of None keeps the
# step out of the epoch means and the divergence guard.


def _epochs(state: TrainState, pairs, total: int):
    """Yield each epoch as a lazy iterator of (step, cropped batch).

    An epoch's permutation is drawn when the epoch starts and each batch's
    crops just before its update, so a run that stops draws nothing more.
    """
    n, size = len(pairs), state.cfg.batch
    per_epoch = math.ceil(n / size)

    def batches(order, first):
        for step in range(first, min(first + per_epoch, total)):
            at = (step - first) * size
            yield step, [_crop_pair(state, *pairs[i]) for i in order[at:at + size]]

    for first in range(0, total, per_epoch):
        yield batches(state.rng.permutation(n), first)


def _run(state: TrainState, pairs, total: int, update, report: TrainReport,
         verbose: bool) -> None:
    """Drive `update` over `total` steps, halting when an epoch mean diverges."""
    with _pair_worker(state, min(state.cfg.batch, len(pairs))):
        prev_mean = None
        for epoch in _epochs(state, pairs, total):
            esub, egap = [], []
            for step, batch in epoch:
                out = update(state, batch, step, total)
                if out is None:
                    continue
                row, gap = out
                report.rows.append(row)
                if verbose:
                    print(f"step={row.step} Lds={row.total_sub:.6f} Ldm={row.total_main:.6f} "
                          f"lr_m={row.lr_main:.6g} lr_s={row.lr_sub:.6g}", flush=True)
                if gap is not None:
                    esub.append(row.total_sub)
                    egap.append(gap)
            if esub:
                cur = float(np.mean(esub))
                report.epoch_gap.append(float(np.mean(egap)))
                if diverged(prev_mean, cur):
                    report.diverged = True
                    return
                prev_mean = cur


def _alternating_step(state: TrainState, batch, step: int, total: int):
    cfg = state.cfg
    lr_m = cosine_lr(step, total, cfg.lr_main, cfg.lr_floor)
    lr_s = cosine_lr(step, total, cfg.lr_sub, cfg.lr_floor)
    parts, gap = main_phase(state, batch, lr_m)
    sub_phase(state, batch, lr_s)
    return LossBreakdown.from_parts(step=step + 1, lr_main=lr_m, lr_sub=lr_s, **parts), gap


def _teacher_step(state: TrainState, batch, step: int, total: int):
    lr_m = cosine_lr(step, total, state.cfg.lr_main, state.cfg.lr_floor)
    _, parts, _ = _update(state, state.teacher, lr_m, lambda: _fold(
        state, _teacher_terms, _with_masks(state, batch)))
    return LossBreakdown.from_parts(step=step + 1, lr_main=lr_m, lr_sub=0.0, **parts), None


def _student_step(state: TrainState, batch, step: int, total: int):
    lr_s = cosine_lr(step, total, state.cfg.lr_sub, state.cfg.lr_floor)
    _, parts, gap = sub_phase(state, batch, lr_s)
    return LossBreakdown.from_parts(step=total + step + 1, lr_main=0.0, lr_sub=lr_s,
                                    **parts), gap


def alternate_train(teacher: TeacherNet, student: StudentNet, pairs, cfg: TrainConfig,
                    verbose: bool = True) -> TrainReport:
    """Run the full alternating schedule over a list of (vis, ir) pairs.

    The offline ablation instead finishes the teacher first, then distills
    into the student; each pass gets the step budget the alternating run
    would use, with its own cosine schedule.
    """
    if not pairs:
        raise ContractError("training needs at least one image pair")
    state = make_state(teacher, student, cfg)
    total = cfg.steps if cfg.steps is not None else (
        cfg.distill_epochs * math.ceil(len(pairs) / cfg.batch))
    report = TrainReport()
    passes = (_teacher_step, _student_step) if cfg.ablations.offline else (_alternating_step,)
    for update in passes:
        _run(state, pairs, total, update, report, verbose)
    report.checksum = _state_digest(teacher, student)
    return report


def _source_loss(out: Tensor, vis, ir):
    (g_v, m_v), (g_i, m_i) = _source_context(out, vis, ir)
    return (g_v + m_v) + (g_i + m_i)


def _source_terms(forward, state: TrainState, vis, ir, *masks) -> tuple:
    """The source loss of `forward`'s output for one pair: (terms, None)."""
    return {"source": _source_loss(forward(state, vis, ir, *masks), vis, ir)}, None


def _teacher_out(state: TrainState, vis, ir, mv, mi) -> Tensor:
    return _teach(state, vis, ir, mv, mi)[0]


def _student_out(state: TrainState, vis, ir) -> Tensor:
    return _guard("student-forward", lambda: state.student.forward(vis, ir))


def _pretrain_step(state: TrainState, batch, step: int, total: int) -> None:
    """A source-fidelity update of the teacher, then of the student, which draws no masks."""
    for net, forward, pairs in ((state.teacher, _teacher_out, _with_masks(state, batch)),
                                (state.student, _student_out, batch)):
        _update(state, net, PRETRAIN_LR,
                lambda: _fold(state, partial(_source_terms, forward), pairs))


def pretrain(teacher: TeacherNet, student: StudentNet, pairs, cfg: TrainConfig) -> None:
    """Independent source-fidelity warmup for both networks, constant lr."""
    if cfg.pretrain_epochs == 0 or not pairs:
        return
    state = make_state(teacher, student, cfg)
    state.rng = np.random.default_rng([cfg.seed, 331])
    total = cfg.pretrain_epochs * math.ceil(len(pairs) / cfg.batch)
    _run(state, pairs, total, _pretrain_step, TrainReport(), verbose=False)
