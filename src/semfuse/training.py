"""Alternating teacher/student optimization with adaptive updates.

One alternating step is: teacher update on the full objective with the
student frozen, then student update on the distillation objective with
the teacher frozen. First-order only; neither phase unrolls through the
other's update.
"""
from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses
from .attention import VARIANTS
from .autodiff import Tensor, frozen
from .data import random_crop
from .errors import ContractError, NonFiniteError, TrainingAbort
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


def _teach(state: TrainState, vis, ir):
    """Masks for both sources, then the guarded teacher forward: (mv, mi, ref, feats)."""
    mv = state.provider.masks_for(vis, "vis", rng=state.rng)
    mi = state.provider.masks_for(ir, "ir", rng=state.rng)
    pv, pi = make_patches(vis, mv), make_patches(ir, mi)
    ref, feats = _guard("teacher-forward", lambda: state.teacher.forward(vis, ir, pv, pi))
    return mv, mi, ref, feats


def _seg(state: TrainState, ref: Tensor, mv, mi) -> Tensor:
    return _guard("seg", lambda: losses.loss_seg(
        state.stub.forward(ref), synth_labels(mv, mi, state.stub.n_classes)))


def _source_context(out: Tensor, vis, ir) -> list:
    """(grad, mse) context terms of `out` against the visible, then the infrared source."""
    return [_guard("context", lambda: losses.loss_context(out, Tensor(src[None])))
            for src in (vis, ir)]


def _fold(terms_of, batch) -> tuple:
    """Batch mean of per-pair loss terms, backpropagated pair by pair:
    (float total, float parts).

    `terms_of(vis, ir)` maps each term name to a graph scalar or a list of
    them, in the order the terms add; logged terms come in schema order
    (`losses.TERMS`). Each pair's terms are summed in that order, scaled by
    1/n and backpropagated before the next pair is built, so gradients
    accumulate in the leaves and a step holds one pair's graph at a time.
    Each part sums its term over the batch in pair order; the total adds
    the parts' sums in term order.
    """
    inv = 1.0 / len(batch)
    values = {}
    for vis, ir in batch:
        for key, vals in _backprop_pair(terms_of(vis, ir), inv).items():
            values.setdefault(key, []).extend(vals)
    sums = {key: reduce(operator.add, vals) for key, vals in values.items()}
    # max with 0: every term is non-negative up to roundoff, and the log
    # rejects negative entries outright
    return (reduce(operator.add, sums.values()) * inv,
            {key: max(0.0, s * inv) for key, s in sums.items()})


def _backprop_pair(terms: dict, inv: float) -> dict:
    """`backward` through one pair's terms summed in order and scaled by
    `inv`; returns each term's float values. The pair's graph is referenced
    only from this frame, so it is freed when the call returns."""
    listed = {k: v if isinstance(v, list) else [v] for k, v in terms.items()}
    ad.backward(reduce(operator.add, [reduce(operator.add, ts) for ts in listed.values()]) * inv)
    return {k: [float(t.data) for t in ts] for k, ts in listed.items()}


def _sample_terms(state: TrainState, vis, ir, need_seg: bool, gaps: list) -> dict:
    """The enabled loss terms for one pair as graph scalars; appends the
    pair's gap to `gaps`."""
    ab = state.cfg.ablations
    mv, mi, ref, feats = _teach(state, vis, ir)
    fus, taps = _guard("student-forward",
                       lambda: state.student.forward(vis, ir))
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
    gaps.append(float(np.mean(np.abs(fus.data - ref.data))))
    return terms


def _batch_objective(state: TrainState, batch, need_seg: bool):
    """Mean loss terms over a batch, backpropagated: (float total, parts, mean gap)."""
    gaps = []
    total, parts = _fold(lambda vis, ir: _sample_terms(state, vis, ir, need_seg, gaps), batch)
    return total, parts, float(np.mean(gaps))


def _teacher_terms(state: TrainState, vis, ir) -> dict:
    """Source fidelity plus segmentation of the teacher alone, for one pair."""
    mv, mi, ref, _ = _teach(state, vis, ir)
    (g_v, m_v), (g_i, m_i) = _source_context(ref, vis, ir)
    return {"grad": [g_v, g_i], "mse": [m_v, m_i], "seg": _seg(state, ref, mv, mi)}


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
    epoch_sub: list = field(default_factory=list)
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
            report.epoch_sub.append(cur)
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
    _, parts = _update(state, state.teacher, lr_m,
                       lambda: _fold(lambda vis, ir: _teacher_terms(state, vis, ir), batch))
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


def _teacher_out(state: TrainState, vis, ir) -> Tensor:
    return _teach(state, vis, ir)[2]


def _student_out(state: TrainState, vis, ir) -> Tensor:
    return _guard("student-forward", lambda: state.student.forward(vis, ir))[0]


def _pretrain_step(state: TrainState, batch, step: int, total: int) -> None:
    for net, forward in ((state.teacher, _teacher_out), (state.student, _student_out)):
        _update(state, net, PRETRAIN_LR, lambda: _fold(
            lambda vis, ir: {"source": _source_loss(forward(state, vis, ir), vis, ir)}, batch))


def pretrain(teacher: TeacherNet, student: StudentNet, pairs, cfg: TrainConfig) -> None:
    """Independent source-fidelity warmup for both networks, constant lr."""
    if cfg.pretrain_epochs == 0 or not pairs:
        return
    state = make_state(teacher, student, cfg)
    state.rng = np.random.default_rng([cfg.seed, 331])
    total = cfg.pretrain_epochs * math.ceil(len(pairs) / cfg.batch)
    _run(state, pairs, total, _pretrain_step, TrainReport(), verbose=False)
