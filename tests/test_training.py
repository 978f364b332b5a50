"""Optimizer, schedules, alternation phases, and training dynamics."""
import operator
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse import losses as losses_mod
from semfuse import training
from semfuse.autodiff import Tensor
from semfuse.data import synth_pair
from semfuse.errors import ContractError, NonFiniteError, TrainingAbort
from semfuse.losses import CSV_HEADER, loss_seg
from semfuse.networks import StudentConfig, StudentNet, TeacherConfig, TeacherNet
from semfuse.priors import make_patches, synth_labels
from semfuse.training import (Ablations, Adam, TrainConfig, alternate_train,
                              clip_global_norm, cosine_lr, diverged, frozen,
                              main_phase, make_state, pretrain, sub_phase)
from semfuse.training import _source_loss, _student_out, _teacher_out

SLIM_T = TeacherConfig(base_channels=4, token_width=8, stages=3, heads=2, head_dim=4)
SLIM_S = StudentConfig(stem_channels=8, growth=4, layers_per_block=4, blocks=3, tap_width=8)


def make_pairs(n, h=16, w=16, seed=0):
    return [synth_pair(seed + i, h, w) for i in range(n)]


def slim_setup(seed=0, **cfg_kw):
    cfg_kw.setdefault("crop", 16)
    cfg_kw.setdefault("batch", 2)
    cfg = TrainConfig(seed=seed, **cfg_kw)
    teacher = TeacherNet(SLIM_T, seed=seed + 1)
    student = StudentNet(SLIM_S, seed=seed + 2)
    return teacher, student, cfg


def source_fidelity(state, pairs) -> tuple:
    """Mean context loss of each net's output against both sources."""
    totals = []
    with frozen(state.teacher.parameters()), frozen(state.student.parameters()):
        for forward in (_teacher_out, _student_out):
            vals = [float(_source_loss(forward(state, vis, ir), vis, ir).data)
                    for vis, ir in pairs]
            totals.append(float(np.mean(vals)))
    return totals[0], totals[1]


def param_bytes(net):
    return b"".join(p.data.tobytes() for _, p in net.named_parameters())


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt = Adam({"p": p})
        opt.step(0.1)
        assert np.array_equal(p.data, before)

    def test_single_step_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True, name="p")
        p.grad = np.array([1.0])
        Adam({"p": p}).step(0.1)
        # bias correction makes the first update magnitude almost exactly lr
        assert abs(p.data[0] - 0.9) <= 1e-8

    def test_constant_gradient_asymptote(self):
        p = Tensor(np.array([0.0]), requires_grad=True, name="p")
        opt = Adam({"p": p})
        prev = p.data[0]
        for _ in range(400):
            p.grad = np.array([3.0])
            prev = p.data[0]
            opt.step(0.01)
        assert abs(abs(p.data[0] - prev) - 0.01) <= 1e-6

    def test_nan_gradient_aborts_with_name(self):
        # the clip before every Adam step is where a NaN gradient is caught
        p = Tensor(np.array([1.0]), requires_grad=True, name="w1")
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingAbort, match="w1") as exc:
            clip_global_norm([p])
        assert exc.value.term == "w1"

    def test_frozen_param_skipped(self):
        p = Tensor(np.array([1.0]), requires_grad=True, name="p")
        opt = Adam({"p": p})
        p.requires_grad = False
        p.grad = np.array([1.0])
        opt.step(0.5)
        assert p.data[0] == 1.0


class TestCosine:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 5e-4, 1e-5) == 5e-4
        assert cosine_lr(100, 100, 5e-4, 1e-5) == pytest.approx(1e-5, abs=1e-20)

    def test_midpoint(self):
        assert abs(cosine_lr(50, 100, 4e-4, 2e-5) - (4e-4 + 2e-5) / 2) <= 1e-12

    def test_monotone_decrease(self):
        vals = [cosine_lr(s, 64, 1e-3, 1e-5) for s in range(65)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamps_past_total(self):
        assert cosine_lr(150, 100, 5e-4, 1e-5) == 1e-5

    @settings(max_examples=50, deadline=None)
    @given(step=st.integers(min_value=0, max_value=200),
           total=st.integers(min_value=1, max_value=200))
    def test_bounded(self, step, total):
        lr = cosine_lr(step, total, 2e-3, 1e-5)
        assert 1e-5 <= lr <= 2e-3

    def test_bad_total(self):
        with pytest.raises(ContractError):
            cosine_lr(0, 0, 1e-3, 1e-5)


class TestClipFreeze:
    def test_clip_rescales_to_max_norm(self):
        a = Tensor(np.zeros(3), requires_grad=True, name="a")
        a.grad = np.array([30.0, 0.0, 40.0])
        norm = clip_global_norm([a])
        assert abs(norm - 50.0) <= 1e-12
        assert abs(np.sqrt(np.sum(a.grad ** 2)) - 10.0) <= 1e-12

    def test_non_finite_gradient_names_first_bad_parameter(self):
        a = Tensor(np.zeros(2), requires_grad=True, name="a")
        b = Tensor(np.zeros(2), requires_grad=True, name="b")
        a.grad, b.grad = np.array([3.0, 4.0]), np.array([1.0, np.nan])
        with pytest.raises(TrainingAbort, match="parameter b") as exc:
            clip_global_norm([a, b])
        assert exc.value.term == "b"

    def test_overflowing_norm_aborts_as_grad_norm(self):
        a = Tensor(np.zeros(2), requires_grad=True, name="a")
        a.grad = np.array([1e200, 1e200])
        with np.errstate(over="ignore"), pytest.raises(TrainingAbort, match="gradient norm") as exc:
            clip_global_norm([a])
        assert exc.value.term == "grad-norm"

    def test_clip_leaves_small_gradients(self):
        a = Tensor(np.zeros(2), requires_grad=True, name="a")
        a.grad = np.array([3.0, 4.0])
        clip_global_norm([a])
        assert np.array_equal(a.grad, [3.0, 4.0])

    def test_frozen_restores_flags(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=False)
        with frozen([a, b]):
            assert not a.requires_grad and not b.requires_grad
        assert a.requires_grad and not b.requires_grad

    def test_frozen_restores_on_error(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with frozen([a]):
                raise RuntimeError("boom")
        assert a.requires_grad


class TestAblations:
    def test_variant_mapping(self):
        assert Ablations().variant() == "full"
        assert Ablations(no_z=True).variant() == "no_z"
        assert Ablations(no_kv=True).variant() == "no_kv"
        assert Ablations(no_pr=True).variant() == "no_pr"

    def test_conflicting_variants_rejected(self):
        with pytest.raises(ContractError):
            Ablations(no_z=True, no_kv=True).variant()

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(lr_main=0.0)
        with pytest.raises(ContractError):
            TrainConfig(lr_floor=1e-2)
        with pytest.raises(ContractError):
            TrainConfig(batch=0)
        with pytest.raises(ContractError):
            TrainConfig(steps=0)


class TestPhases:
    def test_main_phase_freezes_student(self):
        teacher, student, cfg = slim_setup(seed=3)
        state = make_state(teacher, student, cfg)
        batch = make_pairs(2, seed=3)
        student_before = param_bytes(student)
        teacher_before = param_bytes(teacher)
        parts, gap = main_phase(state, batch, lr=1e-3)
        assert param_bytes(student) == student_before
        assert param_bytes(teacher) != teacher_before
        assert parts["seg"] > 0.0 and gap >= 0.0

    def test_sub_phase_freezes_teacher(self):
        teacher, student, cfg = slim_setup(seed=4)
        state = make_state(teacher, student, cfg)
        batch = make_pairs(2, seed=4)
        teacher_before = param_bytes(teacher)
        student_before = param_bytes(student)
        total, _, _ = sub_phase(state, batch, lr=1e-3)
        assert param_bytes(teacher) == teacher_before
        assert param_bytes(student) != student_before
        assert total >= 0.0

    def test_seg_gradients_never_touch_student(self):
        teacher, student, cfg = slim_setup(seed=5)
        state = make_state(teacher, student, cfg)
        vis, ir = make_pairs(1, seed=5)[0]
        mv = state.provider.masks_for(vis, "vis")
        mi = state.provider.masks_for(ir, "ir")
        ref, _ = teacher.forward(vis, ir, make_patches(vis, mv), make_patches(ir, mi))
        seg = loss_seg(state.stub.forward(ref),
                       synth_labels(mv, mi, state.stub.n_classes))
        ad.backward(seg)
        assert all(p.grad is None for _, p in student.named_parameters())
        assert any(p.grad is not None for _, p in teacher.named_parameters())


def batch_graph_objective(state, batch, need_seg):
    """Reference for `training._fold`: every pair's terms built first, each
    term summed over the batch in pair order, the sums added in term order
    and scaled by 1/n, then one `backward` through the whole batch's graph.
    Returns (float total, float parts)."""
    gaps = []
    samples = [{k: v if isinstance(v, list) else [v] for k, v in
                training._sample_terms(state, vis, ir, need_seg, gaps).items()}
               for vis, ir in batch]
    sums = {k: reduce(operator.add, [t for s in samples for t in s[k]]) for k in samples[0]}
    inv = 1.0 / len(batch)
    total = reduce(operator.add, sums.values()) * inv
    ad.backward(total)
    return float(total.data), {k: max(0.0, float(s.data) * inv) for k, s in sums.items()}


class TestPerPairBackward:
    """Each pair is backpropagated as soon as its terms exist; gradients
    accumulate in the leaves across the batch."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("phase", ["main", "sub"])
    def test_matches_one_backward_through_the_batch(self, monkeypatch, phase, n):
        batch = make_pairs(n, seed=20)
        fold_state, ref_state = (make_state(*slim_setup(seed=20, batch=n)) for _ in range(2))
        # the gradients _update hands to the clip, before clip and Adam touch them
        seen = {}
        real_clip = training.clip_global_norm

        def snapshot(params):
            params = list(params)
            seen.update((p.name, p.grad.copy()) for p in params if p.grad is not None)
            return real_clip(params)

        monkeypatch.setattr(training, "clip_global_norm", snapshot)
        if phase == "main":
            parts, _ = main_phase(fold_state, batch, lr=1e-3)
            net, other = ref_state.teacher, ref_state.student
        else:
            total, parts, _ = sub_phase(fold_state, batch, lr=1e-3)
            net, other = ref_state.student, ref_state.teacher
        with frozen(other.parameters()):
            ref_total, ref_parts = batch_graph_objective(ref_state, batch, phase == "main")
        assert parts == ref_parts
        if phase == "sub":
            assert total == ref_total
        ref_grads = {p.name: p.grad for p in net.parameters() if p.grad is not None}
        assert ref_grads and seen.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            if n == 1:
                assert np.array_equal(seen[name], g), name
            else:
                assert np.max(np.abs(seen[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    def test_step_peak_memory_does_not_grow_with_the_batch(self):
        # Traced peak of one main_phase plus sub_phase, slim nets at crop 32.
        # One backward through the whole batch's graph holds every pair's
        # tape: batch 4 peaked at 41.5 MB against 11.5 MB at batch 1 (3.6x).
        # Pair by pair, batch 4 reads 11.8 MB against 11.6 MB (1.02x).
        peaks = {}
        for n in (1, 4):
            state = make_state(*slim_setup(seed=21, batch=n, crop=32))
            batch = make_pairs(n, h=32, w=32, seed=21)
            tracemalloc.start()
            try:
                main_phase(state, batch, lr=1e-3)
                sub_phase(state, batch, lr=1e-3)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.5 * peaks[1], peaks


class TestPretrain:
    def test_zero_epochs_is_identity(self):
        teacher, student, cfg = slim_setup(seed=6, pretrain_epochs=0)
        t0, s0 = teacher.state_checksum(), student.state_checksum()
        pretrain(teacher, student, make_pairs(2, seed=6), cfg)
        assert teacher.state_checksum() == t0
        assert student.state_checksum() == s0

    def test_reduces_source_fidelity_loss(self):
        # 8 pairs, batch 4 -> 2 steps per epoch -> 100 steps
        teacher, student, cfg = slim_setup(seed=7, batch=4, pretrain_epochs=50)
        pairs = make_pairs(8, seed=7)
        state = make_state(teacher, student, cfg)
        before_t, before_s = source_fidelity(state, pairs)
        pretrain(teacher, student, pairs, cfg)
        after_t, after_s = source_fidelity(state, pairs)
        assert after_t <= 0.7 * before_t
        assert after_s <= 0.7 * before_s

    def test_deterministic(self):
        pairs = make_pairs(2, seed=8)
        sums = []
        for _ in range(2):
            teacher, student, cfg = slim_setup(seed=8, pretrain_epochs=2)
            pretrain(teacher, student, pairs, cfg)
            sums.append((teacher.state_checksum(), student.state_checksum()))
        assert sums[0] == sums[1]


class TestAlternate:
    def test_report_shape_and_additivity(self):
        teacher, student, cfg = slim_setup(seed=9, steps=4)
        report = alternate_train(teacher, student, make_pairs(4, seed=9), cfg,
                                 verbose=False)
        assert [r.step for r in report.rows] == [1, 2, 3, 4]
        for r in report.rows:
            assert abs(r.total_sub - (r.fea + r.context + r.cs)) <= 1e-9
            assert abs(r.total_main - (r.total_sub + r.seg)) <= 1e-9
        assert not report.diverged
        assert len(report.checksum) == 64

    def test_lr_schedule_monotone(self):
        teacher, student, cfg = slim_setup(seed=10, steps=5)
        report = alternate_train(teacher, student, make_pairs(2, seed=10), cfg,
                                 verbose=False)
        lrs_m = [r.lr_main for r in report.rows]
        lrs_s = [r.lr_sub for r in report.rows]
        assert all(a >= b for a, b in zip(lrs_m, lrs_m[1:]))
        assert all(a >= b for a, b in zip(lrs_s, lrs_s[1:]))
        assert lrs_m[0] == cfg.lr_main and lrs_s[0] == cfg.lr_sub

    def test_progress_lines(self, capsys):
        teacher, student, cfg = slim_setup(seed=11, steps=2)
        alternate_train(teacher, student, make_pairs(2, seed=11), cfg, verbose=True)
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("step=")]
        assert len(lines) == 2
        assert re.match(r"^step=1 Lds=\S+ Ldm=\S+ lr_m=\S+ lr_s=\S+$", lines[0])

    def test_deterministic_runs(self, tmp_path):
        outs = []
        for run in range(2):
            teacher, student, cfg = slim_setup(seed=12, steps=3)
            report = alternate_train(teacher, student, make_pairs(3, seed=12), cfg,
                                     verbose=False)
            csv = tmp_path / f"r{run}.csv"
            report.write_csv(csv)
            outs.append((report.checksum, csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_csv_header(self, tmp_path):
        teacher, student, cfg = slim_setup(seed=13, steps=1)
        report = alternate_train(teacher, student, make_pairs(2, seed=13), cfg,
                                 verbose=False)
        report.write_csv(tmp_path / "t.csv")
        text = (tmp_path / "t.csv").read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == 2

    def test_offline_two_phases(self):
        teacher, student, cfg = slim_setup(seed=14, steps=3,
                                           ablations=Ablations(offline=True))
        report = alternate_train(teacher, student, make_pairs(2, seed=14), cfg,
                                 verbose=False)
        assert len(report.rows) == 6
        teacher_rows, student_rows = report.rows[:3], report.rows[3:]
        assert all(r.fea == 0.0 and r.cs == 0.0 and r.seg > 0.0 for r in teacher_rows)
        assert all(r.seg == 0.0 for r in student_rows)
        assert np.isfinite(student_rows[-1].total_sub)

    def test_loss_term_ablations_zero_their_columns(self):
        teacher, student, cfg = slim_setup(
            seed=15, steps=1,
            ablations=Ablations(no_fea=True, no_cs=True))
        report = alternate_train(teacher, student, make_pairs(2, seed=15), cfg,
                                 verbose=False)
        row = report.rows[0]
        assert row.fea == 0.0 and row.cs == 0.0
        assert row.context > 0.0

    def test_nan_term_aborts_with_name(self, monkeypatch):
        def boom(*a, **k):
            raise NonFiniteError("synthetic non-finite value")

        monkeypatch.setattr(losses_mod, "loss_fea", boom)
        teacher, student, cfg = slim_setup(seed=16, steps=1)
        with pytest.raises(TrainingAbort, match="fea") as err:
            alternate_train(teacher, student, make_pairs(2, seed=16), cfg,
                            verbose=False)
        assert err.value.term == "fea"

    def test_divergence_predicate(self):
        assert diverged(0.1, 1.01)
        assert not diverged(0.1, 0.99)
        assert not diverged(None, 5.0)  # no previous epoch yet

    def test_epoch_growth_halts_run(self, monkeypatch):
        # huge lrs alone never trip the guard here: clipping plus bounded
        # outputs push runs onto a flat plateau instead, so drive the 10x
        # epoch-growth halt through a controlled exploding term
        calls = {"n": 0}
        real = losses_mod.loss_fea

        def exploding(taps, feats):
            calls["n"] += 1
            return real(taps, feats) + Tensor(10.0 ** calls["n"])

        monkeypatch.setattr(losses_mod, "loss_fea", exploding)
        teacher, student, cfg = slim_setup(seed=17, distill_epochs=8)
        report = alternate_train(teacher, student, make_pairs(2, seed=17), cfg,
                                 verbose=False)
        assert report.diverged
        assert len(report.rows) < 8
        assert np.isfinite(report.rows[-1].total_sub)

    def test_offline_deterministic_runs(self, tmp_path):
        outs = []
        for run in range(2):
            teacher, student, cfg = slim_setup(seed=19, steps=2,
                                               ablations=Ablations(offline=True))
            report = alternate_train(teacher, student, make_pairs(3, h=24, w=24, seed=19),
                                     cfg, verbose=False)
            csv = tmp_path / f"r{run}.csv"
            report.write_csv(csv)
            outs.append((report.checksum, csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_offline_epoch_growth_halts_student_pass(self, monkeypatch):
        calls = {"n": 0}
        real = losses_mod.loss_fea

        def exploding(taps, feats):
            calls["n"] += 1
            return real(taps, feats) + Tensor(10.0 ** calls["n"])

        monkeypatch.setattr(losses_mod, "loss_fea", exploding)
        teacher, student, cfg = slim_setup(seed=18, batch=4, distill_epochs=6,
                                           ablations=Ablations(offline=True))
        report = alternate_train(teacher, student, make_pairs(2, seed=18), cfg,
                                 verbose=False)
        # all 6 teacher steps, then the student pass halts after its second epoch
        assert report.diverged
        assert [r.step for r in report.rows] == list(range(1, 9))
        assert all(r.lr_sub == 0.0 for r in report.rows[:6])
        assert all(r.lr_main == 0.0 for r in report.rows[6:])
        assert len(report.epoch_sub) == 2
        assert np.isfinite(report.rows[-1].total_sub)


class TestGuardedOutputs:
    """A guarded term or forward that returns NaN/Inf without raising aborts
    the run with that term named."""

    def test_non_finite_loss_scalar_aborts_with_name(self, monkeypatch):
        real = losses_mod.loss_fea
        # log(0) is -inf: an op result, which nothing scans on the way out
        monkeypatch.setattr(losses_mod, "loss_fea",
                            lambda *a, **k: ad.log(real(*a, **k) * 0.0))
        teacher, student, cfg = slim_setup(seed=16, steps=1)
        with np.errstate(divide="ignore"), pytest.raises(TrainingAbort, match="fea") as err:
            alternate_train(teacher, student, make_pairs(2, seed=16), cfg, verbose=False)
        assert err.value.term == "fea"

    def test_non_finite_forward_image_aborts_with_name(self, monkeypatch):
        teacher, student, cfg = slim_setup(seed=17, steps=1)
        real = student.forward

        def nan_image(vis, ir):
            fused, taps = real(vis, ir)
            return ad.sqrt(fused - 2.0), taps  # sqrt of a negative is NaN

        monkeypatch.setattr(student, "forward", nan_image)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingAbort) as err:
            alternate_train(teacher, student, make_pairs(2, seed=17), cfg, verbose=False)
        assert err.value.term == "student-forward"
        assert "student-forward" in str(err.value)
