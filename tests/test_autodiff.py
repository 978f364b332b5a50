"""Tensor engine: op semantics, backward rules, graph behaviour.

Expected values marked as oracle constants were produced by the
independent references in this file (direct-summation convolution,
extended-precision softmax via mpmath) and frozen here.
"""
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.errors import ContractError, NonFiniteError, ShapeError
from semfuse.gradcheck import check_scalar_fn
from semfuse.networks import dense_block


@pytest.fixture
def rng():
    return np.random.default_rng(2718)


# --------------------------------------------------------------------------
# independent oracles


def conv_oracle(x, w, padding=0, stride=1):
    """Direct-summation cross-correlation, no im2col, no BLAS."""
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(cin):
                    for di in range(k):
                        for dj in range(k):
                            acc += w[o, c, di, dj] * xp[c, i * stride + di, j * stride + dj]
                out[o, i, j] = acc
    return out


def sobel_oracle(img):
    """Hand convolution with replicate padding on a (H, W) array."""
    gx_k = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
    gy_k = gx_k.T
    h, w = img.shape
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros((2, h, w))
    for i in range(h):
        for j in range(w):
            win = padded[i:i + 3, j:j + 3]
            out[0, i, j] = (gx_k * win).sum()
            out[1, i, j] = (gy_k * win).sum()
    return out


# mpmath with 50 decimal digits: softmax([1, 2, 3]), frozen.
SOFTMAX_123 = np.array([0.09003057317038046, 0.24472847105479764, 0.6652409557748219])


# --------------------------------------------------------------------------
# elementwise and reductions


class TestElementwise:
    def test_add_mul_values(self):
        a = ad.Tensor([1.0, 2.0])
        b = ad.Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])
        assert np.allclose((a * b).data, [3.0, 8.0])

    def test_broadcast_bias_grad(self):
        a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
        b = ad.Tensor(np.zeros((3, 1)), requires_grad=True)
        ad.tsum(a + b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (3, 1)
        assert np.allclose(b.grad, 4.0)

    def test_sum_grad_is_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_mean_square_diff_grad(self):
        x = np.array([1.0, 2.0, 5.0])
        y = np.array([0.0, 4.0, 5.0])
        tx = ad.Tensor(x, requires_grad=True)
        ad.tmean(ad.square(tx - ad.Tensor(y))).backward()
        assert np.allclose(tx.grad, 2.0 * (x - y) / 3.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8))
    def test_product_rule_property(self, vals):
        x = ad.Tensor(np.array(vals), requires_grad=True)
        ad.tsum(ad.square(x)).backward()
        assert np.allclose(x.grad, 2.0 * np.array(vals))


class TestGraph:
    def test_diamond_accumulation(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x          # dy/dx = 2x + 1
        ad.tsum(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_backward_accumulates_until_reset(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        ad.tsum(x * x).backward()
        first = x.grad.copy()
        ad.tsum(x * x).backward()
        assert np.allclose(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_backward_rejects_nonscalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2).backward()

    def test_nonfinite_creation_rejected(self):
        with pytest.raises(NonFiniteError):
            ad.Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            ad.Tensor(np.array([np.inf]))

    def test_deterministic_replay(self, rng):
        a = rng.normal(size=(4, 4))

        def run():
            t = ad.Tensor(a.copy(), requires_grad=True)
            out = ad.tmean(ad.sigmoid(ad.matmul(t, ad.transpose2d(t))))
            out.backward()
            return out.data.copy(), t.grad.copy()

        (v1, g1), (v2, g2) = run(), run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)

    def test_constant_inputs_build_no_graph(self):
        a = ad.Tensor(np.ones(3))
        out = a * 2 + 1
        assert not out.requires_grad
        assert out._parents == ()


class TestEdges:
    """An op records an edge only to the inputs that need a gradient when it runs."""

    def test_mul_by_constant_records_only_the_variable(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert ad.mul(x, ad.Tensor(rng.normal(size=(3, 4))))._parents == (x,)
        assert (x * 0.5)._parents == (x,)

    def test_conv_records_only_trainable_sides(self, rng):
        img = ad.Tensor(rng.normal(size=(2, 5, 5)))
        w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        assert ad.conv2d(img, w, padding=1)._parents == (w,)
        img.requires_grad, w.requires_grad = True, False
        assert ad.conv2d(img, w, padding=1)._parents == (img,)

    def test_conv_on_constant_image_runs_no_col2im(self, rng, monkeypatch):
        calls = []
        real = ad._col2im

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ad, "_col2im", counting)
        img = ad.Tensor(rng.normal(size=(2, 5, 5)))
        w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        ad.tsum(ad.conv2d(img, w, padding=1)).backward()
        assert calls == [] and w.grad is not None
        img.requires_grad = True
        ad.tsum(ad.conv2d(img, w, padding=1)).backward()
        assert calls == [1] and img.grad is not None

    def test_trainable_conv_keeps_no_columns(self, rng):
        # the weight rule rebuilds its columns in the backward; a kept
        # column matrix alone would be 9x the input
        x = ad.Tensor(rng.normal(size=(16, 64, 64)))
        w = ad.Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, padding=1)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._parents == (w,)
        assert kept <= 2 * x.data.nbytes, f"{kept / x.data.nbytes:.2f}x the input"

    def test_input_frozen_at_record_gets_no_grad(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with ad.frozen([w]):
            out = ad.tsum(ad.matmul(x, w))
        assert w.requires_grad
        out.backward()
        assert w.grad is None
        assert np.array_equal(x.grad, np.broadcast_to(w.data.sum(axis=1), (2, 3)))

    def test_constant_parts_leave_trainable_grads_unchanged(self, rng):
        x_data = rng.normal(size=(3, 5, 6))
        layers = [(ad.Tensor(rng.normal(size=(2, 3 + 2 * j, 3, 3)) * 0.3, requires_grad=True),
                   ad.Tensor(rng.normal(size=2) * 0.1, requires_grad=True)) for j in range(3)]
        params = [t for pair in layers for t in pair]
        coef = rng.normal(size=(9, 5, 6))

        def grads(trainable):
            x = ad.Tensor(x_data, requires_grad=trainable)
            for t in params:
                t.zero_grad()
            ad.tsum(ad.mul(ad.square(dense_block(x, layers)), coef)).backward()
            return x.grad, [t.grad for t in params]

        x_grad, want = grads(True)
        frozen_x_grad, got = grads(False)
        assert x_grad is not None and frozen_x_grad is None
        assert len(got) == len(want) == 6
        for g, ref in zip(got, want):
            assert g.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# matmul


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = ad.matmul(ad.Tensor(m), ad.Tensor(np.eye(3)))
        assert np.array_equal(out.data, m)

    def test_projector_is_idempotent(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        m = ad.matmul(ad.Tensor(p), ad.Tensor(p))
        assert np.array_equal(m.data, p)

    def test_grad_matches_closed_form_and_fd(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ad.tsum(ad.matmul(a, b)).backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))
        res = check_scalar_fn("matmul", lambda: ad.tsum(ad.matmul(a, b)),
                              {"a": a, "b": b}, h=1e-5)
        assert res.passed, res.per_tensor

    def test_shape_error_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


# --------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_scalar_kernel_doubles(self):
        x = ad.Tensor(np.ones((1, 3, 3)))
        w = ad.Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ad.conv2d(x, w)
        assert np.array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_delta_impulse_reflects_kernel(self, rng):
        k = 3
        x = np.zeros((1, 7, 7))
        x[0, 3, 4] = 1.0
        w = rng.normal(size=(1, 1, k, k))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding=1)
        assert np.allclose(out.data, conv_oracle(x, w, padding=1))
        # reflected copy of the kernel centred at the impulse
        assert np.allclose(out.data[0, 2:5, 3:6], w[0, 0, ::-1, ::-1])

    def test_matches_direct_summation(self, rng):
        x = rng.normal(size=(2, 6, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        for padding, stride in [(0, 1), (1, 1), (1, 2), (2, 2)]:
            got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding=padding, stride=stride)
            assert np.allclose(got.data, conv_oracle(x, w, padding, stride)), (padding, stride)

    def test_gradients_vs_fd(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)

        def build():
            return ad.tsum(ad.square(ad.conv2d(x, w, padding=1)))

        res = check_scalar_fn("conv2d", build, {"x": x, "w": w}, h=1e-5)
        assert res.passed, res.per_tensor

    def test_strided_gradients_vs_fd(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.5, requires_grad=True)

        def build():
            return ad.tsum(ad.square(ad.conv2d(x, w, padding=1, stride=2)))

        res = check_scalar_fn("conv2d_s2", build, {"x": x, "w": w}, h=1e-5)
        assert res.passed, res.per_tensor

    def test_rejects_even_kernel_and_bad_channels(self):
        with pytest.raises(ShapeError):
            ad.conv2d(ad.Tensor(np.ones((1, 4, 4))), ad.Tensor(np.ones((1, 1, 2, 2))))
        with pytest.raises(ShapeError):
            ad.conv2d(ad.Tensor(np.ones((2, 4, 4))), ad.Tensor(np.ones((1, 3, 3, 3))))


# (kernel side, padding, stride) of every strided or padded conv the networks run
FROZEN_CONVS = [(3, 1, 1), (3, 1, 2), (1, 0, 2)]


def im2col_oracle(xp, k, stride):
    """Sliding-window im2col: rows (c, di, dj), columns (i, j)."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    return win.transpose(0, 3, 4, 1, 2).reshape(xp.shape[0] * k * k, -1)


def padded(x, padding):
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding)))


def conv_and_one_gemm(x, w, padding, stride):
    """(conv2d output, one GEMM over the full column matrix) of one conv."""
    got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding=padding, stride=stride).data
    one_gemm = w.reshape(w.shape[0], -1) @ im2col_oracle(padded(x, padding), w.shape[2], stride)
    return got, one_gemm.reshape(got.shape)


def weight_grad_and_one_gemm(x, w, padding, stride, rng):
    """(conv2d weight gradient, one GEMM g @ columns.T) for a random output gradient g."""
    wt = ad.Tensor(w, requires_grad=True)
    out = ad.conv2d(ad.Tensor(x), wt, padding=padding, stride=stride)
    g = rng.normal(size=out.shape)
    ad.tsum(ad.mul(out, g)).backward()
    cols = im2col_oracle(padded(x, padding), w.shape[2], stride)
    return wt.grad, (g.reshape(w.shape[0], -1) @ cols.T).reshape(w.shape)


class TestFrozenWeightBlocks:
    """Every conv, frozen or trainable, runs one GEMM per BLOCK_PX output pixels.

    The reference is one GEMM over the full column matrix, built in the test.
    """

    @pytest.mark.parametrize("k,padding,stride", FROZEN_CONVS)
    @pytest.mark.parametrize("side", [(256, 256), (33, 17)])
    def test_bytes_equal_kept_columns(self, rng, side, k, padding, stride):
        # 256^2 splits into whole blocks, 33x17 is one block
        x, w = rng.normal(size=(4, *side)), rng.normal(size=(3, 4, k, k))
        got, one_gemm = conv_and_one_gemm(x, w, padding, stride)
        assert got.tobytes() == one_gemm.tobytes()

    @pytest.mark.parametrize("k,padding,stride", FROZEN_CONVS)
    @pytest.mark.parametrize("side", [(97, 131), (300, 211)])
    def test_close_to_kept_columns_across_blocks(self, rng, side, k, padding, stride):
        # the last band of rows is partial
        x, w = rng.normal(size=(4, *side)), rng.normal(size=(3, 4, k, k))
        got, one_gemm = conv_and_one_gemm(x, w, padding, stride)
        assert np.allclose(got, one_gemm, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k,padding,stride", FROZEN_CONVS)
    @pytest.mark.parametrize("side", [(33, 17), (64, 64)])
    def test_weight_grad_bytes_equal_one_gemm_in_one_block(self, rng, side, k, padding, stride):
        x, w = rng.normal(size=(4, *side)), rng.normal(size=(3, 4, k, k))
        got, one_gemm = weight_grad_and_one_gemm(x, w, padding, stride, rng)
        assert got.tobytes() == one_gemm.tobytes()

    @pytest.mark.parametrize("k,padding,stride", FROZEN_CONVS)
    @pytest.mark.parametrize("side", [(97, 131), (300, 211)])
    def test_weight_grad_close_to_one_gemm_across_blocks(self, rng, side, k, padding, stride):
        # each entry sums thousands of signed products, so a small entry can
        # move by more than 1e-13 of itself; bound the move by the largest
        x, w = rng.normal(size=(4, *side)), rng.normal(size=(3, 4, k, k))
        got, one_gemm = weight_grad_and_one_gemm(x, w, padding, stride, rng)
        assert np.abs(got - one_gemm).max() <= 1e-13 * np.abs(one_gemm).max()

    @pytest.mark.parametrize("block_px", [1, 5, 7, 12, 35, 64])
    @pytest.mark.parametrize("k,padding,stride", FROZEN_CONVS + [(3, 0, 1), (1, 0, 1)])
    def test_partial_blocks_match_direct_summation(self, rng, monkeypatch, block_px,
                                                   k, padding, stride):
        # 5x7 output pixels (3x5 unpadded): bands of one row, of several
        # rows, and a partial last band
        monkeypatch.setattr(ad, "BLOCK_PX", block_px)
        x, w = rng.normal(size=(2, 5 * stride, 7 * stride)), rng.normal(size=(3, 2, k, k))
        got, _ = conv_and_one_gemm(x, w, padding, stride)
        assert np.allclose(got, conv_oracle(x, w, padding, stride), rtol=1e-12, atol=1e-12)


def band_columns(x, k, padding, stride, ho, wo):
    """[(p0, p1, cols)] of every band `ad._run_bands` hands out, in band order."""
    got = {}

    def record(b, p0, p1, cols, _part):
        got[b] = (p0, p1, cols.copy())           # the group's next band reuses the buffer

    ad._run_bands(x, k, padding, stride, wo, ad._bands(ho, wo), record)
    return [got[b] for b in sorted(got)]


class TestIm2col:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("side", [(5, 7), (6, 4)])
    def test_matches_sliding_window(self, rng, monkeypatch, k, stride, padding, side):
        x = rng.normal(size=(3, *side))
        ho = (side[0] + 2 * padding - k) // stride + 1
        wo = (side[1] + 2 * padding - k) // stride + 1
        for block_px in [1, 5, 7, 35]:
            monkeypatch.setattr(ad, "BLOCK_PX", block_px)
            bands = band_columns(x, k, padding, stride, ho, wo)
            spans = [(p0, p1) for p0, p1, _ in bands]
            assert spans[0][0] == 0 and spans[-1][1] == ho * wo
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            got = np.concatenate([cols for _, _, cols in bands], axis=1)
            assert np.array_equal(got, im2col_oracle(padded(x, padding), k, stride)), block_px

    @pytest.mark.parametrize("block_px", [5, 7, 35])
    def test_blocks_are_bands_of_whole_rows(self, rng, monkeypatch, block_px):
        # 9x6 output pixels, for a 1x1 kernel as for a 3x3: a row wider
        # than BLOCK_PX is a band of its own, and at 35 the last band holds
        # the 4 rows left over
        monkeypatch.setattr(ad, "BLOCK_PX", block_px)
        ho, wo = 9, 6
        for k in (1, 3):
            x = rng.normal(size=(2, ho + k - 1, wo + k - 1))
            spans = [(p0, p1) for p0, p1, _ in band_columns(x, k, 0, 1, ho, wo)]
            assert len(spans) == {5: 9, 7: 9, 35: 2}[block_px], (k, spans)
            assert all(p0 % wo == 0 and p1 % wo == 0 for p0, p1 in spans), (k, spans)
            assert all(p1 - p0 == max(1, block_px // wo) * wo
                       for p0, p1 in spans[:-1]), (k, spans)


def conv_and_weight_grad(x, w, padding, stride, g):
    """(conv2d output, its weight gradient for output gradient g)."""
    wt = ad.Tensor(w, requires_grad=True)
    out = ad.conv2d(ad.Tensor(x), wt, padding=padding, stride=stride)
    ad.tsum(ad.mul(out, g)).backward()
    return out.data, wt.grad


@pytest.fixture
def short_switch_interval():
    # hand the interpreter lock between the band threads far more often
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestBandPool:
    """A conv's bands run in one group per worker, with the serial loop's bits."""

    @pytest.mark.parametrize("block_px", [7, 35, 4096])
    @pytest.mark.parametrize("side,stride", [((97, 131), 1), ((300, 211), 2),
                                             ((129, 515), 1), ((33, 17), 1)])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("groups", [2, 3])
    def test_pool_bits_equal_one_worker(self, rng, monkeypatch, short_switch_interval,
                                        block_px, side, stride, padding, groups):
        # 3 groups is more than the pool's MAX_GROUPS threads, so groups
        # also wait in its queue
        monkeypatch.setattr(ad, "BLOCK_PX", block_px)
        monkeypatch.setattr(ad, "MAX_GROUPS", groups)
        x, w = rng.normal(size=(3, *side)), rng.normal(size=(4, 3, 3, 3))
        ho = (side[0] + 2 * padding - 3) // stride + 1
        wo = (side[1] + 2 * padding - 3) // stride + 1
        g = rng.normal(size=(4, ho, wo))
        monkeypatch.setattr(ad, "_WORKERS", 1)
        serial = conv_and_weight_grad(x, w, padding, stride, g)
        monkeypatch.setattr(ad, "_WORKERS", groups)
        pooled = conv_and_weight_grad(x, w, padding, stride, g)
        assert np.array_equal(pooled[0], serial[0])
        assert np.array_equal(pooled[1], serial[1])

    def test_errstate_holds_in_the_workers(self, monkeypatch):
        # every band's GEMM overflows to inf; a worker outside the caller's
        # errstate would warn, and the warning would raise here
        monkeypatch.setattr(ad, "BLOCK_PX", 7)
        monkeypatch.setattr(ad, "_WORKERS", 2)
        x, w = np.full((2, 9, 9), 1e200), np.full((3, 2, 3, 3), 1e200)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding=1)
        assert len(ad._bands(9, 9)) == 9 and np.isposinf(out.data).all()

    def test_errstate_callback_runs_for_a_worker_overflow(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_PX", 7)
        monkeypatch.setattr(ad, "_WORKERS", 2)
        x, w = np.full((2, 9, 9), 1e200), np.full((3, 2, 3, 3), 1e200)
        seen = []
        with np.errstate(over="call", call=lambda kind, flag: seen.append(kind)):
            ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding=1)
        assert seen and set(seen) == {"overflow"}

    def test_groups_are_capped_whatever_the_cores(self, rng, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_PX", 8)
        monkeypatch.setattr(ad, "_WORKERS", 8)
        x = rng.normal(size=(2, 8, 8))
        buffers = {}

        def gemm(b, p0, p1, cols, _part):
            buffers[b] = cols.ctypes.data        # each group reuses one column buffer

        ad._run_bands(x, 3, 1, 1, 8, ad._bands(8, 8), gemm)
        assert len(set(buffers.values())) == ad.MAX_GROUPS == 2
        assert buffers[0] == buffers[3] != buffers[4] == buffers[7]

    def test_band_exception_reaches_caller_as_itself(self, rng, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_PX", 8)
        x = rng.normal(size=(2, 8, 8))
        bands = ad._bands(8, 8)                      # 8 bands, 4 per group on two workers
        first, last = ValueError("band 1"), ValueError("band 7")
        # (workers, errors by band, bands that end): on two workers the
        # other group ends well after band 1's error and before it reaches
        # the caller, and with both groups failing the first group's error
        # wins; on one worker no band after the failing one runs
        for workers, errors, ended in [(2, {1: first}, [0, 1, 4, 5, 6, 7]),
                                       (2, {1: first, 7: last}, [0, 1, 4, 5, 6, 7]),
                                       (1, {1: first}, [0, 1])]:
            monkeypatch.setattr(ad, "_WORKERS", workers)
            ran = []

            def gemm(b, p0, p1, cols, _part):
                if b == 7:
                    time.sleep(0.2)
                ran.append(b)
                if b in errors:
                    raise errors[b]

            with pytest.raises(ValueError) as info:
                ad._run_bands(x, 3, 1, 1, 8, bands, gemm)
            assert info.value is first and sorted(ran) == ended


def conv_chain(x, w, b, padding, stride, leaky):
    """A conv layer as separate nodes: conv2d, then + reshape(b), then leaky_relu."""
    out = ad.conv2d(x, w, padding=padding, stride=stride)
    out = out if b is None else out + ad.reshape(b, (b.size, 1, 1))
    return ad.leaky_relu(out) if leaky else out


def layer_bits(layer, leaves, coef):
    """(output, then each leaf's gradient) of one layer, for output gradient `coef`."""
    for t in leaves:
        t.zero_grad()
    out = layer()
    ad.tsum(ad.mul(out, coef)).backward()
    return [out.data] + [t.grad for t in leaves]


class TestConvBiasLeaky:
    """conv2d(x, w, b, leaky=...) is one node with the chain's bits."""

    @pytest.mark.parametrize("leaky", [True, False])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("block_px", [11, 4096])          # several bands, one band
    @pytest.mark.parametrize("k,padding,stride", [(3, 0, 1), (3, 1, 1), (3, 1, 2),
                                                  (1, 0, 1), (1, 0, 2)])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_bits_equal_chain(self, rng, monkeypatch, leaky, with_bias, block_px,
                              k, padding, stride, groups):
        monkeypatch.setattr(ad, "BLOCK_PX", block_px)
        monkeypatch.setattr(ad, "_WORKERS", groups)
        x = ad.Tensor(rng.normal(size=(3, 9, 11)), requires_grad=True)
        # rows of zero weights and zero bias (either sign) give exact-zero
        # pre-activations, the mask's edge; the GEMM sums from +0.0, so
        # they come out +0.0
        w_data, b_data = rng.normal(size=(5, 3, k, k)), rng.normal(size=5)
        w_data[1], w_data[3], b_data[1], b_data[3] = 0.0, -0.0, 0.0, -0.0
        w = ad.Tensor(w_data, requires_grad=True)
        b = ad.Tensor(b_data, requires_grad=True) if with_bias else None
        leaves = [x, w] + ([b] if with_bias else [])
        pre = conv_chain(x, w, b, padding, stride, False).data
        assert (pre == 0).any() and (pre < 0).any() and (pre > 0).any()
        coef = rng.normal(size=pre.shape)
        want = layer_bits(lambda: conv_chain(x, w, b, padding, stride, leaky), leaves, coef)
        got = layer_bits(lambda: ad.conv2d(x, w, b, padding=padding, stride=stride,
                                           leaky=leaky), leaves, coef)
        assert len(got) == len(want) == len(leaves) + 1
        for a, ref in zip(got, want):
            assert np.array_equal(a, ref) and a.tobytes() == ref.tobytes()

    def test_only_the_bias_trainable(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 6, 7)))
        w = ad.Tensor(rng.normal(size=(4, 2, 3, 3)))
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)
        coef = rng.normal(size=(4, 6, 7))
        want = layer_bits(lambda: conv_chain(x, w, b, 1, 1, True), [b], coef)
        got = layer_bits(lambda: ad.conv2d(x, w, b, padding=1, leaky=True), [b], coef)
        assert ad.conv2d(x, w, b, padding=1, leaky=True)._parents == (b,)
        for a, ref in zip(got, want):
            assert a.tobytes() == ref.tobytes()

    def test_subnormal_pre_activations_get_the_slope(self):
        # -5e-324 and -1e-323 times LEAKY_SLOPE round to -0.0, so the leaky
        # output's sign cannot tell them from zero; the pre-activation's
        # sign, which the node keeps, can
        x = ad.Tensor(np.zeros((1, 2, 3)))
        w = ad.Tensor(np.zeros((2, 1, 1, 1)))
        b = ad.Tensor(np.array([-5e-324, -1e-323]), requires_grad=True)
        coef = np.ones((2, 2, 3))
        want = layer_bits(lambda: conv_chain(x, w, b, 0, 1, True), [b], coef)
        got = layer_bits(lambda: ad.conv2d(x, w, b, leaky=True), [b], coef)
        assert (got[0] == 0).all() and np.signbit(got[0]).all()
        assert np.allclose(got[1], 6 * ad.LEAKY_SLOPE)
        assert got[1].tobytes() == want[1].tobytes()

    def test_gradients_vs_fd(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)

        def build():
            return ad.tsum(ad.square(ad.conv2d(x, w, b, padding=1, stride=2, leaky=True)))

        res = check_scalar_fn("conv2d_bias_leaky", build, {"x": x, "w": w, "b": b}, h=1e-5)
        assert res.passed, res.per_tensor

    def test_trainable_layer_keeps_one_output(self, rng):
        # the node keeps its output and a bool mask of its pre-activation's
        # sign, an eighth of the output's bytes; a chain of conv, + b and
        # leaky_relu keeps three maps of the output's size
        x = ad.Tensor(rng.normal(size=(16, 64, 64)))
        w = ad.Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=16), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, b, padding=1, leaky=True)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._parents == (w, b)
        assert kept <= 1.5 * out.data.nbytes, f"{kept / out.data.nbytes:.2f}x the output"

    def test_writes_into_a_given_out(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 6, 7)))
        w, b = ad.Tensor(rng.normal(size=(4, 2, 3, 3))), ad.Tensor(rng.normal(size=4))
        buf = np.zeros((6, 42))
        got = ad.conv2d(x, w, b, padding=1, leaky=True, out=buf[:4])
        want = ad.conv2d(x, w, b, padding=1, leaky=True)
        assert np.shares_memory(got.data, buf) and got.data.shape == (4, 6, 7)
        assert got.data.tobytes() == want.data.tobytes() and not buf[4:].any()
        with pytest.raises(ShapeError, match="out"):
            ad.conv2d(x, w, b, padding=1, out=buf[:3])

    def test_rejects_a_bias_of_the_wrong_size(self):
        with pytest.raises(ShapeError, match="bias"):
            ad.conv2d(ad.Tensor(np.ones((1, 4, 4))), ad.Tensor(np.ones((2, 1, 3, 3))),
                      ad.Tensor(np.ones(3)))


# --------------------------------------------------------------------------
# softmax


class TestSoftmaxRows:
    def test_uniform_rows(self):
        out = ad.softmax_rows(ad.Tensor(np.zeros((2, 4))))
        assert np.allclose(out.data, 0.25)

    def test_large_logits_no_overflow(self):
        out = ad.softmax_rows(ad.Tensor(np.array([[1000.0, 0.0]])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] > 1 - 1e-12
        assert out.data[0, 1] < 1e-12

    def test_matches_extended_precision_oracle(self):
        out = ad.softmax_rows(ad.Tensor(np.array([[1.0, 2.0, 3.0]])))
        assert np.allclose(out.data[0], SOFTMAX_123, rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
                    min_size=1, max_size=4).filter(lambda r: len({len(x) for x in r}) == 1))
    def test_rows_sum_to_one(self, rows_):
        out = ad.softmax_rows(ad.Tensor(np.array(rows_)))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_grad_vs_fd(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        r = ad.Tensor(rng.normal(size=(3, 5)))

        def build():
            return ad.tsum(ad.mul(ad.softmax_rows(x), r))

        res = check_scalar_fn("softmax_rows", build, {"x": x}, h=1e-5)
        assert res.passed, res.per_tensor


# --------------------------------------------------------------------------
# sobel


class TestSobel:
    def test_constant_is_exactly_zero(self):
        out = ad.sobel(ad.Tensor(np.full((1, 5, 7), 0.37)))
        assert np.all(out.data == 0.0)

    def test_step_edge_matches_hand_convolution(self):
        img = np.zeros((6, 6))
        img[:, 3:] = 1.0     # vertical edge between columns 2 and 3
        out = ad.sobel(ad.Tensor(img[None]))
        expect = sobel_oracle(img)
        assert np.array_equal(out.data, expect)
        # interior of the horizontal-response channel carries the +-4 ridge
        assert np.all(out.data[0, 1:-1, 2:4] == 4.0)
        assert np.all(out.data[1] == 0.0)

    def test_grad_vs_fd(self, rng):
        x = ad.Tensor(rng.normal(size=(1, 6, 6)), requires_grad=True)

        def build():
            return ad.tsum(ad.square(ad.sobel(x)))

        res = check_scalar_fn("sobel", build, {"x": x}, h=1e-5)
        assert res.passed, res.per_tensor

    def test_rejects_tiny_images(self):
        with pytest.raises(ShapeError):
            ad.sobel(ad.Tensor(np.ones((1, 2, 5))))


# --------------------------------------------------------------------------
# misc shape ops and nonlinearities


class TestShapeOps:
    def test_pad_replicate_values_and_grad(self, rng):
        x = ad.Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
        out = ad.pad_replicate(x, 1)
        assert np.array_equal(out.data, np.pad(x.data, ((0, 0), (1, 1), (1, 1)), mode="edge"))
        res = check_scalar_fn("pad_replicate", lambda: ad.tsum(ad.square(ad.pad_replicate(x, 1))),
                              {"x": x}, h=1e-5)
        assert res.passed

    def test_upsample_crop_roundtrip_grad(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def build():
            return ad.tsum(ad.square(ad.crop2d(ad.upsample_nearest2(x), 5, 7)))

        assert ad.upsample_nearest2(x).shape == (2, 6, 8)
        res = check_scalar_fn("upsample_crop", build, {"x": x}, h=1e-5)
        assert res.passed

    def test_index_views_the_window_and_scatters_its_grad(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
        key = (slice(1, 3), slice(None), slice(2, 5))
        out = ad.index(x, key)
        assert np.array_equal(out.data, x.data[1:3, :, 2:5])
        assert out.data.base is x.data
        ad.tsum(out).backward()
        want = np.zeros(x.shape)
        want[1:3, :, 2:5] = 1.0
        assert np.array_equal(x.grad, want)
        x.zero_grad()
        res = check_scalar_fn("index", lambda: ad.tsum(ad.square(ad.index(x, key))),
                              {"x": x}, h=1e-5)
        assert res.passed, res.per_tensor
        with pytest.raises(ContractError):
            ad.index(x, (0, slice(None)))

    def test_concat_rows_split_grads(self, rng):
        a = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            cat = ad.concat([a, b], axis=0)
            return ad.tsum(ad.square(ad.rows(cat, 1, 4)))

        res = check_scalar_fn("concat_rows", build, {"a": a, "b": b}, h=1e-5)
        assert res.passed

    def test_nonlinearities_vs_fd(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 4)) * 2, requires_grad=True)
        for name, fn in [("sigmoid", ad.sigmoid),
                         ("leaky_relu", ad.leaky_relu),
                         ("exp", ad.exp),
                         ("abs", ad.absval)]:
            res = check_scalar_fn(name, lambda f=fn: ad.tsum(ad.square(f(x))), {"x": x}, h=1e-5)
            assert res.passed, name

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_relu_bytes_equal_where(self, slope, monkeypatch):
        # leaky_relu reads the module's one slope at call time; its max form
        # equals the where form bit for bit at LEAKY_SLOPE (0.2) and at both
        # ends of [0, 1], so the identity does not hang on the value chosen
        assert ad.LEAKY_SLOPE == 0.2
        monkeypatch.setattr(ad, "LEAKY_SLOPE", slope)
        x = np.array([-0.0, 0.0, -1.5, -1e-300, -5e-324, 2.0, 1e-300, -3.0e5])
        got = ad.leaky_relu(ad.Tensor(x)).data
        assert got.tobytes() == np.where(x >= 0, x, slope * x).tobytes()
        assert np.signbit(got[0]) and not np.signbit(got[1])

    def test_leaky_relu_rejects_slope_outside_unit_interval(self):
        # the one slope is a constant in (0, 1], where max(a, slope * a)
        # is the leaky ReLU and an output's sign is its input's but for
        # the negative subnormals that round to -0.0; no call can set another
        assert 0.0 < ad.LEAKY_SLOPE <= 1.0
        for slope in (-0.1, 1.5, float("nan"), ad.LEAKY_SLOPE):
            with pytest.raises(TypeError):
                ad.leaky_relu(ad.Tensor(np.ones(3)), slope)

    def test_log_sqrt_clamp_vs_fd(self, rng):
        x = ad.Tensor(rng.uniform(0.5, 2.0, size=(4, 4)), requires_grad=True)
        for name, fn in [("log", ad.log), ("sqrt", ad.sqrt),
                         ("clamp_min", lambda t: ad.clamp_min(t, 0.1))]:
            res = check_scalar_fn(name, lambda f=fn: ad.tsum(f(x)), {"x": x}, h=1e-5)
            assert res.passed, name


class TestFiniteness:
    """Leaves are checked for NaN/Inf; op outputs are returned as computed."""

    def test_non_finite_op_result_is_returned(self):
        with np.errstate(divide="ignore"):
            out = ad.log(ad.Tensor(0.0))
        assert out.item() == -np.inf

    def test_non_finite_op_result_keeps_its_edge(self):
        x = ad.Tensor(np.array([0.0, 1.0]), requires_grad=True)
        with np.errstate(divide="ignore"):
            out = ad.log(x)
        assert out._parents == (x,) and np.isneginf(out.data[0])

    def test_gradcheck_fails_a_nan_backward_rule(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 4)))

        def double_with_nan_rule(a):
            return ad._from_op(2.0 * a.data, (a, lambda g: np.full_like(g, np.nan)))

        res = check_scalar_fn("nan_rule", lambda: ad.tsum(double_with_nan_rule(x)),
                              {"x": x}, h=1e-5)
        assert not res.passed
        assert "[FAIL]" in res.line()


class TestSoftmaxSharedGradient:
    @pytest.mark.parametrize("softmax_first", [False, True])
    def test_rule_leaves_a_shared_gradient_intact(self, rng, softmax_first):
        # add hands one gradient array to both of its inputs, so the softmax
        # rule must not work in place on the array it receives
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        s = ad.softmax_rows(x)
        read = rng.normal(size=(3, 4))
        both = ad.add(s, a) if softmax_first else ad.add(a, s)
        ad.tsum(ad.mul(both, ad.Tensor(read))).backward()
        np.testing.assert_array_equal(a.grad, read)
