"""Repository construction and cross-attention invariants."""
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from semfuse import attention
from semfuse import autodiff as ad
from semfuse.autodiff import Tensor
from semfuse.attention import (OWNS, AttentionParams, PersistentRepository,
                               attention_stage, build_repository, cross_attend)
from semfuse.errors import ContractError, ShapeError
from semfuse.gradcheck import build_suite, check_scalar_fn
from semfuse.instrumentation import delta, snapshot

D, HEADS, HEAD_DIM = 8, 2, 4


def make_params(seed=0, own_z=True, own_kv=True):
    return AttentionParams(np.random.default_rng(seed), HEADS, HEAD_DIM,
                           "stage", own_z=own_z, own_kv=own_kv)


def variant_params(variant, seed=0):
    """A stage wired as `variant`'s repository-building stages are."""
    own_z, own_kv = OWNS[variant]
    return make_params(seed, own_z=own_z, own_kv=own_kv)


def rand_feats(seed, c=D, h=3, w=3, grad=False):
    return Tensor(np.random.default_rng(seed).normal(size=(c, h, w)), requires_grad=grad)


class TestRepository:
    def test_zero_source_zero_bias_gives_zero_repo(self):
        p = make_params()
        repo = build_repository(Tensor(np.zeros((D, 2, 2))), p)
        assert np.all(repo.z.data == 0.0)
        assert np.all(repo.k.data == 0.0)
        assert np.all(repo.v.data == 0.0)

    def test_kv_are_projections_of_z(self):
        p = make_params(seed=1)
        f = rand_feats(2)
        repo = build_repository(f, p)
        # key projection is weight-only; a key bias is unreachable under
        # the row softmax so the layer never carries one
        assert p.kv_k.b is None
        assert np.allclose(repo.k.data, p.kv_k.w.data @ repo.z.data)
        assert np.allclose(repo.v.data, p.kv_v.w.data @ repo.z.data + p.kv_v.b.data)

    def test_no_z_uses_raw_source_tokens(self):
        p = make_params(seed=3, own_z=False)
        f = rand_feats(4)
        repo = build_repository(f, p)
        assert np.array_equal(repo.z.data, f.data.reshape(D, -1))

    def test_no_latent_projection_needs_token_width_sources(self):
        p = make_params(own_z=False)
        with pytest.raises(ShapeError):
            build_repository(rand_feats(4, c=D + 1), p)

    def test_no_kv_attends_against_z(self):
        p = make_params(seed=5, own_kv=False)
        repo = build_repository(rand_feats(6), p)
        assert repo.k is repo.z
        assert repo.v is repo.z

    def test_build_counts_as_attention_work(self):
        before = snapshot()
        build_repository(rand_feats(1), make_params())
        assert delta(before)["attention"] == 1

    def test_checksum_immutable_across_forward_backward(self):
        p = make_params(seed=7)
        f = rand_feats(8, grad=True)
        repo = build_repository(f, p)
        before = repo.checksum()
        q = rand_feats(9, grad=True)
        out = cross_attend(q, repo, p, "vis")
        ad.tsum(ad.square(out)).backward()
        assert repo.checksum() == before


class TestCrossAttend:
    def test_rows_are_stochastic(self):
        p = make_params(seed=11)
        repo = build_repository(rand_feats(12), p)
        sink = []
        cross_attend(rand_feats(13), repo, p, "vis", weights_sink=sink)
        assert len(sink) == HEADS
        for w in sink:
            assert np.all(w.data >= 0)
            assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-6)

    def test_single_key_weight_one_output_is_projected_value(self):
        p = make_params(seed=15)
        repo = build_repository(rand_feats(16, h=1, w=1), p)
        sink = []
        out = cross_attend(rand_feats(17, h=1, w=1), repo, p, "ir", weights_sink=sink)
        for w in sink:
            assert np.all(w.data == 1.0)
        expected = p.attn_out.w.data @ repo.v.data + p.attn_out.b.data
        assert np.allclose(out.data.reshape(D, 1), expected, atol=1e-12)

    def test_duplicating_keys_and_values_changes_nothing(self):
        p = make_params(seed=19)
        repo = build_repository(rand_feats(20, h=2, w=2), p)
        dup = PersistentRepository(
            z=Tensor(np.concatenate([repo.z.data, repo.z.data], axis=1)),
            k=Tensor(np.concatenate([repo.k.data, repo.k.data], axis=1)),
            v=Tensor(np.concatenate([repo.v.data, repo.v.data], axis=1)))
        q = rand_feats(21, h=2, w=2)
        a = cross_attend(q, repo, p, "vis")
        b = cross_attend(q, dup, p, "vis")
        assert np.allclose(a.data, b.data, atol=1e-6)

    def test_modality_swap_symmetry(self):
        p = make_params(seed=23)
        vis, ir = rand_feats(24), rand_feats(25)
        repo = build_repository(rand_feats(26), p)
        out_vis = cross_attend(vis, repo, p, "vis")
        out_ir = cross_attend(ir, repo, p, "ir")
        # swap the two query projections, swap the inputs: outputs swap too
        p.q_vis, p.q_ir = p.q_ir, p.q_vis
        assert np.allclose(cross_attend(ir, repo, p, "vis").data, out_ir.data)
        assert np.allclose(cross_attend(vis, repo, p, "ir").data, out_vis.data)

    def test_repo_free_self_attention_shape(self):
        p = variant_params("no_pr", seed=27)
        out = cross_attend(rand_feats(28), None, p, "vis")
        assert out.shape == (D, 3, 3)

    @pytest.mark.parametrize("modality", ["vis", "ir"])
    def test_repo_free_is_a_no_z_repository_of_the_queries(self, modality):
        results = []
        for explicit in (False, True):
            p = variant_params("no_pr", seed=29)
            f = rand_feats(30, grad=True)
            repo = build_repository(f, p) if explicit else None
            out = cross_attend(f, repo, p, modality)
            ad.backward(ad.tsum(ad.square(out)))
            grads = [f.grad] + [t.grad for _, t in p.named()]
            results.append([out.data.tobytes()]
                           + [None if g is None else g.tobytes() for g in grads])
        assert results[0][1] is not None
        assert results[0] == results[1]
        # and what no_pr wires is a no_z stage: Z is the raw query tokens
        assert OWNS["no_pr"] == OWNS["no_z"]
        p, f = variant_params("no_pr"), rand_feats(30)
        assert np.array_equal(build_repository(f, p).z.data, f.data.reshape(D, -1))

    def test_bad_modality_rejected(self):
        p = make_params()
        repo = build_repository(rand_feats(1), p)
        with pytest.raises(ContractError):
            cross_attend(rand_feats(2), repo, p, "thermal")


class TestAttentionStage:
    def test_merge_shapes(self):
        p = make_params(seed=31)
        repo = build_repository(rand_feats(32), p)
        merged, av, ai = attention_stage(rand_feats(33), rand_feats(34), repo, p)
        assert merged.shape == av.shape == ai.shape == (D, 3, 3)

    def test_shape_mismatch_rejected(self):
        p = make_params()
        repo = build_repository(rand_feats(1), p)
        with pytest.raises(ShapeError):
            attention_stage(rand_feats(2), rand_feats(3, h=4), repo, p)


class TestGradients:
    def test_full_path_gradcheck(self):
        p = make_params(seed=41)
        f_src = rand_feats(42, grad=True)
        f_vis = rand_feats(43, grad=True)
        f_ir = rand_feats(44, grad=True)
        target = np.random.default_rng(45).normal(size=(D, 3, 3))

        def build():
            repo = build_repository(f_src, p)
            merged, _, _ = attention_stage(f_vis, f_ir, repo, p)
            return ad.tmean(ad.square(merged - Tensor(target)))

        wrt = {"f_src": f_src, "f_vis": f_vis, "f_ir": f_ir}
        wrt.update({name: t for name, t in p.named()})
        res = check_scalar_fn("attention_stage", build, wrt, seed=3)
        assert res.passed, res.per_tensor

    def test_variant_gradchecks(self):
        for variant in ("no_z", "no_kv"):
            p = variant_params(variant, seed=47)
            f_src = rand_feats(48, grad=True)
            f_vis = rand_feats(49, grad=True)

            def build():
                repo = build_repository(f_src, p)
                return ad.tmean(ad.square(cross_attend(f_vis, repo, p, "vis")))

            res = check_scalar_fn(f"attend_{variant}", build,
                                  {"f_src": f_src, "f_vis": f_vis}, seed=4)
            assert res.passed, (variant, res.per_tensor)

    def test_repo_free_gradcheck(self):
        p = variant_params("no_pr", seed=51)
        f_vis = rand_feats(52, grad=True)

        def build():
            return ad.tmean(ad.square(cross_attend(f_vis, None, p, "vis")))

        res = check_scalar_fn("attend_no_pr", build, {"f_vis": f_vis}, seed=5)
        assert res.passed, res.per_tensor

    def test_suite_no_kv_check_passes_at_seed_4(self):
        # at the default 1e-5 step its FD roundoff exceeded the bound while
        # the check's stage also drew key/value projections it does not use
        res = dict(build_suite(seed=4))["attn_no_kv"]()
        assert res.passed, res.per_tensor

    def test_suite_no_z_check_passes_at_seed_5(self):
        # at the default 1e-5 step its FD roundoff exceeds the bound (1.3e-4)
        res = dict(build_suite(seed=5))["attn_no_z"]()
        assert res.passed, res.per_tensor


class TestFusedHeads:
    """All heads of a `cross_attend` run as one tape node, checked against
    the per-head chain of autodiff ops that it replaced."""

    HEADS, HEAD_DIM, T_Q, T_K = 4, 3, 7, 11

    @staticmethod
    def chain(q, k, v, heads, head_dim):
        scale = 1.0 / np.sqrt(head_dim)
        outs = []
        for i in range(heads):
            lo, hi = i * head_dim, (i + 1) * head_dim
            qh, kh, vh = ad.rows(q, lo, hi), ad.rows(k, lo, hi), ad.rows(v, lo, hi)
            weights = ad.softmax_rows(ad.matmul(ad.transpose2d(qh), kh) * scale)
            outs.append(ad.matmul(vh, ad.transpose2d(weights)))
        return ad.concat(outs)

    @staticmethod
    def fused(q, k, v, heads, head_dim, sink=None):
        return attention._attend(q, k, v, head_dim, sink)

    def leaves(self, seed):
        rng = np.random.default_rng(seed)
        d = self.HEADS * self.HEAD_DIM
        return [Tensor(rng.normal(size=(d, t)), requires_grad=True)
                for t in (self.T_Q, self.T_K, self.T_K)]

    def run(self, op, seed, calls=1):
        """Outputs of `calls` attention calls that share one k and v, then the
        gradients of every q, k and v under a random linear read-out of them."""
        k, v = self.leaves(seed)[1:]
        qs = [self.leaves(seed + i)[0] for i in range(calls)]
        outs = [op(q, k, v, self.HEADS, self.HEAD_DIM) for q in qs]
        read = Tensor(np.random.default_rng(seed + 50).normal(size=outs[0].shape))
        ad.backward(reduce(operator.add, (ad.tsum(ad.mul(o, read)) for o in outs)))
        return [o.data for o in outs] + [q.grad for q in qs] + [k.grad, v.grad]

    def test_matches_the_per_head_chain(self):
        for ref, got in zip(self.run(self.chain, 61), self.run(self.fused, 61)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_shared_repository_accumulates_like_the_chain(self):
        for ref, got in zip(self.run(self.chain, 63, calls=2), self.run(self.fused, 63, calls=2)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_finite_difference(self):
        q, k, v = self.leaves(65)
        read = Tensor(np.random.default_rng(66).normal(size=q.shape))

        def build():
            return ad.tsum(ad.mul(self.fused(q, k, v, self.HEADS, self.HEAD_DIM), read))

        res = check_scalar_fn("fused_heads", build, {"q": q, "k": k, "v": v}, seed=6)
        assert res.passed, res.per_tensor
        assert max(res.per_tensor.values()) <= 1e-4

    def test_frozen_repository_records_only_the_query(self):
        grads = []
        for op in (self.chain, self.fused):
            q, k, v = self.leaves(67)
            with ad.frozen([k, v]):
                out = op(q, k, v, self.HEADS, self.HEAD_DIM)
            # unfrozen before backward: the node still has no k or v edge
            ad.tsum(ad.square(out)).backward()
            ad.tsum(out).backward()
            assert k.grad is None and v.grad is None
            grads.append(q.grad)
        assert out._parents == (q,)
        np.testing.assert_allclose(grads[1], grads[0], rtol=1e-12, atol=0)

    def test_sink_holds_one_constant_stochastic_matrix_per_head(self):
        q, k, v = self.leaves(69)
        sink = []
        self.fused(q, k, v, self.HEADS, self.HEAD_DIM, sink)
        assert len(sink) == self.HEADS
        for w in sink:
            assert isinstance(w, Tensor)
            assert not w.requires_grad and w._parents == ()
            assert w.shape == (self.T_Q, self.T_K)
            assert np.all(w.data >= 0)
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_cross_attend_is_one_node_over_q_k_v(self):
        p = make_params(seed=71)
        repo = build_repository(rand_feats(72, grad=True), p)
        out = cross_attend(rand_feats(73), repo, p, "vis")
        readers = [n for n in ad.trace(out) if any(t is repo.k for t in n._parents)]
        assert len(readers) == 1
        assert readers[0]._parents[1:] == (repo.k, repo.v)

    @pytest.mark.parametrize("frozen_at", [0, 1, 2])
    def test_one_frozen_input_leaves_the_others_as_in_the_chain(self, frozen_at):
        results = []
        for op in (self.chain, self.fused):
            leaves = self.leaves(75)
            with ad.frozen([leaves[frozen_at]]):
                out = op(*leaves, self.HEADS, self.HEAD_DIM)
            ad.tsum(ad.square(out)).backward()
            results.append([t.grad for t in leaves])
        for i, (ref, got) in enumerate(zip(*results)):
            if i == frozen_at:
                assert ref is None and got is None
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_second_backward_through_one_node_uses_its_own_gradient(self):
        results = []
        for op in (self.chain, self.fused):
            q, k, v = self.leaves(77)
            out = op(q, k, v, self.HEADS, self.HEAD_DIM)
            for seed in (78, 79):
                read = Tensor(np.random.default_rng(seed).normal(size=out.shape))
                ad.tsum(ad.mul(out, read)).backward()
            results.append([q.grad, k.grad, v.grad])
        for ref, got in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def stored_weights_attend(q, k, v, head_dim, weights_sink):
    """The fused node as it was when it kept every head's P for the backward:
    the reference for the node that keeps only each head's row max and sum."""
    scale = 1.0 / np.sqrt(head_dim)
    heads = range(0, q.data.shape[0], head_dim)
    out = np.empty((v.data.shape[0], q.data.shape[1]))
    weights = []
    for lo in heads:
        hi = lo + head_dim
        s = q.data[lo:hi].T @ k.data[lo:hi]
        s *= scale
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=1, keepdims=True)
        out[lo:hi] = v.data[lo:hi] @ s.T
        weights.append(s)
    if weights_sink is not None:
        weights_sink.extend(ad._node(w) for w in weights)
    needed = [t.requires_grad for t in (q, k, v)]

    def grads(g):
        dq, dk, dv = (np.empty_like(t.data) if n else None for t, n in zip((q, k, v), needed))
        for lo, w in zip(heads, weights):
            hi = lo + head_dim
            if dv is not None:
                dv[lo:hi] = g[lo:hi] @ w
            if dq is None and dk is None:
                continue
            ds = g[lo:hi].T @ v.data[lo:hi]
            ds -= (ds * w).sum(axis=1, keepdims=True)
            ds *= w
            ds *= scale
            if dq is not None:
                dq[lo:hi] = (ds @ k.data[lo:hi].T).T
            if dk is not None:
                dk[lo:hi] = q.data[lo:hi] @ ds
        return tuple(d for d in (dq, dk, dv) if d is not None)

    return ad._node(out, tuple(t for t, n in zip((q, k, v), needed) if n), grads)


class TestRecomputedWeights:
    """The node rebuilds each head's P in the backward from the row max and
    sum it kept, with the bits of the node that stored P."""

    D, HEAD_DIM = 32, 8                 # the teacher's token and head widths

    def leaves(self, seed, t_q, t_k, wants=(True, True, True)):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(self.D, t)), requires_grad=w)
                for t, w in zip((t_q, t_k, t_k), wants)]

    def run(self, op, seed, t_q, t_k, wants):
        q, k, v = self.leaves(seed, t_q, t_k, wants)
        sink = []
        out = op(q, k, v, self.HEAD_DIM, sink)
        read = Tensor(np.random.default_rng(seed + 1).normal(size=out.shape))
        ad.backward(ad.tsum(ad.mul(out, read)))
        return [out.data] + [w.data for w in sink] + [t.grad for t in (q, k, v)]

    @pytest.mark.parametrize("t_q, t_k", [(64, 64), (256, 256), (576, 576), (96, 40), (40, 200)])
    @pytest.mark.parametrize("wants", [(a, b, c) for a in (False, True)
                                       for b in (False, True) for c in (False, True)])
    def test_bits_equal_the_stored_weights_node(self, t_q, t_k, wants):
        ref = self.run(stored_weights_attend, 91, t_q, t_k, wants)
        got = self.run(attention._attend, 91, t_q, t_k, wants)
        assert len(got) == len(ref) == 1 + self.D // self.HEAD_DIM + 3
        for r, g in zip(ref, got):
            assert (r is None and g is None) or np.array_equal(g, r)

    def kept_bytes(self, op, q, k, v):
        """Bytes that a recorded node keeps beyond q, k, v and its output."""
        tracemalloc.start()
        try:
            out = op(q, k, v, self.HEAD_DIM, None)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        return kept - out.data.nbytes

    @pytest.mark.parametrize("t_q, t_k", [(64, 64), (576, 576), (40, 576)])
    def test_node_keeps_o_of_heads_times_t_q(self, t_q, t_k):
        q, k, v = self.leaves(93, t_q, t_k)
        heads = self.D // self.HEAD_DIM
        # a row max and a row sum per head, and a few KiB of Python objects
        bound = 2 * heads * t_q * 8 + 16 * 1024
        assert self.kept_bytes(attention._attend, q, k, v) <= bound
        # the node that kept each head's P breaks it: 10.6 MB at T = 576
        assert self.kept_bytes(stored_weights_attend, q, k, v) >= heads * t_q * t_k * 8 > bound


class TestFusedNodeEdges:
    """The fused node's parents are the inputs that required a gradient when
    it recorded, and its backward returns one gradient for each."""

    @pytest.mark.parametrize("wants", [(a, b, c) for a in (False, True)
                                       for b in (False, True) for c in (False, True)])
    def test_parents_and_gradients_follow_record_time_flags(self, wants):
        rng = np.random.default_rng(81)
        q, k, v = (Tensor(rng.normal(size=(8, t)), requires_grad=w)
                   for t, w in zip((5, 6, 6), wants))
        out = attention._attend(q, k, v, 4, None)
        picked = tuple(t for t, w in zip((q, k, v), wants) if w)
        for t in (q, k, v):
            t.requires_grad = not t.requires_grad  # later flips change nothing
        assert len(out._parents) == len(picked)
        assert all(a is b for a, b in zip(out._parents, picked))
        if not picked:
            assert out._backward is None and not out.requires_grad
            return
        grads = out._backward(rng.normal(size=out.shape))
        assert isinstance(grads, tuple) and len(grads) == len(picked)
        assert [g.shape for g in grads] == [t.shape for t in picked]
