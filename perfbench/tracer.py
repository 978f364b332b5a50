"""Span tracing installed from outside the program.

`Tracer.install` replaces the public functions of the semfuse modules
with thin wrappers that record one span per call: name, start, end and
parent, kept in memory and written out by `Tracer.write`. Every module
that bound a wrapped function by name is patched, and `uninstall` puts
the originals back, so nothing under src/ changes and untraced runs pay
nothing.

Autodiff ops also tag the backward closure of the node they record with
the module spans open at that moment. When `backward` later runs the
closure, its time is charged to the op (`autodiff.<op>.bwd`) and to every
one of those enclosing spans and layers, so backward time lands on the
layer whose forward recorded the node.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# Autodiff ops by group; span names are "autodiff.<op>".
OP_GROUPS = {
    "conv2d": ("conv2d",),
    "matmul": ("matmul",),
    "softmax_rows": ("softmax_rows",),
    "elementwise": ("add", "sub", "mul", "div", "neg", "powi", "square", "exp", "log",
                    "sqrt", "absval", "clamp_min", "sigmoid", "leaky_relu", "tsum",
                    "tmean", "dot", "sobel"),
    "shape": ("reshape", "flatten", "transpose2d", "concat", "rows", "crop2d",
              "upsample_nearest2", "pad_replicate"),
}

# (module, attribute or Class.method, span name) of every wrapped call
# outside autodiff. A span's layer is the first part of its name.
MODULE_SPANS = (
    ("attention", "build_repository", "attention.build_repository"),
    ("attention", "cross_attend", "attention.cross_attend"),
    ("attention", "attention_stage", "attention.attention_stage"),
    ("networks", "TeacherNet.forward", "networks.teacher"),
    ("networks", "StudentNet.forward", "networks.student"),
    ("networks", "TeacherNet.__init__", "networks.init"),
    ("networks", "StudentNet.__init__", "networks.init"),
    ("networks", "save_checkpoint", "networks.checkpoint"),
    ("networks", "load_checkpoint", "networks.checkpoint"),
    ("priors", "PriorProvider.masks_for", "priors.masks_for"),
    ("priors", "make_patches", "priors.make_patches"),
    ("priors", "FrozenEncoder.forward", "priors.encoder"),
    ("priors", "SegmentationStub.forward", "priors.segstub"),
    ("losses", "loss_fea", "losses.loss_fea"),
    ("losses", "loss_context", "losses.loss_context"),
    ("losses", "context_bundle", "losses.context_bundle"),
    ("losses", "loss_cs", "losses.loss_cs"),
    ("losses", "loss_seg", "losses.loss_seg"),
    ("training", "alternate_train", "training.loop"),
    ("training", "main_phase", "training.main_phase"),
    ("training", "sub_phase", "training.sub_phase"),
    ("training", "clip_global_norm", "training.clip_global_norm"),
    ("training", "Adam.step", "training.adam_step"),
    ("imageio", "load_image", "imageio.load_image"),
    ("imageio", "save_image", "imageio.save_image"),
    ("imageio", "rgb_to_ycbcr", "imageio.rgb_to_ycbcr"),
    ("imageio", "ycbcr_to_rgb", "imageio.ycbcr_to_rgb"),
    ("metrics", "evaluate_triple", "metrics.evaluate_triple"),
    ("data", "synth_pair", "data.synth_pair"),
    ("data", "discover_pairs", "data.discover_pairs"),
    ("data", "load_pair", "data.load_pair"),
    ("cli", "main", "cli.main"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class _TaggedBackward:
    """A node's backward rule, timed as a span charged to its creation context."""

    __slots__ = ("tracer", "nid", "ctx", "rule")

    def __init__(self, tracer: "Tracer", nid: int, ctx: int, rule):
        self.tracer, self.nid, self.ctx, self.rule = tracer, nid, ctx, rule

    def __call__(self, g):
        idx = self.tracer.open(self.nid, self.ctx)
        try:
            return self.rule(g)
        finally:
            self.tracer.close(idx)


class Tracer:
    """In-memory span log plus the byte and node counts taken at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.ctx: list[int] = []            # creation context of backward spans, else -1
        self.contexts: list[tuple[str, ...]] = [()]
        self._ctx_ids: dict[tuple[str, ...], int] = {(): 0}
        self._ctx_child: dict[tuple[int, int], int] = {}
        self._stack: list[int] = []
        self._ctx_stack: list[int] = [0]
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, ctx: int = -1) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name_id.append(nid)
        self.ctx.append(ctx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _enter_module(self, nid: int) -> None:
        key = (self._ctx_stack[-1], nid)
        ctx = self._ctx_child.get(key)
        if ctx is None:
            name = self.names[nid]
            keys = self.contexts[key[0]]
            keys = keys + tuple(k for k in (name, layer_of(name)) if k not in keys)
            ctx = self._ctx_ids.get(keys)
            if ctx is None:
                ctx = self._ctx_ids[keys] = len(self.contexts)
                self.contexts.append(keys)
            self._ctx_child[key] = ctx
        self._ctx_stack.append(ctx)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers -----------------------------------------------------------

    def _module_wrapper(self, fn, name: str, count=None):
        nid = self.intern(name)

        def wrapper(*args, **kwargs):
            self._enter_module(nid)
            idx = self.open(nid)
            try:
                if count is not None:
                    count(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._ctx_stack.pop()

        return wrapper

    def _op_wrapper(self, fn, op: str, count=None):
        nid = self.intern(f"autodiff.{op}")
        bid = self.intern(f"autodiff.{op}.bwd")

        def wrapper(*args, **kwargs):
            ctx = self._ctx_stack[-1]
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
                rule = out._backward
                # Ops built from other ops return a node the inner op already tagged.
                if rule is not None and type(rule) is not _TaggedBackward:
                    out._backward = _TaggedBackward(self, bid, ctx, rule)
                if count is not None:
                    count(args, kwargs, out)
                return out
            finally:
                self.close(idx)

        return wrapper

    def _backward_wrapper(self, fn, trace_fn):
        tape_nid = self.intern("bench.tape_count")
        nid = self.intern("autodiff.backward")

        def wrapper(root, grad=None):
            idx = self.open(tape_nid)
            self.counts["tape_nodes"] += len(trace_fn(root))
            self.counts["backward_roots"] += 1
            self.close(idx)
            idx = self.open(nid)
            try:
                return fn(root, grad)
            finally:
                self.close(idx)

        return wrapper

    def _count_conv_cols(self, args, kwargs, out):
        cin, k = args[1].shape[1], args[1].shape[2]
        _, ho, wo = out.shape
        self.counts["conv_cols_bytes"] += 8.0 * cin * k * k * ho * wo

    def _count_attention_weights(self, args, kwargs):
        f_q, repo, p = args[0], args[1], args[2]
        t_q = f_q.shape[1] * f_q.shape[2]
        t_k = repo.k.shape[1] if repo is not None else t_q
        self.counts["attention_weight_bytes"] += 8.0 * p.heads * t_q * t_k

    def install(self, modules: dict) -> None:
        """Wrap every target; `modules` maps short names to semfuse modules."""
        ad = modules["autodiff"]
        everywhere = list(modules.values())
        counters = {"conv2d": self._count_conv_cols}
        for ops in OP_GROUPS.values():
            for op in ops:
                orig = getattr(ad, op)
                self._replace_everywhere(everywhere, orig,
                                         self._op_wrapper(orig, op, counters.get(op)))
        self._replace_everywhere(everywhere, ad.backward,
                                 self._backward_wrapper(ad.backward, ad.trace))
        for mod_name, attr, span_name in MODULE_SPANS:
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._module_wrapper(orig, span_name))
                continue
            orig = getattr(mod, attr)
            count = self._count_attention_weights if attr == "cross_attend" else None
            self._replace_everywhere(everywhere, orig,
                                     self._module_wrapper(orig, span_name, count))

    def _replace_everywhere(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds; per-layer inclusive
        seconds (outermost span of the layer); backward seconds charged to
        each creation-context key; root wall time and root self time."""
        n = len(self.start)
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child_sum
        names = self.names
        calls = np.bincount(nid, minlength=len(names))
        self_by = np.bincount(nid, weights=self_t, minlength=len(names))
        incl_by = np.bincount(nid, weights=dur, minlength=len(names))
        layer_ids = {}
        name_layer = np.array([layer_ids.setdefault(layer_of(nm), len(layer_ids)) for nm in names],
                              dtype=np.int64)
        span_layer = name_layer[nid]
        parent_layer = np.where(has_parent, span_layer[np.where(has_parent, parent, 0)], -1)
        outermost = span_layer != parent_layer
        layer_incl = np.bincount(span_layer[outermost], weights=dur[outermost],
                                 minlength=len(layer_ids))
        bwd: dict[str, float] = defaultdict(float)
        ctx = np.asarray(self.ctx, dtype=np.int64)
        tagged = ctx > 0
        per_ctx = np.bincount(ctx[tagged], weights=dur[tagged], minlength=len(self.contexts))
        for cid, secs in enumerate(per_ctx):
            for key in self.contexts[cid]:
                bwd[key] += float(secs)
        roots = ~has_parent
        return {
            "spans": n,
            "wall_s": float(dur[roots].sum()),
            "root_self_s": float(self_t[roots].sum()),
            "names": {nm: {"calls": int(calls[i]), "self_s": float(self_by[i]),
                           "incl_s": float(incl_by[i])} for i, nm in enumerate(names)},
            "layer_incl_s": {lay: float(layer_incl[i]) for lay, i in layer_ids.items()},
            "bwd_by_context_s": dict(bwd),
            "counts": dict(self.counts),
        }

    def write(self, path: Path, summary: dict) -> None:
        """Spans as arrays (.npz) plus the names table and summary (.json)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"),
                            name_id=np.asarray(self.name_id, dtype=np.int32),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent, dtype=np.int64),
                            ctx=np.asarray(self.ctx, dtype=np.int32))
        path.with_suffix(".json").write_text(json.dumps(
            {"names": self.names, "contexts": self.contexts, "summary": summary}, indent=1))
