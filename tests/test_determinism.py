"""The determinism promise, one case per row of README's table.

Each case runs semfuse in fresh interpreters (`python -c` running the
package as `python -m semfuse` does), first under the reference setting
REF on every usable core and then under each variant its row names, and
compares the artifacts byte for byte. A one-core variant pins its child
to one core as the child's first statement, since semfuse reads its
usable cores once, at import; a `preexec_fn` would run in a fork of this
process, whose band-pool thread may be alive. Every child leads
a session of its own, and once it is reaped no process of that session
may be left, so a pair worker that outlives its run fails here.

The in-process mechanism tests stay with their modules:
`test_autodiff.py::TestBandPool`, `test_training.py::TestPairWorkers`
and `test_networks.py::TestStudentInference`.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semfuse import cli
from semfuse.data import synth_pair
from semfuse.imageio import Image, save_image
from semfuse.networks import StudentNet, save_checkpoint

SRC = str(Path(cli.__file__).resolve().parents[1])
USABLE = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
PIN = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
SEMFUSE = "import runpy; runpy.run_module('semfuse', run_name='__main__')\n"
# the frozen student forward as `fuse` runs it, its float output written raw
FLOATS = """
import sys
from semfuse.autodiff import frozen
from semfuse.data import discover_pairs, load_pair
from semfuse.networks import StudentNet, load_checkpoint
ckpt, data, out = sys.argv[1:]
net = StudentNet(seed=0)
load_checkpoint(ckpt, net)
with open(out, "wb") as f, frozen(net.parameters()):
    for _, vis, ir in discover_pairs(data):
        f.write(net.forward(*load_pair(vis, ir)[:2]).data.tobytes())
"""
# each conv of the student runs several row bands at these sizes, the
# last one partial
FUSE_SIDES = [(97, 131), (300, 211), (129, 515)]

# the reference run's setting; a variant runs on one core or on every
# usable one (None), with some of these replaced (None unsets)
REF = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "1"}
ONE_CORE = (1, {})
UNSET = (None, {"OPENBLAS_NUM_THREADS": None})


def run_child(code: str, args, cores, env_vars) -> str:
    """stdout of `python -c code *args` in a session of its own, on one core
    if `cores` is 1, with REF updated by `env_vars` set; it must exit 0 and
    leave no process of its session behind."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for key, val in {**REF, **env_vars}.items():
        if val is None:
            env.pop(key, None)
        else:
            env[key] = val
    proc = subprocess.Popen([sys.executable, "-c", (PIN if cores == 1 else "") + code,
                             *map(str, args)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=600)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return out


def train(work: Path, cores, env_vars, *args) -> dict:
    out = work / "run"
    stdout = run_child(SEMFUSE, ["train", *args, "--quiet", "--out", out], cores, env_vars)
    artifacts = {"checksum": re.search(r"checksum=(\w+)$", stdout, re.M).group(1)}
    artifacts.update((name, (out / name).read_bytes())
                     for name in ("main.ckpt", "sub.ckpt", "train.csv"))
    return artifacts


def fuse(work: Path, cores, env_vars, data: Path, ckpt: Path) -> dict:
    out = work / "fused"
    run_child(SEMFUSE, ["fuse", "--data", data, "--ckpt", ckpt, "--out", out], cores, env_vars)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def fuse_floats(work: Path, cores, env_vars, data: Path, ckpt: Path) -> dict:
    run_child(FLOATS, [ckpt, data, work / "floats"], cores, env_vars)
    return {"floats": (work / "floats").read_bytes()}


# row: (what runs, its arguments, the variants checked against the reference)
ROWS = {
    # 72x72 crops: each full-size conv runs two bands (5,184 output
    # pixels), so its weight rule sums over two blocks; at batch 2 the
    # second pair runs in the pass's pair worker
    "alternating": (train, ("--synthetic", "2", "--crop", "72", "--steps", "1", "--batch", "2"),
                    [UNSET, (None, {"OPENBLAS_NUM_THREADS": "2"}), ONE_CORE]),
    # random-rectangle masks, drawn for every pair in pair order; at batch 3
    # this process runs two pairs and the worker one
    "no-sam-batch-3": (train, ("--synthetic", "3", "--crop", "24", "--steps", "2", "--batch",
                               "3", "--no-sam"), [ONE_CORE]),
    # at batch 4 the worker runs two pairs, so it alone decides the order
    # in which their gradients reach .grad
    "batch-4": (train, ("--synthetic", "4", "--crop", "16", "--steps", "2", "--batch", "4"),
                [ONE_CORE]),
    # the offline teacher-only and student-only passes through the fold
    "no-sam-offline": (train, ("--synthetic", "2", "--crop", "16", "--steps", "1", "--batch",
                               "2", "--no-sam", "--offline"), [ONE_CORE]),
    "pretrain": (train, ("--synthetic", "2", "--crop", "16", "--steps", "1", "--batch", "2",
                         "--pretrain-epochs", "1"), [ONE_CORE]),
    "hash-seed": (train, ("--synthetic", "3", "--steps", "2", "--batch", "2", "--crop", "16",
                          "--seed", "3"),
                  [(None, {"PYTHONHASHSEED": "2"})]),
    "fused-pgm": (fuse, (), [ONE_CORE]),
    "fused-floats": (fuse_floats, (), [UNSET, ONE_CORE]),
}


@pytest.fixture(scope="module")
def fuse_inputs(tmp_path_factory) -> tuple:
    """(data, ckpt): one synthetic pair at each of FUSE_SIDES and a seeded student."""
    root = tmp_path_factory.mktemp("fuse-inputs")
    data = root / "pairs"
    data.mkdir()
    for i, (h, w) in enumerate(FUSE_SIDES):
        vis, ir = synth_pair(i, h, w)
        save_image(Image(vis), data / f"{h}x{w}.vis.pgm")
        save_image(Image(ir), data / f"{h}x{w}.ir.pgm")
    save_checkpoint(root / "sub.ckpt", StudentNet(seed=3))
    return data, root / "sub.ckpt"


@pytest.mark.parametrize("row", ROWS)
def test_bytes_equal_the_reference(request, tmp_path, row):
    produce, args, variants = ROWS[row]
    if any(cores == 1 for cores, _ in variants) and USABLE < 2:
        pytest.skip(f"a one-core run needs a two-core reference; {USABLE} core is usable")
    if produce is not train:
        args = request.getfixturevalue("fuse_inputs")
    (tmp_path / "ref").mkdir()
    want = produce(tmp_path / "ref", None, {}, *args)
    for i, (cores, env_vars) in enumerate(variants):
        (tmp_path / str(i)).mkdir()
        got = produce(tmp_path / str(i), cores, env_vars, *args)
        assert got.keys() == want.keys()
        moved = [name for name in want if got[name] != want[name]]
        assert not moved, f"{moved} moved on {'one core' if cores == 1 else 'every core'}, {env_vars}"
