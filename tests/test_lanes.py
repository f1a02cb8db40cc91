"""Two lanes give one lane's bits: the backward walk, the perturbed forward
beside the clean one, errors on either lane, ``no_tape()`` on both, nested
lane work, a forked child, and setup that starts no worker."""

import multiprocessing
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from neuralbayes import data as D
from neuralbayes import dml, mim, nn, train
from neuralbayes import tensor as T
from neuralbayes.errors import ShapeError
from neuralbayes.tensor import Tensor

from test_tensor import BACKWARD_OPS, _leaves, keep_all_backward

ROOT = Path(__file__).resolve().parent.parent
WORKER = "neuralbayes-lane"


@pytest.fixture(params=[1, 2], ids=["one-lane", "two-lanes"])
def lanes(request, monkeypatch):
    """The lane count, forced: two lanes run on a worker even where the
    host would give one."""
    monkeypatch.setattr(T, "_LANES", request.param)
    return request.param


def on_lanes(count, run):
    """``run()`` with the lane count forced to ``count``."""
    saved = T._LANES
    T._LANES = count
    try:
        return run()
    finally:
        T._LANES = saved


def same_bits(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


def branching_loss(out: Tensor) -> Tensor:
    """A scalar in which ``out`` has two consumers, one of them a product
    with ``out`` as both parents."""
    return T.tsum(out * out) + T.tsum(T.tanh(out))


@pytest.mark.parametrize("op", sorted(BACKWARD_OPS))
def test_two_lanes_give_one_lanes_gradients_on_every_op(op):
    def grads():
        leaves = []

        def leaf(shape, positive=False):
            leaves.append(_leaves(np.random.default_rng(61))(shape, positive))
            return leaves[-1]

        out = BACKWARD_OPS[op](leaf)
        params = {str(i): t for i, t in enumerate(leaves) if t.requires_grad}
        return T.gradients(branching_loss(out), params)

    one, two = on_lanes(1, grads), on_lanes(2, grads)
    assert len(one) >= 1 and same_bits(one, two)


def shared_graph():
    """``x * x`` (a repeated parent) with three consumers, as MIM's first
    state has."""
    x = Tensor(np.random.default_rng(62).standard_normal((6, 5)), requires_grad=True)
    w = Tensor(np.random.default_rng(63).standard_normal((4, 5)), requires_grad=True)
    h = x * x
    loss = T.tsum(T.tanh(h)) + T.tsum(T.linear(h, w, None)) + T.tmean(h * 3.0)
    return loss, {"x": x, "w": w}


def test_three_consumers_and_a_repeated_parent_fold_in_one_order():
    loss, params = shared_graph()
    keep_all_backward(loss)   # the serial loop the walk replaces
    want = {name: p.grad.copy() for name, p in params.items()}
    for count in (1, 2):
        loss, params = shared_graph()
        assert same_bits(on_lanes(count, lambda: T.gradients(loss, params)), want), count


def pushing(parents, sends, before=None, after=None):
    """A node whose backward pushes the constant ``sends[i]`` into
    ``parents[i]`` (``None``: its own gradient), with hooks around that."""
    def backward(g):
        if before is not None:
            before()
        for parent, value in zip(parents, sends):
            T._accum(parent, g if value is None else np.full(parent.shape, value))
        if after is not None:
            after()

    return Tensor._from_op(np.zeros(1), tuple(parents), "push", backward)


def test_an_early_contribution_waits_for_its_turn(lanes):
    """``p`` has consumers h1 > h2 > c in rank, so it sums 1e16 - 1e16 + 1
    = 1.  On two lanes c runs beside h1 and sends its 1 first, and h2 runs
    only after h1 (h1 consumes it); folded as it arrives, the sum would be
    1 + 1e16 - 1e16 = 0."""
    c_sent = threading.Event()
    x = Tensor(np.zeros(1), requires_grad=True)
    p = pushing([x], [None])
    c = pushing([p], [1.0], after=c_sent.set)
    h2 = pushing([p], [-1e16])
    h1 = pushing([h2, p], [0.0, 1e16], before=lambda: c_sent.wait(timeout=20 * (lanes - 1)))
    root = pushing([c, h1], [1.0, 1.0])
    order = T._toposort(root)
    assert [order.index(n) for n in (h1, h2, c)] == [4, 3, 2]
    assert T.gradients(root, {"x": x})["x"].tolist() == [1.0]
    assert c_sent.is_set()


def test_consumers_that_run_lowest_rank_first_fold_in_rank_order(monkeypatch):
    """``p``'s consumers lo < mid < hi in rank send 1, -1e16 and 1e16, and
    events make them run lo, mid, hi on two lanes: ``b``, mid's consumer and
    through ``g`` hi's, waits on one lane until lo has sent on the other,
    and hi waits until mid has sent.  Folded as they arrive the sum would be
    1 - 1e16 + 1e16 = 0; folded in descending rank it is 1."""
    monkeypatch.setattr(T, "_LANES", 2)
    lo_sent, mid_sent, waited = threading.Event(), threading.Event(), []

    def wait(event):
        return lambda: waited.append(event.wait(timeout=20))

    x = Tensor(np.zeros(1), requires_grad=True)
    p = pushing([x], [None])
    lo = pushing([p], [1.0], after=lo_sent.set)
    mid = pushing([p], [-1e16], after=mid_sent.set)
    hi = pushing([p], [1e16], before=wait(mid_sent))
    g = pushing([hi], [1.0])
    b = pushing([mid, g], [1.0, 1.0], before=wait(lo_sent))
    root = pushing([lo, b], [1.0, 1.0])
    order = T._toposort(root)
    assert [order.index(n) for n in (hi, mid, lo)] == [4, 3, 2]
    assert T.gradients(root, {"x": x})["x"].tolist() == [1.0]
    assert waited == [True, True]


def benchmark_step(kind: str):
    """Loss, gradients and running statistics after the first step of a
    benchmark model (the 512-D moons MLP, the 16x16 MIM CNN encoder)."""
    if kind == "dml":
        moons = D.standardize(D.make_two_moons(400, gap=0.25, noise=0.06, seed=5))
        points = D.lift_and_rotate(moons, 512, seed=6).points
        net = nn.build_mlp(512, [400] * 4, 2, seed=7, batchnorm=True, softmax_head=True)
        objective = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=2.0))
    else:
        points = np.random.default_rng(8).standard_normal((50, 1, 16, 16))
        net = nn.build_cnn("C(64,3,1,0)-P(2,2,0,max)-C(128,3,1,0)", (1, 16, 16), seed=7)
        objective = mim.make_mim_objective(mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True))
    loss, terms = objective(net, Tensor(points), np.random.default_rng(9))
    grads = T.gradients(loss, net.parameters())
    return loss.data.copy(), terms, grads, {k: b.copy() for k, b in net.buffers().items()}


@pytest.mark.parametrize("kind", ["dml", "mim"])
def test_two_lanes_give_one_lanes_first_step_of_a_benchmark_model(kind):
    loss1, terms1, grads1, stats1 = on_lanes(1, lambda: benchmark_step(kind))
    loss2, terms2, grads2, stats2 = on_lanes(2, lambda: benchmark_step(kind))
    assert loss1.tobytes() == loss2.tobytes() and terms1 == terms2
    assert same_bits(grads1, grads2) and same_bits(stats1, stats2)


def barrier_node(parent: Tensor, barrier: threading.Barrier, raise_on: str | None = None):
    """An identity node whose backward waits until the other lane reaches
    the barrier too, then raises if it runs on the thread ``raise_on``."""
    def backward(g):
        barrier.wait()
        if raise_on is not None and threading.current_thread().name == raise_on:
            raise KeyError(f"raised on {raise_on}")
        T._accum(parent, g)

    return Tensor._from_op(parent.data, (parent,), "barrier", backward)


def two_branches(barrier, raise_on=None):
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.full(3, 2.0), requires_grad=True)
    loss = T.tsum(barrier_node(a, barrier, raise_on)) + T.tsum(barrier_node(b, barrier, raise_on))
    return loss, {"a": a, "b": b}


def test_independent_branches_run_side_by_side(lanes):
    barrier = threading.Barrier(2, timeout=1 if lanes == 1 else 20)
    loss, params = two_branches(barrier)
    if lanes == 1:   # one lane never reaches the barrier twice at once
        with pytest.raises(threading.BrokenBarrierError):
            T.gradients(loss, params)
    else:
        grads = T.gradients(loss, params)
        assert grads["a"].tolist() == [1.0] * 3 and grads["b"].tolist() == [1.0] * 3


def test_two_consumers_of_a_shared_leaf_run_side_by_side(monkeypatch):
    monkeypatch.setattr(T, "_LANES", 2)
    barrier = threading.Barrier(2, timeout=20)
    a = Tensor(np.ones(3), requires_grad=True)
    loss = T.tsum(barrier_node(a, barrier)) + T.tsum(barrier_node(a, barrier) * 2.0)
    assert T.gradients(loss, {"a": a})["a"].tolist() == [3.0] * 3


@pytest.mark.parametrize("thread", ["MainThread", WORKER])
def test_backward_error_on_either_lane_reaches_the_caller(monkeypatch, thread):
    monkeypatch.setattr(T, "_LANES", 2)
    loss, params = two_branches(threading.Barrier(2, timeout=20), raise_on=thread)
    with pytest.raises(KeyError, match=f"raised on {thread}"):
        T.gradients(loss, params)
    assert all(p.grad is None for p in params.values())
    loss, params = two_branches(threading.Barrier(2, timeout=20))
    assert T.gradients(loss, params)["b"].tolist() == [1.0] * 3   # the next step runs


class PerturbedFails:
    """A network whose batch-mode (perturbed) forwards raise, recording the
    thread of every forward."""

    def __init__(self, net):
        self.net, self.threads = net, []

    def forward_with_states(self, x, mode):
        self.threads.append(threading.current_thread().name)
        if mode == "batch":
            raise ShapeError("perturbed forward failed")
        return self.net.forward_with_states(x, mode)


def test_perturbed_forward_error_on_the_second_lane_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(T, "_LANES", 2)
    net = nn.build_mlp(3, [5], 2, seed=1, batchnorm=True, softmax_head=True)
    objective = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=1.0))
    x = Tensor(np.random.default_rng(64).standard_normal((8, 3)))
    failing = PerturbedFails(net)
    with pytest.raises(ShapeError, match="perturbed forward failed"):
        objective(failing, x, np.random.default_rng(0))
    assert sorted(failing.threads) == ["MainThread", WORKER]
    loss, _ = objective(net, x, np.random.default_rng(0))   # the next step runs
    grads = T.gradients(loss, net.parameters())
    assert all(np.isfinite(g).all() for g in grads.values())


class RecordingNet:
    """A network that records the thread and the output of every forward."""

    def __init__(self, net):
        self.net, self.calls = net, []

    def forward_with_states(self, x, mode):
        out, states = self.net.forward_with_states(x, mode)
        self.calls.append((threading.current_thread().name, out, states))
        return out, states

    def __getattr__(self, name):
        return getattr(self.net, name)


def test_holdout_objective_records_no_tape_and_runs_in_turn(monkeypatch):
    """The stopping split's holdout objective, inside ``no_tape()``: its
    two forwards run one after the other on the caller, and neither records
    a tape.  Work that does go to the worker records none there either."""
    monkeypatch.setattr(T, "_LANES", 2)
    net = nn.build_cnn("C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)", (1, 8, 8), seed=3)
    objective = mim.make_mim_objective(mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True))
    recording = RecordingNet(net)
    x = Tensor(np.random.default_rng(65).standard_normal((6, 1, 8, 8)))
    with T.no_tape():
        loss, _ = objective(recording, x, np.random.default_rng(0), mode="batch")
    assert [thread for thread, _, _ in recording.calls] == ["MainThread"] * 2
    assert loss._parents == () and not loss.requires_grad
    with T.lanes(), T.no_tape():
        T._both(lambda: None, lambda: recording.forward_with_states(x, "batch"))
    assert recording.calls[-1][0] == WORKER
    for _, out, states in recording.calls:
        assert all(t._parents == () and not t.requires_grad for t in (out, *states))


def test_lane_work_nested_on_the_second_lane_finishes(monkeypatch):
    monkeypatch.setattr(T, "_LANES", 2)
    loss, params = shared_graph()
    done = []

    def nested():
        with T.lanes():
            inner = T._both(lambda: T.gradients(loss, params),
                            lambda: threading.current_thread().name)
            done.append(inner)

    def run():
        with T.lanes():
            T._both(lambda: None, nested)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested lane work never finished"
    grads, thread = done[0]
    assert thread == WORKER and set(grads) == {"x", "w"}


def forked_child(queue):
    barrier = threading.Barrier(2, timeout=20)
    loss, params = two_branches(barrier)
    try:
        T.gradients(loss, params)
        queue.put("ok")
    except Exception as exc:   # reported to the parent
        queue.put(repr(exc))


def test_forked_child_starts_its_own_second_lane(monkeypatch):
    monkeypatch.setattr(T, "_LANES", 2)
    loss, params = two_branches(threading.Barrier(2, timeout=20))
    T.gradients(loss, params)   # the parent's worker is running
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=forked_child, args=(queue,))
    child.start()
    try:
        result = queue.get(timeout=60)   # raises Empty if the child hangs
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert result == "ok" and child.exitcode == 0


def test_concurrent_callers_share_the_second_lane(monkeypatch):
    """More callers than cores, switching threads every microsecond: each
    caller's gradients keep the serial loop's bits, and the last caller to
    leave ``lanes()`` restores the BLAS thread count."""
    monkeypatch.setattr(T, "_LANES", 2)
    count = T._OPENBLAS_THREADS[0] if T._OPENBLAS_THREADS is not None else lambda: None
    before = count()
    loss, params = shared_graph()
    keep_all_backward(loss)
    want = {name: p.grad.copy() for name, p in params.items()}
    results = []

    def caller():
        for _ in range(20):
            loss, params = shared_graph()
            results.append(same_bits(T.gradients(loss, params), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * 80 and count() == before


SETUP = """
import threading
import numpy as np
from neuralbayes import data, dml, mim, nn, train
moons = data.lift_and_rotate(data.standardize(data.make_two_moons(200, seed=1)), 64, seed=2)
mlp = nn.build_mlp(64, [32] * 2, 2, seed=3, batchnorm=True, softmax_head=True)
cnn = nn.build_cnn("C(8,3,1,0)-P(2,2,0,max)-C(16,3,1,0)", (1, 16, 16), seed=4)
for net in (mlp, cnn):
    train.AdamState.for_params(net.parameters())
dml.make_dml_objective(dml.DmlConfig(beta=2.0))
mim.make_mim_objective(mim.MimConfig())
print(sorted(t.name for t in threading.enumerate()))
"""


def test_setup_starts_no_worker():
    done = subprocess.run([sys.executable, "-c", SETUP], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "['MainThread']"


def test_one_lane_runs_everything_on_the_caller(monkeypatch):
    monkeypatch.setattr(T, "_LANES", 1)
    net = nn.build_cnn("C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)", (1, 8, 8), seed=3)
    objective = mim.make_mim_objective(mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True))
    recording = RecordingNet(net)
    threads = set()
    x = Tensor(np.random.default_rng(66).standard_normal((6, 1, 8, 8)))
    loss, _ = objective(recording, x, np.random.default_rng(0))
    for node in T._toposort(loss):
        run = node._backward
        node._backward = (lambda run: lambda g: (threads.add(threading.current_thread().name),
                                                 run(g)))(run)
    T.gradients(loss, net.parameters())
    train.extract_features(net, x.data)
    assert {thread for thread, _, _ in recording.calls} | threads == {"MainThread"}


@pytest.mark.skipif(T._OPENBLAS_THREADS is None,
                    reason="numpy loaded no OpenBLAS with a thread-count setter")
def test_lanes_hold_one_blas_thread_and_restore_the_count():
    get, _ = T._OPENBLAS_THREADS
    before = get()
    with pytest.raises(KeyError):
        with T.lanes():
            assert get() == 1
            with T.lanes():
                assert get() == 1
            assert get() == 1
            raise KeyError("inside")
    assert get() == before
