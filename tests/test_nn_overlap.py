"""Overlapped BiLSTM directions and graph release in the autograd engine.

:mod:`repro.nn.overlap` runs a large BiLSTM pass's backward direction on a
helper thread, in the forward scan and again in BPTT. Tier-1 runs with a
multithreaded BLAS, where the overlap guard keeps every pass inline, so
these tests force overlap on: the size floor drops to zero and the probes
report two CPUs and one BLAS thread. Overlap must change no bit of any
result, survive a fork, and never deadlock on a nested pass.

:meth:`Tensor.backward` frees each node once its step has run, and no step
refers to its own node, so training leaves nothing for the cycle
collector and a second backward through a freed graph fails loudly.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections.abc import Callable
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GradientError
from repro.gan.trainer import GanConfig, GanTrainer
from repro.nn import BiLSTM, Tensor, dtype_scope
from repro.nn import functional as F
from repro.nn import overlap
from repro.nn import tensor as tensor_module
from repro.serve import metrics as serve_metrics
from repro.trajectories import HumanMotionSimulator

SMALL_GAN = GanConfig(noise_dim=6, hidden_size=10, embed_dim=4,
                      feature_dim=8, batch_size=16, epochs=1,
                      dropout_probability=0.3, seed=1)


def same_bits(actual: list[np.ndarray], expected: list[np.ndarray]) -> bool:
    return len(actual) == len(expected) and all(
        got.dtype == want.dtype and got.shape == want.shape
        and got.tobytes() == want.tobytes()
        for got, want in zip(actual, expected))


@pytest.fixture()
def switch(monkeypatch: pytest.MonkeyPatch) -> Callable[[bool], list[Any]]:
    """``switch(on)`` forces overlap on or off and returns the job log.

    The log records every job handed to the helper since the switch.
    """
    jobs: list[Any] = []
    real_submit = overlap.submit

    def logged_submit(fn: Callable[[], Any]) -> Any:
        jobs.append(fn)
        return real_submit(fn)

    monkeypatch.setattr(overlap, "usable_cpus", lambda: 2)
    monkeypatch.setattr(overlap, "blas_threads", lambda: 1)
    monkeypatch.setattr(overlap, "submit", logged_submit)

    def set_overlap(on: bool) -> list[Any]:
        monkeypatch.setattr(overlap, "MIN_OVERLAP_SIZE",
                            0 if on else sys.maxsize)
        jobs.clear()
        return jobs

    return set_overlap


def bilstm_pass(dtype: str, *, summary: bool) -> list[np.ndarray]:
    """Output and every gradient of one BiLSTM forward + backward."""
    with dtype_scope(dtype):
        rng = np.random.default_rng(5)
        model = BiLSTM(4, 6, rng)
        x = Tensor(rng.standard_normal((7, 3, 4)), requires_grad=True)
        out = (model.final_summary(x) if summary
               else model.forward_sequence(x))
        weights = Tensor(rng.standard_normal(out.shape))
        (out * weights).sum().backward()
    return [out.data, x.grad] + [p.grad for p in model.parameters()]


def gan_run(dtype: str) -> list[np.ndarray]:
    """Losses, scores and parameters after four small GAN steps."""
    dataset = HumanMotionSimulator(
        rng=np.random.default_rng(3), num_points=16).build_dataset(32)
    with dtype_scope(dtype):
        trainer = GanTrainer(dataset, SMALL_GAN)
        trainer.train(epochs=2)
    history = trainer.history
    return ([np.array(history.discriminator_losses),
             np.array(history.generator_losses),
             np.array(history.real_scores), np.array(history.fake_scores)]
            + [p.data for p in trainer.generator.parameters()]
            + [p.data for p in trainer.discriminator.parameters()])


class TestOverlapIsBitIdentical:
    @pytest.mark.parametrize("summary", [False, True])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bilstm_forward_and_backward(self, switch, dtype, summary):
        switch(False)
        inline = bilstm_pass(dtype, summary=summary)
        jobs = switch(True)
        overlapped = bilstm_pass(dtype, summary=summary)
        # The backward direction's forward scan, and its BPTT scan too.
        assert len(jobs) == 2
        assert same_bits(overlapped, inline)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gan_steps(self, switch, dtype):
        switch(False)
        inline = gan_run(dtype)
        jobs = switch(True)
        overlapped = gan_run(dtype)
        assert jobs
        assert same_bits(overlapped, inline)


class TestOverlapGuard:
    def test_every_condition_is_required(self, monkeypatch):
        monkeypatch.setattr(overlap, "usable_cpus", lambda: 2)
        monkeypatch.setattr(overlap, "blas_threads", lambda: 1)
        assert overlap.should_overlap(overlap.MIN_OVERLAP_SIZE)
        assert not overlap.should_overlap(overlap.MIN_OVERLAP_SIZE - 1)
        for cpus, threads in ((1, 1), (2, 2), (2, None)):
            monkeypatch.setattr(overlap, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(overlap, "blas_threads", lambda: threads)
            assert not overlap.should_overlap(10**9)

    def test_blas_probe_reads_a_pinned_thread_count(self):
        if overlap.blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        probe = subprocess.run(
            [sys.executable, "-c",
             "from repro.nn import overlap; print(overlap.blas_threads())"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert probe.stdout.strip() == "1"


@st.composite
def dag_programs(draw: st.DrawFn) -> tuple[int, list[tuple[str, int, int, bool]],
                                           list[int], int]:
    """Leaf count, ops ``(kind, a, b, offload)``, loss terms and a seed."""
    leaves = draw(st.integers(2, 4))
    ops = []
    for index in range(draw(st.integers(1, 14))):
        operand = st.integers(0, leaves + index - 1)
        ops.append((draw(st.sampled_from(
            ["add", "mul", "tanh", "matmul", "flip", "concat", "slice"])),
            draw(operand), draw(operand), draw(st.booleans())))
    terms = draw(st.lists(st.integers(0, leaves + len(ops) - 1),
                          min_size=1, max_size=5))
    return leaves, ops, terms, draw(st.integers(0, 2**16))


def dag_gradients(program: tuple[int, list[tuple[str, int, int, bool]],
                                 list[int], int],
                  offloaded: set[int]) -> list[np.ndarray]:
    """Build the program's graph, backpropagate, return leaf gradients.

    The ids of the nodes whose op carries the offload flag go into
    ``offloaded``, where a patched ``_offloads`` picks them out.
    """
    leaves, ops, terms, seed = program
    rng = np.random.default_rng(seed)
    weight = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    inputs = [Tensor(rng.standard_normal((3, 4)), requires_grad=True)
              for _ in range(leaves)]
    nodes = list(inputs)
    chosen = set()
    for kind, a, b, offload in ops:
        left, right = nodes[a], nodes[b]
        if kind == "add":
            node = left + right
        elif kind == "mul":
            node = left * right
        elif kind == "tanh":
            node = left.tanh()
        elif kind == "matmul":
            node = left @ weight
        elif kind == "flip":
            node = F.flip_sequence(left)
        elif kind == "concat":
            node = F.concat([left, right], axis=0)[1:4]
        else:
            node = F.stack([left, right], axis=0)[1]
        if offload:
            chosen.add(id(node))
        nodes.append(node)
    loss = (nodes[terms[0]] * 1.5).sum()
    for k in terms[1:]:
        loss = loss + (nodes[k] * float(rng.uniform(0.5, 2.0))).sum()
    offloaded |= chosen
    loss.backward()
    return [weight.grad if weight.grad is not None else np.zeros(0)] + [
        x.grad if x.grad is not None else np.zeros(0) for x in inputs]


class TestBackwardEngineOrder:
    @settings(max_examples=60, deadline=None)
    @given(program=dag_programs(), delay=st.sampled_from([0.0, 0.002]))
    def test_random_graphs_match_inline_bitwise(self, program, delay):
        """Steps forced onto the helper keep every gradient's bits.

        The helper sleeps before each step, so a node that failed to wait
        for it would read or add to a gradient too early.
        """
        inline = dag_gradients(program, set())
        offloaded: set[int] = set()
        real_submit = overlap.submit

        def late_submit(fn: Callable[[], None]) -> Any:
            def late() -> None:
                time.sleep(delay)
                fn()
            return real_submit(late)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_module, "_offloads",
                          lambda node: id(node) in offloaded)
            patch.setattr(overlap, "submit", late_submit)
            forced = dag_gradients(program, offloaded)
        assert same_bits(forced, inline)

    def test_helper_failure_is_raised_by_backward(self, monkeypatch):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = x.tanh().sum()
        real_submit = overlap.submit

        def fail() -> None:
            raise FloatingPointError("helper step failed")

        monkeypatch.setattr(tensor_module, "_offloads",
                            lambda node: node._op == "tanh")
        monkeypatch.setattr(overlap, "submit", lambda fn: real_submit(fail))
        with pytest.raises(FloatingPointError, match="helper step failed"):
            loss.backward()


def exit_code_in_child(body: Callable[[], bool]) -> int:
    """Run ``body`` in a forked child and return the child's exit code.

    0 means ``body`` returned true. A child that hangs is killed and fails
    the test, so a deadlock cannot hang the suite.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if body() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.02)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork + threads
class TestHelperThread:
    def test_forked_child_finishes_an_overlapped_pass(self, switch):
        jobs = switch(True)
        expected = bilstm_pass("float64", summary=True)  # starts the helper
        assert jobs
        assert exit_code_in_child(lambda: same_bits(
            bilstm_pass("float64", summary=True), expected)) == 0

    def test_nested_pass_on_the_helper_runs_inline(self, switch):
        switch(False)
        expected = bilstm_pass("float64", summary=True)
        jobs = switch(True)

        def nested() -> bool:
            got = overlap.submit(
                lambda: bilstm_pass("float64", summary=True)).result()
            return len(jobs) == 1 and same_bits(got, expected)

        assert exit_code_in_child(nested) == 0


#: Five one-step epochs of the default GAN config (H=64, batch 32) with
#: the cycle collector off; prints RSS in MB after each epoch as JSON.
RSS_PROBE = """
import dataclasses, gc, json, os

import numpy as np

from repro.gan.trainer import GanConfig, GanTrainer
from repro.trajectories import HumanMotionSimulator

page = os.sysconf("SC_PAGE_SIZE")


def rss_mb():
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * page / 2**20


dataset = HumanMotionSimulator(rng=np.random.default_rng(4)).build_dataset(32)
trainer = GanTrainer(dataset, dataclasses.replace(GanConfig(), batch_size=32))
gc.collect()
gc.disable()
readings = []
for _ in range(5):
    trainer.train(epochs=1)
    readings.append(rss_mb())
print(json.dumps(readings))
"""


class TestGraphRelease:
    def test_second_backward_raises_naming_the_op(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        loss = (x.tanh() * 2.0).sum()
        loss.backward()
        with pytest.raises(GradientError, match="'sum'"):
            loss.backward()

    def test_backward_through_a_consumed_subgraph_raises(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        hidden = x.tanh()
        hidden.sum().backward()
        first = x.grad.copy()
        with pytest.raises(GradientError, match="'tanh'"):
            (hidden * 3.0).sum().backward()
        assert x.grad.tobytes() == first.tobytes()  # nothing was pushed

    @pytest.mark.parametrize("backpropagate", [False, True])
    def test_graph_is_freed_without_the_cycle_collector(self, backpropagate):
        gc.disable()
        try:
            x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
            hidden = x.tanh().exp()
            saved = weakref.ref(hidden.data)
            loss = (hidden * x).sum()
            del hidden
            if backpropagate:
                loss.backward()
            del loss
            assert saved() is None
        finally:
            gc.enable()

    def test_training_leaves_no_autograd_garbage(self):
        dataset = HumanMotionSimulator(
            rng=np.random.default_rng(3), num_points=16).build_dataset(48)
        trainer = GanTrainer(dataset, SMALL_GAN)
        gc.collect()
        gc.disable()
        try:
            trainer.train(epochs=1)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [obj for obj in gc.garbage if isinstance(obj, Tensor)
                      or str(getattr(obj, "__module__", "")).startswith(
                          "repro.nn")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_rss_stays_flat_over_steps_without_collection(self):
        # A fresh interpreter: inside pytest, RSS starts at whatever the
        # earlier tests grew the heap to, and the readings measure that.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        probe = subprocess.run(
            [sys.executable, "-c", RSS_PROBE], env=env, capture_output=True,
            text=True, check=True, timeout=300)
        readings = json.loads(probe.stdout)
        assert len(readings) == 5
        assert max(readings) <= 1.10 * readings[0], readings


class TestMetricsRegistryCreation:
    @pytest.mark.parametrize("module_name, attribute, accessor", [
        ("repro.nn.metrics", "_NN_METRICS", "nn_metrics"),
        ("repro.radar.stages", "_STAGE_METRICS", "stage_metrics"),
    ])
    def test_racing_first_observations_share_one_registry(
            self, monkeypatch, module_name, attribute, accessor):
        module = importlib.import_module(module_name)
        created: list[serve_metrics.MetricsRegistry] = []

        class SlowRegistry(serve_metrics.MetricsRegistry):
            def __init__(self) -> None:
                time.sleep(0.05)  # widen any check-then-set window
                super().__init__()
                created.append(self)

        monkeypatch.setattr(serve_metrics, "MetricsRegistry", SlowRegistry)
        monkeypatch.setattr(module, attribute, None)
        barrier = threading.Barrier(2)

        def observe(name: str) -> None:
            barrier.wait()
            getattr(module, accessor)().inc(name)

        threads = [threading.Thread(target=observe, args=(f"race.{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(created) == 1
        assert getattr(module, attribute) is created[0]
        assert created[0].snapshot()["counters"] == {"race.0": 1, "race.1": 1}
