"""Overlapped BiLSTM directions and graph release in the autograd engine.

:mod:`repro.nn.overlap` runs a large BiLSTM pass's backward direction on a
helper thread, in the forward scan and again in BPTT, and the layers of a
large LSTM stack side by side, chunk by chunk. Tier-1 runs with a
multithreaded BLAS, where the overlap guard keeps every pass inline, so
these tests force overlap on: the size floor drops to zero and the probes
report two CPUs and one BLAS thread. Overlap must change no bit of any
result, raise a failure from either thread, survive a fork, and never
deadlock on a nested pass.

:meth:`Tensor.backward` frees each node once its step has run, and no step
refers to its own node, so training leaves nothing for the cycle
collector and a second backward through a freed graph fails loudly.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from collections.abc import Callable
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GradientError
from repro.gan.trainer import GanConfig, GanTrainer
from repro.nn import LSTM, BiLSTM, Tensor, dtype_scope
from repro.nn import functional as F
from repro.nn import overlap
from repro.nn import tensor as tensor_module
from repro.obs import observe_wall, process_metrics
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

    The size floors stay at zero either way, so a stack scans in the same
    chunks on and off; off, the probes report one CPU. The log records
    every job handed to the helper since the switch.
    """
    jobs: list[Any] = []
    real_submit = overlap.submit

    def logged_submit(fn: Callable[[], Any]) -> Any:
        jobs.append(fn)
        return real_submit(fn)

    monkeypatch.setattr(overlap, "MIN_OVERLAP_SIZE", 0)
    monkeypatch.setattr(overlap, "MIN_STACK_SIZE", 0)
    monkeypatch.setattr(overlap, "blas_threads", lambda: 1)
    monkeypatch.setattr(overlap, "submit", logged_submit)

    def set_overlap(on: bool) -> list[Any]:
        monkeypatch.setattr(overlap, "usable_cpus", lambda: 2 if on else 1)
        jobs.clear()
        return jobs

    return set_overlap


def wave_jobs(jobs: list[Any]) -> list[Any]:
    """The logged jobs that are a stack wavefront's share of a wave."""
    return [job for job in jobs
            if getattr(job, "func", None) is overlap._run_steps]


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
        assert wave_jobs(jobs)  # the generator's two layers
        assert len(wave_jobs(jobs)) < len(jobs)  # the discriminator's BiLSTM
        assert same_bits(overlapped, inline)


def stack_pass(dtype: str, num_layers: int, seq_len: int,
               dropout: float) -> list[Any]:
    """Output, every gradient and the end generator state of one stack pass.

    Every layer starts from an explicit ``(h0, c0)`` that takes a gradient.
    """
    with dtype_scope(dtype):
        rng = np.random.default_rng(11)
        model = LSTM(3, 4, rng, num_layers=num_layers,
                     dropout_probability=dropout)
        x = Tensor(rng.standard_normal((seq_len, 2, 3)), requires_grad=True)
        states = [(Tensor(rng.standard_normal((2, 4)), requires_grad=True),
                   Tensor(rng.standard_normal((2, 4)), requires_grad=True))
                  for _ in range(num_layers)]
        out = model.forward_sequence(x, states)
        weights = Tensor(rng.standard_normal(out.shape), dtype=out.dtype)
        (out * weights).sum().backward()
    return ([out.data, x.grad] + [p.grad for p in model.parameters()]
            + [state.grad for pair in states for state in pair]
            + [model._rng.bit_generator.state])


def same_pass(actual: list[Any], expected: list[Any]) -> bool:
    return (same_bits(actual[:-1], expected[:-1])
            and actual[-1] == expected[-1])


K = F.CHUNK_STEPS


class TestStackWavefront:
    """A stack's layers scan side by side, forward and in BPTT, bitwise."""

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("seq_len", [1, K - 1, K, 3 * K + 1])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_inline_bitwise(self, switch, dtype, num_layers, seq_len,
                                    dropout):
        switch(False)
        inline = stack_pass(dtype, num_layers, seq_len, dropout)
        jobs = switch(True)
        overlapped = stack_pass(dtype, num_layers, seq_len, dropout)
        assert same_pass(overlapped, inline)
        assert bool(wave_jobs(jobs)) == (num_layers > 1)
        if num_layers == 2:
            # Every wave but the first and the last overlaps: chunks - 1
            # forward, and chunks + 1 in BPTT, whose lanes end in two GEMM
            # steps.
            assert len(wave_jobs(jobs)) == 2 * -(-seq_len // K)

    def test_threads_switching_often_change_no_bit(self, switch):
        switch(False)
        inline = stack_pass("float32", 3, 3 * K + 1, 0.5)
        switch(True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            overlapped = [stack_pass("float32", 3, 3 * K + 1, 0.5)
                          for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(same_pass(run, inline) for run in overlapped)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_frozen_forward_overlaps_and_matches_inline(self, switch, dtype):
        def frozen_pass() -> list[Any]:
            with dtype_scope(dtype):
                rng = np.random.default_rng(12)
                model = LSTM(3, 4, rng, num_layers=2,
                             dropout_probability=0.5)
                x = Tensor(rng.standard_normal((3 * K + 1, 2, 3)))
                with model.frozen():
                    out = model.forward_sequence(x)
            assert not out.requires_grad and out._parents == ()
            return [out.data, model._rng.bit_generator.state]

        switch(False)
        inline = frozen_pass()
        jobs = switch(True)
        overlapped = frozen_pass()
        assert len(wave_jobs(jobs)) == len(jobs) == 3
        assert same_pass(overlapped, inline)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("thread", ["helper", "caller"])
    def test_chunk_failure_is_raised_and_the_next_pass_works(
            self, switch, monkeypatch, thread, direction):
        switch(False)
        expected = stack_pass("float64", 2, 3 * K + 1, 0.5)
        switch(True)
        real_step = getattr(F._Layer, direction)
        calls: list[int] = []

        def failing_step(layer: Any, start: int, stop: int) -> None:
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (thread == "caller"):
                calls.append(start)
                # The caller's first chunk runs alone; its second runs
                # beside the helper's first.
                if len(calls) == (1 if thread == "helper" else 2):
                    raise FloatingPointError(f"{direction} chunk failed")
            real_step(layer, start, stop)

        monkeypatch.setattr(F._Layer, direction, failing_step)
        with pytest.raises(FloatingPointError, match=f"{direction} chunk"):
            stack_pass("float64", 2, 3 * K + 1, 0.5)
        monkeypatch.setattr(F._Layer, direction, real_step)
        assert overlap.submit(lambda: 1).result(timeout=30) == 1
        assert same_pass(stack_pass("float64", 2, 3 * K + 1, 0.5), expected)

    def test_stack_waits_for_a_pending_helper_step(self, switch, monkeypatch):
        """No wave is handed to the helper while another job is on it."""
        switch(True)
        real_submit = overlap.submit
        busy: list[bool] = []
        futures: list[Any] = []
        kinds: list[bool] = []

        def late_submit(fn: Callable[[], Any]) -> Any:
            busy.append(any(not future.done() for future in futures))
            kinds.append(bool(wave_jobs([fn])))

            def late() -> Any:
                time.sleep(0.01)
                return fn()
            futures.append(real_submit(late))
            return futures[-1]

        with dtype_scope("float64"):
            rng = np.random.default_rng(13)
            model = LSTM(3, 4, rng, num_layers=2)
            x = Tensor(rng.standard_normal((3 * K + 1, 2, 3)),
                       requires_grad=True)
            other = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
            # The tanh step is reached first and sleeps on the helper.
            loss = other.tanh().sum() + model.forward_sequence(x).sum()
            monkeypatch.setattr(overlap, "submit", late_submit)
            monkeypatch.setattr(
                tensor_module, "_offloads",
                lambda node: node._op == "tanh")
            loss.backward()
        assert kinds[0] is False and all(kinds[1:]) and len(kinds) > 1
        assert not any(busy)


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

    def test_stack_pass_on_the_helper_runs_inline(self, switch):
        switch(False)
        expected = stack_pass("float64", 2, 3 * K + 1, 0.5)
        jobs = switch(True)

        def nested() -> bool:
            got = overlap.submit(
                lambda: stack_pass("float64", 2, 3 * K + 1, 0.5)).result()
            return len(jobs) == 1 and same_pass(got, expected)

        assert exit_code_in_child(nested) == 0


def traced_peak(fn: Callable[[], Any]) -> tuple[int, Any]:
    """Bytes ``fn`` allocates at its peak over what it starts with."""
    tracemalloc.start()
    try:
        started = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1] - started, result
    finally:
        tracemalloc.stop()


def layer_operands(in_dim: int, hidden: int, batch: int,
                   rng: np.random.Generator) -> tuple[Tensor, ...]:
    """One float32 layer's ``(w_ih, w_hh, bias, h0, c0)``, all trainable."""
    shapes = [(in_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,),
              (batch, hidden), (batch, hidden)]
    return tuple(Tensor(0.3 * rng.standard_normal(shape), dtype="float32",
                        requires_grad=True) for shape in shapes)


#: What a float32 pass allocates besides its buffers: its Python objects
#: (tensors, closures, layer state) and numpy's iterator buffers, at most
#: two of 8,192 elements, for ufuncs over the strided gate blocks. Small
#: beside every buffer these tests look for.
SLACK = 32 * 1024 + 2 * 8192 * 4


class TestScanMemory:
    """A scan keeps, per timestep and batch row, only what BPTT reads.

    tracemalloc counts numpy's buffers. A pass that builds a node saves
    its activated gates, cell states and hidden states (after one ``h0``
    row) and allocates no other ``(T, ...)`` buffer; a pass that builds
    none keeps one chunk of gates.
    """

    def test_forward_allocates_only_the_saved_buffers(self):
        seq_len, batch, in_dim, hidden = 64, 4, 8, 32
        rng = np.random.default_rng(20)
        layer = layer_operands(in_dim, hidden, batch, rng)
        inputs = Tensor(rng.standard_normal((seq_len, batch, in_dim)),
                        dtype="float32", requires_grad=True)
        F.lstm_sequence(inputs, [layer])  # first observations, imports
        peak, out = traced_peak(lambda: F.lstm_sequence(inputs, [layer]))
        assert out.requires_grad
        row = batch * 4 * hidden * 4  # one timestep of gates, in bytes
        saved = seq_len * row + (2 * seq_len + 1) * batch * hidden * 4
        assert peak <= saved + 4 * row + SLACK, (peak, saved)

    def test_finish_takes_h_prev_as_a_view(self, monkeypatch):
        seq_len, batch, in_dim, hidden = 512, 4, 4, 8
        rng = np.random.default_rng(21)
        layer = layer_operands(in_dim, hidden, batch, rng)
        inputs = Tensor(rng.standard_normal((seq_len, batch, in_dim)),
                        dtype="float32")
        peaks: list[int] = []
        real_finish = F._Layer.finish

        def traced_finish(scan: Any) -> None:
            peaks.append(traced_peak(lambda: real_finish(scan))[0])

        monkeypatch.setattr(F._Layer, "finish", traced_finish)
        F.lstm_sequence(inputs, [layer]).sum().backward()
        states = seq_len * batch * hidden * 4
        # The w_hh gradient and its accumulator are 2 KiB here; a copy of
        # the hidden states would be 64 KiB.
        assert len(peaks) == 1 and peaks[0] < states // 4, peaks

    def test_frozen_stack_keeps_one_chunk_of_gates(self):
        seq_len, batch, in_dim, hidden = 2 * K + 1, 16, 8, 512
        assert batch * hidden >= overlap.MIN_STACK_SIZE  # scans in chunks
        with dtype_scope("float32"):
            model = LSTM(in_dim, hidden, np.random.default_rng(22),
                         num_layers=2)
            inputs = Tensor(np.random.default_rng(23).standard_normal(
                (seq_len, batch, in_dim)))
        with model.frozen():
            model.forward_sequence(inputs)
            peak, out = traced_peak(lambda: model.forward_sequence(inputs))
        assert not out.requires_grad
        row = batch * 4 * hidden * 4
        per_layer = (K * row + (seq_len + 1) * batch * hidden * 4  # states
                     + 2 * row)  # h0, c0, a cell and the step scratch
        assert peak <= 2 * per_layer + SLACK, (peak, per_layer)
        assert 2 * per_layer < 2 * seq_len * row  # the whole-sequence gates

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_sigmoid_is_the_stable_sigmoid_bitwise(self, dtype):
        info = np.finfo(dtype)
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
             -info.smallest_subnormal, 3 * info.smallest_subnormal,
             info.tiny, -info.tiny, 20.5, -20.5, 45.0, -45.0, 1e3, -1e3,
             info.max, -info.max], dtype=dtype)
        values = np.concatenate([special, 12.0 * np.random.default_rng(
            24).standard_normal(480 - special.size).astype(dtype)])
        # Rows of a gate buffer: the [i, f] block is a strided view.
        gates = np.zeros((8, 4 * 30), dtype=dtype)
        gates[:, :60] = values.reshape(8, 60)
        expected = F._stable_sigmoid(gates[:, :60])
        F._sigmoid_in_place(gates[:, :60])
        assert gates[:, :60].tobytes() == expected.tobytes()
        flat = values.copy()
        F._sigmoid_in_place(flat)
        assert flat.tobytes() == F._stable_sigmoid(values).tobytes()

    @pytest.mark.parametrize("frozen", [False, True])
    def test_projection_lands_in_the_gate_buffer(self, monkeypatch, frozen):
        layers: list[Any] = []
        real_forward = F._Layer.forward

        def spy(scan: Any, start: int, stop: int) -> None:
            layers.append(scan)
            assert np.shares_memory(scan.gate_rows, scan.gates)
            assert scan.gate_rows.nbytes == scan.gates.nbytes
            real_forward(scan, start, stop)

        monkeypatch.setattr(F._Layer, "forward", spy)
        rng = np.random.default_rng(25)
        layer = layer_operands(3, 5, 2, rng)
        if frozen:
            for operand in layer:
                operand.requires_grad = False
        F.lstm_sequence(Tensor(rng.standard_normal((6, 2, 3))), [layer])
        assert len(layers) == 1


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
    def test_racing_first_observations_share_one_registry(self):
        """Two threads create the same instruments at once; no count is lost."""
        registry = process_metrics()
        counter, histogram = "test.race.count", "test.race.wall_s"
        before = registry.snapshot()
        assert counter not in before["counters"]
        assert histogram not in before["histograms"]
        rounds = 500
        barrier = threading.Barrier(2)

        def observe() -> None:
            barrier.wait()
            for _ in range(rounds):
                registry.inc(counter)
                observe_wall(histogram, time.perf_counter())

        threads = [threading.Thread(target=observe) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        after = registry.snapshot()
        assert after["counters"][counter] == 2 * rounds
        assert after["histograms"][histogram]["count"] == 2 * rounds
