"""A from-scratch numpy autograd engine and neural-network toolkit.

The paper trains its trajectory cGAN in PyTorch; this environment has no
deep-learning framework, so the substrate is built here: a reverse-mode
autodiff :class:`~repro.nn.tensor.Tensor`, differentiable ops
(`functional`), layers including LSTM and bidirectional LSTM (`layers`,
`recurrent`), optimizers (`optim`), initializers (`init`) and state
(de)serialization (`serialization`). Everything is plain numpy and is
validated against numerical gradients in the test suite.

One runtime policy governs execution, env-configurable through
:mod:`repro.config`: the leaf/parameter dtype
(``RF_PROTECT_NN_DTYPE=float32|float64``, see
:func:`~repro.nn.tensor.dtype_scope`). Every LSTM stack scans as one fused
:func:`~repro.nn.functional.lstm_sequence` op. LSTM layer scans, their BPTT
passes and the cGAN steps record their wall times into the process registry
(:func:`nn_metrics`, which is :func:`repro.obs.process_metrics`) as
``nn.<op>.wall_s``. A large BiLSTM pass runs its two directions at once,
and a large stacked LSTM its layers side by side, forward and in BPTT, on
one helper thread (:mod:`repro.nn.overlap`); no knob selects this, and no
result changes.
"""

from repro.nn import functional
from repro.nn.layers import Dropout, Embedding, Linear, Module, Sequential, Tanh
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.recurrent import BiLSTM, LSTM, LSTMCell
from repro.nn.serialization import load_state, save_state
from repro.nn.tensor import (
    Tensor,
    default_dtype,
    dtype_scope,
    resolve_dtype,
    set_default_dtype,
)
from repro.obs import process_metrics as nn_metrics

__all__ = [
    "Adam",
    "BiLSTM",
    "Dropout",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "Linear",
    "Module",
    "Optimizer",
    "SGD",
    "Sequential",
    "Tanh",
    "Tensor",
    "default_dtype",
    "dtype_scope",
    "functional",
    "load_state",
    "nn_metrics",
    "resolve_dtype",
    "save_state",
    "set_default_dtype",
]
