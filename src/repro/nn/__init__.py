"""A from-scratch numpy autograd engine and neural-network toolkit.

The paper trains its trajectory cGAN in PyTorch; this environment has no
deep-learning framework, so the substrate is built here: a reverse-mode
autodiff :class:`~repro.nn.tensor.Tensor`, differentiable ops
(`functional`), layers including LSTM and bidirectional LSTM (`layers`,
`recurrent`), optimizers (`optim`), initializers (`init`) and state
(de)serialization (`serialization`). Everything is plain numpy and is
validated against numerical gradients in the test suite.

Two runtime policies govern execution, both env-configurable through
:mod:`repro.config`: the recurrent sequence backend
(``RF_PROTECT_NN_BACKEND=naive|fused``, see
:data:`~repro.nn.recurrent.SEQUENCE_KERNELS`) and the leaf/parameter dtype
(``RF_PROTECT_NN_DTYPE=float32|float64``, see
:func:`~repro.nn.tensor.dtype_scope`). Per-op wall-time instrumentation
lives in :mod:`repro.nn.metrics`. A large BiLSTM pass runs its two
directions at once, forward and in BPTT, on one helper thread
(:mod:`repro.nn.overlap`); no knob selects this, and no result changes.
"""

from repro.nn import functional
from repro.nn.layers import Dropout, Embedding, Linear, Module, ReLU, Sequential, Sigmoid, Tanh
from repro.nn.metrics import nn_metrics
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.recurrent import (
    SEQUENCE_KERNELS,
    BiLSTM,
    LSTM,
    LSTMCell,
    active_sequence_backend,
    sequence_backend_scope,
    set_sequence_backend,
)
from repro.nn.serialization import load_state, save_state
from repro.nn.tensor import (
    Tensor,
    default_dtype,
    dtype_scope,
    resolve_dtype,
    set_default_dtype,
)

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
    "ReLU",
    "SEQUENCE_KERNELS",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "active_sequence_backend",
    "default_dtype",
    "dtype_scope",
    "functional",
    "load_state",
    "nn_metrics",
    "resolve_dtype",
    "save_state",
    "sequence_backend_scope",
    "set_default_dtype",
    "set_sequence_backend",
]
