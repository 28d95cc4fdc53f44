"""From-scratch reverse-mode autodiff and neural-network substrate.

Public surface::

    from repro.autograd import Tensor, nn, optim, functional as F

See DESIGN.md §2 for why this substrate exists (no PyTorch in the
environment) and tests/test_autograd_*.py for finite-difference checks.
"""

from . import functional, init, kernels, optim
from .kernels import embedding_gather, gdu_layer, gru_hidden_sum, lstm_hidden_sum
from .nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from .gradcheck import GradientCheckError, gradcheck, numeric_gradient
from .conv import CNNEncoder, Conv1d, conv1d, max_pool_over_time
from .rnn import GRUCell, GRUEncoder, LSTMCell, RNNCell, run_rnn
from .serialization import load_arrays, load_state, save_arrays, save_state
from .tensor import (
    Tensor,
    concatenate,
    ensure_tensor,
    no_tape,
    ones,
    randn,
    stack,
    tape_enabled,
    where,
    zeros,
)

__all__ = [
    "Tensor",
    "concatenate",
    "ensure_tensor",
    "stack",
    "where",
    "zeros",
    "ones",
    "randn",
    "functional",
    "init",
    "kernels",
    "optim",
    "embedding_gather",
    "gdu_layer",
    "gru_hidden_sum",
    "lstm_hidden_sum",
    "no_tape",
    "tape_enabled",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "ReLU",
    "Tanh",
    "RNNCell",
    "GRUCell",
    "LSTMCell",
    "GRUEncoder",
    "Conv1d",
    "CNNEncoder",
    "conv1d",
    "max_pool_over_time",
    "run_rnn",
    "save_state",
    "load_state",
    "save_arrays",
    "load_arrays",
    "gradcheck",
    "numeric_gradient",
    "GradientCheckError",
]
