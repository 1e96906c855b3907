"""Non-convolution layers: Linear, BatchNorm2d (running stats), activations,
pooling, Flatten, Dropout."""
from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor import conv_ops
from repro.utils.rng import get_rng


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng=rng))
        self.bias = Parameter(init.uniform_bias((out_features,), in_features, rng=rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class BatchNorm2d(Module):
    """Batch normalisation with running statistics for eval mode."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        object.__setattr__(self, "_buffers", {
            "running_mean": np.zeros(num_features, dtype=np.float32),
            "running_var": np.ones(num_features, dtype=np.float32),
        })
        object.__setattr__(self, "running_mean", self._buffers["running_mean"])
        object.__setattr__(self, "running_var", self._buffers["running_var"])

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            return self.batch_forward(x)
        self._check(x)
        mean = self._buffers["running_mean"].reshape(1, -1, 1, 1)
        var = self._buffers["running_var"].reshape(1, -1, 1, 1)
        scale = self.weight.reshape(1, -1, 1, 1) / Tensor(np.sqrt(var + self.eps))
        return (x - Tensor(mean)) * scale + self.bias.reshape(1, -1, 1, 1)

    def batch_forward(self, x: Tensor, relu: bool = False) -> Tensor:
        """Training mode: normalise with the batch statistics (then apply
        a ReLU in the same node if ``relu``) and update the running ones."""
        self._check(x)
        fn = conv_ops.BatchNorm2d()
        out = fn(x, self.weight, self.bias, eps=self.eps, relu=relu)
        # Unbiased batch variance, as PyTorch keeps it; a one-value
        # batch has no spread to correct, so it stays as computed.
        n = x.size // self.num_features
        unbiased = fn.batch_var * (n / max(n - 1, 1))
        m = self.momentum
        self._buffers["running_mean"] = (
            (1 - m) * self._buffers["running_mean"] + m * fn.batch_mean
        ).astype(np.float32)
        self._buffers["running_var"] = (
            (1 - m) * self._buffers["running_var"] + m * unbiased
        ).astype(np.float32)
        object.__setattr__(self, "running_mean", self._buffers["running_mean"])
        object.__setattr__(self, "running_var", self._buffers["running_var"])
        return out

    def _check(self, x: Tensor) -> None:
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d({self.num_features}) got input with {x.shape[1]} channels"
            )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


def bn_act(bn: Module, act: Module, x: Tensor) -> Tensor:
    """``act(bn(x))``.  A ``BatchNorm2d`` followed by a plain ``ReLU`` runs
    as one BatchNorm+ReLU node in training (the modules, their state and
    eval mode are unchanged); any other pair, or a module carrying forward
    hooks, is called as two modules."""
    if (
        type(act) is ReLU
        and isinstance(bn, BatchNorm2d)
        and bn.training
        and not (bn._forward_hooks or act._forward_hooks)
    ):
        return bn.batch_forward(x, relu=True)
    return act(bn(x))


class ReLU6(Module):
    """min(max(x, 0), 6) — MobileNet's activation."""

    def forward(self, x: Tensor) -> Tensor:
        return 6.0 - (6.0 - x.relu()).relu()

    def __repr__(self) -> str:
        return "ReLU6()"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None,
                 padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.MaxPool2d.apply(
            x, kernel=self.kernel_size, stride=self.stride, padding=self.padding,
        )

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride}, p={self.padding})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.AvgPool2d.apply(x, kernel=self.kernel_size)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size})"


class GlobalAvgPool2d(Module):
    """Mean over the spatial dims, keeping (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def __repr__(self) -> str:
        return "Flatten()"


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (get_rng().random(x.shape) < keep).astype(np.float32) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"
