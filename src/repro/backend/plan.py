"""Execution plans: precomputed index tables, contraction paths, scratch.

Everything here is pure shape algebra — no kernel math.  Plans are built
once per :class:`~repro.backend.workload.Workload` and cached in the global
:data:`~repro.backend.workload.PLAN_CACHE`:

- :func:`contraction_path` / :func:`planned_einsum` — ``np.einsum_path``
  results keyed by (subscripts, operand shapes, dtype), so the hot loops
  never pay the per-call path search that ``optimize=True`` runs;
- :func:`conv2d_plan` — padded/output geometry and the two
  backward contraction paths (grad-weight, per-tap data-grad) of a
  (grouped) convolution; its forward is an im2col GEMM with no path;
- :func:`pool2d_plan` — pooling window geometry;
- :func:`scc_plan` — the SCC window matrix, channel cycle, per-cycle gather
  indices and contiguous segment table (paper Algorithms 1+2), shared by
  every layer and kernel call with the same (Cin, Cout, cg, co), plus the
  dense ``W_full`` scratch workspace of the input-centric backward;
  :meth:`SCCPlan.check` validates an SCC kernel call against it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.backend.workload import PLAN_CACHE, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.channel_map import SCCConfig


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


# ---------------------------------------------------------------------------
# Cached einsum contraction paths
# ---------------------------------------------------------------------------

def _build_path(subscripts: str, shapes: tuple, dtype: str):
    # Zero-stride dummies: einsum_path only inspects shapes and dtypes.
    ops = [np.broadcast_to(np.empty((), dtype=dtype), s) for s in shapes]
    return np.einsum_path(subscripts, *ops, optimize="optimal")[0]


def contraction_path(subscripts: str, shapes: tuple, dtype) -> list:
    """The ``np.einsum_path`` plan for one contraction shape-class, cached."""
    workload = Workload.make(
        "einsum", in_shape=shapes, dtype=dtype, subscripts=subscripts
    )
    return PLAN_CACHE.get_or_build(
        workload, lambda: _build_path(subscripts, workload.in_shape, workload.dtype)
    )


def planned_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with its contraction path served from the plan cache.

    Semantically identical to ``np.einsum(..., optimize=True)`` but the path
    search runs once per (subscripts, shapes, dtype) instead of per call.
    """
    shapes = tuple(op.shape for op in operands)
    path = contraction_path(subscripts, shapes, np.result_type(*operands))
    return np.einsum(subscripts, *operands, optimize=path)


# ---------------------------------------------------------------------------
# Convolution plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2dPlan:
    """Geometry + backward contraction paths for one (grouped) conv2d workload."""

    x_shape: tuple
    w_shape: tuple
    stride: int
    padding: int
    groups: int
    dtype: str
    out_shape: tuple          # (N, Cout, Ho, Wo)
    gradw_path: list          # grad x patches -> grad_w (per group)
    gradx_path: list          # grad x weight tap -> grad_x contribution

    @property
    def kernel(self) -> tuple[int, int]:
        return self.w_shape[2], self.w_shape[3]

    @property
    def depthwise(self) -> bool:
        """One input channel per group (``groups > 1``): the backends run
        the per-tap elementwise path instead of per-group contractions."""
        return self.groups > 1 and self.w_shape[1] == 1


def _build_conv2d_plan(wl: Workload) -> Conv2dPlan:
    x_shape, w_shape = wl.in_shape, wl.weight_shape
    stride, padding, groups = wl.param("stride"), wl.param("padding"), wl.param("groups")
    n, cin, h, w = x_shape
    cout, cin_g, kh, kw = w_shape
    if cin % groups or cout % groups:
        raise ValueError(f"groups={groups} must divide Cin={cin} and Cout={cout}")
    if cin_g != cin // groups:
        raise ValueError(
            f"weight expects {cin_g} input channels per group but input provides "
            f"{cin // groups} (Cin={cin}, groups={groups})"
        )
    ho = conv_out_size(h, kh, stride, padding)
    wo = conv_out_size(w, kw, stride, padding)
    og = cout // groups
    patch_shape = (n, cin_g, ho, wo, kh, kw)   # per-group patch view
    return Conv2dPlan(
        x_shape=x_shape,
        w_shape=w_shape,
        stride=stride,
        padding=padding,
        groups=groups,
        dtype=wl.dtype,
        out_shape=(n, cout, ho, wo),
        gradw_path=_build_path(
            "nohw,nchwij->ocij", ((n, og, ho, wo), patch_shape), wl.dtype
        ),
        gradx_path=_build_path(
            "nohw,oc->nchw", ((n, og, ho, wo), (og, cin_g)), wl.dtype
        ),
    )


def conv2d_plan(
    x_shape: tuple, w_shape: tuple, stride: int, padding: int, groups: int, dtype
) -> Conv2dPlan:
    wl = Workload.make(
        "conv2d", x_shape, w_shape, dtype, stride=stride, padding=padding, groups=groups
    )
    return PLAN_CACHE.get_or_build(wl, lambda: _build_conv2d_plan(wl))


# ---------------------------------------------------------------------------
# Kernel epilogues: staged conv -> bias -> BN-affine -> activation
# ---------------------------------------------------------------------------

@dataclass
class EpilogueArgs:
    """Per-call epilogue operands, broadcast-shaped ``(1, C, 1, 1)``.

    :meth:`apply` replays, **in place on an output slab**, exactly the
    elementwise op sequence the unfused layer stack composes — bias add,
    then the eval-mode BN affine in its ``(x - mean) * scale + beta`` order,
    then the activation as the autograd ops compute it (``relu`` is
    ``max(x, 0)``; ``relu6`` is the literal ``6 - relu(6 - relu(x))``
    sequence).  Elementwise ops are bitwise-insensitive to slab
    partitioning, so fused output == unfused output bit-for-bit.
    """

    bias: np.ndarray | None = None
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None
    beta: np.ndarray | None = None
    activation: str | None = None     # None | "relu" | "relu6"

    def __post_init__(self) -> None:
        if self.activation not in (None, "relu", "relu6"):
            raise ValueError(
                f"activation must be None, 'relu' or 'relu6', got "
                f"{self.activation!r}"
            )

    def apply(self, out: np.ndarray, ch: slice = slice(None)) -> None:
        """Apply the epilogue in place to ``out``, an output slab holding
        the channels selected by ``ch`` (a slice into the full channel
        axis, matching how the per-channel operands are indexed)."""
        if self.bias is not None:
            np.add(out, self.bias[:, ch], out=out)
        if self.scale is not None:
            np.subtract(out, self.mean[:, ch], out=out)
            np.multiply(out, self.scale[:, ch], out=out)
            np.add(out, self.beta[:, ch], out=out)
        if self.activation == "relu":
            np.maximum(out, 0, out=out)
        elif self.activation == "relu6":
            six = np.asarray(6.0, dtype=out.dtype)
            np.maximum(out, 0, out=out)
            np.subtract(six, out, out=out)
            np.maximum(out, 0, out=out)
            np.subtract(six, out, out=out)


# ---------------------------------------------------------------------------
# Pooling plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pool2dPlan:
    """Window geometry for one pooling workload."""

    kind: str                 # "max" | "avg"
    x_shape: tuple
    kernel: int
    stride: int
    padding: int
    dtype: str
    out_shape: tuple
    padded_shape: tuple


def _build_pool2d_plan(wl: Workload) -> Pool2dPlan:
    kind = wl.param("kind")
    kernel, stride, padding = wl.param("kernel"), wl.param("stride"), wl.param("padding")
    n, c, h, w = wl.in_shape
    if kind == "avg":
        if stride != kernel:
            raise NotImplementedError("AvgPool2d supports stride == kernel only")
        if padding:
            raise NotImplementedError("AvgPool2d does not support padding")
        if h % kernel or w % kernel:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by kernel {kernel}")
        ho, wo = h // kernel, w // kernel
    else:
        ho = conv_out_size(h, kernel, stride, padding)
        wo = conv_out_size(w, kernel, stride, padding)
    return Pool2dPlan(
        kind=kind,
        x_shape=wl.in_shape,
        kernel=kernel,
        stride=stride,
        padding=padding,
        dtype=wl.dtype,
        out_shape=(n, c, ho, wo),
        padded_shape=(n, c, h + 2 * padding, w + 2 * padding),
    )


def pool2d_plan(
    kind: str, x_shape: tuple, kernel: int, stride: int, padding: int, dtype
) -> Pool2dPlan:
    wl = Workload.make(
        f"{kind}pool2d", x_shape, dtype=dtype,
        kind=kind, kernel=kernel, stride=stride, padding=padding,
    )
    return PLAN_CACHE.get_or_build(wl, lambda: _build_pool2d_plan(wl))


# ---------------------------------------------------------------------------
# SCC plans
# ---------------------------------------------------------------------------

#: The paper's SCC execution strategies (the ``strategy=`` of the SCC
#: kernels, the ``impl=`` of :class:`~repro.core.scc.SlidingChannelConv2d`).
SCC_STRATEGIES = ("channel_stack", "conv_stack", "dsxplore")
#: The backward designs of the ``dsxplore`` strategy; the composed
#: strategies accept either and ignore it.
SCC_BACKWARD_DESIGNS = ("input_centric", "output_centric")


@dataclass
class SCCPlan:
    """Shared index tables + scratch of one SCC configuration.

    One plan per (Cin, Cout, cg, co) serves every layer and kernel call —
    the window matrix, channel cycle (paper Algorithm 1), per-cycle gather
    index vectors and zero-copy segment table (Algorithm 2) are computed
    exactly once per process instead of once per layer construction.
    """

    config: "SCCConfig"
    windows: np.ndarray                     # (Cout, gw) per-filter channel indices
    cycle: list                             # Algorithm-1 (start, end) pairs
    cyclic_dist: int
    cycle_index: list                       # per cycle position: gathered channel idx
    segments: list                          # per cycle position: [(chan_slice, col_slice)]
    flat_index: np.ndarray                  # (oid * Cin + windows).ravel(), for W_full fill
    _scratch: threading.local = field(default_factory=threading.local, repr=False)

    def check(
        self,
        strategy: str,
        backward_design: str = "input_centric",
        x: np.ndarray | None = None,
        w: np.ndarray | None = None,
        grad_out: np.ndarray | None = None,
    ) -> None:
        """Reject an SCC call this plan cannot run, with a ``ValueError``.

        Every backend's ``scc_forward``/``scc_backward`` and the layer
        constructor call this one check: the strategy name, the backward
        design and, when given, the operand shapes (``grad_out`` is checked
        against the forward input ``x``).
        """
        if strategy not in SCC_STRATEGIES:
            raise ValueError(
                f"unknown SCC strategy {strategy!r}; available: {sorted(SCC_STRATEGIES)}"
            )
        if backward_design not in SCC_BACKWARD_DESIGNS:
            raise ValueError(
                f"backward_design must be 'input_centric' or 'output_centric', "
                f"got {backward_design!r}"
            )
        cfg = self.config
        if x is not None and (x.ndim != 4 or x.shape[1] != cfg.in_channels):
            raise ValueError(
                f"expected input (N, {cfg.in_channels}, H, W), got {x.shape}"
            )
        if w is not None and w.shape != (cfg.out_channels, cfg.group_width):
            raise ValueError(
                f"expected weight ({cfg.out_channels}, {cfg.group_width}), got {w.shape}"
            )
        if grad_out is not None:
            n, _, h, wdt = x.shape
            if grad_out.shape != (n, cfg.out_channels, h, wdt):
                raise ValueError(
                    f"expected grad_out {(n, cfg.out_channels, h, wdt)}, "
                    f"got {grad_out.shape}"
                )

    def w_full(self, w: np.ndarray) -> np.ndarray:
        """Dense (Cout, Cin) weight matrix, zeros outside each window.

        The buffer is a cached scratch workspace: window positions are
        overwritten on every call and off-window entries are zero by
        construction, so reuse is safe as long as the result is consumed
        before the next fill (which the pull backward does).  Plans are
        shared process-wide, so the scratch is *thread-local* — concurrent
        backward passes over same-config layers each get their own buffer.
        """
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            buffers = self._scratch.buffers = {}
        key = np.dtype(w.dtype).str
        buf = buffers.get(key)
        if buf is None:
            cfg = self.config
            buf = np.zeros((cfg.out_channels, cfg.in_channels), dtype=w.dtype)
            buffers[key] = buf
        buf.reshape(-1)[self.flat_index] = w.reshape(-1)
        return buf


def _build_scc_plan(config: "SCCConfig") -> SCCPlan:
    # Imported lazily to keep repro.backend import-independent of repro.core
    # (importing repro.core.channel_map runs repro.core's __init__, whose
    # layer modules import repro.backend at module level).
    from repro.core.channel_map import (
        channel_windows,
        compute_channel_cycle,
        window_segments,
    )

    windows = channel_windows(
        config.in_channels, config.out_channels, config.cg, config.co
    )
    cycle = compute_channel_cycle(
        config.in_channels, config.cg, config.co, config.out_channels
    )
    gw = config.group_width
    cycle_index = [
        (start + np.arange(gw)) % config.in_channels for start, _ in cycle
    ]
    segments = [
        window_segments(start, gw, config.in_channels) for start, _ in cycle
    ]
    return SCCPlan(
        config=config,
        windows=windows,
        cycle=cycle,
        cyclic_dist=len(cycle),
        cycle_index=cycle_index,
        segments=segments,
        flat_index=(
            np.arange(config.out_channels)[:, None] * config.in_channels + windows
        ).ravel(),
    )


def scc_plan(config: "SCCConfig") -> SCCPlan:
    wl = Workload.make(
        "scc_plan",
        cin=config.in_channels,
        cout=config.out_channels,
        cg=config.cg,
        co=config.co,
    )
    return PLAN_CACHE.get_or_build(wl, lambda: _build_scc_plan(config))
