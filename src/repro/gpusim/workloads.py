"""Workload builders: real model shapes -> per-strategy kernel sequences.

:func:`extract_layer_shapes` runs one hooked forward pass (at a chosen
batch size, 1 by default) over an actual :mod:`repro` model to harvest
every layer's geometry (this follows residual topologies exactly).
:func:`scc_layer_kernels` then expands an SCC layer into the kernel
sequence each of the paper's three implementations would launch, and
:func:`model_step_kernels` assembles a full training-step (forward +
backward + update) kernel list for a network.

The kernel counts per strategy mirror paper Section IV:

- *Pytorch-Base* (channel-stack): ``Cout`` slice launches + concat + one
  grouped conv on the duplicated tensor; backward re-launches the slices in
  reverse plus an atomic scatter.
- *Pytorch-Opt* (conv-stack + CC): ``cyclic_dist`` gather+GEMM pairs;
  backward three launches per cycle position.  (CC optimisation is what
  caps the count at ``cyclic_dist`` instead of ``Cout``.)
- *DSXplore*: one fused forward kernel; backward is one fused grad-weight
  kernel plus either one pull kernel (input-centric, no atomics) or one
  push kernel with conflict-serialised atomics (output-centric DSXplore-Var).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.backend import scc_conflict_fraction
from repro.core.channel_map import cyclic_distance
from repro.core.scc import SlidingChannelConv2d
from repro.gpusim.kernel import KernelLaunch
from repro.tensor import Tensor, no_grad

DTYPE_BYTES = 4  # float32

# Calibrated efficiency knobs: cuBLAS/cuDNN GEMMs run close to peak; the
# hand-written fused SCC kernel is good but not a tensor-core GEMM; pure
# data-movement kernels are bandwidth-bound (efficiency irrelevant).
EFF_GEMM = 0.75
EFF_FUSED = 0.50
EFF_ELEMENTWISE = 0.9


@dataclass
class SCCGeometry:
    cg: int
    co: float
    group_width: int
    cyclic_dist: int


@dataclass
class LayerShape:
    """Geometry of one layer occurrence inside a network."""

    name: str
    kind: str              # conv | dw | pw | gpw | gc | scc | linear | bn | elementwise
    cin: int = 0
    cout: int = 0
    kernel: int = 1
    groups: int = 1
    stride: int = 1
    padding: int = 0
    hin: int = 1
    win: int = 1
    hout: int = 1
    wout: int = 1
    features_in: int = 0   # linear layers
    features_out: int = 0
    scc: SCCGeometry | None = None

    def out_elements(self, batch: int) -> int:
        return batch * self.cout * self.hout * self.wout

    def in_elements(self, batch: int) -> int:
        return batch * self.cin * self.hin * self.win


def _classify(module: nn.Module, in_shape: tuple, out_shape: tuple, name: str) -> LayerShape | None:
    if isinstance(module, SlidingChannelConv2d):
        cfg = module.config
        return LayerShape(
            name=name,
            kind="scc",
            cin=cfg.in_channels,
            cout=cfg.out_channels,
            hin=in_shape[2],
            win=in_shape[3],
            hout=out_shape[2],
            wout=out_shape[3],
            scc=SCCGeometry(
                cg=cfg.cg,
                co=cfg.co,
                group_width=cfg.group_width,
                cyclic_dist=cyclic_distance(
                    cfg.in_channels, cfg.cg, cfg.co, cfg.out_channels
                ),
            ),
        )
    if isinstance(module, nn.Conv2d):
        kind = "conv"
        if module.groups == module.in_channels == module.out_channels:
            kind = "dw"
        elif module.kernel_size == 1:
            kind = "pw" if module.groups == 1 else "gpw"
        elif module.groups > 1:
            kind = "gc"
        return LayerShape(
            name=name,
            kind=kind,
            cin=module.in_channels,
            cout=module.out_channels,
            kernel=module.kernel_size,
            groups=module.groups,
            stride=module.stride,
            padding=module.padding,
            hin=in_shape[2],
            win=in_shape[3],
            hout=out_shape[2],
            wout=out_shape[3],
        )
    if isinstance(module, nn.Linear):
        return LayerShape(
            name=name,
            kind="linear",
            features_in=module.in_features,
            features_out=module.out_features,
            cin=module.in_features,
            cout=module.out_features,
        )
    if isinstance(module, nn.BatchNorm2d):
        return LayerShape(
            name=name, kind="bn",
            cin=in_shape[1], cout=in_shape[1],
            hin=in_shape[2], win=in_shape[3],
            hout=in_shape[2], wout=in_shape[3],
        )
    if isinstance(module, (nn.ReLU, nn.ReLU6, nn.MaxPool2d, nn.AvgPool2d, nn.GlobalAvgPool2d)):
        hout = out_shape[2] if len(out_shape) == 4 else 1
        wout = out_shape[3] if len(out_shape) == 4 else 1
        return LayerShape(
            name=name, kind="elementwise",
            cin=in_shape[1], cout=out_shape[1],
            hin=in_shape[2], win=in_shape[3],
            hout=hout, wout=wout,
        )
    return None


def extract_layer_shapes(
    model: nn.Module,
    input_shape: tuple[int, int, int],
    batch_size: int = 1,
) -> list[LayerShape]:
    """Harvest layer geometries via one hooked forward pass.

    ``batch_size`` sets the dummy batch the probe forward runs at, so the
    harvested geometries (and any :class:`~repro.backend.Workload` built from
    them) match the training/serving batch shapes rather than a hardcoded
    batch-1 pass.  Per-layer channel/spatial geometry is batch-invariant;
    the batch matters to whoever turns these shapes into kernel launches.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    shapes: list[LayerShape] = []
    handles = []
    for name, module in model.named_modules():
        if module._modules:
            # Only leaves; SCC and Conv2d are leaves by construction.
            if not isinstance(module, (nn.Conv2d, SlidingChannelConv2d, nn.Linear)):
                continue

        def hook(mod, inputs, output, name=name):
            shape = _classify(mod, inputs[0].shape, output.shape, name)
            if shape is not None:
                shapes.append(shape)

        handles.append(module.register_forward_hook(hook))
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(Tensor(np.zeros((batch_size, *input_shape), dtype=np.float32)))
    finally:
        for h in handles:
            h.remove()
        model.train(was_training)
    return shapes


# ---------------------------------------------------------------------------
# SCC strategy kernels
# ---------------------------------------------------------------------------

def _scc_conflict_fraction(shape: LayerShape) -> float:
    """Fraction of scatter updates hitting an already-written input cell.

    Shared with the measuring kernels (:mod:`repro.backend.stats`) so the
    analytic model and the instrumentation counters agree by construction.
    """
    return scc_conflict_fraction(shape.cin, shape.cout, shape.scc.group_width)


def scc_layer_kernels(
    shape: LayerShape,
    batch: int,
    strategy: str,
    backward_design: str = "input_centric",
    include_backward: bool = True,
) -> list[KernelLaunch]:
    """Kernel sequence one SCC layer launches under a given strategy."""
    if shape.kind != "scc" or shape.scc is None:
        raise ValueError(f"scc_layer_kernels needs an SCC layer, got kind={shape.kind!r}")
    geo = shape.scc
    gw, cd = geo.group_width, geo.cyclic_dist
    n, cout, cin = batch, shape.cout, shape.cin
    hw = shape.hout * shape.wout
    out_elems = n * cout * hw
    in_elems = n * cin * hw
    win_elems = n * gw * hw                # one gathered window
    stacked_elems = n * cout * gw * hw     # full channel-stack tensor
    macs = n * cout * gw * hw              # true multiply-accumulates
    kernels: list[KernelLaunch] = []

    if strategy == "channel_stack":
        # Cout slice/extract launches + one concat + one grouped conv.
        for _ in range(cout):
            kernels.append(
                KernelLaunch(
                    "chs.slice", threads=win_elems,
                    bytes_read=win_elems * DTYPE_BYTES,
                    bytes_written=win_elems * DTYPE_BYTES,
                    compute_efficiency=EFF_ELEMENTWISE,
                    bandwidth_efficiency=0.5, framework_op=True,
                )
            )
        kernels.append(
            KernelLaunch(
                "chs.concat", threads=stacked_elems,
                bytes_read=stacked_elems * DTYPE_BYTES,
                bytes_written=stacked_elems * DTYPE_BYTES,
                compute_efficiency=EFF_ELEMENTWISE,
                framework_op=True,
            )
        )
        kernels.append(
            KernelLaunch(
                "chs.groupconv", threads=out_elems,
                flops=2 * macs,
                bytes_read=stacked_elems * DTYPE_BYTES + cout * gw * DTYPE_BYTES,
                bytes_written=out_elems * DTYPE_BYTES,
                compute_efficiency=EFF_GEMM,
                framework_op=True,
            )
        )
        if include_backward:
            kernels.append(
                KernelLaunch(
                    "chs.grad_w", threads=cout * gw,
                    flops=2 * macs,
                    bytes_read=(out_elems + stacked_elems) * DTYPE_BYTES,
                    bytes_written=cout * gw * DTYPE_BYTES,
                    compute_efficiency=EFF_GEMM,
                    framework_op=True,
                )
            )
            kernels.append(
                KernelLaunch(
                    "chs.grad_stacked", threads=stacked_elems,
                    flops=2 * macs,
                    bytes_read=out_elems * DTYPE_BYTES,
                    bytes_written=stacked_elems * DTYPE_BYTES,
                    compute_efficiency=EFF_GEMM,
                    framework_op=True,
                )
            )
            kernels.append(
                KernelLaunch(
                    "chs.scatter_grad_x", threads=stacked_elems,
                    bytes_read=stacked_elems * DTYPE_BYTES,
                    bytes_written=in_elems * DTYPE_BYTES,
                    atomic_ops=stacked_elems,
                    atomic_conflict_fraction=_scc_conflict_fraction(shape),
                    compute_efficiency=EFF_ELEMENTWISE,
                    bandwidth_efficiency=0.5, framework_op=True,
                )
            )
        return kernels

    if strategy == "conv_stack":
        filters_per_cycle = max(1, cout // cd)
        cycle_macs = n * filters_per_cycle * gw * hw
        for _ in range(cd):
            kernels.append(
                KernelLaunch(
                    "cos.gather", threads=win_elems,
                    bytes_read=win_elems * DTYPE_BYTES,
                    bytes_written=win_elems * DTYPE_BYTES,
                    compute_efficiency=EFF_ELEMENTWISE,
                    bandwidth_efficiency=0.5, framework_op=True,
                )
            )
            kernels.append(
                KernelLaunch(
                    "cos.gemm", threads=n * filters_per_cycle * hw,
                    flops=2 * cycle_macs,
                    bytes_read=(win_elems + filters_per_cycle * gw) * DTYPE_BYTES,
                    bytes_written=n * filters_per_cycle * hw * DTYPE_BYTES,
                    compute_efficiency=EFF_GEMM,
                    framework_op=True,
                )
            )
        if include_backward:
            for _ in range(cd):
                kernels.append(
                    KernelLaunch(
                        "cos.grad_w", threads=filters_per_cycle * gw,
                        flops=2 * cycle_macs,
                        bytes_read=(n * filters_per_cycle * hw + win_elems) * DTYPE_BYTES,
                        bytes_written=filters_per_cycle * gw * DTYPE_BYTES,
                        compute_efficiency=EFF_GEMM,
                        framework_op=True,
                    )
                )
                kernels.append(
                    KernelLaunch(
                        "cos.grad_win", threads=win_elems,
                        flops=2 * cycle_macs,
                        bytes_read=n * filters_per_cycle * hw * DTYPE_BYTES,
                        bytes_written=win_elems * DTYPE_BYTES,
                        compute_efficiency=EFF_GEMM,
                        framework_op=True,
                    )
                )
                kernels.append(
                    KernelLaunch(
                        "cos.accum_grad_x", threads=win_elems,
                        bytes_read=2 * win_elems * DTYPE_BYTES,  # read-modify-write
                        bytes_written=win_elems * DTYPE_BYTES,
                        compute_efficiency=EFF_ELEMENTWISE,
                        bandwidth_efficiency=0.5, framework_op=True,
                    )
                )
        return kernels

    if strategy == "dsxplore":
        kernels.append(
            KernelLaunch(
                "dsx.forward", threads=out_elems,
                flops=2 * macs,
                # Zero-copy views: each input element is fetched from DRAM
                # once and reused from cache by the overlapping filters.
                bytes_read=in_elems * DTYPE_BYTES + cout * gw * DTYPE_BYTES,
                bytes_written=out_elems * DTYPE_BYTES,
                compute_efficiency=EFF_FUSED,
            )
        )
        if include_backward:
            kernels.append(
                KernelLaunch(
                    "dsx.grad_w", threads=cout * gw,
                    flops=2 * macs,
                    bytes_read=(out_elems + in_elems) * DTYPE_BYTES,
                    bytes_written=cout * gw * DTYPE_BYTES,
                    compute_efficiency=EFF_FUSED,
                )
            )
            if backward_design == "input_centric":
                kernels.append(
                    KernelLaunch(
                        "dsx.grad_x_pull", threads=in_elems,
                        flops=2 * macs,
                        bytes_read=out_elems * DTYPE_BYTES + cout * gw * DTYPE_BYTES,
                        bytes_written=in_elems * DTYPE_BYTES,
                        compute_efficiency=EFF_FUSED,
                    )
                )
            elif backward_design == "output_centric":
                stacked = n * cout * gw * hw
                kernels.append(
                    KernelLaunch(
                        "dsx.grad_x_push", threads=out_elems,
                        flops=2 * macs,
                        bytes_read=out_elems * DTYPE_BYTES + cout * gw * DTYPE_BYTES,
                        bytes_written=in_elems * DTYPE_BYTES,
                        atomic_ops=stacked,
                        atomic_conflict_fraction=_scc_conflict_fraction(shape),
                        compute_efficiency=EFF_FUSED,
                    )
                )
            else:
                raise ValueError(f"unknown backward design {backward_design!r}")
        return kernels

    raise ValueError(
        f"unknown SCC strategy {strategy!r}; expected channel_stack/conv_stack/dsxplore"
    )


# ---------------------------------------------------------------------------
# Standard layer kernels (identical across strategies)
# ---------------------------------------------------------------------------

def conv_layer_kernels(
    shape: LayerShape, batch: int, include_backward: bool = True
) -> list[KernelLaunch]:
    """Kernels for non-SCC layers (cuDNN-style single launches)."""
    n = batch
    kernels: list[KernelLaunch] = []
    if shape.kind in ("conv", "dw", "pw", "gpw", "gc"):
        macs = (
            n * shape.cout * (shape.cin // shape.groups)
            * shape.kernel * shape.kernel * shape.hout * shape.wout
        )
        out_elems = shape.out_elements(n)
        in_elems = shape.in_elements(n)
        wparams = shape.cout * (shape.cin // shape.groups) * shape.kernel**2
        eff = EFF_GEMM if shape.kind != "dw" else EFF_FUSED  # DW is bandwidth-ish
        kernels.append(
            KernelLaunch(
                f"{shape.kind}.fwd", threads=out_elems, flops=2 * macs,
                bytes_read=(in_elems + wparams) * DTYPE_BYTES,
                bytes_written=out_elems * DTYPE_BYTES,
                compute_efficiency=eff,
            )
        )
        if include_backward:
            kernels.append(
                KernelLaunch(
                    f"{shape.kind}.grad_w", threads=max(wparams, 1), flops=2 * macs,
                    bytes_read=(in_elems + out_elems) * DTYPE_BYTES,
                    bytes_written=wparams * DTYPE_BYTES,
                    compute_efficiency=eff,
                )
            )
            kernels.append(
                KernelLaunch(
                    f"{shape.kind}.grad_x", threads=in_elems, flops=2 * macs,
                    bytes_read=(out_elems + wparams) * DTYPE_BYTES,
                    bytes_written=in_elems * DTYPE_BYTES,
                    compute_efficiency=eff,
                )
            )
        return kernels
    if shape.kind == "linear":
        macs = n * shape.features_in * shape.features_out
        wparams = shape.features_in * shape.features_out
        kernels.append(
            KernelLaunch(
                "linear.fwd", threads=n * shape.features_out, flops=2 * macs,
                bytes_read=(n * shape.features_in + wparams) * DTYPE_BYTES,
                bytes_written=n * shape.features_out * DTYPE_BYTES,
                compute_efficiency=EFF_GEMM,
            )
        )
        if include_backward:
            kernels.append(
                KernelLaunch(
                    "linear.bwd", threads=max(wparams, n * shape.features_in),
                    flops=4 * macs,
                    bytes_read=(n * (shape.features_in + shape.features_out) + wparams)
                    * DTYPE_BYTES,
                    bytes_written=(wparams + n * shape.features_in) * DTYPE_BYTES,
                    compute_efficiency=EFF_GEMM,
                )
            )
        return kernels
    if shape.kind == "bn":
        elems = shape.in_elements(n)
        kernels.append(
            KernelLaunch(
                "bn.fwd", threads=elems,
                bytes_read=2 * elems * DTYPE_BYTES,  # stats pass + normalise pass
                bytes_written=elems * DTYPE_BYTES,
                compute_efficiency=EFF_ELEMENTWISE,
            )
        )
        if include_backward:
            kernels.append(
                KernelLaunch(
                    "bn.bwd", threads=elems,
                    bytes_read=3 * elems * DTYPE_BYTES,
                    bytes_written=elems * DTYPE_BYTES,
                    compute_efficiency=EFF_ELEMENTWISE,
                )
            )
        return kernels
    if shape.kind == "elementwise":
        in_elems = shape.in_elements(n)
        out_elems = n * shape.cout * shape.hout * shape.wout
        kernels.append(
            KernelLaunch(
                "elementwise.fwd", threads=max(in_elems, 1),
                bytes_read=in_elems * DTYPE_BYTES,
                bytes_written=out_elems * DTYPE_BYTES,
                compute_efficiency=EFF_ELEMENTWISE,
            )
        )
        if include_backward:
            kernels.append(
                KernelLaunch(
                    "elementwise.bwd", threads=max(in_elems, 1),
                    bytes_read=out_elems * DTYPE_BYTES,
                    bytes_written=in_elems * DTYPE_BYTES,
                    compute_efficiency=EFF_ELEMENTWISE,
                )
            )
        return kernels
    raise ValueError(f"no kernel rule for layer kind {shape.kind!r}")


def model_step_kernels(
    shapes: list[LayerShape],
    batch: int,
    scc_strategy: str = "dsxplore",
    scc_backward: str = "input_centric",
    include_backward: bool = True,
) -> list[KernelLaunch]:
    """Full training-step (or inference, with ``include_backward=False``)
    kernel sequence for a network's layer list."""
    kernels: list[KernelLaunch] = []
    for shape in shapes:
        if shape.kind == "scc":
            kernels.extend(
                scc_layer_kernels(
                    shape, batch, scc_strategy, scc_backward, include_backward
                )
            )
        else:
            kernels.extend(conv_layer_kernels(shape, batch, include_backward))
    if include_backward:
        # Optimizer update: one fused elementwise kernel over all parameters.
        total_params = sum(
            s.cout * (s.cin // max(s.groups, 1)) * s.kernel**2
            for s in shapes
            if s.kind in ("conv", "dw", "pw", "gpw", "gc")
        )
        total_params += sum(
            s.features_in * s.features_out for s in shapes if s.kind == "linear"
        )
        total_params += sum(
            s.cout * (s.scc.group_width if s.scc else 1) for s in shapes if s.kind == "scc"
        )
        kernels.append(
            KernelLaunch(
                "sgd.update", threads=max(total_params, 1),
                bytes_read=3 * total_params * DTYPE_BYTES,
                bytes_written=2 * total_params * DTYPE_BYTES,
                compute_efficiency=EFF_ELEMENTWISE,
            )
        )
    return kernels
