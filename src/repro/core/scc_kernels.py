"""The three SCC execution strategies (paper Section IV) as ndarray kernels.

SCC is spatially 1x1 (it replaces the PW stage of a DW+PW block), so an SCC
layer is fully described by the input ``x (N, Cin, H, W)``, the weight
``w (Cout, group_width)`` and the window matrix from
:mod:`repro.core.channel_map`.

Strategy classes (each bundles forward + full backward, mirroring one of the
paper's implementations, and exposes instrumentation counters that
:mod:`repro.gpusim` cross-checks):

================  =====================================================
ChannelStack      *Pytorch-Base*: gather every filter's window into one
                  huge (N, Cout, gw, H, W) stacked tensor (massive data
                  duplication), then one grouped reduction.  Backward
                  keeps the stacked tensor and scatter-adds the input
                  gradient (the "conflict update" of paper Fig. 4a).
ConvStackCC       *Pytorch-Opt*: channel-cyclic optimisation — only the
                  ``cyclic_dist`` distinct windows of the first cycle are
                  gathered (copied); each drives one small GEMM.
Dsxplore          the fused kernel: output-centric forward reading input
                  channels through zero-copy views (no gather, no
                  duplication), input-centric backward computing each
                  input-gradient pixel as a "pull" reduction with zero
                  scatter/atomic traffic.  ``backward_design`` can be set
                  to ``"output_centric"`` to get the paper's
                  *DSXplore-Var* ablation (scatter/atomics emulated with
                  ``np.add.at``, which serialises conflicting updates
                  exactly like GPU atomics do).
================  =====================================================

Execution routes through :mod:`repro.backend`: every strategy shares the
per-configuration :class:`~repro.backend.plan.SCCPlan` (window matrix,
channel cycle, segment table — paper Algorithms 1+2, computed once per
process) and dispatches the actual kernel through the registry.  The
``numpy`` backend implements all three strategies; the ``reference``
backend runs the defining loop equation for any of them.

CPU/GPU mapping note (the premise :mod:`repro.gpusim` models): relative
costs transfer because
the dominant effects — materialised bytes, number of distinct kernel
invocations, and serialised conflicting updates — exist on both targets.
``np.add.at`` is NumPy's unbuffered scatter-add: conflicting updates are
applied sequentially, which is the same serialisation GPU atomics pay.
"""
from __future__ import annotations

import inspect

import numpy as np

from repro.backend import KernelStats, dispatch_plan, get_kernel, scc_plan
from repro.backend.reference import scc_forward_loops
from repro.core.channel_map import SCCConfig

__all__ = [
    "KernelStats",
    "ChannelStack",
    "ConvStackCC",
    "Dsxplore",
    "STRATEGIES",
    "make_strategy",
    "scc_forward_reference",
]


def scc_forward_reference(x: np.ndarray, w: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Dead-simple loop implementation of paper Eq. for SCC; tests only."""
    return scc_forward_loops(x, w, windows)


class _StrategyBase:
    """Shared plumbing: cached plan, registry dispatch, saved-state handling."""

    name: str = ""

    def __init__(self, config: SCCConfig, backend: str = "default") -> None:
        self.config = config
        self.backend = backend
        self.plan = scc_plan(config)
        self.stats = KernelStats()
        self._forward_kernel = get_kernel("scc_forward", backend)
        self._backward_kernel = get_kernel("scc_backward", backend)
        self._backward_kwargs: dict = {}
        # Per-call state the kernel saves between forward and backward; the
        # autograd wrapper (repro.core.scc) checkpoints this dict so one
        # strategy instance stays re-entrant across many forward calls.
        self._saved: dict | None = None

    @property
    def windows(self) -> np.ndarray:
        return self.plan.windows

    @property
    def cycle(self) -> list:
        return self.plan.cycle

    @property
    def cyclic_dist(self) -> int:
        return self.plan.cyclic_dist

    def _check_shapes(self, x: np.ndarray, w: np.ndarray) -> None:
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.in_channels:
            raise ValueError(
                f"expected input (N, {cfg.in_channels}, H, W), got {x.shape}"
            )
        if w.shape != (cfg.out_channels, cfg.group_width):
            raise ValueError(
                f"expected weight ({cfg.out_channels}, {cfg.group_width}), got {w.shape}"
            )

    def forward(self, x: np.ndarray, w: np.ndarray, epilogue=None) -> np.ndarray:
        self._check_shapes(x, w)
        self.stats.reset()
        # The kwarg is passed only when set, so backends (or test doubles)
        # with the pre-fusion signature keep working unfused.
        kwargs = {} if epilogue is None else {"epilogue": epilogue}
        # Strategies bind their kernel at construction, so only the plan's
        # tuned worker count applies here (apply_backend=False): a recorded
        # backend cannot re-steer an already-resolved kernel.
        with dispatch_plan(self.plan, apply_backend=False):
            out, self._saved = self._forward_kernel(
                self.plan, x, w, strategy=self.name, stats=self.stats, **kwargs
            )
        return out

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True, need_weight_grad: bool = True
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        if self._saved is None:
            raise RuntimeError(f"{type(self).__name__}.backward called before forward")
        with dispatch_plan(self.plan, apply_backend=False):
            return self._backward_kernel(
                self.plan,
                self._saved,
                grad_out,
                strategy=self.name,
                stats=self.stats,
                need_input_grad=need_input_grad,
                need_weight_grad=need_weight_grad,
                **self._backward_kwargs,
            )


class ChannelStack(_StrategyBase):
    """*Pytorch-Base*: channel-stack implementation (paper Fig. 3a).

    Steps 1-4 of the paper: index -> extract -> concatenate -> grouped conv.
    The concatenated tensor has ``Cout * group_width`` channels — ``cg``-fold
    larger than the input even before overlap, which is why this strategy
    OOMs at ImageNet scale (paper Section V-C).
    """

    name = "channel_stack"


class ConvStackCC(_StrategyBase):
    """*Pytorch-Opt*: convolution-stack with channel-cyclic optimisation.

    Only the first cycle of distinct windows is extracted (paper Fig. 6b);
    filters ``p, p+cd, p+2cd, ...`` share window ``p`` and run as one GPW-like
    GEMM.  Output channels are written strided (the "concatenation" step is
    an interleave, done without an extra buffer here).
    """

    name = "conv_stack"


class Dsxplore(_StrategyBase):
    """The fused DSXplore kernel (paper Section IV-B).

    Forward — *output-centric*: every output pixel ``out[n, o, y, x]`` is an
    independent dot product ``w[o, :] . x[n, win(o), y, x]`` (one GPU thread
    each in the paper).  Vectorised as one contraction per cycle position
    *per contiguous window segment*, reading ``x`` through zero-copy
    channel-slice views — no gather, no duplication.

    Backward — *input-centric* by default: the dense per-output-channel
    weight matrix ``W_full (Cout, Cin)`` (zeros outside each filter's
    window) turns the input gradient into one pull-style GEMM
    ``grad_x = grad_out . W_full`` with zero scatter traffic; each
    input-gradient pixel is produced by exactly one reduction, the CPU
    analog of "one thread per input pixel, no atomics" (paper Fig. 4b).
    ``backward_design="output_centric"`` switches to the *DSXplore-Var*
    push design: materialise per-filter contributions and scatter-add them
    into the input gradient, conflicts serialised by ``np.add.at`` the way
    GPU atomics serialise colliding updates.
    """

    name = "dsxplore"

    def __init__(
        self,
        config: SCCConfig,
        backward_design: str = "input_centric",
        backend: str = "default",
    ) -> None:
        if backward_design not in ("input_centric", "output_centric"):
            raise ValueError(
                f"backward_design must be 'input_centric' or 'output_centric', "
                f"got {backward_design!r}"
            )
        super().__init__(config, backend=backend)
        self.backward_design = backward_design
        self._backward_kwargs = {"backward_design": backward_design}


STRATEGIES = {
    "channel_stack": ChannelStack,
    "conv_stack": ConvStackCC,
    "dsxplore": Dsxplore,
}


def make_strategy(name: str, config: SCCConfig, **kwargs) -> _StrategyBase:
    """Instantiate a strategy by paper name (see module docstring table)."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown SCC strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None
    params = inspect.signature(cls).parameters
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        accepted = sorted(k for k in params if k != "config")
        raise ValueError(
            f"strategy {name!r} got unexpected keyword argument(s) "
            f"{', '.join(map(repr, unknown))}; {name!r} accepts: {accepted}"
        )
    return cls(config, **kwargs)
