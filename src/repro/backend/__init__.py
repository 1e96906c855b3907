"""Unified kernel backend: op registry + execution-plan cache.

This package is the single execution layer behind ``repro.tensor.conv_ops``,
``repro.core.scc``, ``repro.nn`` layers and the ``repro.gpusim``
cross-checks.  It separates **what** is computed from **how**:

Kernel registry (``repro.backend.registry``)
    Named ops — ``conv2d``, ``scc_forward``, ``maxpool2d``,
    ``avgpool2d``, each with a ``*_backward`` pair — dispatched to
    pluggable backends.  ``conv2d`` and ``scc_forward`` take an optional
    ``epilogue=`` (:class:`~repro.backend.plan.EpilogueArgs`): fused
    inference layers run their bias/BN/activation stages inside the same
    op, on the same cached plan as the unfused layer.  The backends:

    ============  =======================================================
    reference     naive loop kernels; ground truth for every fast path
    numpy         GEMM / einsum / ``as_strided`` fast paths fed by cached plans
    default       auto-selects the preferred available backend (numpy,
                  or ``REPRO_BACKEND`` when set — with per-op fallback)
    ============  =======================================================

    Layers thread a ``backend=`` argument down to the dispatch
    (``nn.Conv2d(..., backend="reference")``,
    ``SlidingChannelConv2d(..., backend=...)``,
    ``build_model(..., backend=...)``), so any subtree of a model can be
    pinned to a specific implementation.  Adding a backend is one module of
    :func:`~repro.backend.registry.register_kernel` decorators — call sites
    never change.

Execution-plan cache (``repro.backend.workload`` / ``repro.backend.plan``)
    A :class:`~repro.backend.workload.Workload` descriptor (op, operand
    shapes, dtype, static hyper-parameters such as stride/padding/groups or
    cg/co) keys a process-wide LRU of precomputed plans:

    - SCC window matrices, channel cycles and zero-copy segment tables
      (paper Algorithms 1+2) — built once per configuration, shared by all
      layers and kernel calls;
    - ``np.einsum_path`` contraction plans — the per-call path search of
      ``optimize=True`` is paid once per shape-class;
    - convolution patch-view geometry and scratch workspaces (the dense
      ``W_full`` matrix of the input-centric SCC backward).

    Repeated-shape execution (every training step after the first) runs
    entirely on cache hits; ``benchmarks/bench_ablation_plan_cache.py``
    quantifies the win.  Use :func:`plan_cache_stats` to observe hit rates
    and :func:`clear_plan_cache` to model cold execution.  The cache is
    thread-safe and single-flight: concurrent misses on one workload run
    the builder exactly once.  Traffic is attributable: wrap a client in
    :func:`plan_owner` (the multi-model serving router tags each model
    this way) and :func:`plan_cache_owner_stats` reports per-owner
    hit/miss/build/eviction counts that sum to the global ones.  A full
    cache evicts its least recently used plan, charged to the owner that
    built it.

Model plans (``repro.backend.model_plan``)
    :class:`ModelPlan` lifts planning to whole models: one warm-up pass at
    the plan's batch size (forward only for inference plans, forward plus
    backward for training plans) builds every layer plan at construction,
    and the batch-staging buffer is pre-allocated — the first training step
    or serving request runs 100% warm.
    ``build_model(..., plan_input_shape=...)`` attaches one; the trainer
    and the :mod:`repro.serve` front-end consume them.

Typical use::

    from repro.backend import get_kernel, conv2d_plan

    plan = conv2d_plan(x.shape, w.shape, stride=1, padding=1, groups=1,
                       dtype=x.dtype)
    out, ctx = get_kernel("conv2d")(plan, x, w)            # default backend
    ref, _ = get_kernel("conv2d", "reference")(plan, x, w) # ground truth
"""
from repro.backend.registry import (
    REGISTRY,
    KernelRegistry,
    available_backends,
    backend_override,
    current_backend_override,
    env_stamp,
    get_kernel,
    register_kernel,
)
from repro.backend.stats import KernelStats, scc_conflict_fraction
from repro.backend.workload import (
    PLAN_CACHE,
    PlanCache,
    Workload,
    clear_plan_cache,
    current_plan_owner,
    plan_cache_owner_stats,
    plan_cache_stats,
    plan_owner,
)
from repro.backend.model_plan import ModelPlan
from repro.backend.plan import (
    Conv2dPlan,
    EpilogueArgs,
    Pool2dPlan,
    SCCPlan,
    contraction_path,
    conv2d_plan,
    conv_out_size,
    planned_einsum,
    pool2d_plan,
    scc_plan,
)
from repro.backend.registry import env_backend_order

# Importing the backend modules registers their kernels.
from repro.backend import numpy_backend as _numpy_backend  # noqa: F401
from repro.backend import reference as _reference          # noqa: F401

# REPRO_BACKEND overrides the "default" preference order (with per-op
# fallback for ops the named backend lacks; an unregistered name raises —
# see env_backend_order).  Applied after registration so resolution is
# complete.
REGISTRY.default_order = env_backend_order()

__all__ = [
    "REGISTRY",
    "KernelRegistry",
    "available_backends",
    "backend_override",
    "current_backend_override",
    "env_backend_order",
    "env_stamp",
    "get_kernel",
    "register_kernel",
    "KernelStats",
    "scc_conflict_fraction",
    "PLAN_CACHE",
    "PlanCache",
    "Workload",
    "clear_plan_cache",
    "current_plan_owner",
    "plan_cache_owner_stats",
    "plan_cache_stats",
    "plan_owner",
    "ModelPlan",
    "Conv2dPlan",
    "EpilogueArgs",
    "Pool2dPlan",
    "SCCPlan",
    "contraction_path",
    "conv2d_plan",
    "conv_out_size",
    "planned_einsum",
    "pool2d_plan",
    "scc_plan",
]
