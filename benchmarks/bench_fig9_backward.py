"""Figure 9 — backward-pass time: Base / Opt / DSXplore-Var / DSXplore.

The input-centric backward ablation.  Three outputs:

- modelled BP-only runtimes for all five CNNs (simulated V100),
- measured BP-only runtimes of the real NumPy kernels on a representative
  SCC layer stack (the scatter/`np.add.at` cost of the output-centric design
  is real on CPU too),
- the atomic-operation reduction counter (paper: input-centric removes >90%
  of atomics, measured with NVProf; we count scatter updates directly).
"""
import numpy as np

from common import emit, full_mode
from repro.backend import KernelStats, get_kernel, scc_plan
from repro.core.channel_map import SCCConfig
from repro.gpusim import extract_layer_shapes, tesla_v100
from repro.gpusim.timeline import backward_only_time
from repro.models import build_model
from repro.models.registry import PAPER_MODELS
from repro.utils import format_table, time_callable

BATCH = 128


def modelled_bp_times(device):
    rows = []
    for name in PAPER_MODELS:
        model = build_model(name, scheme="scc", cg=2, co=0.5)
        shapes = extract_layer_shapes(model, (3, 32, 32))
        base = backward_only_time(shapes, BATCH, device, "channel_stack")
        opt = backward_only_time(shapes, BATCH, device, "conv_stack")
        var = backward_only_time(shapes, BATCH, device, "dsxplore", "output_centric")
        dsx = backward_only_time(shapes, BATCH, device, "dsxplore", "input_centric")
        rows.append((name, base, opt, var, dsx))
    return rows


# Paper label -> (strategy, backward design) of the SCC kernels.
IMPLEMENTATIONS = {
    "Pytorch-Base": ("channel_stack", "input_centric"),
    "Pytorch-Opt": ("conv_stack", "input_centric"),
    "DSXplore-Var": ("dsxplore", "output_centric"),
    "DSXplore": ("dsxplore", "input_centric"),
}


def layer_backward(cfg, x, w, strategy, design):
    """One forward through the registry kernels; returns
    ``backward(g, stats=None)``, a backward over that forward's context."""
    plan = scc_plan(cfg)
    _, ctx = get_kernel("scc_forward")(plan, x, w, strategy=strategy)
    bwd = get_kernel("scc_backward")

    def backward(g, stats=None):
        bwd(plan, ctx, g, strategy=strategy, backward_design=design, stats=stats)

    return backward


def measured_layer_bp(cin=64, cout=128, hw=16, n=8):
    """Real-kernel backward times on one SCC layer, and the scatter updates
    of one backward."""
    cfg = SCCConfig(cin, cout, 2, 0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
    w = rng.standard_normal((cout, cfg.group_width)).astype(np.float32)
    g = rng.standard_normal((n, cout, hw, hw)).astype(np.float32)
    times, atomics = {}, {}
    repeats = 20 if full_mode() else 7
    for label, (strategy, design) in IMPLEMENTATIONS.items():
        backward = layer_backward(cfg, x, w, strategy, design)
        times[label] = time_callable(lambda: backward(g),
                                     repeats=repeats, warmup=2).median
        stats = KernelStats()
        backward(g, stats)
        atomics[label] = stats.scatter_adds
    return times, atomics


def report_fig9(device=None):
    device = device or tesla_v100()
    rows = modelled_bp_times(device)
    text = format_table(
        ["Model", "Pytorch-Base (s)", "Pytorch-Opt (s)", "DSXplore-Var (s)", "DSXplore (s)"],
        [[n, f"{b:.4f}", f"{o:.4f}", f"{v:.4f}", f"{d:.4f}"] for n, b, o, v, d in rows],
        title=f"Fig 9 — backward-pass runtime (simulated V100, batch {BATCH})",
    )
    speedups = [(b / d, o / d, v / d) for _, b, o, v, d in rows]
    avg = np.mean(speedups, axis=0)
    text += (f"\nAverage DSXplore speedup: {avg[0]:.2f}x vs Base, {avg[1]:.2f}x vs Opt, "
             f"{avg[2]:.2f}x vs Var (paper: 15.03x / 4.55x / 1.55x).")

    times, atomics = measured_layer_bp()
    text += "\n\nMeasured real-kernel backward on one SCC layer (64->128, 16x16, batch 8):\n"
    text += format_table(
        ["Implementation", "backward (ms)", "scatter updates"],
        [[k, f"{v * 1e3:.2f}", f"{atomics[k]:,}"] for k, v in times.items()],
    )
    removed = 1 - atomics["DSXplore"] / max(atomics["DSXplore-Var"], 1)
    text += (f"\nAtomic/scatter updates removed by input-centric design: "
             f"{removed:.1%} (paper: >90% via NVProf).")
    return emit("fig9_backward", text), rows, times, atomics


def test_fig9_ordering(device):
    _, rows, times, atomics = report_fig9(device)
    for name, base, opt, var, dsx in rows:
        assert dsx < var, name         # input-centric beats output-centric
        assert dsx < opt < base, name  # and the composed-op strategies
    assert times["DSXplore"] < times["DSXplore-Var"]   # real kernels agree
    assert atomics["DSXplore"] == 0
    assert atomics["DSXplore-Var"] > 0


def test_fig9_input_centric_backward(benchmark):
    cfg = SCCConfig(64, 128, 2, 0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((128, 32)).astype(np.float32)
    g = rng.standard_normal((8, 128, 16, 16)).astype(np.float32)
    benchmark(layer_backward(cfg, x, w, "dsxplore", "input_centric"), g)


def test_fig9_output_centric_backward(benchmark):
    cfg = SCCConfig(64, 128, 2, 0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((128, 32)).astype(np.float32)
    g = rng.standard_normal((8, 128, 16, 16)).astype(np.float32)
    benchmark(layer_backward(cfg, x, w, "dsxplore", "output_centric"), g)


if __name__ == "__main__":
    report_fig9()
