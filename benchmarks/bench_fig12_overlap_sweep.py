"""Figure 12 — runtime vs input-channel overlap ratio (co), cg=2.

Paper: co has *no evident impact* on runtime — the overlap changes which
channels each thread reads, not how much work it does.  Normalized to
co=10%.  We sweep the paper's 10%..90% grid, modelled and measured.
"""
import numpy as np

from common import emit, full_mode, scc_step
from repro.backend import get_kernel, scc_plan
from repro.core.channel_map import SCCConfig
from repro.gpusim import extract_layer_shapes, tesla_v100, training_step_time
from repro.models import build_model
from repro.models.registry import PAPER_MODELS
from repro.utils import format_table, time_callable

COS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
BATCH = 128


def modelled_sweep(device, models=PAPER_MODELS):
    rows = {}
    for name in models:
        times = []
        for co in COS:
            model = build_model(name, scheme="scc", cg=2, co=co)
            shapes = extract_layer_shapes(model, (3, 32, 32))
            times.append(training_step_time(shapes, BATCH, device).total)
        rows[name] = [t / times[0] for t in times]
    return rows


def measured_sweep(cin=64, cout=128, hw=16, n=8):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
    g = rng.standard_normal((n, cout, hw, hw)).astype(np.float32)
    times = []
    repeats = 15 if full_mode() else 5
    for co in COS:
        cfg = SCCConfig(cin, cout, 2, co)
        w = rng.standard_normal((cout, cfg.group_width)).astype(np.float32)
        plan = scc_plan(cfg)
        times.append(time_callable(lambda: scc_step(plan, x, w, g),
                                   repeats=repeats, warmup=2).median)
    return [t / times[0] for t in times]


def report_fig12(device=None):
    device = device or tesla_v100()
    rows = modelled_sweep(device)
    text = format_table(
        ["Model"] + [f"{round(c * 100)}%" for c in COS],
        [[n] + [f"{x:.0%}" for x in series] for n, series in rows.items()],
        title="Fig 12 — runtime vs co, normalized to co=10% (simulated V100, cg=2)",
    )
    meas = measured_sweep()
    text += "\n\nMeasured real kernels (one layer, 64->128, 16x16):\n"
    text += format_table([f"{round(c * 100)}%" for c in COS],
                         [[f"{x:.0%}" for x in meas]])
    text += (
        "\nExpected shape (paper): flat — overlap ratio does not change "
        "per-thread workload\n(fluctuations are cache/data-reuse noise).  The modelled "
        "series is flat; the CPU\nmeasurement fluctuates more because co determines "
        "cyclic_dist, and the CPU analog\nbatches its GEMMs per cycle position — "
        "another CPU-only artifact (the fused GPU\nkernel's thread workload is "
        "co-independent, which is what the model captures)."
    )
    return emit("fig12_overlap_sweep", text), rows, meas


def test_fig12_flat_within_band(device):
    _, rows, meas = report_fig12(device)
    for name, series in rows.items():
        assert max(series) - min(series) < 0.15, (name, series)
    # Measured CPU kernels: no systematic *monotone* growth with co — the
    # endpoints stay comparable even though cyclic_dist-induced GEMM batching
    # makes the middle noisy.
    import numpy as np

    slope = np.polyfit(COS, meas, 1)[0]
    assert abs(slope) < 2.0, meas


def test_fig12_layer_step(benchmark):
    cfg = SCCConfig(64, 128, 2, 0.7)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((128, 32)).astype(np.float32)
    benchmark(get_kernel("scc_forward"), scc_plan(cfg), x, w)


if __name__ == "__main__":
    report_fig12()
