"""Figure 10 — GPU memory with vs without channel-cyclic optimisation.

Modelled footprints for all five CNNs (paper reports 72.88%-83.33% savings),
cross-checked against the *measured* bytes the real NumPy kernels
materialise (KernelStats.bytes_materialized): without CC the composed
implementation would stack one window per filter; with CC only one window
per cycle position.
"""
import numpy as np

from common import emit
from repro.backend import KernelStats, get_kernel, scc_plan
from repro.core.channel_map import SCCConfig
from repro.gpusim import MemoryModel, extract_layer_shapes, tesla_v100
from repro.models import build_model
from repro.models.registry import PAPER_MODELS
from repro.utils import format_table

BATCH = 128


def modelled_memory(device):
    mm = MemoryModel(device)
    rows = []
    for name in PAPER_MODELS:
        model = build_model(name, scheme="scc", cg=2, co=0.5)
        shapes = extract_layer_shapes(model, (3, 32, 32))
        without = mm.report(shapes, BATCH, "conv_stack", cc_enabled=False).total_mb
        with_cc = mm.report(shapes, BATCH, "conv_stack", cc_enabled=True).total_mb
        rows.append((name, without, with_cc, 1 - with_cc / without))
    return rows


def measured_layer_memory():
    """Real bytes materialised by one layer: channel-stack (== no-CC) vs
    conv-stack+CC."""
    cfg = SCCConfig(64, 128, 2, 0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((128, 32)).astype(np.float32)
    measured = []
    for strategy in ("channel_stack", "conv_stack"):
        stats = KernelStats()
        get_kernel("scc_forward")(scc_plan(cfg), x, w, strategy=strategy, stats=stats)
        measured.append(stats.bytes_materialized)
    return tuple(measured)


def report_fig10(device=None):
    device = device or tesla_v100()
    rows = modelled_memory(device)
    text = format_table(
        ["Model", "w/o CC (MB)", "w/ CC (MB)", "saved"],
        [[n, f"{wo:.0f}", f"{w:.0f}", f"{s:.1%}"] for n, wo, w, s in rows],
        title=f"Fig 10 — memory w/ and w/o channel-cyclic optimisation (batch {BATCH})",
    )
    chs_bytes, cos_bytes = measured_layer_memory()
    text += (
        f"\nMeasured real-kernel duplication on one layer (64->128, cg2 co50%): "
        f"per-filter stacking {chs_bytes / 2**20:.1f} MB vs per-cycle {cos_bytes / 2**20:.1f} MB "
        f"({1 - cos_bytes / chs_bytes:.1%} saved)."
        "\nExpected shape (paper): 72.88% to 83.33% reduction."
    )
    return emit("fig10_memory_cc", text), rows


def test_fig10_savings_band(device):
    _, rows = report_fig10(device)
    for name, _, _, saving in rows:
        assert 0.40 < saving < 0.99, (name, saving)


def test_fig10_measured_duplication_ratio():
    chs_bytes, cos_bytes = measured_layer_memory()
    # cyclic_dist=4 distinct windows out of Cout=128 filters: 32x reduction.
    assert chs_bytes / cos_bytes == 32


def test_fig10_memory_report(benchmark, device):
    model = build_model("vgg16", scheme="scc", cg=2, co=0.5)
    shapes = extract_layer_shapes(model, (3, 32, 32))
    mm = MemoryModel(device)
    benchmark(mm.report, shapes, BATCH, "conv_stack")


if __name__ == "__main__":
    report_fig10()
