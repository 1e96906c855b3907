"""Figure 7 — CIFAR-10 training speedup over Pytorch-Base.

Both of the paper's setting families on all five CNNs:
(a) cg in {2,4,8} at co=50%;  (b) co in {25%,50%,75%} at cg=2.

Modelled numbers run the full-size networks through the V100 execution
model; the measured column repeats the comparison with real NumPy kernels
on a width-reduced VGG16 (forward+backward wall time per step).
"""
from functools import partial

import numpy as np

from common import alternating_medians, emit, full_mode
from repro.core.blocks import set_scc_impl
from repro.gpusim import extract_layer_shapes, tesla_v100, training_step_time
from repro.models import build_model
from repro.models.registry import PAPER_MODELS
from repro.tensor import Tensor
from repro.train import cross_entropy
from repro.utils import format_table, seed_all

SETTINGS_A = [(2, 0.5), (4, 0.5), (8, 0.5)]
SETTINGS_B = [(2, 0.25), (2, 0.5), (2, 0.75)]
BATCH = 128


def modelled_speedups(device, settings):
    rows = []
    for name in PAPER_MODELS:
        for cg, co in settings:
            model = build_model(name, scheme="scc", cg=cg, co=co)
            shapes = extract_layer_shapes(model, (3, 32, 32))
            t = {
                s: training_step_time(shapes, BATCH, device, scc_strategy=s).total
                for s in ("channel_stack", "conv_stack", "dsxplore")
            }
            rows.append(
                (name, cg, round(co * 100),
                 t["channel_stack"] / t["conv_stack"],
                 t["channel_stack"] / t["dsxplore"])
            )
    return rows


def measured_speedup(name="vgg16", cg=2, co=0.5):
    """Real NumPy-kernel training-step times, reduced model.

    The three strategies are timed in turn in one loop (see
    ``alternating_medians``), so host drift during the run lands on all
    three alike instead of on whichever ran last."""
    seed_all(23)
    model = build_model(name, scheme="scc", cg=cg, co=co, width_mult=0.125)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 3, 32, 32)).astype(np.float32))
    labels = rng.integers(0, 10, 8)

    def step(strategy, bwd):
        set_scc_impl(model, strategy, bwd)
        model.zero_grad()
        loss = cross_entropy(model(x), labels)
        loss.backward()

    steps = {s: partial(step, s, b) for s, b in [("channel_stack", None),
                                                 ("conv_stack", None),
                                                 ("dsxplore", "input_centric")]}
    for fn in steps.values():   # warm-up
        fn()
    repeats = 7 if full_mode() else 5
    return dict(zip(steps, alternating_medians(list(steps.values()), repeats)))


def report_fig7(device=None):
    device = device or tesla_v100()
    text_parts = []
    for title, settings in [("(a) cg sweep at co=50%", SETTINGS_A),
                            ("(b) co sweep at cg=2", SETTINGS_B)]:
        rows = modelled_speedups(device, settings)
        text_parts.append(format_table(
            ["Model", "cg", "co%", "Pytorch-Opt (x)", "DSXplore (x)"],
            [[n, g, c, f"{o:.2f}", f"{d:.2f}"] for n, g, c, o, d in rows],
            title=f"Fig 7{title} — speedup over Pytorch-Base (simulated V100, batch {BATCH})",
        ))
    measured = measured_speedup()
    base = measured["channel_stack"]
    text_parts.append(format_table(
        ["Implementation", "step (ms)", "speedup vs Base"],
        [[k, f"{v * 1e3:.1f}", f"{base / v:.2f}x"] for k, v in measured.items()],
        title="Measured on this CPU — width-0.125 VGG16, cg=2 co=50%, real kernels",
    ))
    text = "\n\n".join(text_parts)
    text += ("\n\nExpected shape (paper): DSXplore fastest everywhere "
             "(paper avg 5.68x over Base, 2.34x over Opt); gains larger on "
             "VGG (all-standard-conv) than ResNet (PW-heavy blocks).")
    return emit("fig7_training_speedup_cifar", text), modelled_speedups(device, SETTINGS_A), measured


def test_fig7_ordering(device):
    _, rows, measured = report_fig7(device)
    opts = []
    for name, cg, co, opt_x, dsx_x in rows:
        # DSXplore fastest everywhere (paper headline).
        assert dsx_x > 1.0 and dsx_x > opt_x, (name, cg, co)
        # Opt beats Base in the paper's common config (cg=2); at cg=8 the
        # per-cycle op count (cyclic_dist grows with cg) can erode its edge
        # on narrow ResNet layers, so we only require the average to hold.
        if cg == 2:
            assert opt_x > 1.0, (name, cg, co)
        opts.append(opt_x)
    assert sum(opts) / len(opts) > 1.0
    # Measured ordering on real kernels: Base clearly slowest; DSXplore at
    # least ties Opt (on the width-reduced model the SCC layers are a small
    # share of step time, so Opt and DSXplore sit within timing noise).
    assert measured["channel_stack"] > 1.2 * measured["conv_stack"]
    assert measured["dsxplore"] <= measured["conv_stack"] * 1.10


def test_fig7_vgg_gains_exceed_resnet(device):
    rows = modelled_speedups(device, [(2, 0.5)])
    by_model = {n: d for n, _, _, _, d in rows}
    assert by_model["vgg16"] > by_model["resnet50"]


def test_fig7_measured_step(benchmark):
    seed_all(23)
    model = build_model("vgg16", scheme="scc", cg=2, co=0.5, width_mult=0.125)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 3, 32, 32)).astype(np.float32))
    labels = rng.integers(0, 10, 8)

    def step():
        model.zero_grad()
        cross_entropy(model(x), labels).backward()

    benchmark.pedantic(step, rounds=3, iterations=1, warmup_rounds=1)


if __name__ == "__main__":
    report_fig7()
