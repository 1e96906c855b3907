"""Table I — PW vs GPW vs SCC: FLOPs / params / accuracy triangle.

The paper's Table I is qualitative (High/Low).  We regenerate it
quantitatively on one representative layer shape (analytic costs) plus a
small trained head-to-head for the accuracy column, and verify the two
claimed degeneracies: PW == SCC's cg=1 corner, GPW == SCC's co=0 corner.
"""
import numpy as np

from common import emit, full_mode, reduced_training_setup, train_and_score
from repro import nn
from repro.backend import get_kernel, scc_plan
from repro.core.blocks import make_separable_block
from repro.core.channel_map import channel_windows
from repro.core.design_space import layer_costs
from repro.core.channel_map import SCCConfig
from repro.utils import format_table, seed_all


def report_table1():
    cin, cout, spatial = 64, 128, 16
    rows = []
    pw_flops, pw_params = layer_costs(cin, cout, 1, spatial)
    for label, cg in [("PW", 1), ("GPW-cg2", 2), ("SCC-cg2-co50%", 2)]:
        flops, params = layer_costs(cin, cout, cg, spatial)
        rows.append([label, f"{flops / 1e6:.2f}", f"{params}",
                     f"{flops / pw_flops:.2f}x", f"{params / pw_params:.2f}x"])

    # Degeneracy checks (Table I footnotes).
    pw_wins = channel_windows(cin, cout, 1, 0.0)
    assert all(sorted(r.tolist()) == list(range(cin)) for r in pw_wins)
    gpw_wins = channel_windows(cin, cout, 2, 0.0)
    assert set(gpw_wins[0]) == set(range(cin // 2))

    # Accuracy column: small trained comparison at matched cost.
    from common import accuracy_protocol

    seed_all(0)
    epochs = 10 if full_mode() else 6
    train_loader, test_loader = accuracy_protocol(seed=1)
    accs = {}
    for scheme, cg, co in [("pw", 1, 0.0), ("gpw", 4, 0.0), ("scc", 4, 0.5)]:
        seed_all(42)
        model = nn.Sequential(
            nn.Conv2d(8, 16, 3, padding=1, bias=False),
            nn.BatchNorm2d(16), nn.ReLU(),
            make_separable_block(16, 32, stride=2, scheme=scheme, cg=cg, co=co),
            make_separable_block(32, 64, stride=2, scheme=scheme, cg=cg, co=co),
            nn.GlobalAvgPool2d(), nn.Linear(64, 10),
        )
        accs[scheme] = train_and_score(model, train_loader, test_loader, epochs)

    text = format_table(
        ["Kernel", "MFLOPs@16x16", "Params", "FLOPs vs PW", "Params vs PW"],
        rows,
        title=f"Layer shape Cin={cin}, Cout={cout}, {spatial}x{spatial} (paper Table I, quantified)",
    )
    text += "\n\nTrained accuracy (reduced task; paper claims PW~SCC > GPW at equal cost):\n"
    text += format_table(
        ["Scheme", "Best test acc"],
        [[k.upper(), f"{v:.3f}"] for k, v in accs.items()],
    )
    text += (
        "\nExpected shape: GPW cost == SCC cost < PW cost; acc(SCC) >= acc(GPW)."
    )
    return emit("table1_kernel_comparison", text), accs


def test_table1_report():
    _, accs = report_table1()
    # Cost identity is exact; accuracy ordering is the paper's claim but on a
    # reduced task we assert a non-strict version with slack.
    assert accs["scc"] >= accs["gpw"] - 0.08


def test_scc_forward_kernel(benchmark):
    """Measured: fused DSXplore forward on the Table-I layer shape."""
    cfg = SCCConfig(64, 128, 2, 0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((128, 32)).astype(np.float32)
    benchmark(get_kernel("scc_forward"), scc_plan(cfg), x, w)


if __name__ == "__main__":
    report_table1()
