"""Table II — CIFAR-10: Origin vs DSXplore across the five CNNs.

Cost columns (MFLOPs, params) are exact analytic counts on the *full-size*
architectures at CIFAR geometry — directly comparable to the paper.  The
accuracy columns come from width-reduced instances trained on the synthetic
CIFAR-10 stand-in (``repro.data``); the reproducible shape is the
*relative* accuracy drop of DSXplore vs Origin, not the absolute numbers.
"""
from common import emit, full_mode, reduced_training_setup, train_and_score
from repro.analysis import profile_model
from repro.models import build_model
from repro.models.registry import PAPER_MODELS
from repro.utils import format_table, seed_all

PAPER_TABLE2 = {
    # model: (origin MFLOPs, origin params M, origin acc, dsx MFLOPs, dsx params M, dsx acc)
    "vgg16": (314.16, 14.73, 92.64, 21.85, 0.87, 92.60),
    "vgg19": (399.17, 20.04, 93.88, 26.92, 1.19, 92.71),
    "mobilenet": (50.00, 6.17, 92.05, 30.00, 0.59, 92.56),
    "resnet18": (255.89, 11.17, 95.75, 43.99, 0.84, 94.44),
    "resnet50": (1297.80, 23.52, 95.82, 735.79, 12.87, 95.12),
}


def analytic_costs():
    rows = {}
    for name in PAPER_MODELS:
        origin = profile_model(build_model(name), (3, 32, 32))
        dsx = profile_model(build_model(name, scheme="scc", cg=2, co=0.5), (3, 32, 32))
        rows[name] = (origin.mflops, origin.params_m, dsx.mflops, dsx.params_m)
    return rows


def trained_accuracies(models=("mobilenet", "resnet18")):
    """Reduced-model accuracy column; restricted set unless REPRO_BENCH_FULL.

    Uses the calibrated mini-model protocol (depth/width-reduced instances
    of each architecture on 8-channel synthetic data) so quick-mode numbers
    land well above chance; ``common.accuracy_protocol`` has the details.
    """
    from common import accuracy_protocol, build_mini

    names = PAPER_MODELS if full_mode() else models
    epochs = 10 if full_mode() else 7
    accs = {}
    for name in names:
        train_loader, test_loader = accuracy_protocol(seed=2)
        seed_all(7)
        origin = build_mini(name)
        acc_o = train_and_score(origin, train_loader, test_loader, epochs, lr=0.1)
        seed_all(7)
        dsx = build_mini(name, scheme="scc", cg=2, co=0.5)
        acc_d = train_and_score(dsx, train_loader, test_loader, epochs, lr=0.1)
        accs[name] = (acc_o, acc_d)
    return accs


def report_table2(with_accuracy=True):
    costs = analytic_costs()
    rows = []
    for name in PAPER_MODELS:
        om, op, dm, dp = costs[name]
        pom, pop, _, pdm, pdp, _ = PAPER_TABLE2[name]
        rows.append([name, "Origin", f"{om:.2f}", f"{op:.2f}M", f"{pom:.2f}", f"{pop:.2f}M"])
        rows.append([name, "DSXplore", f"{dm:.2f}", f"{dp:.2f}M", f"{pdm:.2f}", f"{pdp:.2f}M"])
    text = format_table(
        ["Model", "Impl", "MFLOPs (ours)", "Param (ours)", "MFLOPs (paper)", "Param (paper)"],
        rows,
        title="Table II cost columns — full-size models, CIFAR geometry",
    )
    text += (
        "\nNote: paper's ResNet18 origin row (255.89 MFLOPs) is inconsistent with its own\n"
        "param count and its DSXplore row; our 555.42 origin count *is* consistent with\n"
        "the paper's DSXplore 43.99 MFLOPs (tests/test_analysis.py).  MobileNet origin params\n"
        "(6.17M in the paper) likewise disagree with the standard architecture (3.22M).\n"
    )
    accs = {}
    if with_accuracy:
        accs = trained_accuracies()
        acc_rows = [
            [name, f"{o:.3f}", f"{d:.3f}", f"{d - o:+.3f}"] for name, (o, d) in accs.items()
        ]
        text += "\nAccuracy (mini variants on the 8-channel synthetic stand-in, chance=0.10):\n"
        text += format_table(["Model", "Origin acc", "DSXplore acc", "delta"], acc_rows)
        text += (
            "\nExpected shape (paper): DSXplore stays within a few points of Origin\n"
            "while cutting ~70% FLOPs and ~83% params on average."
        )
    return emit("table2_cifar", text), costs, accs


def test_table2_cost_columns():
    _, costs, _ = report_table2(with_accuracy=False)
    # Cost columns must reproduce the paper where the paper is self-consistent.
    assert abs(costs["vgg16"][0] - 314.16) / 314.16 < 0.01
    assert abs(costs["resnet50"][0] - 1297.80) / 1297.80 < 0.001
    assert abs(costs["vgg16"][2] - 21.85) / 21.85 < 0.10
    assert abs(costs["resnet50"][2] - 735.79) / 735.79 < 0.10
    # DSXplore always cheaper.
    for name, (om, op, dm, dp) in costs.items():
        assert dm < om and dp < op, name


def test_table2_training_step(benchmark):
    """Measured: one training step of the reduced DSXplore MobileNet."""
    import numpy as np

    from repro.train import Trainer, TrainConfig

    seed_all(3)
    model = build_model("mobilenet", scheme="scc", cg=2, co=0.5, width_mult=0.125)
    trainer = Trainer(model, TrainConfig(epochs=1, lr=0.05))
    rng = np.random.default_rng(0)
    images = rng.standard_normal((16, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, 16)
    benchmark(trainer.train_step, images, labels)


if __name__ == "__main__":
    report_table2()
