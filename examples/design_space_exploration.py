"""Design-space exploration — the "Xplore" in DSXplore.

SCC turns the fixed DW+PW block into a two-parameter family (cg, co).
This example sweeps the space on a small MobileNet, training each design
point on the synthetic task, then prints the accuracy-vs-cost landscape
and its Pareto front (paper Section III-A / Table IV, exploration view).

Run:  python examples/design_space_exploration.py          (~2-4 min CPU)
      FULL=1 python examples/design_space_exploration.py   (denser sweep)
"""
import os

from repro.analysis import profile_model
from repro.core.design_space import DesignPoint, pareto_front
from repro.data import DataLoader, make_dataset, train_test_split
from repro.models import build_mobilenet
from repro.train import Trainer, TrainConfig
from repro.utils import format_table, seed_all

FULL = os.environ.get("FULL", "0") == "1"

seed_all(0)
# Calibrated reduced protocol (benchmarks/common.py, accuracy_protocol):
# 8-channel inputs, mini model.
dataset = make_dataset(1800 if FULL else 900, num_classes=10, image_size=12,
                       channels=8, latents=8, noise=0.3, seed=4)
train_set, test_set = train_test_split(dataset, 0.2, seed=4)
train_loader = DataLoader(train_set, batch_size=48, seed=5)
test_loader = DataLoader(test_set, batch_size=96, shuffle=False)

if FULL:
    GRID = [(cg, co) for cg in (2, 4, 8) for co in (0.0, 0.25, 1 / 3, 0.5, 0.75)]
else:
    GRID = [(2, 0.0), (2, 0.5), (4, 0.0), (4, 0.5), (8, 0.0), (8, 0.5)]
EPOCHS = 10 if FULL else 7

points: list[DesignPoint] = []
for cg, co in GRID:
    scheme = "gpw" if co == 0.0 else "scc"
    seed_all(42)   # identical init/order for a fair comparison
    model = build_mobilenet(scheme=scheme, cg=cg, co=co, width_mult=0.5,
                            num_blocks=4, num_classes=10, in_channels=8)
    prof = profile_model(model, (8, 12, 12))
    trainer = Trainer(model, TrainConfig(epochs=EPOCHS, lr=0.05, momentum=0.9,
                                         weight_decay=5e-4))
    hist = trainer.fit(train_loader, test_loader)
    point = DesignPoint(cg=cg, co=co, flops=prof.total_macs,
                        params=prof.total_params,
                        cyclic_dist=0, accuracy=hist.best_test_acc)
    points.append(point)
    print(f"trained {point.label():<18} acc={point.accuracy:.3f} "
          f"({prof.mflops:.2f} MFLOPs, {prof.total_params} params)")

front = pareto_front(points)
print()
print(format_table(
    ["Design", "MFLOPs", "Params", "Accuracy", "Pareto-optimal"],
    [[p.label(), f"{p.flops / 1e6:.2f}", p.params, f"{p.accuracy:.3f}",
      "yes" if p in front else ""] for p in sorted(points, key=lambda q: q.flops)],
    title="SCC design space on mini MobileNet (chance = 0.10)",
))
print("\nReading: at each cg level, the co>0 point (SCC) should match or beat the")
print("co=0 point (GPW) at identical cost — the paper's central claim (ties are")
print("within single-seed noise at this scale).")
