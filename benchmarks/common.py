"""Shared helpers for the benchmark harness (report IO, model prep)."""
from __future__ import annotations

import json
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def full_mode() -> bool:
    """Longer accuracy runs when REPRO_BENCH_FULL=1."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def execution_env() -> dict:
    """The execution-relevant environment a benchmark ran under.

    Recorded in every result JSON so a reader can tell numbers produced by
    different kernel backends or pinned worker counts apart; the stamp
    itself is :func:`repro.backend.env_stamp`, which ``perfbench`` records
    too.
    """
    from repro.backend import env_stamp

    return env_stamp()


def emit(report_name: str, text: str, data=None) -> str:
    """Print a report and persist it under :data:`RESULTS_DIR`.

    That is ``benchmarks/results/`` for standalone runs; under pytest the
    benchmarks' ``conftest.py`` points it at a session temp directory.

    Every report is written twice: human-readable ``<name>.txt`` and
    machine-readable ``<name>.json``, committed so any two commits'
    reports can be read side by side.  ``data`` is an optional
    JSON-serialisable payload (e.g. the table rows); non-serialisable
    values degrade to their ``str()``.  The payload always carries an
    ``env`` block (active backend, worker count, host CPUs) — see
    :func:`execution_env`.
    """
    banner = f"\n{'=' * 72}\n{report_name}\n{'=' * 72}\n"
    out = banner + text + "\n"
    print(out)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{report_name}.txt").write_text(out)
    payload = {
        "name": report_name,
        "env": execution_env(),
        "data": data,
        "text": text,
    }
    (RESULTS_DIR / f"{report_name}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )
    return out


def scc_step(plan, x, w, grad):
    """One fused DSXplore SCC forward + input-centric backward through the
    registry kernels on ``plan``, as a layer's training step runs them."""
    from repro.backend import get_kernel

    _, ctx = get_kernel("scc_forward")(plan, x, w)
    get_kernel("scc_backward")(plan, ctx, grad)


def reduced_training_setup(
    num_samples: int,
    image_size: int = 16,
    num_classes: int = 10,
    noise: float = 0.3,
    seed: int = 0,
    batch_size: int = 48,
):
    """Dataset + loaders for the CPU-scale accuracy experiments."""
    from repro.data import DataLoader, make_dataset, train_test_split

    ds = make_dataset(
        num_samples, num_classes=num_classes, image_size=image_size,
        noise=noise, seed=seed,
    )
    train, test = train_test_split(ds, 0.2, seed=seed)
    return (
        DataLoader(train, batch_size=batch_size, seed=seed + 1),
        DataLoader(test, batch_size=2 * batch_size, shuffle=False),
    )


def train_and_score(model, train_loader, test_loader, epochs: int, lr: float = 0.1):
    """Train a reduced model; return best test accuracy."""
    from repro.train import Trainer, TrainConfig

    trainer = Trainer(model, TrainConfig(epochs=epochs, lr=lr, momentum=0.9,
                                         weight_decay=5e-4))
    hist = trainer.fit(train_loader, test_loader)
    return hist.best_test_acc


def accuracy_protocol(seed: int = 2, batch_size: int = 48):
    """The calibrated reduced-scale accuracy-experiment setup.

    8-channel inputs make the cross-channel signal rich enough for grouping
    effects to matter; 12x12 images and depth-truncated models keep one
    training run at ~20s CPU.  Full mode doubles the data and epochs.
    """
    from repro.data import DataLoader, make_dataset, train_test_split

    samples = 1800 if full_mode() else 900
    ds = make_dataset(samples, num_classes=10, image_size=12, channels=8,
                      latents=8, noise=0.3, seed=seed)
    train, test = train_test_split(ds, 0.2, seed=seed)
    return (
        DataLoader(train, batch_size=batch_size, seed=seed + 1),
        DataLoader(test, batch_size=2 * batch_size, shuffle=False),
    )


def build_mini(name: str, scheme=None, cg: int = 2, co: float = 0.5,
               num_classes: int = 10):
    """Depth/width-reduced instance of a paper architecture that trains to
    well above chance in ~20s on CPU (the :func:`accuracy_protocol` setup)."""
    from repro.models import build_mobilenet, build_resnet, build_vgg

    if name == "mobilenet":
        return build_mobilenet(scheme=scheme, cg=cg, co=co, width_mult=0.5,
                               num_blocks=4, num_classes=num_classes, in_channels=8)
    if name in ("resnet18", "resnet50"):
        return build_resnet(name, scheme=scheme, cg=cg, co=co, width_mult=0.25,
                            stage_blocks=[1, 1], num_classes=num_classes,
                            in_channels=8)
    if name in ("vgg16", "vgg19"):
        from repro.models.vgg import VGG

        # First two VGG stages only (the 12x12 inputs allow two pools).
        plan = [64, 64, "M", 128, 128, "M"]
        return VGG(plan, num_classes=num_classes, in_channels=8, scheme=scheme,
                   cg=cg, co=co, width_mult=0.25)
    raise ValueError(f"no mini variant for {name!r}")
