"""Ring all-reduce and data-parallel scaling model (paper Fig. 14)."""
import pytest

from repro.gpusim import (
    data_parallel_step_time,
    extract_layer_shapes,
    ring_allreduce_time,
    tesla_v100,
)
from repro.models import build_model
from repro.utils import seed_all


@pytest.fixture(autouse=True)
def _seed():
    seed_all(121)


@pytest.fixture
def dev():
    return tesla_v100()


def test_allreduce_zero_for_single_device(dev):
    assert ring_allreduce_time(1e9, 1, dev) == 0.0


def test_allreduce_volume_term(dev):
    t2 = ring_allreduce_time(1e9, 2, dev)
    t4 = ring_allreduce_time(1e9, 4, dev)
    # 2(K-1)/K factor: K=2 -> 1.0x, K=4 -> 1.5x of the buffer.
    vol2 = 1e9 / dev.interconnect_bandwidth
    assert t2 >= vol2
    assert t4 > t2


def test_allreduce_validation(dev):
    with pytest.raises(ValueError):
        ring_allreduce_time(1e9, 0, dev)


def test_multi_gpu_speedup_shape(dev):
    """Speedup grows with K and approaches linear at K=4 (paper Fig. 14)."""
    model = build_model("vgg16", scheme="scc", cg=2, co=0.5)
    shapes = extract_layer_shapes(model, (3, 32, 32))
    grad_bytes = 4 * sum(
        s.cout * (s.cin // max(s.groups, 1)) * s.kernel**2
        for s in shapes if s.kind in ("conv", "dw", "pw", "gpw", "gc")
    )
    batch = 512
    t1 = data_parallel_step_time(shapes, batch, 1, dev, grad_bytes).total
    speedups = [
        t1 / data_parallel_step_time(shapes, batch, k, dev, grad_bytes).total
        for k in (1, 2, 3, 4)
    ]
    assert speedups[0] == pytest.approx(1.0)
    assert speedups[0] < speedups[1] < speedups[2] < speedups[3]
    assert speedups[3] > 2.5          # near-linear at 4 GPUs
    assert speedups[1] < 2.0          # sub-linear at 2 (comm not amortised)


def test_overlap_fraction_validated(dev):
    model = build_model("mobilenet", scheme="scc", width_mult=0.125)
    shapes = extract_layer_shapes(model, (3, 16, 16))
    with pytest.raises(ValueError):
        data_parallel_step_time(shapes, 64, 2, dev, 1e6, overlap_fraction=1.5)


def test_communication_zero_on_one_device(dev):
    model = build_model("mobilenet", scheme="scc", width_mult=0.125)
    shapes = extract_layer_shapes(model, (3, 16, 16))
    step = data_parallel_step_time(shapes, 64, 1, dev, 1e9)
    assert step.communication == 0.0

