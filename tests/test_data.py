"""Synthetic data generator, splits and loaders."""
import numpy as np
import pytest

from repro.data import (
    DataLoader,
    SyntheticImageDataset,
    cifar10_like,
    imagenet_like,
    make_dataset,
    train_test_split,
)
from repro.utils import seed_all


@pytest.fixture(autouse=True)
def _seed():
    seed_all(81)


def test_dataset_shapes_and_dtypes():
    ds = make_dataset(50, num_classes=5, image_size=8, channels=3)
    assert ds.images.shape == (50, 3, 8, 8)
    assert ds.images.dtype == np.float32
    assert ds.labels.dtype == np.int64
    assert ds.labels.min() >= 0 and ds.labels.max() < 5
    assert len(ds) == 50
    assert ds.image_shape == (3, 8, 8)


def test_dataset_deterministic_in_seed():
    a = make_dataset(20, seed=7)
    b = make_dataset(20, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = make_dataset(20, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_dataset_standardised():
    ds = make_dataset(200, image_size=8)
    assert abs(float(ds.images.mean())) < 1e-3
    assert abs(float(ds.images.std()) - 1.0) < 1e-3


def test_label_signal_is_cross_channel():
    # Per-channel marginal stats should be nearly label-free: the class
    # signal lives in cross-channel correlation (see repro.data's docstring).
    ds = make_dataset(600, num_classes=2, image_size=8, channels=4, noise=0.1, seed=3)
    means = []
    for k in (0, 1):
        sel = ds.images[ds.labels == k]
        means.append(sel.std(axis=(0, 2, 3)))   # per-channel std by class
    # channel stds differ across classes by < 20% ...
    assert np.abs(means[0] - means[1]).max() / means[0].mean() < 0.2
    # ... but cross-channel correlations differ strongly.
    def corr(sel):
        flat = sel.transpose(1, 0, 2, 3).reshape(4, -1)
        return np.corrcoef(flat)

    c0 = corr(ds.images[ds.labels == 0])
    c1 = corr(ds.images[ds.labels == 1])
    assert np.abs(c0 - c1).max() > 0.2


def test_dataset_validation():
    with pytest.raises(ValueError, match="per class"):
        make_dataset(3, num_classes=10)
    with pytest.raises(ValueError, match="NCHW"):
        SyntheticImageDataset(np.zeros((4, 3, 8)), np.zeros(4, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="labels"):
        SyntheticImageDataset(np.zeros((4, 3, 8, 8)), np.zeros(3, dtype=np.int64), 2)


def test_cifar_and_imagenet_like_presets():
    c = cifar10_like(num_samples=30, image_size=8)
    assert c.num_classes == 10 and c.images.shape == (30, 3, 8, 8)
    i = imagenet_like(num_samples=120, num_classes=20, image_size=8)
    assert i.num_classes == 20


def test_split_disjoint_and_complete():
    ds = make_dataset(100, image_size=4)
    train, test = train_test_split(ds, 0.25, seed=1)
    assert len(train) == 75 and len(test) == 25
    # Determinism
    train2, test2 = train_test_split(ds, 0.25, seed=1)
    np.testing.assert_array_equal(test.images, test2.images)


def test_split_validates_fraction():
    ds = make_dataset(10, image_size=4)
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0)
    with pytest.raises(ValueError):
        train_test_split(ds, 1.0)


def test_loader_batching():
    ds = make_dataset(25, image_size=4)
    loader = DataLoader(ds, batch_size=10, shuffle=False)
    batches = list(loader)
    assert len(loader) == 3
    assert [b[0].shape[0] for b in batches] == [10, 10, 5]
    np.testing.assert_array_equal(batches[0][0], ds.images[:10])


def test_loader_drop_last():
    ds = make_dataset(25, image_size=4)
    loader = DataLoader(ds, batch_size=10, shuffle=False, drop_last=True)
    assert len(loader) == 2
    assert sum(1 for _ in loader) == 2


def test_loader_shuffles_between_epochs():
    ds = make_dataset(64, image_size=4)
    loader = DataLoader(ds, batch_size=64, shuffle=True, seed=3)
    first = next(iter(loader))[1].copy()
    second = next(iter(loader))[1].copy()
    assert not np.array_equal(first, second)
    assert sorted(first.tolist()) == sorted(second.tolist())


def test_loader_covers_all_samples_once_per_epoch():
    ds = make_dataset(40, image_size=4)
    loader = DataLoader(ds, batch_size=7, shuffle=True, seed=2)
    labels = np.concatenate([lbl for _, lbl in loader])
    assert labels.shape[0] == 40
    assert sorted(labels.tolist()) == sorted(ds.labels.tolist())


def test_loader_augment_preserves_shape_and_labels():
    ds = make_dataset(16, image_size=8)
    loader = DataLoader(ds, batch_size=16, shuffle=False, augment=True, seed=4)
    images, labels = next(iter(loader))
    assert images.shape == ds.images.shape
    np.testing.assert_array_equal(labels, ds.labels)
    assert not np.array_equal(images, ds.images)  # something moved


def test_loader_validates_batch_size():
    ds = make_dataset(10, image_size=4)
    with pytest.raises(ValueError):
        DataLoader(ds, batch_size=0)
