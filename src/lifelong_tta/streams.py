"""Seeded synthetic glyph dataset, corruption families, and stream schedules.

Eight procedurally drawn 8x8 glyph classes stand in for a real image
benchmark. Corruptions come in five kinds at severities 1..5 (0 is the
identity, reserved for tests); schedules sequence (kind, severity) segments
either one-kind-per-segment at severity 5 or in a gradually ramping pattern.

The batch iterator yields the corrupted images and the segment id in one
object and the ground-truth labels separately, so the adaptation engine never
sees labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

Array = np.ndarray

IMAGE_SIDE = 8
N_CLASSES = 8

CORRUPTION_KINDS = ("gaussian_noise", "impulse_noise", "box_blur", "contrast", "pixelate")

GAUSSIAN_STD = (0.04, 0.08, 0.12, 0.18, 0.26)
IMPULSE_FRACTION = (0.01, 0.03, 0.05, 0.09, 0.14)
BLUR_KERNEL = (3, 3, 5, 5, 7)
BLUR_PASSES = (1, 2, 1, 2, 2)
CONTRAST_SCALE = (0.75, 0.6, 0.45, 0.3, 0.2)
PIXELATE_BLOCK = (2, 2, 4, 4, 8)

# pixel-center coordinates in [-1, 1]
_AXIS = (np.arange(IMAGE_SIDE) - (IMAGE_SIDE - 1) / 2.0) / ((IMAGE_SIDE - 1) / 2.0)
_V, _U = np.meshgrid(_AXIS, _AXIS, indexing="ij")  # _V varies by row, _U by column


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0 <= self.severity <= 5:
            raise ValueError("severity must be in 0..5 (0 = identity)")


@dataclass(eq=False)
class SyntheticDataset:
    images: Array  # (N, 8, 8) in [0, 1]
    labels: Array  # (N,) ints in 0..7

    def __len__(self) -> int:
        return self.images.shape[0]


def _rotated_frame(n: int, rng, max_rot: float, max_shift: float = 0.40, base_rot: float = 0.0):
    cx = rng.uniform(-max_shift, max_shift, n)[:, None, None]
    cy = rng.uniform(-max_shift, max_shift, n)[:, None, None]
    theta = base_rot + rng.uniform(-max_rot, max_rot, n)[:, None, None]
    du, dv = _U[None] - cx, _V[None] - cy
    u = np.cos(theta) * du + np.sin(theta) * dv
    v = -np.sin(theta) * du + np.cos(theta) * dv
    return u, v


def _band(d: Array, width) -> Array:
    return np.exp(-((d / width) ** 2))


def _amplitude(n: int, rng) -> Array:
    return rng.uniform(0.55, 1.0, n)[:, None, None]


def _render_class(class_id: int, n: int, rng) -> Array:
    # heavy position/rotation/width/amplitude jitter keeps classes separable
    # but with small margins, so corrupted inputs yield noisy pseudo-labels
    rot = np.deg2rad(18.0)
    if class_id == 0:  # horizontal bar
        _, v = _rotated_frame(n, rng, rot)
        return _amplitude(n, rng) * _band(v, rng.uniform(0.16, 0.26, n)[:, None, None])
    if class_id == 1:  # vertical bar
        u, _ = _rotated_frame(n, rng, rot)
        return _amplitude(n, rng) * _band(u, rng.uniform(0.16, 0.26, n)[:, None, None])
    if class_id == 2:  # diagonal stripe
        _, v = _rotated_frame(n, rng, rot, base_rot=np.pi / 4.0)
        return _amplitude(n, rng) * _band(v, rng.uniform(0.16, 0.26, n)[:, None, None])
    if class_id == 3:  # plus
        u, v = _rotated_frame(n, rng, rot)
        w = rng.uniform(0.13, 0.22, n)[:, None, None]
        return _amplitude(n, rng) * np.maximum(_band(u, w), _band(v, w))
    if class_id == 4:  # x-cross: plus rotated 45 degrees
        u, v = _rotated_frame(n, rng, rot, base_rot=np.pi / 4.0)
        w = rng.uniform(0.13, 0.22, n)[:, None, None]
        return _amplitude(n, rng) * np.maximum(_band(u, w), _band(v, w))
    if class_id == 5:  # ring
        u, v = _rotated_frame(n, rng, 0.0, max_shift=0.22)
        radius = np.hypot(u, v)
        r0 = rng.uniform(0.50, 0.70, n)[:, None, None]
        return _amplitude(n, rng) * _band(radius - r0, rng.uniform(0.11, 0.17, n)[:, None, None])
    if class_id == 6:  # checkerboard
        u, v = _rotated_frame(n, rng, rot)
        freq = rng.uniform(1.6, 2.4, n)[:, None, None]
        wave = np.sin(np.pi * freq * u) * np.sin(np.pi * freq * v)
        return _amplitude(n, rng) * (0.5 + 0.5 * np.tanh(2.2 * wave))
    if class_id == 7:  # filled disc
        u, v = _rotated_frame(n, rng, 0.0, max_shift=0.22)
        radius = np.hypot(u, v)
        r0 = rng.uniform(0.42, 0.58, n)[:, None, None]
        return _amplitude(n, rng) / (1.0 + np.exp(-(r0 - radius) * 7.0))
    raise ValueError(f"unknown class {class_id}")


def make_source_dataset(seed: int, n_per_class: int) -> SyntheticDataset:
    """Balanced glyph dataset; same seed gives bit-identical bytes."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    images = np.concatenate(
        [_render_class(c, n_per_class, rng) for c in range(N_CLASSES)]
    )
    labels = np.repeat(np.arange(N_CLASSES), n_per_class)
    images = images + rng.normal(0.0, 0.02, images.shape)
    images = np.clip(images, 0.0, 1.0)
    order = rng.permutation(images.shape[0])
    return SyntheticDataset(images=images[order], labels=labels[order])


# ---------------------------------------------------------------------------
# corruptions


def _box_blur(images: Array, kernel: int, passes: int) -> Array:
    """Mean over each ``kernel`` x ``kernel`` window (odd, >= 3), edges
    replicated, applied ``passes`` times to a (B, H, W) batch.

    Each window row is summed left to right, then the row sums top to bottom,
    then divided by kernel**2: the order numpy sums a window in
    ``sliding_window_view(...).mean(axis=(-2, -1))``, so the result is
    bit-identical to that mean. Summing columns first differs in the last bit.
    """
    pad = kernel // 2
    _, h, w = images.shape
    out = images
    for _ in range(passes):
        padded = np.pad(out, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
        total = None
        for i in range(kernel):
            window_row = padded[:, i : h + i]
            row_sum = window_row[:, :, 0:w] + window_row[:, :, 1 : w + 1]
            for j in range(2, kernel):
                row_sum += window_row[:, :, j : w + j]
            if total is None:
                total = row_sum
            else:
                total += row_sum
        out = total / (kernel * kernel)
    return out


def _pixelate(images: Array, block: int) -> Array:
    b, side, _ = images.shape
    coarse = images.reshape(b, side // block, block, side // block, block).mean(axis=(2, 4))
    return np.repeat(np.repeat(coarse, block, axis=1), block, axis=2)


def _corrupt_unclipped(images: Array, spec: CorruptionSpec, rng) -> Array:
    level = spec.severity - 1
    if spec.kind == "gaussian_noise":
        return images + rng.normal(0.0, GAUSSIAN_STD[level], images.shape)
    if spec.kind == "impulse_noise":
        hit = rng.random(images.shape) < IMPULSE_FRACTION[level]
        salt = rng.random(images.shape) < 0.5
        return np.where(hit, np.where(salt, 1.0, 0.0), images)
    if spec.kind == "box_blur":
        return _box_blur(images, BLUR_KERNEL[level], BLUR_PASSES[level])
    if spec.kind == "contrast":
        return 0.5 + CONTRAST_SCALE[level] * (images - 0.5)
    if spec.kind == "pixelate":
        return _pixelate(images, PIXELATE_BLOCK[level])
    raise ValueError(f"unknown corruption kind {spec.kind!r}")


def apply_corruption(images: Array, spec: CorruptionSpec, rng=None) -> Array:
    """Severity-monotone distortion of (B, 8, 8) images, clipped to [0, 1]."""
    if images.ndim != 3 or images.shape[1:] != (IMAGE_SIDE, IMAGE_SIDE):
        raise ValueError(f"apply_corruption expects (B, {IMAGE_SIDE}, {IMAGE_SIDE}) images, got {images.shape}")
    if spec.severity == 0:
        return images.copy()
    if rng is None and spec.kind in ("gaussian_noise", "impulse_noise"):
        raise ValueError(f"{spec.kind} needs an rng")
    return np.clip(_corrupt_unclipped(images, spec, rng), 0.0, 1.0)


# ---------------------------------------------------------------------------
# schedules


@dataclass(eq=False)
class StreamSchedule:
    """Ordered (corruption, batch count) segments over a fixed batch size."""

    segments: tuple[tuple[CorruptionSpec, int], ...]
    batch_size: int
    # builder provenance, echoed into each run's report
    kinds: tuple[str, ...] | None = None
    mode: str | None = None
    order_seed: int | None = None
    batches_per_segment: int | None = None

    @property
    def n_batches(self) -> int:
        return sum(count for _, count in self.segments)

    def to_document(self) -> dict:
        if self.kinds is None or self.mode is None or self.batches_per_segment is None:
            raise ValueError("schedule was not built by build_schedule")
        return {
            "kinds": list(self.kinds),
            "mode": self.mode,
            "order_seed": self.order_seed,
            "batches_per_segment": self.batches_per_segment,
            "batch_size": self.batch_size,
        }


def gradual_severities(n_kinds: int) -> list[int]:
    """First kind ramps 5..1; every later kind ramps 1..5..1."""
    out = [5, 4, 3, 2, 1]
    for _ in range(n_kinds - 1):
        out += [1, 2, 3, 4, 5, 4, 3, 2, 1]
    return out


SCHEDULE_MODES = ("continual5", "gradual")


def build_schedule(
    kinds,
    mode: str,
    batches_per_segment: int,
    batch_size: int,
    order_seed: int | None = None,
) -> StreamSchedule:
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("kinds must be non-empty")
    if batches_per_segment < 1:
        raise ValueError("batches_per_segment must be >= 1")
    if order_seed is not None:
        rng = np.random.Generator(np.random.PCG64(order_seed))
        kinds = tuple(kinds[i] for i in rng.permutation(len(kinds)))
    if mode == "continual5":
        pairs = [(kind, 5) for kind in kinds]
    elif mode == "gradual":
        severities = gradual_severities(len(kinds))
        pairs = []
        cursor = 0
        for i, kind in enumerate(kinds):
            steps = 5 if i == 0 else 9
            pairs += [(kind, s) for s in severities[cursor : cursor + steps]]
            cursor += steps
    else:
        raise ValueError(f"unknown schedule mode {mode!r}")
    segments = tuple(
        (CorruptionSpec(kind, severity), batches_per_segment) for kind, severity in pairs
    )
    return StreamSchedule(
        segments=segments,
        batch_size=batch_size,
        kinds=kinds,
        mode=mode,
        order_seed=order_seed,
        batches_per_segment=batches_per_segment,
    )


# ---------------------------------------------------------------------------
# streaming


@dataclass(frozen=True, eq=False)
class StreamBatch:
    """What the adaptation engine is allowed to see: inputs and a segment id."""

    images: Array  # (B, 64) flattened, float64 in [0, 1]
    segment: int


def stream_batches(
    schedule: StreamSchedule,
    dataset: SyntheticDataset,
    rng: np.random.Generator,
) -> Iterator[tuple[StreamBatch, Array]]:
    """Yield (engine-facing batch, ground-truth labels) pairs.

    Samples are drawn without replacement within a segment, reshuffling the
    dataset at each segment start (and again whenever it is exhausted).
    """
    if schedule.batch_size > len(dataset):
        raise ValueError("batch_size exceeds dataset size")
    n = len(dataset)
    for segment_id, (spec, n_batches) in enumerate(schedule.segments):
        pool: list[int] = []
        for _ in range(n_batches):
            while len(pool) < schedule.batch_size:
                pool.extend(rng.permutation(n).tolist())
            idx = np.asarray(pool[: schedule.batch_size])
            del pool[: schedule.batch_size]
            corrupted = apply_corruption(dataset.images[idx], spec, rng)
            batch = StreamBatch(
                images=corrupted.reshape(schedule.batch_size, -1),
                segment=segment_id,
            )
            yield batch, dataset.labels[idx]
