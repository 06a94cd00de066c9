"""Test-only helpers: a central-difference gradient reference, the seeded
generators the step tests hand to ``init_adapt_state``, and the random
numbers ``augment`` takes."""

from typing import Callable

import numpy as np

from lifelong_tta.engine import _NUMBERS, AugmentParams, draw_numbers
from lifelong_tta.streams import IMAGE_SIDE

Array = np.ndarray


def finite_diff_gradient(f: Callable[[Array], float], x0: Array, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        bumped = x0.copy()
        bumped[i] = x0[i] + h
        up = f(bumped)
        bumped[i] = x0[i] - h
        down = f(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def seeded_generators(seed: int) -> dict[str, np.random.Generator]:
    """``init_adapt_state``'s keyword generators for a test seed: the two
    children of ``SeedSequence(seed).spawn(2)``, augmentation first. (A run
    derives its own from ``spawn(3)``; these are the tests' fixed streams.)"""
    augment_ss, restore_ss = np.random.SeedSequence(seed).spawn(2)
    return {
        "rng_augment": np.random.Generator(np.random.PCG64(augment_ss)),
        "rng_restore": np.random.Generator(np.random.PCG64(restore_ss)),
    }


def drawn_numbers(
    rng: np.random.Generator, params: AugmentParams, draws: int, b: int
) -> tuple[Array, Array | None]:
    """``draw_numbers``' (numbers, noise) for ``draws`` draws of ``b``
    samples from ``rng``, in new arrays; the noise is None at zero noise."""
    numbers = np.empty((draws, len(_NUMBERS), b))
    noise = np.empty((draws * b, IMAGE_SIDE, IMAGE_SIDE)) if params.noise_std else None
    draw_numbers(rng, params, numbers, noise)
    return numbers, noise
