"""Deterministic random-number plumbing.

All stochastic choices in the library (random partitioner, initial
partition placement, greedy refinement visit order, stimulus vectors,
synthetic circuit generation) flow through :class:`numpy.random.Generator`
instances created here, so that every experiment is reproducible from a
single integer seed.
"""

from __future__ import annotations

import numpy as np

#: Default seed used across the library when the caller does not supply one.
DEFAULT_SEED = 0x1597

RngLike = int | np.random.Generator | None


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` maps to :data:`DEFAULT_SEED` (NOT entropy from the OS — the
    library must be deterministic by default). An existing generator is
    passed through unchanged so call sites can accept either form.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_rng(seed: RngLike, *tokens: object) -> np.random.Generator:
    """Derive an independent generator from *seed* and a label path.

    Two call sites that pass different ``tokens`` obtain statistically
    independent streams even when they share the root seed; the same
    tokens always yield the same stream. This avoids the classic bug of
    sibling components consuming from (and perturbing) a shared stream.
    """
    if isinstance(seed, np.random.Generator):
        # Fold the generator into an integer root deterministically by
        # drawing once; the caller handed us ownership of the stream.
        root = int(seed.integers(0, 2**63))
    else:
        root = DEFAULT_SEED if seed is None else int(seed)
    material = [root & 0xFFFFFFFFFFFFFFFF]
    for token in tokens:
        material.append(_token_to_int(token))
    return np.random.default_rng(np.random.SeedSequence(material))


def _token_to_int(token: object) -> int:
    """Map an arbitrary hashable label to a stable 64-bit integer."""
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFFFFFFFFFF
    data = str(token).encode("utf-8")
    # FNV-1a: stable across processes (unlike hash()), cheap, good mixing.
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc
