"""Reproducible random sources.

Every randomized operation takes an explicit ``numpy.random.Generator``.
Sampling work is split into fixed-size chunks, each with its own
sub-stream, so a chunk's draws depend only on the seed and the chunk
index.
"""

import numpy as np

# Samples per chunk.  Changing it moves chunk boundaries, and with them
# every sub-stream and every seeded result.
CHUNK = 256


def substream(seed, *path):
    """Return a generator for sub-stream ``path`` of a 64-bit master seed."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, path)])


def chunk_streams(n, rng):
    """(sample count, sub-stream) of each chunk of ``range(n)``, in chunk order.

    One stream per chunk is spawned from ``rng`` up front, and a chunk's
    draws come only from its own stream, in the order of its samples.  Graph
    triangles are drawn chunk after chunk; earth triangles take every
    chunk's first block before any retry, and then each retry round draws
    from every chunk's stream that still has pending samples, in chunk
    order.  Either way each stream sees the same calls as when its chunk
    runs alone, which keeps every seeded result.
    """
    sizes = [min(CHUNK, n - lo) for lo in range(0, n, CHUNK)]
    return list(zip(sizes, rng.spawn(len(sizes))))


def uniform_from(u, low, high):
    """``Generator.uniform(low, high)`` of draws ``u`` taken with ``Generator.random``.

    It is the map ``uniform`` applies to each draw, so drawing many values
    with one ``random`` call and mapping them gives the same numbers, bit for
    bit, as drawing them one ``uniform`` call at a time.
    """
    return low + (high - low) * u
