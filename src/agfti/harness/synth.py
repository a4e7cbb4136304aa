"""Synthetic datasets that exhibit the sub-cluster problem.

Each class is an elongated Gaussian segment and every sample keeps one shared
position parameter t across views. For c >= 3 the segments lie along the
edges of a regular polygon, so consecutive classes nearly touch tip-to-tip;
odd-numbered views traverse the ring in reversed class order, which changes
which class pair abuts at each polygon corner from view to view. A
vacuum_width > 0 thins a band of every segment down to a small bridge
fraction, and each view sees that band at a different stretch of the segment
(a per-view phase shift of t), with earlier views drawn at higher noise.
With full data every sample therefore sits in a dense, clean region of at
least one view; once masking removes views, samples near a segment tip can
be left with only the noisy view in which their class fragments, and their
nearest neighbours across the corner belong to the adjacent class.
"""

import numpy as np

from ..rng import STREAM_SYNTH, make_generator
from .data import DatasetContainer

_RADIUS = 10.0
# fraction of each polygon edge covered by a class segment (c >= 3)
_FILL = 0.94
# segment length for the degenerate layouts (c < 3) that cannot close a ring
_SOLO_LENGTH = 8.0
# earlier views are noisier, so there is something for view weights to exploit
_NOISE_GROWTH = 1.5


def _segment_positions(rng, size, vacuum_width, bridge_frac):
    """Manifold parameters in [0, 1], thinned in the middle band.

    The solid mass splits evenly, in expectation, between the two sides.
    """
    lo = 0.5 - vacuum_width / 2.0
    hi = 0.5 + vacuum_width / 2.0
    t = np.empty(size)
    bridge = rng.uniform(size=size) < bridge_frac
    n_solid = int((~bridge).sum())
    left = rng.uniform(size=n_solid) < 0.5
    u = rng.uniform(size=n_solid)
    t[~bridge] = np.where(left, u * lo, hi + u * (1.0 - hi))
    t[bridge] = rng.uniform(size=int(bridge.sum()))
    return t


def _segment_frames(V, c):
    """Per-view (center, axis) arrays, one row per class.

    The axis vector already carries the full segment length, so a point is
    center + (t - 0.5) * axis. Views with odd index reverse the class order
    around the ring; all views get a small extra rotation so no two share an
    identical embedding.
    """
    frames = []
    for v in range(V):
        offset = 2.0 * np.pi * v / (c * max(V, 2))
        if c >= 3:
            theta = 2.0 * np.pi * np.arange(c + 1) / c + offset
            verts = _RADIUS * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            centers = 0.5 * (verts[:-1] + verts[1:])
            axes = _FILL * (verts[1:] - verts[:-1])
            if v % 2 == 1:
                order = np.arange(c - 1, -1, -1)
                centers, axes = centers[order], axes[order]
        else:
            ang = 2.0 * np.pi * np.arange(c) / c + offset
            centers = _RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            axes = _SOLO_LENGTH * np.stack([-np.sin(ang), np.cos(ang)], axis=1)
        frames.append((centers, axes))
    return frames


def synth_scp(
    seed,
    n_per_class=100,
    V=2,
    c=3,
    vacuum_width=0.55,
    noise=0.2,
    bridge_frac=0.04,
    class_sizes=None,
):
    """Generate a deterministic multi-view sub-cluster-problem dataset.

    The container is named synth_scp_seed{seed}. class_sizes overrides
    n_per_class when exact totals are needed.
    vacuum_width and bridge_frac are fractions of a segment, so a value
    outside [0, 1], a noise that is negative or infinite, or a class count
    c below 1 raises ValueError.
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    for name, frac in (("vacuum_width", vacuum_width), ("bridge_frac", bridge_frac)):
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {frac}")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    rng = make_generator(seed, STREAM_SYNTH)
    sizes = (
        [int(s) for s in class_sizes]
        if class_sizes is not None
        else [int(n_per_class)] * c
    )
    if len(sizes) != c or any(s < 1 for s in sizes):
        raise ValueError(f"need {c} positive class sizes, got {sizes}")

    ts = [
        _segment_positions(rng, s, float(vacuum_width), float(bridge_frac))
        for s in sizes
    ]
    labels = np.concatenate(
        [np.full(s, j, dtype=np.int32) for j, s in enumerate(sizes)]
    )

    views = []
    for v, (centers, axes) in enumerate(_segment_frames(V, c)):
        sigma = noise * (1.0 + _NOISE_GROWTH * (V - 1 - v) / max(V - 1, 1))
        # each view sees the vacuum at a different stretch of the segment,
        # so with full data every sample is covered by some dense region
        phase = v / V
        pieces = []
        for j, s in enumerate(sizes):
            tv = np.mod(ts[j] + phase, 1.0)
            pts = (
                centers[j][None, :]
                + (tv - 0.5)[:, None] * axes[j][None, :]
                + sigma * rng.standard_normal((s, 2))
            )
            pieces.append(pts)
        views.append(np.vstack(pieces))

    return DatasetContainer(
        views=views,
        labels=labels,
        c=c,
        name=f"synth_scp_seed{seed}",
    )
