"""Seeded view-missing and label masks.

The protocol: exactly floor(VMR * n) samples become incomplete, each missing
a uniform count in {1, .., V-1} of uniformly chosen views; per class,
ceil(LAR * n_class) samples are labeled. Everything is driven by one seed
through named generator substreams, so masks are reproducible bit for bit.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..rng import STREAM_LABEL_MASK, STREAM_VIEW_MASK, make_generator


@dataclass(frozen=True)
class MaskSpec:
    vmr: float
    lar: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.vmr < 1.0:
            raise ValueError(f"vmr must lie in [0, 1), got {self.vmr}")
        if not 0.0 < self.lar <= 1.0:
            raise ValueError(f"lar must lie in (0, 1], got {self.lar}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def generate_masks(container, spec):
    """Draw (missing views per sample, labeled sample indices) for one spec.

    Returns
    -------
    missing : list of n lists; missing[i] holds the sorted view indices
        sample i is absent from (empty for complete samples)
    labeled : sorted array of labeled sample indices
    """
    n, V, c = container.n, container.V, container.c
    n_incomplete = int(np.floor(spec.vmr * n))
    if n_incomplete and V < 2:
        raise ValueError(
            "cannot generate view masks with a single view: an incomplete "
            "sample must keep at least one view"
        )

    missing = [[] for _ in range(n)]
    rng = make_generator(spec.seed, STREAM_VIEW_MASK)
    if n_incomplete:
        incomplete = rng.choice(n, size=n_incomplete, replace=False)
        for i in incomplete:
            count = int(rng.integers(1, V))
            gone = rng.choice(V, size=count, replace=False)
            missing[int(i)] = sorted(int(v) for v in gone)

    rng_labels = make_generator(spec.seed, STREAM_LABEL_MASK)
    labeled = []
    for j in range(c):
        class_idx = np.where(container.labels == j)[0]
        if class_idx.size == 0:
            raise ValueError(f"class {j} has no samples; cannot label it")
        n_lab = int(np.ceil(spec.lar * class_idx.size))
        chosen = rng_labels.choice(class_idx, size=n_lab, replace=False)
        labeled.extend(int(i) for i in chosen)
    return missing, np.array(sorted(labeled), dtype=np.int64)


def missing_per_view(missing, V):
    """Transpose the per-sample missing lists into per-view index arrays.

    Raises ValueError naming the first sample that lists a view outside
    0..V-1, so a mask drawn for another container is refused here.
    """
    out = [[] for _ in range(V)]
    for i, views in enumerate(missing):
        for v in views:
            if not 0 <= v < V:
                raise ValueError(
                    f"sample {i} is missing from view {v}, the container "
                    f"has views 0..{V - 1}"
                )
            out[v].append(i)
    return [np.array(idx, dtype=np.int64) for idx in out]


def save_mask(path, spec, missing, labeled):
    payload = {
        "seed": spec.seed,
        "vmr": spec.vmr,
        "lar": spec.lar,
        "missing": [list(views) for views in missing],
        "labeled": [int(i) for i in labeled],
    }
    Path(path).write_text(json.dumps(payload))


def _integers(values, field):
    """values as a list, or ValueError naming an entry that is not a JSON integer."""
    values = list(values)
    for x in values:
        # bool is an int subclass; JSON true/false is no index
        if type(x) is not int:
            raise ValueError(
                f"malformed mask file: {field} lists {x!r}, not an integer")
    return values


def load_mask(path):
    """Read a save_mask file; ValueError names a parse error, a missing field
    or a listed view or labeled index that is not a JSON integer."""
    try:
        payload = json.loads(Path(path).read_text())
        spec = MaskSpec(vmr=payload["vmr"], lar=payload["lar"], seed=payload["seed"])
        missing = [_integers(views, "missing") for views in payload["missing"]]
        labeled = np.array(_integers(payload["labeled"], "labeled"), dtype=np.int64)
    except json.JSONDecodeError as exc:
        raise ValueError(f"mask file is not JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"mask file has no {exc} field") from None
    except TypeError as exc:
        raise ValueError(f"malformed mask file: {exc}") from None
    return spec, missing, labeled
