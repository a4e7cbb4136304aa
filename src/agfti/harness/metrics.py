"""Classification metrics: accuracy plus macro precision, recall and F1.

Macro averages run over all n_classes classes; a class absent from both
truth and prediction contributes zero (with a warning) rather than being
dropped, so scores from different masks stay comparable. Micro precision,
recall and F1 are left out: in single-label multiclass problems each equals
accuracy.
"""

import warnings

import numpy as np

# the keys of every metrics record, in the order metrics builds it
METRIC_KEYS = ("acc", "prec_macro", "rec_macro", "f1_macro")


def confusion_matrix(pred, truth, n_classes):
    """counts[i, j] = number of samples with truth i predicted as j.

    Every truth and prediction must be a class index in 0..n_classes-1; an
    unknown label (-1) is refused, not counted as the last class.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError(
            f"prediction and truth lengths differ: {pred.shape} vs {truth.shape}"
        )
    for name, labels in (("truth", truth), ("prediction", pred)):
        bad = labels[(labels < 0) | (labels >= n_classes)]
        if bad.size:
            raise ValueError(
                f"{name} label {bad[0]} is outside 0..{n_classes - 1}"
            )
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return counts


def metrics(pred, truth, n_classes):
    """{key: score} over METRIC_KEYS, each a float in [0, 1]."""
    counts = confusion_matrix(pred, truth, n_classes)
    n = counts.sum()
    tp = np.diag(counts).astype(np.float64)
    pred_count = counts.sum(axis=0).astype(np.float64)
    truth_count = counts.sum(axis=1).astype(np.float64)

    absent = (pred_count + truth_count) == 0
    if absent.any():
        klasses = np.where(absent)[0].tolist()
        warnings.warn(
            f"classes {klasses} appear in neither truth nor prediction; "
            "they contribute 0 to the macro averages",
            UserWarning,
            stacklevel=2,
        )

    prec = np.where(pred_count > 0, tp / np.maximum(pred_count, 1.0), 0.0)
    rec = np.where(truth_count > 0, tp / np.maximum(truth_count, 1.0), 0.0)
    denom = np.maximum(prec + rec, 1e-300)
    f1 = np.where(prec + rec > 0, 2.0 * prec * rec / denom, 0.0)

    acc = float(tp.sum() / n) if n else 0.0
    scores = (acc, prec.mean(), rec.mean(), f1.mean())
    return {key: float(value) for key, value in zip(METRIC_KEYS, scores)}
