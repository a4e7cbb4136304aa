"""Classification metrics: accuracy plus macro and micro precision/F1.

Macro averages run over all n_classes classes; a class absent from both
truth and prediction contributes zero (with a warning) rather than being
dropped, so scores from different masks stay comparable. Micro precision
and micro F1 both collapse to plain accuracy in single-label multiclass
problems, which doubles as an internal consistency check.
"""

import warnings

import numpy as np


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
    micro_prec = float(tp.sum() / pred_count.sum()) if n else 0.0
    micro_rec = float(tp.sum() / truth_count.sum()) if n else 0.0
    micro_f1 = (
        2.0 * micro_prec * micro_rec / (micro_prec + micro_rec)
        if (micro_prec + micro_rec) > 0
        else 0.0
    )
    return {
        "acc": acc,
        "prec_macro": float(prec.mean()),
        "rec_macro": float(rec.mean()),
        "f1_macro": float(f1.mean()),
        "prec_micro": micro_prec,
        "f1_micro": float(micro_f1),
    }
