"""Label inference attacks as functions of arrays.

The simple prediction attack (spa) reads labels off the released model; the
marginal guess is the best feature-blind strategy. Each returns an int64
vector of one guessed label per row, and all ties break to the lowest class
index.
"""

from __future__ import annotations

import numpy as np

from .metrics import UtilitySpec, best_response, probability_vector
from .models import Model


def spa(model: Model, features: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """Simple prediction attack: evaluate the released model on the public
    training features and pick the expected-utility-maximizing label.

    With zero-one utility this is the model's argmax prediction; with the
    class-weighted utility it maximizes score_y / p_y per row.
    """
    return best_response(model.predict_proba(features), spec)


def marginal_guess(marginal, n: int, spec: UtilitySpec) -> np.ndarray:
    """Feature-blind attack: all n rows get the label maximizing the
    expected utility under the marginal label distribution (the modal class
    for zero-one). The marginal must be a finite, non-negative vector
    summing to 1."""
    label = best_response(probability_vector(marginal)[None, :], spec)[0]
    return np.full(n, label, dtype=np.int64)
