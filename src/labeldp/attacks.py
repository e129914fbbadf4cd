"""Label inference attacks over the adversary's knowledge tuple.

The simple prediction attack (spa) reads labels off the released model; the
marginal guess is the best feature-blind strategy. All ties break to the
lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import UtilitySpec, best_response, probability_vector
from .models import Model


@dataclass(frozen=True)
class AdversaryKnowledge:
    """What the attacker sees: the public features and the released model;
    optionally the marginal label distribution (the feature-unaware threat
    model), a finite, non-negative vector summing to 1."""

    features: np.ndarray
    model: Model
    marginal: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.model is None:
            raise ValueError("knowledge must include the released model")
        if self.marginal is not None:
            object.__setattr__(self, "marginal", probability_vector(self.marginal))


@dataclass(frozen=True)
class InferredLabels:
    labels: np.ndarray
    attack: str

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("inferred labels must be a vector")
        if labels.size and labels.min() < 0:
            raise ValueError("inferred labels must be non-negative class indices")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]


def spa(knowledge: AdversaryKnowledge, spec: UtilitySpec) -> InferredLabels:
    """Simple prediction attack: evaluate the released model on the public
    training features and pick the expected-utility-maximizing label.

    With zero-one utility this is the model's argmax prediction; with the
    class-weighted utility it maximizes score_y / p_y per row.
    """
    probs = knowledge.model.predict_proba(knowledge.features)
    return InferredLabels(best_response(probs, spec), "spa")


def marginal_guess(knowledge: AdversaryKnowledge, spec: UtilitySpec) -> InferredLabels:
    """Feature-blind attack: every row gets the label maximizing the
    expected utility under the marginal (the modal class for zero-one)."""
    if knowledge.marginal is None:
        raise ValueError("marginal_guess needs the marginal label distribution")
    label = int(best_response(knowledge.marginal[None, :], spec)[0])
    n = knowledge.features.shape[0]
    return InferredLabels(np.full(n, label, dtype=np.int64), "marginal-guess")
