"""Label inference attacks over the adversary's knowledge tuple.

The simple prediction attack (spa) reads labels off the released model; the
prior attack predicts with the exact conditional and ignores the model; the
marginal guess is the best feature-blind strategy. All ties break to the
lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Conditional
from .metrics import UtilitySpec, best_response, probability_vector, utility_matrix
from .models import Model


@dataclass(frozen=True)
class AdversaryKnowledge:
    """What the attacker sees: the public features always, plus at least one
    of the released model and the conditional P(y | x); optionally the
    marginal label distribution (the feature-unaware threat model), a
    finite, non-negative vector summing to 1."""

    features: np.ndarray
    model: Model | None = None
    conditional: Conditional | None = None
    marginal: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.model is None and self.conditional is None:
            raise ValueError("knowledge must include a model or a conditional")
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
    if knowledge.model is None:
        raise ValueError("spa needs the released model")
    probs = knowledge.model.predict_proba(knowledge.features)
    return InferredLabels(best_response(probs, spec), "spa")


def prior_attack(knowledge: AdversaryKnowledge) -> InferredLabels:
    """Bayes-classifier attack: per-row argmax of P(y | x). Ignores the
    released model entirely, so it is label-independent by construction."""
    if knowledge.conditional is None:
        raise ValueError("prior_attack needs the conditional evaluator")
    probs = knowledge.conditional(knowledge.features)
    return InferredLabels(np.argmax(probs, axis=1), "prior")


def marginal_guess(
    knowledge: AdversaryKnowledge, spec: UtilitySpec | None = None
) -> InferredLabels:
    """Feature-blind attack: every row gets the label maximizing the
    expected utility under the marginal (the modal class for zero-one)."""
    if knowledge.marginal is None:
        raise ValueError("marginal_guess needs the marginal label distribution")
    p = knowledge.marginal
    if spec is None:
        spec = UtilitySpec.zero_one()
    scores = utility_matrix(spec, p.size) @ p
    label = int(np.argmax(scores))
    n = knowledge.features.shape[0]
    return InferredLabels(np.full(n, label, dtype=np.int64), "marginal-guess")
