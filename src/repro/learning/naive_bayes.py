"""Multinomial Naive Bayes over bags of words.

Two components of the reproduction use this classifier:

* the **category classifier** that maps an incoming offer title to a
  catalog category (paper Section 2 mentions "a simple classifier" whose
  details are omitted; a multinomial NB over title tokens is the standard
  choice and is resilient enough for the pipeline, which only requires a
  sufficient number of representative offers per product);
* the **LSD-style instance-based Naive Bayes matcher** baseline
  (paper Appendix C) reuses the same estimator with attribute names as
  classes and catalog values as training documents.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["MultinomialNaiveBayes"]


class MultinomialNaiveBayes:
    """Multinomial Naive Bayes with Laplace (add-alpha) smoothing.

    Documents are token sequences; classes are arbitrary hashable labels.

    Parameters
    ----------
    alpha:
        Additive smoothing constant (1.0 = classic Laplace smoothing).

    Examples
    --------
    >>> nb = MultinomialNaiveBayes()
    >>> nb.update("hdd", ["seagate", "barracuda", "7200", "rpm"])
    >>> nb.update("camera", ["canon", "eos", "megapixels"])
    >>> nb.fit_finalize()
    >>> nb.predict(["seagate", "7200"])
    'hdd'
    """

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError(f"smoothing constant alpha must be positive, got {alpha}")
        self.alpha = alpha
        self._token_counts: Dict[str, Counter] = defaultdict(Counter)
        self._class_token_totals: Dict[str, int] = defaultdict(int)
        self._class_document_counts: Dict[str, int] = defaultdict(int)
        self._vocabulary: set = set()
        self._total_documents = 0
        self._finalized = False
        self._log_table: Optional[List[Tuple[str, float, Dict[str, float], float]]] = None

    # -- training ---------------------------------------------------------

    def update(self, label: str, tokens: Sequence[str]) -> None:
        """Add one training document for class ``label``."""
        self._finalized = False
        self._log_table = None
        self._class_document_counts[label] += 1
        self._total_documents += 1
        counts = self._token_counts[label]
        for token in tokens:
            counts[token] += 1
            self._class_token_totals[label] += 1
            self._vocabulary.add(token)

    def fit(self, documents: Iterable[Tuple[str, Sequence[str]]]) -> "MultinomialNaiveBayes":
        """Train from an iterable of ``(label, tokens)`` pairs."""
        for label, tokens in documents:
            self.update(label, tokens)
        self.fit_finalize()
        return self

    def fit_finalize(self) -> None:
        """Mark training as complete and build the scoring table.

        Calling predict before any training data was seen raises; calling
        it after :meth:`update` without :meth:`fit_finalize` is allowed (the
        flag only exists to catch obviously empty models early; the table
        :meth:`update` drops is then rebuilt on the next prediction).
        """
        if not self._class_document_counts:
            raise RuntimeError("cannot finalise a Naive Bayes model with no training data")
        self._finalized = True
        self._log_table = self._build_log_table()

    def _build_log_table(self) -> List[Tuple[str, float, Dict[str, float], float]]:
        """Per class: ``(label, log prior, {token: log-likelihood}, unseen)``.

        Each entry is the float :meth:`log_prior` and
        :meth:`token_log_likelihood` compute (``unseen`` is the latter for
        a token with count 0), in class order, so scoring from the table
        is bit-identical to scoring from the definitions.
        """
        vocabulary = max(self.vocabulary_size, 1)
        table = []
        for label in self._class_document_counts:
            denominator = self._class_token_totals[label] + self.alpha * vocabulary
            likelihoods = {
                token: math.log((count + self.alpha) / denominator)
                for token, count in self._token_counts[label].items()
            }
            unseen = math.log((0 + self.alpha) / denominator)
            table.append((label, self.log_prior(label), likelihoods, unseen))
        return table

    def __getstate__(self) -> Dict[str, object]:
        # The log table is derived state: rebuilt on demand, never shipped.
        state = dict(self.__dict__)
        state["_log_table"] = None
        return state

    # -- inference --------------------------------------------------------

    @property
    def classes(self) -> List[str]:
        """All class labels seen during training."""
        return list(self._class_document_counts.keys())

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens seen during training."""
        return len(self._vocabulary)

    def log_prior(self, label: str) -> float:
        """log P(class)."""
        if self._total_documents == 0:
            raise RuntimeError("model has no training data")
        return math.log(self._class_document_counts[label] / self._total_documents)

    def token_log_likelihood(self, label: str, token: str) -> float:
        """log P(token | class) with add-alpha smoothing."""
        count = self._token_counts[label].get(token, 0)
        total = self._class_token_totals[label]
        vocabulary = max(self.vocabulary_size, 1)
        return math.log((count + self.alpha) / (total + self.alpha * vocabulary))

    def token_probability(self, label: str, token: str) -> float:
        """P(token | class), smoothed."""
        return math.exp(self.token_log_likelihood(label, token))

    def log_scores(self, tokens: Sequence[str]) -> Dict[str, float]:
        """Unnormalised log posterior for every class."""
        if not self._class_document_counts:
            raise RuntimeError("model has no training data")
        table = self._log_table
        if table is None:
            table = self._log_table = self._build_log_table()
        scores: Dict[str, float] = {}
        for label, score, likelihoods, unseen in table:
            lookup = likelihoods.get
            for token in tokens:
                score += lookup(token, unseen)
            scores[label] = score
        return scores

    def posterior(self, tokens: Sequence[str]) -> Dict[str, float]:
        """Normalised posterior P(class | tokens) for every class."""
        log_scores = self.log_scores(tokens)
        maximum = max(log_scores.values())
        exponentials = {label: math.exp(score - maximum) for label, score in log_scores.items()}
        normaliser = sum(exponentials.values())
        return {label: value / normaliser for label, value in exponentials.items()}

    def predict(self, tokens: Sequence[str]) -> str:
        """The most probable class for a token sequence."""
        log_scores = self.log_scores(tokens)
        return max(log_scores.items(), key=lambda item: item[1])[0]

    def predict_with_confidence(self, tokens: Sequence[str]) -> Tuple[str, float]:
        """The most probable class and its posterior probability."""
        posterior = self.posterior(tokens)
        label, probability = max(posterior.items(), key=lambda item: item[1])
        return label, probability

    def dominant_class_by_token(self) -> Dict[str, str]:
        """token -> the class where the token was observed most often.

        A cheap routing-hint table: looking a token up costs one dict
        access instead of a full posterior sweep over every class.  Ties
        break on the lexicographically smallest class label, so the
        table is deterministic for any training order.
        """
        dominant: Dict[str, str] = {}
        best_count: Dict[str, int] = {}
        for label in sorted(self._token_counts):
            for token, count in self._token_counts[label].items():
                if count > best_count.get(token, 0):
                    best_count[token] = count
                    dominant[token] = label
        return dominant
