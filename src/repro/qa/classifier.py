"""Classification QAs.

``PIScoreClassifierQA`` is the paper's third example QA: "a ready-to-use
three-way classification (low, mid, high) based on the average and
standard deviation of the Hit Ratio and Mass Coverage score.  The
thresholds used for classification are (avg - stddev) and
(avg + stddev)" (Sec. 5.1, footnote 19).  Because the thresholds come
from the score distribution of the *collection*, this QA is inherently
collection-level.
"""

from __future__ import annotations

import abc
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.annotation.map import AnnotationMap
from repro.process.operators import QualityAssertionOperator
from repro.qa.pi_score import UniversalPIScoreQA, _require_variables
from repro.rdf import Q, URIRef


def _binary(value: float) -> Tuple[int, int]:
    """A finite ``value`` as ``(m, d)`` with ``value == m / 2**d`` exactly."""
    numerator, denominator = float(value).as_integer_ratio()
    return numerator, denominator.bit_length() - 1


class ScoreSummary:
    """The running ``(n, Σs, Σs²)`` of a score collection, held exactly.

    Every score is a binary fraction ``m / 2**d``; the sums are kept as
    integers over a common power-of-two scale, so :meth:`add` and
    :meth:`remove` never round and the summary of a collection does not
    depend on the order (or the add/remove history) that produced it.
    The statistics are then rounded once: the mean is the correctly
    rounded ``Σs / n``, the variance the correctly rounded
    ``(nΣs² − (Σs)²) / n²`` and the standard deviation its
    ``math.sqrt`` (0 for ``n <= 1``).

    Non-finite scores are counted, not summed, and propagate as float
    arithmetic would: any nan, or both infinities, makes the mean nan;
    otherwise an infinity makes it that infinity.  The standard
    deviation of such a collection is nan (0 for ``n <= 1``).
    """

    __slots__ = ("n", "_sum", "_squares", "_scale", "_special")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.n = 0
        #: Σs == _sum / 2**_scale and Σs² == _squares / 2**(2 * _scale),
        #: over the finite scores.
        self._sum = 0
        self._squares = 0
        self._scale = 0
        #: Count per non-finite score (keyed by its repr: nan, inf, -inf).
        self._special: Dict[str, int] = {}
        for value in values:
            self.add(value)

    def _aligned(self, value: float) -> Tuple[int, int]:
        numerator, exponent = _binary(value)
        if exponent > self._scale:
            grow = exponent - self._scale
            self._sum <<= grow
            self._squares <<= 2 * grow
            self._scale = exponent
        shift = self._scale - exponent
        return numerator << shift, (numerator * numerator) << (2 * shift)

    def add(self, value: float) -> None:
        """Fold one score into the summary."""
        self.n += 1
        if not math.isfinite(value):
            key = repr(float(value))
            self._special[key] = self._special.get(key, 0) + 1
            return
        term, square = self._aligned(value)
        self._sum += term
        self._squares += square

    def remove(self, value: float) -> None:
        """Take back one score previously added."""
        if self.n == 0:
            raise ValueError("cannot remove a score from an empty summary")
        self.n -= 1
        if not math.isfinite(value):
            key = repr(float(value))
            left = self._special[key] - 1
            if left:
                self._special[key] = left
            else:
                del self._special[key]
            return
        term, square = self._aligned(value)
        self._sum -= term
        self._squares -= square

    def mean_and_stddev(self) -> Tuple[float, float]:
        """Population mean and standard deviation, each rounded once."""
        n = self.n
        if n == 0:
            raise ValueError("cannot compute statistics of an empty collection")
        special = self._special
        if special:
            if "nan" in special or len(special) == 2:
                mean = math.nan
            else:
                mean = float(next(iter(special)))
            return mean, 0.0 if n == 1 else math.nan
        # int / int true division is correctly rounded.
        mean = self._sum / (n << self._scale)
        spread = n * self._squares - self._sum * self._sum
        variance = spread / ((n * n) << (2 * self._scale))
        return mean, math.sqrt(variance)


def mean_and_stddev(values: Sequence[float]) -> Tuple[float, float]:
    """Population mean and standard deviation (stddev 0 for n <= 1).

    Exact and order-independent: see :class:`ScoreSummary`, whose
    running form yields bit-identical results.
    """
    return ScoreSummary(values).mean_and_stddev()


class CollectionScopedQA(QualityAssertionOperator):
    """A QA that sees its collection only through a score summary.

    The verdict splits into three parts: an item-local
    :meth:`item_score`, the collection's :class:`ScoreSummary` of the
    present scores, and a :meth:`label` rule over the score and the
    :meth:`thresholds` the summary yields.  ``label`` depends only on
    which side of each threshold a score lies, so when the thresholds
    move, exactly the scores between an old and a new threshold can
    change class.

    :meth:`execute` accepts a precomputed ``summary`` (the invocation
    context carries it under ``"summary"``): labels are then computed
    against it instead of the summary of the items in the map, which is
    how an incremental enactor relabels a subset of a larger collection.
    """

    @abc.abstractmethod
    def item_score(self, vector: Mapping[str, Any]) -> Optional[float]:
        """One item's score from its evidence vector (None if missing)."""

    @abc.abstractmethod
    def thresholds(self, summary: ScoreSummary) -> Optional[Tuple[float, ...]]:
        """The ascending class thresholds a summary yields (None if empty)."""

    @abc.abstractmethod
    def label(self, score: float, thresholds: Tuple[float, ...]) -> Any:
        """The class of a score under the given thresholds."""

    def execute(
        self, amap: AnnotationMap, summary: Optional[ScoreSummary] = None
    ) -> AnnotationMap:
        """Tag the map's items; against ``summary`` when one is given."""
        items = amap.items()
        vectors = [self.evidence_vector(amap, item) for item in items]
        return self.tagged(amap, items, self.labels(vectors, summary))

    def compute(
        self, items: List[URIRef], vectors: List[Dict[str, Any]]
    ) -> List[Any]:
        """Class labels per item (None where evidence is missing)."""
        return self.labels(vectors, None)

    def labels(
        self,
        vectors: List[Dict[str, Any]],
        summary: Optional[ScoreSummary],
    ) -> List[Any]:
        """Class labels per vector against ``summary`` (default: their own)."""
        scores = [self.item_score(vector) for vector in vectors]
        if summary is None:
            summary = ScoreSummary(s for s in scores if s is not None)
        bounds = self.thresholds(summary)
        return [
            None if score is None or bounds is None else self.label(score, bounds)
            for score in scores
        ]


class PIScoreClassifierQA(CollectionScopedQA):
    """Three-way (low / mid / high) classification of the HR+MC score."""

    def __init__(
        self,
        name: str = "PIScoreClassifier",
        tag_name: str = "ScoreClass",
        variables: Optional[Mapping[str, URIRef]] = None,
        hr_weight: float = 0.5,
        mc_weight: float = 0.5,
    ) -> None:
        if variables is None:
            variables = {"hitRatio": Q.HitRatio, "coverage": Q.Coverage}
        _require_variables(name, variables, ["hitRatio", "coverage"])
        super().__init__(
            name,
            assertion_class=Q.PIScoreClassifier,
            tag_name=tag_name,
            tag_syn_type=Q["class"],
            tag_sem_type=Q.PIScoreClassification,
            variables=variables,
        )
        self._scorer = UniversalPIScoreQA(
            name=f"{name}-score",
            variables=variables,
            hr_weight=hr_weight,
            mc_weight=mc_weight,
        )

    def item_score(self, vector: Mapping[str, Any]) -> Optional[float]:
        """The HR+MC score of one evidence vector."""
        return self._scorer.vector_score(vector)

    def thresholds(self, summary: ScoreSummary) -> Optional[Tuple[float, ...]]:
        """``(avg - stddev, avg + stddev)`` of the present scores."""
        if summary.n == 0:
            return None
        average, stddev = summary.mean_and_stddev()
        return (average - stddev, average + stddev)

    def label(self, score: float, thresholds: Tuple[float, ...]) -> Any:
        """low below the lower band, high above the upper, else mid."""
        low_threshold, high_threshold = thresholds
        if score > high_threshold:
            return Q.high
        if score < low_threshold:
            return Q.low
        return Q.mid


class ThresholdClassifierQA(QualityAssertionOperator):
    """A generic classifier: score function + ordered threshold bands.

    ``bands`` is a list of (upper_bound, class_uri) pairs in ascending
    bound order; scores above every bound get ``top_class``.  The score
    function receives the item's evidence vector.
    """

    def __init__(
        self,
        name: str,
        tag_name: str,
        variables: Mapping[str, URIRef],
        score_fn: Callable[[Dict[str, Any]], Optional[float]],
        bands: Sequence[Tuple[float, URIRef]],
        top_class: URIRef,
        scheme: URIRef,
        assertion_class: URIRef = Q.PIScoreClassifier,
    ) -> None:
        if not bands:
            raise ValueError("at least one threshold band is required")
        bounds = [bound for bound, _ in bands]
        if bounds != sorted(bounds):
            raise ValueError("threshold bands must be in ascending bound order")
        super().__init__(
            name,
            assertion_class=assertion_class,
            tag_name=tag_name,
            tag_syn_type=Q["class"],
            tag_sem_type=scheme,
            variables=variables,
        )
        self.score_fn = score_fn
        self.bands = list(bands)
        self.top_class = top_class

    def classify(self, score: float) -> URIRef:
        """The class for a score, by ascending threshold bands."""
        for bound, cls in self.bands:
            if score <= bound:
                return cls
        return self.top_class

    def compute(
        self, items: List[URIRef], vectors: List[Dict[str, Any]]
    ) -> List[Any]:
        """Class labels per item (None where evidence is missing)."""

        labels: List[Any] = []
        for vector in vectors:
            score = self.score_fn(vector)
            labels.append(None if score is None else self.classify(score))
        return labels
