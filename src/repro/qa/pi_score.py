"""Protein-identification scoring QAs (paper Sec. 5.1).

The example quality view declares three QAs; the two scoring ones are
implemented here.  Scores follow Stead et al.'s universal-metric idea:
normalised combinations of Hit Ratio, Mass Coverage and peptide counts,
scaled to [0, 100].  A QA tags each item with its score under the view's
``tagName`` (e.g. ``HR MC``), syntactic type ``q:score``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.ontology.iq_model import IQModel
from repro.process.operators import QualityAssertionOperator
from repro.rdf import Q, URIRef


def _require_variables(
    qa_name: str, variables: Mapping[str, URIRef], required: List[str]
) -> None:
    missing = [name for name in required if name not in variables]
    if missing:
        raise ValueError(
            f"quality assertion {qa_name!r} needs variable bindings for "
            f"{missing}; got {sorted(variables)}"
        )


class UniversalPIScoreQA(QualityAssertionOperator):
    """Score s(HR, MC): a weighted combination of Hit Ratio and Mass
    Coverage, the paper's first example QA.

    Items missing either evidence value receive no tag (null evidence
    propagates to the action's default group).
    """

    REQUIRED = ["hitRatio", "coverage"]

    def __init__(
        self,
        name: str = "HR_MC_score",
        tag_name: str = "HR MC",
        variables: Optional[Mapping[str, URIRef]] = None,
        hr_weight: float = 0.5,
        mc_weight: float = 0.5,
        assertion_class: URIRef = Q.UniversalPIScore,
    ) -> None:
        if variables is None:
            variables = {"hitRatio": Q.HitRatio, "coverage": Q.Coverage}
        _require_variables(name, variables, self.REQUIRED)
        total = hr_weight + mc_weight
        if total <= 0:
            raise ValueError("score weights must sum to a positive value")
        super().__init__(
            name,
            assertion_class=assertion_class,
            tag_name=tag_name,
            tag_syn_type=Q.score,
            variables=variables,
        )
        self.hr_weight = hr_weight / total
        self.mc_weight = mc_weight / total

    def score(self, hit_ratio: float, coverage: float) -> float:
        """The weighted HR/MC score, scaled to [0, 100]."""

        return 100.0 * (self.hr_weight * hit_ratio + self.mc_weight * coverage)

    def vector_score(self, vector: Mapping[str, Any]) -> Optional[float]:
        """One evidence vector's rounded score (None if evidence is missing)."""

        hit_ratio = vector.get("hitRatio")
        coverage = vector.get("coverage")
        if hit_ratio is None or coverage is None:
            return None
        return round(self.score(hit_ratio, coverage), 4)

    def compute(
        self, items: List[URIRef], vectors: List[Dict[str, Any]]
    ) -> List[Any]:
        """Scores per item (None where evidence is missing)."""

        return [self.vector_score(vector) for vector in vectors]


class UniversalPIScore2QA(UniversalPIScoreQA):
    """The ``q:UniversalPIScore2`` specialisation used in the paper's XML:
    HR + MC plus the matched-peptide count as a third input."""

    REQUIRED = ["hitRatio", "coverage", "peptidesCount"]

    def __init__(
        self,
        name: str = "HR MC score",
        tag_name: str = "HR MC",
        variables: Optional[Mapping[str, URIRef]] = None,
        hr_weight: float = 0.4,
        mc_weight: float = 0.4,
        peptides_weight: float = 0.2,
        peptides_saturation: int = 20,
    ) -> None:
        if variables is None:
            variables = {
                "hitRatio": Q.HitRatio,
                "coverage": Q.Coverage,
                "peptidesCount": Q.PeptidesCount,
            }
        _require_variables(name, variables, ["peptidesCount"])
        super().__init__(
            name=name,
            tag_name=tag_name,
            variables=variables,
            hr_weight=hr_weight,
            mc_weight=mc_weight,
            assertion_class=Q.UniversalPIScore2,
        )
        total = hr_weight + mc_weight + peptides_weight
        self.hr_weight = hr_weight / total
        self.mc_weight = mc_weight / total
        self.peptides_weight = peptides_weight / total
        if peptides_saturation <= 0:
            raise ValueError("peptides_saturation must be positive")
        self.peptides_saturation = peptides_saturation

    def vector_score(self, vector: Mapping[str, Any]) -> Optional[float]:
        """One evidence vector's rounded score (None if evidence is missing)."""

        hit_ratio = vector.get("hitRatio")
        coverage = vector.get("coverage")
        peptides = vector.get("peptidesCount")
        if hit_ratio is None or coverage is None or peptides is None:
            return None
        saturated = min(1.0, float(peptides) / self.peptides_saturation)
        score = 100.0 * (
            self.hr_weight * hit_ratio
            + self.mc_weight * coverage
            + self.peptides_weight * saturated
        )
        return round(score, 4)


class HRScoreQA(QualityAssertionOperator):
    """The Hit-Ratio-only score: the paper's second example QA."""

    def __init__(
        self,
        name: str = "HR_score",
        tag_name: str = "HR",
        variables: Optional[Mapping[str, URIRef]] = None,
    ) -> None:
        if variables is None:
            variables = {"hitRatio": Q.HitRatio}
        _require_variables(name, variables, ["hitRatio"])
        super().__init__(
            name,
            assertion_class=Q.HRScore,
            tag_name=tag_name,
            tag_syn_type=Q.score,
            variables=variables,
        )

    def compute(
        self, items: List[URIRef], vectors: List[Dict[str, Any]]
    ) -> List[Any]:
        """Scores per item (None where evidence is missing)."""

        values: List[Any] = []
        for vector in vectors:
            hit_ratio = vector.get("hitRatio")
            values.append(
                None if hit_ratio is None else round(100.0 * hit_ratio, 4)
            )
        return values
