"""Graph matching: scoring attribute predictions against a task graph.

The matcher turns per-family attribute probability distributions (the ViT
attribute heads' softmax outputs) into a task-relevance score in [0, 1]:

* each REQUIRES constraint contributes the probability mass on its
  allowed value set,
* each EXCLUDES constraint contributes one minus the mass on its excluded
  set,
* contributions combine as a weighted geometric mean (fuzzy AND), so a
  single confidently violated requirement vetoes the match,
* PREFERS constraints rescale the score by at most ``preference_gamma``
  but never veto.

Scores are monotone in each constraint's satisfied mass — a property the
test suite checks with hypothesis.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.data.ontology import ATTRIBUTE_FAMILIES, AttributeProfile, attribute_index
from repro.kg.schema import Constraint, ConstraintKind, KnowledgeGraph
from repro.obs import get_registry

ArrayLike = Union[np.ndarray, "list"]


@dataclasses.dataclass(frozen=True)
class _ConstraintPlan:
    """Precomputed lookup for one constraint: resolved value indices.

    ``attribute_index`` is a dict walk per value; resolving once at plan
    build time turns ``match_distributions`` into a handful of numpy
    gathers per constraint instead of per-call Python index resolution.
    """

    constraint: Constraint
    indices: np.ndarray   # sorted positions of the value set in the family vocab
    cardinality: int      # |family vocabulary|, for the uniform fallback


@dataclasses.dataclass
class MatchResult:
    """Score plus the per-constraint breakdown (for explainability)."""

    score: np.ndarray                      # (N,) in [0, 1]
    per_constraint: Dict[str, np.ndarray]  # "kind:family" -> (N,)

    def accept(self, threshold: float = 0.5) -> np.ndarray:
        return self.score >= threshold


class GraphMatcher:
    """Match attribute distributions against one knowledge graph.

    Parameters
    ----------
    kg:
        The task knowledge graph.
    preference_gamma:
        Maximum down-scaling applied when a PREFERS constraint is fully
        unsatisfied (0 disables preferences entirely).
    floor:
        Numerical floor for constraint scores inside the geometric mean;
        keeps one zero-probability family from producing NaNs.
    """

    def __init__(self, kg: KnowledgeGraph, preference_gamma: float = 0.15,
                 floor: float = 1e-6) -> None:
        if not 0.0 <= preference_gamma < 1.0:
            raise ValueError("preference_gamma must be in [0, 1)")
        self.kg = kg
        self.preference_gamma = preference_gamma
        self.floor = floor
        self._plan: List[_ConstraintPlan] = []
        self._plan_version = -1
        self._constraint_plan()

    # ------------------------------------------------------------------
    def _constraint_plan(self) -> List[_ConstraintPlan]:
        """Per-constraint index arrays, rebuilt when the KG is edited."""
        if self._plan_version != self.kg.version:
            self._plan = [
                _ConstraintPlan(
                    constraint=c,
                    indices=np.array(
                        sorted(attribute_index(c.family, v) for v in c.values),
                        dtype=np.intp,
                    ),
                    cardinality=len(ATTRIBUTE_FAMILIES[c.family]),
                )
                for c in self.kg.constraints
            ]
            self._plan_version = self.kg.version
        return self._plan

    def match_distributions(
        self, attribute_probs: Mapping[str, np.ndarray]
    ) -> MatchResult:
        """Score batched attribute distributions.

        ``attribute_probs[family]`` has shape ``(N, |family|)`` and rows
        summing to one.  Families missing from the mapping are treated as
        uniform (maximum uncertainty).
        """
        with get_registry().span(
            "kg.match", task=self.kg.task_name,
            constraints=len(self.kg.constraints),
        ) as span:
            first = next(iter(attribute_probs.values()), None)
            batch = 1 if first is None else np.asarray(first).shape[0]
            span.set_attr(batch=batch)

            log_score = np.zeros(batch, dtype=np.float64)
            total_weight = 0.0
            preference_factor = np.ones(batch, dtype=np.float64)
            breakdown: Dict[str, np.ndarray] = {}

            for plan in self._constraint_plan():
                constraint = plan.constraint
                family = constraint.family
                if family in attribute_probs:
                    probs = np.asarray(attribute_probs[family], dtype=np.float64)
                    mass = probs[..., plan.indices].sum(axis=-1)
                else:
                    # Uniform distribution: mass is |values| / |vocabulary|.
                    mass = np.full(
                        batch, plan.indices.size / plan.cardinality,
                        dtype=np.float64,
                    )

                if constraint.kind == ConstraintKind.REQUIRES:
                    satisfied = mass
                elif constraint.kind == ConstraintKind.EXCLUDES:
                    satisfied = 1.0 - mass
                else:  # PREFERS: soft rescale, outside the geometric mean
                    factor = 1.0 - self.preference_gamma * constraint.weight * (1.0 - mass)
                    # An over-weighted preference (weight > 1/gamma) would
                    # drive the factor negative — and two such violations
                    # would multiply back positive, *raising* the score.
                    # Preferences dampen, never veto and never flip sign.
                    preference_factor *= np.clip(factor, 0.0, 1.0)
                    breakdown[f"prefers:{family}"] = mass
                    continue

                satisfied = np.clip(satisfied, self.floor, 1.0)
                log_score += constraint.weight * np.log(satisfied)
                total_weight += constraint.weight
                breakdown[f"{constraint.kind.value}:{family}"] = satisfied

            if total_weight > 0.0:
                score = np.exp(log_score / total_weight)
            else:
                # No hard constraints: every object is task-relevant.
                score = np.ones(batch, dtype=np.float64)
            score = np.clip(score * preference_factor, 0.0, 1.0)
            return MatchResult(score=score, per_constraint=breakdown)

    # ------------------------------------------------------------------
    def match_profiles(self, profiles: List[Optional[AttributeProfile]]) -> MatchResult:
        """Score hard (ground-truth) profiles: one-hot distributions.

        ``None`` entries (background windows) score zero.
        """
        batch = len(profiles)
        dists: Dict[str, np.ndarray] = {}
        valid = np.array([p is not None for p in profiles])
        for family, vocab in ATTRIBUTE_FAMILIES.items():
            probs = np.full((batch, len(vocab)), 1.0 / len(vocab))
            for i, profile in enumerate(profiles):
                if profile is not None:
                    probs[i] = 0.0
                    probs[i, attribute_index(family, profile.as_dict()[family])] = 1.0
            dists[family] = probs
        result = self.match_distributions(dists)
        result.score = result.score * valid
        return result

    def explain(self, attribute_probs: Mapping[str, np.ndarray],
                index: int = 0) -> str:
        """Human-readable per-constraint report for one sample."""
        result = self.match_distributions(attribute_probs)
        lines = [f"task {self.kg.task_name!r}: score={result.score[index]:.3f}"]
        for key, values in sorted(result.per_constraint.items()):
            lines.append(f"  {key:<22} satisfied={values[index]:.3f}")
        return "\n".join(lines)
