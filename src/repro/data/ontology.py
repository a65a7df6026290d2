"""Attribute ontology of the synthetic world.

Every rendered object is fully described by an :class:`AttributeProfile`
over five attribute families.  Object *categories* (the labels the class
head predicts) are named regions of attribute space — some attributes are
fixed by the category, others are free — which is what lets a task
generalize: the knowledge graph reasons about attributes, not categories.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

SHAPES: Tuple[str, ...] = ("circle", "square", "triangle", "diamond", "cross", "ring")
COLORS: Tuple[str, ...] = (
    "red", "green", "blue", "yellow", "magenta", "cyan", "orange", "white",
)
SIZES: Tuple[str, ...] = ("small", "medium", "large")
TEXTURES: Tuple[str, ...] = ("solid", "striped", "dotted")
BORDERS: Tuple[str, ...] = ("none", "thin", "thick")

ATTRIBUTE_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "shape": SHAPES,
    "color": COLORS,
    "size": SIZES,
    "texture": TEXTURES,
    "border": BORDERS,
}

COLOR_RGB: Dict[str, Tuple[float, float, float]] = {
    "red": (0.90, 0.10, 0.10),
    "green": (0.10, 0.80, 0.15),
    "blue": (0.15, 0.20, 0.90),
    "yellow": (0.92, 0.90, 0.10),
    "magenta": (0.88, 0.12, 0.85),
    "cyan": (0.10, 0.85, 0.88),
    "orange": (0.95, 0.55, 0.08),
    "white": (0.95, 0.95, 0.95),
}


@dataclasses.dataclass(frozen=True)
class AttributeProfile:
    """A fully specified appearance: one value per attribute family."""

    shape: str
    color: str
    size: str
    texture: str
    border: str

    def __post_init__(self) -> None:
        for family, value in self.as_dict().items():
            if value not in ATTRIBUTE_FAMILIES[family]:
                raise ValueError(f"unknown {family} value {value!r}")

    def as_dict(self) -> Dict[str, str]:
        return {
            "shape": self.shape,
            "color": self.color,
            "size": self.size,
            "texture": self.texture,
            "border": self.border,
        }

    def as_indices(self) -> Dict[str, int]:
        return {family: attribute_index(family, value)
                for family, value in self.as_dict().items()}

    def replace(self, **kwargs: str) -> "AttributeProfile":
        return dataclasses.replace(self, **kwargs)


def attribute_index(family: str, value: str) -> int:
    """Index of ``value`` within its family's vocabulary."""
    try:
        return ATTRIBUTE_FAMILIES[family].index(value)
    except KeyError:
        raise KeyError(f"unknown attribute family {family!r}") from None
    except ValueError:
        raise ValueError(f"unknown {family} value {value!r}") from None


def attribute_value(family: str, index: int) -> str:
    """Inverse of :func:`attribute_index`."""
    return ATTRIBUTE_FAMILIES[family][index]


def attribute_head_spec() -> Tuple[Tuple[str, int], ...]:
    """``(family, cardinality)`` pairs for building ViT attribute heads."""
    return tuple((family, len(values)) for family, values in ATTRIBUTE_FAMILIES.items())


# ----------------------------------------------------------------------
# object categories
# ----------------------------------------------------------------------
# Each category fixes some attribute families and leaves others free
# ("*").  Category semantics are loosely themed after the application
# domains the paper's introduction motivates (driving, healthcare,
# industrial automation).
CategorySpec = Mapping[str, str]

OBJECT_CATEGORIES: Dict[str, CategorySpec] = {
    # driving-themed
    "warning_sign": {"shape": "triangle", "color": "yellow", "texture": "solid"},
    "stop_marker": {"shape": "square", "color": "red"},
    "lane_beacon": {"shape": "circle", "color": "orange", "size": "small"},
    # healthcare-themed
    "med_container": {"shape": "square", "color": "white", "border": "thick"},
    "hazard_vial": {"shape": "diamond", "color": "magenta", "texture": "striped"},
    # industrial-themed
    "valve_wheel": {"shape": "ring", "color": "blue"},
    "control_cross": {"shape": "cross", "color": "green"},
    "cargo_unit": {"shape": "square", "color": "cyan", "texture": "dotted"},
}


def category_names() -> List[str]:
    return list(OBJECT_CATEGORIES)


def sample_profile(rng: np.random.Generator,
                   fixed: Optional[Mapping[str, str]] = None) -> AttributeProfile:
    """Draw a uniformly random profile, honoring ``fixed`` constraints."""
    fixed = dict(fixed or {})
    values: Dict[str, str] = {}
    for family, vocab in ATTRIBUTE_FAMILIES.items():
        if family in fixed:
            value = fixed[family]
            if value not in vocab:
                raise ValueError(f"unknown {family} value {value!r}")
            values[family] = value
        else:
            values[family] = vocab[int(rng.integers(len(vocab)))]
    return AttributeProfile(**values)


def profile_for_category(name: str, rng: np.random.Generator) -> AttributeProfile:
    """Sample a profile consistent with a category's fixed attributes."""
    if name not in OBJECT_CATEGORIES:
        raise KeyError(f"unknown category {name!r}")
    return sample_profile(rng, fixed=OBJECT_CATEGORIES[name])


def category_of_profile(profile: AttributeProfile) -> Optional[str]:
    """Return the first category whose constraints the profile satisfies.

    Categories are checked in declaration order; profiles matching no
    category are "distractor" objects (returned as None).
    """
    attrs = profile.as_dict()
    for name, spec in OBJECT_CATEGORIES.items():
        if all(attrs[family] == value for family, value in spec.items()):
            return name
    return None
