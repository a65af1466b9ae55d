"""Selector configuration shared by the ranking, evaluation, and CLI layers."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

from .dataset import PREPROCESSING_SCHEMES
from .errors import ConfigError
from .measures import BinningPolicy

SELECTOR_VARIANTS = ("ifs", "mifs", "sifs", "mrmr")
ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
COST_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

# The scheme each variant ranks on; it governs ranking only, since every
# classifier sees standardized columns. Dispersion-based selectors want a
# common [0, 1] range, the label-information selectors standardized features.
_AUTO_PREPROCESSING = {"ifs": "normalize", "mifs": "normalize", "sifs": "standardize", "mrmr": "standardize"}


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class SelectorConfig:
    """Settings for one feature-selection run.

    ``alpha`` is either a float in [0, 1] or the string ``"cv"`` asking the
    evaluation harness to pick it by cross validation. ``preprocessing``,
    the scheme ranking uses, may be ``"auto"``, which resolves per variant.
    """

    variant: str = "mifs"
    alpha: float | str = 0.5
    c: float = 0.9
    preprocessing: str = "auto"
    binning: BinningPolicy = field(default_factory=BinningPolicy)

    def __post_init__(self):
        if self.variant not in SELECTOR_VARIANTS:
            valid = ", ".join(SELECTOR_VARIANTS)
            raise ConfigError(f"unknown variant {self.variant!r}; valid variants: {valid}")
        # A bool is a numbers.Real (float(True) would be 1.0), and float()
        # would take a numeric string.
        if not _is_real(self.alpha):
            if not (isinstance(self.alpha, str) and self.alpha == "cv"):
                raise ConfigError(f"alpha must be a number in [0, 1] or 'cv', got {self.alpha!r}")
        else:
            object.__setattr__(self, "alpha", float(self.alpha))
            if not 0.0 <= self.alpha <= 1.0:
                raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not _is_real(self.c):
            raise ConfigError(f"regularization fraction c must be a number in (0, 1), got {self.c!r}")
        object.__setattr__(self, "c", float(self.c))
        if not 0.0 < self.c < 1.0:
            raise ConfigError(f"regularization fraction c must be in (0, 1), got {self.c}")
        if self.preprocessing not in PREPROCESSING_SCHEMES + ("auto",):
            raise ConfigError(f"unknown preprocessing {self.preprocessing!r}")
        if not isinstance(self.binning, BinningPolicy):
            raise ConfigError(f"binning must be a BinningPolicy, got {self.binning!r}")

    @property
    def resolved_preprocessing(self) -> str:
        if self.preprocessing == "auto":
            return _AUTO_PREPROCESSING[self.variant]
        return self.preprocessing

    @property
    def fixed_alpha(self) -> float:
        """The numeric alpha; raises if alpha is deferred to cross validation."""
        if isinstance(self.alpha, str):
            raise ConfigError("alpha is 'cv'; it must be resolved by cross validation first")
        return self.alpha

    def with_alpha(self, alpha: float) -> "SelectorConfig":
        return replace(self, alpha=alpha)
