import re

import pytest

from infinisel import BinningPolicy, ConfigError, SelectorConfig


class TestAutoPreprocessing:
    @pytest.mark.parametrize(
        "variant,expected",
        [("ifs", "normalize"), ("mifs", "normalize"), ("sifs", "standardize"), ("mrmr", "standardize")],
    )
    def test_auto_resolution(self, variant, expected):
        config = SelectorConfig(variant=variant, alpha=0.5)
        assert config.resolved_preprocessing == expected

    def test_explicit_scheme_wins(self):
        config = SelectorConfig(variant="ifs", alpha=0.5, preprocessing="standardize")
        assert config.resolved_preprocessing == "standardize"


class TestValidation:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            SelectorConfig(variant="lasso")

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            SelectorConfig(variant="ifs", alpha=1.5)

    def test_alpha_cv_allowed(self):
        config = SelectorConfig(variant="ifs", alpha="cv")
        assert config.alpha == "cv"
        with pytest.raises(ConfigError, match="cv"):
            config.fixed_alpha

    @pytest.mark.parametrize("alpha", [True, False])
    def test_bool_alpha_rejected(self, alpha):
        # float(True) once made alpha 1.0.
        message = f"alpha must be a number in [0, 1] or 'cv', got {alpha}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            SelectorConfig(variant="ifs", alpha=alpha)

    def test_bad_alpha_string(self):
        with pytest.raises(ConfigError, match="alpha"):
            SelectorConfig(variant="ifs", alpha="auto")

    def test_c_open_interval(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError, match="fraction c"):
                SelectorConfig(variant="ifs", alpha=0.5, c=bad)

    def test_unknown_preprocessing(self):
        with pytest.raises(ConfigError, match="preprocessing"):
            SelectorConfig(variant="ifs", alpha=0.5, preprocessing="whiten")

    def test_with_alpha_copies(self):
        base = SelectorConfig(variant="mifs", alpha="cv", c=0.8)
        resolved = base.with_alpha(0.3)
        assert resolved.alpha == 0.3 and resolved.c == 0.8
        assert base.alpha == "cv"

    def test_binning_policy_is_hashable(self):
        assert hash(BinningPolicy()) == hash(BinningPolicy("equal_frequency", 10))
