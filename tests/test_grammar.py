"""The one grammar of model and family files: every defect fails on its own
line, and no input, however mutated, raises anything but a ModelError that
names a line."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstorsion.backends import MAX_NODES, Model, ModelError, ModelTemplate, parse_model
from hstorsion.deform import family_diagnostics, parse_family

from conftest import (FAMILY_TEXT, IWASAWA_TEXT, POTENTIAL_FAMILY, SPECTRAL_TEXT,
                      TORUS_TEXT)

N2K2_TEXT = ("kind spectral\nn 2\nmodes axis K 2\npotential 2 0 0 0 u 2 := 0.02\n"
             "potential 0 2 0 0 u 1 := 0.015+0.01i\n")
MODES_TEXT = ("kind spectral\nn 1\nmode 0 0\nmode 1 0\nmode -1 0\ngrid 7\n"
              "metric h 1 1 := 2\nmetric_mode 1 0 h 1 1 := 0.1i\n"
              "metric_mode -1 0 h 1 1 := -0.1i\n")
METRIC_FAMILY = ("kind invariant\nn 2\nmetric h 1 1 := poly(1, 0.5)\nmetric h 2 2 := 1\n"
                 "metric h 1 2 := poly(0, 0.1i)\nmetric h 2 1 := poly(0, -0.1i)\n"
                 "t_samples := 0, 0.5, 1\n")
SPECTRAL_HEAD = "kind spectral\nn 3\nmodes axis K 1\n"

# (parser, text, line of the error, a word of its message)
DEFECTS = {
    "repeated kind": (parse_model, "kind invariant\nn 3\nkind invariant\n", 3, "repeated"),
    "repeated n": (parse_model, "kind invariant\nn 3\nn 3\n", 3, "repeated"),
    "repeated grid": (parse_model, SPECTRAL_HEAD + "grid 5\ngrid 7\n", 5, "repeated"),
    "repeated modes axis": (parse_model, SPECTRAL_HEAD + "modes axis K 1\n", 4, "repeated"),
    "repeated t_samples": (parse_family, "kind invariant\nn 2\nt_samples := 0 1\n"
                           "t_samples := 0.5\n", 4, "repeated"),
    "repeated d k": (parse_model, "kind invariant\nn 3\nd 3 := -1 * e(1,2)\n"
                     "d 3 := 1 * e(1,2)\n", 4, "repeated"),
    "repeated metric h i j": (parse_model, "kind invariant\nn 2\nmetric h 1 1 := 1\n"
                              "metric h 2 2 := 1\nmetric h 1 1 := 2\n", 5, "repeated"),
    "repeated metric_mode": (parse_model, MODES_TEXT + "metric_mode 1 0 h 1 1 := 0.2i\n",
                             10, "repeated"),
    "repeated potential": (parse_model, SPECTRAL_TEXT + "potential 1 0 0 0 0 0 u 2 := 0.05\n",
                           7, "repeated"),
    "repeated mode": (parse_model, MODES_TEXT.replace("grid 7\n", "mode 1 0\n"), 6,
                      "repeated"),
    "trailing token": (parse_model, "kind invariant\nn 3 7\n", 2, "expected"),
    "negative K": (parse_model, "kind spectral\nn 2\nmodes axis K -1\n", 3, "at least 0"),
    "n over the cap": (parse_model, "kind invariant\nn 999999999999\n", 2, "n must be"),
    "nodes over the cap by K": (parse_model, "kind spectral\nn 3\nmodes axis K 3\n", 3,
                                "cap"),
    "nodes over the cap by grid": (parse_model, SPECTRAL_HEAD + "grid 11\n", 4, "cap"),
    "nodes over the cap by a mode": (parse_model, "kind spectral\nn 1\nmode 0 0\n"
                                     "mode 999999 0\nmode -999999 0\n", 3, "cap"),
    "spectral directive in an invariant model": (
        parse_model, "kind invariant\nn 3\nd 3 := -1 * e(1,2)\ngrid 5\nmodes axis K 1\n", 4,
        "spectral"),
    "missing kind": (parse_model, "n 3\n\n# the end\n", 3, "kind"),
    "missing n": (parse_model, "kind invariant\n", 1, "'n'"),
    "missing modes": (parse_model, "kind spectral\nn 3\n# no modes\n", 3, "modes"),
    "missing t_samples": (parse_family, "kind invariant\nn 3\n", 2, "t_samples"),
    "empty file": (parse_model, "", 1, "kind"),
    "t_samples without 0": (parse_family, "kind invariant\nn 3\nt_samples := 0.5 1\n", 3,
                            "include 0"),
    "t_samples not finite": (parse_family, "kind invariant\nn 3\nt_samples := 0 inf\n", 3,
                             "finite"),
    # each sample is one family.csv row; 0 and -0 are one value
    "t_samples with a repeated value": (parse_family,
                                        "kind invariant\nn 3\nt_samples := 0 0 0.5 0.5\n", 3,
                                        "repeats 0.0"),
    "t_samples in a model file": (parse_model, "kind invariant\nt_samples := 0\nn 3\n", 2,
                                  "family"),
    "non-constant poly in a model file": (parse_model, "kind invariant\nn 2\n"
                                          "metric h 1 1 := poly(1, 1)\n", 3, "family"),
    "poly overflow at a sample": (parse_family, "kind invariant\nn 2\n"
                                  "metric h 1 1 := poly(1, 0, 1)\nt_samples := 0 1e200\n", 3,
                                  "finite"),
    "one grid value below 1 with no mode off zero": (
        parse_model, "kind spectral\nn 1\nmode 0 0\ngrid 0\n", 4, "below 1"),
    "mode set without zero": (parse_model, "kind spectral\nn 1\nmode 1 0\nmode -1 0\n", 3,
                              "zero mode"),
    "mode set not symmetric": (parse_model, "kind spectral\nn 1\nmode 0 0\nmode 1 0\n", 4,
                               "symmetric"),
    # the family's own line numbers: the t_samples line on line 2 is not
    # dropped before the metric is validated
    "family error after t_samples": (
        parse_family, "kind invariant\nt_samples := 0 1\nn 3\nmetric h 1 1 := 1\n"
        "metric h 2 2 := 1\nmetric h 3 3 := poly(1, 0.5i)\n", 6, "Hermitian"),
    # a literal past the float range is refused, not read as infinity
    "overflowing metric entry": (parse_model, "kind invariant\nn 2\nmetric h 1 1 := 1e400\n",
                                 3, "not finite"),
    "overflowing metric_mode entry": (parse_model, MODES_TEXT.replace("0.1i", "1e400i", 1), 8,
                                      "not finite"),
    "overflowing potential": (parse_model, SPECTRAL_HEAD + "potential 1 0 0 0 0 0 u 1 := 1e309\n",
                              4, "not finite"),
    "overflowing d coefficient": (parse_model, "kind invariant\nn 3\nd 3 := 1e400 * e(1,2)\n",
                                  3, "not finite"),
    # finite, but d^2 = 0 is checked on its square
    "d coefficient whose square overflows": (parse_model,
                                             "kind invariant\nn 3\nd 3 := 1e160 * e(1,2)\n",
                                             3, "when squared"),
    "overflowing poly coefficient": (parse_family, "kind invariant\nn 2\n"
                                     "metric h 1 1 := poly(1, -1e400)\nt_samples := 0 1\n", 3,
                                     "not finite"),
}


@pytest.mark.parametrize("parse, text, line, word", DEFECTS.values(), ids=DEFECTS)
def test_defect_fails_on_its_line(parse, text, line, word):
    with pytest.raises(ModelError) as err:
        parse(text)
    assert err.value.line == line and word in str(err.value)


def test_caps_admit_the_models_in_use():
    # parsing alone: n = 4 invariant and the n = 3, K = 2 stretch (9^6 nodes)
    assert parse_model("kind invariant\nn 4\n").n == 4
    stretch = parse_model(SPECTRAL_TEXT.replace("K 1", "K 2").replace(" 1 0 ", " 2 0 ")
                          .replace("0 0 0 1 0 0", "0 0 0 2 0 0"))
    assert np.prod(stretch.grid) == 9 ** 6 <= MAX_NODES
    assert parse_model("kind spectral\nn 3\nmodes axis K 0\n").grid == (1,) * 6


def test_coefficient_forms_in_a_model_file():
    # a constant poly(...), and a literal with a tab inside
    model = parse_model("kind invariant\nn 2\nmetric h 1 1 := poly(2, 0)\n"
                        "metric h 2 2 := 1 -\t0i\n")
    assert model.metric[0, 0] == 2 and model.metric[1, 1] == 1


def test_family_samples_are_the_coefficients_at_t():
    spec = parse_family(METRIC_FAMILY)
    assert spec.t_samples == [0.0, 0.5, 1.0]
    h = spec.model(0.5).metric
    assert h[0, 0] == 1.25 and h[0, 1] == 0.05j and h[1, 0] == -0.05j
    # a signed zero reads as the literal 0.0 would
    assert str(spec.model(0.0).metric[1, 0].imag) == "0.0"
    # a template whose t_samples lose 0 is measured nowhere
    spec.t_samples = [0.5]
    with pytest.raises(ModelError, match="include 0"):
        family_diagnostics(spec)


# -- fuzzing ---------------------------------------------------------------

MODEL_SEEDS = [TORUS_TEXT, IWASAWA_TEXT, SPECTRAL_TEXT, N2K2_TEXT, MODES_TEXT]
FAMILY_SEEDS = [FAMILY_TEXT, POTENTIAL_FAMILY, METRIC_FAMILY]
TOKENS = ["kind", "invariant", "spectral", "n", "d", ":=", "*", "+", "e(1,2)", "f(1,1)",
          "g(1,2)", "e(2,1)", "modes", "axis", "K", "mode", "grid", "metric", "metric_mode",
          "h", "potential", "u", "t_samples", "poly(0,", "poly(1e200,", "1)", ",", "0", "1",
          "-1", "2", "3", "4", "7", "99999999", "1e999", "0.5i", "1+2i", "-0.0", "inf",
          "#", "\n"]


@st.composite
def mutated(draw, seeds):
    """A seed text as whitespace-separated tokens (newlines kept), with a
    few tokens inserted, replaced, deleted or a run of them repeated."""
    toks = [t for line in draw(st.sampled_from(seeds)).splitlines()
            for t in line.split() + ["\n"]]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        new = draw(st.sampled_from(TOKENS) | st.text(max_size=4))
        if op == "insert":
            toks.insert(i, new)
        elif op == "replace":
            toks[i:i + 1] = [new]
        elif op == "delete":
            del toks[i:i + 1]
        else:
            j = draw(st.integers(i, len(toks)))
            toks[j:j] = toks[i:j]
    return " ".join(toks)


def _parses_or_names_a_line(parse, text):
    try:
        return parse(text)
    except ModelError as e:
        assert isinstance(e.line, int) and 1 <= e.line <= max(1, len(text.splitlines()))


@settings(max_examples=400)
@given(mutated(MODEL_SEEDS + FAMILY_SEEDS))
def test_fuzzed_model_text_is_a_model_or_names_a_line(text):
    model = _parses_or_names_a_line(parse_model, text)
    assert model is None or isinstance(model, Model)


@settings(max_examples=250)
@given(mutated(FAMILY_SEEDS + MODEL_SEEDS[:2]))
def test_fuzzed_family_text_is_a_family_or_names_a_line(text):
    template = _parses_or_names_a_line(parse_family, text)
    assert template is None or isinstance(template, ModelTemplate)
