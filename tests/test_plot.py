"""Rendering tests: structure and determinism of the SVG figure."""

import hashlib
import math
from fractions import Fraction

import pytest

from hesse_lab.plot import pencil_svg, plot_pencil


def test_member_groups_and_configuration():
    svg = pencil_svg([1, 2, Fraction(1, 2)])
    assert svg.count('class="member"') == 3
    assert svg.count('class="inflection"') == 12
    assert svg.count('class="base-point"') == 3
    assert 'data-lambda="1/2"' in svg


def test_deterministic_output():
    a = pencil_svg([1, -6])
    b = pencil_svg([1, -6])
    assert a == b


def test_infinite_member_draws_coordinate_triangle():
    svg = pencil_svg(["inf"])
    assert 'data-lambda="inf"' in svg
    member = svg.split('class="member"')[1].split("</g>")[0]
    assert member.count("<line") == 3


def test_empty_member_list_keeps_configuration():
    svg = pencil_svg([])
    assert svg.count('class="member"') == 0
    assert svg.count('class="inflection"') == 12


def test_window_validation():
    with pytest.raises(ValueError):
        pencil_svg([1], window=(2.0, -2.0, -2.5, 2.5))
    # each bound must be finite, and its cube too
    for window in ((-math.inf, math.inf, -1, 1), (0, 1e308, -1, 1), (0, 1, math.nan, 1)):
        with pytest.raises(ValueError, match="finite"):
            pencil_svg([1], window=window)
    assert pencil_svg([1], window=(-1e100, 1e100, -1, 1)).count('class="member"') == 1


def test_parameter_bound():
    # a larger parameter wrote nan coordinates
    with pytest.raises(ValueError, match="cannot be drawn"):
        pencil_svg([Fraction(10) ** 101])
    assert pencil_svg([10**100, -(10**100)]).count('class="member"') == 2


def test_svg_bytes_are_pinned():
    # the figure of the CI plot step; real parts are read exactly as a - b/2
    svg = pencil_svg([1, -6, "inf"]).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == (
        "11d4ef3937c90da6f087b8a4612cc3c29a129257df56de7f6efedcd6d25c4beb"
    )


def test_plot_pencil_writes_file(tmp_path):
    out = tmp_path / "pencil.svg"
    path = plot_pencil([1], str(out))
    assert path == str(out)
    assert out.read_text(encoding="utf-8") == pencil_svg([1])
