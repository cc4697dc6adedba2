import math

from leakyfem.svgplot import line_plot


def test_plot_without_x_values_takes_the_unit_range():
    # no x value falls back to the unit x-range, as no finite y value
    # falls back to the unit y-range: the empty plot draws the same axes
    # as two points with no finite value
    svg = line_plot([], [[]], labels=["a"], title="t")
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg == line_plot([0.0, 1.0], [[math.nan, math.nan]],
                            labels=["a"], title="t")
