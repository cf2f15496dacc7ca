"""Static SVG rendering: validation, determinism, structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from zetaladder.errors import DomainError
from zetaladder.quadrature import write_atomic
from zetaladder.svgplot import PlotKind, PlotSpec, Series, render


def _spec(kind=PlotKind.LINE, nser=2):
    series = tuple(
        Series(label=f"s{i}", x=np.array([0.0, 1.0, 2.0]),
               y=np.array([1.0 * i, 2.0, 0.5]))
        for i in range(nser))
    return PlotSpec(kind=kind, series=series, title="demo", xlabel="t",
                    ylabel="v")


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            PlotSpec(kind="line", series=_spec().series)

    def test_no_series(self):
        with pytest.raises(DomainError):
            PlotSpec(kind=PlotKind.LINE, series=())

    def test_ragged_series(self):
        with pytest.raises(DomainError):
            PlotSpec(kind=PlotKind.LINE,
                     series=(Series("a", (0.0, 1.0), (1.0,)),))

    def test_empty_series(self):
        with pytest.raises(DomainError):
            PlotSpec(kind=PlotKind.LINE, series=(Series("a", (), ()),))

    def test_non_finite_values(self):
        with pytest.raises(DomainError):
            PlotSpec(kind=PlotKind.LINE,
                     series=(Series("a", (0.0, 1.0), (1.0, math.nan)),))
        with pytest.raises(DomainError):
            PlotSpec(kind=PlotKind.LINE,
                     series=(Series("a", (0.0, math.inf), (1.0, 2.0)),))


class TestRender:
    def test_header_and_size(self):
        svg = render(_spec())
        assert svg.startswith("<svg xmlns=")
        assert 'width="960"' in svg and 'height="600"' in svg
        assert svg.rstrip().endswith("</svg>")

    def test_one_path_per_series(self):
        for nser in (1, 2, 3):
            svg = render(_spec(nser=nser))
            assert svg.count("<path") == nser

    def test_labels_appear(self):
        svg = render(_spec())
        for text in ("demo", "t", "v", "s0", "s1"):
            assert text in svg

    def test_text_is_escaped(self):
        # text content: &, < and > escaped, quotes kept as they are
        raw = 'a<b & c>"d\''
        spec = PlotSpec(kind=PlotKind.LINE,
                        series=(Series(raw, np.array([0.0, 1.0]),
                                       np.array([1.0, 2.0])),),
                        title=raw, xlabel=raw, ylabel=raw)
        svg = render(spec)
        assert svg.count('>a&lt;b &amp; c&gt;"d\'</text>') == 4
        assert raw not in svg

    def test_scatter_differs_from_line(self):
        line = render(_spec(PlotKind.LINE, nser=1))
        scatter = render(_spec(PlotKind.SCATTER, nser=1))
        assert line != scatter

    def test_deterministic(self):
        assert render(_spec()) == render(_spec())

    def test_degenerate_flat_series_renders(self):
        spec = PlotSpec(kind=PlotKind.LINE,
                        series=(Series("flat", np.array([0.0, 1.0]),
                                       np.array([3.0, 3.0])),))
        svg = render(spec)
        assert "<path" in svg


class TestWriteSvg:
    def test_writes_file(self, tmp_path):
        # zl plot writes render() whole through write_atomic; the file reads
        # back byte for byte and no temporary file is left beside it
        path = tmp_path / "out.svg"
        write_atomic(path, render(_spec()))
        assert path.read_text() == render(_spec())
        assert [p.name for p in tmp_path.iterdir()] == ["out.svg"]
