"""SVG rendering: determinism, well-formedness, panel structure."""

import dataclasses
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menzerath import Domain, _text, build_table, cli, compare, render_svg, report, sample_copula, svgfig, to_boundaries

from util import random_table, ref_curve_paths, ref_joint_panel, scaled


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(71)
    comparison = compare(random_table(rng), ["hyperbolic", "copula"])
    samples = sample_copula(comparison.copulas["copula"], 100, 0)
    return comparison, samples


def ids_of(element):
    return {el.attrib["id"] for el in element.iter() if "id" in el.attrib}


def group(svg_text, group_id):
    """The panel group ``group_id`` of the figure."""
    root = ET.fromstring(svg_text)
    (found,) = [el for el in root.iter() if el.attrib.get("id") == group_id]
    return found


def text_of(element):
    return ET.tostring(element, encoding="unicode")


class TestRenderSvg:
    def test_byte_identical(self, scene):
        comparison, samples = scene
        assert render_svg(comparison, samples) == render_svg(comparison, samples)

    def test_well_formed_xml(self, scene):
        comparison, samples = scene
        ET.fromstring(render_svg(comparison, samples))
        ET.fromstring(render_svg(comparison))

    def test_composite_has_three_panels(self, scene):
        comparison, samples = scene
        text = render_svg(comparison, samples)
        assert {"joint", "mal", "compare"} <= ids_of(ET.fromstring(text))
        assert 'viewBox="0 0 960 720"' in text

    def test_no_external_references(self, scene):
        comparison, samples = scene
        text = render_svg(comparison, samples)
        # The only URL is the SVG namespace declaration itself.
        assert "href" not in text
        assert text.count("http") == 1

    def test_joint_panel_without_legend(self, scene):
        comparison, samples = scene
        joint = group(render_svg(comparison, samples), "joint")
        assert "legend" not in text_of(joint)

    def test_samples_rendered_when_given(self, scene):
        comparison, samples = scene
        with_samples = group(render_svg(comparison, samples), "joint")
        without = group(render_svg(comparison), "joint")
        assert "samples" in ids_of(with_samples)
        assert "samples" not in ids_of(without)

    def test_comparison_panel_legend_has_rss(self, scene):
        comparison, _ = scene
        panel = text_of(group(render_svg(comparison), "compare"))
        assert "RSS=" in panel
        # Only classical models appear in the comparison panel.
        assert "copula" not in panel


class TestBatchedFormatting:
    """The batched panels against the per-element reference, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        boundaries=st.booleans(),
        # 2**53 + 1 makes counts that no float holds.
        factor=st.sampled_from([1, 7, 2**53 + 1]),
        n_samples=st.sampled_from([None, 0, 1, 6, 41]),
        chunk=st.integers(1, 7),
    )
    def test_render_matches_reference(self, seed, boundaries, factor, n_samples, chunk):
        rng = np.random.default_rng(seed)
        comparison = compare(random_table(rng), ["hyperbolic", "gaussian", "copula"])
        samples = None
        if n_samples is not None:
            samples = sample_copula(comparison.copulas["copula"], n_samples, seed)
        table = scaled(comparison.table, factor)
        if boundaries:
            table = to_boundaries(table)
        comparison = dataclasses.replace(comparison, table=table)
        with mock.patch.object(svgfig, "_joint_panel", ref_joint_panel), \
                mock.patch.object(svgfig, "_curve_paths", ref_curve_paths):
            expected = render_svg(comparison, samples)
        # Blocks of 1-7 rows, so the cells, the scatter and the curve
        # points all cross a block edge.
        with mock.patch.object(_text, "_BLOCK", chunk):
            assert render_svg(comparison, samples) == expected

    def test_default_chunk_edge(self, scene):
        comparison, _ = scene
        samples = sample_copula(comparison.copulas["copula"], _text._BLOCK + 3, 5)
        with mock.patch.object(svgfig, "_joint_panel", ref_joint_panel):
            expected = render_svg(comparison, samples)
        assert render_svg(comparison, samples) == expected


def test_figure_is_held_at_most_twice():
    # 60,000 cells, so the joint panel's rows outweigh the formatter's
    # per-block arrays: the panel's pieces and the joined figure are the
    # only copies, with no whole-figure concatenation on top.
    rng = np.random.default_rng(5)
    rows = [(x, z, int(n)) for x in range(1, 61)
            for z, n in zip(range(x, x + 1000), rng.integers(1, 50, 1000))]
    comparison = compare(build_table(rows, Domain.SEGMENTS), ["hyperbolic"])
    tracemalloc.start()
    try:
        text = render_svg(comparison)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("<rect") > 60_000
    assert peak <= 2.5 * len(text)

def test_chunk_constant_lives_with_the_formatter():
    # Only _text holds the block size and the slot table, so patching a
    # copy elsewhere cannot silently leave the formatter's blocks as they are.
    assert svgfig._format_rows is _text._format_rows
    for module in (svgfig, report, cli):
        assert not {"_BLOCK", "_SLOTS", "_SAMPLE_CHUNK"} & set(vars(module)), module.__name__
    with pytest.raises(AttributeError):
        with mock.patch.object(svgfig, "_BLOCK", 1):
            pass


@given(st.text(alphabet=st.sampled_from("&<>;amp#\"'x") | st.characters()))
@settings(max_examples=200)
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape

    assert svgfig._escape(text) == escape(text)
