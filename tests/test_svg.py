"""SVG rendering: determinism, well-formedness, panel structure."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from menzerath import compare, render_svg, sample_copula

from util import random_table


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
