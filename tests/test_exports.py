import ast
import hashlib
import os
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

from partition_axis import exports
from partition_axis.exports import (
    CLASS_AXIS,
    CLASS_CENTRAL_OFF_SPINE,
    CLASS_OUTER,
    CLASS_SPINE_OFF_AXIS,
    export_graph,
    render_dot,
    render_graphml,
    vertex_classes,
)

from memo import analyze
from oracles import vertex_classes_by_membership

GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


class TestVertexClasses:
    def test_n1_single_axis_vertex(self):
        assert vertex_classes(analyze(1)) == [CLASS_AXIS]

    def test_n9_counts(self):
        counts = Counter(vertex_classes(analyze(9)))
        assert counts[CLASS_AXIS] == 2
        assert counts[CLASS_SPINE_OFF_AXIS] == 0
        assert counts[CLASS_CENTRAL_OFF_SPINE] == 6
        assert counts[CLASS_OUTER] == 22

    def test_n24_counts(self):
        counts = Counter(vertex_classes(analyze(24)))
        assert counts[CLASS_AXIS] == 11
        assert counts[CLASS_SPINE_OFF_AXIS] == 40
        assert counts[CLASS_CENTRAL_OFF_SPINE] == 68
        assert counts[CLASS_OUTER] == 1456

    def test_partition_of_vertex_set(self):
        for n in range(1, 16):
            a = analyze(n)
            assert len(vertex_classes(a)) == a.graph.num_vertices

    def test_axisless_all_outer(self):
        assert vertex_classes(analyze(2)) == [CLASS_OUTER, CLASS_OUTER]

    def test_distances_agree_with_set_membership_through_n20(self):
        # n = 2 is axisless: every distance is UNREACHABLE.
        for n in range(1, 21):
            a = analyze(n)
            assert vertex_classes(a) == vertex_classes_by_membership(a), n


# sha256 of the rendered files as written when the classes were read off
# the axis, spine and C^(1) sets; reading them off the distances keeps
# every byte.
PINNED_SHA256 = {
    (2, "dot"): "c1f32ab750fb838a2eec309686bb4bd37dc1ceb52619d2bf994d7d5468d56c1b",
    (2, "graphml"): "0ecc391c7b60a97164bb3df29fe479fade13bdd513a57f74e9f38a5d7c955e7a",
    (9, "dot"): "47b560a45010cd673e8097a1163c70a23f8b4e6387f2916878ac725a42045cd1",
    (9, "graphml"): "c5d110c2fdf2cd4375d61f417544406915118b582b7302f75d71eb8e240ae141",
    (16, "dot"): "1a2a761cf08c445371276d742025d7834d6d99a6287fd4e697958d791509c2fb",
    (16, "graphml"): "b1a83a17d3f6fcfc7e942eec82ef7b3f177c66566514d1cc1dd0cc11a91cab80",
}


@pytest.mark.parametrize("n, fmt", sorted(PINNED_SHA256))
def test_rendered_bytes_are_pinned(n, fmt):
    render = render_dot if fmt == "dot" else render_graphml
    digest = hashlib.sha256(render(analyze(n)).encode()).hexdigest()
    assert digest == PINNED_SHA256[n, fmt]


def test_exports_import_nothing_from_axial_in_source():
    # Every vertex class is a condition on the recorded distances.
    tree = ast.parse(Path(exports.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "axial" not in modules


class TestDot:
    def test_vertex_line_carries_attributes(self):
        text = render_dot(analyze(4))
        assert 'v2 [label="2,2", class="axis", deg=2, omega_loc=3, ax_dist=0, sp_dist=0];' in text

    def test_edge_lines_unique(self):
        a = analyze(6)
        lines = [l for l in render_dot(a).splitlines() if " -- " in l]
        assert len(lines) == a.graph.num_edges

    def test_axisless_graph_attribute(self):
        text = render_dot(analyze(2))
        assert 'graph [axisless="true"];' in text
        assert 'ax_dist=-1' in text

    def test_axial_graph_has_no_axisless_attribute(self):
        assert "axisless" not in render_dot(analyze(5))


class TestGraphml:
    def _parse_nodes(self, text):
        root = ET.fromstring(text)
        graph = root.find(f"{GRAPHML_NS}graph")
        keys = {k.get("id"): k.get("attr.name") for k in root.findall(f"{GRAPHML_NS}key")}
        nodes = {}
        for node in graph.findall(f"{GRAPHML_NS}node"):
            attrs = {
                keys[d.get("key")]: d.text
                for d in node.findall(f"{GRAPHML_NS}data")
            }
            nodes[node.get("id")] = attrs
        return graph, nodes

    def test_wellformed_and_complete(self):
        a = analyze(8)
        graph, nodes = self._parse_nodes(render_graphml(a))
        assert len(nodes) == a.graph.num_vertices
        assert len(graph.findall(f"{GRAPHML_NS}edge")) == a.graph.num_edges
        assert graph.get("edgedefault") == "undirected"

    def test_node_attributes(self):
        a = analyze(8)
        _, nodes = self._parse_nodes(render_graphml(a))
        root_vertex = nodes["v0"]
        assert root_vertex["label"] == "8"
        assert set(root_vertex) == {"label", "class", "deg", "omega_loc", "ax_dist", "sp_dist"}
        spine_labels = {
            attrs["label"] for attrs in nodes.values() if attrs["class"] == CLASS_SPINE_OFF_AXIS
        }
        assert spine_labels == {"3,2,2,1", "3,3,1,1", "4,2,2", "4,3,1"}

    def test_axisless_graph_data(self):
        text = render_graphml(analyze(2))
        graph, nodes = self._parse_nodes(text)
        data = graph.find(f"{GRAPHML_NS}data")
        assert data is not None and data.text == "true"
        assert all(attrs["class"] == CLASS_OUTER for attrs in nodes.values())


class TestExportGraph:
    def test_writes_dot(self, tmp_path):
        path = export_graph(5, "dot", tmp_path / "g.dot")
        assert path.read_text().startswith("graph g5 {")

    def test_writes_graphml(self, tmp_path):
        path = export_graph(5, "graphml", tmp_path / "g.graphml")
        ET.parse(path)

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_graph(5, "gexf", tmp_path / "g.gexf")

    def test_failed_replace_keeps_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = export_graph(5, "dot", tmp_path / "g.dot")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            export_graph(6, "dot", path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
