"""DOT and GraphML export of analyzed partition graphs.

Every vertex carries its partition label, a class describing its
position relative to the symmetric core, its degree and local clique
number, and its distances to axis and spine (-1 when undefined).
"""

from __future__ import annotations

from html import escape
from itertools import combinations
from pathlib import Path

from .invariants import DEG, OMEGA_LOC
from .partitions import format_partition
from .pipeline import GraphAnalysis, analyze
from .report import _write_atomic

CLASS_AXIS = "axis"
CLASS_SPINE_OFF_AXIS = "spine_off_axis"
CLASS_CENTRAL_OFF_SPINE = "central_off_spine"
CLASS_OUTER = "outer"

FORMATS = ("dot", "graphml")

# (GraphML key id, attribute name, GraphML type) of each vertex attribute,
# in output order; DOT quotes the string ones.
_NODE_KEYS = (
    ("d_label", "label", "string"),
    ("d_class", "class", "string"),
    ("d_deg", "deg", "int"),
    ("d_omega", "omega_loc", "int"),
    ("d_axdist", "ax_dist", "int"),
    ("d_spdist", "sp_dist", "int"),
)


def vertex_classes(analysis: GraphAnalysis) -> list[str]:
    """Partition of the vertex set by distance: the axis (ax_dist 0), the
    spine off the axis (sp_dist 0), the rest of the narrow central region
    (ax_dist 1), and everything else. UNREACHABLE (-1) passes no test, so
    axisless n is all outer."""
    geom = analysis.geometry
    return [
        CLASS_AXIS if ax == 0
        else CLASS_SPINE_OFF_AXIS if sp == 0
        else CLASS_CENTRAL_OFF_SPINE if ax == 1
        else CLASS_OUTER
        for ax, sp in zip(geom.ax_dist, geom.sp_dist)
    ]


def _node_rows(analysis: GraphAnalysis):
    """Each vertex's attribute values, in _NODE_KEYS order."""
    geom = analysis.geometry
    return zip(
        map(format_partition, analysis.graph.vertices),
        vertex_classes(analysis),
        analysis.profiles[DEG].values,
        analysis.profiles[OMEGA_LOC].values,
        geom.ax_dist,
        geom.sp_dist,
    )


def _edges(analysis: GraphAnalysis) -> list[tuple[int, int]]:
    # Each edge (u, v), u < v, lies in one ascending clique; sorted, they come in row order.
    return sorted(p for members in analysis.graph.cliques for p in combinations(members, 2))


def render_dot(analysis: GraphAnalysis) -> str:
    lines = [f"graph g{analysis.n} {{"]
    if not analysis.geometry.is_axial:
        lines.append('  graph [axisless="true"];')
    for v, row in enumerate(_node_rows(analysis)):
        attrs = ", ".join(
            f'{name}="{x}"' if typ == "string" else f"{name}={x}"
            for (_, name, typ), x in zip(_NODE_KEYS, row)
        )
        lines.append(f"  v{v} [{attrs}];")
    for u, v in _edges(analysis):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_graphml(analysis: GraphAnalysis) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d_axisless" for="graph" attr.name="axisless" attr.type="boolean"/>',
    ]
    for key_id, name, typ in _NODE_KEYS:
        lines.append(f'  <key id="{key_id}" for="node" attr.name="{name}" attr.type="{typ}"/>')
    lines.append(f'  <graph id="g{analysis.n}" edgedefault="undirected">')
    if not analysis.geometry.is_axial:
        lines.append('    <data key="d_axisless">true</data>')
    for v, row in enumerate(_node_rows(analysis)):
        lines.append(f'    <node id="v{v}">')
        for (key_id, _, _), x in zip(_NODE_KEYS, row):
            lines.append(f'      <data key="{key_id}">{escape(str(x), quote=False)}</data>')
        lines.append("    </node>")
    for i, (u, v) in enumerate(_edges(analysis)):
        lines.append(f'    <edge id="e{i}" source="v{u}" target="v{v}"/>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def export_graph(n: int, fmt: str, path: Path) -> Path:
    """Write the analyzed graph for n to ``path`` in the given format.

    The file is replaced atomically, so a killed export leaves either the
    old file or the whole new one."""
    if fmt not in FORMATS:
        raise ValueError(f"unsupported format {fmt!r}, expected one of {FORMATS}")
    analysis = analyze(n)
    text = render_dot(analysis) if fmt == "dot" else render_graphml(analysis)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, text.encode())
    return path
