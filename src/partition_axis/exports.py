"""DOT and GraphML export of analyzed partition graphs.

Every vertex carries its partition label, a class describing its
position relative to the symmetric core, its degree and local clique
number, and its distances to axis and spine (-1 when undefined).
"""

from __future__ import annotations

from html import escape
from itertools import combinations
from pathlib import Path

from .axial import central_region
from .invariants import DEG, OMEGA_LOC
from .partitions import format_partition
from .pipeline import GraphAnalysis, analyze
from .report import _write_atomic

CLASS_AXIS = "axis"
CLASS_SPINE_OFF_AXIS = "spine_off_axis"
CLASS_CENTRAL_OFF_SPINE = "central_off_spine"
CLASS_OUTER = "outer"
VERTEX_CLASSES = (CLASS_AXIS, CLASS_SPINE_OFF_AXIS, CLASS_CENTRAL_OFF_SPINE, CLASS_OUTER)

FORMATS = ("dot", "graphml")


def vertex_classes(analysis: GraphAnalysis) -> list[str]:
    """Partition of the vertex set: axis, spine off axis, first central
    shell off spine, and everything else. All outer for axisless n."""
    geom = analysis.geometry
    narrow = central_region(geom, 1)
    classes = []
    for v in range(analysis.graph.num_vertices):
        if v in geom.axis:
            classes.append(CLASS_AXIS)
        elif v in geom.spine:
            classes.append(CLASS_SPINE_OFF_AXIS)
        elif v in narrow:
            classes.append(CLASS_CENTRAL_OFF_SPINE)
        else:
            classes.append(CLASS_OUTER)
    return classes


def _vertex_attributes(analysis: GraphAnalysis) -> list[dict[str, object]]:
    geom = analysis.geometry
    classes = vertex_classes(analysis)
    deg = analysis.profiles[DEG].values
    omega = analysis.profiles[OMEGA_LOC].values
    rows = []
    for v, parts in enumerate(analysis.graph.vertices):
        rows.append(
            {
                "label": format_partition(parts),
                "class": classes[v],
                "deg": deg[v],
                "omega_loc": omega[v],
                "ax_dist": geom.ax_dist[v],
                "sp_dist": geom.sp_dist[v],
            }
        )
    return rows


def _edges(analysis: GraphAnalysis) -> list[tuple[int, int]]:
    # Each edge (u, v), u < v, lies in one ascending clique; sorted, they come in row order.
    return sorted(p for members in analysis.graph.cliques for p in combinations(members, 2))


def render_dot(analysis: GraphAnalysis) -> str:
    lines = [f"graph g{analysis.n} {{"]
    if not analysis.geometry.is_axial:
        lines.append('  graph [axisless="true"];')
    for v, attrs in enumerate(_vertex_attributes(analysis)):
        lines.append(
            f'  v{v} [label="{attrs["label"]}", class="{attrs["class"]}", '
            f'deg={attrs["deg"]}, omega_loc={attrs["omega_loc"]}, '
            f'ax_dist={attrs["ax_dist"]}, sp_dist={attrs["sp_dist"]}];'
        )
    for u, v in _edges(analysis):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPHML_KEYS = [
    ("d_axisless", "graph", "axisless", "boolean"),
    ("d_label", "node", "label", "string"),
    ("d_class", "node", "class", "string"),
    ("d_deg", "node", "deg", "int"),
    ("d_omega", "node", "omega_loc", "int"),
    ("d_axdist", "node", "ax_dist", "int"),
    ("d_spdist", "node", "sp_dist", "int"),
]

_NODE_KEY_IDS = {name: key_id for key_id, domain, name, _ in _GRAPHML_KEYS if domain == "node"}


def render_graphml(analysis: GraphAnalysis) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for key_id, domain, name, typ in _GRAPHML_KEYS:
        lines.append(
            f'  <key id="{key_id}" for="{domain}" '
            f'attr.name="{name}" attr.type="{typ}"/>'
        )
    lines.append(f'  <graph id="g{analysis.n}" edgedefault="undirected">')
    if not analysis.geometry.is_axial:
        lines.append('    <data key="d_axisless">true</data>')
    for v, attrs in enumerate(_vertex_attributes(analysis)):
        lines.append(f'    <node id="v{v}">')
        for name, key_id in _NODE_KEY_IDS.items():
            lines.append(f'      <data key="{key_id}">{escape(str(attrs[name]), quote=False)}</data>')
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
