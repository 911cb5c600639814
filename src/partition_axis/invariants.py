"""Local vertex invariants and where their maximizers sit.

Three invariants are tracked: vertex degree, the local clique number
(size of the largest clique through the vertex), and the local
dimension (clique number minus one). For each one we record the
maximizer set and the smallest axial / spinal radii enclosing it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import pairwise

from .axial import AxialGeometry
from .graph import UNREACHABLE, PartitionGraph

DEG = "deg"
OMEGA_LOC = "omega_loc"
DIM_LOC = "dim_loc"
INVARIANTS = (DEG, OMEGA_LOC, DIM_LOC)

ORACLE_DEGREE_LIMIT = 25


class OracleInfeasibleError(ValueError):
    """Vertex degree exceeds the exhaustive clique search's bound."""


@dataclass(frozen=True, eq=False)
class InvariantProfile:
    """One invariant's per-vertex values, maximum, maximizer set and the
    smallest axial / spinal radii enclosing that set.

    dim_loc keeps no values of its own: its values are None, and each
    vertex's dim_loc is omega_loc's value there less one.
    """

    values: tuple[int, ...] | None
    max_value: int
    argmax: frozenset[int]
    rho_ax: int | None
    rho_sp: int | None


def local_clique_number(g: PartitionGraph, v: int) -> int:
    """1 + the clique number of the subgraph induced on N(v): the size of
    the largest clique of the cover through v.

    A unit transfer is fixed by its (donor size, receiver size) pair,
    receiver 0 meaning a new part. Two neighbours lambda - e_r + e_s are
    adjacent exactly when they share the donor or the receiver (else they
    differ in four places), so N(v) is an induced subgraph of a rook's
    graph, and a clique through lambda lies in one donor or one receiver
    line with lambda. In Young's lattice (see build_graph) donor line r
    with lambda is the cover clique of nu = lambda minus a cell from the
    last part r, and receiver line s with lambda is the k(mu) lower
    covers of mu = lambda plus a cell on the first part s (a new part for
    s = 0); k counts distinct parts.

    No receiver line outgrows every donor line. One cell changes k by at
    most one, so k(nu) + 1 >= k(lambda) >= k(mu) - 1. If
    k(mu) = k(lambda) + 1, then s + 1 is no part, and s is a repeated
    part or 0 with 1 no part. Then nu from the last part s, or from the
    smallest part (at least 2, so it leaves a new size), has
    k(nu) >= k(lambda). Every vertex lies in k(lambda) >= 1 cliques.
    """
    starts = g.vertex_cliques.starts
    return max(g.incidence_sizes[starts[v] : starts[v + 1]])


def local_clique_number_oracle(g: PartitionGraph, v: int) -> int:
    """Same value as local_clique_number, by an exhaustive clique search
    in N(v) that reads only adjacency rows.

    The cliques of N(v) are grown level by level, each listed once: a
    clique of size k + 1 is one of size k extended by a common neighbour
    larger than all its members. A clique is carried as the set of those
    larger common neighbours, which is all its extensions need. The
    search ends at the first empty level. Only feasible for small degrees.
    """
    neighborhood = g.adjacency[v]
    if len(neighborhood) > ORACLE_DEGREE_LIMIT:
        raise OracleInfeasibleError(
            f"deg={len(neighborhood)} exceeds oracle bound {ORACLE_DEGREE_LIMIT}"
        )
    inside = set(neighborhood)
    later = {u: {w for w in g.adjacency[u] if w > u and w in inside} for u in neighborhood}
    level = list(later.values())  # the cliques {u} of size 1
    size = 0
    while level:
        size += 1
        level = [common & later[w] for common in level for w in common]
    return 1 + size


def _enclosing_radius(argmax: frozenset[int], dist: tuple[int, ...]) -> int | None:
    # Smallest r whose distance ball contains all maximizers: the max
    # distance over the set. No finite r exists if any is unreachable.
    distances = [dist[v] for v in argmax]
    return None if UNREACHABLE in distances else max(distances)


def _build_profile(values: tuple[int, ...], geometry: AxialGeometry) -> InvariantProfile:
    max_value = max(values)
    argmax = frozenset(v for v, x in enumerate(values) if x == max_value)
    rho_ax = _enclosing_radius(argmax, geometry.ax_dist)
    rho_sp = _enclosing_radius(argmax, geometry.sp_dist)
    return InvariantProfile(values, max_value, argmax, rho_ax, rho_sp)


def all_profiles(
    g: PartitionGraph, geometry: AxialGeometry
) -> dict[str, InvariantProfile]:
    """Values, maximizer set and concentration radii for each invariant.

    A radius is None when a maximizer is unreachable, as for axisless n.
    The clique values are computed once; dim_loc is omega_loc shifted
    down by one, so it shares omega_loc's argmax and radii and keeps no
    values (see InvariantProfile). deg is the sum of |K| - 1 over the
    cliques K through v, omega_loc the largest |K|.
    """
    omega = _build_profile(tuple(local_clique_number(g, v) for v in range(g.num_vertices)), geometry)
    sizes = g.incidence_sizes
    deg = tuple(sum(sizes[a:b]) - (b - a) for a, b in pairwise(g.vertex_cliques.starts))
    return {
        DEG: _build_profile(deg, geometry),
        OMEGA_LOC: omega,
        DIM_LOC: replace(omega, values=None, max_value=omega.max_value - 1),
    }
