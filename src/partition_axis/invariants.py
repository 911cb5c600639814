"""Local vertex invariants and where their maximizers sit.

Three invariants are tracked: vertex degree, the local clique number
(size of the largest clique through the vertex), and the local
dimension (clique number minus one). For each one we record the
maximizer set and the smallest axial / spinal radii enclosing it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .axial import AxialGeometry
from .graph import UNREACHABLE, PartitionGraph

DEG = "deg"
OMEGA_LOC = "omega_loc"
DIM_LOC = "dim_loc"
INVARIANTS = (DEG, OMEGA_LOC, DIM_LOC)

ORACLE_DEGREE_LIMIT = 25


class OracleInfeasibleError(ValueError):
    """Vertex degree exceeds the brute-force subset enumeration bound."""


@dataclass(frozen=True, eq=False)
class InvariantProfile:
    invariant_id: str
    values: tuple[int, ...]
    max_value: int
    argmax: frozenset[int]
    rho_ax: int | None
    rho_sp: int | None


def local_clique_number(g: PartitionGraph, v: int) -> int:
    """1 + the clique number of the subgraph induced on N(v), from the
    distinct parts of lambda = g.vertices[v].

    A unit transfer is fixed by its (donor size, receiver size) pair,
    receiver 0 meaning a new part. Two neighbours lambda - e_r + e_s are
    adjacent exactly when they share the donor or the receiver (else they
    differ in four places), so N(v) is an induced subgraph of a rook's
    graph. In Young's lattice (see build_graph) a donor clique with
    lambda is the set of k(nu) + 1 upper covers of nu = lambda minus one
    cell, and a receiver clique with lambda the k(mu) lower covers of
    mu = lambda plus one cell; k counts distinct parts.

    With S the part sizes and m_v the multiplicity of v, donor v in S has
    r(v) = k + 1 - [v-1 in S+{0}] - [m_v = 1] receivers (v-1 gives lambda
    back, v needs a second part v); receiver w in S+{0} has
    d(w) = k - [w+1 in S] - [w in S, m_w = 1] donors. As d(0) <= r(min S)
    and r(w) - d(w) = 1 - [w-1 in S+{0}] + [w+1 in S] >= 0,
    omega_loc = 1 + max r: k + 2 less the fewest receivers a donor lacks.
    Each run is read at its last index, where the part above equals it
    iff m_v > 1; (1,) scores 1.
    """
    parts = g.vertices[v]
    lost = [
        (below == size - 1) + (above != size)
        for above, size, below in zip((0, *parts), parts, (*parts[1:], 0))
        if size != below
    ]
    return len(lost) + 2 - min(lost)


def local_clique_number_oracle(g: PartitionGraph, v: int) -> int:
    """Same value as local_clique_number, by checking every subset of N(v).

    Subsets are tried in increasing size; once no subset of size k is a
    clique, no larger one can be, so the scan stops. Only feasible for
    small degrees.
    """
    neighborhood = g.adjacency[v]
    if len(neighborhood) > ORACLE_DEGREE_LIMIT:
        raise OracleInfeasibleError(
            f"deg={len(neighborhood)} exceeds oracle bound {ORACLE_DEGREE_LIMIT}"
        )
    adj = {u: set(g.adjacency[u]) for u in neighborhood}
    best = 0
    for k in range(1, len(neighborhood) + 1):
        found = False
        for subset in combinations(neighborhood, k):
            if all(b in adj[a] for a, b in combinations(subset, 2)):
                found = True
                break
        if not found:
            break
        best = k
    return 1 + best


def _enclosing_radius(argmax: frozenset[int], dist: tuple[int, ...]) -> int | None:
    # Smallest r whose distance ball contains all maximizers: the max
    # distance over the set. No finite r exists if any is unreachable.
    distances = [dist[v] for v in argmax]
    return None if UNREACHABLE in distances else max(distances)


def _build_profile(
    invariant_id: str, values: tuple[int, ...], geometry: AxialGeometry
) -> InvariantProfile:
    max_value = max(values)
    argmax = frozenset(v for v, x in enumerate(values) if x == max_value)
    rho_ax = _enclosing_radius(argmax, geometry.ax_dist)
    rho_sp = _enclosing_radius(argmax, geometry.sp_dist)
    return InvariantProfile(invariant_id, values, max_value, argmax, rho_ax, rho_sp)


def all_profiles(
    g: PartitionGraph, geometry: AxialGeometry
) -> dict[str, InvariantProfile]:
    """Values, maximizer set and concentration radii for each invariant.

    A radius is None when a maximizer is unreachable, as for axisless n.
    The clique values are computed once; dim_loc is omega_loc shifted
    down by one, so it shares omega_loc's argmax and radii. deg is read
    off the clique cover: the sum of |K| - 1 over the cliques K through v.
    """
    omega = _build_profile(
        OMEGA_LOC,
        tuple(local_clique_number(g, v) for v in range(g.num_vertices)),
        geometry,
    )
    cliques = g.cliques
    deg = tuple(sum(len(cliques[k]) - 1 for k in ks) for ks in g.vertex_cliques)
    return {
        DEG: _build_profile(DEG, deg, geometry),
        OMEGA_LOC: omega,
        DIM_LOC: replace(
            omega,
            invariant_id=DIM_LOC,
            values=tuple(x - 1 for x in omega.values),
            max_value=omega.max_value - 1,
        ),
    }
