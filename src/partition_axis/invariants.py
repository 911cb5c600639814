"""Local vertex invariants and where their maximizers sit.

Three invariants are tracked: vertex degree, the local clique number
(size of the largest clique through the vertex), and the local
dimension (clique number minus one). For each one we record the
maximizer set and the smallest axial / spinal radii enclosing it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations

from .axial import AxialGeometry
from .graph import UNREACHABLE, PartitionGraph
from .partitions import transfer_moves

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
    """1 + the clique number of the subgraph induced on N(v).

    A unit transfer is fixed by its (donor size, receiver size) pair,
    receiver 0 meaning a new part. As sorted part vectors, a neighbour of
    lambda = g.vertices[v] is lambda - e_r + e_s, so two neighbours differ
    in two places, and are adjacent, exactly when they share the donor or
    the receiver; otherwise they differ in four. N(v) is therefore an
    induced subgraph of a rook's graph, and its largest clique is the
    largest set of transfers sharing a donor or sharing a receiver.
    Isolated vertices score 1 (the vertex alone is its largest clique).
    """
    moves = transfer_moves(g.vertices[v])
    if not moves:
        return 1
    donors = Counter(d for d, _ in moves)
    receivers = Counter(r for _, r in moves)
    return 1 + max(*donors.values(), *receivers.values())


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
    if geometry.is_axial:
        rho_ax = _enclosing_radius(argmax, geometry.ax_dist)
        rho_sp = _enclosing_radius(argmax, geometry.sp_dist)
    else:
        rho_ax = rho_sp = None
    return InvariantProfile(invariant_id, values, max_value, argmax, rho_ax, rho_sp)


def all_profiles(
    g: PartitionGraph, geometry: AxialGeometry
) -> dict[str, InvariantProfile]:
    """Values, maximizer set and concentration radii for each invariant.

    Radii are None for axisless n; values and argmax are still produced.
    The clique values are computed once; dim_loc is omega_loc shifted
    down by one, so it shares omega_loc's argmax and radii.
    """
    omega = _build_profile(
        OMEGA_LOC,
        tuple(local_clique_number(g, v) for v in range(g.num_vertices)),
        geometry,
    )
    return {
        DEG: _build_profile(DEG, tuple(len(a) for a in g.adjacency), geometry),
        OMEGA_LOC: omega,
        DIM_LOC: replace(
            omega,
            invariant_id=DIM_LOC,
            values=tuple(x - 1 for x in omega.values),
            max_value=omega.max_value - 1,
        ),
    }
