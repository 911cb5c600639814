"""The flat cover at the test boundary.

A graph stores its cliques and each vertex's clique ids as flat Rows
and computes conj on first use. Tests that compare with, or tamper
with, tuples of tuples encode and decode here, so that each assertion
keeps its old form.
"""

from array import array
from dataclasses import replace
from itertools import accumulate, chain

from partition_axis import Rows


def rows_of(rows):
    """Rows holding the given sequences of ints, in order."""
    rows = list(rows)
    return Rows(array("i", chain.from_iterable(rows)), array("i", accumulate(map(len, rows), initial=0)))


def as_tuples(rows):
    """Rows decoded to a tuple of tuples."""
    return tuple(map(tuple, rows))


def with_conj(g, conj):
    """A copy of g whose conj is ``conj``: the value the lazy property
    would compute, set in advance."""
    copy = replace(g)
    vars(copy)["conj"] = array("i", conj)
    return copy
