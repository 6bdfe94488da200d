"""Shared builders for the test suite.

Everything here is cached so the catalogs and algebras are constructed once
per session no matter how many test modules ask for them.
"""

import copy
import hashlib
from functools import lru_cache
from pathlib import Path

from greenseq import io as gio
from greenseq.qp import Arrow, Quiver, Relation
from greenseq.rep import Algebra, algebra_from_qp, string_catalog

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

PROBLEM_NAMES = ("a3_cyclic", "a5_example", "d4_cyclic", "a9_example")


@lru_cache(maxsize=None)
def problem(name):
    return gio.load_problem(str(PROBLEMS / f"{name}.json"))


@lru_cache(maxsize=None)
def algebra(name, p=2):
    return algebra_from_qp(problem(name).qp, p)


@lru_cache(maxsize=None)
def catalog(name, p=2):
    return string_catalog(algebra(name, p))


@lru_cache(maxsize=None)
def nakayama_algebra(p=2):
    """Cyclic quiver on four vertices with every path of length five zero.

    Not presented by a potential; used to exercise the parts of the library
    that only need an algebra, and as a source of non-Schurian modules.
    """
    quiver = Quiver(
        vertices=(1, 2, 3, 4),
        arrows=(Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("g", 3, 4), Arrow("d", 4, 1)),
    )
    succ = {"a": "b", "b": "g", "g": "d", "d": "a"}
    relations = []
    for first in "abgd":
        path = [first]
        for _ in range(4):
            path.append(succ[path[-1]])
        relations.append(Relation(terms=((1, tuple(path)),), arrow=None))
    return Algebra(quiver=quiver, relations=tuple(relations), p=p)


@lru_cache(maxsize=None)
def nakayama_catalog(p=2):
    return string_catalog(nakayama_algebra(p))


@lru_cache(maxsize=None)
def _bounds_report(name, enumerate_extrema):
    from greenseq import bounds

    return bounds.bounds_report(
        problem(name).qp, catalog(name), enumerate_extrema=enumerate_extrema
    )


def bounds_report(name, enumerate_extrema=True):
    """A fresh copy of the cached report, so no test sees another's edits."""
    return copy.deepcopy(_bounds_report(name, enumerate_extrema))


def labels(cat):
    return sorted(m.label for m in cat.modules)


def digest(reps):
    """sha256 over (dims, mats, label) of each representation, in order."""
    h = hashlib.sha256()
    for r in reps:
        h.update(repr((r.dims, r.mats, r.label)).encode())
    return h.hexdigest()
