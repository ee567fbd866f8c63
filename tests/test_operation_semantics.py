"""The vector operations against a dense pure-Python model of the spec.

:mod:`repro.graphblas.operations` reads its operands through the vectors'
backing arrays and takes fast exits for the drivers' shapes.  This suite
checks every vector operation against :func:`spec_write` — the C spec's
three steps (T, Z = accum(C, T), masked write) over plain Python lists —
across masks x complement x REPLACE x accumulators x aliasing of the
output with an input x empty / all-present / partial operands, on both
backends, and checks the two rules that make the no-copy reads safe:
inputs are never mutated, and the output never shares storage with one.
"""

import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.galoisblas import GaloisBLASBackend
from repro.graphblas.descriptor import Descriptor, GrB_ALL
from repro.perf.machine import Machine
from repro.sparse.semiring_ops import BinaryFn
from repro.suitesparse import SuiteSparseBackend

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BACKENDS = {"SS": SuiteSparseBackend, "GB": GaloisBLASBackend}

first = lambda a, b: a  # noqa: E731
second = lambda a, b: b  # noqa: E731
BINARY = {"plus": operator.add, "minus": operator.sub, "min": min,
          "times": operator.mul, "first": first, "second": second,
          "left": first}
#: The same operators as GraphBLAS objects.  "left" and PASSTHROUGH hand
#: back their argument itself, the aliasing hazard of a no-copy read.
GB_BINARY = {name: gb.binary(name) for name in BINARY if name != "left"}
GB_BINARY["left"] = gb.BinaryOp(BinaryFn("left", lambda a, b: a))
PASSTHROUGH = gb.UnaryOp("passthrough", lambda values: values)
SEMIRINGS = ["min_plus", "plus_times", "plus_first", "min_second",
             "plus_minus"]
SELECTORS = {"gt": operator.gt, "ge": operator.ge, "lt": operator.lt,
             "le": operator.le, "eq": operator.eq, "ne": operator.ne}


# ----------------------------------------------------------------------
# The reference: lists with None for "no entry"
# ----------------------------------------------------------------------

def spec_write(c, t, allowed, accum, replace):
    """Steps 2 and 3 of the spec for output ``c`` and computed ``t``."""
    out = []
    for ci, ti, ok in zip(c, t, allowed):
        if accum is None or ci is None or ti is None:
            zi = ti if accum is None or ti is not None else ci
        else:
            zi = BINARY[accum](ci, ti)
        out.append(zi if ok else (None if replace else ci))
    return out


def spec_allowed(mask, kind, comp, n):
    if kind == "none":
        allowed = [True] * n
    elif kind == "structural":
        allowed = [m is not None for m in mask]
    else:
        allowed = [bool(m) for m in mask]
    return [not a for a in allowed] if comp else allowed


def spec_matvec(u, rows, sr, transposed):
    """``t[j] = add_i mult(u[i], rows[i][j])`` (vxm); mxv passes A's
    transpose and gets the multiply operands swapped back."""
    add, mult = (BINARY[name] for name in sr.split("_"))
    out = []
    for j in range(len(u)):
        terms = [mult(rows[i][j], u[i]) if transposed
                 else mult(u[i], rows[i][j])
                 for i in range(len(u))
                 if u[i] is not None and rows[i][j] is not None]
        out.append(reduce(add, terms) if terms else None)
    return out


def spec_union(u, v, op):
    return [BINARY[op](a, b) if a is not None and b is not None
            else (a if b is None else b) for a, b in zip(u, v)]


def spec_intersection(u, v, op):
    return [BINARY[op](a, b) if a is not None and b is not None else None
            for a, b in zip(u, v)]


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------

@st.composite
def sparse_list(draw, n, lo=-9, hi=9):
    shape = draw(st.sampled_from(["empty", "full", "partial"]))
    if shape == "empty":
        return [None] * n
    vals = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    if shape == "full":
        return vals
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [v if k else None for v, k in zip(vals, keep)]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 7))
    return {
        "n": n,
        "w": draw(sparse_list(n)), "u": draw(sparse_list(n)),
        "v": draw(sparse_list(n)), "mask": draw(sparse_list(n, 0, 2)),
        "rows": [draw(sparse_list(n, 1, 5)) for _ in range(n)],
        "mask_kind": draw(st.sampled_from(["none", "value", "structural"])),
        "comp": draw(st.booleans()), "replace": draw(st.booleans()),
        "accum": draw(st.sampled_from([None, "min", "plus"])),
        "alias": draw(st.sampled_from(["none", "u", "v", "mask"])),
        "semiring": draw(st.sampled_from(SEMIRINGS)),
        "binop": draw(st.sampled_from(sorted(BINARY))),
        "selector": draw(st.sampled_from(sorted(SELECTORS))),
        "scalar": draw(st.integers(-9, 9)),
        "indices": draw(st.lists(st.integers(0, n - 1), min_size=n,
                                 max_size=n)),
        "subset": draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1)))),
    }


def make_vector(backend, entries):
    v = gb.Vector(backend, gb.INT64, len(entries))
    for i, x in enumerate(entries):
        if x is not None:
            v.set_element(i, x)
    return v


def contents(v):
    return [v._values[i].item() if v._present[i] else None
            for i in range(v.size)]


def make_matrix(backend, rows):
    coo = [(i, j, x) for i, row in enumerate(rows)
           for j, x in enumerate(row) if x is not None]
    return gb.Matrix.from_coo(backend, gb.INT64, len(rows), len(rows),
                              [e[0] for e in coo], [e[1] for e in coo],
                              [e[2] for e in coo])


# Each operation: (the call, the reference T) over the case's operands.
def _assign_vector(w, u, v, A, kw, case):
    return gb.assign(w, u, **kw)


def _assign_scalar(w, u, v, A, kw, case):
    idx = GrB_ALL if case["subset"] is None else sorted(case["subset"])
    return gb.assign(w, case["scalar"], indices=idx, **kw)


def _t_assign_scalar(u, v, case):
    subset = case["subset"]
    return [case["scalar"] if subset is None or i in subset else None
            for i in range(case["n"])]


OPERATIONS = {
    "vxm": (lambda w, u, v, A, kw, case:
            gb.vxm(w, u, A, gb.semiring(case["semiring"]), **kw),
            lambda u, v, case:
            spec_matvec(u, case["rows"], case["semiring"], False)),
    "mxv": (lambda w, u, v, A, kw, case:
            gb.mxv(w, A, u, gb.semiring(case["semiring"]), **kw),
            lambda u, v, case:
            spec_matvec(u, list(zip(*case["rows"])), case["semiring"], True)),
    "eWiseAdd": (lambda w, u, v, A, kw, case:
                 gb.eWiseAdd(w, u, v, GB_BINARY[case["binop"]], **kw),
                 lambda u, v, case: spec_union(u, v, case["binop"])),
    "eWiseMult": (lambda w, u, v, A, kw, case:
                  gb.eWiseMult(w, u, v, GB_BINARY[case["binop"]], **kw),
                  lambda u, v, case: spec_intersection(u, v, case["binop"])),
    "apply": (lambda w, u, v, A, kw, case:
              gb.apply(w, GB_BINARY[case["binop"]].bind_second(
                  case["scalar"]), u, **kw),
              lambda u, v, case:
              [None if a is None else BINARY[case["binop"]](a, case["scalar"])
               for a in u]),
    "apply_passthrough": (lambda w, u, v, A, kw, case:
                          gb.apply(w, PASSTHROUGH, u, **kw),
                          lambda u, v, case: list(u)),
    "assign_scalar": (_assign_scalar, _t_assign_scalar),
    "assign_vector": (_assign_vector, lambda u, v, case: list(u)),
    "extract": (lambda w, u, v, A, kw, case:
                gb.extract(w, u, case["indices"], **kw),
                lambda u, v, case: [u[i] for i in case["indices"]]),
    "select": (lambda w, u, v, A, kw, case:
               gb.select(w, case["selector"], u, thunk=case["scalar"], **kw),
               lambda u, v, case:
               [a if a is not None
                and SELECTORS[case["selector"]](a, case["scalar"]) else None
                for a in u]),
}


@pytest.mark.parametrize("system", sorted(BACKENDS))
@pytest.mark.parametrize("name", sorted(OPERATIONS))
@SETTINGS
@given(case=cases())
def test_operation_matches_spec(name, system, case):
    call, reference = OPERATIONS[name]
    backend = BACKENDS[system](Machine())
    w = make_vector(backend, case["w"])
    u = w if case["alias"] == "u" else make_vector(backend, case["u"])
    v = w if case["alias"] == "v" else make_vector(backend, case["v"])
    mask = None
    if case["mask_kind"] != "none":
        mask = (w if case["alias"] == "mask"
                else make_vector(backend, case["mask"]))
    A = make_matrix(backend, case["rows"])
    before = {id(x): contents(x) for x in (w, u, v, mask) if x is not None}

    kw = {"mask": mask, "desc": Descriptor(
        mask_comp=case["comp"], replace=case["replace"],
        mask_structure=case["mask_kind"] == "structural")}
    if case["accum"]:
        kw["accum"] = gb.binary(case["accum"])
    call(w, u, v, A, kw, case)

    allowed = spec_allowed(None if mask is None else before[id(mask)],
                           case["mask_kind"], case["comp"], case["n"])
    expected = spec_write(before[id(w)],
                          reference(before[id(u)], before[id(v)], case),
                          allowed, case["accum"], case["replace"])
    assert contents(w) == expected
    assert w._values.dtype == np.int64 and w._values.flags.c_contiguous
    for x in (u, v, mask):
        if x is not None and x is not w:
            assert contents(x) == before[id(x)], "an input was mutated"
            assert not np.shares_memory(w._values, x._values)
            assert not np.shares_memory(w._present, x._present)
