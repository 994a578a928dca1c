import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossnum.drawing import crossing_count, zee
from crossnum.graphs import CompressedGraph
from crossnum.iqp import (
    IqpCapExceeded,
    IqpInstance,
    _bound,
    _propagate,
    build_iqp,
    iqp_to_text,
    objective,
    solve_iqp,
)
from crossnum.pipeline import enumerate_clusterings

from iqp_reference import feasible_points, true_value


def make_instance(groups, q, p, r=0):
    return IqpInstance(tuple(groups), tuple(map(tuple, q)), tuple(p), r)


def k33_clustering():
    """Two degree-3 representatives drawn without mutual crossings."""
    cg = CompressedGraph.make(3, (), {7: 3})
    for c in enumerate_clusterings(cg, 0):
        if len(c.reps) == 2:
            return c, cg
    raise AssertionError("planar two-star clustering not found")


def k33_instance():
    return build_iqp(*k33_clustering())


@st.composite
def small_instances(draw, max_h=6):
    """1-3 groups of 1-3 coordinates, h <= max_h, entries 0..3 (ties are
    common)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    groups = [
        (i + 1, size, draw(st.integers(1, max_h)))
        for i, size in enumerate(sizes)
    ]
    n = sum(sizes)
    entry = st.integers(0, 3)
    q = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            q[a][b] = q[b][a] = draw(entry)
    p = [draw(entry) for _ in range(n)]
    return make_instance(groups, q, p, draw(entry))


def test_build_iqp_k33():
    inst = k33_instance()
    assert inst.q == ((1, 0), (0, 1))
    assert inst.p == (0, 0)
    assert inst.r == 0
    assert inst.groups == ((7, 2, 3),)


def test_build_iqp_k2n():
    cg = CompressedGraph.make(2, (), {3: 5})
    (c,) = list(enumerate_clusterings(cg, 0))
    inst = build_iqp(c, cg)
    assert inst.q == ((0,),) and inst.p == (0,) and inst.r == 0


def test_build_iqp_edgeless_gx_zero_p():
    cg = CompressedGraph.make(3, (), {7: 2, 3: 1})
    for c in enumerate_clusterings(cg, 2):
        inst = build_iqp(c, cg)
        assert inst.p == tuple(0 for _ in inst.p)
        assert inst.r == 0


def test_solve_single_point():
    inst = make_instance([(7, 1, 3)], [[1]], [0])
    sol = solve_iqp(inst)
    assert sol.z == (3,) and sol.f == 9


def test_solve_empty_instance():
    # no representatives: the one box is empty, f = 0 and the value is r
    sol = solve_iqp(make_instance([], [], [], r=3))
    assert (sol.z, sol.f, sol.value) == ((), 0, 3)
    with pytest.raises(IqpCapExceeded):
        solve_iqp(make_instance([], [], [], r=3), cap=0)


def test_solve_k33_tiebreak():
    inst = k33_instance()
    sol = solve_iqp(inst)
    assert sol.f == 5
    assert sol.z == (1, 2)  # lexicographically least of (1,2) / (2,1)
    assert sol.value == 1


def test_solve_linear():
    inst = make_instance([(3, 2, 4)], [[0, 0], [0, 0]], [2, 1])
    sol = solve_iqp(inst)
    assert sol.z == (0, 4) and sol.f == 8


def test_true_value_examples():
    inst = k33_instance()
    assert true_value(inst, (1, 2)) == 1
    assert true_value(inst, (2, 1)) == 1
    assert true_value(inst, (3, 0)) == 3

    n = 10**6
    single = make_instance([(7, 1, n)], [[zee(3)]], [0])
    sol = solve_iqp(single)
    assert sol.value == n * (n - 1) // 2

    const = make_instance([(1, 2, 2)], [[0, 0], [0, 0]], [0, 0], r=4)
    assert true_value(const, (1, 1)) == 4


def test_objective_true_value_identity():
    """f(z) - 2(true_value(z) - r) == sum_i Z(|Y_i|) h(Y_i) for feasible z."""
    instances = []
    for cg in (
        CompressedGraph.make(3, (), {7: 3}),
        CompressedGraph.make(3, ((0, 1),), {7: 2, 3: 2}),
        CompressedGraph.make(2, (), {3: 4, 1: 2}),
    ):
        for c in enumerate_clusterings(cg, 2):
            instances.append(build_iqp(c, cg))
    assert instances
    for inst in instances:
        const = sum(
            zee(bin(mask).count("1")) * h for mask, _, h in inst.groups
        )
        for z in feasible_points(inst):
            assert objective(inst, z) - 2 * (true_value(inst, z) - inst.r) == const


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_instances())
@example(make_instance([(7, 2, 5)], [[1, 3], [3, 1]], [2, 0], 1))
@example(make_instance([(7, 2, 4), (3, 1, 4)],
                       [[1, 0, 2], [0, 1, 1], [2, 1, 0]], [0, 3, 1], 0))
@example(make_instance([(7, 3, 4)], [[1, 5, 0], [5, 1, 2], [0, 2, 1]],
                       [1, 1, 1], 2))
# h up to 40, where the water-filling bound prunes boxes that f at the least
# corner would expand
@example(make_instance([(7, 2, 40)], [[1, 0], [0, 1]], [0, 0]))
@example(make_instance([(7, 2, 37), (3, 2, 40)],
                       [[3, 1, 0, 2], [1, 2, 1, 0], [0, 1, 1, 0], [2, 0, 0, 3]],
                       [0, 2, 1, 0]))
def test_solver_matches_enumeration(inst):
    """The least (f, z) over all feasible points, ties broken by z."""
    best = min((objective(inst, z), z) for z in feasible_points(inst))
    sol = solve_iqp(inst)
    assert (sol.f, sol.z) == best
    assert sol.value == true_value(inst, sol.z)


@st.composite
def instances_with_boxes(draw):
    """A small instance (h <= 8) and a propagated sub-box around one of its
    feasible points, so the box is never empty."""
    inst = draw(small_instances(max_h=8))
    groups = list(zip(inst.index_groups(), (h for _, _, h in inst.groups)))
    z = draw(st.sampled_from(list(feasible_points(inst))))
    box = []
    for ix, h in groups:
        for i in ix:
            box.append((draw(st.integers(0, z[i])), draw(st.integers(z[i], h))))
    return inst, groups, _propagate(groups, box)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances_with_boxes(), st.booleans())
def test_bound_is_valid_and_exact_on_diagonal_q(case, diagonal):
    """The box bound never exceeds min f over the box, and its point is a
    feasible point of the box.  When Q is diagonal (f is then separable),
    the bound is min f and the point reaches it."""
    inst, groups, box = case
    if diagonal:
        n = inst.size
        q = [[inst.q[a][b] if a == b else 0 for b in range(n)]
             for a in range(n)]
        inst = make_instance(inst.groups, q, inst.p, inst.r)
    in_box = [
        z for z in feasible_points(inst)
        if all(lo <= x <= hi for x, (lo, hi) in zip(z, box))
    ]
    best = min(objective(inst, z) for z in in_box)
    bound, point = _bound(inst, groups, box, tuple(lo for lo, _ in box))
    assert bound <= best
    assert point in in_box
    if diagonal:
        assert bound == objective(inst, point) == best


def test_group_symmetry():
    inst = make_instance([(7, 2, 6)], [[1, 0], [0, 1]], [0, 0])
    sol = solve_iqp(inst)
    assert sorted(sol.z) == [3, 3]


def test_argmin_sets_agree():
    """Minimizers of f coincide with minimizers of the true value."""
    cases = [
        ([(7, 2, 4)], [[1, 1], [1, 1]], [0, 1], 0),
        ([(7, 2, 3), (3, 1, 2)], [[1, 2, 0], [2, 1, 1], [0, 1, 0]], [1, 0, 0], 1),
    ]
    for groups, q, p, r in cases:
        inst = make_instance(groups, q, p, r)
        pts = list(feasible_points(inst))
        f_min = min(objective(inst, z) for z in pts)
        v_min = min(true_value(inst, z) for z in pts)
        by_f = {z for z in pts if objective(inst, z) == f_min}
        by_v = {z for z in pts if true_value(inst, z) == v_min}
        assert by_f == by_v


def test_branch_and_bound_path():
    """Huge targets solve within the default node cap."""
    n = 10**6
    inst = make_instance([(7, 2, n)], [[1, 0], [0, 1]], [0, 0])
    sol = solve_iqp(inst)
    assert sol.z == (n // 2, n // 2)
    assert sol.value == (n // 2) * ((n - 1) // 2)

    # concave interaction: optimum at an extreme point
    inst2 = make_instance([(7, 2, 10**5)], [[1, 9], [9, 1]], [0, 0])
    sol2 = solve_iqp(inst2)
    assert sol2.z == (0, 10**5)


def test_bb_matches_enumeration_medium():
    inst = make_instance([(7, 2, 40), (3, 2, 30)],
                         [[2, 1, 0, 3], [1, 2, 1, 0],
                          [0, 1, 0, 2], [3, 0, 2, 0]],
                         [1, 0, 2, 0])
    brute = min((objective(inst, z), z) for z in feasible_points(inst))
    sol = solve_iqp(inst)
    assert (sol.f, sol.z) == brute


def test_cap_exceeded_signal():
    n = 10**6
    inst = make_instance(
        [(7, 3, n)],
        [[1, 9, 9], [9, 1, 9], [9, 9, 1]],
        [0, 0, 0],
    )
    with pytest.raises(IqpCapExceeded):
        solve_iqp(inst, cap=3)


def test_iqp_dump_format():
    inst = k33_instance()
    text = iqp_to_text(inst)
    assert text.splitlines()[0] == "iqp"
    assert "groups 7:2:3" in text
    assert "r 0" in text
