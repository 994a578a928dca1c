"""References for the IQP tests: every feasible point of an instance, in
lexicographic order, and the value of a point written out directly."""

import itertools
from math import comb

from crossnum.iqp import IqpInstance


def _compositions(total: int, parts: int):
    """Weak compositions in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def feasible_points(inst):
    per_group = [
        list(_compositions(h, size)) for _, size, h in inst.groups
    ]
    for combo in itertools.product(*per_group):
        yield tuple(x for part in combo for x in part)


def true_value(inst: IqpInstance, z) -> int:
    """r + weighted crossings of the clustering + forced cluster crossings.

    Computed directly rather than by inverting f: the two differ by the
    instance constant sum_i Z(|Y_i|) * h(Y_i) (see the objective/true-value
    identity in the tests).
    """
    q, p = inst.q, inst.p
    n = inst.size
    total = inst.r
    for a in range(n):
        za = z[a]
        if not za:
            continue
        total += p[a] * za
        for b in range(a + 1, n):
            total += q[a][b] * za * z[b]
        total += comb(za, 2) * q[a][a]
    return total
