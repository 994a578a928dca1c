"""Brute-force reference for the IQP tests: every feasible point of an
instance, in lexicographic order."""

import itertools


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
