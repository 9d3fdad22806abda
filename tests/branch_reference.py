"""The singular-locus certifier's branches decided one by one, sharing nothing.

``ReferencePlan`` stands in for ``singular._BranchPlan``: each branch pins its
zero variables with ``set_variables``, reduces by one ``_reduce_var`` per root
factor, and runs every chain step through ``_root_product``.  This is how the
certifier decided a branch before its branches shared one plan.
"""

import pytest

from conetower import singular


class ReferencePlan:
    def __init__(self, equation):
        self.equation = equation

    def reduce(self, zeros, roots):
        reduced = self.equation.set_variables({v: 0 for v in zeros})
        for var, modulus in roots.items():
            reduced = singular._reduce_var(reduced, var, modulus)
        return reduced

    def root_product(self, expr, used, var, modulus):
        return singular._root_product(expr, var, modulus)


def with_reference_plan(run):
    """``run()`` with every branch decided by ``ReferencePlan``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(singular, "_BranchPlan", ReferencePlan)
        return run()
