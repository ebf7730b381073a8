"""Staircase join family: iterative, loop-lifted, and pushdown variants."""

from .axes import ANY_ELEMENT, ANY_NODE, Axis, NodeTest, axis_region
from .baseline_joins import structural_join, structural_join_descendant_step
from .iterative import StaircaseStats, attribute_step, naive_axis, staircase_join
from .loop_lifted import (ancestor_stack_scan, iterative_step,
                          ll_ancestor_arrays, ll_attribute, ll_child,
                          ll_descendant, ll_following_arrays,
                          ll_parent_arrays, ll_preceding_arrays,
                          ll_self_arrays, ll_siblings_arrays,
                          loop_lifted_step, loop_lifted_step_arrays,
                          normalize_context)
from .pushdown import (candidate_list, ll_child_pushdown,
                       ll_descendant_pushdown, ll_following_pushdown,
                       ll_preceding_pushdown, ll_sibling_pushdown,
                       loop_lifted_step_pushdown)

__all__ = [
    "ANY_ELEMENT",
    "ANY_NODE",
    "Axis",
    "NodeTest",
    "StaircaseStats",
    "ancestor_stack_scan",
    "attribute_step",
    "axis_region",
    "candidate_list",
    "iterative_step",
    "ll_ancestor_arrays",
    "ll_attribute",
    "ll_child",
    "ll_child_pushdown",
    "ll_descendant",
    "ll_descendant_pushdown",
    "ll_following_arrays",
    "ll_following_pushdown",
    "ll_parent_arrays",
    "ll_preceding_arrays",
    "ll_preceding_pushdown",
    "ll_self_arrays",
    "ll_sibling_pushdown",
    "ll_siblings_arrays",
    "loop_lifted_step",
    "loop_lifted_step_arrays",
    "loop_lifted_step_pushdown",
    "naive_axis",
    "normalize_context",
    "staircase_join",
    "structural_join",
    "structural_join_descendant_step",
]
