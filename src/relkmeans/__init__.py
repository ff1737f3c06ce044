"""Approximate k-means for acyclic relational databases.

The pipeline samples k-means++ centers directly from the (never
materialized) join via rejection sampling over a laminar box forest,
weighs the sampled centers with donut-based test sampling, and clusters
the resulting weighted coreset.

Each public name loads its module on first use, so ``import relkmeans``
loads no submodule, and a CLI run loads only the modules it runs.
"""

import importlib

_MODULE_OF = {
    "LaminarForest": "boxes",
    "SamplingState": "sampling",
    "WeightConfig": "weighting",
    "WeightedCoreset": "weighting",
    "WeightedPointSet": "clustering",
    "build_boxes": "boxes",
    "compute_weights": "weighting",
    "relational_cost": "clustering",
    "run_kmeanspp": "sampling",
    "solve_weighted_kmeans": "clustering",
    "weighted_kmeanspp_seed": "clustering",
    "weighted_lloyd": "clustering",
    "CostPair": "sumprod",
    "CyclicVerdict": "relational",
    "FeatureId": "relational",
    "JoinEvaluator": "sumprod",
    "JoinTree": "relational",
    "SchemaError": "relational",
    "SchemaGraph": "relational",
    "SemiringSpec": "oracle",
    "Table": "relational",
    "costpair_semiring": "oracle",
    "counting_semiring": "oracle",
    "eval_sumprod": "oracle",
    "eval_sumprod_grouped": "oracle",
    "gyo_reduce": "relational",
    "load_database": "relational",
    "tables_to_schema": "oracle",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
