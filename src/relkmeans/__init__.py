"""Approximate k-means for acyclic relational databases.

The pipeline samples k-means++ centers directly from the (never
materialized) join via rejection sampling over a laminar box forest,
weighs the sampled centers with donut-based test sampling, and clusters
the resulting weighted coreset.
"""

from .relational import (
    CyclicVerdict,
    FeatureId,
    JoinTree,
    SchemaError,
    SchemaGraph,
    Table,
    gyo_reduce,
    load_database,
    tables_to_schema,
)
from .sumprod import (
    CostPair,
    JoinEvaluator,
    SemiringSpec,
    costpair_semiring,
    counting_semiring,
    eval_sumprod,
    eval_sumprod_grouped,
)
from .boxes import LaminarForest, build_boxes
from .sampling import SamplingState, run_kmeanspp
from .weighting import WeightConfig, WeightedCoreset, compute_weights
from .clustering import (
    WeightedPointSet,
    relational_cost,
    solve_weighted_kmeans,
    weighted_kmeanspp_seed,
    weighted_lloyd,
)

__all__ = [
    "LaminarForest",
    "SamplingState",
    "WeightConfig",
    "WeightedCoreset",
    "WeightedPointSet",
    "build_boxes",
    "compute_weights",
    "relational_cost",
    "run_kmeanspp",
    "solve_weighted_kmeans",
    "weighted_kmeanspp_seed",
    "weighted_lloyd",
    "CostPair",
    "CyclicVerdict",
    "FeatureId",
    "JoinEvaluator",
    "JoinTree",
    "SchemaError",
    "SchemaGraph",
    "SemiringSpec",
    "Table",
    "costpair_semiring",
    "counting_semiring",
    "eval_sumprod",
    "eval_sumprod_grouped",
    "gyo_reduce",
    "load_database",
    "tables_to_schema",
]
