"""Exact probabilistic inference over logical worlds, from data or models."""

from .data import (
    Dataset,
    ModelDistribution,
    dataset_from_csv,
    distribution_from_text,
    read_dataset_csv,
    read_distribution,
)
from .engine import (
    LIMIT_ONE,
    ONE,
    Query,
    Regime,
    RunningEstimate,
    SubsetAnalysis,
    UNDEFINED,
    Undefined,
    classical_entails,
    cond_prob,
    cond_prob_multi,
    fixed,
    generative_consequence,
    joint_prob,
    mcs,
    mle_distribution,
    mps,
    posterior_data,
    posterior_models,
    possible_entails,
    prob,
    running_estimate,
    update,
)
from .formulas import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    ground,
    pretty,
)
from .parser import ParseError, parse_formula, parse_premises, parse_query
from .signature import Signature
from .worlds import TooManyAtoms, World, enumerate_worlds, evaluate

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "Const", "Dataset", "Exists", "Forall", "Formula", "Iff",
    "Implies", "LIMIT_ONE", "ModelDistribution", "Not", "ONE", "Or",
    "ParseError", "Query", "Regime", "RunningEstimate", "Signature",
    "SubsetAnalysis", "TooManyAtoms", "UNDEFINED", "Undefined", "Var", "World",
    "classical_entails", "cond_prob", "cond_prob_multi", "dataset_from_csv",
    "distribution_from_text", "enumerate_worlds", "evaluate", "fixed",
    "generative_consequence", "ground", "joint_prob", "mcs",
    "mle_distribution", "mps", "parse_formula", "parse_premises",
    "parse_query", "posterior_data", "posterior_models", "possible_entails",
    "pretty", "prob", "read_dataset_csv", "read_distribution",
    "running_estimate", "update",
]
