"""Which program functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules: parser, worlds, data, engine and
mnist. A wrapped function is replaced where its callers look it up, so
``enumerate_worlds`` is wrapped in ``genlogic.data`` (its caller during set-up)
and ``posterior_data`` in ``genlogic.mnist`` (its caller in the digit
pipeline). Every traced run reports every metric below; a layer a workload
never calls reads 0 there.
"""

from __future__ import annotations

import statistics

import numpy as np

from workloads import regime_name

# Count metrics are averaged over this many window ops, so that they repeat
# exactly for a seed however many ops a run completes.
COUNT_OPS = 3


def _by_regime(prefix, position):
    def name(args, kwargs):
        regime = args[position] if len(args) > position else kwargs.get("regime")
        return f"{prefix}.{regime_name(regime) if regime is not None else 'limit'}"
    return name


def _by_estimate(args, kwargs):
    return f"engine.update.{regime_name(args[0].regime)}"


def _count_pairs(tracer, args, kwargs):
    train, test = args[0], args[1]
    tracer.counts["mnist.distance_pairs"] += len(train) * len(test)


# (module, attribute, span name or namer, options)
WRAPS = (
    ("genlogic.parser", "parse_query", "parser.parse_query", {}),
    ("genlogic.data", "read_distribution", "data.read_distribution", {}),
    ("genlogic.data", "enumerate_worlds", "worlds.enumerate_worlds", {}),
    ("genlogic.data", "read_dataset_csv", "data.read_dataset_csv", {}),
    ("genlogic.engine", "cond_prob", _by_regime("engine.cond_prob", 2), {}),
    ("genlogic.engine", "posterior_models", "engine.posterior_models", {}),
    ("genlogic.engine", "mcs", "engine.mcs", {}),
    ("genlogic.engine", "mps", "engine.mps", {}),
    ("genlogic.engine", "evaluate", "engine.evaluate", {"count_only": True}),
    ("genlogic.engine", "running_estimate", "engine.running_estimate", {}),
    ("genlogic.engine", "update", _by_estimate, {}),
    ("genlogic.mnist", "load_split", "mnist.load_split", {}),
    ("genlogic.mnist", "load_idx", "mnist.load_idx", {}),
    ("genlogic.mnist", "binarize", "mnist.binarize", {}),
    ("genlogic.mnist", "image_dataset", "mnist.image_dataset", {}),
    ("genlogic.mnist", "predict_digit", "mnist.predict_digit", {}),
    ("genlogic.mnist", "pixel_premises", "mnist.pixel_premises", {}),
    ("genlogic.mnist", "posterior_data", "engine.posterior_data", {}),
    ("genlogic.mnist", "knn_scores", "mnist.knn_scores", {}),
    ("genlogic.mnist", "hamming_matrix", "mnist.hamming_matrix",
     {"on_call": _count_pairs}),
    ("genlogic.mnist", "roc_curve", "mnist.roc_curve", {}),
    ("genlogic.mnist", "learning_curve", "mnist.learning_curve", {}),
)

# (metric, unit, better, statistic, span or counter name). Statistics:
# setup: seconds in the span per set-up repetition, median over repetitions;
# per_op / self_per_op: milliseconds (total or self) per window op;
# per_call: microseconds per call over the window; count: per window op.
PER_LAYER = (
    ("data.read_distribution.s", "s", "lower", "setup", "data.read_distribution"),
    ("worlds.enumerate_worlds.s", "s", "lower", "setup", "worlds.enumerate_worlds"),
    ("parser.parse_query.ms_per_op", "ms", "lower", "per_op", "parser.parse_query"),
    ("engine.cond_prob.one.ms_per_op", "ms", "lower", "per_op", "engine.cond_prob.one"),
    ("engine.cond_prob.limit.ms_per_op", "ms", "lower", "per_op", "engine.cond_prob.limit"),
    ("engine.cond_prob.fixed_exact.ms_per_op", "ms", "lower", "per_op",
     "engine.cond_prob.fixed_exact"),
    ("engine.cond_prob.fixed_float.ms_per_op", "ms", "lower", "per_op",
     "engine.cond_prob.fixed_float"),
    ("engine.posterior_models.ms_per_op", "ms", "lower", "per_op",
     "engine.posterior_models"),
    ("engine.mcs.ms_per_op", "ms", "lower", "per_op", "engine.mcs"),
    ("engine.mps.ms_per_op", "ms", "lower", "per_op", "engine.mps"),
    ("engine.evaluate.calls_per_op", "count", "lower", "count", "engine.evaluate"),
    ("data.read_dataset_csv.s", "s", "lower", "setup", "data.read_dataset_csv"),
    ("engine.running_estimate.s", "s", "lower", "setup", "engine.running_estimate"),
    ("engine.update.one.us_per_call", "us", "lower", "per_call", "engine.update.one"),
    ("engine.update.limit.us_per_call", "us", "lower", "per_call", "engine.update.limit"),
    ("engine.update.fixed_exact.us_per_call", "us", "lower", "per_call",
     "engine.update.fixed_exact"),
    ("engine.update.fixed_float.us_per_call", "us", "lower", "per_call",
     "engine.update.fixed_float"),
    ("mnist.load_split.s", "s", "lower", "setup", "mnist.load_split"),
    ("mnist.load_idx.s", "s", "lower", "setup", "mnist.load_idx"),
    ("mnist.binarize.ms_per_op", "ms", "lower", "per_op", "mnist.binarize"),
    ("mnist.image_dataset.ms_per_op", "ms", "lower", "per_op", "mnist.image_dataset"),
    ("mnist.predict_digit.self_ms_per_op", "ms", "lower", "self_per_op",
     "mnist.predict_digit"),
    ("mnist.pixel_premises.ms_per_op", "ms", "lower", "per_op", "mnist.pixel_premises"),
    ("engine.posterior_data.ms_per_op", "ms", "lower", "per_op", "engine.posterior_data"),
    ("mnist.predict_digit.calls_per_op", "count", "lower", "count", "mnist.predict_digit"),
    ("mnist.knn_scores.self_ms_per_op", "ms", "lower", "self_per_op", "mnist.knn_scores"),
    ("mnist.hamming_matrix.ms_per_op", "ms", "lower", "per_op", "mnist.hamming_matrix"),
    ("mnist.distance_pairs_per_op", "count", "lower", "count", "mnist.distance_pairs"),
    ("mnist.roc_curve.ms_per_op", "ms", "lower", "per_op", "mnist.roc_curve"),
    ("mnist.learning_curve.self_ms_per_op", "ms", "lower", "self_per_op",
     "mnist.learning_curve"),
)


def install(tracer) -> None:
    for module, attr, name, options in WRAPS:
        tracer.wrap(module, attr, name, **options)


def per_layer_metrics(summary, setup_ops, n_ops: int, op_counts) -> dict:
    """Per-layer metrics from span summaries and per-op count snapshots.

    setup_ops are the op ids given to the set-up repetitions, window ops
    are 0..n_ops-1, and op_counts[i] holds the counts made during window op i.
    """
    names, ops, dur, self_ns = summary
    window = (ops >= 0) & (ops < n_ops)
    out = {}
    for metric, unit, _, stat, key in PER_LAYER:
        mine = names == key
        if stat == "setup":
            value = statistics.median(float(dur[mine & (ops == op)].sum()) / 1e9
                                      for op in setup_ops)
        elif stat == "per_op":
            value = float(dur[mine & window].sum()) / 1e6 / n_ops
        elif stat == "self_per_op":
            value = float(self_ns[mine & window].sum()) / 1e6 / n_ops
        elif stat == "per_call":
            calls = int(np.count_nonzero(mine & window))
            value = float(dur[mine & window].sum()) / 1e3 / calls if calls else 0.0
        else:
            first = op_counts[:COUNT_OPS]
            value = sum(c[key] for c in first) / len(first)
        out[metric] = {"value": value, "unit": unit}
    return out
