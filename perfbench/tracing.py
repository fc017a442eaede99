"""Per-layer spans, taken from outside the program.

The tracer replaces library functions with timing wrappers at the place
their caller looks them up (``harness.build_config_features`` is what
``extract_features`` calls, ``features.embed_features`` is what
``build_config_features`` calls, ...), records one span per call, and
restores the originals afterwards.  A span's self time is its duration
minus the time of the spans it directly contains, so the self times of all
spans add up to at most the traced wall time.

A target that no longer exists is skipped: its metrics read as zero calls
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span).  Several lookups may feed one span.
TARGETS = (
    ("incongruity.harness", "load_dataset", "harness.load_dataset"),
    ("incongruity.harness", "run_matrix", "harness.run_matrix"),
    ("incongruity.harness", "run_config", "harness.run_config"),
    ("incongruity.harness", "extract_features", "harness.extract_features"),
    ("incongruity.harness", "compute_gains", "harness.report"),
    ("incongruity.harness", "emit_report", "harness.report"),
    ("incongruity.embeddings", "load_embeddings", "embeddings.load"),
    ("incongruity.harness", "tokenize", "text.tokenize"),
    ("incongruity.text", "tokenize", "text.tokenize"),
    ("incongruity.similarity", "content_words", "text.content_words"),
    ("incongruity.harness", "build_config_features", "features.build"),
    ("incongruity.features", "embed_features", "similarity.embed"),
    ("incongruity.similarity", "pairwise_scores", "similarity.pairwise"),
    ("incongruity.harness", "train", "classify.train"),
    ("incongruity.classify", "train", "classify.train"),
    ("incongruity.classify", "tune_threshold", "classify.tune_threshold"),
    ("incongruity.classify:LinearModel", "predict", "classify.predict"),
)


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


class Tracer:
    """Span statistics and counters for one traced operation."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._child_time: list[float] = []
        self._fragments: dict[str, set] = {"prior": set(), "table": set()}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span, fn):
        observe = _OBSERVERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.calls[span] += 1
                self.self_time[span] += elapsed - self._child_time.pop()
                self._charge_parent(elapsed)
            if observe is not None:
                start = perf_counter()
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # A changed signature or result type loses this counter,
                    # not the run.
                    pass
                self._charge_parent(perf_counter() - start)
            return result

        return wrapper

    def _charge_parent(self, seconds: float) -> None:
        if self._child_time:
            self._child_time[-1] += seconds

    def __enter__(self):
        for module_name, attribute, span in TARGETS:
            module_name, _, class_name = module_name.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attribute, None) if owner is not None else None
            if not callable(original):
                continue
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(span, original))
        return self

    def __exit__(self, *exc):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        return False

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; ``_s`` values are self times in seconds."""
        calls, own, counts = self.calls, self.self_time, self.counts
        fragments = counts["features.fragments"]
        content_calls = calls["text.content_words"]
        return {
            "harness.load_dataset_s": own["harness.load_dataset"],
            "harness.run_config_calls": calls["harness.run_config"],
            "harness.self_s": own["harness.run_matrix"]
            + own["harness.run_config"]
            + own["harness.extract_features"],
            "harness.report_s": own["harness.report"],
            "embeddings.load_s": own["embeddings.load"],
            "embeddings.rows_loaded": counts["embeddings.rows_loaded"],
            "text.tokenize_calls": calls["text.tokenize"],
            "text.tokenize_s": own["text.tokenize"],
            "text.content_words_calls": content_calls,
            "text.content_words_s": own["text.content_words"],
            "text.content_words_mean": counts["text.content_words"] / content_calls
            if content_calls else 0.0,
            "similarity.embed_calls": calls["similarity.embed"],
            "similarity.embed_s": own["similarity.embed"],
            "similarity.pairwise_s": own["similarity.pairwise"],
            "similarity.pairs_scored": counts["similarity.pairs_scored"],
            "features.build_calls": calls["features.build"],
            "features.build_s": own["features.build"],
            "features.registry_size": counts["features.registry_size"],
            "features.useful_share": (
                len(self._fragments["prior"]) + len(self._fragments["table"])
            ) / fragments if fragments else 0.0,
            "classify.train_calls": calls["classify.train"],
            "classify.train_s": own["classify.train"],
            "classify.sgd_steps": counts["classify.sgd_steps"],
            "classify.weight_dim": counts["classify.weight_dim"],
            "classify.tune_threshold_s": own["classify.tune_threshold"],
            "classify.threshold_candidates": counts["classify.threshold_candidates"],
            "classify.predict_calls": calls["classify.predict"],
            "classify.predict_s": own["classify.predict"],
        }


# -- counters, computed from each call's arguments and result ----------------


def _rows_loaded(tracer, args, kwargs, table):
    tracer.counts["embeddings.rows_loaded"] += len(table)


def _content_words(tracer, args, kwargs, words):
    tracer.counts["text.content_words"] += len(words)


def _pairs(tracer, args, kwargs, pairwise):
    n = len(pairwise.words)
    tracer.counts["similarity.pairs_scored"] += n * (n - 1) // 2


def _build(tracer, args, kwargs, vector):
    # One fragment per (sentence, prior set) and one per (sentence, table)
    # when a similarity block is selected; sentences are keyed by text.
    sentence = _argument(args, kwargs, 0, "sentence")
    config = _argument(args, kwargs, 1, "config")
    tracer._fragments["prior"].add((sentence.raw, config.prior_set))
    tracer.counts["features.fragments"] += 1
    if config.augmentation.value != "none":
        tracer._fragments["table"].add((sentence.raw, config.embedding))
        tracer.counts["features.fragments"] += 1


def _registry(tracer, args, kwargs, vectors):
    registry = _argument(args, kwargs, 3, "registry")
    size = tracer.counts["features.registry_size"]
    tracer.counts["features.registry_size"] = max(size, len(registry))


def _train(tracer, args, kwargs, model):
    instances = _argument(args, kwargs, 0, "instances")
    config = _argument(args, kwargs, 1, "config")
    if config is None:
        config = importlib.import_module("incongruity.classify").TrainConfig()
    tracer.counts["classify.sgd_steps"] += len(instances) * config.epochs
    dim = tracer.counts["classify.weight_dim"]
    tracer.counts["classify.weight_dim"] = max(dim, len(model.weights))


def _candidates(tracer, args, kwargs, result):
    import numpy as np

    scores = _argument(args, kwargs, 0, "scores")
    tracer.counts["classify.threshold_candidates"] += len(
        np.unique(np.concatenate([np.asarray(scores, dtype=np.float64), [0.0]]))
    )


_OBSERVERS = {
    "embeddings.load": _rows_loaded,
    "text.content_words": _content_words,
    "similarity.pairwise": _pairs,
    "features.build": _build,
    "harness.extract_features": _registry,
    "classify.train": _train,
    "classify.tune_threshold": _candidates,
}
