"""Command-line interface for the experiment pipeline.

A fault in the user's input, an :class:`~incongruity.errors.InputError` or
an ``OSError``, is reported as one ``Error:`` line naming the file, line,
option value or grid cell, with exit status 1.  Any other exception is a
bug and keeps its traceback.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Iterable

import click

from .classify import TrainConfig, load_model, save_model, train
from .embeddings import (
    EmbeddingTable,
    intersect_vocabularies,
    load_embeddings,
    save_text_vectors,
)
from .errors import InputError
from .features import ExperimentConfig, FeatureRegistry, default_lexicon, load_lexicon
from .harness import (
    Prediction,
    Resources,
    compute_gains,
    emit_report,
    extract_features,
    load_dataset,
    metrics_from_predictions,
    run_matrix,
)
from .synthetic import generate_corpus, toy_embedding_tables, write_corpus_and_tables
from .text import default_stopwords, load_stopwords, tokenize

_EMBED_DIR_ENVVAR = "INCONGRUITY_EMBED_DIR"


def _load_one(path: Path, fmt: str) -> EmbeddingTable:
    if fmt == "auto":
        fmt = "binary_w2v" if path.suffix == ".bin" else "text_vectors"
    return load_embeddings(path, fmt)


def _load_tables(paths: Iterable[Path]) -> dict[str, EmbeddingTable]:
    """Load each file as the table named by its stem.  Two files with one
    stem raise :class:`click.UsageError` naming both: one table would
    silently replace the other."""
    first: dict[str, Path] = {}
    for path in paths:
        other = first.setdefault(path.stem, path)
        if other is not path:
            raise click.UsageError(f"{other} and {path} both load as table {path.stem!r}")
    return {stem: _load_one(path, "auto") for stem, path in first.items()}


def _load_embedding_dir(directory: str | None) -> dict[str, EmbeddingTable]:
    if directory is None:
        return {}
    paths = sorted(Path(directory).iterdir())
    return _load_tables(p for p in paths if p.suffix in (".txt", ".vec", ".bin"))


def _check_out_dirs(*paths: str | None) -> None:
    """Refuse an output file in a missing directory before any work is done,
    with the error that writing it would raise."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _build_resources(embeddings_dir, stopwords_file, lexicon_file) -> Resources:
    stopwords = (
        load_stopwords(stopwords_file) if stopwords_file else default_stopwords()
    )
    lexicon = load_lexicon(lexicon_file) if lexicon_file else default_lexicon()
    return Resources(
        embeddings=_load_embedding_dir(embeddings_dir),
        lexicon=lexicon,
        stopwords=stopwords,
    )


def _embeddings_option(required: bool = False):
    return click.option(
        "--embeddings",
        "embeddings_dir",
        type=click.Path(exists=True, file_okay=False),
        envvar=_EMBED_DIR_ENVVAR,
        required=required,
        help=f"Directory of embedding files (default: ${_EMBED_DIR_ENVVAR}).",
    )


_stopwords_option = click.option(
    "--stopwords",
    "stopwords_file",
    type=click.Path(exists=True, dir_okay=False),
    help="Stopword file (default: shipped list).",
)
_lexicon_option = click.option(
    "--lexicon",
    "lexicon_file",
    type=click.Path(exists=True, dir_okay=False),
    help="Tag lexicon file (default: shipped lexicon).",
)
# numpy's generators take no negative seed.
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Similarity-feature experiments for sarcasm detection."""


@main.command("load-embeddings")
@click.argument("path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["auto", "binary_w2v", "text_vectors"]),
    default="auto",
    show_default=True,
)
def load_embeddings_command(path: Path, fmt: str):
    """Load and validate one embedding file, printing a summary."""
    table = _load_one(path, fmt)
    click.echo(f"{table.name}: {len(table)} words, dimension {table.dimension}")


@main.command("intersect-vocab")
@click.argument(
    "paths", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
@click.option(
    "--out",
    "out_dir",
    required=True,
    type=click.Path(file_okay=False, path_type=Path),
    help="Directory for the intersected tables (text format).",
)
def intersect_vocab_command(paths: tuple[Path, ...], out_dir: Path):
    """Restrict embedding tables to their common vocabulary."""
    tables = list(_load_tables(paths).values())
    intersected = intersect_vocabularies(tables)
    out_dir.mkdir(parents=True, exist_ok=True)
    for table in intersected:
        save_text_vectors(table, out_dir / f"{table.name}.txt")
    click.echo(
        f"common vocabulary: {len(intersected[0])} words across {len(tables)} tables"
    )


def _config_and_resources(config_str, embeddings_dir, stopwords_file, lexicon_file):
    resources = _build_resources(embeddings_dir, stopwords_file, lexicon_file)
    config = ExperimentConfig.parse(
        config_str, embedding=next(iter(resources.embeddings), "")
    )
    return config, resources


@main.command("extract-features")
@click.option("--config", "config_str", required=True, help="e.g. L, G+S, J+S+WS:emb-a")
@click.option(
    "--dataset", required=True, type=click.Path(exists=True, dir_okay=False)
)
@_embeddings_option()
@_stopwords_option
@_lexicon_option
@click.option("--out", "out_file", required=True, type=click.Path(dir_okay=False))
def extract_features_command(
    config_str, dataset, embeddings_dir, stopwords_file, lexicon_file, out_file
):
    """Extract features for a whole corpus into a text feature file.

    Each output line is '<id>\\t<label>\\t<name>:<value> ...'.
    """
    _check_out_dirs(out_file)
    config, resources = _config_and_resources(
        config_str, embeddings_dir, stopwords_file, lexicon_file
    )
    instances = load_dataset(dataset)
    registry = FeatureRegistry()
    sentences = [tokenize(inst.text) for inst in instances]
    vectors = extract_features(sentences, config, resources, registry)
    with open(out_file, "w", encoding="utf-8") as handle:
        for instance, vector in zip(instances, vectors):
            rendered = " ".join(
                f"{registry.name_of(fid)}:{value!r}" for fid, value in vector.items()
            )
            handle.write(f"{instance.id}\t{instance.label}\t{rendered}\n")
    click.echo(f"wrote {len(instances)} instances, {len(registry)} features")


@main.command("train")
@click.option("--config", "config_str", required=True)
@click.option("--dataset", required=True, type=click.Path(exists=True, dir_okay=False))
@_embeddings_option()
@_stopwords_option
@_lexicon_option
@click.option("--c", "c", type=float, default=TrainConfig.c, show_default=True)
@click.option("--w", "w", type=float, default=TrainConfig.w, show_default=True)
@click.option("--epochs", type=int, default=TrainConfig.epochs, show_default=True)
@_seed_option
@click.option("--model-out", required=True, type=click.Path(dir_okay=False))
def train_command(
    config_str, dataset, embeddings_dir, stopwords_file, lexicon_file,
    c, w, epochs, seed, model_out,
):
    """Train on the full dataset and save the model."""
    _check_out_dirs(model_out)
    config, resources = _config_and_resources(
        config_str, embeddings_dir, stopwords_file, lexicon_file
    )
    instances = load_dataset(dataset)
    registry = FeatureRegistry()
    sentences = [tokenize(inst.text) for inst in instances]
    vectors = extract_features(sentences, config, resources, registry)
    model = train(
        [(vector, inst.label) for vector, inst in zip(vectors, instances)],
        TrainConfig(c=c, w=w, epochs=epochs, seed=seed),
    )
    save_model(model_out, model, registry)
    click.echo(
        f"trained on {len(instances)} instances; "
        f"threshold {model.threshold:.6f}; saved to {model_out}"
    )


@main.command("evaluate")
@click.option("--config", "config_str", required=True)
@click.option("--dataset", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_file", required=True, type=click.Path(exists=True, dir_okay=False))
@_embeddings_option()
@_stopwords_option
@_lexicon_option
def evaluate_command(
    config_str, dataset, model_file, embeddings_dir, stopwords_file, lexicon_file
):
    """Evaluate a saved model on a dataset; prints P/R/F percentages."""
    config, resources = _config_and_resources(
        config_str, embeddings_dir, stopwords_file, lexicon_file
    )
    instances = load_dataset(dataset)
    model, registry = load_model(model_file)
    sentences = [tokenize(inst.text) for inst in instances]
    vectors = extract_features(sentences, config, resources, registry)
    predictions = []
    for instance, vector in zip(instances, vectors):
        score, predicted = model.predict(vector)
        predictions.append(
            Prediction(instance.id, instance.label, predicted, score, 0)
        )
    precision, recall, f_score = metrics_from_predictions(predictions)
    click.echo(f"precision {precision:.2f}  recall {recall:.2f}  f-score {f_score:.2f}")


@main.command("run-matrix")
@click.option("--dataset", required=True, type=click.Path(exists=True, dir_okay=False))
@_embeddings_option(required=True)
@click.option("--intersect", is_flag=True, help="Intersect vocabularies first.")
@click.option("--report", "report_file", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["markdown", "tsv"]),
    default="markdown",
    show_default=True,
)
@click.option("--folds", type=int, default=5, show_default=True)
@_seed_option
@click.option("--c", "c", type=float, default=TrainConfig.c, show_default=True)
@click.option("--w", "w", type=float, default=TrainConfig.w, show_default=True)
@click.option("--epochs", type=int, default=TrainConfig.epochs, show_default=True)
@_stopwords_option
@_lexicon_option
@click.option(
    "--predictions",
    "predictions_file",
    type=click.Path(dir_okay=False),
    help="Also dump per-instance predictions as TSV.",
)
def run_matrix_command(
    dataset, embeddings_dir, intersect, report_file, fmt,
    folds, seed, c, w, epochs, stopwords_file, lexicon_file, predictions_file,
):
    """Run the full prior-set x augmentation x embedding grid."""
    _check_out_dirs(report_file, predictions_file)
    resources = _build_resources(embeddings_dir, stopwords_file, lexicon_file)
    if not resources.embeddings:
        raise InputError(f"{embeddings_dir} holds no .txt, .vec or .bin table")
    instances = load_dataset(dataset)
    matrix = run_matrix(
        instances,
        resources,
        intersect=intersect,
        folds=folds,
        seed=seed,
        train_config=TrainConfig(c=c, w=w, epochs=epochs, seed=seed),
    )
    gains = compute_gains(matrix)
    emit_report(matrix, gains, fmt, report_file)
    if predictions_file:
        tested = [
            f"{fold}\t{instances[i].id}\t{instances[i].label}"
            for i, fold in zip(matrix.test_rows.tolist(), matrix.test_folds.tolist())
        ]
        with open(predictions_file, "w", encoding="utf-8") as handle:
            handle.write("prior\taugmentation\tembedding\tfold\tid\tlabel\tpredicted\tscore\n")
            for key in sorted(matrix.cells, key=lambda k: (k[0], k[1].label, k[2])):
                result = matrix.cells[key]
                for row, predicted, score in zip(
                    tested, result.predicted.tolist(), result.scores.tolist()
                ):
                    handle.write(
                        f"{key[0]}\t{key[1].label}\t{key[2]}\t{row}\t{predicted:d}\t{score!r}\n"
                    )
    click.echo(f"wrote {report_file} ({len(matrix.cells)} grid cells)")


@main.command("gen-synthetic")
@click.option("--n", "n", type=int, required=True)
@click.option("--skew", type=float, required=True, help="Sarcastic fraction.")
@_seed_option
@click.option("--separability", type=float, default=1.0, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--embeddings-out",
    "embeddings_out",
    type=click.Path(file_okay=False),
    help="Also write the matching toy embedding tables here.",
)
def gen_synthetic_command(n, skew, seed, separability, out_file, embeddings_out):
    """Generate a synthetic corpus (and optionally toy embeddings)."""
    _check_out_dirs(out_file)
    instances = generate_corpus(n, skew, seed, separability)
    tables = toy_embedding_tables(seed) if embeddings_out else None
    write_corpus_and_tables(instances, out_file, tables, embeddings_out)
    n_pos = sum(inst.label for inst in instances)
    click.echo(f"wrote {len(instances)} instances ({n_pos} sarcastic) to {out_file}")


if __name__ == "__main__":
    main()
