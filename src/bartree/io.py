"""File formats: lineage CSV, mask CSV, configuration and report JSON.

Lineage files carry one ``node_id,value`` pair per line (``#`` starts a
comment); mask files carry one node id per line.  Values are written
with 17 significant digits so that write/parse round-trips are exact
for 64-bit floats.  Configurations are JSON documents with a versioned
``schema`` field.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bar import BarParams, NoiseParams, ObservedTree
from .errors import LineageFormatError, ValidationError
from .gw import ObservationMask, ReproductionLaw
from .mc import McConfig, jsonable

MODEL_SCHEMA = "bartree-model-v1"
MC_SCHEMA = "bartree-mc-v1"
REPORT_SCHEMA = "bartree-report-v1"


def format_real(x: float) -> str:
    """17 significant digits: parses back to the identical float."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# lineage files


def write_lineage(tree: ObservedTree, path) -> None:
    lines = ["# bartree lineage v1", "# columns: node_id,value"]
    if tree.seed is not None:
        lines.append(f"# seed: {tree.seed}")
    lines.append(f"# root_type: {tree.mask.root_type}")
    lines.append(f"# depth: {tree.depth}")
    for ids, vals in zip(tree.mask.generations, tree.values):
        lines.extend(f"{int(k)},{format_real(x)}" for k, x in zip(ids, vals))
    Path(path).write_text("\n".join(lines) + "\n")


def write_noise_sidecar(tree: ObservedTree, path) -> None:
    if not tree.has_noise:
        raise ValidationError("tree carries no recorded noise to export")
    lines = ["# bartree noise v1", "# columns: node_id,noise"]
    for ids, eps in zip(tree.mask.generations[1:], tree.noise[1:]):
        lines.extend(f"{int(k)},{format_real(e)}" for k, e in zip(ids, eps))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_data_lines(path):
    """Split a file into (lineno, line) data rows and ``# key: value`` metadata."""
    meta: dict[str, str] = {}
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
        elif line:
            entries.append((lineno, line))
    return entries, meta


def parse_lineage(path) -> ObservedTree:
    """Read and validate a lineage file into a data-mode observed tree.

    Violations (duplicate ids, orphan observations, a missing root,
    malformed numbers) are reported with their line number.
    """
    records: dict[int, float] = {}
    lines: dict[int, int] = {}
    entries, meta = _read_data_lines(path)
    for lineno, line in entries:
        parts = line.split(",")
        if len(parts) != 2:
            raise LineageFormatError(f"expected 'node_id,value', got {line!r}", lineno)
        try:
            k = int(parts[0])
        except ValueError:
            raise LineageFormatError(f"malformed node id {parts[0]!r}", lineno) from None
        try:
            x = float(parts[1])
        except ValueError:
            raise LineageFormatError(f"malformed value {parts[1]!r}", lineno) from None
        if k < 1:
            raise LineageFormatError(f"node id must be >= 1, got {k}", lineno)
        if k in records:
            raise LineageFormatError(
                f"duplicate node id {k} (first seen on line {lines[k]})", lineno
            )
        records[k] = x
        lines[k] = lineno
    if not records:
        raise LineageFormatError("no data rows found")
    if 1 not in records:
        raise LineageFormatError("node 1 (the root) is missing")
    for k in sorted(records):
        if k >= 2 and k // 2 not in records:
            raise LineageFormatError(
                f"orphan observation: node {k} has no observed mother {k // 2}",
                lines[k],
            )
    root_type = int(meta.get("root_type", 0))
    depth = int(meta["depth"]) if "depth" in meta else None
    return ObservedTree.from_pairs(records.items(), root_type=root_type, depth=depth)


# ---------------------------------------------------------------------------
# mask files


def write_mask(mask: ObservationMask, path) -> None:
    lines = ["# bartree mask v1", f"# root_type: {mask.root_type}", f"# depth: {mask.depth}"]
    lines.extend(str(int(k)) for k in mask.ids())
    Path(path).write_text("\n".join(lines) + "\n")


def parse_mask(path) -> ObservationMask:
    ids = []
    entries, meta = _read_data_lines(path)
    for lineno, line in entries:
        try:
            k = int(line)
        except ValueError:
            raise LineageFormatError(f"malformed node id {line!r}", lineno) from None
        ids.append(k)
    if not ids:
        raise LineageFormatError("no node ids found")
    root_type = int(meta.get("root_type", 0))
    depth = int(meta["depth"]) if "depth" in meta else None
    try:
        return ObservationMask.from_ids(ids, depth=depth, root_type=root_type)
    except ValidationError as exc:
        raise LineageFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# configuration JSON


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValidationError(f"missing {key!r} in {where}")
    return mapping[key]


def _model_from_dict(doc: dict, where: str):
    bar_doc = _require(doc, "bar", where)
    noise_doc = _require(doc, "noise", where)
    law_doc = _require(doc, "law", where)
    try:
        bar = BarParams(
            float(_require(bar_doc, "a", "bar")),
            float(_require(bar_doc, "b", "bar")),
            float(_require(bar_doc, "c", "bar")),
            float(_require(bar_doc, "d", "bar")),
            allow_unstable=bool(bar_doc.get("allow_unstable", False)),
        )
        noise = NoiseParams(
            float(_require(noise_doc, "sigma2", "noise")),
            float(noise_doc.get("rho", 0.0)),
            family=noise_doc.get("family", "gaussian"),
        )
        law = ReproductionLaw.from_tables(
            _require(law_doc, "type0", "law"), _require(law_doc, "type1", "law")
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model parameters: {exc}") from exc
    return bar, noise, law


def load_model_config(path) -> dict:
    """Simulation configuration: model point plus depth/seed defaults."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    if doc.get("schema") != MODEL_SCHEMA:
        raise ValidationError(
            f"expected schema {MODEL_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    bar, noise, law = _model_from_dict(doc, "model config")
    return {
        "bar": bar,
        "noise": noise,
        "law": law,
        "depth": int(doc["depth"]) if "depth" in doc else None,
        "seed": int(doc["seed"]) if "seed" in doc else None,
        "root_type": int(doc.get("root_type", 0)),
        "x1": float(doc.get("x1", 0.0)),
    }


def load_mc_config(path) -> tuple[McConfig, list[str]]:
    """Experiment configuration: model, budgets and the checks to run."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    if doc.get("schema") != MC_SCHEMA:
        raise ValidationError(f"expected schema {MC_SCHEMA!r}, got {doc.get('schema')!r}")
    if doc.get("condition_on_survival", True) is not True:
        raise ValidationError(
            "condition_on_survival must be true: extinct replicates are always discarded"
        )
    model = _require(doc, "model", "mc config")
    bar, noise, law = _model_from_dict(model, "mc config model")
    cfg = McConfig(
        bar=bar,
        noise=noise,
        law=law,
        depths=tuple(int(d) for d in _require(doc, "depths", "mc config")),
        replicates=int(_require(doc, "replicates", "mc config")),
        seed=int(_require(doc, "seed", "mc config")),
        root_type=int(model.get("root_type", 0)),
        x1=float(model.get("x1", 0.0)),
        level=float(doc.get("level", 0.95)),
    )
    checks = doc.get("checks", list())
    if not checks:
        raise ValidationError("mc config must name at least one check in 'checks'")
    return cfg, [str(c) for c in checks]


# ---------------------------------------------------------------------------
# reports


def dump_report(doc: dict, path=None) -> str:
    """Serialise a report deterministically; write it when a path is given."""
    text = json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def write_replicate_csv(rows: list[dict], path) -> None:
    """Long-format per-replicate statistics for external plotting."""
    header = "depth,replicate,seed,survived,stat,value"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['depth']},{row['replicate']},{row['seed']},"
            f"{int(row['survived'])},{row['stat']},{format_real(row['value'])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
