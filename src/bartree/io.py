"""File formats: lineage CSV, mask CSV, configuration and report JSON.

Lineage files carry one ``node_id,value`` pair per line (``#`` starts a
comment); mask files carry one node id per line.  Values are written
with 17 significant digits so that write/parse round-trips are exact
for 64-bit floats.  Configurations are JSON documents with a versioned
``schema`` field.
"""

from __future__ import annotations

import json
import math
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .bar import BarParams, NoiseParams, ObservedTree
from .distributions import _check_level
from .errors import CapacityError, LineageFormatError, ValidationError
from .gw import ObservationMask, ReproductionLaw
from .mc import PAIR_STATS, McConfig, McReport, jsonable
from .tree import MAX_DEPTH

MODEL_SCHEMA = "bartree-model-v1"
MC_SCHEMA = "bartree-mc-v1"
REPORT_SCHEMA = "bartree-report-v1"


def _read_text(path) -> str:
    """The text of ``path``, which must be UTF-8; other bytes exit as a validation error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def format_real(x: float) -> str:
    """17 significant digits: parses back to the identical float."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# lineage and mask files


def _write_rows(path, header: list[str], rows: str) -> None:
    """Header lines, then the data rows (already joined), one per line."""
    Path(path).write_text("\n".join(header + [rows] if rows else header) + "\n")


def _format_pairs(ids: np.ndarray, vals: np.ndarray) -> str:
    """``node_id,value`` rows; ``%.17g`` gives the bytes of :func:`format_real`.

    One ``%`` template formats every row of the interleaved ids and values.
    """
    rows = [None] * (2 * ids.size)
    rows[0::2], rows[1::2] = ids.tolist(), vals.tolist()
    return ("%d,%.17g\n" * ids.size % tuple(rows))[:-1]


def write_lineage(tree: ObservedTree, path) -> None:
    header = ["# bartree lineage v1", "# columns: node_id,value"]
    if tree.seed is not None:
        header.append(f"# seed: {tree.seed}")
    header.append(f"# root_type: {tree.mask.root_type}")
    header.append(f"# depth: {tree.depth}")
    _write_rows(path, header, _format_pairs(tree.mask.ids(), np.concatenate(tree.values)))


def write_mask(mask: ObservationMask, path) -> None:
    header = ["# bartree mask v1", f"# root_type: {mask.root_type}", f"# depth: {mask.depth}"]
    ids = mask.ids()
    _write_rows(path, header, ("%d\n" * ids.size % tuple(ids.tolist()))[:-1])


def write_noise_sidecar(tree: ObservedTree, path) -> None:
    if not tree.has_noise:
        raise ValidationError("tree carries no recorded noise to export")
    # the roots carry no noise
    ids = tree.mask.ids()[tree.mask.generation_count(0):]
    rows = _format_pairs(ids, np.concatenate([np.empty(0), *tree.noise[1:]]))
    _write_rows(path, ["# bartree noise v1", "# columns: node_id,noise"], rows)


def _data_lines(text: str):
    """Split text into (lineno, line) data rows and ``# key: value`` metadata.

    Metadata maps each key to its ``(value, lineno)``.
    """
    meta: dict[str, tuple[str, int]] = {}
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = (value.strip(), lineno)
        elif line:
            entries.append((lineno, line))
    return entries, meta


def _meta_int(meta: dict, key: str, default=None):
    """Integer metadata header ``# key: value``, or ``default`` when absent."""
    if key not in meta:
        return default
    value, lineno = meta[key]
    try:
        return int(value)
    except ValueError:
        raise LineageFormatError(f"malformed {key} header {value!r}", lineno) from None


def _check_node(k: int, lineno: int, seen: dict[int, int]) -> None:
    """Reject a non-positive, too deep or repeated node id on its line."""
    if k < 1:
        raise LineageFormatError(f"node id must be >= 1, got {k}", lineno)
    generation = k.bit_length() - 1
    if generation > MAX_DEPTH:
        raise CapacityError(
            f"line {lineno}: node {k} lies in generation {generation}, "
            f"beyond the supported depth of {MAX_DEPTH}"
        )
    if k in seen:
        raise LineageFormatError(f"duplicate node id {k} (first seen on line {seen[k]})", lineno)
    seen[k] = lineno


# Bytes a body may hold to be read by numpy; numpy reads these tokens as
# int() and float() do, and any other file goes to the row loop.
_LINEAGE_BYTES = b"0123456789,.+-eE\n"
_MASK_BYTES = b"0123456789\n"
_LINEAGE_ROW = np.dtype([("id", np.int64), ("value", np.float64)])


def _fast_table(text: str, lineage: bool):
    """``(ids, values, meta)`` parsed by numpy, or None when the row loop must read the file.

    The header is the leading ``#`` lines; the body after it must hold
    only the format's bytes and parse without error or warning.  A mask
    has no values (None).
    """
    end = 0
    while text.startswith("#", end):
        end = text.find("\n", end) + 1 or len(text)
    header, body = text[:end], text[end:]
    if body.encode().translate(None, _LINEAGE_BYTES if lineage else _MASK_BYTES):
        return None
    entries, meta = _data_lines(header)
    if entries:  # a line break other than \n inside the header
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(StringIO(body), delimiter=",", ndmin=1,
                               dtype=_LINEAGE_ROW if lineage else np.int64)
    except (ValueError, OverflowError, Warning):
        return None
    if not lineage:
        return table, None, meta
    return np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["value"]), meta


def parse_lineage(path) -> ObservedTree:
    """Read and validate a lineage file into a data-mode observed tree."""
    return _parse(path, lineage=True)


def parse_mask(path) -> ObservationMask:
    """Read and validate a mask file: a lineage file without its value column."""
    return _parse(path, lineage=False)


def _parse(path, lineage: bool):
    """The tree (``lineage``) or mask that a file lists.

    Violations (duplicate ids, orphan observations, a missing root,
    malformed numbers) are reported with their line number.  numpy reads
    every file it can (the builders sort the ids); any other file, and
    every error, is left to the row loop, which names the offending line.
    """
    text = _read_text(path)
    fast = _fast_table(text, lineage)
    if fast is not None:
        try:
            return _build(*fast)
        except ValidationError:
            pass
    return _rows(text, lineage)


def _rows(text: str, lineage: bool):
    """The row-by-row parser of both formats: every error names its line."""
    lines: dict[int, int] = {}  # node id -> its line, in file order
    values: list[float] = []
    entries, meta = _data_lines(text)
    for lineno, line in entries:
        parts = line.split(",") if lineage else [line]
        if lineage and len(parts) != 2:
            raise LineageFormatError(f"expected 'node_id,value', got {line!r}", lineno)
        try:
            k = int(parts[0])
        except ValueError:
            raise LineageFormatError(f"malformed node id {parts[0]!r}", lineno) from None
        if lineage:
            try:
                x = float(parts[1])
            except ValueError:
                raise LineageFormatError(f"malformed value {parts[1]!r}", lineno) from None
            if not math.isfinite(x):
                raise LineageFormatError(f"non-finite value {parts[1]!r}", lineno)
            values.append(x)
        _check_node(k, lineno, lines)
    if not lines:
        raise LineageFormatError("no data rows found")
    if 1 not in lines:
        raise LineageFormatError("node 1 (the root) is missing")
    for k in sorted(lines):
        if k >= 2 and k // 2 not in lines:
            raise LineageFormatError(
                f"orphan observation: node {k} has no observed mother {k // 2}", lines[k]
            )
    ids = np.fromiter(lines, np.int64, len(lines))
    return _build(ids, np.array(values) if lineage else None, meta)


def _build(ids: np.ndarray, values: np.ndarray | None, meta: dict):
    """The tree of ``ids`` and ``values``, or the mask of ``ids`` when there are no values."""
    root_type, depth = _meta_int(meta, "root_type", 0), _meta_int(meta, "depth")
    if values is None:
        return ObservationMask.from_ids(ids, depth=depth, root_type=root_type)
    return ObservedTree.from_arrays(ids, values, root_type=root_type, depth=depth)


# ---------------------------------------------------------------------------
# configuration JSON


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValidationError(f"missing {key!r} in {where}")
    return mapping[key]


def _json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_number(value, what: str) -> float:
    """``value`` as a float when it is a finite JSON number (not a bool, string, NaN or infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a JSON number, got {json.dumps(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be a finite number, got {json.dumps(value)}")
    return number


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list, got {json.dumps(value)}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def _law_table(law_doc: dict, name: str) -> dict:
    """One parent type's offspring table, its probabilities checked as JSON numbers."""
    table = _json_object(_require(law_doc, name, "law"), f"law {name}")
    return {k: _json_number(p, f"law {name} probability of {k!r}") for k, p in table.items()}


def _model_from_dict(doc: dict, where: str):
    bar_doc, noise_doc, law_doc = (
        _json_object(_require(doc, key, where), key) for key in ("bar", "noise", "law")
    )
    allow_unstable = bar_doc.get("allow_unstable", False)
    if not isinstance(allow_unstable, bool):
        raise ValidationError(
            f"allow_unstable must be JSON true or false, got {json.dumps(allow_unstable)}"
        )
    bar = BarParams(
        *(_json_number(_require(bar_doc, k, "bar"), k) for k in "abcd"),
        allow_unstable=allow_unstable,
    )
    sigma2 = _json_number(_require(noise_doc, "sigma2", "noise"), "sigma2")
    rho = _json_number(noise_doc.get("rho", 0.0), "rho")
    if (family := noise_doc.get("family", "gaussian")) != "gaussian":
        raise ValidationError(f"unsupported noise family {family!r}")
    noise = NoiseParams(sigma2, rho)
    law = ReproductionLaw.from_tables(*(_law_table(law_doc, t) for t in ("type0", "type1")))
    return bar, noise, law


def _load_doc(path, schema: str) -> dict:
    """The JSON object at ``path``, which must name ``schema`` in its ``schema`` field."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    if _json_object(doc, str(path)).get("schema") != schema:
        raise ValidationError(f"expected schema {schema!r}, got {doc.get('schema')!r}")
    return doc


def load_model_config(path) -> dict:
    """Simulation configuration: model point plus depth/seed defaults."""
    doc = _load_doc(path, MODEL_SCHEMA)
    bar, noise, law = _model_from_dict(doc, "model config")
    return {
        "bar": bar,
        "noise": noise,
        "law": law,
        "depth": _json_int(doc["depth"], "depth") if "depth" in doc else None,
        "seed": _json_int(doc["seed"], "seed") if "seed" in doc else None,
        "root_type": _json_int(doc.get("root_type", 0), "root_type"),
        "x1": _json_number(doc.get("x1", 0.0), "x1"),
    }


def load_mc_config(path) -> tuple[McConfig, list[str]]:
    """Experiment configuration: model, budgets and the checks to run."""
    doc = _load_doc(path, MC_SCHEMA)
    if doc.get("condition_on_survival", True) is not True:
        raise ValidationError(
            "condition_on_survival must be true: extinct replicates are always discarded"
        )
    model = _json_object(_require(doc, "model", "mc config"), "model")
    bar, noise, law = _model_from_dict(model, "mc config model")
    depths = _json_list(_require(doc, "depths", "mc config"), "depths")
    if isinstance(level := doc.get("level", 0.95), float):
        _check_level(level)  # a NaN level is out of (0, 1), as on the command line
    cfg = McConfig(
        bar=bar,
        noise=noise,
        law=law,
        depths=tuple(_json_int(d, "each of depths") for d in depths),
        replicates=_json_int(_require(doc, "replicates", "mc config"), "replicates"),
        seed=_json_int(_require(doc, "seed", "mc config"), "seed"),
        root_type=_json_int(model.get("root_type", 0), "root_type"),
        x1=_json_number(model.get("x1", 0.0), "x1"),
        level=_json_number(level, "level"),
    )
    checks = _json_list(doc.get("checks", []), "checks")
    if not checks:
        raise ValidationError("mc config must name at least one check in 'checks'")
    if not all(isinstance(c, str) for c in checks):
        raise ValidationError(f"checks must name checks as strings, got {json.dumps(checks)}")
    return cfg, checks


# ---------------------------------------------------------------------------
# reports


def dump_report(doc: dict, path=None) -> str:
    """Serialise a report deterministically; write it when a path is given."""
    text = json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def write_replicate_csv(reports: list[McReport], path) -> None:
    """Long-format per-replicate statistics for external plotting.

    One row per check, replicate and scalar statistic, ``survived``
    first.  An extinct replicate has only its ``survived`` row, a
    survivor without sister pairs no row for the NaN of a pair statistic,
    and matrix and vector statistics get no rows.
    """
    lines = ["check,depth,replicate,seed,survived,stat,value"]
    for report in reports:
        for depth, (seeds, cols) in report.replicates.items():
            scalars = {k: col.tolist() for k, col in cols.items() if col.ndim == 1}
            survived = scalars.pop("survived")
            for i, (seed, ok) in enumerate(zip(seeds, survived)):
                base = f"{report.check},{depth},{i},{seed},{int(ok)},"
                lines.append(f"{base}survived,{format_real(ok)}")
                if ok:
                    lines.extend(
                        f"{base}{k},{format_real(col[i])}" for k, col in scalars.items()
                        if not (k in PAIR_STATS and math.isnan(col[i]))
                    )
    Path(path).write_text("\n".join(lines) + "\n")
