"""Report emission and re-loading.

All report tables are CSV with a '.' decimal separator and numeric cells
fixed at 4 decimal places, written and read back through the carrier rule
of :mod:`lcmteval.corpus` (``write_csv`` and ``read_rows``).  Significance
matrices can additionally be rendered as a monospaced text grid or a colored
SVG grid (green cells for system-level wins, blue for segment-level wins, an
orange outline where a win survives the Bonferroni correction).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .corpus import SEGMENT_LEVEL, SYSTEM_LEVEL, Task, read_rows, write_csv
from .errors import ParseError, UnsupportedFormat
from .significance import CIResult, SigCell, SigMatrix

# significance format: the suffix of the file a run writes it to
SIG_FORMATS = {"csv": "csv", "textgrid": "txt", "svg": "svg"}

SIG_HEADER = [
    "direction",
    "ratio",
    "level",
    "row_metric",
    "col_metric",
    "ci_level",
    "lower",
    "upper",
    "p_value",
    "significant",
    "bonferroni_significant",
]


def fmt4(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _fmt_bool(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def sha256_file(path: str | os.PathLike) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --- significance matrices ---------------------------------------------------


def emit_sig_matrix(matrix: SigMatrix, fmt: str, path: str | os.PathLike) -> None:
    if fmt == "csv":
        _sig_to_csv(matrix, path)
    elif fmt == "textgrid":
        Path(path).write_text(sig_to_textgrid(matrix), encoding="utf-8")
    elif fmt == "svg":
        Path(path).write_text(sig_to_svg(matrix), encoding="utf-8")
    else:
        raise UnsupportedFormat(
            f"unknown significance format {fmt!r}; expected one of {tuple(SIG_FORMATS)}"
        )


def _sig_to_csv(matrix: SigMatrix, path: str | os.PathLike) -> None:
    rows = []
    for row in matrix.metrics:
        for col in matrix.metrics:
            if row == col:
                continue
            cell = matrix.cells[(row, col)]
            rows.append(
                [
                    matrix.task.direction,
                    repr(matrix.task.ratio),
                    matrix.level,
                    row,
                    col,
                    "" if cell.ci is None else repr(cell.ci.level),
                    fmt4(None if cell.ci is None else cell.ci.lower),
                    fmt4(None if cell.ci is None else cell.ci.upper),
                    fmt4(cell.p_value),
                    _fmt_bool(cell.significant),
                    _fmt_bool(cell.bonferroni_significant),
                ]
            )
    write_csv(path, SIG_HEADER, rows)


def load_sig_matrix_csv(path: str | os.PathLike) -> SigMatrix:
    """Rebuild a SigMatrix from its CSV emission (4-decimal statistics).

    The file must hold exactly one row per ordered pair of distinct metrics,
    all of one task and of level ``system`` or ``segment``; a same-metric or
    repeated row, a missing pair or another level is a :class:`ParseError`.
    """
    path = Path(path)
    rows = list(read_rows(path, SIG_HEADER, "significance"))
    if not rows:
        raise ParseError("significance file has no cells", path=path)

    def parse_bool(text: str, line: int) -> bool | None:
        if text == "":
            return None
        if text in ("true", "false"):
            return text == "true"
        raise ParseError(f"bad boolean {text!r}", path=path, line=line)

    def parse_float(text: str, column: str, line: int) -> float:
        try:
            return float(text)
        except ValueError:
            raise ParseError(f"bad {column} {text!r}", path=path, line=line) from None

    first_line, first = rows[0]
    task = Task(first[0], parse_float(first[1], "ratio", first_line))
    level = first[2]
    metrics: list[str] = []
    cells: dict[tuple[str, str], SigCell] = {}
    for line, row in rows:
        direction, ratio, row_level, row_m, col_m = row[0], row[1], row[2], row[3], row[4]
        row_task = Task(direction, parse_float(ratio, "ratio", line))
        if row_level not in (SYSTEM_LEVEL, SEGMENT_LEVEL):
            raise ParseError(f"bad level {row_level!r}", path=path, line=line)
        if row_task != task or row_level != level:
            raise ParseError(
                "mixed tasks or levels in one matrix file", path=path, line=line
            )
        if row_m == col_m:
            raise ParseError(
                f"cell pairs metric {row_m!r} with itself", path=path, line=line
            )
        if (row_m, col_m) in cells:
            raise ParseError(
                f"repeated cell {row_m!r} x {col_m!r}", path=path, line=line
            )
        for name in (row_m, col_m):
            if name not in metrics:
                metrics.append(name)
        ci = None
        if row[5] != "":
            ci = CIResult(
                lower=parse_float(row[6], "lower", line),
                upper=parse_float(row[7], "upper", line),
                level=parse_float(row[5], "ci_level", line),
            )
        p_value = parse_float(row[8], "p_value", line) if row[8] != "" else None
        cells[(row_m, col_m)] = SigCell(
            row_metric=row_m,
            col_metric=col_m,
            ci=ci,
            p_value=p_value,
            significant=parse_bool(row[9], line),
            bonferroni_significant=parse_bool(row[10], line),
        )
    for row_m in metrics:
        for col_m in metrics:
            if row_m != col_m and (row_m, col_m) not in cells:
                raise ParseError(f"no cell {row_m!r} x {col_m!r}", path=path)
    return SigMatrix(task=task, level=level, metrics=tuple(metrics), cells=cells)


def _cell_char(cell: SigCell | None) -> str:
    if cell is None or not cell.significant:
        return "·"
    if cell.bonferroni_significant:
        return "b"
    return "W"


def sig_to_textgrid(matrix: SigMatrix) -> str:
    """Monospaced grid: W = win, b = Bonferroni-surviving win, · = none."""
    names = matrix.metrics
    width = len(str(len(names)))
    lines = [f"{i + 1:>{width}} {name}" for i, name in enumerate(names)]
    header = " " * (width + 1) + " ".join(f"{i + 1:>{width}}" for i in range(len(names)))
    lines.append(header)
    for i, row in enumerate(names):
        cells = []
        for j, col in enumerate(names):
            cell = None if i == j else matrix.cells[(row, col)]
            cells.append(f"{_cell_char(cell):>{width}}")
        lines.append(f"{i + 1:>{width}} " + " ".join(cells))
    return "\n".join(lines) + "\n"


_GREEN = "#2e7d32"
_BLUE = "#1565c0"
_DIAGONAL = "#e0e0e0"
_EMPTY = "#ffffff"
_GRID = "#bbbbbb"
_BONFERRONI = "#ef6c00"


def sig_to_svg(matrix: SigMatrix, cell_px: int = 22) -> str:
    """Colored grid in the style of a pairwise significance figure."""
    names = matrix.metrics
    n = len(names)
    label_px = 8 * max((len(name) for name in names), default=1) + 10
    width = label_px + n * cell_px + 2
    height = label_px + n * cell_px + 2
    win_color = _GREEN if matrix.level == "system" else _BLUE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">'
    ]
    for j, name in enumerate(names):
        x = label_px + j * cell_px + cell_px // 2
        parts.append(
            f'<text x="{x}" y="{label_px - 6}" text-anchor="start" '
            f'transform="rotate(-60 {x} {label_px - 6})">{_xml_escape(name)}</text>'
        )
    for i, name in enumerate(names):
        y = label_px + i * cell_px + cell_px - 7
        parts.append(
            f'<text x="{label_px - 6}" y="{y}" text-anchor="end">'
            f"{_xml_escape(name)}</text>"
        )
    for i, row in enumerate(names):
        for j, col in enumerate(names):
            x = label_px + j * cell_px
            y = label_px + i * cell_px
            if i == j:
                fill, stroke, stroke_w = _DIAGONAL, _GRID, 1
            else:
                cell = matrix.cells[(row, col)]
                fill = win_color if cell.significant else _EMPTY
                if cell.bonferroni_significant:
                    stroke, stroke_w = _BONFERRONI, 2
                else:
                    stroke, stroke_w = _GRID, 1
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_w}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
