"""Bundled relaxation measurements and their CSV round trip.

Small reference tables of T1 and T2 versus temperature for the two centers,
used to exercise the fit models end to end. Files use the schema
``temperature_K,value_s,error_s`` (error optional on load, 0 when absent)
with ``#`` comment lines preserved as dataset metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import table
from ._domain import check, one_of

_COLUMNS = ("temperature_K", "value_s", "error_s")

DatasetFormatError = table.TableFormatError


@dataclass(frozen=True)
class RelaxationRow:
    """One measured point; times in seconds, error 0 when unknown."""

    temperature_k: float
    value_s: float
    error_s: float = 0.0
    source: str = ""

    def __post_init__(self) -> None:
        check("temperature", self.temperature_k)
        check("relaxation time", self.value_s)
        check("error", self.error_s, strict=False)


@dataclass(frozen=True)
class RelaxationDataset:
    rows: tuple[RelaxationRow, ...]
    comments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("dataset has no rows")

    def temperatures(self) -> list[float]:
        return [r.temperature_k for r in self.rows]

    def values(self) -> list[float]:
        return [r.value_s for r in self.rows]

    def errors(self) -> list[float]:
        return [r.error_s for r in self.rows]


# The 250 us T2 point is a saturation estimate; it carries an assigned 10%
# error rather than a measured one.
_BUNDLED: dict[tuple[str, str], tuple[RelaxationRow, ...]] = {
    ("NV", "T2"): (
        RelaxationRow(300.0, 6.7e-6, 0.2e-6, "echo decay, room temperature"),
        RelaxationRow(20.0, 8.3e-6, 0.7e-6, "echo decay, 20 K"),
        RelaxationRow(1.7, 250e-6, 25e-6, "saturation estimate, 10% assigned"),
    ),
    ("NV", "T1"): (
        RelaxationRow(300.0, 7.7e-3, 0.4e-3, "inversion recovery, room temperature"),
        RelaxationRow(40.0, 3.8, 0.5, "inversion recovery, 40 K"),
    ),
    ("N", "T2"): (
        RelaxationRow(300.0, 5.455e-6, 0.005e-6, "echo decay, room temperature"),
        RelaxationRow(20.0, 5.83e-6, 0.04e-6, "echo decay, 20 K"),
        RelaxationRow(2.5, 80e-6, 9e-6, "echo decay, 2.5 K"),
    ),
    ("N", "T1"): (
        RelaxationRow(300.0, 1.4e-3, 0.01e-3, "inversion recovery, room temperature"),
        RelaxationRow(40.0, 8.3, 4.7, "inversion recovery, 40 K"),
    ),
}


def bundled(center: str, quantity: str) -> RelaxationDataset:
    """The packaged measurement table for one (center, quantity) pair; any
    other pair raises ``ValueError`` listing the bundled ones."""
    one_of("bundled dataset", _BUNDLED, (center, quantity))
    return RelaxationDataset(
        _BUNDLED[(center, quantity)], (f"bundled {center} {quantity} reference points",)
    )


def save_csv(dataset: RelaxationDataset, path) -> None:
    """Write the schema header, preserved comments, and one row per point."""
    table.write(
        path,
        dataset.comments,
        _COLUMNS,
        (dataset.temperatures(), dataset.values(), dataset.errors()),
    )


def load_csv(path) -> RelaxationDataset:
    """Read a ``temperature_K,value_s,error_s`` file.

    The error column may be omitted (treated as 0). Comment lines are kept.
    Malformed content raises :class:`DatasetFormatError` naming the line.
    """
    comments, _, rows = table.read(path, (_COLUMNS, _COLUMNS[:2]), RelaxationRow)
    return RelaxationDataset(tuple(rows), tuple(comments))


def as_rate_data(
    dataset: RelaxationDataset, time_unit_s: float = 1.0
) -> tuple[list[float], list[float], list[float]]:
    """(temperatures, rates, rate errors) for fitting the rate models.

    Rates are ``time_unit_s``/value (1.0: 1/s; 1e-6: the 1/us of the T2
    model) with first-order error propagation.
    """
    values = dataset.values()
    rates = [time_unit_s / v for v in values]
    errors = [time_unit_s * e / (v * v) for v, e in zip(values, dataset.errors())]
    return dataset.temperatures(), rates, errors
