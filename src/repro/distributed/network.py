"""Shipment accounting: the communication primitive ``m(i, j, t)``.

The paper measures network traffic as the set ``M`` of tuple shipments,
where ``m(i, j, t)`` ships tuple ``t`` to site ``S_i`` from ``S_j``
(Section III-A).  A :class:`ShipmentLog` records every shipment an
algorithm performs, keeps the matrix ``|M(i, j)|`` needed by the
response-time model, and separately counts the small control messages
(the ``lstat`` statistics exchange), which the paper does not charge as
tuple shipment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping


@dataclass(frozen=True)
class ShipmentRecord:
    """One bulk shipment: ``n_tuples`` rows shipped to ``dest`` from ``src``.

    ``n_cells`` counts attribute values (tuples × shipped attributes), the
    finer-grained traffic measure behind the paper's "each tuple *attribute*
    is shipped at most once" guarantee.  ``n_codes`` counts the integers
    actually on the wire when the shipment is dictionary-coded (see
    :mod:`repro.relational.shareddict`): a coded projection row costs a
    fixed couple of ints however wide it is, so ``n_codes < n_cells`` is
    the shared dictionaries' saving.  ``None`` marks an uncoded shipment
    (raw values; one "cell" per attribute).  ``tag`` names the CFD/pattern
    the shipment served.
    """

    dest: int
    src: int
    n_tuples: int
    n_cells: int
    tag: str = ""
    n_codes: int | None = None


class ShipmentLog:
    """All shipments of one detection run."""

    __slots__ = ("events", "_matrix", "control_messages")

    def __init__(self) -> None:
        self.events: list[ShipmentRecord] = []
        self._matrix: dict[tuple[int, int], int] = {}
        self.control_messages: int = 0

    # -- recording -------------------------------------------------------

    def ship(
        self,
        dest: int,
        src: int,
        n_tuples: int,
        n_cells: int,
        tag: str = "",
        n_codes: int | None = None,
    ) -> None:
        """Record shipping ``n_tuples`` rows to site ``dest`` from ``src``.

        ``n_codes`` marks a dictionary-coded shipment: the number of ints
        on the wire instead of ``n_cells`` raw values (``None`` = uncoded).
        """
        if dest == src:
            raise ValueError("a site does not ship tuples to itself")
        if n_tuples < 0 or n_cells < 0:
            raise ValueError("negative shipment size")
        if n_codes is not None and n_codes < 0:
            raise ValueError("negative shipment size")
        if n_tuples == 0:
            return
        self.events.append(
            ShipmentRecord(dest, src, n_tuples, n_cells, tag, n_codes)
        )
        key = (dest, src)
        self._matrix[key] = self._matrix.get(key, 0) + n_tuples

    def record_control(self, n_messages: int) -> None:
        """Record small control messages (statistics exchange)."""
        self.control_messages += n_messages

    def merge(self, other: "ShipmentLog") -> "ShipmentLog":
        """Fold another log into this one (multi-CFD runs); returns self."""
        self.events.extend(other.events)
        for key, count in other._matrix.items():
            self._matrix[key] = self._matrix.get(key, 0) + count
        self.control_messages += other.control_messages
        return self

    # -- queries ---------------------------------------------------------

    @property
    def tuples_shipped(self) -> int:
        """``|M|``: total number of tuple shipments."""
        return sum(self._matrix.values())

    @property
    def cells_shipped(self) -> int:
        """Total attribute values shipped (logical traffic, pre-coding)."""
        return sum(event.n_cells for event in self.events)

    @property
    def codes_shipped(self) -> int:
        """Ints actually on the wire: ``n_codes`` where coded, else ``n_cells``."""
        return sum(
            event.n_cells if event.n_codes is None else event.n_codes
            for event in self.events
        )

    def matrix(self) -> Mapping[tuple[int, int], int]:
        """``(dest, src) -> |M(dest, src)|``."""
        return dict(self._matrix)

    def received_by(self, site: int) -> int:
        """``|M(i)|``: tuples shipped *to* ``site``."""
        return sum(
            count for (dest, _src), count in self._matrix.items() if dest == site
        )

    def outgoing_by_source(self) -> dict[int, int]:
        """``src -> Σ_i |M(i, src)|``: tuples each site sends out."""
        outgoing: dict[int, int] = {}
        for (_dest, src), count in self._matrix.items():
            outgoing[src] = outgoing.get(src, 0) + count
        return outgoing

    def by_tag(self) -> dict[str, int]:
        """Tuples shipped per tag (per CFD / per pattern)."""
        totals: dict[str, int] = {}
        for event in self.events:
            totals[event.tag] = totals.get(event.tag, 0) + event.n_tuples
        return totals

    def __iter__(self) -> Iterator[ShipmentRecord]:
        return iter(self.events)

    def __repr__(self) -> str:
        return (
            f"ShipmentLog({self.tuples_shipped} tuples, "
            f"{self.cells_shipped} cells, {self.control_messages} control msgs)"
        )
