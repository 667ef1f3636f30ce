"""Common container for experimental workloads."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chase.optimizer import CBOptimizer
from repro.engine.database import Database


@dataclass
class Workload:
    """A ready-to-run experimental configuration.

    Attributes
    ----------
    name:
        Configuration name (``"EC1"``, ``"EC2"``, ``"EC3"``).
    catalog:
        The catalog (schema, physical structures, constraints, statistics).
    query:
        The input query of the experiment.
    params:
        The scaling parameters that produced this instance.
    populate:
        A callable ``populate(database, size, seed)`` that fills a database
        with synthetic data of the configuration's shape, or ``None`` when
        the experiment does not execute plans.
    """

    name: str
    catalog: object
    query: object
    params: dict = field(default_factory=dict)
    populate: object | None = None

    def optimizer(self, timeout=None):
        """Return a :class:`CBOptimizer` over this workload's catalog."""
        return CBOptimizer(self.catalog, timeout=timeout)

    def database(self, size=1000, seed=0):
        """Return a populated database (with physical structures materialised).

        Raises
        ------
        ValueError
            If the workload has no populate function.
        """
        if self.populate is None:
            raise ValueError(f"workload {self.name} has no data generator")
        database = Database(self.catalog)
        self.populate(database, size=size, seed=seed)
        database.materialize_physical(self.catalog)
        return database

    def constraint_count(self):
        """Number of constraints the optimizer will use (a paper scaling axis)."""
        return len(self.catalog.constraints())


__all__ = ["Workload"]
