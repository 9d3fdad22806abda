"""Named coordinate charts and polynomial maps between them.

A :class:`SubstitutionMap` is stored in the pullback-friendly direction: it
assigns to every *target*-chart variable a polynomial over the *source*
chart's variables, exactly how blow-up equations like ``z_j = u_j*u_4`` are
written.  Pulling a function back through the map is then plain substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ChartMismatchError, ValidationError, VariableMismatchError, ZeroInputError
from .gaussian import ZERO
from .multipoly import MultiPoly, _substitute_all, _trusted_poly, parse_poly, substitute


@dataclass(frozen=True)
class Chart:
    """A coordinate system: a unique id and its ordered variables.

    ``coordinates`` maps each variable to its coordinate polynomial, built
    once here; :meth:`var` reads it.
    """

    id: str
    variables: tuple
    coordinates: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"duplicate variables in chart {self.id}")
        if "i" in self.variables:
            raise ValidationError("'i' denotes the imaginary unit and cannot be a variable")
        n = len(self.variables)
        object.__setattr__(self, "coordinates", {
            v: _trusted_poly(self.variables, {tuple(int(j == k) for j in range(n)): (1, 0)}, 1)
            for k, v in enumerate(self.variables)
        })

    def poly(self, text: str) -> MultiPoly:
        return parse_poly(text, self.variables)

    def var(self, name: str) -> MultiPoly:
        try:
            return self.coordinates[name]
        except KeyError:
            raise VariableMismatchError(f"unknown variable {name!r} for {self.variables}") from None

    def zero_poly(self) -> MultiPoly:
        return MultiPoly.zero(self.variables)

    def origin(self) -> tuple:
        return tuple(ZERO for _ in self.variables)


class SubstitutionMap:
    """Polynomial map ``source -> target`` between charts.

    ``assignment[v]`` for each target variable ``v`` is a polynomial over the
    source chart's variables.  Instances are immutable value objects.
    """

    __slots__ = ("source", "target", "assignment", "label")

    def __init__(self, source: Chart, target: Chart, assignment, label: str):
        if not label:
            raise ValidationError("substitution maps must carry a nonempty label")
        missing = [v for v in target.variables if v not in assignment]
        if missing:
            raise ChartMismatchError(f"map {label}: unassigned target variables {missing}")
        extra = [v for v in assignment if v not in target.variables]
        if extra:
            raise ChartMismatchError(f"map {label}: unknown target variables {extra}")
        for v, poly in assignment.items():
            if poly.variables != source.variables:
                raise ChartMismatchError(
                    f"map {label}: image of {v} lives over {poly.variables}, "
                    f"expected {source.variables}"
                )
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self.label = label

    @staticmethod
    def identity(chart: Chart) -> "SubstitutionMap":
        return SubstitutionMap(chart, chart, {v: chart.var(v) for v in chart.variables}, "id")

    def pullback(self, f: MultiPoly) -> MultiPoly:
        """Compose a function on the target chart with the map."""
        if f.variables != self.target.variables:
            raise ChartMismatchError(
                f"cannot pull back {f.variables} through map into {self.target.variables}"
            )
        return substitute(f, self.assignment)

    def __repr__(self):
        rows = ", ".join(f"{v}={self.assignment[v]}" for v in self.target.variables)
        return f"SubstitutionMap({self.label}: {self.source.id} -> {self.target.id}; {rows})"


def compose_maps(outer: SubstitutionMap, inner: SubstitutionMap) -> SubstitutionMap:
    """Composite ``outer after inner``: inner: A -> B, outer: B -> C gives A -> C.

    All of outer's images are pulled back through inner together, on one
    table of inner's images (see :func:`conetower.multipoly.substitute`).
    """
    if outer.source.id != inner.target.id:
        raise ChartMismatchError(
            f"cannot compose {outer.label} after {inner.label}: "
            f"{outer.source.id} != {inner.target.id}"
        )
    if outer.source.variables != inner.target.variables:
        raise ChartMismatchError(
            f"cannot pull back {outer.source.variables} through map into {inner.target.variables}"
        )
    images = _substitute_all(outer.source.variables, outer.assignment.values(), inner.assignment)
    assignment = dict(zip(outer.assignment, images))
    return SubstitutionMap(
        inner.source, outer.target, assignment, f"{outer.label}*{inner.label}"
    )


def maps_equal(a: SubstitutionMap, b: SubstitutionMap) -> bool:
    """Exact per-variable polynomial equality of two parallel maps."""
    if a.source.id != b.source.id or a.target.id != b.target.id:
        raise ChartMismatchError(
            f"maps {a.label} and {b.label} do not share source/target charts"
        )
    return first_mismatch(a, b) is None


def first_mismatch(a: SubstitutionMap, b: SubstitutionMap):
    """Name of the first target variable whose assignments differ, or None."""
    for v in a.target.variables:
        if a.assignment[v] != b.assignment[v]:
            return v
    return None


@dataclass(frozen=True)
class Hypersurface:
    """A chart together with one nonzero defining equation."""

    chart: Chart
    equation: MultiPoly

    def __post_init__(self):
        if self.equation.variables != self.chart.variables:
            raise ChartMismatchError(
                f"equation over {self.equation.variables} does not match chart "
                f"{self.chart.id} over {self.chart.variables}"
            )
        if self.equation.is_zero():
            raise ZeroInputError("hypersurface equations must be nonzero")

    def contains_point(self, point) -> bool:
        values = dict(zip(self.chart.variables, point))
        return not self.equation.evaluate(values)
