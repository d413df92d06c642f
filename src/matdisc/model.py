"""Instance data model: finite-support random variables, matrix families,
the deviation scale sigma, normalization, and JSON persistence.

Instances are immutable after construction; their numpy arrays are marked
non-writeable so they can be shared across threads.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import _util, linalg
from .errors import DegenerateSigma, InvariantViolation, ParseError

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteRandomVariable:
    """Scalar law with finite support: strictly increasing atoms and their
    probabilities (nonnegative, summing to one within 1e-12)."""

    support: tuple
    probs: tuple
    # computed once from support and probs
    mean: float = field(init=False, repr=False, compare=False)
    variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = tuple(map(float, self.support))
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        for name, values in (("support", support), ("probs", probs)):
            if not all(map(math.isfinite, values)):
                raise InvariantViolation(name, "non-finite value")
        if len(support) < 1:
            raise InvariantViolation("support", "must be nonempty")
        if len(support) != len(probs):
            raise InvariantViolation("probs", "length differs from support")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise InvariantViolation("support", "entries must be strictly increasing")
        if min(probs) < 0:
            raise InvariantViolation("probs", "negative probability")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise InvariantViolation("probs", f"sum {sum(probs)!r} != 1")
        mean = float(sum(map(operator.mul, probs, support)))
        try:
            variance = float(sum(p * (s - mean) ** 2 for p, s in zip(probs, support)))
        except OverflowError:  # (s - m) ** 2 on Python floats past the float range
            variance = math.inf
        if not math.isfinite(variance):  # not finite where the mean is not
            raise InvariantViolation("support", "mean or variance is not finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @staticmethod
    def rademacher() -> "DiscreteRandomVariable":
        return DiscreteRandomVariable((-1.0, 1.0), (0.5, 0.5))

    @staticmethod
    def bernoulli(t: float) -> "DiscreteRandomVariable":
        """{0,1}-valued with mean t; collapses to a constant at t in {0, 1}."""
        if not 0.0 <= t <= 1.0:
            raise InvariantViolation("bernoulli mean", f"{t} outside [0, 1]")
        if t == 0.0:
            return DiscreteRandomVariable((0.0,), (1.0,))
        if t == 1.0:
            return DiscreteRandomVariable((1.0,), (1.0,))
        return DiscreteRandomVariable((0.0, 1.0), (1.0 - t, t))

    def is_rademacher(self) -> bool:
        return self.support == (-1.0, 1.0) and self.probs == (0.5, 0.5)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RankOneInstance:
    """Rank-one family u_i u_i* with one random variable per index."""

    dim: int
    vectors: tuple
    rvs: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise InvariantViolation("dim", "must be >= 1")
        vecs = tuple(_freeze(np.asarray(v, dtype=complex).reshape(-1)) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "rvs", tuple(self.rvs))
        if len(vecs) < 1:
            raise InvariantViolation("vectors", "need at least one vector")
        if any(v.shape != (self.dim,) for v in vecs):
            raise InvariantViolation("vectors", f"all vectors must have dim {self.dim}")
        u = np.array(vecs)  # sum u_i u_i* is finite when its trace sum |u_i|^2 is
        if not math.isfinite(np.vdot(u, u).real):
            raise InvariantViolation("vectors", "non-finite entry or sum of squared norms")
        if len(self.rvs) != len(vecs):
            raise InvariantViolation("rvs", "one random variable per vector required")

    @property
    def n(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class HermitianInstance:
    """General Hermitian family A_i with one random variable per index."""

    dim: int
    matrices: tuple
    rvs: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise InvariantViolation("dim", "must be >= 1")
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        # sum A_i^2 is finite when its trace, sum ||A_i||_F^2, is
        if not math.isfinite(sum(float(np.vdot(m, m).real) for m in mats)):
            raise InvariantViolation("matrices", "non-finite entry or sum of squares")
        mats = tuple(_freeze(linalg.require_hermitian(m)) for m in mats)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "rvs", tuple(self.rvs))
        if len(mats) < 1:
            raise InvariantViolation("matrices", "need at least one matrix")
        if any(m.shape != (self.dim, self.dim) for m in mats):
            raise InvariantViolation("matrices", f"all matrices must be {self.dim}x{self.dim}")
        if len(self.rvs) != len(mats):
            raise InvariantViolation("rvs", "one random variable per matrix required")

    @property
    def n(self) -> int:
        return len(self.matrices)


Instance = Union[RankOneInstance, HermitianInstance]


@dataclass(frozen=True)
class SignAssignment:
    """One outcome per index, identified by position in each support."""

    indices: tuple
    values: tuple

    @staticmethod
    def from_indices(indices: Sequence[int], rvs: Sequence[DiscreteRandomVariable]):
        idx = tuple(int(i) for i in indices)
        if len(idx) != len(rvs):
            raise InvariantViolation("assignment", "length differs from instance size")
        for j, (i, rv) in enumerate(zip(idx, rvs)):
            if not 0 <= i < len(rv.support):
                raise InvariantViolation("assignment", f"index {i} out of range at position {j}")
        return SignAssignment(idx, tuple(rvs[j].support[i] for j, i in enumerate(idx)))


def outer_products(vectors) -> np.ndarray:
    """Stacked rank-one terms u_i u_i*, shape (n, d, d)."""
    u = np.asarray(vectors, dtype=complex)
    return u[:, :, None] * u[:, None, :].conj()


def terms(inst: Instance) -> np.ndarray:
    """The instance's term stack, shape (n, d, d): the outer products of a
    rank-one family, the matrices of a Hermitian one."""
    if isinstance(inst, RankOneInstance):
        return outer_products(inst.vectors)
    return np.array(inst.matrices)


def squared_terms(inst: Instance) -> np.ndarray:
    """Stacked Var[xi_i] * M_i^2 terms, shape (n, d, d)."""
    var = np.array([rv.variance for rv in inst.rvs])
    if isinstance(inst, RankOneInstance):
        # (u u*)^2 = |u|^2 u u*
        outers = outer_products(inst.vectors)
        sq = np.array([np.vdot(v, v).real for v in inst.vectors])[:, None, None] * outers
    else:
        sq = np.array([m @ m for m in inst.matrices])
    return var[:, None, None] * sq


def sigma(inst: Instance) -> float:
    """Deviation scale: sigma = || sum_i Var[xi_i] M_i^2 ||^(1/2)."""
    total = squared_terms(inst).sum(axis=0)
    return float(np.sqrt(linalg.spectral_norm(total)))


def normalize(inst: RankOneInstance) -> RankOneInstance:
    """Rescale vectors by 1/sqrt(sigma) so the output has sigma = 1.

    Raises :class:`DegenerateSigma` when sigma is zero, which at any scale
    needs every ``Var[xi_i] ||u_i||^4`` zero: sigma^2 is at least their sum / d.
    """
    s = sigma(inst)
    if not s > 0.0:
        raise DegenerateSigma(f"sigma = {s:.3e} is not positive")
    factor = 1.0 / np.sqrt(s)
    return RankOneInstance(inst.dim, tuple(factor * v for v in inst.vectors), inst.rvs)


# ---------------------------------------------------------------------------
# JSON persistence.
#
# Canonical serialization: UTF-8, keys in schema order, numbers in Python's
# shortest round-trip decimal form, two-space indent, trailing newline.
# ---------------------------------------------------------------------------


def _complex_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def dumps_instance(inst: Instance) -> str:
    doc: dict = {"dim": inst.dim}
    if isinstance(inst, RankOneInstance):
        doc["kind"] = "rank_one"
        doc["vectors"] = [[_complex_pair(z) for z in v] for v in inst.vectors]
    else:
        doc["kind"] = "hermitian"
        doc["matrices"] = [[[_complex_pair(z) for z in row] for row in m] for m in inst.matrices]
    doc["rvs"] = [{"support": list(rv.support), "probs": list(rv.probs)} for rv in inst.rvs]
    # every entry is finite (validated at construction), so the report
    # writer's rejection of NaN and infinity never fires here
    return _util.canonical_json(doc)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _instance_from_doc(doc)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def _require(doc: dict, field: str):
    if field not in doc:
        raise ParseError(f"missing field {field!r}")
    return doc[field]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"field {where!r}: expected a list, got {value!r}")
    return value


def _number(value, where: str) -> float:
    # JSON numbers only (bool is an int subclass); an integer too large for
    # a float is refused here rather than overflowing later
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {where!r}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"field {where!r}: {value} is out of range") from None


def _complex_list(value, where: str) -> list:
    """A list of [re, im] pairs as complex numbers."""
    out = []
    for z in _list(value, where):
        if not isinstance(z, list) or len(z) != 2:
            raise ParseError(f"field {where!r}: complex values must be [re, im] pairs")
        out.append(complex(_number(z[0], where), _number(z[1], where)))
    return out


def _instance_from_doc(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    dim = _require(doc, "dim")
    kind = _require(doc, "kind")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"field 'dim': expected a positive integer, got {dim!r}")
    rvs = []
    for j, rv in enumerate(_list(_require(doc, "rvs"), "rvs")):
        if not isinstance(rv, dict) or "support" not in rv or "probs" not in rv:
            raise ParseError(f"field 'rvs[{j}]': expected an object with 'support' and 'probs'")
        fields = {key: f"rvs[{j}].{key}" for key in ("support", "probs")}
        support, probs = (tuple(_number(x, where) for x in _list(rv[key], where)) for key, where in fields.items())
        rvs.append(DiscreteRandomVariable(support, probs))
    if kind == "rank_one":
        vecs = _list(_require(doc, "vectors"), "vectors")
        vectors = [np.array(_complex_list(v, f"vectors[{i}]"), dtype=complex) for i, v in enumerate(vecs)]
        return RankOneInstance(dim, tuple(vectors), tuple(rvs))
    if kind == "hermitian":
        mats = []
        for i, m in enumerate(_list(_require(doc, "matrices"), "matrices")):
            rows = [_complex_list(row, f"matrices[{i}][{r}]") for r, row in enumerate(_list(m, f"matrices[{i}]"))]
            mats.append(np.array(rows, dtype=complex))
        return HermitianInstance(dim, tuple(mats), tuple(rvs))
    raise ParseError(f"field 'kind': expected 'rank_one' or 'hermitian', got {kind!r}")
