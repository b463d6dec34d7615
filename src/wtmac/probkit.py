"""Exact finite-alphabet probability kernel.

Distributions, channels, joint laws and information measures, plus the
sequence-level machinery (memoryless extensions, counting-typical sets,
truncated typical distributions) that the coding simulators build on.

Conventions
-----------
* All information quantities are in bits (log base 2), with 0*log 0 := 0.
* Normalization is checked to 1e-12 on construction and 1e-10 after
  arithmetic that accumulates rounding.
* Dense tensors are capped at ``CELL_BUDGET`` cells; operations that would
  exceed the cap raise :class:`ResourceBudgetError` instead of silently
  degrading.
* Typicality is counting typicality: a sequence is delta-typical when every
  symbol count deviates from its expectation by at most ``n*delta``, and the
  conditional version compares joint counts against ``P(a|b) * N(b)``.  An
  unconditional law is the one-row conditional law under an all-zero
  context, so one pair-count kernel serves both.

All types are immutable values after construction and every operation is
pure, so everything here is safe for concurrent read access.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateTypicalityError,
    ResourceBudgetError,
    ValidationError,
)

CONSTRUCT_TOL = 1e-12
ARITH_TOL = 1e-10
CELL_BUDGET = 10_000_000


def entropy_bits(mass: np.ndarray) -> float:
    """Entropy in bits of a nonnegative mass vector (any shape)."""
    m = np.asarray(mass, dtype=float).ravel()
    m = m[m > 0.0]
    if m.size == 0:
        return 0.0
    return float(-(m @ np.log2(m)))


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set identified with {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.size}")


def _as_prob_vector(mass, size: int | None = None) -> np.ndarray:
    v = np.asarray(mass, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"expected a 1-D mass vector, got shape {v.shape}")
    if size is not None and v.shape[0] != size:
        raise ValidationError(f"mass length {v.shape[0]} != alphabet size {size}")
    if np.any(v < -CONSTRUCT_TOL):
        raise ValidationError("negative probability mass")
    total = float(v.sum())
    if abs(total - 1.0) > CONSTRUCT_TOL:
        raise ValidationError(f"mass sums to {total!r}, not 1 within 1e-12")
    v = np.clip(v, 0.0, None)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Dist:
    """A probability distribution on a finite alphabet."""

    alphabet: Alphabet
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _as_prob_vector(self.mass, self.alphabet.size))

    @staticmethod
    def from_mass(mass) -> "Dist":
        v = np.asarray(mass, dtype=float)
        return Dist(Alphabet(v.shape[0]), v)

    @staticmethod
    def uniform(size: int) -> "Dist":
        return Dist(Alphabet(size), np.full(size, 1.0 / size))

    def entropy(self) -> float:
        return entropy_bits(self.mass)


@dataclass(frozen=True)
class Channel:
    """A stochastic matrix: one output distribution per input symbol."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    matrix: np.ndarray  # shape (|in|, |out|), rows sum to 1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.input_alphabet.size, self.output_alphabet.size):
            raise ValidationError(
                f"channel matrix shape {m.shape} does not match alphabets "
                f"({self.input_alphabet.size}, {self.output_alphabet.size})"
            )
        # Every row must be a mass vector, as _as_prob_vector checks one: all
        # rows are checked at once and the first bad row is reported.  On C
        # order, the row sums are those of the rows taken one at a time.
        m = np.ascontiguousarray(m)
        negative = np.any(m < -CONSTRUCT_TOL, axis=1)
        totals = m.sum(axis=1)
        bad = negative | (np.abs(totals - 1.0) > CONSTRUCT_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            problem = ("negative probability mass" if negative[i] else
                       f"mass sums to {float(totals[i])!r}, not 1 within 1e-12")
            raise ValidationError(f"channel row {i}: {problem}")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_matrix(matrix) -> "Channel":
        m = np.asarray(matrix, dtype=float)
        return Channel(Alphabet(m.shape[0]), Alphabet(m.shape[1]), m)

    @staticmethod
    def identity(size: int) -> "Channel":
        return Channel(Alphabet(size), Alphabet(size), np.eye(size))

    @staticmethod
    def constant(input_size: int, output: Dist) -> "Channel":
        m = np.tile(output.mass, (input_size, 1))
        return Channel(Alphabet(input_size), output.alphabet, m)

    def compose(self, inner: "Channel") -> "Channel":
        """Channel applying ``inner`` first, then ``self``."""
        if inner.output_alphabet.size != self.input_alphabet.size:
            raise ValidationError("channel composition: alphabet mismatch")
        return Channel(inner.input_alphabet, self.output_alphabet,
                       inner.matrix @ self.matrix)


@dataclass(frozen=True)
class WiretapMAC:
    """Two-sender channel with a legitimate output T and an eavesdropped output Z.

    The transition law is stored as a channel from the product input X x Y
    (index ``x * |Y| + y``) to the product output T x Z (index ``t * |Z| + z``).
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    t_alphabet: Alphabet
    z_alphabet: Alphabet
    channel: Channel

    def __post_init__(self):
        nin = self.x_alphabet.size * self.y_alphabet.size
        nout = self.t_alphabet.size * self.z_alphabet.size
        if self.channel.input_alphabet.size != nin or self.channel.output_alphabet.size != nout:
            raise ValidationError("wiretap MAC channel shape does not match alphabets")

    @staticmethod
    def from_rows(rows, x: int, y: int, t: int, z: int) -> "WiretapMAC":
        m = np.asarray(rows, dtype=float)
        return WiretapMAC(Alphabet(x), Alphabet(y), Alphabet(t), Alphabet(z),
                          Channel(Alphabet(x * y), Alphabet(t * z), m))

    @staticmethod
    def from_marginals(w_bob, w_eve) -> "WiretapMAC":
        """Assemble a MAC whose T and Z outputs are conditionally independent.

        ``w_bob`` has shape (|X||Y|, |T|), ``w_eve`` shape (|X||Y|, |Z|); rows
        are indexed by ``x * |Y| + y``.  Handy for examples specified through
        their marginal matrices.  The inputs are taken as |X| = |Y| = the
        square root of the row count; a non-square row count is refused.
        """
        wb = np.asarray(w_bob, dtype=float)
        we = np.asarray(w_eve, dtype=float)
        if wb.shape[0] != we.shape[0]:
            raise ValidationError("marginal channels disagree on the input size")
        nin = wb.shape[0]
        x = int(round(np.sqrt(nin)))
        if x * x != nin:
            raise ValidationError("cannot infer |X|, |Y| from a non-square input count")
        rows = np.einsum("it,iz->itz", wb, we).reshape(nin, -1)
        return WiretapMAC.from_rows(rows, x, x, wb.shape[1], we.shape[1])

    @cached_property
    def tensor(self) -> np.ndarray:
        """Transition law reshaped to (x, y, t, z)."""
        shape = (self.x_alphabet.size, self.y_alphabet.size,
                 self.t_alphabet.size, self.z_alphabet.size)
        arr = self.channel.matrix.reshape(shape)
        arr.setflags(write=False)
        return arr

    @cached_property
    def bob(self) -> Channel:
        """Marginal channel to the legitimate receiver."""
        m = self.tensor.sum(axis=3).reshape(-1, self.t_alphabet.size)
        return Channel(self.channel.input_alphabet, self.t_alphabet, m)

    @cached_property
    def eve(self) -> Channel:
        """Marginal channel to the eavesdropper."""
        m = self.tensor.sum(axis=2).reshape(-1, self.z_alphabet.size)
        return Channel(self.channel.input_alphabet, self.z_alphabet, m)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x_alphabet.size,
            "y": self.y_alphabet.size,
            "t": self.t_alphabet.size,
            "z": self.z_alphabet.size,
            "rows": [[float(f"{v:.17g}") for v in row] for row in self.channel.matrix],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "WiretapMAC":
        try:
            return WiretapMAC.from_rows(obj["rows"], int(obj["x"]), int(obj["y"]),
                                        int(obj["t"]), int(obj["z"]))
        except KeyError as exc:
            raise ValidationError(f"channel JSON missing field {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True)
class JointDist:
    """A joint law over an ordered tuple of finite alphabets."""

    axes: tuple[Alphabet, ...]
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        m = np.asarray(self.mass, dtype=float)
        if m.shape != tuple(a.size for a in self.axes):
            raise ValidationError(
                f"joint mass shape {m.shape} != axis sizes {tuple(a.size for a in self.axes)}"
            )
        if m.size > CELL_BUDGET:
            raise ResourceBudgetError(
                f"joint with {m.size} cells exceeds the {CELL_BUDGET}-cell budget"
            )
        if np.any(m < -CONSTRUCT_TOL):
            raise ValidationError("negative joint mass")
        total = float(m.sum())
        if abs(total - 1.0) > ARITH_TOL:
            raise ValidationError(f"joint mass sums to {total!r}, not 1 within 1e-10")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def marginal_mass(self, keep: Iterable[int]) -> np.ndarray:
        keep = sorted(set(keep))
        drop = tuple(i for i in range(self.ndim) if i not in keep)
        return self.mass.sum(axis=drop) if drop else self.mass

    def entropy(self, axes: Iterable[int] | None = None) -> float:
        """Entropy in bits of the marginal on ``axes`` (all axes when None)."""
        return entropy_bits(self.marginal_mass(range(self.ndim) if axes is None
                                               else axes))


def entropy(d) -> float:
    """Entropy in bits of a distribution, joint law, or raw mass vector.

    Raises :class:`ValidationError` when the input is not normalized.
    """
    if isinstance(d, (Dist, JointDist, SequenceDist)):
        return entropy_bits(d.mass)
    v = np.asarray(d, dtype=float)
    if abs(float(v.sum()) - 1.0) > ARITH_TOL or np.any(v < -CONSTRUCT_TOL):
        raise ValidationError("entropy() requires a normalized nonnegative mass")
    return entropy_bits(v)


def mutual_information(joint: JointDist,
                       group_a: Iterable[int],
                       group_b: Iterable[int],
                       cond: Iterable[int] = ()) -> float:
    """Conditional mutual information I(A ; B | C) in bits: the generic
    oracle that tests, demos and the benchmark's leakage check compare the
    library's kernels against (the library reads ``regions.info_profiles``).

    ``group_a``, ``group_b`` and ``cond`` are pairwise disjoint axis index
    sets of ``joint``.  Computed as H(AC) + H(BC) - H(ABC) - H(C).
    """
    a, b, c = set(group_a), set(group_b), set(cond)
    if (a & b) or (a & c) or (b & c):
        raise ValidationError("mutual_information groups must be pairwise disjoint")
    if not a or not b:
        raise ValidationError("mutual_information needs nonempty variable groups")
    bad = (a | b | c) - set(range(joint.ndim))
    if bad:
        raise ValidationError(f"axis indices {sorted(bad)} out of range")
    h_ac = joint.entropy(a | c)
    h_bc = joint.entropy(b | c)
    h_abc = joint.entropy(a | b | c)
    h_c = joint.entropy(c) if c else 0.0
    return h_ac + h_bc - h_abc - h_c


def _check_chain(p_u: Dist, v1_given_u: Channel, v2_given_u: Channel,
                 x_given_v1: Channel, y_given_v2: Channel, mac: WiretapMAC) -> None:
    """Raise unless each factor reads the alphabet the previous one emits and
    the last two emit the channel's inputs."""
    if v1_given_u.input_alphabet.size != p_u.alphabet.size:
        raise ValidationError("P(V1|U) input does not match |U|")
    if v2_given_u.input_alphabet.size != p_u.alphabet.size:
        raise ValidationError("P(V2|U) input does not match |U|")
    if x_given_v1.input_alphabet.size != v1_given_u.output_alphabet.size:
        raise ValidationError("P(X|V1) input does not match |V1|")
    if y_given_v2.input_alphabet.size != v2_given_u.output_alphabet.size:
        raise ValidationError("P(Y|V2) input does not match |V2|")
    if x_given_v1.output_alphabet.size != mac.x_alphabet.size:
        raise ValidationError("P(X|V1) output does not match the channel's |X|")
    if y_given_v2.output_alphabet.size != mac.y_alphabet.size:
        raise ValidationError("P(Y|V2) output does not match the channel's |Y|")


def joint_from_factors(p_u: Dist,
                       v1_given_u: Channel,
                       v2_given_u: Channel,
                       x_given_v1: Channel,
                       y_given_v2: Channel,
                       mac: WiretapMAC) -> JointDist:
    """Joint law of (U, V1, V2, X, Y, T, Z) from the factored input chain,
    behind ``FactoredInput.joint``: for entropies that no profile field
    holds (``casestudy.example62``) and for the tests' generic oracles.

    V1 and V2 are conditionally independent given U by construction, and
    (T, Z) depends on the rest only through (X, Y).
    """
    _check_chain(p_u, v1_given_u, v2_given_u, x_given_v1, y_given_v2, mac)
    cells = (p_u.alphabet.size * v1_given_u.output_alphabet.size
             * v2_given_u.output_alphabet.size * mac.x_alphabet.size
             * mac.y_alphabet.size * mac.t_alphabet.size * mac.z_alphabet.size)
    if cells > CELL_BUDGET:
        raise ResourceBudgetError(f"factored joint would need {cells} cells")
    mass = np.einsum("u,ua,ub,ax,by,xytz->uabxytz", p_u.mass, v1_given_u.matrix,
                     v2_given_u.matrix, x_given_v1.matrix, y_given_v2.matrix,
                     mac.tensor, optimize=True)
    axes = (p_u.alphabet, v1_given_u.output_alphabet, v2_given_u.output_alphabet,
            mac.x_alphabet, mac.y_alphabet, mac.t_alphabet, mac.z_alphabet)
    return JointDist(axes, mass)


# Axis layout of the factored joint, used across the region modules.
AX_U, AX_V1, AX_V2, AX_X, AX_Y, AX_T, AX_Z = range(7)


@dataclass(frozen=True)
class FactoredInput:
    """A member of the factored input family: the chain U -> (V1, V2) -> (X, Y).

    Together with the channel this determines the joint law of
    (U, V1, V2, X, Y, T, Z); the joint is built lazily and cached.
    """

    p_u: Dist
    v1_given_u: Channel
    v2_given_u: Channel
    x_given_v1: Channel
    y_given_v2: Channel
    mac: WiretapMAC

    def __post_init__(self):
        _check_chain(self.p_u, self.v1_given_u, self.v2_given_u,
                     self.x_given_v1, self.y_given_v2, self.mac)

    @staticmethod
    def independent(p_x: Dist, p_y: Dist, mac: WiretapMAC) -> "FactoredInput":
        """Product input with trivial U and identity prefixes (V1 = X, V2 = Y)."""
        u = Dist.uniform(1)
        return FactoredInput(
            u,
            Channel(Alphabet(1), p_x.alphabet, p_x.mass[None, :]),
            Channel(Alphabet(1), p_y.alphabet, p_y.mass[None, :]),
            Channel.identity(p_x.alphabet.size),
            Channel.identity(p_y.alphabet.size),
            mac,
        )

    @staticmethod
    def coupled(p_u: Dist, mac: WiretapMAC) -> "FactoredInput":
        """Fully coupled input: V1 = V2 = U and X = V1, Y = V2 deterministically.

        Requires |U| = |X| = |Y|.
        """
        size = p_u.alphabet.size
        if size != mac.x_alphabet.size or size != mac.y_alphabet.size:
            raise ValidationError("coupled input needs |U| = |X| = |Y|")
        ident = Channel.identity(size)
        return FactoredInput(p_u, ident, ident, ident, ident, mac)

    @cached_property
    def joint(self) -> JointDist:
        return joint_from_factors(self.p_u, self.v1_given_u, self.v2_given_u,
                                  self.x_given_v1, self.y_given_v2, self.mac)

    @cached_property
    def x_given_u(self) -> Channel:
        return self.x_given_v1.compose(self.v1_given_u)

    @cached_property
    def y_given_u(self) -> Channel:
        return self.y_given_v2.compose(self.v2_given_u)

    def u_independent(self, tol: float = ARITH_TOL) -> bool:
        """True when (V1, V2) carries no information about U."""
        if self.p_u.alphabet.size == 1:
            return True
        return mutual_information(self.joint, {AX_U}, {AX_V1, AX_V2}) <= tol

    def to_json_dict(self) -> dict:
        def mat(ch: Channel):
            return [[float(f"{v:.17g}") for v in row] for row in ch.matrix]

        return {
            "P_U": [float(f"{v:.17g}") for v in self.p_u.mass],
            "P_V1_given_U": mat(self.v1_given_u),
            "P_V2_given_U": mat(self.v2_given_u),
            "P_X_given_V1": mat(self.x_given_v1),
            "P_Y_given_V2": mat(self.y_given_v2),
        }

    @staticmethod
    def from_json_dict(obj: dict, mac: WiretapMAC) -> "FactoredInput":
        try:
            return FactoredInput(
                Dist.from_mass(obj["P_U"]),
                Channel.from_matrix(obj["P_V1_given_U"]),
                Channel.from_matrix(obj["P_V2_given_U"]),
                Channel.from_matrix(obj["P_X_given_V1"]),
                Channel.from_matrix(obj["P_Y_given_V2"]),
                mac,
            )
        except KeyError as exc:
            raise ValidationError(f"input JSON missing field {exc}") from None


# ---------------------------------------------------------------------------
# Sequence machinery
# ---------------------------------------------------------------------------

def all_sequences(size: int, n: int) -> np.ndarray:
    """All length-n sequences over {0..size-1}, lexicographic, shape (size**n, n)."""
    count = size ** n
    if count * n > CELL_BUDGET:
        raise ResourceBudgetError(f"enumerating {count} sequences exceeds the budget")
    idx = np.arange(count)
    out = np.empty((count, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = idx % size
        idx //= size
    return out


def zip_sequences(*seqs) -> tuple[np.ndarray, int]:
    """Merge parallel sequences into one over the product alphabet.

    Returns the merged sequence and the product alphabet size; the last
    argument must be a list of per-sequence alphabet sizes.
    """
    *arrays, sizes = seqs
    arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
    if len(arrays) != len(sizes):
        raise ValidationError("zip_sequences: one size per sequence required")
    merged = np.zeros_like(arrays[0])
    total = 1
    for arr, size in zip(arrays, sizes):
        if arr.shape != arrays[0].shape:
            raise ValidationError("zip_sequences: length mismatch")
        merged = merged * size + arr
        total *= size
    return merged, total


@dataclass(frozen=True)
class SequenceDist:
    """A dense distribution over length-n sequences from one alphabet.

    The mass vector is indexed lexicographically (symbol 0 most significant).
    """

    alphabet: Alphabet
    blocklength: int
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        expected = self.alphabet.size ** self.blocklength
        if m.shape != (expected,):
            raise ValidationError(
                f"sequence mass length {m.shape} != {self.alphabet.size}^{self.blocklength}"
            )
        if np.any(m < -CONSTRUCT_TOL):
            raise ValidationError("negative sequence mass")
        total = float(m.sum())
        if abs(total - 1.0) > ARITH_TOL:
            raise ValidationError(f"sequence mass sums to {total!r}, not 1 within 1e-10")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    def support(self) -> np.ndarray:
        """The sequences of positive mass, lexicographic like
        :func:`all_sequences`, shape (count, n)."""
        return np.stack(np.unravel_index(np.flatnonzero(self.mass > 0.0),
                                         (self.alphabet.size,) * self.blocklength),
                        axis=1)


def n_fold(ch: Channel, n: int) -> Channel:
    """Memoryless n-fold extension of a channel, dense.

    The extension's transition probability is the product of the per-letter
    probabilities.  Raises :class:`ResourceBudgetError` when the dense matrix
    would exceed the cell budget.
    """
    if n < 1:
        raise ValidationError(f"n_fold needs n >= 1, got {n}")
    nin = ch.input_alphabet.size ** n
    nout = ch.output_alphabet.size ** n
    if nin * nout > CELL_BUDGET:
        raise ResourceBudgetError(
            f"n-fold extension would need {nin}x{nout} entries"
        )
    m = np.ones((1, 1))
    for _ in range(n):
        m = np.kron(m, ch.matrix)
    return Channel(Alphabet(nin), Alphabet(nout), m)


# Count cells per bincount block; bounds the transient arrays of a count over
# many sequences (typical masks, decodes) to about 128 kB each.
_BLOCK_CELLS = 1 << 14
# Cells of one stacked window, about 4 MB: the sequences one window of
# truncated laws tests, or the output cells one block of Monte Carlo draws
# compares.
_WINDOW_CELLS = 1 << 19


def _sequence_law(law, n: int, context=None, rows: int | None = None):
    """A sequence law as (row-stochastic matrix, context, output alphabet).

    A :class:`Dist` is the one-row matrix under the all-zero context, so its
    context frequency N(0)/n is exactly 1.0 and every typicality decision
    matches the unconditional formula bit for bit.  A :class:`Channel` is
    read under ``context``, a length-n sequence of its input symbols, or
    with ``rows`` given, an (rows, n) array of them.
    """
    if n < 1:
        raise ValidationError(f"blocklength must be at least 1, got {n}")
    if context is None:
        if not isinstance(law, Dist):
            raise ValidationError("unconditional typicality needs a Dist law")
        return law.mass[None, :], np.zeros(n, dtype=np.int64), law.alphabet
    if not isinstance(law, Channel):
        raise ValidationError("conditional typicality needs a Channel law")
    context = np.asarray(context, dtype=np.int64)
    if context.shape != ((n,) if rows is None else (rows, n)):
        raise ValidationError("context length mismatch")
    if context.min() < 0 or context.max() >= law.input_alphabet.size:
        raise ValidationError("context symbols out of range")
    return law.matrix, context, law.output_alphabet


def _typical_rows(matrix: np.ndarray, context: np.ndarray, seqs: np.ndarray,
                  delta: float) -> np.ndarray:
    """Counting typicality of each row of ``seqs`` (shape (m, n)) under the
    law ``matrix[b, a] = P(a|b)`` given ``context``:
    ``|N(a,b)/n - P(a|b) * N(b)/n| <= delta`` for every pair (a, b).

    ``context`` is one (n,) sequence shared by all rows, or an (m, n) array
    of one per row; each row's decision is the same either way.  This is the
    library's one pair count: membership, masks, the truncated laws, the
    concentration checks and the decoder all call it."""
    if delta <= 0:
        raise ValidationError("typicality needs delta > 0")
    m, n = seqs.shape
    nb, na = matrix.shape
    cells = matrix.size
    step = max(min(_BLOCK_CELLS // max(cells, n), m), 1)
    offsets = np.arange(0, step * cells, cells)[:, None]
    per_row = context.ndim == 2
    if per_row:
        row_bases = np.arange(0, step * nb, nb)[:, None]
    else:
        freq = np.bincount(context, minlength=nb) / n
        target = (matrix * freq[:, None]).ravel()
        # flat count index (row, context symbol, symbol) minus the symbol
        shift = context * na + offsets
    ok = np.empty(m, dtype=bool)
    for lo in range(0, m, step):
        block = seqs[lo:lo + step]
        k = len(block)
        if per_row:
            ctx = context[lo:lo + k]
            freq = np.bincount((ctx + row_bases[:k]).ravel(),
                               minlength=k * nb).reshape(k, nb) / n
            target = (matrix * freq[:, :, None]).reshape(k, cells)
            shift = ctx * na + offsets[:k]
        dev = np.bincount((block + shift[:k]).ravel(),
                          minlength=k * cells).reshape(k, cells) / n
        np.subtract(dev, target, out=dev)
        ok[lo:lo + k] = (np.abs(dev, out=dev) <= delta).all(axis=1)
    return ok


def typical_membership(law, seq, delta: float, context=None) -> bool:
    """Counting-typicality test for one sequence: the definition that the
    stacked typicality kernels implement, for demos and one-off checks.

    Unconditional (``law`` a :class:`Dist`): requires
    ``|N(a|seq)/n - P(a)| <= delta`` for every symbol ``a``.

    Conditional (``law`` a :class:`Channel`, ``context`` the conditioning
    sequence): requires
    ``|N(a,b|seq,ctx)/n - P(a|b) * N(b|ctx)/n| <= delta`` for every pair.
    """
    seq = np.asarray(seq, dtype=np.int64)
    matrix, context, _ = _sequence_law(law, seq.shape[0], context)
    if seq.size and (seq.min() < 0 or seq.max() >= matrix.shape[1]):
        raise ValidationError("sequence symbols out of range")
    return bool(_typical_rows(matrix, context, seq[None, :], delta)[0])


def typical_mask(law, delta: float, n: int, context=None) -> np.ndarray:
    """Boolean mask over all length-n sequences: which are delta-typical.

    Same convention as :func:`typical_membership`, over the lexicographic
    sequence enumeration.
    """
    matrix, context, _ = _sequence_law(law, n, context)
    return _typical_rows(matrix, context, all_sequences(matrix.shape[1], n),
                         delta)


def _truncated_laws(matrix: np.ndarray, contexts: np.ndarray,
                    delta: float) -> np.ndarray:
    """Masses of the truncated typical law of ``matrix[b, a] = P(a|b)``
    given each row of ``contexts`` (shape (m, n)): the i.i.d. law conditioned
    and renormalized on its delta-typical set, one row per context over all
    |A|^n sequences (lexicographic).  The (context, sequence) pairs are
    tested in windows of ``_WINDOW_CELLS`` cells, and each row is normalized
    by the sum of its own typical masses, so every row is the same in any
    stack.  This is the library's one truncated law.  Raises
    :class:`DegenerateTypicalityError` when a typical set is empty."""
    m, n = contexts.shape
    seqs = all_sequences(matrix.shape[1], n)
    probs = np.empty((m, len(seqs)))
    mask = np.empty(probs.shape, dtype=bool)
    step = max(_WINDOW_CELLS // n, 1)
    for lo in range(0, probs.size, step):
        rows, cols = np.divmod(np.arange(lo, min(lo + step, probs.size)),
                               len(seqs))
        ctx, seq = contexts[rows], seqs[cols]
        mask.reshape(-1)[lo:lo + step] = _typical_rows(matrix, ctx, seq, delta)
        probs.reshape(-1)[lo:lo + step] = np.prod(matrix[ctx, seq], axis=1)
    totals = np.array([p[keep].sum() for p, keep in zip(probs, mask)])
    if not (totals > 0.0).all():
        raise DegenerateTypicalityError(
            f"empty {delta}-typical set at blocklength {n}")
    probs[~mask] = 0.0
    probs /= totals[:, None]
    return probs


def truncated_typical_dist(law, n: int, delta: float, context=None) -> SequenceDist:
    """The i.i.d. law conditioned and renormalized on its delta-typical set.

    ``law`` is a :class:`Dist` (unconditional) or a :class:`Channel` with a
    conditioning ``context`` sequence: one row of :func:`_truncated_laws`.
    Raises :class:`DegenerateTypicalityError` when the typical set is empty.
    """
    matrix, context, alphabet = _sequence_law(law, n, context)
    return SequenceDist(alphabet, n,
                        _truncated_laws(matrix, context[None, :], delta)[0])


def _inverse_cdf(matrix: np.ndarray) -> np.ndarray:
    """Per row of a stochastic matrix, the normalized cumulative sums that
    one uniform each reads as a symbol: the count of entries <= it."""
    cdf = np.cumsum(matrix, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


@dataclass(frozen=True)
class _CountBoxes:
    """The count-box table of ``matrix[b, a] = P(a|b)`` at (n, delta).

    Counting typicality given a context constrains each context symbol b's
    counts on their own: the count vector c of b's N(b) positions must lie
    in b's box ``|c/n - P(.|b) * (N(b)/n)| <= delta``, the float expression
    of :func:`_typical_rows`.  So the truncated typical law given a context
    is, per context symbol, a count vector drawn by its multinomial mass
    within the box, in a uniform arrangement over b's positions
    (Csiszar-Korner, ch. 2).  ``counts`` lists every box vector that puts
    no count on a zero-mass symbol, grouped by key b*(n+1) + N in ascending
    order; ``mass`` is its multinomial mass normalized over its group,
    ``cum`` its key plus its group's running mass (the group's last is
    key + 1 exactly), and key k's group is ``counts[first[k]:first[k+1]]``.
    The arrays are read-only: a code chain keeps its tables and lends them
    to every draw (:meth:`wtmac.codesim.CodeChain.count_boxes`).
    """

    n: int
    delta: float
    counts: np.ndarray
    mass: np.ndarray
    cum: np.ndarray
    first: np.ndarray

    def __post_init__(self):
        for table in (self.counts, self.mass, self.cum, self.first):
            table.setflags(write=False)

    @staticmethod
    def build(matrix: np.ndarray, n: int, delta: float) -> "_CountBoxes":
        if delta <= 0:
            raise ValidationError("typicality needs delta > 0")
        nb, na = matrix.shape
        count = math.comb(n + na, na)
        if count * matrix.size > CELL_BUDGET:
            raise ResourceBudgetError(
                f"count boxes of {na} symbols at blocklength {n} exceed the "
                f"{CELL_BUDGET}-cell budget")
        # stars and bars: |A| bars among n + |A| slots give every count
        # vector of total <= n, lexicographic; then grouped by total
        slots = itertools.combinations(range(n + na), na)
        bars = np.fromiter(itertools.chain.from_iterable(slots), np.int64,
                           count * na).reshape(count, na)
        vecs = np.diff(bars, axis=1, prepend=-1) - 1
        vecs = vecs[np.argsort(vecs.sum(axis=1), kind="stable")]
        total = vecs.sum(axis=1)
        dev = np.abs(vecs / n - matrix[:, None, :] * (total / n)[:, None])
        box = ((dev <= delta) & ((vecs == 0) | (matrix[:, None, :] > 0))
               ).all(axis=2)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
        log_p = np.log(np.where(matrix > 0, matrix, 1.0))
        mass = np.exp(np.where(box, log_fact[total] - log_fact[vecs].sum(axis=1)
                               + log_p @ vecs.T, -np.inf))
        # box entries b-major, then by total: ascending keys b*(n+1) + N
        b, v = np.nonzero(box)
        sums = np.add.reduceat(mass, np.searchsorted(total, np.arange(n + 1)),
                               axis=1)
        mass = mass[b, v] / sums[b, total[v]]
        key = b * (n + 1) + total[v]
        first = np.searchsorted(key, np.arange(nb * (n + 1) + 1))
        run = np.concatenate([[0.0], np.cumsum(mass)])
        below, top = run[first[key]], run[first[key + 1]]
        return _CountBoxes(n, delta, vecs[v], mass,
                           key + (run[1:] - below) / (top - below), first)

    def keys(self, contexts: np.ndarray) -> np.ndarray:
        """Per row of ``contexts`` (shape (m, n)) and context symbol b, the
        key b*(n+1) + N(b) of its box.  Raises
        :class:`DegenerateTypicalityError` when a box is empty, that is when
        the typical set given that row is empty."""
        symbols = np.arange(len(self.first) // (self.n + 1))
        keys = symbols * (self.n + 1) + (
            contexts[:, None, :] == symbols[:, None]).sum(axis=2)
        if (self.first[keys] == self.first[keys + 1]).any():
            raise DegenerateTypicalityError(
                f"empty {self.delta}-typical set at blocklength {self.n}")
        return keys

    def draw(self, contexts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One sequence of the truncated typical law given each row of
        ``contexts`` (shape (m, n)), from its row of ``uniforms`` (shape
        (m, |B| + n)): one uniform per context symbol picks its count vector
        by the group's cumulative mass, then n sort keys arrange the symbols
        within that symbol's positions.  Each row depends only on its own
        context and uniforms."""
        keys = self.keys(contexts)
        nb = keys.shape[1]
        pick = np.minimum(
            np.searchsorted(self.cum, keys + uniforms[:, :nb], side="right"),
            self.first[keys + 1] - 1)
        counts = self.counts[pick]
        m, n = contexts.shape
        # positions sorted by (context symbol, sort key) take, per context
        # symbol, counts[a] copies of each symbol a in turn
        order = np.lexsort((uniforms[:, nb:], contexts), axis=1)
        symbols = np.repeat(np.tile(np.arange(counts.shape[2]), m * nb),
                            counts.ravel()).reshape(m, n)
        out = np.empty((m, n), dtype=np.int64)
        out[np.arange(m)[:, None], order] = symbols
        return out


def sample_typical(law, n: int, delta: float, rng: np.random.Generator,
                   context=None) -> np.ndarray:
    """Draw one sequence from the truncated typical law: the one-row view of
    :meth:`_CountBoxes.draw`, reading |B| + n uniforms from ``rng`` (|B| = 1
    for a :class:`Dist`).  Exact: each count vector is drawn by its
    multinomial mass within its box and arranged uniformly.  Raises
    :class:`DegenerateTypicalityError` when the typical set is empty,
    before any uniform is drawn.
    """
    matrix, context, _ = _sequence_law(law, n, context)
    boxes = _CountBoxes.build(matrix, n, delta)
    boxes.keys(context[None])
    return boxes.draw(context[None], rng.random((1, len(matrix) + n)))[0]
