"""Desk-scale random wiretap codes: sampling, decoding, exact secrecy audits.

Codebooks are drawn i.i.d. from truncated typical laws, decoding is unique
joint typicality (ties and misses decode to failure), and at tiny
blocklengths everything of interest -- average error, the eavesdropper's
exact message leakage and optimal decoding error -- is computed by full
enumeration.  The concentration machinery evaluates the (desk-scale
instantiations of the) codebook concentration bounds and measures the
empirical failure frequencies of their events over resampled codebooks.

The typicality slack functions have no closed form at this scale; every
size window carries a single slack parameter (bits, ``DEFAULT_SLACK`` =
0.05 unless a code is built with its own), and the concentration checks
use a fixed tail exponent constant, ``DEFAULT_TAIL_EXPONENT``, the
Hoeffding-style 2*log2(e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    BlocklengthTooSmallError,
    PreconditionError,
    ResourceBudgetError,
    ValidationError,
)
from .probkit import (
    Alphabet,
    CELL_BUDGET,
    Channel,
    Dist,
    FactoredInput,
    JointDist,
    WiretapMAC,
    _CountBoxes,
    _WINDOW_CELLS,
    _inverse_cdf,
    _typical_rows,
    all_sequences,
    entropy_bits,
)
from .regions import (
    CaseLabel,
    InfoProfile,
    alpha_bounds_case1,
    alpha_bounds_case2,
    elementary_region,
    info_profile,
    randomization_rates,
)

DEFAULT_SLACK = 0.05
DEFAULT_TAIL_EXPONENT = 2.0 * math.log2(math.e)  # Hoeffding-style surrogate
# Largest gap between n/(n+n2) and the time-sharing fraction a code realizes.
GAMMA = 0.05
# Largest message size, and largest per-family randomization size of a pair.
SIZE_CAP = 4096
# Output cells of channel rows one per-symbol product pass writes (256 kB):
# its writes stride by |Z|, so the block it sweeps |Z| times stays in cache.
_ROW_CELLS = 1 << 15
# The seeded streams of codebooks and Monte Carlo outputs: 1 drew them by
# rejection and one trial at a time, 2 by count boxes and in one draw.
SAMPLER_VERSION = 2


@dataclass(frozen=True)
class CodeChain:
    """The (U, X|U, Y|U) generating chain of a codebook plus the channel."""

    p_u: Dist
    x_given_u: Channel
    y_given_u: Channel
    mac: WiretapMAC

    @staticmethod
    def from_factored(p: FactoredInput) -> "CodeChain":
        return CodeChain(p.p_u, p.x_given_u, p.y_given_u, p.mac)

    @cached_property
    def joint(self) -> JointDist:
        """Joint law of (U, X, Y, T, Z)."""
        mass = np.einsum("u,ux,uy,xytz->uxytz", self.p_u.mass,
                         self.x_given_u.matrix, self.y_given_u.matrix,
                         self.mac.tensor, optimize=True)
        return JointDist((self.p_u.alphabet, self.mac.x_alphabet,
                          self.mac.y_alphabet, self.mac.t_alphabet,
                          self.mac.z_alphabet), mass)

    @cached_property
    def decode_law(self) -> Dist:
        """P(U, X, Y, T) as one distribution over the zipped symbol."""
        mass = self.joint.marginal_mass({0, 1, 2, 3}).ravel()
        size = (self.p_u.alphabet.size * self.mac.x_alphabet.size
                * self.mac.y_alphabet.size * self.mac.t_alphabet.size)
        return Dist(Alphabet(size), mass)

    @cached_property
    def profile(self) -> InfoProfile:
        """Information profile with the inputs themselves as auxiliaries."""
        p = FactoredInput(self.p_u, self.x_given_u, self.y_given_u,
                          Channel.identity(self.mac.x_alphabet.size),
                          Channel.identity(self.mac.y_alphabet.size), self.mac)
        return info_profile(p)

    @cached_property
    def _boxes(self) -> dict:
        return {}

    def count_boxes(self, which: int, n: int, delta: float) -> _CountBoxes:
        """The count-box table at (n, delta) of the u law (``which`` 0), of
        X|U (1) or of Y|U (2), built on first use and kept, like
        :attr:`joint`; X|U and Y|U share one table when they are equal."""
        if which == 2 and np.array_equal(self.x_given_u.matrix,
                                         self.y_given_u.matrix):
            which = 1
        key = (which, n, delta)
        if key not in self._boxes:
            law = (self.p_u.mass[None, :], self.x_given_u.matrix,
                   self.y_given_u.matrix)[which]
            self._boxes[key] = _CountBoxes.build(law, n, delta)
        return self._boxes[key]


@dataclass(frozen=True)
class CodebookFamily:
    """An i.i.d. typical codebook: shared sequences per common index, private
    sequences per (common, private) index pair.

    Arrays: ``u`` has shape (K0, L0, n); ``x`` (K0, L0, K1, L1, n);
    ``y`` (K0, L0, K2, L2, n).  Every u is delta-typical and every private
    sequence conditionally delta-typical given its u; a drawn family holds
    exact draws of the truncated typical laws
    (:func:`sample_codebook_families`).
    """

    chain: CodeChain
    n: int
    k_sizes: tuple[int, int, int]
    l_sizes: tuple[int, int, int]
    delta: float
    seed: int
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The u, x and y codewords of every (message, l-tuple) pair as
        (K*L, n) arrays: message-major, each triple in C order, the order
        of :meth:`WiretapCode.index_tuples` for one family."""
        k0, k1, k2 = np.indices(self.k_sizes).reshape(3, -1, 1)
        l0, l1, l2 = np.indices(self.l_sizes).reshape(3, 1, -1)
        return tuple(a.reshape(-1, self.n) for a in (
            self.u[k0, l0], self.x[k0, l0, k1, l1], self.y[k0, l0, k2, l2]))

    def codeword(self, k, l) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (u, x, y) codeword of one message triple ``k`` and l-tuple
        ``l``: single-index access for callers and tests; the library reads
        every codeword at once through :meth:`words`."""
        k0, k1, k2 = k
        l0, l1, l2 = l
        return (self.u[k0, l0], self.x[k0, l0, k1, l1], self.y[k0, l0, k2, l2])

    def to_csv(self) -> str:
        """Flat listing of every sequence: kind, index tuple, symbols."""
        lines = ["kind,k0,l0,k1_or_k2,l1_or_l2,sequence"]
        k0s, l0s = self.k_sizes[0], self.l_sizes[0]
        for a in range(k0s):
            for b in range(l0s):
                seq = " ".join(map(str, self.u[a, b]))
                lines.append(f"u,{a},{b},,,{seq}")
                for c in range(self.k_sizes[1]):
                    for d in range(self.l_sizes[1]):
                        seq = " ".join(map(str, self.x[a, b, c, d]))
                        lines.append(f"x,{a},{b},{c},{d},{seq}")
                for c in range(self.k_sizes[2]):
                    for d in range(self.l_sizes[2]):
                        seq = " ".join(map(str, self.y[a, b, c, d]))
                        lines.append(f"y,{a},{b},{c},{d},{seq}")
        return "\n".join(lines) + "\n"


def sample_codebook_families(p, n: int, l_sizes: Sequence[int], delta: float,
                             seeds: Sequence[int],
                             k_sizes: Sequence[int] = (1, 1, 1)
                             ) -> list[CodebookFamily]:
    """Draw one codebook family per seed from the truncated typical laws of
    ``p``.

    ``p`` is a factored input or a :class:`CodeChain`; per-sender sequences
    are conditionally independent given their shared sequence.  Each family
    reads its own seed's generator, all its uniforms in one call: per u,
    then per x and per y (message-major), |B| + n uniforms, where |B| is 1
    for u and |U| for x and y (:meth:`~wtmac.probkit._CountBoxes.draw`).
    The u's, x's and y's of every family are then drawn in one kernel call
    each, from the chain's tables (:meth:`CodeChain.count_boxes`), so a
    family is the same drawn alone or with others, on a fresh chain or on
    one that has drawn before.  No seeds draw no family.
    """
    if n < 1:
        raise ValidationError(f"blocklength must be at least 1, got {n}")
    chain = p if isinstance(p, CodeChain) else CodeChain.from_factored(p)
    l0, l1, l2 = (int(v) for v in l_sizes)
    k0, k1, k2 = (int(v) for v in k_sizes)
    if min(l0, l1, l2, k0, k1, k2) < 1:
        raise ValidationError("codebook sizes must be positive")
    seeds = [int(s) for s in seeds]
    size = len(seeds)
    if not size:
        return []
    # per family: K0*L0 u rows, then K1*L1 x rows and K2*L2 y rows per u
    rows = [k0 * l0, k0 * l0 * k1 * l1, k0 * l0 * k2 * l2]
    contexts = (1, chain.p_u.alphabet.size, chain.p_u.alphabet.size)
    cuts = np.cumsum([r * (b + n) for r, b in zip(rows, contexts)])
    draws = np.split(np.stack([np.random.default_rng(s).random(cuts[-1])
                               for s in seeds]), cuts[:-1], axis=1)
    u = chain.count_boxes(0, n, delta).draw(
        np.zeros((size * rows[0], n), dtype=np.int64),
        draws[0].reshape(size * rows[0], -1))
    boxes = [chain.count_boxes(which, n, delta) for which in (1, 2)]
    x, y = (b.draw(np.repeat(u, r // rows[0], axis=0), d.reshape(size * r, -1))
            for b, r, d in zip(boxes, rows[1:], draws[1:]))
    u = u.reshape(size, k0, l0, n)
    x = x.reshape(size, k0, l0, k1, l1, n)
    y = y.reshape(size, k0, l0, k2, l2, n)
    return [CodebookFamily(chain, n, (k0, k1, k2), (l0, l1, l2), delta, seed,
                           u[i], x[i], y[i])
            for i, seed in enumerate(seeds)]


def sample_codebook_family(p, n: int, l_sizes: Sequence[int], delta: float,
                           seed: int,
                           k_sizes: Sequence[int] = (1, 1, 1)) -> CodebookFamily:
    """Draw a codebook family from the truncated typical laws of ``p``.

    ``p`` is a factored input or a :class:`CodeChain`; per-sender sequences
    are conditionally independent given their shared sequence.  Reproducible
    from the seed.
    """
    return sample_codebook_families(p, n, l_sizes, delta, [seed], k_sizes)[0]


# ---------------------------------------------------------------------------
# Size windows
# ---------------------------------------------------------------------------

def _window_int(lo_bits: float, hi_bits: float) -> int | None:
    """Smallest integer whose log2 lies in [lo_bits, hi_bits], if any."""
    lo = max(math.ceil(2.0 ** lo_bits - 1e-9), 1)
    if math.log2(lo) <= hi_bits + 1e-12:
        return lo
    return None


def _window_pair(total_lo: float, total_hi: float):
    """Smallest integer pair (a, b), neither above ``SIZE_CAP``, with
    log2(a) + log2(b) in the window."""
    for a in range(1, SIZE_CAP + 1):
        la = math.log2(a)
        if la > total_hi + 1e-12:
            break
        b = _window_int(total_lo - la, total_hi - la)
        if b is not None and b <= SIZE_CAP:
            return a, b
    return None


def _required_n(bits_fn, n_start: int, n_cap: int) -> int | None:
    for m in range(n_start, n_cap + 1):
        lo, hi = bits_fn(m)
        if _window_int(lo, hi) is not None:
            return m
    return None


@dataclass(frozen=True)
class WiretapCode:
    """A built wiretap code: one codebook family, or two concatenated ones.

    The stochastic encoders are implicit: the common-randomness index is
    uniform, each sender mixes uniformly over its private randomization
    indices, and the decoder is unique joint typicality over the full index
    tuple (both halves must be typical for concatenated codes).
    """

    case: CaseLabel
    hc: float
    delta: float
    slack: float
    alpha: float | None
    families: tuple[CodebookFamily, ...]
    rate_targets: tuple[float, float, float]

    def __post_init__(self):
        ks = {fam.k_sizes for fam in self.families}
        if len(ks) != 1:
            raise ValidationError("families must share the message sets")

    @property
    def chain(self) -> CodeChain:
        return self.families[0].chain

    @property
    def k_sizes(self) -> tuple[int, int, int]:
        return self.families[0].k_sizes

    @property
    def n_total(self) -> int:
        return sum(fam.n for fam in self.families)

    @property
    def message_count(self) -> int:
        return math.prod(self.k_sizes)

    @property
    def randomization_count(self) -> int:
        return math.prod(math.prod(fam.l_sizes) for fam in self.families)

    @property
    def common_randomness_rate(self) -> float:
        """(1/n) log of the shared randomization alphabet (the L0 indices)."""
        bits = sum(math.log2(fam.l_sizes[0]) for fam in self.families)
        return bits / self.n_total

    def realized_rates(self) -> tuple[float, float, float]:
        k0, k1, k2 = self.k_sizes
        return (math.log2(k0) / self.n_total, math.log2(k1) / self.n_total,
                math.log2(k2) / self.n_total)

    def index_tuples(self):
        """All (message triple, per-family l-tuples) index combinations,
        message-major and each triple in C order, the row order of
        :meth:`CodebookFamily.words`."""
        return product(product(*map(range, self.k_sizes)),
                       product(*(product(*map(range, fam.l_sizes))
                                 for fam in self.families)))

    @cached_property
    def decode_plan(self) -> "_DecodePlan":
        """Codeword data for joint-typicality decoding, built once per code."""
        return _DecodePlan.build(self)

    @cached_property
    def error_terms(self) -> np.ndarray:
        """(tuples, 2): per index tuple, the exact probability that the
        decoder misses it, then its message; once per code, read-only."""
        rows = _bob_rows(self)
        decoded = _decode_all(self, self.delta)
        message_ids = self.decode_plan.message_ids
        decoded_msg = np.where(decoded >= 0, message_ids[decoded], -1)
        terms = np.array([(row @ (decoded != i), row @ (decoded_msg != m))
                          for i, (row, m) in enumerate(zip(rows, message_ids))])
        terms.setflags(write=False)
        return terms

    @cached_property
    def eve_conditionals(self) -> np.ndarray:
        """:func:`eavesdropper_conditionals`, computed once per code;
        read-only."""
        cond = eavesdropper_conditionals(self)
        cond.setflags(write=False)
        return cond


def build_wiretap_code(p, case: CaseLabel, rates: Sequence[float], hc: float,
                       n: int, delta: float, *, slack: float = DEFAULT_SLACK,
                       seed: int = 0, n2: int | None = None,
                       alpha: float | None = None) -> WiretapCode:
    """Build a wiretap code whose sizes sit inside the per-case windows.

    The randomization sizes L are chosen with ``log2(L)/n`` inside
    ``[J + 2*slack, J + 3*slack]`` for the case's randomization rates J
    (:func:`~wtmac.regions.randomization_rates`), and message sizes K with
    ``log2(K*L)/n`` inside ``[R + J - slack, R + J - slack/2]`` for positive
    rate targets.  Cases with an interior time-sharing fraction build two
    families at blocklengths (n, n2), within ``GAMMA`` of the fraction, with
    the windows applied to the combined sizes.  Raises
    :class:`BlocklengthTooSmallError` (with a workable-blocklength estimate)
    when a window holds no integer, and refuses budgets whose randomization
    rate exceeds the common randomness bound.
    """
    if n < 1 or (n2 is not None and n2 < 1):
        raise ValidationError(
            f"blocklengths must be at least 1, got n = {n}, n2 = {n2}")
    chain = p if isinstance(p, CodeChain) else CodeChain.from_factored(p)
    case = CaseLabel(case)
    rates = tuple(float(v) for v in rates)
    if len(rates) != 3:
        raise ValidationError("rates must be a triple (R0, R1, R2)")
    if case == CaseLabel.CASE0 and rates[0] > 0:
        raise PreconditionError(
            "a common message cannot be protected without common randomness"
        )
    alpha_eff = 1.0 if case == CaseLabel.CASE3 or alpha is None else float(alpha)
    time_share = case != CaseLabel.CASE3 and 0.0 < alpha_eff < 1.0
    if time_share:
        if n2 is None:
            raise PreconditionError("interior alpha needs the second blocklength n2")
        realized = n / (n + n2)
        if abs(realized - alpha_eff) > GAMMA:
            raise PreconditionError(
                f"n/(n+n2) = {realized:.4f} misses alpha = {alpha_eff} "
                f"by more than gamma = {GAMMA}"
            )
    prof = chain.profile
    if alpha is None and case != CaseLabel.CASE3:
        # the default alpha = 1 must lie in the case's time-sharing interval
        bounds = (alpha_bounds_case2(prof, hc) if case == CaseLabel.CASE2
                  else alpha_bounds_case1(prof))
        if not bounds.degenerate and not bounds.contains(1.0):
            raise PreconditionError(
                f"the default alpha = 1 lies outside the {case.name} "
                f"time-sharing interval [{bounds.alpha0}, {bounds.alpha1}]; "
                f"pass an alpha inside it (an interior alpha also needs n2)")
    # rate-target membership in the elementary region
    region = elementary_region(prof, case, alpha_eff, check_range=False)
    if not region.contains(rates, tol=1e-9):
        raise PreconditionError(
            f"rate targets {rates} violate the {case.name} elementary region: "
            f"{region.violated(rates, 1e-9)}"
        )

    j_vals = randomization_rates(prof, case, alpha_eff)
    lengths = (n, n2) if time_share else (n,)
    n_total = sum(lengths)

    def l_window_bits(m: int, j: float) -> tuple[float, float]:
        return (m * (j + 2 * slack), m * (j + 3 * slack))

    # structural L shape per case and family; in Case 2 the first family
    # randomizes only the first sender and the second family only the second
    # (a single family at an endpoint alpha takes the matching shape)
    def l_shape(which: int) -> tuple[bool, bool, bool]:
        if case == CaseLabel.CASE3:
            return (True, False, False)
        if case in (CaseLabel.CASE0, CaseLabel.CASE1):
            return (case != CaseLabel.CASE0, True, True)
        if not time_share:
            return (True, alpha_eff > 0.0, alpha_eff <= 0.0)
        return (True, which == 0, which == 1)

    # windows on the combined sizes across the families: one active family
    # takes the smallest integer, two take the smallest integer pair
    l_sizes = [[1, 1, 1] for _ in lengths]
    for nu in range(3):
        active = [w for w in range(len(lengths)) if l_shape(w)[nu]]
        if not active:
            continue
        lo, hi = l_window_bits(n_total, j_vals[nu])
        sizes = ((_window_int(lo, hi),) if len(active) == 1
                 else _window_pair(lo, hi))
        if sizes is None or None in sizes:
            need = _required_n(lambda mm, j=j_vals[nu]: l_window_bits(mm, j),
                               n_total + 1, 16 * n_total)
            raise BlocklengthTooSmallError(
                f"no integer L{nu} per family fits the window at "
                f"n_total={n_total}", required_n=need)
        for w, size in zip(active, sizes):
            l_sizes[w][nu] = size

    if case != CaseLabel.CASE0:  # a Case-0 code has no shared index
        l0_bits = sum(math.log2(s[0]) for s in l_sizes)
        if l0_bits / n_total > hc + 1e-12:
            raise PreconditionError(
                f"realized randomness rate {l0_bits / n_total:.4f} exceeds "
                f"the common randomness bound {hc}"
            )

    # message sizes against the combined windows (positive-part clamps: tiny
    # targets degrade to a single message at desk scale)
    k_sizes = [1, 1, 1]
    for nu in range(3):
        if rates[nu] <= 0:
            continue
        l_bits = sum(math.log2(s[nu]) for s in l_sizes)
        tilde = rates[nu] + j_vals[nu]
        lo = max(n_total * (tilde - slack), 0.0) - l_bits
        hi = max(n_total * (tilde - slack / 2), 0.0) - l_bits
        if hi < 0.0:
            if lo <= 0.0:
                continue  # the randomization indices already exhaust the budget
            raise BlocklengthTooSmallError(
                f"rate window for K{nu} is empty at n_total={n_total}",
                required_n=None)
        k = _window_int(max(lo, 0.0), hi)
        if k is None or k > SIZE_CAP:
            raise BlocklengthTooSmallError(
                f"no integer K{nu} fits the rate window at n_total={n_total}",
                required_n=None)
        k_sizes[nu] = k

    families = []
    for which, m in enumerate(lengths):
        families.append(sample_codebook_family(
            chain, m, l_sizes[which], delta, seed + which, k_sizes=k_sizes))
    return WiretapCode(case, hc, delta, slack,
                       alpha_eff if time_share or case == CaseLabel.CASE2 else None,
                       tuple(families), rates)


# ---------------------------------------------------------------------------
# Decoding and error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DecodePlan:
    """The per-code codeword data, from one ``words()`` call per family.

    ``tuples`` lists the index tuples in :meth:`WiretapCode.index_tuples`
    order; ``columns[i, f]`` is tuple i's codeword in family f,
    ``message_ids[i]`` the position of its message triple, and ``xs``,
    ``ys`` the (tuples, n_total) x and y codewords, each family's words
    gathered by its column and concatenated along time.  ``families``
    holds per family its output start, ``offsets`` (codewords, n): each
    position's base symbol (u*|X| + x)*|Y| + y as its rank among the bases
    the family uses, times |T|; ``law``, the decode law on (used base, t) as
    one row, rank*|T| + t; and ``unused``, the largest law mass on a base
    the family never uses.
    """

    tuples: list
    message_ids: np.ndarray
    columns: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    families: tuple  # (start, offsets, law, unused) per family

    @staticmethod
    def build(code: "WiretapCode") -> "_DecodePlan":
        mac = code.chain.mac
        x_size, y_size = mac.x_alphabet.size, mac.y_alphabet.size
        t_size = mac.t_alphabet.size
        law = code.chain.decode_law.mass.reshape(-1, t_size)
        families, pairs = [], []
        start = 0
        for fam in code.families:
            u, x, y = fam.words()
            pairs.append((x, y))
            bases, ranks = np.unique((u * x_size + x) * y_size + y,
                                     return_inverse=True)
            unused = np.delete(law, bases, axis=0)
            families.append((start, ranks.reshape(u.shape) * t_size,
                             law[bases].reshape(1, -1),
                             float(unused.max()) if unused.size else 0.0))
            start += fam.n
        l_counts = [math.prod(fam.l_sizes) for fam in code.families]
        grid = np.indices((code.message_count, *l_counts)).reshape(
            1 + len(families), -1)
        columns = np.stack([grid[0] * count + grid[1 + f]
                            for f, count in enumerate(l_counts)], axis=1)
        xs, ys = (np.concatenate([p[kind][c] for p, c in zip(pairs, columns.T)],
                                 axis=1) for kind in (0, 1))
        return _DecodePlan(list(code.index_tuples()), grid[0], columns, xs, ys,
                           tuple(families))


def _typical_matrix(code: WiretapCode, delta: float,
                    outputs: np.ndarray) -> np.ndarray:
    """Joint typicality of each output sequence (rows) with each index tuple
    (columns); concatenated codes need every segment typical.

    Per segment, each codeword zipped with each output, rank*|T| + t, goes
    through the pair-count kernel :func:`~wtmac.probkit._typical_rows` under
    the all-zero context: the arithmetic ``|count/n - P| <= delta`` of
    :func:`~wtmac.probkit.typical_membership` on the zipped (u, x, y, t)
    sequence under the decode law.  A base that another codeword of the
    family uses counts 0 times, so it passes iff its law mass is <= delta;
    a base the family never uses passes on the same rule, through the
    family's ``unused`` mass.
    """
    if delta <= 0:
        raise ValidationError("typicality needs delta > 0")
    plan = code.decode_plan
    count = outputs.shape[0]
    typical = np.ones((count, len(plan.tuples)), dtype=bool)
    for (start, offsets, law, unused), columns in zip(plan.families,
                                                      plan.columns.T):
        words, n = offsets.shape
        hits = np.zeros((count, words), dtype=bool)
        if unused <= delta:
            context = np.zeros(n, dtype=np.int64)
            step = max(_WINDOW_CELLS // (words * n), 1)
            for lo in range(0, count, step):
                segment = outputs[lo:lo + step, start:start + n]
                zipped = (segment[:, None, :] + offsets).reshape(-1, n)
                hits[lo:lo + len(segment)] = _typical_rows(
                    law, context, zipped, delta).reshape(-1, words)
        typical &= hits[:, columns]
    return typical


def _unique_hits(typical: np.ndarray) -> np.ndarray:
    """Per row, the only typical column; -1 on a miss or a tie."""
    return np.where(typical.sum(axis=1) == 1, typical.argmax(axis=1), -1)


def joint_typicality_decode(code: WiretapCode, delta: float, t_seq):
    """Decode an output sequence to the unique jointly typical index tuple:
    the one-output form of the stacked decode that the error audits run
    (:func:`_typical_matrix`, through the pair-count kernel of
    :mod:`wtmac.probkit`).

    Returns (message triple, per-family l-tuples) or None on a miss or tie;
    concatenated codes require every segment to be typical.
    """
    t_seq = np.asarray(t_seq, dtype=np.int64)
    if t_seq.ndim != 1 or t_seq.shape[0] != code.n_total:
        raise ValidationError(
            f"output shape {t_seq.shape} != ({code.n_total},)")
    t_size = code.chain.mac.t_alphabet.size
    if t_seq.min() < 0 or t_seq.max() >= t_size:
        raise ValidationError(f"output symbols must lie in 0..{t_size - 1}")
    hit = _unique_hits(_typical_matrix(code, delta, t_seq[None, :]))[0]
    return None if hit < 0 else code.decode_plan.tuples[hit]


def _decode_all(code: WiretapCode, delta: float) -> np.ndarray:
    """Decoded tuple index of every output sequence, lexicographic; -1 on a
    miss or a tie."""
    seqs = all_sequences(code.chain.mac.t_alphabet.size, code.n_total)
    return _unique_hits(_typical_matrix(code, delta, seqs))


def _channel_rows(matrix: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                  y_size: int) -> np.ndarray:
    """Memoryless channel rows over all output sequences (lexicographic), one
    per input pair; the (m, n) or (n,) arrays ``xs`` and ``ys`` broadcast
    against each other."""
    bases = np.atleast_2d(np.asarray(xs) * y_size + ys)
    symbols = matrix.shape[1]
    rows = np.ones((bases.shape[0], 1))
    for col in bases.T:
        step = matrix[col]
        new = np.empty((len(col), rows.shape[1] * symbols))
        # the products rows[:, :, None] * step[:, None, :], one output symbol
        # b at a time over blocks of whole rows, so the inner loop is long
        block = max(_ROW_CELLS // new.shape[1], 1)
        for lo in range(0, len(col), block):
            part = slice(lo, lo + block)
            for b in range(symbols):
                np.multiply(rows[part], step[part, b, None],
                            out=new[part, b::symbols])
        rows = new
    return rows


def _bob_rows(code: WiretapCode) -> np.ndarray:
    """Bob's rows over all output sequences, one per index tuple."""
    mac = code.chain.mac
    matrix = mac.bob.matrix
    count = matrix.shape[1] ** code.n_total
    plan = code.decode_plan
    if count * len(plan.tuples) > CELL_BUDGET:
        raise ResourceBudgetError(
            f"exact error needs {count} x {len(plan.tuples)} likelihoods")
    return _channel_rows(matrix, plan.xs, plan.ys, mac.y_alphabet.size)


@dataclass(frozen=True)
class ErrorEstimate:
    """Average decoding error; the MAC criterion scores the full index tuple,
    the message criterion only the message triple."""

    tuple_error: float
    message_error: float
    mode: str
    trials: int | None = None
    wilson_interval: tuple[float, float] | None = None


def average_error(code: WiretapCode, mode: str = "exact", trials: int = 2000,
                  seed: int = 0) -> ErrorEstimate:
    """Average decoding error of the code on its own MAC, decoded at its own
    delta, under uniform messages and uniform mixing.

    Exact mode enumerates every output sequence; Monte Carlo mode reports a
    Wilson 95% interval on the tuple criterion.  Decode failures count as
    errors.
    """
    if mode == "exact":
        terms = code.error_terms
        # accumulate adds in row order: the sums of a per-row loop, to the bit
        sums = np.add.accumulate(terms * (1.0 / len(terms)))[-1]
        return ErrorEstimate(float(sums[0]), float(sums[1]), "exact")
    if mode != "mc":
        raise ValidationError("mode must be 'exact' or 'mc'")
    if trials < 1:
        raise ValidationError(f"Monte Carlo mode needs trials >= 1, got {trials}")
    # every trial's index tuple in one call, then one uniform per output
    # symbol in one call, read through Bob's row in blocks of trials
    cdf = _inverse_cdf(code.chain.mac.bob.matrix)
    plan = code.decode_plan
    bases = plan.xs * code.chain.mac.y_alphabet.size + plan.ys
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(bases), size=trials)
    draws = rng.random((trials, code.n_total))
    outputs = np.empty((trials, code.n_total), dtype=np.int64)
    step = max(_WINDOW_CELLS // (code.n_total * cdf.shape[1]), 1)
    for lo in range(0, trials, step):
        rows = cdf[bases[picks[lo:lo + step]]]
        outputs[lo:lo + step] = (rows <= draws[lo:lo + step, :, None]).sum(
            axis=2)
    decoded = _unique_hits(_typical_matrix(code, code.delta, outputs))
    message_ids = plan.message_ids
    decoded_msg = np.where(decoded >= 0, message_ids[decoded], -1)
    hits = int(np.count_nonzero(decoded != picks))
    msg_hits = int(np.count_nonzero(decoded_msg != message_ids[picks]))
    frac = hits / trials
    z = 1.959963984540054
    denom = 1 + z * z / trials
    center = (frac + z * z / (2 * trials)) / denom
    half = z * math.sqrt(frac * (1 - frac) / trials
                         + z * z / (4 * trials * trials)) / denom
    return ErrorEstimate(frac, msg_hits / trials, "mc", trials,
                         (max(center - half, 0.0), min(center + half, 1.0)))


def mac_average_error(code: WiretapCode) -> float:
    """Average error of the deterministic code over the full index tuples:
    the column of :attr:`WiretapCode.error_terms` that the exact tuple error
    of :func:`average_error` reads (uniform mixing makes the two equal),
    summed in another order."""
    terms = code.error_terms[:, 0]
    return float(np.add.accumulate(terms)[-1]) / len(terms)


# ---------------------------------------------------------------------------
# Eavesdropper audits
# ---------------------------------------------------------------------------

def eavesdropper_conditionals(code: WiretapCode) -> np.ndarray:
    """Matrix of P(eavesdropper output | message), one row per message."""
    mac = code.chain.mac
    matrix = mac.eve.matrix
    z_count = matrix.shape[1] ** code.n_total
    messages = code.message_count
    if z_count * messages > CELL_BUDGET:
        raise ResourceBudgetError(
            f"exact leakage needs {messages} x {z_count} entries")
    # one message's l-tuples at a time, so that the rows held at once are one
    # message's, not every index tuple's
    plan = code.decode_plan
    xs, ys = (a.reshape(messages, -1, code.n_total) for a in (plan.xs, plan.ys))
    out = np.empty((messages, z_count))
    for i in range(messages):
        out[i] = _channel_rows(matrix, xs[i], ys[i],
                               mac.y_alphabet.size).mean(axis=0)
    return out


def exact_leakage(code: WiretapCode, w_e: None = None) -> float:
    """Exact eavesdropper message information in bits, by enumeration.

    ``w_e`` must be None: the leakage is measured on the MAC's own
    eavesdropper.  The parameter remains only because the benchmark's
    leakage-perturbation self-test wraps this function as
    ``(code, w_e=None)``."""
    if w_e is not None:
        raise ValidationError("exact_leakage measures the MAC's own "
                              "eavesdropper; pass no channel")
    cond = code.eve_conditionals
    mean = cond.mean(axis=0)
    return entropy_bits(mean) - float(np.mean([entropy_bits(r) for r in cond]))


def eve_map_error(code: WiretapCode) -> float:
    """Exact average error of the eavesdropper's optimal decoder: per
    output, the mass of every message but the most likely, summed and
    averaged over the messages, so exactly 0 for a one-message code."""
    cond = code.eve_conditionals
    return float((cond.sum(axis=0) - cond.max(axis=0)).sum()) / cond.shape[0]


def max_message_variation(code: WiretapCode) -> float:
    """max over messages of the L1 distance to the mean output law."""
    cond = code.eve_conditionals
    mean = cond.mean(axis=0)
    return float(np.abs(cond - mean[None, :]).sum(axis=1).max())


def secrecy_from_variation(eps: float, z_size: int, n: int) -> float:
    """Leakage bound implied by output-law closeness in variation distance.

    Valid for 0 < eps <= 1/2: the leakage is at most eps * log2(|Z|^n / eps).
    """
    if not 0.0 < eps <= 0.5:
        raise PreconditionError(f"the bound needs 0 < eps <= 1/2, got {eps}")
    if z_size < 1 or n < 1:
        raise ValidationError("need a nonempty output space")
    return eps * math.log2(z_size ** n / eps)


@dataclass(frozen=True)
class LeakageChainReport:
    """End-to-end check: variation closeness implies the leakage bound."""

    epsilon: float
    premise_holds: bool
    bound: float | None
    leakage: float
    holds: bool


def leakage_chain_check(code: WiretapCode) -> LeakageChainReport:
    """Verify the variation-to-leakage chain on one concrete code."""
    eps = max_message_variation(code)
    leak = exact_leakage(code)
    if eps <= 0.0:
        return LeakageChainReport(eps, True, 0.0, leak, leak <= 1e-12)
    if eps > 0.5:
        return LeakageChainReport(eps, False, None, leak, True)
    bound = secrecy_from_variation(eps, code.chain.mac.z_alphabet.size,
                                   code.n_total)
    return LeakageChainReport(eps, True, bound, leak, leak <= bound + 1e-12)


@dataclass(frozen=True)
class SimReport:
    """One-stop summary of a built code's reliability and secrecy numbers."""

    tuple_error: float
    message_error: float
    error_mode: str
    wilson_interval: tuple | None
    leakage_bits: float
    max_variation: float
    eve_map_error: float
    message_count: int
    randomization_count: int
    n_total: int
    common_randomness_rate: float
    seed: int
    sampler_version: int = SAMPLER_VERSION

    def to_json_dict(self) -> dict:
        out = dict(self.__dict__)
        if out["wilson_interval"] is not None:
            out["wilson_interval"] = list(out["wilson_interval"])
        return out


def simulate_report(code: WiretapCode, mode: str = "exact",
                    trials: int = 2000, seed: int = 0) -> SimReport:
    """Run the full audit of a built code."""
    err = average_error(code, mode=mode, trials=trials, seed=seed)
    return SimReport(
        tuple_error=err.tuple_error,
        message_error=err.message_error,
        error_mode=err.mode,
        wilson_interval=err.wilson_interval,
        leakage_bits=exact_leakage(code),
        max_variation=max_message_variation(code),
        eve_map_error=eve_map_error(code),
        message_count=code.message_count,
        randomization_count=code.randomization_count,
        n_total=code.n_total,
        common_randomness_rate=code.common_randomness_rate,
        seed=seed,
    )


# Concentration checks live in a sibling module; re-exported here since they
# are part of the simulation surface.
from .concentration import (  # noqa: E402  (deliberate late import)
    ConcentrationReport,
    LemmaCheck,
    concentration_report,
)
