"""Five-party closed-loop simulation: plant, sensor, encrypted controller,
actuator, and reference provider.  A run tracks one constant reference
(`RunConfig.reference`), the setting the planner's guarantees are stated for.

Numeric split: the simulated plant, the quantizer inputs, and everything
behind the quantizer (controller states, transmitted increments, actuator
reconstruction) are exact.  The measurement y_p(t) gets divided by l(t), so
any fixed-precision noise on it would be amplified without bound; exactness
is load-bearing, not cosmetic.  The exact per-step work runs in the zoomed
coordinates x/l(t) with l(t) = l0 omega^t, where the planner's certificates
make the coefficients integers: the plant holds x/l(t) as integers over one
denominator (`PlantSim`), the sensor and the reference provider quantize
integer numerators over one denominator, and the actuators return the
integers U of the delivered input u_a = scale l(t) U, with scale s2 on the
main route and s1 s2 on the prelim route.  On the main route a step is
therefore integer arithmetic only; the prelim route's plant denominator
grows by that of A/omega each step.  Doubles appear only in the
unencrypted reference loop (the restoration target) and in reporting, where
a ratio of integers converts with one correctly rounded division.

Each converted controller is written once, over a ring with two operations,
`matvec` and `add`: `MainRecurrence` (state update, emission, and its
inverse `rebuild`) and `PrelimRecurrence`.  The encrypted controllers
bootstrap on the ciphertext ring (`CipherRing`, `he` ops on
`he.PlainMatrix` plaintexts); the integer shadows and the main actuator's
reconstruction on the integer ring (`IntRing`).  The noise budget model of
`he` is recorded on `NoiseRing`, a `kernel.Source` over one noise bound per
vector: the lattice pad is sized by a dry run of the recorded bootstrap and
step (`lattice_params`), and each encrypted step checks that same step.

Every run, integer or encrypted, repeats one fixed linear map per step, on
small matrices, so interpreting the recurrence op by op costs more than the
arithmetic.  The step of each party (the encrypted controllers' and the
integer shadows' `step`, the main actuator's `rebuild`) is the recurrence
method run once on the recording ring `kernel.Source`, which makes every
matvec row and every sum one straight-line statement over generated names
with its zero coefficients dropped, and the record compiled into one
function.  On integers (`_compile`) that is all.  Over ciphertexts
(`_compile_cipher`) a name stands for a packed payload entry, and `he`
supplies the reducer and the slot limit: an entry is reduced only where the
limit needs it, and every state and emitted entry once.  The same method,
recorded again on `NoiseRing` (`_noise_step`), gives the step's bounds and
its largest product bound, which `he` checks against the pad where the
staged ops would raise, and `noise_peak` runs that same step to size the
pad.  A kernel depends only on the plan and, over payloads, on the scheme
parameters, so the process keeps the kernels it built last (`_kept`): the
pad's dry run and every run of a plan share them, and only keys,
ciphertexts and encryption randomness are made per run.  Every call of a
kernel checks its inputs' lengths.  `IntRing` and `CipherRing` stay: the
bootstraps run on them once per run, and the tests check the compiled
kernels against them.

One driver (`_drive`) runs the loop of both routes.  A route builds its
keys, ring and parties and supplies one step: what its sensor, reference
provider, encrypted controller, integer shadow and actuator compute, each
value a party decrypted next to the shadow's, and its own record fields.
The driver owns the rest: the plant, the unencrypted reference loop, the
zoom l(t) and the delivered input's scale, the oracle and recovery checks,
the records and detail rows, and the final states.

Alongside the encrypted loop run these checks:
* the integer shadow: ground truth for every ciphertext, so the per-step
  mod-q checks of what the parties decrypt (the oracle) and the recovery
  checks test the ciphertext ring, the modulus and the recovery windows
  (bit-exact under the mock backend);
* the original unquantized closed loop in doubles (`IdealLoop`, the
  restoration target).
The recurrence itself is checked by code it shares nothing with: the
reference loop above, and in the tests the closed forms of the increments
(`test_step_identities_on_batch`, acceptance criterion 7) and their
definition form (`test_emitted_increments_are_the_definition_form`), which
`MainRecurrence` does not evaluate.
"""

from __future__ import annotations

import copy
import csv
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from . import he, kernel
from .exactmat import RationalMatrix, as_fraction, as_ratio
from .planner import MainPlan, PlantModel, ControllerModel, PrelimPlan
from .quantizer import QuantizerSpec, quantize_vector


# -- shared kernels ---------------------------------------------------------


def centered_mod_recover(v_modq: Sequence[int], prior, q: int, den: int = 1):
    """Lift residues to the integers nearest a prior estimate.

    Entry i becomes the unique integer congruent to v_modq[i] mod q inside
    [p - q/2, p + q/2) for p = prior_i/den (den > 0), via x = v - k q with
    k = floor((v - p + q/2)/q) = (2 d v - 2 n + q d) // (2 q d) for p = n/d.
    Priors may be exact rationals; integer priors over `den` need no
    Fraction.  If the true value strays q/2 or more from the prior, the lift
    is off by a multiple of q (the documented failure mode that modulus
    planning must exclude).
    """
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if isinstance(prior, (list, tuple)):
        ratios = map(as_ratio, prior)
    else:  # one prior for every entry, converted once
        ratios = [as_ratio(prior)] * len(v_modq)
    out = []
    for v, (n, d) in zip(v_modq, ratios):
        d *= den
        out.append(v - (2 * d * v - 2 * n + q * d) // (2 * q * d) * q)
    return out


def _diff_inf(u_a, u_true) -> float:
    """max |u_a - u_true| over floats, as numpy's max reads it: NaN if any
    difference is NaN, 0.0 for empty vectors."""
    diffs = [abs(a - b) for a, b in zip(u_a, u_true)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)


def _log2(x) -> float:
    return math.log2(x) if x > 0 else float("-inf")


def _log2norm(v) -> float:
    return _log2(max((abs(x) for x in v), default=0))


def _json_number(x: float):
    """x, or None (JSON null) where JSON has no number: an infinity or NaN."""
    return x if math.isfinite(x) else None


# -- trace ------------------------------------------------------------------

CSV_COLUMNS_PREFIX = ["t"]
CSV_COLUMNS_SUFFIX = [
    "diff_inf", "log2_alpha", "log2_beta", "log2_gamma", "log2_sensor_gap",
    "saturated", "msgs_ctrl_to_act", "enc_ops", "dec_ops",
]


@dataclass(kw_only=True)
class StepRecord:
    """One step of a run.  `enc_ops` and `dec_ops` count the run so far; the
    prelim route has no beta, gamma, sensor gap or quantizer range, and
    keeps the defaults."""

    t: int
    u_true: tuple
    u_a: tuple
    diff_inf: float
    log2_alpha: float
    log2_beta: float = float("-inf")
    log2_gamma: float = float("-inf")
    log2_sensor_gap: float = float("-inf")
    saturated: bool = False
    msgs_ctrl_to_act: int
    enc_ops: int
    dec_ops: int
    recovery_failure: bool


@dataclass
class ClosedLoopTrace:
    """A run's records and what they add up to.

    The counts are read from the records: saturated steps, recovery
    failures, controller-to-actuator messages, and the encryptions and
    decryptions of the run (the last record's).  The other channels' totals
    are the steps times the route's messages per step (`step_msgs`).  Only
    the oracle mismatches, the actuator's decryptions and the final states
    are kept apart."""

    scheme: str
    step_msgs: dict  # messages per step: ctrl_to_act, sensor_to_ctrl, ...
    records: list = field(default_factory=list)
    detail: list = field(default_factory=list)
    oracle_mismatches: int = 0
    actuator_dec_ops: int = 0
    final_plant_state: tuple = ()
    final_ideal_plant_state: tuple = ()
    actuator_enc_ops = 0  # not a field: the actuators of both routes only decrypt

    @property
    def saturation_count(self) -> int:
        return sum(r.saturated for r in self.records)

    @property
    def recovery_failures(self) -> int:
        return sum(r.recovery_failure for r in self.records)

    @property
    def msgs_ctrl_to_act(self) -> int:
        return sum(r.msgs_ctrl_to_act for r in self.records)

    @property
    def msgs_sensor_to_ctrl(self) -> int:
        return len(self.records) * self.step_msgs["sensor_to_ctrl"]

    @property
    def msgs_provider_to_ctrl(self) -> int:
        return len(self.records) * self.step_msgs["provider_to_ctrl"]

    @property
    def msgs_ctrl_to_sensor(self) -> int:
        return len(self.records) * self.step_msgs["ctrl_to_sensor"]

    @property
    def enc_ops(self) -> int:
        return self.records[-1].enc_ops if self.records else 0

    @property
    def dec_ops(self) -> int:
        return self.records[-1].dec_ops if self.records else 0

    def max_log2_increment(self) -> float:
        m = float("-inf")
        for r in self.records:
            m = max(m, r.log2_alpha, r.log2_beta, r.log2_gamma, r.log2_sensor_gap)
        return m

    def final_diff_inf(self) -> float:
        return self.records[-1].diff_inf if self.records else float("nan")

    def summary(self) -> dict:
        return {
            "scheme": self.scheme,
            "steps": len(self.records),
            "max_log2_increment": _json_number(self.max_log2_increment()),
            "final_diff_inf": _json_number(self.final_diff_inf()),
            "saturation_count": self.saturation_count,
            "recovery_failures": self.recovery_failures,
            "oracle_mismatches": self.oracle_mismatches,
            "msgs_ctrl_to_act_per_step": (
                self.msgs_ctrl_to_act // len(self.records) if self.records else 0
            ),
            "msgs_sensor_to_ctrl": self.msgs_sensor_to_ctrl,
            "msgs_provider_to_ctrl": self.msgs_provider_to_ctrl,
            "msgs_ctrl_to_sensor": self.msgs_ctrl_to_sensor,
            "actuator_enc_ops": self.actuator_enc_ops,
            "actuator_dec_ops": self.actuator_dec_ops,
            "enc_ops_total": self.enc_ops,
            "dec_ops_total": self.dec_ops,
        }

    def to_csv(self, path: str):
        w = len(self.records[0].u_true) if self.records else 0
        cols = (CSV_COLUMNS_PREFIX
                + [f"u_true_{i}" for i in range(w)]
                + [f"u_a_{i}" for i in range(w)]
                + CSV_COLUMNS_SUFFIX)
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(cols)
            for r in self.records:
                out.writerow(
                    [r.t]
                    + [repr(x) for x in r.u_true]
                    + [repr(x) for x in r.u_a]
                    + [repr(r.diff_inf), r.log2_alpha, r.log2_beta, r.log2_gamma,
                       r.log2_sensor_gap, int(r.saturated), r.msgs_ctrl_to_act,
                       r.enc_ops, r.dec_ops]
                )


# -- plant and the unencrypted reference loop --------------------------------


def _over_common_den(values):
    """Exact rationals as (integer numerators, their common denominator)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_rows(M: RationalMatrix):
    """M as (integer rows, their common denominator)."""
    nums, den = _over_common_den(M.data)
    return [nums[i * M.cols:(i + 1) * M.cols] for i in range(M.rows)], den


class PlantSim:
    """Exact process state in the zoomed coordinates x/l(t) = X/D, with
    integer X and D, and l(t) = l0 omega^t.

    The sensor divides its measurement by l(t); any fixed-precision noise on
    y_p is amplified by 1/l(t) and overwhelms the quantizer cell within a few
    steps, so the simulated plant must carry exact values.  The delivered
    input is u_a = scale l(t) U for an integer vector U, so the zoomed state
    obeys x/l <- (A/omega) x/l + (scale B/omega) U.  Those two matrices are
    held as integer rows over common denominators a and b; a step sets
    D <- lcm(a D, b) and scales both products onto it.  On the main route
    (scale = s2) the planner certifies A/omega and s2 B/omega integral, so
    a = b = 1, D never changes and a step needs no gcd.  On the prelim route
    (scale = s1 s2) D grows by a factor a per step.
    """

    def __init__(self, plant: PlantModel, x_p0, l0, omega, scale):
        self.l0, self.omega = as_fraction(l0), as_fraction(omega)
        self.A, self.a = _int_rows(plant.A.scale(1 / self.omega))
        self.B, self.b = _int_rows(plant.B.scale(as_fraction(scale) / self.omega))
        self.C, self.c = _int_rows(plant.C)
        self.X, self.D = _over_common_den([as_fraction(x) / self.l0 for x in x_p0])
        self.t = 0

    def output(self):
        """y/l(t) as (integer numerators, their common denominator)."""
        return [sum(c * x for c, x in zip(row, self.X)) for row in self.C], self.c * self.D

    def step(self, U):
        """Advance on the delivered input u_a = scale l(t) U, U integers."""
        aD = self.a * self.D
        D = math.lcm(aD, self.b)
        fa, fb = D // aD, D // self.b
        self.X = [
            fa * sum(m * x for m, x in zip(arow, self.X))
            + fb * sum(m * u for m, u in zip(brow, U))
            for arow, brow in zip(self.A, self.B)
        ]
        self.D = D
        self.t += 1

    def _state_ratio(self):
        """The exact state as (numerator factor, common denominator)."""
        l = self.l0 * self.omega ** self.t
        return l.numerator, l.denominator * self.D

    @property
    def x(self) -> list:
        """The exact state l(t) X/D."""
        n, d = self._state_ratio()
        return [Fraction(n * x, d) for x in self.X]

    def state_floats(self) -> np.ndarray:
        n, d = self._state_ratio()
        return np.array([n * x / d for x in self.X], dtype=float)


class IdealLoop:
    """The pre-given controller closed with its own plant copy on the constant
    reference, no quantization."""

    def __init__(self, plant: PlantModel, ctrl: ControllerModel, x_p0, reference):
        self.A, self.B, self.C = (m.to_floats() for m in (plant.A, plant.B, plant.C))
        self.F, self.G, self.H = (m.to_floats() for m in (ctrl.F, ctrl.G, ctrl.H))
        self.R, self.J, self.S = (m.to_floats() for m in (ctrl.R_ref, ctrl.J, ctrl.S))
        self.x_p = np.array([float(x) for x in x_p0], dtype=float)
        self.x = ctrl.x0.to_floats().ravel()
        self.r = np.array([float(x) for x in reference.data], dtype=float)

    def step(self) -> np.ndarray:
        y = self.C @ self.x_p
        u = self.H @ self.x + self.J @ y + self.S @ self.r
        x_next = self.F @ self.x + self.G @ y + self.R @ self.r
        self.x_p = self.A @ self.x_p + self.B @ u
        self.x = x_next
        return u


# -- the converted controllers, each written once over their rings -----------
#
# A ring supplies the two operations the recurrences use, `matvec` (plaintext
# integer matrix times ring vector) and `add` (of any number of vectors, left
# to right), plus how it embeds integer matrices (`plain`) and fresh integer
# vectors (`fresh`).  The recording ring `kernel.Source`, which only records
# the steps of a recurrence already bootstrapped on `IntRing` or
# `CipherRing`, needs just the two; `NoiseRing`, a `kernel.Source` that also
# records a bootstrap, has all four.


class IntRing:
    """Plain Python integers: the integer shadows and the main actuator.
    Operands of unequal length raise `ValueError`, as on `kernel.Source`."""

    @staticmethod
    def plain(M):
        return M

    @staticmethod
    def fresh(values):
        return list(values)

    @staticmethod
    def matvec(M, v):
        kernel.check_matvec(M, v)
        return [sum(m * x for m, x in zip(row, v)) for row in M]

    @staticmethod
    def add(*vs):
        kernel.check_add(vs)
        return [sum(t) for t in zip(*vs)]


def _record(recurrence, method, ring, m: dict, state, args):
    """Runs `method` once on a copy of `recurrence` whose ring is the
    recording `ring`, whose plaintexts are `m` and whose state vectors
    (`recurrence.state`) are `state`, on the argument vectors `args`; returns
    the new state vectors and what `method` returns."""
    recorded = copy.copy(recurrence)
    recorded.ring, recorded.m = ring, SimpleNamespace(**m)
    for k, v in zip(recurrence.state, state):
        setattr(recorded, k, v)
    result = method(recorded, *args)
    return tuple(getattr(recorded, k) for k in recurrence.state), result


def _vectors(result) -> tuple:
    """What a recurrence method returns, as a tuple of vectors."""
    return result if isinstance(result, tuple) else (result,)


# The kernels built last in this process, oldest first: (builder, method,
# id(plan), params) -> (plan, kernel).  An entry holds its plan, so no other
# plan can take that id while the entry is kept.  A main plan has 4 kernels
# and one more per further pad, a prelim plan 3: 32 keep several plans'.
KERNELS_KEPT = 32
_kernels: dict = {}


def _kept(build, recurrence, method, args, params=None):
    """`build(recurrence, method, args)`, the kernel of `method` for the plan
    of `recurrence` (`recurrence.plan`) and, over ciphertexts, `params`:
    built at its first use in the process and kept while it is among the
    last `KERNELS_KEPT` built.  A kernel depends on nothing else of a run:
    it takes the recurrence as an argument and holds no reference to it, so
    it holds no key and no ciphertext, and a run's keys and ciphertexts are
    freed when the run ends."""
    plan = recurrence.plan
    key = (build, method, id(plan), params)
    entry = _kernels.get(key)
    if entry is None:
        entry = _kernels[key] = plan, build(recurrence, method, args)
        if len(_kernels) > KERNELS_KEPT:
            del _kernels[next(iter(_kernels))]
    return entry[1]


def _check_lengths(got: list, want: list, error):
    """Raises `error` unless a compiled step's input vectors have the
    lengths it was recorded at: its state, then its arguments."""
    if got != want:
        raise error(f"input lengths {got} differ from the recorded {want}")


def _compile(recurrence, method, *args):
    """`method` of a recurrence on `IntRing` as one compiled function of the
    recurrence and `method`'s arguments that updates the recurrence's state
    as `method` would, and returns what `method` returns; one per plan
    (`_kept`).  `method` runs once on a `kernel.Source`, which records it
    over the recurrence's `IntRing` plaintexts, at the lengths of the state
    and of `args`, the only lengths the plan's matrices accept (other
    lengths raise `ValueError` while recording); every call checks its
    inputs' lengths against those and raises `ValueError` on others."""
    return _kept(_int_kernel, recurrence, method, args)


def _int_kernel(recurrence, method, args):
    """`_compile`'s kernel, recorded at the lengths of the recurrence's state
    and of `args`."""
    state, n = recurrence.state, len(recurrence.state)
    source = kernel.Source()
    vectors = [source.vector(len(v))
               for v in (*(getattr(recurrence, k) for k in state), *args)]
    new, result = _record(recurrence, method, source, vars(recurrence.m),
                          vectors[:n], vectors[n:])
    fn, lengths = source.function((new, result)), list(map(len, vectors))

    def run(rec, *args):
        inputs = [*(getattr(rec, k) for k in state), *args]
        _check_lengths(list(map(len, inputs)), lengths, ValueError)
        new, result = fn(*inputs)
        for k, v in zip(state, new):
            setattr(rec, k, v)
        return result

    return run


def _noise_step(recurrence, method, nargs: int):
    """`method` of an encrypted controller recorded on a `NoiseRing` and
    compiled, one per plan (`_kept`), which the pad's dry run (`noise_peak`)
    and every encrypted step of the plan share: a function of one list, the
    noise bounds of the state and of `nargs` argument ciphertexts, that
    returns the bounds of the new state and of the ciphertexts `method`
    returns, as one list, and the largest bound of a product in the step,
    the one `he` checks against the pad.  No bound depends on the pad."""
    return _kept(_noise_kernel, recurrence, method, nargs)


def _noise_kernel(recurrence, method, nargs: int):
    """`_noise_step`'s kernel."""
    ring, n = NoiseRing(recurrence.ring.q), len(recurrence.state)
    bounds = [[b] for b in ring.vector(n + nargs)]
    new, result = _record(recurrence, method, ring, vars(recurrence.m),
                          bounds[:n], bounds[n:])
    return ring.bounds((*new, *_vectors(result)))


def _compile_cipher(controller, method, *args):
    """`method` of an encrypted controller, on a `CipherRing`, as one step
    over ciphertext payloads with the noise bounds in lockstep: a function
    of the controller and `method`'s arguments that updates the controller's
    state ciphertexts and returns the ciphertexts `method` returns, payloads
    and bounds equal to those of the staged `he` ops; one per plan and
    scheme parameters of the ring's keys (`_kept`).

    `he`'s product rule holds for the whole step.  Each plaintext passes
    `he.check_product`, and operands of unequal length, which the recording
    refuses, raise `he.DimensionMismatchError`, as does every later call on
    inputs of other lengths than the recorded ones.  The payloads are
    `method` recorded once on a `kernel.Source` over the centered plaintext
    rows with `he.slot_reduction`'s reducer and limit: products and sums
    chain unreduced, an entry is reduced only where the limit needs it, and
    every state and returned entry once.  The bounds are the plan's noise
    step (`_noise_step`, the one `noise_peak` sizes the pad with), and the
    step's largest product bound goes through `he.check_budget`, which
    raises where the first product past the budget would; returned sums are
    left to `he.decrypt`, as on the staged path."""
    return _kept(_cipher_kernel, controller, method, args, controller.ring.pk.params)


def _cipher_kernel(controller, method, args):
    """`_compile_cipher`'s kernel, recorded at the lengths of the
    controller's state and of `args`."""
    params, state = controller.ring.pk.params, controller.state
    n = len(state)
    for M in vars(controller.m).values():
        he.check_product(params, M)
    source = kernel.Source(*he.slot_reduction(params))
    lengths = [ct.dim for ct in (*(getattr(controller, k) for k in state), *args)]
    vectors = [source.vector(d) for d in lengths]
    try:
        new, result = _record(controller, method, source,
                              {k: M.rows for k, M in vars(controller.m).items()},
                              vectors[:n], vectors[n:])
    except ValueError as e:
        raise he.DimensionMismatchError(e) from None
    payloads = source.function([tuple(source.reduced(v)) for v in (*new, *_vectors(result))])
    noise, many = _noise_step(controller, method, len(args)), isinstance(result, tuple)

    def run(rec, *args):
        cts = [getattr(rec, k) for k in state]
        cts += args
        _check_lengths([ct.dim for ct in cts], lengths, he.DimensionMismatchError)
        bounds, peak = noise([ct.noise_bound for ct in cts])
        he.check_budget(params, peak)
        out = [he.Ciphertext(params, len(p), p, b)
               for p, b in zip(payloads(*(ct.payload for ct in cts)), bounds)]
        for k, ct in zip(state, out):
            setattr(rec, k, ct)
        return tuple(out[n:]) if many else out[n]

    return run


def _compiled(method, compile):
    """A recurrence's `step`: `method`, compiled by `compile` (`_compile` or
    `_compile_cipher`) for the recurrence's plan, at the step's first call
    in the process, and taken from the kept kernels at every later one."""

    def step(self, *args):
        return compile(self, method, *args)(self, *args)

    return step


class CipherRing:
    """Ciphertexts under `pk`: the encrypted controllers' bootstraps (their
    steps are compiled, `_compile_cipher`), and every party that encrypts
    (`fresh`, which counts the ciphertext entries it makes).  A plaintext
    matrix is prepared once (`he.PlainMatrix`), which centers its entries
    into (-q/2, q/2] and so keeps the row-sum weight `he.plain_matmul`
    charges to the noise as small as the certified coefficients allow."""

    def __init__(self, pk, q: int, rng):
        self.pk, self.q, self.rng = pk, q, rng
        self.enc_ops = 0

    def plain(self, M):
        return he.PlainMatrix(M, self.q)

    def fresh(self, values):
        self.enc_ops += len(values)
        return he.encrypt(self.pk, [v % self.q for v in values], self.rng)

    @staticmethod
    def matvec(M, ct):
        return he.plain_matmul(M, ct)

    @staticmethod
    def add(first, *rest):
        for ct in rest:
            first = he.add(first, ct)
        return first


class NoiseRing(kernel.Source):
    """The noise budget model of `he`, recorded over one bound per vector:
    `noise_peak` records a bootstrap on it, `_noise_step` a step.  A
    plaintext is `CipherRing`'s `he.PlainMatrix`, by whose weight a product
    multiplies a bound (`matvec` records [[weight]] and keeps the product);
    sums add bounds; `fresh` is a new one-entry input, bound to
    `he.FRESH_NOISE_BOUND` when the record runs.  No bound depends on the
    pad, the one per-run setting."""

    def __init__(self, q: int):
        super().__init__()
        self.q, self.products = q, []

    plain = CipherRing.plain

    def fresh(self, values):
        return self.vector(1)

    def matvec(self, M, v) -> list:
        out = super().matvec([[M.weight]], v)
        self.products += out
        return out

    def bounds(self, vectors):
        """The record compiled: a function of the input vectors' bounds that
        returns those of `vectors`, as one list, and the largest bound of a
        recorded product (0 if none)."""
        fn = self.function(([b for v in vectors for b in v],
                            tuple(dict.fromkeys(self.products))))

        def run(*inputs):
            out, products = fn(*inputs)
            return out, max(products, default=0)

        return run


MAIN_CERTIFICATES = {"A": "A/omega", "B": "s2B/omega", "L": "L/omega", "C": "C/s1",
                     "F": "F/omega", "G": "GC/omega", "R": "R/omega",
                     "H": "H/s2", "J": "JC/s2", "S": "S/s2"}
PRELIM_CERTIFICATES = {"F": "F/omega", "G": "G/(s1*omega)", "R": "R/(s1*omega)",
                       "H": "H/s2", "J": "J/(s1*s2)", "S": "S/(s1*s2)"}


def _load(ring, certs, names: dict) -> SimpleNamespace:
    """The certified integer matrices as plaintexts of `ring`."""
    return SimpleNamespace(**{key: ring.plain(certs[name].int_rows())
                              for key, name in names.items()})


def _diagonal(c: int, d: int) -> list:
    """c times the d x d identity, as integer rows."""
    return [[c if i == j else 0 for j in range(d)] for i in range(d)]


class MainRecurrence:
    """The converted observer controller in scaled-integer coordinates.

    With A, B, L, C, F, G, R, H, J, S the certified integer matrices
    (A/omega, s2B/omega, ...) and the integer 1/omega, a step advances the
    observer xo, the controller xe and the reference estimate re together
    from the old states, and then the output u from the new ones:

        xo <- A xo + B u + L innovation
        xe <- F xe + G xo + R re
        re <- (re + ref_increment) / omega
        u   = H xe + J xo + S re

    The controller emits the observer output y_o = C xo of the new xo, which
    the sensor decrypts, and sends the increments (suffix _m1, _m2: one and
    two steps before; every state before step 0 is zero)

        alpha = xo - A xo_m1 - B u_m1
        beta  = xe - F xe_m1 - G xo_m1 - (xe_m1 - F xe_m2 - G xo_m2) / omega
        gamma = u  - H xe    - J xo    - (u_m1  - H xe_m1 - J xo_m1) / omega

    The brackets are products the step makes anyway, R re_m1 and S re, and
    alpha is its L innovation; at step 0 they are xe, S re and xo.  So the
    memory is one step deep: `increments`, the one emission rule, takes
    1/omega times the brackets of the step before (`bx`, `bu`; zero before
    step 0) from the step's own, and carries the new ones.  `rebuild`
    inverts it with the carried brackets, as the actuator does.
    """

    state = ("xo", "xe", "re", "bx", "bu", "u")

    def __init__(self, ring, plan: MainPlan):
        self.ring, self.plan = ring, plan
        self.dims = dims = plan.dims
        inv_omega = plan.certificates["1/omega"].scaled_entries[0]
        self.m = m = _load(ring, plan.certificates, MAIN_CERTIFICATES)
        # 1/omega and -1/omega as diagonal matrices, one per vector length
        m.Om_r, m.Om_x, m.Om_u = (ring.plain(_diagonal(inv_omega, dims[k]))
                                  for k in ("n_r", "n_x", "w"))
        m.neg_Om_x, m.neg_Om_u = (ring.plain(_diagonal(-inv_omega, dims[k]))
                                  for k in ("n_x", "w"))

    def bootstrap(self, x_e0_scaled):
        """The initial states, and the emission of step 0, (y_o, alpha, beta,
        gamma), with the increments by the rule of every step (`increments`)
        from zero brackets, every vector fresh on the ring.  With x_e0 = 0
        every state and bracket is zero, which is where the actuator starts,
        so reconstruction telescopes from the first step."""
        d, fresh, mv, m = self.dims, self.ring.fresh, self.ring.matvec, self.m
        self.xo = fresh([0] * d["n"])
        self.xe = fresh(x_e0_scaled)
        self.re = fresh([0] * d["n_r"])
        self.bx, self.bu = fresh([0] * d["n_x"]), fresh([0] * d["w"])
        bu = mv(m.S, self.re)
        self.u = self.ring.add(mv(m.H, self.xe), mv(m.J, self.xo), bu)
        increments = self.increments(self.xo, self.xe, bu)
        return (self.y_o(), *increments)

    def increments(self, alpha, bx, bu):
        """(alpha, beta, gamma): beta and gamma are this step's brackets less
        1/omega times those of the step before; keeps this step's."""
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        beta, gamma = add(bx, mv(m.neg_Om_x, self.bx)), add(bu, mv(m.neg_Om_u, self.bu))
        self.bx, self.bu = bx, bu
        return alpha, beta, gamma

    def step(self, innovation, ref_increment):
        """Advance one step on last step's quantized innovation and reference
        increment; returns the emission (y_o, alpha, beta, gamma), the
        increments from the step's own products."""
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        alpha = mv(m.L, innovation)
        xo = add(mv(m.A, self.xo), mv(m.B, self.u), alpha)
        bx = mv(m.R, self.re)
        xe = add(mv(m.F, self.xe), mv(m.G, self.xo), bx)
        self.re = mv(m.Om_r, add(self.re, ref_increment))
        bu = mv(m.S, self.re)
        self.u = add(mv(m.H, xe), mv(m.J, xo), bu)
        self.xo, self.xe = xo, xe
        increments = self.increments(alpha, bx, bu)
        return (self.y_o(), *increments)

    def y_o(self):
        return self.ring.matvec(self.m.C, self.xo)

    def rebuild(self, alpha, beta, gamma):
        """The states of the next step from its increments and the carried
        brackets; returns u."""
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        self.bx = add(beta, mv(m.Om_x, self.bx))
        self.bu = add(gamma, mv(m.Om_u, self.bu))
        xo = add(alpha, mv(m.A, self.xo), mv(m.B, self.u))
        self.xe = add(self.bx, mv(m.F, self.xe), mv(m.G, self.xo))
        self.xo = xo
        self.u = add(self.bu, mv(m.H, self.xe), mv(m.J, self.xo))
        return self.u


class PrelimRecurrence:
    """The directly converted controller, u = H x + J y + S r and
    x <- F x + G y + R r, with the certified integer matrices F/omega,
    G/(s1 omega), R/(s1 omega), H/s2, J/(s1 s2), S/(s1 s2)."""

    state = ("x",)

    def __init__(self, ring, plan: PrelimPlan):
        self.ring, self.plan = ring, plan
        self.m = _load(ring, plan.certificates, PRELIM_CERTIFICATES)

    def bootstrap(self, x0_scaled):
        self.x = self.ring.fresh(x0_scaled)

    def step(self, y, r):
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        u = add(mv(m.H, self.x), mv(m.J, y), mv(m.S, r))
        self.x = add(mv(m.F, self.x), mv(m.G, y), mv(m.R, r))
        return u


# -- main scheme parties ------------------------------------------------------


class MainEncController(MainRecurrence):
    """Holds only the public key (in its `CipherRing`); iterates the converted
    observer controller on ciphertexts and emits the observer output plus the
    bounded increments.  The bootstrap runs on the `CipherRing`; `step` is
    compiled once per plan and scheme parameters."""

    step = _compiled(MainRecurrence.step, _compile_cipher)


class MainIntegerShadow(MainRecurrence):
    """Exact unbounded integer dynamics of the converted controller; ground
    truth for every ciphertext (mod q) and for the actuator reconstruction.
    The bootstrap runs on `IntRing`; `step` is compiled once per plan."""

    step = _compiled(MainRecurrence.step, _compile)

    def __init__(self, plan: MainPlan):
        super().__init__(IntRing(), plan)


class MainSensor:
    """Decrypts the observer output, reconstructs it exactly through the
    centered window around the measured output, and returns the encrypted
    quantized innovation."""

    def __init__(self, ring: CipherRing, sk, plan: MainPlan):
        self.ring, self.sk = ring, sk
        self.s1 = plan.s1
        self.spec = QuantizerSpec(plan.range_level)
        self.dec_ops = 0

    def step(self, y_o_ct, y_bar):
        """`y_bar` is the measurement y/l(t) as (integer numerators Y, their
        denominator E), as `PlantSim.output` gives it."""
        dec = he.decrypt(self.sk, y_o_ct)
        self.dec_ops += len(dec)
        Y, E = y_bar
        s1n, s1d = self.s1.numerator, self.s1.denominator
        # prior y_bar/s1 = P/d; prior - lifted = gap_num/d, and the
        # innovation y_bar - s1 lifted = gap_num/(E s1d)
        d = E * s1n
        P = [y * s1d for y in Y]
        lifted = centered_mod_recover(list(dec), P, self.ring.q, d)
        gap_num = [p - d * v for p, v in zip(P, lifted)]
        q_inno, sat = quantize_vector(gap_num, self.spec, E * s1d)
        ct = self.ring.fresh(q_inno)
        gap = max((abs(g / d) for g in gap_num), default=0.0)
        return lifted, q_inno, ct, sat, gap


class RefProvider:
    """Streams encrypted quantized increments of the run's constant reference r.

    It keeps the scaled error e = (r - r_e)/l(t) of its local reference
    estimate r_e, as integer numerators over one denominator.  Sending the
    increment k moves r_e by l(t) k, so e <- (e - k)/omega.  The main plan
    certifies 1/omega an integer, so the denominator stays fixed, and it
    sizes the quantizer range for a constant r, so e stays within it.
    """

    def __init__(self, ring: CipherRing, plan: MainPlan, reference: RationalMatrix):
        self.ring = ring
        self.spec = QuantizerSpec(plan.range_level)
        self.inv_omega = plan.certificates["1/omega"].scaled_entries[0]
        self.e, self.den = _over_common_den([r / plan.l0 for r in reference.data])

    def step(self):
        q_inc, sat = quantize_vector(self.e, self.spec, self.den)
        self.e = [(e - k * self.den) * self.inv_omega for e, k in zip(self.e, q_inc)]
        return q_inc, self.ring.fresh(q_inc), sat


class MainActuator:
    """Decrypts the increments, lifts them around zero, and reconstructs the
    controller states in scaled-integer coordinates (exact; the delivered
    input is u_a = s2 l(t) u_tilde)."""

    def __init__(self, sk, plan: MainPlan):
        self.sk = sk
        self.q = plan.q
        self.states = MainRecurrence(IntRing(), plan)
        self.states.bootstrap([0] * plan.dims["n_x"])
        self.dec_ops = 0

    @property
    def ut(self):
        """The reconstructed controller output u_tilde."""
        return self.states.u

    def step(self, alpha_ct, beta_ct, gamma_ct):
        """Returns the lifted increments and u_tilde."""
        lifted = []
        for ct in (alpha_ct, beta_ct, gamma_ct):
            dec = he.decrypt(self.sk, ct)
            self.dec_ops += len(dec)
            lifted.append(centered_mod_recover(dec, 0, self.q))
        rebuild = _compile(self.states, MainRecurrence.rebuild, *lifted)
        return tuple(lifted), rebuild(self.states, *lifted)


# -- prelim scheme parties -----------------------------------------------------


class PrelimEncController(PrelimRecurrence):
    """The directly converted controller on ciphertexts (a `CipherRing`);
    `step` is compiled once per plan and scheme parameters."""

    step = _compiled(PrelimRecurrence.step, _compile_cipher)


class PrelimIntegerShadow(PrelimRecurrence):
    """The integer twin of `PrelimEncController`; `step` is compiled once
    per plan."""

    step = _compiled(PrelimRecurrence.step, _compile)

    def __init__(self, plan: PrelimPlan):
        super().__init__(IntRing(), plan)


class PrelimActuator:
    """Decrypts u_tilde (the delivered input is u_a = s1 s2 l(t) u_tilde)."""

    def __init__(self, sk, plan: PrelimPlan, w: int):
        self.sk = sk
        self.q = plan.q
        self.omega = plan.omega
        self.prior = [0] * w
        self.dec_ops = 0

    def step(self, u_ct):
        """Lifts u_tilde around last step's value over omega and returns it."""
        dec = he.decrypt(self.sk, u_ct)
        self.dec_ops += len(dec)
        on, od = self.omega.numerator, self.omega.denominator
        self.prior = centered_mod_recover(list(dec), [p * od for p in self.prior], self.q, on)
        return self.prior


# -- orchestrator ---------------------------------------------------------------


@dataclass
class RunConfig:
    """One closed-loop run.  `reference` (n_r x 1) is constant for the whole
    run, as the plan's error envelopes and quantizer range assume."""

    plant: PlantModel
    ctrl: ControllerModel
    reference: RationalMatrix
    x_p0: tuple
    horizon: int
    params: he.SchemeParams
    seed: int = 0
    collect_detail: bool = False


def noise_peak(plan, horizon: int) -> int:
    """The largest `he` noise bound that a horizon-long lattice run of `plan`
    (main or prelim) checks against its pad: of any matrix product, and of
    any ciphertext the controller emits, which a party decrypts.

    The plan's encrypted controller runs on `NoiseRing` as a route's step
    drives it (`run_closed_loop_*`): the bootstrap, recorded and compiled
    once, then each step fed two fresh encryptions through the plan's noise
    step (`_noise_step`), horizon - 1 steps on the main route, whose
    bootstrap emits step 0, and horizon on the prelim route.  The noise
    step is kept, and the encrypted runs of the plan check theirs with it.
    No bound depends on a plaintext value or a vector length."""
    ring = NoiseRing(plan.q)
    if isinstance(plan, MainPlan):
        controller, method, steps = MainEncController(ring, plan), MainRecurrence.step, horizon - 1
        emitted = controller.bootstrap(())
    else:
        controller, method, steps = PrelimEncController(ring, plan), PrelimRecurrence.step, horizon
        controller.bootstrap(())
        emitted = ()
    n = len(controller.state)
    bootstrap = ring.bounds([*(getattr(controller, k) for k in controller.state), *emitted])
    bounds, peak = bootstrap(*[[he.FRESH_NOISE_BOUND]] * len(ring.params))
    peak = max([peak, *bounds[n:]])
    step = _noise_step(controller, method, 2)
    for _ in range(steps):
        bounds, product_peak = step(bounds[:n] + [he.FRESH_NOISE_BOUND] * 2)
        peak = max(peak, product_peak, *bounds[n:])
    return peak


def lattice_params(plan, horizon: int) -> he.SchemeParams:
    """Size the ciphertext modulus so a horizon-long lattice run of `plan`
    decrypts exactly: the pad is 2 bits wider than the noise dry run's peak."""
    pad = noise_peak(plan, horizon).bit_length() + 2
    return he.SchemeParams(q=plan.q, backend="lattice", lattice=he.LatticeParams(pad))


def _scaled_integer_state(x0_entries, scale: Fraction):
    out = []
    for x in x0_entries:
        s = as_fraction(x) / scale
        if s.denominator != 1:
            raise ValueError(
                f"initial zoom does not divide the controller state exactly: {x}/{scale}"
            )
        out.append(s.numerator)
    return out


def _same_residues(lifted, shadow_values, q: int) -> bool:
    """The oracle check of one decryption: a lift keeps the residues the party
    decrypted, so they must equal the integer shadow's mod q."""
    return [x % q for x in lifted] == [x % q for x in shadow_values]


class _Step(NamedTuple):
    """What one step of a route hands the driver."""

    U: list         # the actuator's integers: u_a = scale l(t) U
    u_shadow: list  # the integer shadow's controller output, which U restores
    lifted: tuple   # every vector a party decrypted and lifted this step
    shadow: tuple   # the integer shadow's value of each
    fields: dict    # the route's own `StepRecord` fields
    detail: dict    # the route's own detail entries


def _drive(trace, plan, cfg: RunConfig, scale: Fraction, step, ring: CipherRing,
           *decrypting) -> ClosedLoopTrace:
    """The closed loop of both routes.  The route supplies `step(t, l(t),
    y/l(t))`, which runs its parties for step t on the measurement as
    `PlantSim.output` gives it and returns a `_Step`; `decrypting` are the
    parties that decrypt, the actuator last.  The driver advances the plant
    on the delivered input u_a = scale l(t) U and the reference loop, keeps
    the l(t) schedule, makes the oracle and recovery checks, and records
    the step."""
    plant_sim = PlantSim(cfg.plant, cfg.x_p0, plan.l0, plan.omega, scale)
    ideal = IdealLoop(cfg.plant, cfg.ctrl, cfg.x_p0, cfg.reference)
    l_t = plan.l0
    for t in range(cfg.horizon):
        s = step(t, l_t, plant_sim.output())
        # equal lifts have equal residues, so only a failed lift can be a mismatch
        lift_failed = s.lifted != s.shadow
        if lift_failed and not all(_same_residues(g, w, plan.q)
                                   for g, w in zip(s.lifted, s.shadow)):
            trace.oracle_mismatches += 1
        trace.actuator_dec_ops = decrypting[-1].dec_ops
        u_true = tuple(float(x) for x in ideal.step())
        u_scale = scale * l_t
        u_a = tuple(u_scale.numerator * x / u_scale.denominator for x in s.U)
        plant_sim.step(s.U)
        trace.records.append(StepRecord(
            t=t,
            u_true=u_true,
            u_a=u_a,
            diff_inf=_diff_inf(u_a, u_true),
            msgs_ctrl_to_act=trace.step_msgs["ctrl_to_act"],
            enc_ops=ring.enc_ops,
            dec_ops=sum(party.dec_ops for party in decrypting),
            recovery_failure=lift_failed or s.U != s.u_shadow,
            **s.fields,
        ))
        if cfg.collect_detail:
            trace.detail.append({"t": t, "l": l_t, **s.detail,
                                 "u_a_exact": [u_scale * x for x in s.U]})
        l_t = l_t * plan.omega
    trace.final_plant_state = tuple(plant_sim.state_floats())
    trace.final_ideal_plant_state = tuple(float(x) for x in ideal.x_p)
    return trace


def run_closed_loop_main(plan: MainPlan, cfg: RunConfig) -> ClosedLoopTrace:
    d = plan.dims
    pk, sk = he.keygen(cfg.params, seed=cfg.seed)
    ring = CipherRing(pk, plan.q, random.Random(cfg.seed))
    controller = MainEncController(ring, plan)
    shadow = MainIntegerShadow(plan)
    sensor = MainSensor(ring, sk, plan)
    provider = RefProvider(ring, plan, cfg.reference)
    actuator = MainActuator(sk, plan)
    x_e0_scaled = _scaled_integer_state(cfg.ctrl.x0.data, plan.l0)
    sent = None  # last step's innovation and reference increment: (cts, ints)

    def step(t, l_t, y_bar):
        nonlocal sent
        if t == 0:
            y_o_ct, *incs_ct = controller.bootstrap(x_e0_scaled)
            emitted = shadow.bootstrap(x_e0_scaled)
        else:
            y_o_ct, *incs_ct = controller.step(*sent[0])
            emitted = shadow.step(*sent[1])
        lifted_y, q_inno, inno_ct, sat_s, gap = sensor.step(y_o_ct, y_bar)
        q_ref, ref_ct, sat_r = provider.step()
        sent = (inno_ct, ref_ct), (q_inno, q_ref)
        lifted_a, ut_a = actuator.step(*incs_ct)
        _, alpha, beta, gamma = emitted
        return _Step(
            U=ut_a, u_shadow=shadow.u,
            lifted=(lifted_y, *lifted_a), shadow=emitted,
            fields={"log2_alpha": _log2norm(alpha), "log2_beta": _log2norm(beta),
                    "log2_gamma": _log2norm(gamma), "log2_sensor_gap": _log2(gap),
                    "saturated": bool(sat_s or sat_r)},
            detail={"innovation": q_inno, "ref_increment": q_ref,
                    "alpha": alpha, "beta": beta, "gamma": gamma,
                    "re_scaled": shadow.re, "u_tilde": shadow.u})

    trace = ClosedLoopTrace("main", step_msgs={
        "ctrl_to_act": d["n"] + d["n_x"] + d["w"], "sensor_to_ctrl": d["v"],
        "provider_to_ctrl": d["n_r"], "ctrl_to_sensor": d["v"]})
    return _drive(trace, plan, cfg, plan.s2, step, ring, sensor, actuator)


def run_closed_loop_prelim(plan: PrelimPlan, cfg: RunConfig) -> ClosedLoopTrace:
    pk, sk = he.keygen(cfg.params, seed=cfg.seed)
    ring = CipherRing(pk, plan.q, random.Random(cfg.seed))
    controller = PrelimEncController(ring, plan)
    shadow = PrelimIntegerShadow(plan)
    actuator = PrelimActuator(sk, plan, cfg.ctrl.w)
    x0_scaled = _scaled_integer_state(cfg.ctrl.x0.data, plan.s1 * plan.l0)
    controller.bootstrap(x0_scaled)
    shadow.bootstrap(x0_scaled)
    on, od = plan.omega.numerator, plan.omega.denominator
    prev_ut = [0] * cfg.ctrl.w

    def step(t, l_t, y_bar):
        nonlocal prev_ut
        q_y, _ = quantize_vector(y_bar[0], den=y_bar[1])
        q_r, _ = quantize_vector([r / l_t for r in cfg.reference.data], None)
        u_ct = controller.step(ring.fresh(q_y), ring.fresh(q_r))
        ut = shadow.step(q_y, q_r)
        lifted = actuator.step(u_ct)
        # the increment ut - prev_ut/omega = (on ut - od prev_ut)/on
        mx = max((abs((on * x - od * y) / on) for x, y in zip(ut, prev_ut)), default=0.0)
        prev_ut = ut
        return _Step(
            U=lifted, u_shadow=ut, lifted=(lifted,), shadow=(ut,),
            fields={"log2_alpha": _log2(mx)},
            detail={"q_y": q_y, "q_r": q_r, "u_tilde": ut, "u_tilde_recovered": lifted})

    trace = ClosedLoopTrace("prelim", step_msgs={
        "ctrl_to_act": cfg.ctrl.w, "sensor_to_ctrl": cfg.plant.v,
        "provider_to_ctrl": cfg.ctrl.n_r, "ctrl_to_sensor": 0})
    return _drive(trace, plan, cfg, plan.s1 * plan.s2, step, ring, actuator)
