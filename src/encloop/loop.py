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
main route and s1 s2 on the prelim route.  The driver keeps scale l(t) as
an unreduced pair of integers.  A step is therefore integer arithmetic
only, on both routes, and builds no `Fraction` unless the run collects its
detail rows; the prelim route's plant denominator grows by that of A/omega
each step.  Doubles appear only in the unencrypted reference loop (the
restoration target) and in reporting, where a ratio of integers converts
with one correctly rounded division.

Each converted controller is written once, over a ring's two operations
`matvec` and `add`: the main one as its emission rule `MainRecurrence` (its
bootstrap's linear part `start`, and the step) and as its observer and
controller dynamics `MainIntegerRecurrence`, which only the reconstruction
from the increments runs (`rebuild`); the prelim one as `PrelimRecurrence`.
Every run, integer or encrypted, repeats one fixed linear map per step, on
small matrices, so no run interprets a recurrence op by op.  Each linear
method of a party (`start`, `step`, the reconstruction's `rebuild` and
`y_o`, the plant's `products` and `measure`, which its `step` and `output`
apply) is run once on the recording ring `kernel.Source`, which makes every
matvec row and every sum one straight-line statement with its zero
coefficients dropped, and the record is compiled into one function: on
integers (`_compile`, for the integer shadows, the reconstruction, whose
ring `IntRing` only embeds, the plant and the noise table), or over packed
ciphertext payloads (`_compile_cipher`), where `he` supplies the reducer
and the slot limit, so an entry is reduced only where the limit needs it
and every state and emitted entry once.  A kernel depends only on
the plaintext rows it is recorded from and, over payloads, on the scheme
parameters, so the process keeps the kernels it used last by those
(`_kept`), and a party looks each of its kernels up once and keeps it: only
keys, ciphertexts and encryption randomness are made per run, and every
call checks its inputs.

Noise.  Every `he` op is linear mod Q, so the noise of an emitted
ciphertext is an integer form over the noises of the fresh encryptions the
run has made, whose coefficients the integer kernels compute from the
plaintext rows centered mod q.  `NoiseTable` sums their absolute values
from impulse responses, once per plan: the exact bound of every emitted
entry at every step, for every horizon once the responses have died out.
The pad is sized from it (`lattice_params`), and the encrypted controllers'
emitted ciphertexts carry its bounds; their states carry none, since
nothing decrypts them.  On the main route nothing else is decrypted: the
controller emits only the bounded increments, and the sensor reads the
observer output from the actuator's exact reconstruction.

One driver (`_drive`) runs the loop of both routes.  A route builds its
keys, ring and parties and supplies one step: what its sensor, reference
provider, encrypted controller, integer shadow and actuator compute, each
value a party decrypted next to the shadow's, and its own record fields.
The driver owns the rest: the plant, the unencrypted reference loop, the
zoom l(t) and the delivered input's scale, the oracle and recovery checks,
the records and detail rows, and the final states.

Alongside the encrypted loop run these checks:
* the integer shadow, which only emits: ground truth for every ciphertext
  and lift, so the mod-q check of each decryption (the oracle) and the
  recovery check, that every lift so far equals the shadow's, test the
  ciphertext ring, the modulus and the recovery windows (bit-exact on mock);
* the original unquantized closed loop in doubles (`IdealLoop`, the
  restoration target).
The recurrence itself is checked by code it shares nothing with: the
reference loop above, and in the tests the closed forms of the increments
(`test_step_identities_on_batch`, acceptance criterion 7), their definition
form, and the paper's recurrence run op by op, which the reconstruction
must match at every step (`PaperRecurrence`).
"""

from __future__ import annotations

import copy
import csv
import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate, chain, repeat
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
    planning must exclude).  A list of priors has one per residue.
    """
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if isinstance(prior, (list, tuple)):
        if len(prior) != len(v_modq):
            raise ValueError(f"{len(prior)} priors for {len(v_modq)} residues")
        windows = [_window(p, q, den) for p in prior]
    else:  # one prior for every entry, converted once
        windows = repeat(_window(prior, q, den))
    return [v - (d2 * v + c) // qd2 * q for v, (d2, c, qd2) in zip(v_modq, windows)]


def _window(prior, q: int, den: int) -> tuple:
    """(2 d, q d - 2 n, 2 q d) for the prior p = n/d, d taken times `den`:
    what `centered_mod_recover` computes k from, k = (2 d v + q d - 2 n) // (2 q d)."""
    n, d = as_ratio(prior)
    d *= den
    return 2 * d, q * d - 2 * n, 2 * q * d


def _diff_inf(u_a, u_true) -> float:
    """max |u_a - u_true| over floats, as numpy's max reads it: NaN if any
    difference is NaN, 0.0 for empty vectors."""
    diffs = [abs(a - b) for a, b in zip(u_a, u_true)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)


def _ratio_float(n: int, d: int) -> float:
    """n/d (d > 0) as the nearest float; past the float range, signed inf."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _log2(x) -> float:
    return math.log2(x) if x > 0 else float("-inf")


def _log2norm(v) -> float:
    return _log2(max((abs(x) for x in v), default=0))


def _json_number(x: float):
    """x, or None (JSON null) where JSON has no number: an infinity or NaN."""
    return x if math.isfinite(x) else None


# -- trace ------------------------------------------------------------------

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


# the trace CSV's columns after t, u_true_* and u_a_*: the later fields in order
CSV_COLUMNS_SUFFIX = [f.name for f in fields(StepRecord)[3:] if f.name != "recovery_failure"]


@dataclass
class ClosedLoopTrace:
    """A run's records and what they add up to.

    The counts are read from the records: saturated steps, recovery
    failures, and the encryptions and decryptions of the run (the last
    record's), all the actuator's, which encrypts nothing.  Each channel's
    total is the steps times its messages per step (`step_msgs`, from the
    controller's `lengths()`); the controller sends the sensor nothing.
    Only the oracle mismatches and the final states are kept apart."""

    scheme: str
    step_msgs: dict  # messages per step: sensor_to_ctrl, provider_to_ctrl, ctrl_to_act
    records: list = field(default_factory=list)
    detail: list = field(default_factory=list)
    oracle_mismatches: int = 0
    final_plant_state: tuple = ()
    final_ideal_plant_state: tuple = ()
    actuator_enc_ops = msgs_ctrl_to_sensor = 0  # not fields: the same on both routes

    @property
    def saturation_count(self) -> int:
        return sum(r.saturated for r in self.records)

    @property
    def recovery_failures(self) -> int:
        return sum(r.recovery_failure for r in self.records)

    @property
    def msgs_ctrl_to_act(self) -> int:
        return len(self.records) * self.step_msgs["ctrl_to_act"]

    @property
    def msgs_sensor_to_ctrl(self) -> int:
        return len(self.records) * self.step_msgs["sensor_to_ctrl"]

    @property
    def msgs_provider_to_ctrl(self) -> int:
        return len(self.records) * self.step_msgs["provider_to_ctrl"]

    @property
    def enc_ops(self) -> int:
        return self.records[-1].enc_ops if self.records else 0

    @property
    def dec_ops(self) -> int:
        return self.records[-1].dec_ops if self.records else 0

    actuator_dec_ops = dec_ops

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
            "msgs_ctrl_to_act_per_step": self.step_msgs["ctrl_to_act"] if self.records else 0,
            "msgs_sensor_to_ctrl": self.msgs_sensor_to_ctrl,
            "msgs_provider_to_ctrl": self.msgs_provider_to_ctrl,
            "msgs_ctrl_to_sensor": self.msgs_ctrl_to_sensor,
            "actuator_enc_ops": self.actuator_enc_ops,
            "actuator_dec_ops": self.actuator_dec_ops,
            "enc_ops_total": self.enc_ops,
            "dec_ops_total": self.dec_ops,
        }

    def to_csv(self, path: str):
        """t, one column per entry of u_true and of u_a, then
        `CSV_COLUMNS_SUFFIX`; floats as `repr` writes them, bools as 0 or 1."""
        w = len(self.records[0].u_true) if self.records else 0
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["t", *(f"u_true_{i}" for i in range(w)),
                          *(f"u_a_{i}" for i in range(w)), *CSV_COLUMNS_SUFFIX])
            for r in self.records:
                cells = (getattr(r, c) for c in CSV_COLUMNS_SUFFIX)
                out.writerow([r.t, *r.u_true, *r.u_a,
                              *(int(x) if isinstance(x, bool) else x for x in cells)])


# -- the unencrypted reference loop ----------------------------------------------


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
# A ring embeds integer matrices (`plain`) and fresh integer vectors
# (`fresh`).  The two operations the recurrences use, `matvec` (plaintext
# integer matrix times ring vector) and `add` (of any number of vectors, left
# to right), are recorded on `kernel.Source`, which makes each compiled
# kernel.


class IntRing:
    """Plain Python integers: the integer shadows and the main actuator.  A
    plaintext is its integer rows as tuples, what the kernels are recorded
    from and looked up by."""

    @staticmethod
    def plain(M):
        return tuple(map(tuple, M))

    @staticmethod
    def fresh(values):
        return list(values)


class CipherRing:
    """Ciphertexts under `pk`: the encrypted controllers, and every party
    that encrypts (`fresh`, which counts the ciphertext entries it makes).
    A plaintext matrix is prepared once (`he.PlainMatrix`), which centers
    its entries into (-q/2, q/2]: the coefficients a product multiplies
    payloads, and so noises, by, as small as the certified ones allow."""

    def __init__(self, pk, q: int, rng):
        self.pk, self.q, self.rng = pk, q, rng
        self.enc_ops = 0

    def plain(self, M):
        return he.PlainMatrix(M, self.q)

    def fresh(self, values):
        self.enc_ops += len(values)
        return he.encrypt(self.pk, [v % self.q for v in values], self.rng)


def _record(recurrence, method, ring, m: dict, reads, inputs):
    """Runs `method` once on a copy of `recurrence` with the recording
    `ring` and the plaintexts `m`, on `inputs`: its state vectors `reads`,
    then `method`'s arguments.  Returns the new state (`recurrence.state`)
    and then the vectors `method` returns, and whether it returns a tuple."""
    recorded = copy.copy(recurrence)
    recorded.ring, recorded.m = ring, SimpleNamespace(**m)
    for k, v in zip(reads, inputs):
        setattr(recorded, k, v)
    result = method(recorded, *inputs[len(reads):])
    many = isinstance(result, tuple)
    return [*(getattr(recorded, k) for k in recurrence.state),
            *(result if many else (result,))], many


def _rows(recurrence) -> tuple:
    """What the kernels of `recurrence` are recorded from: the name and the
    rows of each plaintext, centered mod q for a `he.PlainMatrix`."""
    return tuple((k, getattr(M, "rows", M)) for k, M in vars(recurrence.m).items())


# The kernels used last in this process, least recent first: (builder,
# method, plaintext rows, params) -> kernel, and each plan's `NoiseTable`.
# A main plan has 8 kernels (payload and integer `start` and `step`, the
# reconstruction's `rebuild` and `y_o`, and the plant's `products` and
# `measure`) and 2 more per further pad, a prelim plan 4 and 1 more per pad;
# the noise table runs the integer kernels, and plans that differ only in q
# share them where their centered rows agree.  32 keep several plans'.
KERNELS_KEPT = 32
_kernels: dict = {}


def _kept(build, recurrence, method, reads, args, params=None):
    """`build(recurrence, method, reads, args)`, kept by `method`, the
    plaintext rows of `recurrence` (`_rows`) and, over payloads, `params`
    while it is among the last `KERNELS_KEPT` used, so that a kernel every
    plan shares stays.  A kernel takes the recurrence as an argument and
    holds no reference to it, so it holds no plan, key or ciphertext of a
    run."""
    key = (build, method, _rows(recurrence), params)
    run = _kernels.pop(key, None)
    if run is None:
        run = build(recurrence, method, reads, args)
        if len(_kernels) >= KERNELS_KEPT:
            del _kernels[next(iter(_kernels))]
    _kernels[key] = run  # the last used
    return run


def _check_lengths(got: list, want: list, error):
    """Raises `error` unless a compiled kernel's input vectors have the
    lengths it was recorded at: its state, then its arguments."""
    if got != want:
        raise error(f"input lengths {got} differ from the recorded {want}")


def _compile(recurrence, method, reads, args):
    """`method` of a recurrence on `IntRing`, compiled (`_kept`): a function
    of the recurrence and `method`'s arguments that reads the state vectors
    `reads`, updates the state as `method` would and returns what it
    returns.  Lengths the plan's matrices do not take raise `ValueError`
    while recording, and so do other lengths than the recorded ones at
    every call.  Its `kernel` is the compiled function itself, unchecked:
    of the vectors `reads` and the arguments, it returns the new state
    vectors and then the vectors `method` returns, as one list."""
    return _kept(_int_kernel, recurrence, method, reads, args)


def _int_kernel(recurrence, method, reads, args):
    """`_compile`'s kernel."""
    source = kernel.Source()
    inputs = [source.vector(len(v))
              for v in (*(getattr(recurrence, k) for k in reads), *args)]
    outputs, many = _record(recurrence, method, source, dict(_rows(recurrence)),
                            reads, inputs)
    fn, lengths = source.function(outputs), list(map(len, inputs))
    state, n = recurrence.state, len(recurrence.state)

    def run(rec, *args):
        inputs = [*(getattr(rec, k) for k in reads), *args]
        _check_lengths(list(map(len, inputs)), lengths, ValueError)
        out = fn(*inputs)
        for k, v in zip(state, out):
            setattr(rec, k, v)
        return tuple(out[n:]) if many else out[n]

    run.kernel = fn
    return run


def _compile_cipher(controller, method, reads, args):
    """`method` of an encrypted controller, compiled over ciphertext payloads
    for the scheme parameters of its ring's keys (`_kept`), as `_compile`
    over integers; payloads equal those of the staged `he` ops.  `he`'s
    product rule holds for the whole method: each plaintext passes
    `he.check_product`; operands of unequal length, and at every call inputs
    of other lengths or scheme parameters than the recorded ones, raise
    `he.DimensionMismatchError`.  The payloads are recorded with
    `he.slot_reduction`'s reducer and limit over the centered plaintext
    rows.  On lattice, what a call returns carries the bounds of the plan's
    noise table at the controller's event (`_EncryptedController`), if the
    controller made the states it reads and every argument is a fresh
    encryption, as the table assumes, and no bound otherwise; the new state
    carries none.  `he.decrypt` checks the bounds, and refuses a ciphertext
    without one."""
    params = controller.ring.pk.params
    for M in vars(controller.m).values():
        he.check_product(params, M)
    return _kept(_cipher_kernel, controller, method, reads, args, params)


def _cipher_kernel(controller, method, reads, args):
    """`_compile_cipher`'s kernel."""
    params = controller.ring.pk.params
    source = kernel.Source(*he.slot_reduction(params))
    lengths = [ct.dim for ct in (*(getattr(controller, k) for k in reads), *args)]
    try:
        outputs, many = _record(controller, method, source, dict(_rows(controller)),
                                reads, [source.vector(d) for d in lengths])
    except ValueError as e:
        raise he.DimensionMismatchError(e) from None
    payloads = source.function([tuple(source.reduced(v)) for v in outputs])
    table = noise_table(controller) if params.backend == "lattice" else None
    state, n = controller.state, len(controller.state)
    fresh = he.FRESH_NOISE_BOUND

    def run(rec, *args):
        params = rec.ring.pk.params  # equal to those the kernel is kept by
        cts = [*(getattr(rec, k) for k in reads), *args]
        for ct in cts:
            if ct.params is not params and ct.params != params:
                raise he.DimensionMismatchError("ciphertexts from different schemes")
        _check_lengths([ct.dim for ct in cts], lengths, he.DimensionMismatchError)
        event = None
        if all(ct.noise_bound is not None and ct.noise_bound <= fresh for ct in args):
            if not reads:
                event = 0  # `start`
            elif list(map(id, cts[:len(reads)])) == list(map(id, rec.made)):
                event = rec.events
        emitted = repeat(None) if table is None or event is None else table.at(event)
        out = [he.Ciphertext(params, len(p), p, b) for p, b in
               zip(payloads(*(ct.payload for ct in cts)), chain(repeat(None, n), emitted))]
        for k, ct in zip(state, out):
            setattr(rec, k, ct)
        rec.made, rec.events = out[:n], None if event is None else event + 1
        return tuple(out[n:]) if many else out[n]

    return run


def _compiled(method, compile, reads=None):
    """A recurrence's `method` as a party's method: compiled by `compile`
    (`_compile` or `_compile_cipher`) at its first call on the party, which
    keeps the kernel (`kernels`) and calls it from then on.  The kernel
    reads the state vectors `reads`, by default all of `state`."""

    def call(self, *args):
        run = self.kernels.get(method)
        if run is None:
            run = self.kernels[method] = compile(
                self, method, self.state if reads is None else reads, args)
        return run(self, *args)

    return call


MAIN_CERTIFICATES = {"A": "A/omega", "B": "s2B/omega", "L": "L/omega", "C": "C/s1",
                     "F": "F/omega", "G": "GC/omega", "R": "R/omega",
                     "H": "H/s2", "J": "JC/s2", "S": "S/s2"}
PRELIM_CERTIFICATES = {"F": "F/omega", "G": "G/(s1*omega)", "R": "R/(s1*omega)",
                       "H": "H/s2", "J": "J/(s1*s2)", "S": "S/(s1*s2)"}


def _load(ring, certs, names: dict, keys=None) -> SimpleNamespace:
    """The certified integer matrices `names` (or `keys` of them) on `ring`."""
    return SimpleNamespace(**{key: ring.plain(certs[names[key]].int_rows())
                              for key in keys or names})


def _diagonal(c: int, d: int) -> list:
    """c times the d x d identity, as integer rows."""
    return [[c if i == j else 0 for j in range(d)] for i in range(d)]


class MainRecurrence:
    """The converted observer controller's emission rule, in scaled-integer
    coordinates.  With A, B, L, C, F, G, R, H, J, S the certified integer
    matrices (A/omega, s2B/omega, ...) and the integer 1/omega, the
    controller advances the observer xo, the controller xe and the reference
    estimate re from the old states, and the output u from the new ones:

        xo <- A xo + B u + L innovation
        xe <- F xe + G xo + R re
        re <- (re + ref_increment) / omega
        u   = H xe + J xo + S re

    It emits the increments (suffix _m1, _m2: one and two steps before;
    every state before step 0 is zero)

        alpha = xo - A xo_m1 - B u_m1
        beta  = xe - F xe_m1 - G xo_m1 - (xe_m1 - F xe_m2 - G xo_m2) / omega
        gamma = u  - H xe    - J xo    - (u_m1  - H xe_m1 - J xo_m1) / omega

    By the recurrence, alpha is L innovation and the brackets are R re_m1
    and S re, so from step 2 on beta = R ref_increment_m2 / omega and
    gamma = S ref_increment_m1 / omega; step 1's beta is R re - xe/omega of
    step 0, which emits (xo, xe, S re).  So no emission reads xo, xe, u or
    re: the state is one bounded vector, the next step's `beta`, and xo, xe
    and u are rebuilt from the increments (`MainIntegerRecurrence`).
    """

    state = ("beta",)

    def __init__(self, ring, plan: MainPlan):
        self.ring, self.kernels = ring, {}
        self.dims, inv_omega = plan.dims, plan.certificates["1/omega"].scaled_entries[0]
        self.m = m = _load(ring, plan.certificates, MAIN_CERTIFICATES, "LRS")
        # 1/omega on ref_increment, and -1/omega on xe or a bracket, as diagonals
        m.Om_r, m.neg_Om_x, m.neg_Om_u = (ring.plain(_diagonal(c * inv_omega, self.dims[k]))
                                          for c, k in ((1, "n_r"), (-1, "n_x"), (-1, "w")))

    def bootstrap(self, x_e0_scaled):
        """`start` on the initial states and zero brackets, every vector
        fresh on the ring."""
        d, fresh = self.dims, self.ring.fresh
        return self.start(fresh([0] * d["n"]), fresh(x_e0_scaled), fresh([0] * d["n_r"]),
                          fresh([0] * d["n_x"]), fresh([0] * d["w"]))

    def start(self, xo, xe, re, bx, bu):
        """Takes the initial states xo, xe, re and the brackets bx, bu before
        them; returns step 0's emission (xo, xe - bx/omega, S re - bu/omega)
        and keeps step 1's beta, R re - xe/omega."""
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        self.beta = add(mv(m.R, re), mv(m.neg_Om_x, xe))
        return xo, add(xe, mv(m.neg_Om_x, bx)), add(mv(m.S, re), mv(m.neg_Om_u, bu))

    def step(self, innovation, ref_increment):
        """Advance one step on last step's quantized innovation and reference
        increment; returns the emission (alpha, beta, gamma)."""
        mv, m = self.ring.matvec, self.m
        r = mv(m.Om_r, ref_increment)
        beta, self.beta = self.beta, mv(m.R, r)
        return mv(m.L, innovation), beta, mv(m.S, r)

    def lengths(self) -> tuple:
        """The lengths of the vectors a run encrypts fresh: the bootstrap's
        (`start`'s arguments) and each step's; and of those a step emits."""
        d = self.dims
        return ((d["n"], d["n_x"], d["n_r"], d["n_x"], d["w"]), (d["v"], d["n_r"]),
                (d["n"], d["n_x"], d["w"]))


class MainIntegerRecurrence:
    """The observer and controller dynamics of `MainRecurrence`, rebuilt from
    its increments on `IntRing` from zero states (as before step 0), with
    `rebuild` and `y_o` compiled: the actuator's, a main run's only one."""

    state = ("xo", "xe", "bx", "bu", "u")

    def __init__(self, plan: MainPlan):
        self.ring, self.kernels = IntRing(), {}
        d, inv_omega = plan.dims, plan.certificates["1/omega"].scaled_entries[0]
        self.m = m = _load(self.ring, plan.certificates, MAIN_CERTIFICATES, "ABCFGHJ")
        m.Om_x, m.Om_u = (self.ring.plain(_diagonal(inv_omega, d[k])) for k in ("n_x", "w"))
        self.xo, self.xe, self.bx, self.bu, self.u = (
            [0] * d[k] for k in ("n", "n_x", "n_x", "w", "w"))

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

    def y_o(self):
        """The observer output (C/s1) xo."""
        return self.ring.matvec(self.m.C, self.xo)

    rebuild, y_o = _compiled(rebuild, _compile), _compiled(y_o, _compile)


class PrelimRecurrence:
    """The directly converted controller, u = H x + J y + S r and
    x <- F x + G y + R r, with the certified integer matrices F/omega,
    G/(s1 omega), R/(s1 omega), H/s2, J/(s1 s2), S/(s1 s2).  Its bootstrap
    only encrypts x: there is no linear `start`."""

    state = ("x",)

    def __init__(self, ring, plan: PrelimPlan):
        self.ring, self.kernels = ring, {}
        self.m = _load(ring, plan.certificates, PRELIM_CERTIFICATES)

    def bootstrap(self, x0_scaled):
        self.x = self.ring.fresh(x0_scaled)

    def step(self, y, r):
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        u = add(mv(m.H, self.x), mv(m.J, y), mv(m.S, r))
        self.x = add(mv(m.F, self.x), mv(m.G, y), mv(m.R, r))
        return u

    def lengths(self) -> tuple:
        """As `MainRecurrence.lengths`, for plaintexts prepared by a
        `CipherRing`: the state x, which the bootstrap encrypts; y and r
        (read from J and S, which have rows even when the state has none);
        and u."""
        m = self.m
        return (m.F.cols,), (m.J.cols, m.S.cols), (len(m.H.rows),)


class _EncryptedController:
    """What an encrypted controller adds to its recurrence: the states its
    bootstrap or last compiled call made (`made`, compared by identity) and
    the event of the plan's `NoiseTable` a step from them is (`events`).  A
    step from states it did not make, on arguments that are not fresh
    encryptions, or after such a step, has no event and emits no bound."""

    made, events = (), None


# -- the plant ------------------------------------------------------------------


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

    The integer rows are the plant's kernels, compiled as the integer
    shadows' are (`_compile`): (X, U) -> (A X, B U) for `step`, which then
    only scales the two products onto the new D, and X -> C X for `output`.
    """

    state = ()  # the kernels keep no state: X and D are the step's own

    def __init__(self, plant: PlantModel, x_p0, l0, omega, scale):
        self.l0, self.omega = as_fraction(l0), as_fraction(omega)
        A, self.a = _int_rows(plant.A.scale(1 / self.omega))
        B, self.b = _int_rows(plant.B.scale(as_fraction(scale) / self.omega))
        C, self.c = _int_rows(plant.C)
        self.m, self.kernels = SimpleNamespace(A=IntRing.plain(A), B=IntRing.plain(B),
                                               C=IntRing.plain(C)), {}
        self.X, self.D = _over_common_den([as_fraction(x) / self.l0 for x in x_p0])
        self.t = 0

    def products(self, X, U):
        """A X and B U, over the integer rows."""
        return self.ring.matvec(self.m.A, X), self.ring.matvec(self.m.B, U)

    def measure(self, X):
        """C X, over the integer rows."""
        return self.ring.matvec(self.m.C, X)

    products, measure = _compiled(products, _compile), _compiled(measure, _compile)

    def output(self):
        """y/l(t) as (integer numerators, their common denominator)."""
        return self.measure(self.X), self.c * self.D

    def step(self, U):
        """Advance on the delivered input u_a = scale l(t) U, U integers."""
        AX, BU = self.products(self.X, U)
        aD = self.a * self.D
        D = math.lcm(aD, self.b)
        fa, fb = D // aD, D // self.b
        self.X = [fa * x + fb * u for x, u in zip(AX, BU)]
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
        return np.array([_ratio_float(n * x, d) for x in self.X], dtype=float)


# -- main scheme parties ------------------------------------------------------


class MainEncController(_EncryptedController, MainRecurrence):
    """Holds only the public key (in its `CipherRing`); runs the emission
    rule on ciphertexts, `start` and `step` compiled."""

    start = _compiled(MainRecurrence.start, _compile_cipher, reads=())
    step = _compiled(MainRecurrence.step, _compile_cipher)


class MainIntegerShadow(MainRecurrence):
    """The emission rule on exact integers, `start` and `step` compiled:
    ground truth for every ciphertext (mod q), and the exact increments
    that every lift of the actuator must equal."""

    start = _compiled(MainRecurrence.start, _compile, reads=())
    step = _compiled(MainRecurrence.step, _compile)

    def __init__(self, plan: MainPlan):
        super().__init__(IntRing(), plan)


class MainSensor:
    """Quantizes the innovation, the measured output less s1 times the
    observer output y_o = (C/s1) xo, and returns it encrypted.  The paper's
    controller sends the sensor y_o encrypted; here the sensor reads it from
    the actuator, which rebuilds xo exactly from the increments
    (`MainActuator.y_o`): a plaintext link inside the plant side, where both
    parties hold the secret key.  The controller is unchanged; it only sends
    the sensor nothing, so that no ciphertext whose noise grows with t is
    ever decrypted."""

    def __init__(self, ring: CipherRing, plan: MainPlan):
        self.ring = ring
        self.s1 = plan.s1
        self.spec = QuantizerSpec(plan.range_level)

    def step(self, y_o, y_bar):
        """`y_o` is the exact observer output, and `y_bar` the measurement
        y/l(t) as (integer numerators Y, their denominator E), as
        `PlantSim.output` gives it."""
        Y, E = y_bar
        s1n, s1d = self.s1.numerator, self.s1.denominator
        # y_bar/s1 = P/d; y_bar/s1 - y_o = gap_num/d, and the innovation
        # y_bar - s1 y_o = gap_num/(E s1d)
        d = E * s1n
        P = [y * s1d for y in Y]
        gap_num = [p - d * v for p, v in zip(P, y_o)]
        q_inno, sat = quantize_vector(gap_num, self.spec, E * s1d)
        gap = max(map(abs, gap_num), default=0)
        try:
            log2_gap = _log2(gap / d)
        except OverflowError:  # gap/d lies beyond the float range
            log2_gap = math.log2(gap) - math.log2(d)
        return q_inno, self.ring.fresh(q_inno), sat, log2_gap


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
    """Decrypts the increments, lifts them around zero, and rebuilds the
    controller's states from them (`MainIntegerRecurrence`; exact, and the
    delivered input is u_a = s2 l(t) u_tilde), whose observer output it
    hands the sensor (`y_o`)."""

    def __init__(self, sk, plan: MainPlan):
        self.sk, self.q = sk, plan.q
        self.states = MainIntegerRecurrence(plan)
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
        return tuple(lifted), self.states.rebuild(*lifted)

    def y_o(self):
        """The observer output (C/s1) xo of the rebuilt states."""
        return self.states.y_o()


# -- prelim scheme parties -----------------------------------------------------


class PrelimEncController(_EncryptedController, PrelimRecurrence):
    """The directly converted controller on ciphertexts (a `CipherRing`);
    `step` is compiled.  A step from the fresh state of its bootstrap is
    event 0."""

    step = _compiled(PrelimRecurrence.step, _compile_cipher)

    def bootstrap(self, x0_scaled):
        super().bootstrap(x0_scaled)
        self.made, self.events = [self.x], 0


class PrelimIntegerShadow(PrelimRecurrence):
    """The integer twin of `PrelimEncController`; `step` is compiled."""

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


# -- the noise table ------------------------------------------------------------


class NoiseTable:
    """The exact noise bounds of what the encrypted controller of a plan
    emits, by event: the main bootstrap's `start` and then each step, or
    each prelim step.

    Every `he` op is linear mod Q, so the noise of an emitted entry is the
    integer form sum c_k e_k over the noises e_k of the fresh encryptions
    the run has made, |e_k| <= `he.FRESH_NOISE_BOUND`, and its coefficients
    are what the recurrence computes over Z from its plaintext rows centered
    mod q.  Its bound, FRESH_NOISE_BOUND sum |c_k|, is exact: the worst case
    over independent fresh noises.  The coefficients of one fresh entry are
    an impulse response of the integer kernels, a column: one per entry the
    bootstrap encrypts, and one per entry of a step's inputs, which every
    step from `first_input` on encrypts anew, so the responses of such a
    column at every lag so far add up (`sums`).  `boot` and `inputs` hold
    what each column makes at lag 0, its state vectors and then its
    emission; each lag after that is a `step` (an integer `kernel` that
    reads every state vector) on `zeros`, the zero inputs.  From lag 1 on
    the response is C A^(lag-1) x, for the state x after lag 0 and the
    step's linear maps A (state to state) and C (state to emission); so once
    it has been zero for as many lags in a row as the `state` (a zero one)
    has entries, it is zero for ever (Cayley-Hamilton), and the column
    ends.  It ends as well once its state is zero, as a main column's is
    from lag 1 on.  A live column is a record of its state, its emission at
    the next lag and its zero lags in a row, and `_advance` moves the
    columns a lag on.  The table extends itself on demand; once every
    column has ended, its last bounds hold for every later event (`final`).
    A ciphertext takes the largest bound of its entries."""

    def __init__(self, step, state: list, zeros: list, boot: list, inputs: list,
                 first_input: int, lengths):
        n = self.n = len(state)
        self.step, self.zeros, self.width = step, zeros, sum(map(len, state))
        self.boot, self.inputs = ([SimpleNamespace(state=out[:n], emitted=out[n:], zero_lags=0)
                                   for out in outs] for outs in (boot, inputs))
        self.first_input, self.sums = first_input, [0] * sum(lengths)
        self.vectors = [slice(k - m, k) for m, k in zip(lengths, accumulate(lengths))]
        self.bounds = []  # by event, each emitted vector's
        self.final = False

    def at(self, event: int) -> tuple:
        """The noise bound of each vector emitted at `event`."""
        while event >= len(self.bounds) and not self.final:
            self._extend()
        return self.bounds[min(event, len(self.bounds) - 1)]

    def peak(self, events: int) -> int:
        """The largest noise bound over the first `events` events."""
        self.at(events - 1)
        return max(map(max, self.bounds[:events]))

    def _extend(self):
        # with no column left, this event's bounds, those of the sums, repeat
        self.final = not (self.boot or self.inputs)
        if len(self.bounds) >= self.first_input:
            self.sums, self.inputs = self._advance(self.sums, self.inputs)
        entries, self.boot = self._advance(self.sums, self.boot)
        self.bounds.append(tuple(he.FRESH_NOISE_BOUND * max(entries[v], default=0)
                                 for v in self.vectors))

    def _advance(self, sums: list, columns: list) -> tuple:
        """`sums` plus the absolute emitted entries of each column, and the
        columns that go on, each moved a lag on."""
        n, live = self.n, []
        for c in columns:
            if not c.zero_lags:  # at lag 0, or a nonzero emission
                sums = [a + abs(x) for a, x in zip(sums, chain.from_iterable(c.emitted))]
            if c.zero_lags < self.width and any(map(any, c.state)):
                out = self.step(*c.state, *self.zeros)
                c.state, c.emitted = out[:n], out[n:]
                c.zero_lags = 0 if any(map(any, c.emitted)) else c.zero_lags + 1
                live.append(c)
        return sums, live


def _units(lengths) -> list:
    """For each entry of vectors of `lengths`, in order, those vectors with
    1 at that entry and 0 everywhere else."""
    return [[[int(k == j and i == e) for i in range(n)] for k, n in enumerate(lengths)]
            for j, m in enumerate(lengths) for e in range(m)]


def noise_table(controller) -> NoiseTable:
    """The `NoiseTable` of the plan of an encrypted controller, or of its
    recurrence on any `CipherRing` of the plan: kept (`_kept`) by the
    plaintext rows centered mod q, which are all it depends on."""
    return _kept(_noise_table, controller, NoiseTable, None, None)


def _noise_table(controller, *_) -> NoiseTable:
    """`noise_table`'s table, from the recurrence's integer kernels over the
    centered rows (`_compile`)."""
    boot, inputs, emitted = controller.lengths()
    zeros = [[0] * k for k in inputs]
    probe = copy.copy(controller)  # takes a zero state of the right lengths
    if isinstance(controller, MainRecurrence):
        start = _compile(probe, MainRecurrence.start, (), [[0] * k for k in boot])
        start(probe, *([0] * k for k in boot))
        step = _compile(probe, MainRecurrence.step, probe.state, zeros).kernel
        # the bootstrap encrypts `start`'s arguments, and each step from
        # event 1 on its inputs
        boot, first_input = [start.kernel(*unit) for unit in _units(boot)], 1
    else:
        probe.x = [0] * boot[0]
        step = _compile(probe, PrelimRecurrence.step, probe.state, zeros).kernel
        # the bootstrap encrypts the state, and every step its inputs
        boot, first_input = [step(*unit, *zeros) for unit in _units(boot)], 0
    state = [[0] * len(getattr(probe, k)) for k in probe.state]
    inputs = [step(*state, *unit) for unit in _units(inputs)]
    return NoiseTable(step, state, zeros, boot, inputs, first_input, emitted)


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
    """The largest noise bound of what a horizon-long lattice run of `plan`
    (main or prelim) decrypts: the plan's `NoiseTable` over the run's
    `horizon` events, the main bootstrap and horizon - 1 steps, or horizon
    prelim steps.  The table is kept, and the encrypted runs of the plan
    take their bounds from it."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    # the plaintexts as the run's controller prepares them; no key is needed
    rec = (MainRecurrence if isinstance(plan, MainPlan) else PrelimRecurrence)(
        CipherRing(None, plan.q, None), plan)
    return noise_table(rec).peak(horizon)


def lattice_params(plan, horizon: int) -> he.SchemeParams:
    """Size the ciphertext modulus so a horizon-long lattice run of `plan`
    decrypts exactly: the pad is 2 bits wider than the noise peak.  Where
    the plan's table is final within the horizon, as on the main route after
    a few steps, the pad holds for every horizon."""
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


class _Step(NamedTuple):
    """What one step of a route hands the driver."""

    U: list        # the actuator's integers: u_a = scale l(t) U
    lifted: tuple  # every vector a party decrypted and lifted this step
    shadow: tuple  # the integer shadow's exact value of each
    fields: dict   # the route's own `StepRecord` fields
    detail: dict   # the route's own detail entries; None without `collect_detail`


def _drive(trace, plan, cfg: RunConfig, scale: Fraction, step, ring: CipherRing,
           actuator) -> ClosedLoopTrace:
    """The closed loop of both routes.  The route supplies `step(t, zoom,
    y/l(t))`, which runs its parties for step t on the measurement as
    `PlantSim.output` gives it and returns a `_Step`; `ring` counts the
    run's encryptions, and the `actuator`, the one party that decrypts, its
    decryptions.  The driver advances the plant on the delivered input
    u_a = scale l(t) U and the reference loop, keeps the l(t) schedule,
    makes the oracle and recovery checks, and records the step.  A step
    fails recovery from the first lift on that differed from the shadow's:
    U is rebuilt from every lift so far (main), or each lift is centred on
    the last (prelim).

    The schedule is `zoom`, scale l(t) as integers (n, d) kept unreduced: a
    step multiplies them by omega's numerator and denominator, with no gcd.
    A float of n U/d is correctly rounded whatever the pair, and Fractions
    are built only for the detail rows."""
    plant_sim = PlantSim(cfg.plant, cfg.x_p0, plan.l0, plan.omega, scale)
    ideal = IdealLoop(cfg.plant, cfg.ctrl, cfg.x_p0, cfg.reference)
    n, d = as_ratio(scale * plan.l0)  # the zoom at t = 0
    on, od = as_ratio(plan.omega)
    failed = False
    for t in range(cfg.horizon):
        s = step(t, (n, d), plant_sim.output())
        if s.lifted != s.shadow:
            failed = True
            # the oracle: a lift keeps the residues the actuator decrypted, so
            # they must be the shadow's mod q (equal lifts have equal residues)
            residues = [[[x % plan.q for x in v] for v in vs] for vs in (s.lifted, s.shadow)]
            trace.oracle_mismatches += residues[0] != residues[1]
        u_true = tuple(float(x) for x in ideal.step())
        u_a = tuple(_ratio_float(n * x, d) for x in s.U)
        plant_sim.step(s.U)
        trace.records.append(StepRecord(
            t=t,
            u_true=u_true,
            u_a=u_a,
            diff_inf=_diff_inf(u_a, u_true),
            msgs_ctrl_to_act=trace.step_msgs["ctrl_to_act"],
            enc_ops=ring.enc_ops,
            dec_ops=actuator.dec_ops,
            recovery_failure=failed,
            **s.fields,
        ))
        if cfg.collect_detail:
            trace.detail.append({"t": t, "l": Fraction(n, d) / scale, **s.detail,
                                 "u_a_exact": [Fraction(n * x, d) for x in s.U]})
        n, d = n * on, d * od
    trace.final_plant_state = tuple(plant_sim.state_floats())
    trace.final_ideal_plant_state = tuple(float(x) for x in ideal.x_p)
    return trace


def _step_msgs(controller) -> dict:
    """A route's messages per step, from what its controller takes and emits
    (`lengths()`): its two inputs, from the sensor and the provider, and all
    it emits, to the actuator."""
    _, (sensor, provider), emitted = controller.lengths()
    return {"sensor_to_ctrl": sensor, "provider_to_ctrl": provider,
            "ctrl_to_act": sum(emitted)}


def run_closed_loop_main(plan: MainPlan, cfg: RunConfig) -> ClosedLoopTrace:
    pk, sk = he.keygen(cfg.params, seed=cfg.seed)
    ring = CipherRing(pk, plan.q, random.Random(cfg.seed))
    controller = MainEncController(ring, plan)
    shadow = MainIntegerShadow(plan)
    sensor = MainSensor(ring, plan)
    provider = RefProvider(ring, plan, cfg.reference)
    actuator = MainActuator(sk, plan)
    x_e0_scaled = _scaled_integer_state(cfg.ctrl.x0.data, plan.l0)
    sent = None  # last step's innovation and reference increment: (cts, ints)

    def step(t, zoom, y_bar):
        nonlocal sent
        if t == 0:
            incs_ct = controller.bootstrap(x_e0_scaled)
            emitted = shadow.bootstrap(x_e0_scaled)
        else:
            incs_ct = controller.step(*sent[0])
            emitted = shadow.step(*sent[1])
        lifted, ut_a = actuator.step(*incs_ct)
        q_inno, inno_ct, sat_s, log2_gap = sensor.step(actuator.y_o(), y_bar)
        # r/l(t) - e, an integer, for s2 l(t) = n/d
        re = [int(r * plan.s2 * Fraction(zoom[1], zoom[0]) - Fraction(e, provider.den))
              for r, e in zip(cfg.reference.data, provider.e)] if cfg.collect_detail else None
        q_ref, ref_ct, sat_r = provider.step()
        sent = (inno_ct, ref_ct), (q_inno, q_ref)
        alpha, beta, gamma = emitted
        return _Step(
            U=ut_a, lifted=lifted, shadow=emitted,
            fields={"log2_alpha": _log2norm(alpha), "log2_beta": _log2norm(beta),
                    "log2_gamma": _log2norm(gamma), "log2_sensor_gap": log2_gap,
                    "saturated": bool(sat_s or sat_r)},
            detail={"innovation": q_inno, "ref_increment": q_ref,
                    "alpha": alpha, "beta": beta, "gamma": gamma,
                    "re_scaled": re, "u_tilde": ut_a} if cfg.collect_detail else None)

    trace = ClosedLoopTrace("main", _step_msgs(controller))
    return _drive(trace, plan, cfg, plan.s2, step, ring, actuator)


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
    scale = plan.s1 * plan.s2  # of the delivered input
    # the reference times the scale: r/l(t) = R d/(E n) for scale l(t) = n/d
    R, E = _over_common_den([r * scale for r in cfg.reference.data])

    def step(t, zoom, y_bar):
        nonlocal prev_ut
        n, d = zoom
        q_y, _ = quantize_vector(y_bar[0], den=y_bar[1])
        q_r, _ = quantize_vector([x * d for x in R], None, E * n)
        u_ct = controller.step(ring.fresh(q_y), ring.fresh(q_r))
        ut = shadow.step(q_y, q_r)
        lifted = actuator.step(u_ct)
        # the increment ut - prev_ut/omega = (on ut - od prev_ut)/on
        mx = max((abs((on * x - od * y) / on) for x, y in zip(ut, prev_ut)), default=0.0)
        prev_ut = ut
        return _Step(
            U=lifted, lifted=(lifted,), shadow=(ut,),
            fields={"log2_alpha": _log2(mx)},
            detail={"q_y": q_y, "q_r": q_r, "u_tilde": ut, "u_tilde_recovered": lifted}
            if cfg.collect_detail else None)

    trace = ClosedLoopTrace("prelim", _step_msgs(controller))
    return _drive(trace, plan, cfg, scale, step, ring, actuator)
