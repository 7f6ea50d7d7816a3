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
restoration target, one closed-loop map on plain float rows) and in
reporting, where a ratio of integers converts with one correctly rounded
division.

The zoomed states grow by log2(1/omega) bits a step, so on the main route
only the actuator's reconstruction carries that growth: the plant keeps its
bounded gap from the reconstructed observer (observer error coordinates,
`PlantSim`), and the reconstruction's G and J act on the observer output,
not on the observer state, where the plan's rows factor so
(`MainIntegerRecurrence`).

Each converted controller is written once, over a ring's two operations
`matvec` and `add`: the main one as its emission rule `MainRecurrence` and
as its observer and controller dynamics `MainIntegerRecurrence`, which only
the reconstruction from the increments runs (`rebuild`); the prelim one as
`PrelimRecurrence`.  Both bootstraps only encrypt.  No run interprets a
recurrence op by op: each linear method of a party (`step`, the
reconstruction's `rebuild`, the plant's `products` and `measure`, which its
`step` and `output` apply on the prelim route, and its `observe`, which
`gap` applies on the main route) is compiled by `kernel` into the party's
method (`kernel.compiled`), over integers for the integer shadows, the
reconstruction, whose ring `IntRing` only embeds, and the plant, and over
packed ciphertext payloads for the encrypted controllers, whose own
protocol (`_Payloads`) checks each ciphertext's scheme, finds the
controller's noise-table event and makes each new `he.Ciphertext`.  The
noise table runs the integer `step` as well, on states of its own.  The
process keeps the kernels and the noise tables it used last, so only keys,
ciphertexts and encryption randomness are made per run.

Noise.  Every `he` op is linear mod Q, so the noise of an emitted
ciphertext is an integer form over the noises of the fresh encryptions the
run has made, whose coefficients the integer kernels compute from the
plaintext rows centered mod q.  `NoiseTable` sums their absolute values
from impulse responses, once per plan: the exact bound of every emitted
entry at every step, for every horizon once the responses have died out;
the main bootstrap emits fresh encryptions.
The pad is sized from it (`lattice_params`), and the encrypted controllers'
emitted ciphertexts carry its bounds; their states carry none, since
nothing decrypts them.  On the main route nothing else is decrypted: the
controller emits only the bounded increments, and the sensor reads the
innovation from the plant, whose gap from the actuator's exact
reconstruction it is.  The actuator lifts the three increments in one call
and rebuilds from them in one kernel.

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

import csv
import functools
import math
import operator
import random
from fractions import Fraction
from itertools import accumulate, chain, repeat
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from . import he, kernel
from .exactmat import (RationalMatrix, SingularMatrixError, as_fraction, as_ratio, identity_rows,
                       integer_rows)
from .planner import MainPlan, PlantModel, ControllerModel, PrelimPlan
from .quantizer import QuantizerSpec, quantize_vector
from .records import Record, fields


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

class StepRecord(Record):
    """One step of a run.  `enc_ops` and `dec_ops` count the run so far; the
    prelim route has no beta, gamma, sensor gap or quantizer range, and
    keeps the defaults of `__init__`, which the loop calls every step."""

    t: int
    u_true: tuple
    u_a: tuple
    diff_inf: float
    log2_alpha: float
    log2_beta: float
    log2_gamma: float
    log2_sensor_gap: float
    saturated: bool
    msgs_ctrl_to_act: int
    enc_ops: int
    dec_ops: int
    recovery_failure: bool

    def __init__(self, *, t, u_true, u_a, diff_inf, log2_alpha, log2_beta=float("-inf"),
                 log2_gamma=float("-inf"), log2_sensor_gap=float("-inf"), saturated=False,
                 msgs_ctrl_to_act, enc_ops, dec_ops, recovery_failure):
        self.t, self.u_true, self.u_a, self.diff_inf = t, u_true, u_a, diff_inf
        self.log2_alpha, self.log2_beta, self.log2_gamma = log2_alpha, log2_beta, log2_gamma
        self.log2_sensor_gap, self.saturated = log2_sensor_gap, saturated
        self.msgs_ctrl_to_act, self.enc_ops, self.dec_ops = msgs_ctrl_to_act, enc_ops, dec_ops
        self.recovery_failure = recovery_failure


# the trace CSV's columns after t, u_true_* and u_a_*: the later fields in order
CSV_COLUMNS_SUFFIX = [name for name in fields(StepRecord)[3:] if name != "recovery_failure"]


class ClosedLoopTrace(Record):
    """A run's records and what they add up to.

    The counts are read from the records: saturated steps, recovery
    failures, and the encryptions and decryptions of the run (the last
    record's), all the actuator's, which encrypts nothing.  Each channel's
    total is the steps times its messages per step (`step_msgs`, from the
    controller's `lengths()`); the controller sends the sensor nothing.
    Only the oracle mismatches and the final states are kept apart."""

    scheme: str
    step_msgs: dict  # messages per step: sensor_to_ctrl, provider_to_ctrl, ctrl_to_act
    records: list
    detail: list
    oracle_mismatches: int
    final_plant_state: tuple
    final_ideal_plant_state: tuple
    actuator_enc_ops = msgs_ctrl_to_sensor = 0  # not fields: the same on both routes

    def __init__(self, scheme, step_msgs, records=None, detail=None, oracle_mismatches=0,
                 final_plant_state=(), final_ideal_plant_state=()):  # new lists per trace
        self.scheme, self.step_msgs = scheme, step_msgs
        self.records = [] if records is None else records
        self.detail = [] if detail is None else detail
        self.oracle_mismatches = oracle_mismatches
        self.final_plant_state = final_plant_state
        self.final_ideal_plant_state = final_ideal_plant_state

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
    reference, no quantization: one closed-loop map on z = (x_p, x), in
    floats.  A step emits u = K z + S r and moves z <- M z + c, with
    K = [J C, H], M = [[A + B J C, B H], [G C, F]] (`block_closed_loop`) and
    c = (B S r, R r), all formed from the float rows of the models."""

    def __init__(self, plant: PlantModel, ctrl: ControllerModel, x_p0, reference):
        A, B, C = (m.float_rows() for m in (plant.A, plant.B, plant.C))
        F, G, H, J, S, R = (m.float_rows() for m in (
            ctrl.F, ctrl.G, ctrl.H, ctrl.J, ctrl.S, ctrl.R_ref))
        r = [_float(x) for x in reference.data]
        n, Ct = plant.n, list(zip(*C)) if C else [()] * plant.n
        self.K = [[_dot(j, c) for c in Ct] + h for j, h in zip(J, H)]
        self.Sr = [_dot(row, r) for row in S]
        Kt = list(zip(*self.K)) if self.K else [()] * (n + ctrl.n_x)
        self.M = [[a + _dot(b, k) for a, k in zip(ra + [0.0] * ctrl.n_x, Kt)]
                  for ra, b in zip(A, B)]
        self.M += [[_dot(g, c) for c in Ct] + f for g, f in zip(G, F)]
        self.c = [_dot(b, self.Sr) for b in B] + [_dot(row, r) for row in R]
        self.n = n
        self.z = tuple([_float(x) for x in chain(x_p0, ctrl.x0.data)])

    @property
    def x_p(self) -> tuple:
        """The plant copy's state."""
        return self.z[:self.n]

    def step(self) -> tuple:
        """The controller's output u of this step, as a tuple of floats."""
        z = self.z
        u = tuple([_dot(k, z) + sr for k, sr in zip(self.K, self.Sr)])
        self.z = tuple([_dot(m, z) + c for m, c in zip(self.M, self.c)])
        return u


def _dot(a, b) -> float:
    """a . b in floats, summed left to right (`sum` compensates from Python 3.12 on)."""
    acc = 0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _float(x) -> float:
    """An int or a Fraction as the nearest float, by one integer division."""
    n, d = as_ratio(x)
    return n / d


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


class _Payloads(kernel.Protocol):
    """How an encrypted controller's method compiles (`kernel.compiled`):
    over ciphertext payloads, for the scheme parameters of its ring's keys
    (`key`); payloads equal those of the staged `he` ops.  `he`'s product
    rule holds for the whole method: each plaintext passes
    `he.check_product`; operands of unequal length, and at every call
    inputs of other lengths or scheme parameters than the recorded ones,
    raise `he.DimensionMismatchError`.  The payloads are recorded with
    `he.slot_reduction`'s reducer and limit over the centered plaintext
    rows, and `lines` adds the rest, unrolled per ciphertext: the scheme
    check, the controller's event, and each new `he.Ciphertext`.  On
    lattice, what a call returns carries the bounds of the plan's noise
    table at the controller's event (`_EncryptedController`), if the
    controller's bootstrap or last call made the state it reads and every
    argument is a fresh encryption, as the table assumes, and no bound
    otherwise; the new state carries none.  `he.decrypt` checks the bounds,
    and refuses a ciphertext without one."""

    length, size, error = operator.attrgetter("dim"), "{}.dim", he.DimensionMismatchError

    def __init__(self, controller):
        self.controller = controller
        self.key = params = controller.ring.pk.params
        for M in vars(controller.m).values():
            he.check_product(params, M)
        self.reduce, self.limit = he.slot_reduction(params)

    def lines(self, source, p, n, outputs):
        outputs = [tuple(source.reduced(v)) for v in outputs]
        # each input's scheme, in one tuple, which compares by identity, then ==
        checks = ["params = self.ring.pk.params",
                  f"if ({''.join(f'{x}.params, ' for x in p)}) != ({'params, ' * len(p)}):",
                  "    raise DimensionMismatchError('ciphertexts from different schemes')"]
        # the event: the controller's if it made the states read and every
        # argument is a fresh encryption, else None
        given = [*(f"{x}.noise_bound is not None and {x}.noise_bound <= FRESH" for x in p[n:]),
                 f"len(self.made) == {n}",
                 *(f"self.made[{k}] is {x}" for k, x in enumerate(p[:n]))]
        # the new ciphertexts: s0, s1, ... for the state, then those returned
        table = noise_table(self.controller) if self.key.backend == "lattice" else None
        emitted = len(outputs) - n
        bound = [""] * n + [f", bounds[{k}]" if table else "" for k in range(emitted)]
        cts = [f"Ciphertext(params, {len(v)}, {kernel.expr(v)}{b})"
               for v, b in zip(outputs, bound)]
        body = [f"event = self.events if {' and '.join(given)} else None",
                *source.body([f"{x}.payload" for x in p]),
                *([f"bounds = {(None,) * emitted!r} if event is None else table.at(event)"]
                  if table else []),
                *(f"s{k} = {ct}" for k, ct in enumerate(cts[:n])),
                f"self.made = [{''.join(f's{k}, ' for k in range(n))}]",
                "self.events = None if event is None else event + 1"]
        return checks, body, [f"s{k}" for k in range(n)] + cts[n:], {
            "Ciphertext": he.Ciphertext, "table": table, "FRESH": he.FRESH_NOISE_BOUND}


MAIN_CERTIFICATES = {"A": "A/omega", "B": "s2B/omega", "L": "L/omega", "C": "C/s1",
                     "F": "F/omega", "G": "GC/omega", "R": "R/omega",
                     "H": "H/s2", "J": "JC/s2", "S": "S/s2"}
PRELIM_CERTIFICATES = {"F": "F/omega", "G": "G/(s1*omega)", "R": "R/(s1*omega)",
                       "H": "H/s2", "J": "J/(s1*s2)", "S": "S/(s1*s2)"}


def _load(ring, certs, names: dict, keys=None) -> SimpleNamespace:
    """The certified integer matrices `names` (or `keys` of them) on `ring`."""
    return SimpleNamespace(**{key: ring.plain(certs[names[key]].int_rows())
                              for key in keys or names})


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
    gamma = S ref_increment_m1 / omega.  Every state starts at zero but xe,
    at x_e0, so step 0 emits (xo, xe, S re) = (0, x_e0, 0), and step 1's
    beta is R re - xe/omega of step 0, -x_e0/omega.  So no emission reads
    xo, xe, u or re: the state is one bounded vector, the next step's
    `beta`, and xo, xe and u are rebuilt from the increments
    (`MainIntegerRecurrence`).  The bootstrap only encrypts.
    """

    state = ("beta",)

    def __init__(self, ring, plan: MainPlan):
        self.ring, self.kernels = ring, {}
        self.dims, self.inv_omega = plan.dims, plan.certificates["1/omega"].scaled_entries[0]
        self.m = _load(ring, plan.certificates, MAIN_CERTIFICATES, "LRS")
        self.m.Om_r = ring.plain(identity_rows(self.dims["n_r"], self.inv_omega))

    def bootstrap(self, x_e0_scaled):
        """Keeps step 1's beta, -x_e0/omega, and returns step 0's emission
        (0, x_e0, 0), every vector fresh on the ring."""
        d, fresh = self.dims, self.ring.fresh
        self.beta = fresh([-self.inv_omega * x for x in x_e0_scaled])
        return fresh([0] * d["n"]), fresh(x_e0_scaled), fresh([0] * d["w"])

    def step(self, innovation, ref_increment):
        """Advance one step on last step's quantized innovation and reference
        increment; returns the emission (alpha, beta, gamma)."""
        mv, m = self.ring.matvec, self.m
        r = mv(m.Om_r, ref_increment)
        beta, self.beta = self.beta, mv(m.R, r)
        return mv(m.L, innovation), beta, mv(m.S, r)

    def lengths(self) -> tuple:
        """The lengths of the state, which the bootstrap encrypts, of the
        vectors each step encrypts fresh, and of those a step emits."""
        d = self.dims
        return (d["n_x"],), (d["v"], d["n_r"]), (d["n"], d["n_x"], d["w"])


def _factor(M: RationalMatrix, C: RationalMatrix):
    """The integer matrix X with X C = M, or None unless the rows of C are
    independent and X exists and is integral.  It is then unique:
    X = M C^T (C C^T)^-1."""
    Ct = RationalMatrix(C.cols, C.rows, [C[i, j] for j in range(C.cols) for i in range(C.rows)])
    try:
        X = M @ Ct @ (C @ Ct).inverse()
    except SingularMatrixError:  # the rows of C are dependent
        return None
    return X if X.denominator_lcm() == 1 and X @ C == M else None


@functools.lru_cache(maxsize=kernel.KERNELS_KEPT)
def _through_output(*certs) -> tuple:
    """The integer rows C, G and J of `MainIntegerRecurrence.rebuild`, from
    the certificates of C/s1, GC/omega and JC/s2 (kept by them): C/s1 and
    the G', J' with G' (C/s1) = GC/omega and J' (C/s1) = JC/s2 (G s1/omega
    and J s1/s2) where both are integral, so that G and J read the observer
    output y_o = C xo; else the identity and GC/omega and JC/s2, so that
    y_o = xo."""
    C, GC, JC = (cert.as_matrix() for cert in certs)
    G, J = _factor(GC, C), _factor(JC, C)
    if G is None or J is None:
        C, G, J = RationalMatrix.identity(C.cols), GC, JC
    return tuple(IntRing.plain([[int(x) for x in M.row(i)] for i in range(M.rows)])
                 for M in (C, G, J))


class MainIntegerRecurrence:
    """The observer and controller dynamics of `MainRecurrence`, rebuilt from
    its increments on `IntRing` from zero states (as before step 0), with
    `rebuild` compiled: the actuator's, a main run's only one.  G and J act
    on the observer output y_o = C xo (`_through_output`; y_o = xo where
    the plan's rows do not factor), which the recurrence keeps: G reads last
    step's, J this step's.  On the batch reactor a `rebuild` makes 52
    products by a constant, against 62 with GC/omega and JC/s2 on xo.  The
    plant reads its state from xo and u (`PlantSim`)."""

    state = ("xo", "xe", "bx", "bu", "u", "yo")

    def __init__(self, plan: MainPlan):
        self.ring, self.kernels = IntRing(), {}
        d, certs = plan.dims, plan.certificates
        inv_omega = certs["1/omega"].scaled_entries[0]
        self.m = m = _load(self.ring, certs, MAIN_CERTIFICATES, "ABFH")
        m.C, m.G, m.J = _through_output(*(certs[k] for k in ("C/s1", "GC/omega", "JC/s2")))
        m.Om_x, m.Om_u = (self.ring.plain(identity_rows(d[k], inv_omega)) for k in ("n_x", "w"))
        self.xo, self.xe, self.bx, self.bu, self.u = (
            [0] * d[k] for k in ("n", "n_x", "n_x", "w", "w"))
        self.yo = [0] * len(m.C)

    def rebuild(self, alpha, beta, gamma):
        """The states of the next step from its increments and the carried
        brackets; returns u."""
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        self.bx = add(beta, mv(m.Om_x, self.bx))
        self.bu = add(gamma, mv(m.Om_u, self.bu))
        self.xo = add(alpha, mv(m.A, self.xo), mv(m.B, self.u))
        self.xe = add(self.bx, mv(m.F, self.xe), mv(m.G, self.yo))
        self.yo = mv(m.C, self.xo)
        self.u = add(self.bu, mv(m.H, self.xe), mv(m.J, self.yo))
        return self.u

    rebuild = kernel.compiled(rebuild)


class PrelimRecurrence:
    """The directly converted controller, u = H x + J y + S r and
    x <- F x + G y + R r, with the certified integer matrices F/omega,
    G/(s1 omega), R/(s1 omega), H/s2, J/(s1 s2), S/(s1 s2).  Its bootstrap
    only encrypts x."""

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
    the event of the plan's `NoiseTable` a step from them is (`events`): 0
    for the first step from the bootstrap's fresh state.  A step from
    states it did not make, on arguments that are not fresh encryptions, or
    after such a step, has no event and emits no bound."""

    made, events = (), None

    def bootstrap(self, *initial):
        """The recurrence's bootstrap, which makes the state fresh."""
        emitted = super().bootstrap(*initial)
        self.made, self.events = [getattr(self, k) for k in self.state], 0
        return emitted


# -- the plant ------------------------------------------------------------------


def _over_common_den(values):
    """Exact rationals as (integer numerators, their common denominator)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class PlantSim:
    """Exact process state in the zoomed coordinates x/l(t) = X/D, with
    integer X and D, and l(t) = l0 omega^t.

    The sensor divides its measurement by l(t); any fixed-precision noise on
    y_p is amplified by 1/l(t) and overwhelms the quantizer cell within a few
    steps, so the simulated plant must carry exact values.  The delivered
    input is u_a = scale l(t) U for an integer vector U, so the zoomed state
    obeys x/l <- (A/omega) x/l + (scale B/omega) U.  Those two matrices are
    held as integer rows over common denominators a and b; a step sets
    D <- lcm(a D, b) and scales both products onto it, so D grows by a
    factor a per step on the prelim route (scale = s1 s2).  The integer rows
    are the plant's kernels, compiled as the integer shadows' are
    (`kernel.compiled`): (X, U) -> (A X, B U) for `step`, and X -> C X for
    `output`.

    On the main route (scale = s2) X grows by log2(1/omega) bits a step, as
    the actuator's reconstruction (`observer`, a `MainIntegerRecurrence`)
    does, so the plant keeps only its bounded gap from it, in the observer
    error coordinates X - D xo.  There the plan certifies A/omega and
    s2 B/omega integral (a = b = 1, and D never changes) and they are the
    reconstruction's A and B (`run_closed_loop_main` checks it).  Both are
    driven by the same U, xo by xo <- A xo + B U + alpha, so the gap
    e = X - D xo follows e <- A e - D alpha exactly, for whatever alpha the
    actuator lifted.  The plant keeps E = A e, the gap before the next lift:
    X = E + D (A xo + B U) for the xo and U of the last step.  `gap` takes
    this step's alpha and returns the sensor's C e (the kernel `observe`),
    and `step` moves E on.  X is formed only where the state is read (`x`,
    `state_floats`, exact after a `step`).
    """

    state = ()  # the kernels keep no state: X, E and D are the step's own

    def __init__(self, plant: PlantModel, x_p0, l0, omega, scale, observer=None):
        self.l0, self.omega = as_fraction(l0), as_fraction(omega)
        A, self.a = integer_rows(plant.A.scale(1 / self.omega))
        B, self.b = integer_rows(plant.B.scale(as_fraction(scale) / self.omega))
        C, self.c = integer_rows(plant.C)
        self.m, self.kernels = SimpleNamespace(A=IntRing.plain(A), B=IntRing.plain(B),
                                               C=IntRing.plain(C)), {}
        self.X, self.D = _over_common_den([as_fraction(x) / self.l0 for x in x_p0])
        self.t, self.observer = 0, observer
        if observer is not None:
            self.m.neg_D = IntRing.plain(identity_rows(len(self.X), -self.D))
            self.E, self.X = self.X, None

    def products(self, X, U):
        """A X and B U, over the integer rows."""
        return self.ring.matvec(self.m.A, X), self.ring.matvec(self.m.B, U)

    def measure(self, X):
        """C X, over the integer rows."""
        return self.ring.matvec(self.m.C, X)

    def observe(self, E, alpha):
        """C e and A e for the gap e = E - D alpha, over the integer rows."""
        e = self.ring.add(E, self.ring.matvec(self.m.neg_D, alpha))
        return self.ring.matvec(self.m.C, e), self.ring.matvec(self.m.A, e)

    products, measure, observe = map(kernel.compiled, (products, measure, observe))

    def output(self):
        """y/l(t) as (integer numerators, their common denominator)."""
        return self.measure(self.X), self.c * self.D

    def gap(self, alpha):
        """Main route: y/l(t) - C xo, the measurement less the output of the
        reconstruction rebuilt on this step's lifted `alpha`, as (integer
        numerators C e, their common denominator)."""
        Ce, self.AE = self.observe(self.E, alpha)
        return Ce, self.c * self.D

    def step(self, U):
        """Advance on the delivered input u_a = scale l(t) U, U integers: on
        the main route, the reconstruction's u, which the state reads."""
        if self.observer is not None:
            self.E = self.AE
        else:
            AX, BU = self.products(self.X, U)
            aD = self.a * self.D
            D = math.lcm(aD, self.b)
            fa, fb = D // aD, D // self.b
            self.X = [fa * x + fb * u for x, u in zip(AX, BU)]
            self.D = D
        self.t += 1

    def _zoomed(self) -> list:
        """X, on the main route from the gap and the reconstruction."""
        if self.observer is None:
            return self.X
        xo, u, D = self.observer.xo, self.observer.u, self.D
        return [e + D * (sum(map(operator.mul, a, xo)) + sum(map(operator.mul, b, u)))
                for e, a, b in zip(self.E, self.m.A, self.m.B)]

    def _state_ratio(self):
        """The exact state as (numerator factor, common denominator)."""
        l = self.l0 * self.omega ** self.t
        return l.numerator, l.denominator * self.D

    @property
    def x(self) -> list:
        """The exact state l(t) X/D."""
        n, d = self._state_ratio()
        return [Fraction(n * x, d) for x in self._zoomed()]

    def state_floats(self) -> list:
        n, d = self._state_ratio()
        return [_ratio_float(n * x, d) for x in self._zoomed()]


# -- main scheme parties ------------------------------------------------------


class MainEncController(_EncryptedController, MainRecurrence):
    """Holds only the public key (in its `CipherRing`); runs the emission
    rule on ciphertexts, `step` compiled.  Its bootstrap only encrypts."""

    step = kernel.compiled(MainRecurrence.step, _Payloads)


class MainIntegerShadow(MainRecurrence):
    """The emission rule on exact integers, `step` compiled: ground truth
    for every ciphertext (mod q), and the exact increments that every lift
    of the actuator must equal."""

    step = kernel.compiled(MainRecurrence.step)

    def __init__(self, plan: MainPlan):
        super().__init__(IntRing(), plan)


class MainSensor:
    """Quantizes the innovation, the measured output less s1 times the
    observer output y_o = (C/s1) xo, and returns it encrypted.  The paper's
    controller sends the sensor y_o encrypted; here the sensor reads the
    innovation from the plant, which keeps its gap from the xo that the
    actuator rebuilds exactly from the increments (`PlantSim.gap`): a
    plaintext link inside the plant side, where both parties hold the
    secret key.  The controller is unchanged; it only sends the sensor
    nothing, so that no ciphertext whose noise grows with t is ever
    decrypted."""

    def __init__(self, ring: CipherRing, plan: MainPlan):
        self.ring = ring
        self.s1 = plan.s1
        self.spec = QuantizerSpec(plan.range_level)

    def step(self, innovation):
        """`innovation`, y/l(t) - s1 y_o, is (integer numerators G, their
        denominator E), as `PlantSim.gap` gives it."""
        G, E = innovation
        s1n, s1d = self.s1.numerator, self.s1.denominator
        # y/l(t)/s1 - y_o = gap_num/d, and the innovation is gap_num/(E s1d)
        d = E * s1n
        gap_num = [g * s1d for g in G]
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
    """Decrypts the increments, lifts them around zero in one call, and
    rebuilds the controller's states from them in one kernel
    (`MainIntegerRecurrence`; exact, and the delivered input is u_a =
    s2 l(t) u_tilde), which the plant reads its state from."""

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
        residues, ends = [], []
        for ct in (alpha_ct, beta_ct, gamma_ct):
            dec = he.decrypt(self.sk, ct)
            self.dec_ops += len(dec)
            residues += dec
            ends.append(len(residues))
        flat = centered_mod_recover(residues, 0, self.q)
        lifted = flat[:ends[0]], flat[ends[0]:ends[1]], flat[ends[1]:]
        return lifted, self.states.rebuild(*lifted)


# -- prelim scheme parties -----------------------------------------------------


class PrelimEncController(_EncryptedController, PrelimRecurrence):
    """The directly converted controller on ciphertexts (a `CipherRing`);
    `step` is compiled."""

    step = kernel.compiled(PrelimRecurrence.step, _Payloads)


class PrelimIntegerShadow(PrelimRecurrence):
    """The integer twin of `PrelimEncController`; `step` is compiled."""

    step = kernel.compiled(PrelimRecurrence.step)

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
    emits at each step from its bootstrap, by event: the first step is
    event 0, on both routes.

    Every `he` op is linear mod Q, so the noise of an emitted entry is the
    integer form sum c_k e_k over the noises e_k of the fresh encryptions
    the run has made, |e_k| <= `he.FRESH_NOISE_BOUND`, and its coefficients
    are what the recurrence computes over Z from its plaintext rows centered
    mod q.  Its bound, FRESH_NOISE_BOUND sum |c_k|, is exact: the worst case
    over independent fresh noises.  The coefficients of one fresh entry are
    an impulse response of the recurrence's `step` compiled over integers
    from those rows (`kernel.compile_method`: the integer shadow's own
    kernel wherever they are the certified rows), a column: one per entry
    of the `state`, which the bootstrap encrypts, and one per entry of a
    step's inputs, which every step encrypts anew, so the responses of such
    a column at every lag so far add up (`sums`).  A
    column's lag 0 is a step from its unit state on zero inputs (`boot`),
    or from the zero state on its unit input (`inputs`), and each lag after
    that is a step on `zeros`, the zero inputs.  From lag 1 on the response
    is C A^(lag-1) x, for the state x after lag 0 and the step's linear maps
    A (state to state) and C (state to emission); so once it has been zero
    for as many lags in a row as the state (a zero one) has entries, it is
    zero for ever (Cayley-Hamilton), and the column ends.  It ends as well
    once its state is zero, as a main column's is from lag 1 on.  A live
    column is the `self` that `step` reads and moves on: its state vectors,
    its emission at the next lag and its zero lags in a row, and `_advance`
    moves the columns a lag on.  The table extends itself on demand; once
    every column has ended, its last bounds hold for every later event
    (`final`).  A ciphertext takes the largest bound of its entries."""

    def __init__(self, step, state: tuple, rows: tuple, lengths):
        states, inputs, emitted = lengths
        self.step = kernel.compile_method(step, state, rows, [*states, *inputs])
        self.state, self.width = state, sum(states)
        self.zeros = [[0] * k for k in inputs]
        zero = [[0] * k for k in states]
        self.boot = [self._column(unit, self.zeros) for unit in _units(states)]
        self.inputs = [self._column(zero, unit) for unit in _units(inputs)]
        self.sums = [0] * sum(emitted)
        self.vectors = [slice(k - m, k) for m, k in zip(emitted, accumulate(emitted))]
        self.bounds = []  # by event, each emitted vector's
        self.final = False

    def at(self, event: int) -> tuple:
        """The noise bound of each vector emitted at `event`."""
        while event >= len(self.bounds) and not self.final:
            self._extend()
        return self.bounds[min(event, len(self.bounds) - 1)]

    def peak(self, events: int) -> int:
        """The largest noise bound over the first `events` events (0 for
        none)."""
        if events:
            self.at(events - 1)
        return max(map(max, self.bounds[:events]), default=0)

    def _column(self, state: list, inputs: list) -> SimpleNamespace:
        """A column at lag 0: a step from `state` on `inputs`."""
        c = SimpleNamespace(**dict(zip(self.state, state)), zero_lags=0)
        c.emitted = self._step(c, inputs)
        return c

    def _step(self, c, inputs: list) -> tuple:
        """What a step of column c on `inputs` emits; c's state moves on."""
        out = self.step(c, *inputs)
        return out if isinstance(out, tuple) else (out,)

    def _extend(self):
        # with no column left, this event's bounds, those of the sums, repeat
        self.final = not (self.boot or self.inputs)
        self.sums, self.inputs = self._advance(self.sums, self.inputs)
        entries, self.boot = self._advance(self.sums, self.boot)
        self.bounds.append(tuple(he.FRESH_NOISE_BOUND * max(entries[v], default=0)
                                 for v in self.vectors))

    def _advance(self, sums: list, columns: list) -> tuple:
        """`sums` plus the absolute emitted entries of each column, and the
        columns that go on, each moved a lag on."""
        live = []
        for c in columns:
            if not c.zero_lags:  # at lag 0, or a nonzero emission
                sums = [a + abs(x) for a, x in zip(sums, chain.from_iterable(c.emitted))]
            if c.zero_lags < self.width and any(any(getattr(c, k)) for k in self.state):
                c.emitted = self._step(c, self.zeros)
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
    recurrence on any `CipherRing` of the plan: kept (`kernel.kept`) by the
    state, the plaintext rows centered mod q and the lengths, which are all
    it depends on (the names of the rows tell the recurrences apart).  It
    runs the recurrence's own `step`, whatever the controller's class has
    made of it."""
    state, rows, lengths = controller.state, kernel.rows_of(controller.m), controller.lengths()
    recurrence = MainRecurrence if isinstance(controller, MainRecurrence) else PrelimRecurrence
    return kernel.kept((NoiseTable, state, rows, lengths), NoiseTable,
                       recurrence.step, state, rows, lengths)


# -- orchestrator ---------------------------------------------------------------


class RunConfig(Record):
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
    (main or prelim) decrypts: on the main route the bootstrap's fresh
    emission, `he.FRESH_NOISE_BOUND`, and then the plan's `NoiseTable` over
    horizon - 1 steps; on the prelim route the table over horizon steps.
    The table is kept, and the encrypted runs of the plan take their bounds
    from it."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    main = isinstance(plan, MainPlan)
    # the plaintexts as the run's controller prepares them; no key is needed
    rec = (MainRecurrence if main else PrelimRecurrence)(CipherRing(None, plan.q, None), plan)
    return max(he.FRESH_NOISE_BOUND * main, noise_table(rec).peak(horizon - main))


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
           actuator, plant: PlantSim) -> ClosedLoopTrace:
    """The closed loop of both routes.  The route supplies `step(t, zoom)`,
    which runs its parties for step t on what they read of the `plant` and
    returns a `_Step`; `ring` counts the run's encryptions, and the
    `actuator`, the one party that decrypts, its decryptions.  The driver
    advances the plant on the delivered input u_a = scale l(t) U and the
    reference loop, keeps the l(t) schedule, makes the oracle and recovery
    checks, and records the step.  A step fails recovery from the first
    lift on that differed from the shadow's: U is rebuilt from every lift
    so far (main), or each lift is centred on the last (prelim).

    The schedule is `zoom`, scale l(t) as integers (n, d) kept unreduced: a
    step multiplies them by omega's numerator and denominator, with no gcd.
    A float of n U/d is correctly rounded whatever the pair, and Fractions
    are built only for the detail rows."""
    ideal = IdealLoop(cfg.plant, cfg.ctrl, cfg.x_p0, cfg.reference)
    n, d = as_ratio(scale * plan.l0)  # the zoom at t = 0
    on, od = as_ratio(plan.omega)
    failed = False
    for t in range(cfg.horizon):
        s = step(t, (n, d))
        if s.lifted != s.shadow:
            failed = True
            # the oracle: a lift keeps the residues the actuator decrypted, so
            # they must be the shadow's mod q (equal lifts have equal residues)
            residues = [[[x % plan.q for x in v] for v in vs] for vs in (s.lifted, s.shadow)]
            trace.oracle_mismatches += residues[0] != residues[1]
        u_true = ideal.step()
        u_a = tuple(_ratio_float(n * x, d) for x in s.U)
        plant.step(s.U)
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
    trace.final_plant_state = tuple(plant.state_floats())
    trace.final_ideal_plant_state = ideal.x_p
    return trace


def _step_msgs(controller) -> dict:
    """A route's messages per step, from what its controller takes and emits
    (`lengths()`): its two inputs, from the sensor and the provider, and all
    it emits, to the actuator."""
    _, (sensor, provider), emitted = controller.lengths()
    return {"sensor_to_ctrl": sensor, "provider_to_ctrl": provider,
            "ctrl_to_act": sum(emitted)}


def run_closed_loop_main(plan: MainPlan, cfg: RunConfig) -> ClosedLoopTrace:
    """Raises `ValueError` before step 0 unless the plant of `cfg` is the
    plan's, as the plant's error coordinates (`PlantSim`) need: its A/omega,
    s2 B/omega and C/s1 are the plan's integer rows."""
    pk, sk = he.keygen(cfg.params, seed=cfg.seed)
    ring = CipherRing(pk, plan.q, random.Random(cfg.seed))
    controller = MainEncController(ring, plan)
    shadow = MainIntegerShadow(plan)
    sensor = MainSensor(ring, plan)
    provider = RefProvider(ring, plan, cfg.reference)
    actuator = MainActuator(sk, plan)
    plant = PlantSim(cfg.plant, cfg.x_p0, plan.l0, plan.omega, plan.s2, actuator.states)
    rebuilt = actuator.states.m
    if ((plant.a, plant.b, plant.m.A, plant.m.B) != (1, 1, rebuilt.A, rebuilt.B)
            or not plan.certificates["C/s1"].verify(cfg.plant.C)):
        raise ValueError("the run's plant is not the plan's: its A/omega, s2B/omega "
                         "or C/s1 differs from the plan's integer rows")
    x_e0_scaled = _scaled_integer_state(cfg.ctrl.x0.data, plan.l0)
    sent = None  # last step's innovation and reference increment: (cts, ints)

    def step(t, zoom):
        nonlocal sent
        if t == 0:
            incs_ct = controller.bootstrap(x_e0_scaled)
            emitted = shadow.bootstrap(x_e0_scaled)
        else:
            incs_ct = controller.step(*sent[0])
            emitted = shadow.step(*sent[1])
        lifted, ut_a = actuator.step(*incs_ct)
        q_inno, inno_ct, sat_s, log2_gap = sensor.step(plant.gap(lifted[0]))
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
    return _drive(trace, plan, cfg, plan.s2, step, ring, actuator, plant)


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
    plant = PlantSim(cfg.plant, cfg.x_p0, plan.l0, plan.omega, scale)

    def step(t, zoom):
        nonlocal prev_ut
        n, d = zoom
        y_bar = plant.output()
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
    return _drive(trace, plan, cfg, scale, step, ring, actuator, plant)
