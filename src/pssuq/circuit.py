"""MNA circuit model with symbolic random parameters.

A :class:`Circuit` is the parsed, immutable description of a netlist:
nodes, elements, and the declared parameter distributions. Binding the
random parameters to numbers (:func:`Circuit.realize`) yields a
:class:`CircuitInstance`, which evaluates the charge/flux vector ``q(x)``,
the resistive current vector ``f(x)``, the source injection ``B*u(t)`` and
their exact Jacobians for the circuit equation

    d q(x(t)) / dt + f(x(t)) = B u(t)

with the modified-nodal-analysis state ``x`` = node voltages (in first-use
order), then inductor currents, then voltage-source branch currents.

Evaluation is vectorized: ``theta`` may be a single parameter vector or a
``(B, d)`` batch, in which case states are ``(B, n)`` and all outputs gain
a leading batch axis. The linear elements (resistors, capacitors,
inductors, source incidence, diode and MOSFET capacitances) are stamped
once per instance into constant charge and conductance matrices C and G,
so a call computes q = C x and f = G x plus the nonlinear currents; only
diodes, MOSFETs, BJTs and van der Pol conductors run per-call device
code. Every batch is stamped state-major: C, G and the device Jacobians
are (n, n, B) buffers, the layout that the shared-order elimination of
``transient.batched_solve`` reads, and the Jacobians are (B, n, n) views
of them. All device equations are smooth except the junction
exponential, which continues as its tangent line above a fixed cutoff so
Newton residuals stay finite. ``dc_operating_point`` solves f(x) = B u(0)
per sample by ``transient.damped_newton``, with gmin and source stepping.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .transient import Trajectory, _rows, batched_solve, damped_newton, norm_inf

BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19
DEFAULT_TEMPERATURE = 300.0

# Junction exponent above which the I-V curve continues as its tangent.
EXP_CUTOFF = math.log(1e10)

GROUND = "0"


class CircuitError(ValueError):
    """Structural or evaluation error in a circuit model."""


def thermal_voltage(temp=DEFAULT_TEMPERATURE):
    """kT/q in volts."""
    return BOLTZMANN * temp / ELEMENTARY_CHARGE


# ---------------------------------------------------------------------------
# parameter distributions


@dataclass(frozen=True)
class DistributionSpec:
    """Distribution of one random circuit parameter.

    ``kind`` is one of ``gaussian`` (params mean, std), ``uniform``
    (params lo, hi) or ``constant`` (params value, ignored). The physical
    value is the affine image of a standardized coordinate: standard
    normal for gaussian, uniform on [-1, 1] for uniform.
    """

    kind: str
    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if not self.b > 0:
                raise CircuitError(f"gaussian std must be > 0, got {self.b}")
        elif self.kind == "uniform":
            if not self.a < self.b:
                raise CircuitError(f"uniform needs lo < hi, got ({self.a}, {self.b})")
        elif self.kind != "constant":
            raise CircuitError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def gaussian(cls, mean, std):
        return cls("gaussian", float(mean), float(std))

    @classmethod
    def uniform(cls, lo, hi):
        return cls("uniform", float(lo), float(hi))

    @classmethod
    def constant(cls, value):
        return cls("constant", float(value))

    @property
    def is_random(self):
        return self.kind != "constant"

    def to_physical(self, xi):
        """Map standardized coordinate(s) to the physical parameter value."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == "gaussian":
            return self.a + self.b * xi
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * xi
        return np.full_like(xi, self.a)

    def nominal(self):
        """Value at xi = 0 (mean / midpoint / constant)."""
        return float(self.to_physical(0.0))


@dataclass(frozen=True)
class Value:
    """Element parameter: a literal or a reference to a declared parameter."""

    literal: float = 0.0
    param: str | None = None

    @classmethod
    def lit(cls, x):
        return cls(literal=float(x))

    @classmethod
    def ref(cls, name):
        return cls(param=name)

    def __repr__(self):
        return f"{{{self.param}}}" if self.param else repr(self.literal)


@dataclass(frozen=True)
class SourceSpec:
    """Waveform of an independent source: DC level or a sine."""

    kind: str  # "dc" | "sin"
    dc: Value = Value.lit(0.0)
    offset: Value = Value.lit(0.0)
    amplitude: Value = Value.lit(0.0)
    freq: float = 0.0
    phase_deg: Value = Value.lit(0.0)

    @property
    def is_time_varying(self):
        return self.kind == "sin"


@dataclass(frozen=True)
class Element:
    """One netlist element: kind letter, terminals, named parameters."""

    kind: str
    name: str
    nodes: tuple
    params: dict = field(default_factory=dict)
    flags: frozenset = frozenset()
    source: SourceSpec | None = None


# ---------------------------------------------------------------------------
# circuit container


class Circuit:
    """Immutable parsed circuit.

    Parameters are declared as (name, DistributionSpec); the random ones
    (gaussian/uniform) define the standardized coordinate vector, in
    declaration order. State ordering: node voltages in first-use order,
    then inductor currents, then voltage-source currents.
    """

    def __init__(self, node_names, elements, params):
        self.node_names = list(node_names)
        self.elements = list(elements)
        self.params = dict(params)
        self.random_params = [(k, v) for k, v in self.params.items() if v.is_random]
        self._node_index = {name: i for i, name in enumerate(self.node_names)}
        if GROUND in self._node_index:
            raise CircuitError("ground node must not be listed among circuit nodes")

        self.inductors = [e for e in self.elements if e.kind == "L"]
        self.vsources = [e for e in self.elements if e.kind == "V"]
        nn = len(self.node_names)
        self.n_states = nn + len(self.inductors) + len(self.vsources)
        self.state_names = (
            [f"v({m})" for m in self.node_names]
            + [f"i({e.name})" for e in self.inductors]
            + [f"i({e.name})" for e in self.vsources]
        )
        self._branch_index = {}
        for j, e in enumerate(self.inductors):
            self._branch_index[e.name] = nn + j
        for j, e in enumerate(self.vsources):
            self._branch_index[e.name] = nn + len(self.inductors) + j
        self._validate()
        self._plan = None

    # -- structure ---------------------------------------------------------

    @property
    def n(self):
        return self.n_states

    @property
    def dim(self):
        """Number of random parameters."""
        return len(self.random_params)

    def node_state(self, name):
        """State index of a node voltage."""
        return self._node_index[name]

    def branch_state(self, element_name):
        """State index of an inductor or voltage-source current."""
        return self._branch_index[element_name]

    def state_index(self, label):
        """Resolve 'name' or 'v(name)' / 'i(name)' to a state index."""
        if label.startswith("v(") and label.endswith(")"):
            return self.node_state(label[2:-1])
        if label.startswith("i(") and label.endswith(")"):
            return self.branch_state(label[2:-1])
        if label in self._node_index:
            return self.node_state(label)
        if label in self._branch_index:
            return self.branch_state(label)
        raise CircuitError(f"unknown state label {label!r}")

    def _validate(self):
        seen = set()
        for e in self.elements:
            if e.name in seen:
                raise CircuitError(f"duplicate element name {e.name}")
            seen.add(e.name)
            for m in e.nodes:
                if m != GROUND and m not in self._node_index:
                    raise CircuitError(f"element {e.name}: unknown node {m!r}")
            for key, v in e.params.items():
                if v.param is not None and v.param not in self.params:
                    raise CircuitError(
                        f"element {e.name}: undeclared parameter {{{v.param}}}"
                    )
            if e.source is not None:
                for v in (e.source.dc, e.source.offset, e.source.amplitude, e.source.phase_deg):
                    if v.param is not None and v.param not in self.params:
                        raise CircuitError(
                            f"element {e.name}: undeclared parameter {{{v.param}}}"
                        )

    # -- realization -------------------------------------------------------

    def realize(self, xi):
        """Bind random parameters to the standardized coordinates ``xi``.

        ``xi`` has shape (d,) for a single instance or (B, d) for a batch.
        Gaussian parameters map as mean + std*xi, uniform ones as
        midpoint + halfwidth*xi; xi = 0 gives the nominal circuit.
        """
        arr = np.asarray(xi, dtype=float)
        scalar = arr.ndim <= 1
        xi = np.atleast_2d(arr)
        d = self.dim
        if xi.shape[1] != d and not (d == 0 and xi.size == 0):
            raise CircuitError(f"expected {d} coordinates, got shape {xi.shape}")
        if d == 0:
            xi = np.zeros((xi.shape[0] if xi.ndim == 2 else 1, 0))
        theta = np.empty_like(xi)
        for j, (_, spec) in enumerate(self.random_params):
            theta[:, j] = spec.to_physical(xi[:, j])
        return CircuitInstance(self, theta, scalar=scalar)

    def realize_nominal(self):
        return self.realize(np.zeros(self.dim))

    def fundamental_period(self):
        """Period of the periodic input, from the SIN sources.

        Returns the longest sine period; every other sine frequency must be
        an integer multiple of the fundamental. Raises if there is no
        time-varying source.
        """
        freqs = [
            e.source.freq
            for e in self.elements
            if e.source is not None and e.source.is_time_varying
        ]
        if not freqs:
            raise CircuitError("circuit has no time-varying source; period unknown")
        T = 1.0 / min(freqs)
        for f in freqs:
            k = round(T * f)
            if abs(k - T * f) > 1e-9 * max(1.0, T * f):
                raise CircuitError("source frequencies are not commensurate")
        return T

    @property
    def is_autonomous(self):
        return not any(
            e.source is not None and e.source.is_time_varying for e in self.elements
        )

    def plan(self):
        if self._plan is None:
            self._plan = _EvalPlan(self)
        return self._plan


# ---------------------------------------------------------------------------
# evaluation results


@dataclass
class DaeEval:
    """Residual pieces of d q(x)/dt + f(x) = B u(t) at one (x, t)."""

    q: np.ndarray
    f: np.ndarray
    bu: np.ndarray
    dq_dx: np.ndarray
    df_dx: np.ndarray


class CircuitInstance:
    """A circuit with its random parameters bound to physical values.

    Binding resolves every element value once. The linear elements are
    stamped into constant charge and conductance matrices C and G, and the
    sources into constant levels plus sine terms. A call computes q = C x,
    f = G x + f_nl, B u(t) from one sine of the resolved amplitudes and
    phases, dq/dx = C and df/dx = G + J_nl; only the nonlinear devices'
    fills run. A sine whose amplitude and phase are literals is evaluated
    once per call and broadcast over the batch. ``theta`` is (d,) for a
    scalar instance or (B, d) for a batch; batched instances evaluate
    states of shape (B, n).

    C, G and the device Jacobians are stamped state-major: dq/dx and df/dx
    are (B, n, n) views of (n, n, B) arrays, so the step matrices built
    from them, and the solver's copy of those, run over contiguous B-wide
    rows. q and f are one BLAS product of a batch-major copy of [C; G].

    Evaluation is pure: repeated calls with the same arguments return the
    same values, and distinct instances may be evaluated concurrently. C,
    G without devices and a constant B u are the instance's own arrays,
    read-only; q, f, a device df/dx and a time-varying B u are new arrays.
    When one parameter set evaluates a batch of states, C, G without
    devices and B u are broadcast from their one row, read-only.
    """

    def __init__(self, circuit, theta, scalar=True):
        self.circuit = circuit
        self.theta = np.atleast_2d(np.asarray(theta, dtype=float))
        self.scalar = scalar and self.theta.shape[0] == 1
        plan = self._plan = circuit.plan()
        B, n = self.theta.shape[0], circuit.n_states

        def resolve(values):
            """Element parameters (literal or bound) -> (E, B)."""
            out = np.empty((len(values), B))
            for k, v in enumerate(values):
                out[k] = self.theta[:, plan.ppos[v.param]] if v.param is not None else v.literal
            return out

        lin = {space: np.zeros((space.count, B)) for space in (plan.cq, plan.cg)}
        for space, slots, values, transform in plan.linear:
            v = resolve(values)
            # a shorted resistor stamps an infinite conductance; a step that
            # fails on it names it through find_nonfinite_element
            with np.errstate(divide="ignore"):
                lin[space][slots] = v if transform is None else transform(v)
        self._vq, self._vg = lin[plan.cq], lin[plan.cg]
        self._C, self._G = (space.scatter(lin[space]).reshape(n, n, B).transpose(2, 0, 1)
                            for space in (plan.cq, plan.cg))
        # [C; G] stacked, so one product gives q and the linear part of f; copied
        # C-contiguous, since concatenate keeps the state-major order and numpy
        # hands only a batch-major product to BLAS (its own loop rounds otherwise)
        self._CG = np.ascontiguousarray(np.concatenate([self._C, self._G], axis=1))
        self._levels = resolve(plan.levels)
        self._bu0 = plan.sdc.scatter(self._levels).T
        for shared in (self._C, self._G, self._bu0):
            shared.flags.writeable = False
        self._amp = resolve(plan.amps)
        self._phase = resolve(plan.phases) * math.pi / 180.0
        if not any(v.param for v in plan.amps + plan.phases):  # the same sines for every row
            self._amp, self._phase = self._amp[:, :1], self._phase[:, :1]
        self._omega = 2.0 * math.pi * np.array(plan.freqs, dtype=float)[:, None]
        self._fills = [bind(resolve) for bind in plan.devices]

    @property
    def n(self):
        return self.circuit.n_states

    @property
    def batch_size(self):
        return self.theta.shape[0]

    def _states(self, x):
        """States as (B, n); a batch of states against one parameter set is fine."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.n:
            raise CircuitError(f"state length {x.shape[-1]} != {self.n}")
        if x.shape[0] == 1 and self.batch_size > 1:
            x = np.broadcast_to(x, (self.batch_size, self.n))
        return x

    def _sines(self, t):
        return self._amp * np.sin(self._omega * t + self._phase)

    def _nonlinear(self, x):
        """Padded states and the fills' slot values at states x (B, n)."""
        x_pad = np.zeros((self._plan.n1, x.shape[0]))
        x_pad[1:] = x.T
        v = np.zeros((self._plan.nl.count, x.shape[0]))
        for fill in self._fills:
            fill(x_pad, v)
        return x_pad, v

    def _stamp(self, x):
        """The devices' currents (None without devices), dq/dx = C and
        df/dx = G + J_nl at states x (B, n); C, and G without devices, shared."""
        B, n = x.shape
        dq = _per_state(self._C, B)
        if not self._fills:
            return None, dq, _per_state(self._G, B)
        nl = self._plan.nl.scatter(self._nonlinear(x)[1])
        return nl[:n].T, dq, self._G + nl[n:].reshape(n, n, B).transpose(2, 0, 1)

    def eval_dae(self, x, t):
        """Evaluate q, f, B*u and the exact Jacobians dq/dx, df/dx."""
        squeeze = self.scalar and np.ndim(x) == 1
        x = self._states(x)
        n = self.n
        qf = (self._CG @ x[..., None])[..., 0]
        f_nl, dq, df = self._stamp(x)
        f = qf[:, n:] if f_nl is None else qf[:, n:] + f_nl
        out = qf[:, :n], f, _per_state(self.source(t), len(x)), dq, df
        return DaeEval(*(a[0] for a in out)) if squeeze else DaeEval(*out)

    def jacobians(self, x):
        """``eval_dae``'s dq/dx and df/dx alone."""
        squeeze = self.scalar and np.ndim(x) == 1
        dq, df = self._stamp(self._states(x))[1:]
        return (dq[0], df[0]) if squeeze else (dq, df)

    def source(self, t):
        """B u(t), one row per parameter set (the instance's own array, read-only, if constant)."""
        ssin = self._plan.ssin
        return self._bu0 + ssin.scatter(self._sines(float(t))).T if ssin.count else self._bu0

    def take(self, rows):
        """The instance of batch rows ``rows`` (itself for ``...`` or one parameter set)."""
        whole = rows is Ellipsis or self.batch_size == 1
        return self if whole else CircuitInstance(self.circuit, self.theta[rows], scalar=False)

    def find_nonfinite_element(self, x, t):
        """Name of an element producing a non-finite contribution, or None."""
        plan = self._plan
        x_pad, v = self._nonlinear(self._states(x))
        checks = (
            (plan.cq, self._vq, x_pad),
            (plan.cg, self._vg, x_pad),
            (plan.nl, v, None),
            (plan.sdc, self._levels, None),
            (plan.ssin, self._sines(float(t)), None),
        )
        for space, vals, states in checks:
            name = space.first_nonfinite(vals, states)
            if name is not None:
                return name
        return None


def _per_state(a, B):
    """``a``, one row per parameter set, for B states: itself, or broadcast from one row."""
    return a if len(a) == B else np.broadcast_to(a, (B,) + a.shape[1:])


# ---------------------------------------------------------------------------
# device math


def _limited_exp(z):
    """exp(z) continued as its tangent line above EXP_CUTOFF.

    Returns (value, derivative); both are exp(z) below the cutoff and
    exp(zc)*(1 + z - zc), exp(zc) above it, so the curve is C1.
    """
    zc = EXP_CUTOFF
    e = np.exp(np.minimum(z, zc))
    return e * (1.0 + np.maximum(z - zc, 0.0)), e


def _mos_core(vgs, vds, kp, vt0, lam):
    """Square-law drain current for vds >= 0, with partials (i, gm, go)."""
    vov = vgs - vt0
    on = vov > 0.0
    sat = vds >= vov
    cl = 1.0 + lam * vds
    vds_t = np.minimum(vds, np.maximum(vov, 0.0))  # clamp poly at the sat corner
    base_tri = kp * (vov * vds_t - 0.5 * vds_t * vds_t)
    base_sat = 0.5 * kp * vov * vov
    base = np.where(sat, base_sat, base_tri)
    gm = np.where(sat, kp * vov, kp * vds) * cl
    go_tri = kp * (vov - vds) * cl + base_tri * lam
    go_sat = base_sat * lam
    go = np.where(sat, go_sat, go_tri)
    i = base * cl
    zero = np.zeros_like(i)
    return (
        np.where(on, i, zero),
        np.where(on, gm, zero),
        np.where(on, go, zero),
    )


# ---------------------------------------------------------------------------
# compiled evaluation plan


class _SlotSpace:
    """Value slots of one stamp target and the flat indices they add into.

    A slot carries one value per batch member (an element's conductance,
    capacitance, current or source level). Each of its entries adds the
    value, times a sign, at one row or one (row, column) position of the
    n-state equations. The target is laid out as the n rows (if ``rows``)
    followed by the row-major n x n matrix (if ``matrix``). Entries take
    padded indices, 0 being ground; entries on the ground row or column are
    dropped, since that equation is not part of the system.
    """

    def __init__(self, n, rows, matrix, per_eval=False):
        self._n, self._per_eval = n, per_eval  # per_eval: keep the last batch size's index
        self._offset = n if rows else 0
        self.size = self._offset + (n * n if matrix else 0)
        self.names = []
        self._entries = []  # (slot, flat index, padded column or 0, sign)

    @property
    def count(self):
        return len(self.names)

    def add(self, name, entries):
        """One slot feeding padded (row, sign) or (row, col, sign) entries."""
        sid = len(self.names)
        self.names.append(name)
        for *pos, sign in entries:
            if 0 in pos:
                continue
            row, col = int(pos[0]) - 1, int(pos[1]) if len(pos) == 2 else 0
            flat = self._offset + row * self._n + col - 1 if col else row
            self._entries.append((sid, flat, col, float(sign)))
        return sid

    def finish(self):
        """Freeze the entries into index arrays once every slot is added."""
        sid, flat, col, sign = zip(*self._entries) if self._entries else ((),) * 4
        self.slot = np.array(sid, dtype=int)
        self.flat = np.array(flat, dtype=int)
        self.col = np.array(col, dtype=int)
        self.sign = np.array(sign, dtype=float)[:, None]
        self._index = self.flat  # scatter's target indices, here for batch size 1

    def scatter(self, vals):
        """Sum the slot values (S, B) into their positions, state-major: (size, B)."""
        B = vals.shape[1]
        w = vals[self.slot] * self.sign
        if (index := self._index).size != self.flat.size * B:
            index = (self.flat[:, None] * B + np.arange(B)).ravel()
            self._index = index if self._per_eval else self._index
        return np.bincount(index, w.ravel(), B * self.size).reshape(self.size, B)

    def first_nonfinite(self, vals, x_pad=None):
        """Name of the first slot with a non-finite contribution, or None.

        With ``x_pad`` (matrix-only targets) the contribution is the value
        times the state of its column, i.e. the slot's share of ``M @ x``.
        """
        w = vals[self.slot]
        if x_pad is not None:
            w = w * x_pad[self.col]
        bad = ~np.isfinite(w).all(axis=1)
        return self.names[self.slot[bad].min()] if bad.any() else None


class _EvalPlan:
    """Element stamps compiled from a Circuit, bound per instance.

    Linear elements (resistors, capacitors, inductors, the diode and MOSFET
    capacitances, voltage-source incidence) are slots of the constant
    charge and conductance matrices C and G; independent sources are slots
    of the source vector. Every value is resolved against a parameter
    batch once, when a :class:`CircuitInstance` is created.
    Nonlinear devices compile to binders that return a fill closure; only
    fills run per evaluation.
    Node voltages read by the fills live in a padded array with index
    0 = ground, so every terminal reads unconditionally.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        n = circuit.n_states
        self.n1 = n + 1
        self.ppos = {name: j for j, (name, _) in enumerate(circuit.random_params)}
        self._cvals = {name: s.nominal() for name, s in circuit.params.items() if not s.is_random}

        self.cq = _SlotSpace(n, rows=False, matrix=True)  # C: charge coefficients
        self.cg = _SlotSpace(n, rows=False, matrix=True)  # G: linear conductances
        self.sdc = _SlotSpace(n, rows=True, matrix=False)  # source levels (DC, sine offset)
        self.ssin = _SlotSpace(n, rows=True, matrix=False, per_eval=True)  # sine parts of sources
        self.nl = _SlotSpace(n, rows=True, matrix=True, per_eval=True)  # currents | conductances
        self.linear = []  # (space, slots, values, transform of the values)
        self.levels, self.amps, self.phases, self.freqs = [], [], [], []
        self.devices = []  # bind(resolve) -> fill(x_pad, out)

        by_kind = {}
        for e in circuit.elements:
            by_kind.setdefault(e.kind, []).append(e)
        compilers = {
            "R": self._compile_resistors,
            "C": self._compile_capacitors,
            "L": self._compile_inductors,
            "V": self._compile_vsources,
            "I": self._compile_isources,
            "D": self._compile_diodes,
            "N": self._compile_vdp_conductors,
            "M": self._compile_mosfets,
            "Q": self._compile_bjts,
        }
        for kind, elems in by_kind.items():
            compilers[kind](elems)
        for space in (self.cq, self.cg, self.sdc, self.ssin, self.nl):
            space.finish()

    # -- helpers -----------------------------------------------------------

    def _fold(self, v):
        """Fold references to constant parameters into literals."""
        if v.param is not None and v.param in self._cvals:
            return Value.lit(self._cvals[v.param])
        return v

    def _pval(self, elems, key, default=None):
        vals = []
        for e in elems:
            v = e.params.get(key)
            if v is None:
                if default is None:
                    raise CircuitError(f"element {e.name}: missing parameter {key}")
                v = Value.lit(default)
            vals.append(self._fold(v))
        return vals

    def _nidx(self, elems, pos):
        """Padded state index of terminal `pos` for each element."""
        c = self.circuit
        out = []
        for e in elems:
            m = e.nodes[pos]
            out.append(0 if m == GROUND else c.node_state(m) + 1)
        return np.array(out, dtype=int)

    def _bidx(self, elems):
        c = self.circuit
        return np.array([c.branch_state(e.name) + 1 for e in elems], dtype=int)

    def _slots(self, space, elems, entries):
        """One slot per element; ``entries(k)`` lists element k's entries.

        The slots are consecutive, so they are returned as a slice.
        """
        first = space.count
        for k, e in enumerate(elems):
            space.add(e.name, entries(k))
        return slice(first, space.count)

    def _pair_current_slots(self, space, elems, a, b):
        """One current slot per element flowing a -> b (KCL rows a,+ b,-)."""
        return self._slots(space, elems, lambda k: [(a[k], +1.0), (b[k], -1.0)])

    def _pair_conductance_slots(self, space, elems, a, b):
        """One conductance slot per element: +aa -ab -ba +bb pattern."""
        return self._slots(space, elems, lambda k: [
            (a[k], a[k], 1.0), (a[k], b[k], -1.0), (b[k], a[k], -1.0), (b[k], b[k], 1.0)
        ])

    def _branch_slots(self, elems, a, b, m, sign):
        """Unit G slots of a branch current m: KCL rows a,+ b,-; branch row
        reads sign * (v_a - v_b)."""
        js = self._slots(self.cg, elems, lambda k: [
            (a[k], m[k], 1.0), (b[k], m[k], -1.0), (m[k], a[k], sign), (m[k], b[k], -sign)
        ])
        self.linear.append((self.cg, js, [Value.lit(1.0)] * len(elems), None))

    # -- per-kind compilers --------------------------------------------------
    # Linear kinds record slots of C, G and the source vector; nonlinear
    # kinds append a bind(resolve) -> fill(x_pad, out) closure.

    def _compile_resistors(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        js = self._pair_conductance_slots(self.cg, elems, a, b)
        self.linear.append((self.cg, js, self._pval(elems, "value"), lambda r: 1.0 / r))

    def _compile_capacitors(self, elems, key="value"):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        js = self._pair_conductance_slots(self.cq, elems, a, b)
        self.linear.append((self.cq, js, self._pval(elems, key), None))

    def _compile_inductors(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        m = self._bidx(elems)
        # KCL: branch current into a, out of b; branch row: L di/dt = v_a - v_b
        jq = self._slots(self.cq, elems, lambda k: [(m[k], m[k], 1.0)])
        self.linear.append((self.cq, jq, self._pval(elems, "value"), None))
        self._branch_slots(elems, a, b, m, -1.0)

    def _compile_sources(self, elems, entries):
        """Source levels and sine parts feeding ``entries(k)`` of B u(t)."""
        self._slots(self.sdc, elems, entries)
        sines = [k for k, e in enumerate(elems) if e.source.is_time_varying]
        self._slots(self.ssin, [elems[k] for k in sines], lambda j: entries(sines[j]))
        for e in elems:
            s = e.source
            self.levels.append(self._fold(s.offset if s.is_time_varying else s.dc))
            if s.is_time_varying:
                self.amps.append(self._fold(s.amplitude))
                self.phases.append(self._fold(s.phase_deg))
                self.freqs.append(s.freq)

    def _compile_vsources(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        m = self._bidx(elems)
        self._branch_slots(elems, a, b, m, 1.0)
        self._compile_sources(elems, lambda k: [(m[k], 1.0)])

    def _compile_isources(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        # positive source current flows internally from node+ to node-, i.e.
        # it is drawn from node+ and injected into node-
        self._compile_sources(elems, lambda k: [(a[k], -1.0), (b[k], +1.0)])

    def _compile_diodes(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        isv = self._pval(elems, "IS")
        nv = self._pval(elems, "N", default=1.0)
        tv = self._pval(elems, "TEMP", default=DEFAULT_TEMPERATURE)
        fs = self._pair_current_slots(self.nl, elems, a, b)
        js = self._pair_conductance_slots(self.nl, elems, a, b)
        has_cj = [e for e in elems if "CJ" in e.params]
        if has_cj:
            self._compile_capacitors(has_cj, key="CJ")

        def bind(resolve):
            isat = resolve(isv)
            ve = resolve(nv) * thermal_voltage(resolve(tv))

            def fill(x, out):
                ev, dev = _limited_exp((x[a] - x[b]) / ve)
                out[fs] = isat * (ev - 1.0)
                out[js] = isat * dev / ve

            return fill

        self.devices.append(bind)

    def _compile_vdp_conductors(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        mu = self._pval(elems, "MU")
        fs = self._pair_current_slots(self.nl, elems, a, b)
        js = self._pair_conductance_slots(self.nl, elems, a, b)

        def bind(resolve):
            m = resolve(mu)

            def fill(x, out):
                v = x[a] - x[b]
                out[fs] = m * (v**3 / 3.0 - v)
                out[js] = m * (v * v - 1.0)

            return fill

        self.devices.append(bind)

    def _compile_mosfets(self, elems):
        d_, g_, s_ = self._nidx(elems, 0), self._nidx(elems, 1), self._nidx(elems, 2)
        kpv = self._pval(elems, "KP")
        vtv = self._pval(elems, "VT0")
        lamv = self._pval(elems, "LAMBDA", default=0.0)
        sp_ = np.array([-1.0 if "PMOS" in e.flags else 1.0 for e in elems])[:, None]
        fs = self._pair_current_slots(self.nl, elems, d_, s_)
        # three Jacobian values per device: d(i_ds)/d(v_d, v_g, v_s)
        jd, jg, js_ = (
            self._slots(self.nl, elems, lambda k: [(d_[k], col[k], +1.0), (s_[k], col[k], -1.0)])
            for col in (d_, g_, s_)
        )
        for key, term in (("CGS", 2), ("CGD", 0)):
            caps = [
                Element("C", f"{e.name}.{key.lower()}", (e.nodes[1], e.nodes[term]),
                        {"value": e.params[key]})
                for e in elems
                if key in e.params
            ]
            if caps:
                self._compile_capacitors(caps)

        def bind(resolve):
            kp, vt0, lam = resolve(kpv), resolve(vtv), resolve(lamv)

            def fill(x, out):
                vd, vg, vs = sp_ * x[d_], sp_ * x[g_], sp_ * x[s_]
                swap = (vd - vs) < 0.0
                vgs_e = vg - np.where(swap, vd, vs)
                i, gm, go = _mos_core(vgs_e, np.abs(vd - vs), kp, vt0, lam)
                s2 = np.where(swap, -1.0, 1.0)
                out[fs] = sp_ * s2 * i
                # voltage-derivative triple depends only on the swap state
                out[jd] = np.where(swap, gm + go, go)
                out[jg] = np.where(swap, -gm, gm)
                out[js_] = np.where(swap, -go, -(gm + go))

            return fill

        self.devices.append(bind)

    def _compile_bjts(self, elems):
        c_, b_, e_ = self._nidx(elems, 0), self._nidx(elems, 1), self._nidx(elems, 2)
        av = self._pval(elems, "ALPHA")
        isv = self._pval(elems, "IS")
        tv = self._pval(elems, "TEMP", default=DEFAULT_TEMPERATURE)
        # forward transport: i_f into emitter terminal, alpha*i_f into
        # collector; one block of slots: the currents into c, b and e, then
        # their rows of d/d(v_b - v_e)
        first = self.nl.count
        for t in (c_, b_, e_):
            self._slots(self.nl, elems, lambda k: [(t[k], 1.0)])
        for t in (c_, b_, e_):
            self._slots(self.nl, elems, lambda k: [(t[k], b_[k], +1.0), (t[k], e_[k], -1.0)])
        block = slice(first, self.nl.count)

        def bind(resolve):
            i_s = resolve(isv)
            alpha = resolve(av)
            vt = thermal_voltage(resolve(tv))
            coef = np.concatenate((alpha, 1.0 - alpha, -np.ones_like(alpha)) * 2)

            def fill(x, out):
                ev, dev = _limited_exp((x[b_] - x[e_]) / vt)
                i_f = i_s * (ev - 1.0)
                gpi = i_s * dev / vt
                out[block] = coef * np.concatenate((i_f, i_f, i_f, gpi, gpi, gpi))

            return fill

        self.devices.append(bind)

# ---------------------------------------------------------------------------
# DC operating point


DC_TOL = 1e-10  # residual norm of a converged DC operating point
DC_MAX_ITER = 200  # Newton iterations per DC solve
DC_MAX_HALVINGS = 30  # step halvings a DC sample may try before it stalls
# ladders of (source scale, gmin) rungs: the direct solve, gmin stepping, source stepping
DC_STAGES = ([(1.0, 0.0)], [(1.0, g) for g in [*10.0 ** np.arange(-2, -13, -1), 0.0]],
             [(s, 0.0) for s in np.linspace(0.1, 1.0, 10)])


def _dc_newton(instance, x0, scale, gmin, nodes):
    """(x, residual norm) of ``damped_newton`` on f(x) + gmin*v = scale*B u(0) from x0 (B, n).
    A sample's last run is at its iterate, so its Newton step takes df/dx from there."""
    df = np.empty(x0.shape + x0.shape[-1:])

    def run(x, rows, into):
        ev = instance.take(rows).eval_dae(x, 0.0)
        df[rows] = ev.df_dx
        r = ev.f - scale * ev.bu
        if gmin:
            r[:, nodes] += gmin * x[:, nodes]
        return r, norm_inf(r), Trajectory.point(0.0, x)

    def newton_step(x, r, traj, rows):
        J = df[rows].copy()
        J[:, nodes, nodes] += gmin
        return batched_solve(J, r[..., None])[..., 0]

    x, _, rn, _, _ = damped_newton(x0, run, newton_step, DC_TOL, DC_MAX_ITER, DC_MAX_HALVINGS)
    return x, rn


def dc_operating_point(instance):
    """Newton solve of f(x) = B*u(0) (capacitors open, inductors short).

    Each sample runs the ``DC_STAGES`` from x = 0 until one solves it: the
    direct solve, gmin stepping (a conductance from every node voltage v to
    ground, relaxed away), then source stepping (Nagel, UCB/ERL M520, 1975).
    A rung is one ``_dc_newton`` of the samples still on its ladder, which
    each leave at the first rung they fail: a batch sample takes its solo path."""
    B, n = instance.batch_size, instance.n
    nodes = np.arange(len(instance.circuit.node_names))
    x, rn, unsolved = np.zeros((B, n)), np.full(B, np.inf), np.ones(B, dtype=bool)
    for ladder in DC_STAGES:
        on = unsolved.copy()
        x[on] = 0.0
        for scale, gmin in ladder:
            if not on.any():
                break
            rows = _rows(on)
            x[rows], rn[rows] = _dc_newton(instance.take(rows), x[rows], scale, gmin, nodes)
            on &= rn <= DC_TOL
        unsolved &= ~on
    if unsolved.any():
        # every stage starts from x = 0, so an element non-finite there fails them all
        k = int(np.argmax(unsolved))
        sample = instance.take([k])
        element = None if np.isfinite(rn[k]) else sample.find_nonfinite_element(np.zeros(n), 0.0)
        at = "" if instance.scalar else f" at sample {k}"
        extra = f" (non-finite contribution from element {element})" if element else ""
        raise CircuitError(f"DC operating point did not converge{at} (residual {rn[k]:.3e}){extra}")
    return x[0] if instance.scalar else x
