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
a leading batch axis. All device equations are smooth except the junction
exponential, which continues as its tangent line above a fixed cutoff so
Newton residuals stay finite.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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

    Evaluation is pure: repeated calls with the same arguments return the
    same values, and distinct instances may be evaluated concurrently.
    ``theta`` is (d,) for a scalar instance or (B, d) for a batch; batched
    instances evaluate states of shape (B, n).
    """

    def __init__(self, circuit, theta, scalar=True):
        self.circuit = circuit
        self.theta = np.atleast_2d(np.asarray(theta, dtype=float))
        self.scalar = scalar and self.theta.shape[0] == 1

    @property
    def n(self):
        return self.circuit.n_states

    @property
    def batch_size(self):
        return self.theta.shape[0]

    def _states(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.n:
            raise CircuitError(f"state length {x.shape[-1]} != {self.n}")
        B = self.batch_size
        if x.shape[0] == 1 and B > 1:
            x = np.broadcast_to(x, (B, self.n))
        elif x.shape[0] != B and B == 1:
            pass  # batch of states against one parameter set is fine
        return x

    def eval_dae(self, x, t):
        """Evaluate q, f, B*u and the exact Jacobians dq/dx, df/dx."""
        squeeze = self.scalar and np.asarray(x).ndim == 1
        out = self.circuit.plan().eval(self._states(x), float(t), self.theta)
        if squeeze:
            return DaeEval(*(a[0] for a in out))
        return DaeEval(*out)

    def find_nonfinite_element(self, x, t):
        """Name of an element producing a non-finite contribution, or None."""
        return self.circuit.plan().locate_nonfinite(self._states(x), float(t), self.theta)


# ---------------------------------------------------------------------------
# device math


def _limited_exp(z):
    """exp(z) continued as its tangent line above EXP_CUTOFF.

    Returns (value, derivative); both are exp(z) below the cutoff and
    exp(zc)*(1 + z - zc), exp(zc) above it, so the curve is C1.
    """
    zc = EXP_CUTOFF
    e = np.exp(np.minimum(z, zc))
    over = z > zc
    val = np.where(over, e * (1.0 + (z - zc)), e)
    return val, e


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


class _ParamVals:
    """Resolver for a vector of element parameters (literal or bound)."""

    def __init__(self, values, param_pos):
        self.lit = np.array([v.literal for v in values], dtype=float)
        self.idx = np.array(
            [param_pos[v.param] if v.param else -1 for v in values], dtype=int
        )
        self.bound = [(k, int(j)) for k, j in enumerate(self.idx) if j >= 0]

    def __len__(self):
        return self.lit.size

    def resolve(self, theta):
        """(E,) literals expanded against theta (B, d) -> (E, B)."""
        B = theta.shape[0]
        out = np.repeat(self.lit[:, None], B, axis=1)
        for k, j in self.bound:
            out[k] = theta[:, j]
        return out


class _SlotSpace:
    """Allocates value slots for one stamp target and builds its scatter."""

    def __init__(self, n_entries_shape):
        self.shape = n_entries_shape  # rows of the scatter matrix
        self.rows = []
        self.cols = []
        self.data = []
        self.names = []
        self.count = 0

    def add(self, name, entries):
        """One value slot feeding (flat_row, sign) entries; returns slot id."""
        sid = self.count
        self.count += 1
        self.names.append(name)
        for flat_row, sign in entries:
            self.rows.append(flat_row)
            self.cols.append(sid)
            self.data.append(float(sign))
        return sid

    def matrix(self):
        return sp.csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(self.shape, max(self.count, 1))
        )


class _EvalPlan:
    """Vectorized stamp evaluation compiled from a Circuit.

    Node voltages live in a padded array with index 0 = ground, so every
    terminal stamps unconditionally; row/column 0 is dropped at the end.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        n = circuit.n_states
        self.n1 = n + 1
        ppos = {name: j for j, (name, _) in enumerate(circuit.random_params)}
        cvals = {
            name: spec.nominal()
            for name, spec in circuit.params.items()
            if not spec.is_random
        }
        self._ppos = ppos
        self._cvals = cvals

        self.sq = _SlotSpace(self.n1)
        self.sf = _SlotSpace(self.n1)
        self.sbu = _SlotSpace(self.n1)
        self.jq = _SlotSpace(self.n1 * self.n1)
        self.jf = _SlotSpace(self.n1 * self.n1)
        self._fills = []

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

        self.Mq = self.sq.matrix()
        self.Mf = self.sf.matrix()
        self.Mbu = self.sbu.matrix()
        self.MJq = self.jq.matrix()
        self.MJf = self.jf.matrix()

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
        return _ParamVals(vals, self._ppos)

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

    def _flat(self, r, c):
        return int(r) * self.n1 + int(c)

    def _pair_current_slots(self, space, elems, a, b):
        """One current slot per element flowing a -> b (KCL rows a,+ b,-)."""
        return np.array(
            [
                space.add(e.name, [(int(a[k]), +1.0), (int(b[k]), -1.0)])
                for k, e in enumerate(elems)
            ]
        )

    def _pair_conductance_slots(self, space, elems, a, b):
        """One conductance slot per element: +aa -ab -ba +bb pattern."""
        return np.array(
            [
                space.add(
                    e.name,
                    [
                        (self._flat(a[k], a[k]), +1.0),
                        (self._flat(a[k], b[k]), -1.0),
                        (self._flat(b[k], a[k]), -1.0),
                        (self._flat(b[k], b[k]), +1.0),
                    ],
                )
                for k, e in enumerate(elems)
            ]
        )

    # -- per-kind compilers --------------------------------------------------
    # Each records a fill(x_pad, t, theta, vq, vf, vbu, vjq, vjf) closure.

    def _compile_resistors(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        rv = self._pval(elems, "value")
        fs = self._pair_current_slots(self.sf, elems, a, b)
        js = self._pair_conductance_slots(self.jf, elems, a, b)

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            r = rv.resolve(th)
            v = x[a] - x[b]
            vf[fs] = v / r
            vjf[js] = 1.0 / r

        self._fills.append(fill)

    def _compile_capacitors(self, elems, key="value"):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        cv = self._pval(elems, key)
        qs = self._pair_current_slots(self.sq, elems, a, b)
        js = self._pair_conductance_slots(self.jq, elems, a, b)

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            c = cv.resolve(th)
            vq[qs] = c * (x[a] - x[b])
            vjq[js] = c

        self._fills.append(fill)

    def _compile_inductors(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        m = self._bidx(elems)
        lv = self._pval(elems, "value")
        # KCL: branch current into a, out of b; branch row: L di/dt = v_a - v_b
        fs_i = self._pair_current_slots(self.sf, elems, a, b)
        qs = np.array([self.sq.add(e.name, [(int(m[k]), +1.0)]) for k, e in enumerate(elems)])
        fs_v = np.array(
            [
                self.sf.add(e.name, [(int(m[k]), 1.0)])
                for k, e in enumerate(elems)
            ]
        )
        jq = np.array(
            [self.jq.add(e.name, [(self._flat(m[k], m[k]), 1.0)]) for k, e in enumerate(elems)]
        )
        jf = np.array(
            [
                self.jf.add(
                    e.name,
                    [
                        (self._flat(a[k], m[k]), +1.0),
                        (self._flat(b[k], m[k]), -1.0),
                        (self._flat(m[k], a[k]), -1.0),
                        (self._flat(m[k], b[k]), +1.0),
                    ],
                )
                for k, e in enumerate(elems)
            ]
        )

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            L = lv.resolve(th)
            i = x[m]
            vf[fs_i] = i
            vf[fs_v] = -(x[a] - x[b])
            vq[qs] = L * i
            vjq[jq] = L
            vjf[jf] = 1.0

        self._fills.append(fill)

    def _source_value(self, elems):
        src_dc = _ParamVals([self._fold(e.source.dc) for e in elems], self._ppos)
        src_off = _ParamVals([self._fold(e.source.offset) for e in elems], self._ppos)
        src_amp = _ParamVals([self._fold(e.source.amplitude) for e in elems], self._ppos)
        src_ph = _ParamVals([self._fold(e.source.phase_deg) for e in elems], self._ppos)
        freq = np.array([e.source.freq for e in elems], dtype=float)
        is_sin = np.array([e.source.is_time_varying for e in elems])

        def value(t, th):
            dc = src_dc.resolve(th)
            off = src_off.resolve(th)
            amp = src_amp.resolve(th)
            ph = src_ph.resolve(th)
            arg = 2.0 * math.pi * freq[:, None] * t + ph * math.pi / 180.0
            return np.where(is_sin[:, None], off + amp * np.sin(arg), dc)

        return value

    def _compile_vsources(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        m = self._bidx(elems)
        value = self._source_value(elems)
        fs_i = self._pair_current_slots(self.sf, elems, a, b)
        fs_v = np.array([self.sf.add(e.name, [(int(m[k]), 1.0)]) for k, e in enumerate(elems)])
        bs = np.array([self.sbu.add(e.name, [(int(m[k]), 1.0)]) for k, e in enumerate(elems)])
        jf = np.array(
            [
                self.jf.add(
                    e.name,
                    [
                        (self._flat(a[k], m[k]), +1.0),
                        (self._flat(b[k], m[k]), -1.0),
                        (self._flat(m[k], a[k]), +1.0),
                        (self._flat(m[k], b[k]), -1.0),
                    ],
                )
                for k, e in enumerate(elems)
            ]
        )

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            vf[fs_i] = x[m]
            vf[fs_v] = x[a] - x[b]
            vbu[bs] = value(t, th)
            vjf[jf] = 1.0

        self._fills.append(fill)

    def _compile_isources(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        value = self._source_value(elems)
        # positive source current flows internally from node+ to node-, i.e.
        # it is drawn from node+ and injected into node-
        bs = np.array(
            [
                self.sbu.add(e.name, [(int(a[k]), -1.0), (int(b[k]), +1.0)])
                for k, e in enumerate(elems)
            ]
        )

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            vbu[bs] = value(t, th)

        self._fills.append(fill)

    def _compile_diodes(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        isv = self._pval(elems, "IS")
        nv = self._pval(elems, "N", default=1.0)
        tv = self._pval(elems, "TEMP", default=DEFAULT_TEMPERATURE)
        fs = self._pair_current_slots(self.sf, elems, a, b)
        js = self._pair_conductance_slots(self.jf, elems, a, b)
        has_cj = [e for e in elems if "CJ" in e.params]
        if has_cj:
            self._compile_capacitors(has_cj, key="CJ")

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            isat = isv.resolve(th)
            ve = nv.resolve(th) * thermal_voltage(tv.resolve(th))
            ev, dev = _limited_exp((x[a] - x[b]) / ve)
            vf[fs] = isat * (ev - 1.0)
            vjf[js] = isat * dev / ve

        self._fills.append(fill)

    def _compile_vdp_conductors(self, elems):
        a, b = self._nidx(elems, 0), self._nidx(elems, 1)
        mu = self._pval(elems, "MU")
        fs = self._pair_current_slots(self.sf, elems, a, b)
        js = self._pair_conductance_slots(self.jf, elems, a, b)

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            m = mu.resolve(th)
            v = x[a] - x[b]
            vf[fs] = m * (v**3 / 3.0 - v)
            vjf[js] = m * (v * v - 1.0)

        self._fills.append(fill)

    def _compile_mosfets(self, elems):
        d_, g_, s_ = self._nidx(elems, 0), self._nidx(elems, 1), self._nidx(elems, 2)
        kpv = self._pval(elems, "KP")
        vtv = self._pval(elems, "VT0")
        lamv = self._pval(elems, "LAMBDA", default=0.0)
        sign_p = np.array([-1.0 if "PMOS" in e.flags else 1.0 for e in elems])
        fs = self._pair_current_slots(self.sf, elems, d_, s_)
        # three Jacobian values per device: d(i_ds)/d(v_d, v_g, v_s)
        jd, jg, js_ = [], [], []
        for k, e in enumerate(elems):
            for store, col in ((jd, d_[k]), (jg, g_[k]), (js_, s_[k])):
                store.append(
                    self.jf.add(
                        e.name,
                        [(self._flat(d_[k], col), +1.0), (self._flat(s_[k], col), -1.0)],
                    )
                )
        jd, jg, js_ = np.array(jd), np.array(jg), np.array(js_)
        cgs_elems = [e for e in elems if "CGS" in e.params]
        if cgs_elems:
            gs_pairs = [
                Element("C", e.name + ".cgs", (e.nodes[1], e.nodes[2]), {"value": e.params["CGS"]})
                for e in cgs_elems
            ]
            self._compile_capacitors(gs_pairs)
        cgd_elems = [e for e in elems if "CGD" in e.params]
        if cgd_elems:
            gd_pairs = [
                Element("C", e.name + ".cgd", (e.nodes[1], e.nodes[0]), {"value": e.params["CGD"]})
                for e in cgd_elems
            ]
            self._compile_capacitors(gd_pairs)

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            sp_ = sign_p[:, None]
            vd, vg, vs = sp_ * x[d_], sp_ * x[g_], sp_ * x[s_]
            swap = (vd - vs) < 0.0
            vgs_e = vg - np.where(swap, vd, vs)
            i, gm, go = _mos_core(
                vgs_e, np.abs(vd - vs), kpv.resolve(th), vtv.resolve(th), lamv.resolve(th)
            )
            s2 = np.where(swap, -1.0, 1.0)
            vf[fs] = sp_ * s2 * i
            # voltage-derivative triple depends only on the swap state
            vjf[jd] = np.where(swap, gm + go, go)
            vjf[jg] = np.where(swap, -gm, gm)
            vjf[js_] = np.where(swap, -go, -(gm + go))

        self._fills.append(fill)

    def _compile_bjts(self, elems):
        c_, b_, e_ = self._nidx(elems, 0), self._nidx(elems, 1), self._nidx(elems, 2)
        av = self._pval(elems, "ALPHA")
        isv = self._pval(elems, "IS")
        tv = self._pval(elems, "TEMP", default=DEFAULT_TEMPERATURE)
        # forward transport: i_f into emitter terminal, alpha*i_f into collector
        fc = np.array([self.sf.add(e.name, [(int(c_[k]), 1.0)]) for k, e in enumerate(elems)])
        fb = np.array([self.sf.add(e.name, [(int(b_[k]), 1.0)]) for k, e in enumerate(elems)])
        fe = np.array([self.sf.add(e.name, [(int(e_[k]), 1.0)]) for k, e in enumerate(elems)])
        jc, jb, je = [], [], []
        for k, el in enumerate(elems):
            for store, row in ((jc, c_[k]), (jb, b_[k]), (je, e_[k])):
                store.append(
                    self.jf.add(
                        el.name,
                        [(self._flat(row, b_[k]), +1.0), (self._flat(row, e_[k]), -1.0)],
                    )
                )
        jc, jb, je = np.array(jc), np.array(jb), np.array(je)

        def fill(x, t, th, vq, vf, vbu, vjq, vjf):
            i_s = isv.resolve(th)
            alpha = av.resolve(th)
            vt = thermal_voltage(tv.resolve(th))
            ev, dev = _limited_exp((x[b_] - x[e_]) / vt)
            i_f = i_s * (ev - 1.0)
            gpi = i_s * dev / vt
            vf[fc] = alpha * i_f
            vf[fb] = (1.0 - alpha) * i_f
            vf[fe] = -i_f
            vjf[jc] = alpha * gpi
            vjf[jb] = (1.0 - alpha) * gpi
            vjf[je] = -gpi

        self._fills.append(fill)

    # -- evaluation ----------------------------------------------------------

    def _values(self, x, t, theta):
        B = x.shape[0]
        x_pad = np.zeros((self.n1, B))
        x_pad[1:] = x.T
        vq = np.zeros((max(self.sq.count, 1), B))
        vf = np.zeros((max(self.sf.count, 1), B))
        vbu = np.zeros((max(self.sbu.count, 1), B))
        vjq = np.zeros((max(self.jq.count, 1), B))
        vjf = np.zeros((max(self.jf.count, 1), B))
        for fill in self._fills:
            fill(x_pad, t, theta, vq, vf, vbu, vjq, vjf)
        return vq, vf, vbu, vjq, vjf

    def eval(self, x, t, theta):
        """q, f, bu (B, n) and dq_dx, df_dx (B, n, n)."""
        B = x.shape[0]
        n = self.circuit.n_states
        vq, vf, vbu, vjq, vjf = self._values(x, t, theta)
        q = (self.Mq @ vq)[1:].T
        f = (self.Mf @ vf)[1:].T
        bu = (self.Mbu @ vbu)[1:].T
        dq = (self.MJq @ vjq).reshape(self.n1, self.n1, B)[1:, 1:]
        df = (self.MJf @ vjf).reshape(self.n1, self.n1, B)[1:, 1:]
        return (
            np.ascontiguousarray(q),
            np.ascontiguousarray(f),
            np.ascontiguousarray(bu),
            np.ascontiguousarray(np.moveaxis(dq, 2, 0)),
            np.ascontiguousarray(np.moveaxis(df, 2, 0)),
        )

    def locate_nonfinite(self, x, t, theta):
        vq, vf, vbu, vjq, vjf = self._values(x, t, theta)
        for space, vals in ((self.sq, vq), (self.sf, vf), (self.sbu, vbu)):
            bad = ~np.isfinite(vals).all(axis=1)
            for k in np.nonzero(bad)[0]:
                if k < len(space.names):
                    return space.names[k]
        return None


# ---------------------------------------------------------------------------
# DC operating point


def dc_operating_point(instance, x0=None, tol=1e-10, max_iter=200, gmin=0.0):
    """Newton solve of f(x) = B*u(0) (capacitors open, inductors short).

    Uses residual-halving damping; falls back to source stepping when the
    direct solve stalls. ``gmin`` adds a small conductance from every node
    voltage to ground to regularize ill-posed topologies.
    """
    n = instance.n
    B = instance.batch_size
    shape = (n,) if instance.scalar else (B, n)
    x = np.zeros(shape) if x0 is None else np.array(x0, dtype=float)

    def residual(xv, scale=1.0):
        ev = instance.eval_dae(xv, 0.0)
        r = ev.f - scale * ev.bu
        J = ev.df_dx.copy()
        if gmin:
            nn = len(instance.circuit.node_names)
            idx = np.arange(nn)
            r[..., idx] += gmin * xv[..., idx]
            J[..., idx, idx] += gmin
        return r, J

    def newton(xv, scale, iters):
        r, J = residual(xv, scale)
        rn = np.max(np.abs(r))
        for _ in range(iters):
            if rn <= tol:
                return xv, rn, True
            try:
                dx = np.linalg.solve(J, r[..., None])[..., 0]
            except np.linalg.LinAlgError:
                return xv, rn, False
            alpha = 1.0
            for _ in range(30):
                xt = xv - alpha * dx
                rt, Jt = residual(xt, scale)
                rtn = np.max(np.abs(rt))
                if np.isfinite(rtn) and rtn < rn * (1.0 - 1e-4 * alpha) + tol:
                    break
                alpha *= 0.5
            xv, r, J, rn = xt, rt, Jt, rtn
        return xv, rn, rn <= tol

    x, rn, ok = newton(x, 1.0, max_iter)
    if not ok and gmin == 0.0:
        # gmin stepping: solve with a conductance to ground on every node,
        # then relax it away (handles cutoff devices leaving nodes floating)
        x = np.zeros(shape)
        for g in 10.0 ** np.arange(-2, -13, -1):
            gmin = g
            x, rn, ok = newton(x, 1.0, max_iter)
            if not ok:
                break
        if ok:
            gmin = 0.0
            x, rn, ok = newton(x, 1.0, max_iter)
    if not ok:
        # source stepping: ramp the excitation
        x = np.zeros(shape)
        for scale in np.linspace(0.1, 1.0, 10):
            x, rn, ok = newton(x, scale, max_iter)
            if not ok:
                break
    if not ok:
        raise CircuitError(f"DC operating point did not converge (residual {rn:.3e})")
    return x
