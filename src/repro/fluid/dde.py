"""Fixed-step integrator for delay differential equations (DDEs).

The paper's Section 5 analyses PERT with a fluid model of the form

    x'(t) = f(t, x(t), x(t - R))

with one constant delay R, the *lag*.  We integrate with classical RK4
over a fixed grid, evaluating the delayed state by linear interpolation
in the stored solution — the method-of-steps approach Matlab's ``dde23``
uses, simplified to a fixed step.  Before ``t0`` the history is the
constant initial state, matching the paper's simulations which start
from a constant initial point.

Four entry points share the grid, the arithmetic and one plan of the
delayed state:

* :func:`integrate_dde_floats` — one system, the **float contract**: the
  state and the delayed state are tuples of Python floats and the rhs
  returns a tuple or list.  This is the scalar kernel — the only scalar
  stepping loop; inside the loop no numpy ufunc is involved.  The loop
  is one source template (:data:`_FLOAT_KERNEL`), compiled on first use
  once per state dimension, with the state, the four RK4 stages and the
  two rows of an interpolation unrolled into named locals (``x0, x1,
  x2``, ``a0 ..``, ``p0 ..``) rather than lists walked per component;
  ``tests/fluid/reference.py`` keeps that list loop as the reference the
  generated one equals bit for bit.
* :func:`integrate_equations` — the same kernel with a system's own
  statements (:class:`Equations`) compiled in where the rhs call was,
  once per dimension and block.  The block's *delayed* half reads only
  ``xd`` and runs once after each assignment of it, the *stage* half at
  each stage; so there is no rhs frame per stage, and stages that share
  a delayed row share what was computed from it.  This is what the
  registered fluid models run on (one block per model shape,
  :func:`repro.fluid.model.equations`); :func:`equations_rhs` compiles
  the same block into the rhs that :func:`integrate_dde_floats` equals
  it with, bit for bit.
* :func:`integrate_dde` — one system, the **array contract**: ``(dim,)``
  float64 arrays in and out, so an rhs can be written ``A @ x``.  An
  adapter over the float kernel for everything that is not a registered
  model; it carries no stepping arithmetic of its own.
* :func:`integrate_dde_batch` — B independent systems advanced together
  as ``(B, dim)`` array operations on fixed buffers, each with its own
  lag.  Its rhs is the float contract's per-component shape written in
  place: ``rhs(t, x, xd, out)`` gets ``x`` and ``xd`` as tuples of
  read-only ``(B,)`` column views and writes every component of the
  derivative into ``out``, the writable ``(B,)`` columns of the stage
  buffer.

Every elementwise operation is the same IEEE-754 double operation in the
same order whether it runs on Python floats or inside a float64 ufunc,
so a batch run is bit-identical to B scalar runs and the two scalar
contracts agree bit for bit — the properties
``tests/fluid/test_dde_batch.py`` and
``tests/fluid/test_trajectory_pins.py`` pin exactly.

The delayed state (``xd`` in ``rhs(t, x, xd)``)
-----------------------------------------------
* **The kernel computes it**: ``xd = x(t - lag)`` for the *lag* declared
  to the kernel (``None`` for an ODE, whose rhs then gets ``xd = None``).
  Between grid points it is ``x_lo * (1 - f) + x_hi * f`` on exactly the
  interval ``searchsorted`` would pick.
* **One plan**: :func:`_resolve` is the only implementation of that
  rule.  Over a chunk of steps at once, vectorised over steps and
  members, it finds each query's interval — a uniform-grid guess,
  corrected by a one-ulp fix-up (the grid is built by repeated
  ``t += dt``) — and its weight ``f``, or marks the query as a row to
  copy.  Both kernels step through that plan: the batch gathers a
  step's rows from the stored solution, the float kernel reads ring
  slots, weights and edge flags through memoryviews and interpolates
  inline.  An RK4
  step plans two queries, at ``t + dt/2 - lag`` and ``t + dt - lag``;
  the latter row is the next step's ``t - lag`` and carries over unless
  it was end-clamped, when k1's query is planned again.  Euler plans
  one.
* **Before ``t0``** it is ``x0``; **at or past the last stored row**
  (a lag shorter than the step: RK4's later stages look past the stored
  history) it holds that row.
* **It cannot be modified**: a tuple in the float contract, arrays
  with ``writeable=False`` in the other two.  An rhs that needs to
  modify it copies it first.

``tests/fluid/test_dde_lookup.py`` holds the ``searchsorted`` oracle
these rules are checked against, and the planned-queries-per-step guard.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
from itertools import accumulate, repeat, starmap
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DdeSolution",
    "DdeBatchSolution",
    "Equations",
    "equations_rhs",
    "integrate_dde",
    "integrate_dde_floats",
    "integrate_equations",
    "integrate_dde_batch",
]

#: (step, member) pairs a batch plan chunk covers: ``_PLAN_QUERIES // B``
#: steps.  The float kernel's chunks are an eighth of it, 96 steps: its
#: plan takes ≈ 130 bytes a step while a chunk is resolved, beside an
#: O(R/dt) ring of rows, and a 60 s run at R = 171 ms stays 64 KB above
#: its solution arrays with its kernel compiled in the same run.
_PLAN_QUERIES = 768


class DdeSolution:
    """Dense output of a DDE integration.

    Attributes
    ----------
    t:
        1-D array of time points (uniform grid).  ``t[-1]`` is
        ``round(span / dt)`` steps past ``t[0]`` — ``simulate(duration)``
        ends at ``round(duration / dt) * dt``, not at ``duration``, when
        the span is not a multiple of the step.
    y:
        2-D array, shape ``(len(t), dim)``.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t = t
        self.y = y

    def __call__(self, ti: float) -> np.ndarray:
        """Linear interpolation of the solution at time *ti* (clamped).

        Always a fresh array, at the clamped ends too: writing to the
        result never edits the stored trajectory.  A NaN *ti* lies
        nowhere on the grid and raises ``ValueError``.
        """
        if math.isnan(ti):
            raise ValueError(f"cannot interpolate the solution at t={ti!r}")
        t = self.t
        if ti <= t[0]:
            return self.y[0].copy()
        if ti >= t[-1]:
            return self.y[-1].copy()
        idx = int(np.searchsorted(t, ti) - 1)
        frac = (ti - t[idx]) / (t[idx + 1] - t[idx])
        return self.y[idx] * (1 - frac) + self.y[idx + 1] * frac

    def component(self, i: int) -> np.ndarray:
        return self.y[:, i]


def _check_problem(t_span, dt: float, method: str,
                   lag) -> Tuple[float, int, bool]:
    """Validate the grid arguments and the lag; ``(t0, n_steps, euler)``."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if method not in ("rk4", "euler"):
        raise ValueError(f"unknown method {method!r}")
    t0, t1 = t_span
    if not -math.inf < t0 < t1 < math.inf:
        raise ValueError("t_span must be finite and increasing")
    steps = (t1 - t0) / dt
    if not steps < math.inf:
        raise ValueError("t_span holds more steps of dt than a float counts")
    if lag is not None and not np.all(np.asarray(lag) >= 0):
        raise ValueError("lag must be non-negative")
    return t0, int(round(steps)), method == "euler"


def _grid(t0: float, dt: float, n_steps: int) -> np.ndarray:
    """``t0, t0 + dt, ...`` by repeated addition, as the steppers advance."""
    return np.fromiter(accumulate(repeat(dt, n_steps), initial=t0),
                       float, n_steps + 1)


# ----------------------------------------------------------------------
# the plan of the delayed state, shared by both kernels
# ----------------------------------------------------------------------
def _resolve(q: np.ndarray, steps: np.ndarray, ts: np.ndarray, dt: float,
             batch: int) -> tuple:
    """Where a chunk of delayed-time queries reads the stored solution.

    ``q[c, j]`` is made at step ``steps[c]`` (row ``steps[c]`` is the
    newest stored) for member ``j % batch``.  Returns ``(lo, hi, f,
    edge)``, each indexed ``[c, j]``: flat row indices into
    ``xs.reshape(-1, dim)`` (the row itself when ``batch`` is 1), the
    weight ``f`` of row ``hi`` (``1 - f`` is row ``lo``'s), and the mask
    of boundary entries — pre-history or end-clamped, ``lo == hi`` the
    row to copy.
    """
    t0 = ts[0]
    newest = steps[:, None]
    pre = q <= t0
    end = q >= ts[newest]
    edge = pre | end
    guess = q - t0
    guess /= dt
    np.maximum(guess, 0, out=guess)  # pre-history: row 0
    np.minimum(guess, len(ts) - 2, out=guess)
    lo = guess.astype(np.intp)
    del guess  # the dels hold a chunk to five of its arrays at a time
    t_lo, t_hi = ts[lo], ts[lo + 1]
    # one-ulp fix-up to t_lo < q <= t_hi (interior entries)
    inner = ~edge
    while True:
        down = t_lo >= q
        up = t_hi < q
        off = down | up
        off &= inner
        if not off.any():
            break
        lo += up & off
        lo -= down & off
        t_lo, t_hi = ts[lo], ts[lo + 1]
    t_hi -= t_lo
    frac = np.subtract(q, t_lo, out=t_lo)
    frac /= t_hi
    del t_lo, t_hi
    np.copyto(frac, 0.0, where=edge)
    np.copyto(lo, newest, where=end)  # pre-history entries are at row 0
    hi = lo + 1
    np.copyto(hi, lo, where=edge)
    if batch > 1:
        members = np.arange(q.shape[1]) % batch
        lo *= batch
        lo += members
        hi *= batch
        hi += members
    return lo, hi, frac, edge


def _plan(ts: np.ndarray, lags: np.ndarray, dt: float, euler: bool,
          chunk: int):
    """Yield the delayed-state plan of each chunk of steps.

    A chunk is ``(main, fresh, redo)``.  ``main`` is :func:`_resolve` of
    the queries the chunk's steps make for their own stages: Euler's
    ``t - lag``; RK4's ``t + dt/2 - lag``, then ``t + dt - lag``, B
    members each.  RK4's k1 reuses the previous step's ``t + dt - lag``
    row unless that row was end-clamped: ``fresh`` masks the (step,
    member) pairs where it was, and ``redo`` resolves ``t - lag`` at the
    steps with any (``None`` without one; Euler has neither).  A chunk
    is *chunk* steps, so a plan is O(chunk × B), never O(steps × B); a
    chunk is not referenced here once it is yielded.
    """
    n_steps = len(ts) - 1
    chunk = max(1, chunk)
    for first in range(0, n_steps, chunk):
        yield _plan_chunk(ts, lags, dt, euler,
                          np.arange(first, min(first + chunk, n_steps)))


def _plan_chunk(ts, lags, dt, euler, steps):
    """One chunk of :func:`_plan`, for the consecutive *steps*."""
    batch = len(lags)
    first, stop = steps[0], steps[-1] + 1
    t = ts[first:stop, None]
    q1 = t - lags
    if euler:
        return _resolve(q1, steps, ts, dt, batch), None, None
    # step 0 compares with ts[-1], the last grid time: never fresh
    fresh = q1 >= ts[steps - 1][:, None]
    again = fresh.any(axis=1)
    redo = (_resolve(q1[again], steps[again], ts, dt, batch)
            if again.any() else None)
    del q1
    main = _resolve(np.concatenate([(t + dt / 2) - lags,
                                    ts[first + 1:stop + 1, None] - lags],
                                   axis=1),
                    steps, ts, dt, batch)
    return main, fresh, redo


# ----------------------------------------------------------------------
# the float kernel
# ----------------------------------------------------------------------
#: The float kernel's source: the stepping loop, compiled once per state
#: dimension and system by :func:`_float_kernel`.  ``{expr}`` stands for
#: the tuple display of *expr* taken once per state component: the single
#: letters ``x a b c d p q`` gain the component's index and ``i`` becomes
#: it, so with two components ``{x + half * a}`` reads ``(x0 + half * a0,
#: x1 + half * a1)``.  The state ``x``, the stages ``a b c d`` (k1 .. k4)
#: and the two rows ``p q`` of an interpolation are then named locals, not
#: lists.  A lookup of the plan (:func:`_ring_plans`) is ``l h f e``: the
#: ring slots of the two rows, row ``h``'s weight (``g = 1 - f`` is row
#: ``l``'s) and the edge flag (copy slot ``l``), suffixed by the stage it
#: serves.  The ``@`` lines are the hooks :func:`_hooks` fills, for an rhs
#: callable or a system's :class:`Equations`: ``@bind`` unpacks the
#: equations' constants, ``@delayed`` follows each assignment of ``xd``,
#: and ``@stage a = f(t, x)`` evaluates the derivative at time ``t`` and
#: state ``{x}`` into ``{a}``.
_FLOAT_KERNEL = '''\
def step(rhs, start, t, dt, euler, lag, out, ring, plans):
    @bind
    dim = len(start)
    size = len(ring)
    delayed = lag is not None
    {x} = start
    xd = ring[0]  # the first k1 reads t0 - lag: x0, or None for an ODE
    @delayed
    half = dt / 2
    sixth = dt / 6.0
    n = 0
    k = start
    try:
        for rows, redo in plans:
            if euler:
                for l1, h1, f1, e1 in rows:
                    if e1:
                        xd = ring[l1]
                    else:
                        {p} = ring[l1]
                        {q} = ring[h1]
                        g = 1 - f1
                        xd = {p * g + q * f1}
                    @delayed
                    @stage a = f(t, x)
                    {x} = {x + dt * a}
                    t += dt
                    n += 1
                    row = n * dim
                    {out[row + i]} = {x}
                    if delayed:
                        ring[n % size] = {x}
            else:
                for again, l2, h2, f2, e2, l4, h4, f4, e4 in rows:
                    if again:  # the last k4 row was end-clamped: look anew
                        l1, h1, f1, e1 = next(redo)
                        if e1:
                            xd = ring[l1]
                        else:
                            {p} = ring[l1]
                            {q} = ring[h1]
                            g = 1 - f1
                            xd = {p * g + q * f1}
                        @delayed
                    @stage a = f(t, x)
                    if e2:
                        xd = ring[l2]
                    else:
                        {p} = ring[l2]
                        {q} = ring[h2]
                        g = 1 - f2
                        xd = {p * g + q * f2}
                    @delayed
                    t_mid = t + half
                    @stage b = f(t_mid, x + half * a)
                    @stage c = f(t_mid, x + half * b)
                    if e4:  # k4's row, and the next k1's unless it looks anew
                        xd = ring[l4]
                    else:
                        {p} = ring[l4]
                        {q} = ring[h4]
                        g = 1 - f4
                        xd = {p * g + q * f4}
                    @delayed
                    @stage d = f(t + dt, x + dt * c)
                    {x} = {x + sixth * (a + 2 * b + 2 * c + d)}
                    t += dt
                    n += 1
                    row = n * dim
                    {out[row + i]} = {x}
                    if delayed:
                        ring[n % size] = {x}
            del rows, redo  # the chunk's plan goes before the next is made
    except ValueError:
        # every unpacking above follows the call that bound ``k``: a
        # wrong-length ``k`` is what failed, anything else is the rhs's own
        if len(k) != dim:
            raise ValueError("rhs returned %d derivatives for %d state "
                             "components" % (len(k), dim)) from None
        raise
'''

#: a ``{expr}`` of the template, and a per-component name inside one
_TEMPLATE_FIELD = re.compile(r"\{([^{}]*)\}")
_COMPONENT_NAME = re.compile(r"\b([xabcdpqi])\b")
#: a hook line of the template: its indent, kind and a stage's operands
_HOOK = re.compile(r"^( *)@(\w+)(?: (\w) = f\(([^,]*), (.*)\))?\n", re.M)


class Equations(NamedTuple):
    """A system's right-hand side as source, split by what it reads.

    The float kernel steps these statements where it would call an rhs
    (:func:`integrate_equations`), and :func:`equations_rhs` compiles
    them into the rhs callable itself, so the one text is both.

    * ``params``: the constants the statements read, bound per run;
    * ``state`` / ``derivative``: the names of the state's components
      and of their derivatives, in state order;
    * ``delayed``: the statements that read only the delayed state
      ``xd`` (and constants).  The kernel runs them once after each
      assignment of ``xd``, so stages that share a delayed row (RK4's
      k2 and k3; a k4 and the next k1) share their result;
    * ``stage``: the statements run at every stage, reading the state
      names, the stage's time ``t`` and what ``delayed`` assigned, and
      assigning every derivative name.

    The statements' own names must not be the kernel's (``x0``, ``a0``,
    ``p0``, ``g``, ``k``, ``n``, ...); ``xd`` and ``t`` are shared.
    ``name`` labels the compiled code in tracebacks.
    """

    name: str
    params: Tuple[str, ...]
    state: Tuple[str, ...]
    derivative: Tuple[str, ...]
    delayed: str
    stage: str


def _per_component(expr: str, dim: int) -> str:
    """*expr* once per component, as a tuple display (see the template)."""
    return _display([_COMPONENT_NAME.sub(
        lambda m: str(i) if m[1] == "i" else f"{m[1]}{i}", expr)
        for i in range(dim)])


def _display(items: Sequence[str]) -> str:
    """*items* as a tuple display (or unpacking target)."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _indent(statements: str, indent: str) -> str:
    return "".join(indent + line + "\n" for line in statements.splitlines())


def _rename(statements: str, names: dict) -> str:
    """*statements* with each whole-word name in *names* replaced."""
    word = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, names)))
    return word.sub(lambda m: names[m[1]], statements)


def _hooks(source: str, dim: int, block: Optional[Equations]) -> str:
    """The template's ``@`` lines filled for an rhs callable (*block*
    ``None``: call ``rhs`` per stage) or for *block*'s statements."""
    def fill(m):
        indent, hook, out, time, state = m.groups()
        if hook == "bind":
            return "" if block is None else \
                f"{indent}{_display(block.params)} = rhs\n"
        if hook == "delayed":
            return "" if block is None else _indent(block.delayed, indent)
        state = _per_component(state, dim)
        if block is None:
            return (f"{indent}k = rhs({time}, {state}, xd)\n"
                    f"{indent}{_per_component(out, dim)} = k\n")
        names = {d: f"{out}{i}" for i, d in enumerate(block.derivative)}
        names["t"] = time
        return (f"{indent}{_display(block.state)} = {state}\n"
                + _indent(_rename(block.stage, names), indent))
    return _HOOK.sub(fill, source)


def _compile(source: str, filename: str, name: str) -> Callable:
    """*source*'s function *name*, its lines registered with ``linecache``
    so a traceback through generated code shows them."""
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=None)
def _float_kernel(dim: int, block: Optional[Equations] = None) -> Callable:
    """The template's ``step`` compiled for *dim* components, calling an
    rhs per stage (*block* ``None``) or stepping *block*'s statements.

    Generated on first use, the way ``dataclasses`` writes ``__init__``.
    """
    source = _hooks(_TEMPLATE_FIELD.sub(
        lambda m: _per_component(m[1], dim), _FLOAT_KERNEL), dim, block)
    label = "" if block is None else f", {block.name}"
    return _compile(source, f"<repro.fluid.dde float kernel, dim={dim}{label}>",
                    "step")


@functools.lru_cache(maxsize=None)
def equations_rhs(block: Equations) -> Callable:
    """``bind(*constants)``, returning *block* as a float-contract
    ``rhs(t, x, xd)``: its delayed then its stage statements."""
    source = (f"def bind({', '.join(block.params)}):\n"
              f"    def rhs(t, x, xd):\n"
              f"        {_display(block.state)} = x\n"
              + _indent(block.delayed, " " * 8) + _indent(block.stage, " " * 8)
              + f"        return {_display(block.derivative)}\n"
              f"    return rhs\n")
    return _compile(source, f"<repro.fluid.dde rhs, {block.name}>", "bind")


def _ring_plans(ts: np.ndarray, lag: float, dt: float, euler: bool,
                size: int):
    """The float kernel's ``(rows, redo)``, one per chunk of :func:`_plan`.

    A lookup is the ring slots of its two rows, the weight ``f`` of the
    second and its edge flag.  ``rows`` iterates each step's lookups,
    behind RK4's flag that k1 looks again, and ``redo`` those k1 lookups:
    memoryviews of the plan's arrays, which yield Python ints, floats and
    bools one step at a time.
    """
    def lookups(plan):
        lo, hi, frac, edge = plan
        lo %= size
        hi %= size
        return [memoryview(field) for j in range(lo.shape[1])
                for field in (lo[:, j], hi[:, j], frac[:, j], edge[:, j])]

    def chunk(main, fresh, redo):
        rows = lookups(main)
        if fresh is not None:
            rows.insert(0, memoryview(fresh[:, 0]))
        return zip(*rows), None if redo is None else zip(*lookups(redo))

    return starmap(chunk, _plan(ts, np.array([lag], dtype=float), dt, euler,
                                _PLAN_QUERIES // 8))


def integrate_dde_floats(
    rhs: Callable[[float, Sequence[float], Optional[Tuple[float, ...]]],
                  Sequence[float]],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag: Optional[float] = None,
) -> DdeSolution:
    """Integrate a float-contract ``x' = rhs(t, x, xd)`` over *t_span*.

    The scalar kernel: the one stepping loop every single-system
    integration runs (:func:`integrate_dde` adapts array right-hand
    sides onto it).  Nothing in the loop touches a numpy ufunc.

    Parameters
    ----------
    rhs:
        Callable receiving the current time, the current state as a
        tuple of ``dim`` Python floats, and ``xd = x(t - lag)`` as a
        tuple of floats (``None`` without a lag); must return the
        ``dim`` derivatives as a tuple or list of floats (any other
        count raises ``ValueError``, at whichever stage returns it).
    x0:
        Initial state; also the constant pre-history.
    method:
        ``"rk4"`` (default) or ``"euler"``.
    lag:
        The constant delay R >= 0, or ``None`` for an ODE.

    The grid is ``t0, t0 + dt, ...`` built by repeated addition over
    ``round((t1 - t0) / dt)`` steps, so the run ends at that many steps
    past ``t0`` — not at ``t1`` when the span is not a multiple of *dt*.
    Rows are written to the preallocated solution arrays through a flat
    memoryview; the lookups read them back from a ring of the last
    ``lag / dt + 4`` rows, where the plan's slots point.
    """
    return _integrate(None, rhs, x0, t_span, dt, method, lag)


def integrate_equations(
    block: Equations,
    constants: Sequence,
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag: Optional[float] = None,
) -> DdeSolution:
    """:func:`integrate_dde_floats` of ``equations_rhs(block)(*constants)``,
    bit for bit, with *block*'s statements stepped in the kernel itself.

    No rhs frame per stage, and the delayed statements run once per
    delayed row rather than once per stage: twice per RK4 step where
    the lag is at least the step (k2 and k3 share a row, and k4's is the
    next k1's), once per Euler step.  The kernel is compiled once per
    *block*; *constants* are its ``params``' values for this run.
    """
    if len(x0) != len(block.state):
        raise ValueError(f"x0 has {len(x0)} components; the equations "
                         f"({block.name}) have {len(block.state)}")
    return _integrate(block, tuple(constants), x0, t_span, dt, method, lag)


def _integrate(block, rhs, x0, t_span, dt, method, lag) -> DdeSolution:
    """Both float entry points: the grid, the ring and the plan around
    the kernel that calls *rhs* (*block* ``None``) or steps *block*
    (*rhs* then holds its constants)."""
    t, n_steps, euler = _check_problem(t_span, dt, method, lag)
    start = tuple([float(v) for v in x0])
    # generated before the solution arrays exist, so compiling a new
    # kernel never adds to a run's peak memory
    step = _float_kernel(len(start), block)
    ts = _grid(t, dt, n_steps)
    xs = np.empty((n_steps + 1, len(start)))
    xs[0] = start
    if lag is None:
        # every lookup copies the one slot, which holds no state
        ring = [None]
        lookup = (0, 0, 0.0, True)
        plans = [(repeat(lookup if euler else (False,) + lookup * 2,
                         n_steps), None)]
    else:
        # an interval read ``lag`` back starts at most lag / dt + 2 rows
        # behind the newest, one more with the grid's rounding
        ring = [start] * (int(min(lag / dt, n_steps)) + 4)
        plans = _ring_plans(ts, lag, dt, euler, len(ring))
    step(rhs, start, t, dt, euler, lag, memoryview(xs.reshape(-1)), ring,
         plans)
    return DdeSolution(ts, xs)


def integrate_dde(
    rhs: Callable[[float, np.ndarray, Optional[np.ndarray]], np.ndarray],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag: Optional[float] = None,
) -> DdeSolution:
    """Integrate an array-contract ``x' = rhs(t, x, xd)`` over *t_span*.

    Parameters
    ----------
    rhs:
        Callable receiving the current time, the current state as a
        ``(dim,)`` float64 array, and ``xd = x(t - lag)`` as a read-only
        ``(dim,)`` float64 array (``None`` without a lag); must return
        the state derivative as an array (anything that broadcasts to
        ``(dim,)``).
    x0:
        Initial state (list, tuple or 1-D array); also the constant
        pre-history.
    method:
        ``"rk4"`` (default) or ``"euler"``.
    lag:
        The constant delay R >= 0, or ``None`` for an ODE.

    An adapter over :func:`integrate_dde_floats` — same grid, same
    stepping, same lookups; only the values crossing into and out of
    *rhs* are wrapped as arrays.

    Returns
    -------
    DdeSolution with the full trajectory on the uniform grid.
    """
    start = np.asarray(x0, dtype=float)
    if start.ndim != 1:
        raise ValueError("x0 must be one-dimensional (one system)")

    def float_rhs(t, x, xd):
        if xd is not None:
            xd = np.array(xd)
            xd.setflags(write=False)
        dx = np.asarray(rhs(t, np.array(x), xd), dtype=float)
        return np.broadcast_to(dx, start.shape).tolist()

    return integrate_dde_floats(float_rhs, start.tolist(), t_span, dt,
                                method, lag)


# ----------------------------------------------------------------------
# batched integration: B independent systems as (B, dim) array ops
# ----------------------------------------------------------------------
class DdeBatchSolution:
    """Dense output of a batched DDE integration.

    Attributes
    ----------
    t:
        1-D array of time points (uniform grid, shared by the batch).
    y:
        3-D array, shape ``(len(t), batch, dim)``.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t = t
        self.y = y

    def __getitem__(self, b: int) -> DdeSolution:
        """Member *b*'s trajectory as an ordinary :class:`DdeSolution`."""
        return DdeSolution(self.t, self.y[:, b, :])

    def component(self, i: int) -> np.ndarray:
        """Component *i* of every member, shape ``(len(t), batch)``."""
        return self.y[:, :, i]


def _columns(block: np.ndarray, writeable: bool = False) -> tuple:
    """The ``(B,)`` column views of a ``(B, dim)`` buffer, made once."""
    columns = tuple(block[:, i] for i in range(block.shape[1]))
    for column in columns:
        column.flags.writeable = writeable
    return columns


def _per_step(plan: tuple):
    """*plan*'s lookups one step at a time: row indices, the two rows'
    weights as columns, and the edge mask (``None`` when a step has no
    boundary entry)."""
    lo, hi, frac, edge = plan
    w_hi = frac[..., None]
    edges = [e if any_ else None
             for e, any_ in zip(edge[..., None], edge.any(axis=1))]
    return zip(lo, hi, 1 - w_hi, w_hi, edges)


def _gather(flat: np.ndarray, lo, hi, w_lo, w_hi, edge, out: np.ndarray,
            rows_lo: np.ndarray, rows_hi: np.ndarray) -> None:
    """One step's delayed rows, ``x_lo * (1 - f) + x_hi * f``, into *out*.

    Boundary entries are copied from their row exactly (``x * 1 + x * 0``
    is not ``x`` for an infinite ``x``).  The indices are always in
    range; ``"clip"`` only spares ``take`` a buffered copy of its output.
    """
    flat.take(lo, 0, rows_lo, "clip")
    flat.take(hi, 0, rows_hi, "clip")
    np.multiply(rows_lo, w_lo, out)
    np.multiply(rows_hi, w_hi, rows_hi)
    np.add(out, rows_hi, out)
    if edge is not None:
        np.copyto(out, rows_lo, where=edge)


def _batch_lookups(ts: np.ndarray, xs: np.ndarray, lags: np.ndarray,
                   dt: float, euler: bool):
    """Yield each step's delayed states ``(xd1, xd2, xd4)`` as columns.

    ``xd2`` serves k2 and k3; Euler uses ``xd1`` alone.  Step ``s``'s
    rows are gathered when the caller asks for them, after it stored
    row ``s``, into one of two fixed buffers in turn: a step's k4 rows
    are the next step's k1 rows, where the plan does not redo them.
    """
    batch, dim = xs.shape[1:]
    flat = xs.reshape(-1, dim)
    width = batch if euler else 2 * batch
    bufs = list(np.empty((2, width, dim)))
    bufs[1][-batch:] = xs[0]  # the first k1 reads t0 - lag: pre-history
    rows_lo, rows_hi = np.empty((2, width, dim))
    redo_rows = np.empty((batch, dim))
    mid = [_columns(buf[:batch]) for buf in bufs]
    end = [_columns(buf[-batch:]) for buf in bufs]
    new, old = 1, 0
    for main, fresh, redo in _plan(ts, lags, dt, euler,
                                   _PLAN_QUERIES // batch):
        steps = _per_step(main)
        if euler:
            for lookups in steps:
                _gather(flat, *lookups, bufs[0], rows_lo, rows_hi)
                yield mid[0], None, None
            continue
        redos = None if redo is None else _per_step(redo)
        for lookups, mask, again in zip(steps, fresh[..., None],
                                        fresh.any(axis=1)):
            new, old = old, new
            _gather(flat, *lookups, bufs[new], rows_lo, rows_hi)
            if again:
                _gather(flat, *next(redos), redo_rows, rows_lo[:batch],
                        rows_hi[:batch])
                np.copyto(bufs[old][batch:], redo_rows, where=mask)
            yield end[old], mid[new], end[new]


def integrate_dde_batch(
    rhs: Callable[[float, tuple, Optional[tuple], tuple], None],
    x0: np.ndarray,
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag=None,
) -> DdeBatchSolution:
    """Advance B independent DDE systems together as array operations.

    Parameters
    ----------
    rhs:
        Callable ``rhs(t, x, xd, out)`` per stage.  ``x`` is the state
        and ``xd`` the delayed state, row *b* at ``t - lag[b]`` (``None``
        without a lag), each a tuple of ``dim`` read-only ``(B,)``
        float64 columns; ``out`` is a tuple of ``dim`` writable ``(B,)``
        columns, into which *rhs* must write every component of the
        derivative.  Its return value is ignored.
    x0:
        ``(B, dim)`` array of initial states (also the constant
        pre-history of each member).
    lag:
        One delay for every member or a ``(B,)`` vector of them (each
        >= 0), or ``None`` for an ODE.

    All members share the time grid.  The stepping arithmetic mirrors
    :func:`integrate_dde_floats` exactly, on fixed ``(B, dim)`` buffers
    (the columns are views of them, made once), so the trajectory of
    member *b* equals a scalar integration of that member bit for bit.
    """
    t, n_steps, euler = _check_problem(t_span, dt, method, lag)
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError("x0 must have shape (batch, dim)")
    ts = _grid(t, dt, n_steps)
    xs = np.empty((n_steps + 1,) + x.shape)
    xs[0] = x
    if lag is None:
        lookups = repeat((None, None, None), n_steps)
    else:
        lags = np.broadcast_to(np.asarray(lag, dtype=float), x.shape[:1])
        lookups = _batch_lookups(ts, xs, lags, dt, euler)
    y = np.empty_like(x)  # the state a stage evaluates at
    k1, k2, k3, k4 = ks = np.empty((4,) + x.shape)
    state, stage = _columns(x), _columns(y)
    d1, d2, d3, d4 = (_columns(k, writeable=True) for k in ks)
    half = dt / 2
    sixth = dt / 6.0
    mul, add = np.multiply, np.add  # the third argument is the output
    for n, (xd1, xd2, xd4) in enumerate(lookups, 1):
        rhs(t, state, xd1, d1)
        if euler:
            mul(dt, k1, k1)
            add(x, k1, x)
        else:
            mul(half, k1, y)
            add(x, y, y)
            rhs(t + half, stage, xd2, d2)
            mul(half, k2, y)
            add(x, y, y)
            rhs(t + half, stage, xd2, d3)
            mul(dt, k3, y)
            add(x, y, y)
            rhs(t + dt, stage, xd4, d4)
            # x + sixth * (k1 + 2 * k2 + 2 * k3 + k4), in that order
            mul(2, k2, k2)
            add(k1, k2, k1)
            mul(2, k3, k3)
            add(k1, k3, k1)
            add(k1, k4, k1)
            mul(sixth, k1, k1)
            add(x, k1, x)
        t += dt
        xs[n] = x
    return DdeBatchSolution(ts, xs)
