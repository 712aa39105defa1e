"""Fixed-step integrator for delay differential equations (DDEs).

The paper's Section 5 analyses PERT with a fluid model of the form

    x'(t) = f(t, x(t), x(t - R))

with one constant delay R, the *lag*.  We integrate with classical RK4
over a fixed grid, evaluating the delayed state by linear interpolation
in the stored solution — the method-of-steps approach Matlab's ``dde23``
uses, simplified to a fixed step.  Before ``t0`` the history is the
constant initial state, matching the paper's simulations which start
from a constant initial point.

Three entry points share the grid, the arithmetic and one plan of the
delayed state:

* :func:`integrate_dde_floats` — one system, the **float contract**: the
  state and the delayed state are tuples of Python floats and the rhs
  returns a tuple or list.  This is the scalar kernel — the only
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
  :func:`repro.fluid.model.equations`), one model at a time or many
  into one buffer (:func:`repro.fluid.model.simulate_batch`);
  :func:`equations_rhs` compiles the same block into the rhs that
  :func:`integrate_dde_floats` equals it with, bit for bit.
* :func:`integrate_dde` — one system, the **array contract**: ``(dim,)``
  float64 arrays in and out, so an rhs can be written ``A @ x``.  An
  adapter over the float kernel for everything that is not a registered
  model; it carries no stepping arithmetic of its own.

The two contracts agree bit for bit — the property
``tests/fluid/test_equations.py`` and
``tests/fluid/test_trajectory_pins.py`` pin exactly.

The delayed state (``xd`` in ``rhs(t, x, xd)``)
-----------------------------------------------
* **The kernel computes it**: ``xd = x(t - lag)`` for the *lag* declared
  to the kernel (``None`` for an ODE, whose rhs then gets ``xd = None``).
  Between grid points it is ``x_lo * (1 - f) + x_hi * f`` on exactly the
  interval ``searchsorted`` would pick.
* **One plan**: :func:`_resolve` is the only implementation of that
  rule.  Over a chunk of steps at once, vectorised over the steps, it
  finds each query's interval — a uniform-grid guess, corrected by a
  one-ulp fix-up (the grid is built by repeated ``t += dt``) — and its
  weight ``f``, or marks the query as a row to copy.  The kernel reads
  the plan's ring slots, weights and edge flags through memoryviews and
  interpolates inline.  An RK4 step plans two queries, at
  ``t + dt/2 - lag`` and ``t + dt - lag``; the latter row is the next
  step's ``t - lag`` and carries over unless it was end-clamped, when
  k1's query is planned again.  Euler plans one.
* **Before ``t0``** it is ``x0``; **at or past the last stored row**
  (a lag shorter than the step: RK4's later stages look past the stored
  history) it holds that row.
* **It cannot be modified**: a tuple in the float contract, an array
  with ``writeable=False`` in the array contract.  An rhs that needs to
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
    "Equations",
    "equations_rhs",
    "integrate_dde",
    "integrate_dde_floats",
    "integrate_equations",
]

#: Steps a plan chunk covers.  A chunk's plan takes ≈ 80 bytes a step
#: while it is resolved, beside an O(R/dt) ring of rows and the kernel's
#: code: a 60 s run at R = 171 ms that compiles its kernel peaks ≈ 60 KB
#: above its solution arrays at 160 steps, ≈ 67 KB at 256 (64 KB is the
#: bound).  Each chunk costs 50-70 µs of numpy calls, so fewer, longer
#: chunks are faster.
_PLAN_STEPS = 160


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
        2-D array, shape ``(len(t), dim)``; ``(len(t), B, dim)`` for B
        members stepped on one grid
        (:func:`repro.fluid.model.simulate_batch`).
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
        """Component *i* over the grid (of every member, ``(len(t), B)``)."""
        return self.y[..., i]


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
# the plan of the delayed state
# ----------------------------------------------------------------------
def _resolve(q: np.ndarray, steps: np.ndarray, ts: np.ndarray,
             dt: float) -> tuple:
    """Where a chunk of delayed-time queries reads the stored solution.

    ``q[c]`` is made at step ``steps[c]`` (row ``steps[c]`` is the
    newest stored).  Returns ``(lo, hi, f, edge)``, each indexed ``[c]``:
    the two rows, the weight ``f`` of row ``hi`` (``1 - f`` is row
    ``lo``'s), and the mask of boundary entries — pre-history or
    end-clamped, ``lo == hi`` the row to copy.
    """
    t0 = ts[0]
    end = q >= ts[steps]
    edge = q <= t0
    edge |= end
    guess = q - t0
    guess /= dt
    np.maximum(guess, 0, out=guess)  # pre-history: row 0
    np.minimum(guess, len(ts) - 2, out=guess)
    lo = guess.astype(np.intp)
    del guess  # the dels hold a chunk to four of its arrays at a time
    after = ts[1:]  # row lo + 1's time is after[lo]
    t_lo, t_hi = ts[lo], after[lo]
    # one-ulp fix-up to t_lo < q <= t_hi (interior entries), gathering
    # into the same two arrays; lo stays in range, "clip" only spares
    # ``take`` a buffered copy
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
        ts.take(lo, 0, t_lo, "clip")
        after.take(lo, 0, t_hi, "clip")
    t_hi -= t_lo
    frac = np.subtract(q, t_lo, out=t_lo)
    frac /= t_hi
    del t_lo, t_hi
    np.copyto(frac, 0.0, where=edge)
    np.copyto(lo, steps, where=end)  # pre-history entries are at row 0
    hi = lo + 1
    np.copyto(hi, lo, where=edge)
    return lo, hi, frac, edge


def _plan(ts: np.ndarray, lag: float, dt: float, euler: bool):
    """Yield the delayed-state plan of each chunk of steps.

    A chunk is ``(main, fresh, redo)``.  ``main`` lists :func:`_resolve`
    of each query the chunk's steps make for their own stages, one query
    at a time: Euler's ``t - lag``; RK4's ``t + dt/2 - lag``, then
    ``t + dt - lag``.  RK4's k1 reuses the previous step's
    ``t + dt - lag`` row unless that row was end-clamped: ``fresh`` masks
    the steps where it was, and ``redo`` resolves ``t - lag`` at those
    steps (``None`` without one; Euler has neither).  A chunk is
    :data:`_PLAN_STEPS` steps, so a plan is O(chunk), never O(steps); a
    chunk is not referenced here once it is yielded.
    """
    n_steps = len(ts) - 1
    for first in range(0, n_steps, _PLAN_STEPS):
        yield _plan_chunk(ts, lag, dt, euler,
                          np.arange(first, min(first + _PLAN_STEPS, n_steps)))


def _plan_chunk(ts, lag, dt, euler, steps):
    """One chunk of :func:`_plan`, for the consecutive *steps*."""
    first, stop = steps[0], steps[-1] + 1
    t = ts[first:stop]
    q1 = t - lag
    if euler:
        return [_resolve(q1, steps, ts, dt)], None, None
    # step 0 compares with ts[-1], the last grid time: never fresh
    fresh = q1 >= ts[steps - 1]
    redo = _resolve(q1[fresh], steps[fresh], ts, dt) if fresh.any() else None
    del q1
    mid = _resolve((t + dt / 2) - lag, steps, ts, dt)
    end = _resolve(ts[first + 1:stop + 1] - lag, steps, ts, dt)
    return [mid, end], fresh, redo


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


def _compile(make_source: Callable[[], str], filename: str,
             name: str) -> Callable:
    """The function *name* of the source *make_source* returns.

    The source is registered with ``linecache`` lazily: only
    *make_source* is kept, and a traceback through the generated code
    calls it again for the lines it shows.  ``linecache`` ignores any
    name of the form ``<...>``, so *filename* has no angle brackets.
    """
    linecache.cache[filename] = (make_source,)
    namespace: dict = {}
    exec(compile(make_source(), filename, "exec"), namespace)
    return namespace[name]


def _kernel_source(dim: int, block: Optional[Equations]) -> str:
    return _hooks(_TEMPLATE_FIELD.sub(
        lambda m: _per_component(m[1], dim), _FLOAT_KERNEL), dim, block)


@functools.lru_cache(maxsize=None)
def _float_kernel(dim: int, block: Optional[Equations] = None) -> Callable:
    """The template's ``step`` compiled for *dim* components, calling an
    rhs per stage (*block* ``None``) or stepping *block*'s statements.

    Generated on first use, the way ``dataclasses`` writes ``__init__``.
    """
    label = "" if block is None else f", {block.name}"
    return _compile(functools.partial(_kernel_source, dim, block),
                    f"repro.fluid.dde float kernel, dim={dim}{label}", "step")


def _rhs_source(block: Equations) -> str:
    return (f"def bind({', '.join(block.params)}):\n"
            f"    def rhs(t, x, xd):\n"
            f"        {_display(block.state)} = x\n"
            + _indent(block.delayed, " " * 8) + _indent(block.stage, " " * 8)
            + f"        return {_display(block.derivative)}\n"
            f"    return rhs\n")


@functools.lru_cache(maxsize=None)
def equations_rhs(block: Equations) -> Callable:
    """``bind(*constants)``, returning *block* as a float-contract
    ``rhs(t, x, xd)``: its delayed then its stage statements."""
    return _compile(functools.partial(_rhs_source, block),
                    f"repro.fluid.dde rhs, {block.name}", "bind")


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
        return [memoryview(lo), memoryview(hi), memoryview(frac),
                memoryview(edge)]

    def chunk(main, fresh, redo):
        rows = [view for plan in main for view in lookups(plan)]
        if fresh is not None:
            rows.insert(0, memoryview(fresh))
        return zip(*rows), None if redo is None else zip(*lookups(redo))

    return starmap(chunk, _plan(ts, lag, dt, euler))


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


def _integrate(block, rhs, x0, t_span, dt, method, lag,
               out: Optional[DdeSolution] = None) -> DdeSolution:
    """Both float entry points: the grid, the ring and the plan around
    the kernel that calls *rhs* (*block* ``None``) or steps *block*
    (*rhs* then holds its constants).

    *out*, when given, is returned filled: its ``t`` is this problem's
    grid and its ``y`` the C-contiguous ``(len(t), dim)`` rows to write,
    so a caller stepping many systems on one grid allocates nothing per
    system but its plan and ring.
    """
    t, n_steps, euler = _check_problem(t_span, dt, method, lag)
    start = tuple([float(v) for v in x0])
    # generated before the solution arrays exist, so compiling a new
    # kernel never adds to a run's peak memory
    step = _float_kernel(len(start), block)
    if out is None:
        out = DdeSolution(_grid(t, dt, n_steps),
                          np.empty((n_steps + 1, len(start))))
    ts, xs = out.t, out.y
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
    return out


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
