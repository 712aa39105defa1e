/* _core.c — C implementations of the ArraySimulator hot methods.
 *
 * This module is the "cext" tier of repro.compiled: a hand-written
 * CPython extension that replaces the six hottest methods of
 * repro.sim.engine.ArraySimulator (run, schedule, schedule_at,
 * schedule_fire, schedule_fire1, advance_if_clear) with C code that is
 * a line-by-line transliteration of the pure-Python bodies.
 *
 * Bit-identity is the design constraint, not a goal to approximate:
 *
 *   - All time comparisons go through PyObject_RichCompareBool, so
 *     int/float mixed comparisons behave exactly as in Python.
 *   - Event times are computed with PyNumber_Add(self.now, delay) —
 *     the same object-level float addition the interpreter performs.
 *   - The heap is the same plain Python list of tuples, manipulated by
 *     an exact clone of CPython's heapq sift algorithms (including the
 *     mutation-during-comparison guards), so heap layout and pop order
 *     are identical to heapq's.
 *   - Error messages reuse the pure engine's f-string wording via
 *     PyUnicode_FromFormat with %R.
 *   - self.now / self._live are written before each dispatch (callbacks
 *     read them), events_processed is batched into the finally block,
 *     and the inline-dispatch window (_horizon/_ninline) follows the
 *     exact open/close rules of ArraySimulator.run.
 *   - A popped entry whose seq is not its handle's is a wake-up left by
 *     ArraySimulator.reschedule (inherited, pure Python): the run loop
 *     pushes it back under the handle's current key, uncounted, exactly
 *     as the pure loop does (classify_handle_entry).
 *
 * Performance notes
 * -----------------
 * The engine state stays in the ordinary Python __slots__ of the
 * instance (that is what keeps the compiled and pure builds freely
 * interchangeable, snapshot-compatible, and diffable), so the naive
 * approach is PyObject_GetAttr/SetAttr per field.  Measured on CPython
 * 3.11 that is a *pessimisation*: the specializing interpreter compiles
 * `self._seq` down to a direct slot load (LOAD_ATTR_SLOT), while
 * C-side GetAttr takes the generic lookup path every time — the first
 * cut of this file benchmarked ~2x *slower* than pure Python.  So
 * setup() extracts the member-descriptor offsets of every hot slot
 * once, and the hot paths below read and write the slots directly
 * ((PyObject **)((char *)self + offset)), which is exactly the memory
 * access the specialized bytecode performs.  Counter updates
 * (_seq/_live/_ninline/events_processed) use PyLong_AsSsize_t +
 * PyLong_FromSsize_t fast math with a PyNumber_Add fallback for
 * arbitrary-width values, which preserves exact int semantics.
 *
 * The functions here take `self` explicitly as their first argument and
 * are exported wrapped in PyInstanceMethod_New, so assigning them in a
 * Python class body makes them bind like normal methods.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#if PY_VERSION_HEX < 0x030c0000
#include <structmember.h>
#endif

/* ------------------------------------------------------------------ */
/* module state (registered once via setup() from repro.compiled.engine) */

static PyObject *g_sim_cls = NULL;       /* CompiledSimulator */
static PyObject *g_event_cls = NULL;     /* repro.sim.engine.Event */
static PyObject *g_sim_error = NULL;     /* repro.sim.engine.SimulationError */
static PyObject *g_fallback_run = NULL;  /* ArraySimulator.run (pure) */

static PyObject *g_inf = NULL;           /* float('inf') */
static PyObject *g_neg_inf = NULL;       /* float('-inf') */
static PyObject *g_zero_f = NULL;        /* 0.0 */
static PyObject *g_zero_i = NULL;        /* 0 */

/* simulator slot offsets, filled in by setup() */
static Py_ssize_t o_now = -1;
static Py_ssize_t o_seq = -1;
static Py_ssize_t o_live = -1;
static Py_ssize_t o_running = -1;
static Py_ssize_t o_profiler = -1;
static Py_ssize_t o_events_processed = -1;
static Py_ssize_t o_heap = -1;
static Py_ssize_t o_horizon = -1;
static Py_ssize_t o_ninline = -1;

/* Event slot offsets */
static Py_ssize_t o_ev_time = -1;
static Py_ssize_t o_ev_seq = -1;
static Py_ssize_t o_ev_fn = -1;
static Py_ssize_t o_ev_args = -1;
static Py_ssize_t o_ev_cancelled = -1;
static Py_ssize_t o_ev_fired = -1;
static Py_ssize_t o_ev_qtime = -1;

static PyObject *s_dispatch = NULL;      /* "dispatch" (profiler attr) */

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* borrowed-reference slot read; raises AttributeError on an unset slot */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off, const char *name)
{
    PyObject *v = SLOT(obj, off);
    if (v == NULL)
        PyErr_SetString(PyExc_AttributeError, name);
    return v;
}

/* slot write: steal nothing, drop the old value */
static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(v);
    SLOT(obj, off) = v;
    Py_XDECREF(old);
}

/* self.<slot> += delta with exact Python-int semantics: fast ssize_t
 * math for machine-width values, PyNumber_Add for anything wider */
static int
slot_add(PyObject *obj, Py_ssize_t off, Py_ssize_t delta, const char *name)
{
    PyObject *cur = slot_get(obj, off, name);
    PyObject *nw;

    if (cur == NULL)
        return -1;
    if (PyLong_CheckExact(cur)) {
        Py_ssize_t v = PyLong_AsSsize_t(cur);
        if (v != -1 || !PyErr_Occurred()) {
            nw = PyLong_FromSsize_t(v + delta);
            if (nw == NULL)
                return -1;
            SLOT(obj, off) = nw;
            Py_DECREF(cur);
            return 0;
        }
        PyErr_Clear();  /* wider than Py_ssize_t: take the object path */
    }
    {
        PyObject *d = PyLong_FromSsize_t(delta);
        if (d == NULL)
            return -1;
        nw = PyNumber_Add(cur, d);
        Py_DECREF(d);
        if (nw == NULL)
            return -1;
        SLOT(obj, off) = nw;
        Py_DECREF(cur);
        return 0;
    }
}

/* the `self` every exported method requires: an instance of the class
 * whose slot offsets setup() extracted */
static int
check_self(PyObject *self)
{
    if (g_sim_cls == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro.compiled._core used before setup() — import "
                        "it through repro.compiled.engine");
        return -1;
    }
    if (!PyObject_TypeCheck(self, (PyTypeObject *)g_sim_cls)) {
        PyErr_Format(PyExc_TypeError,
                     "compiled engine method bound to %.100s instance "
                     "(expected a CompiledSimulator)",
                     Py_TYPE(self)->tp_name);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* heapq clone — same algorithm as Modules/_heapqmodule.c, including
 * the list-mutated-during-comparison guards, so heap layout matches
 * the pure engine's heapq usage exactly. */

/* a < b for heap entries.  Entries are `(time, seq, ...)` tuples whose
 * first element is (almost always) an exact float and whose second is a
 * unique exact int, so `tuple.__lt__` decides at element 0 or 1 — never
 * deeper.  The fast path replays exactly that: C double compare (same
 * semantics as float_richcompare, including -0.0 == 0.0) and, on a
 * time tie, the seq ints.  Anything else — non-float times, equal seqs
 * (impossible by construction, but be exact) — falls through to the
 * generic rich compare, which raises the same errors pure Python would. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b) &&
        PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0);
        PyObject *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double va = PyFloat_AS_DOUBLE(ta);
            double vb = PyFloat_AS_DOUBLE(tb);
            if (va != vb)
                return va < vb;
            PyObject *sa = PyTuple_GET_ITEM(a, 1);
            PyObject *sb = PyTuple_GET_ITEM(b, 1);
            if (PyLong_CheckExact(sa) && PyLong_CheckExact(sb)) {
                Py_ssize_t ia = PyLong_AsSsize_t(sa);
                if (ia == -1 && PyErr_Occurred())
                    PyErr_Clear();
                else {
                    Py_ssize_t ib = PyLong_AsSsize_t(sb);
                    if (ib == -1 && PyErr_Occurred())
                        PyErr_Clear();
                    else if (ia != ib)
                        return ia < ib;
                }
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem, *parent;
    Py_ssize_t parentpos, size;
    int cmp;

    size = PyList_GET_SIZE(heap);
    if (pos >= size) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return -1;
    }
    while (pos > startpos) {
        parentpos = (pos - 1) >> 1;
        newitem = PyList_GET_ITEM(heap, pos);
        parent = PyList_GET_ITEM(heap, parentpos);
        Py_INCREF(newitem);
        Py_INCREF(parent);
        cmp = entry_lt(newitem, parent);
        Py_DECREF(parent);
        Py_DECREF(newitem);
        if (cmp < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "list changed size during iteration");
            return -1;
        }
        if (cmp == 0)
            break;
        parent = PyList_GET_ITEM(heap, parentpos);
        newitem = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, parentpos, newitem);
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t startpos, endpos, childpos, limit;
    PyObject *tmp1, *tmp2;
    int cmp;

    endpos = PyList_GET_SIZE(heap);
    startpos = pos;
    if (pos >= endpos) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return -1;
    }
    limit = endpos >> 1;  /* smallest pos that has no child */
    while (pos < limit) {
        childpos = 2 * pos + 1;  /* leftmost child position */
        if (childpos + 1 < endpos) {
            PyObject *a = PyList_GET_ITEM(heap, childpos);
            PyObject *b = PyList_GET_ITEM(heap, childpos + 1);
            Py_INCREF(a);
            Py_INCREF(b);
            cmp = entry_lt(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (cmp < 0)
                return -1;
            if (endpos != PyList_GET_SIZE(heap)) {
                PyErr_SetString(PyExc_RuntimeError,
                                "list changed size during iteration");
                return -1;
            }
            childpos += ((unsigned)cmp ^ 1);  /* increment when cmp==0 */
        }
        /* Move the smaller child up. */
        tmp1 = PyList_GET_ITEM(heap, childpos);
        tmp2 = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, childpos, tmp2);
        PyList_SET_ITEM(heap, pos, tmp1);
        pos = childpos;
    }
    /* Bubble it up to its final resting place (by sifting its parents
     * down). */
    return heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) != 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Caller guarantees the heap is a non-empty list. */
static PyObject *
heap_pop(PyObject *heap)
{
    PyObject *lastelt, *returnitem;
    Py_ssize_t n = PyList_GET_SIZE(heap);

    lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) != 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) == 0)
        return lastelt;
    returnitem = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, lastelt);  /* old heap[0] ref now ours */
    if (heap_siftup(heap, 0) != 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

/* ------------------------------------------------------------------ */
/* small helpers */

/* replicate `0.0 <= x < inf`: 1 true, 0 false, -1 error (e.g. the
 * TypeError an unorderable delay raises in pure Python).  Fast path for
 * exact floats — the universal case — mirroring the interpreter's
 * float-compare specialization; everything else takes the generic
 * rich-compare route. */
static int
finite_nonneg(PyObject *x)
{
    int c;

    if (PyFloat_CheckExact(x)) {
        double v = PyFloat_AS_DOUBLE(x);
        return v >= 0.0 && v < Py_HUGE_VAL;  /* NaN fails both, like Python */
    }
    c = PyObject_RichCompareBool(g_zero_f, x, Py_LE);
    if (c <= 0)
        return c;
    return PyObject_RichCompareBool(x, g_inf, Py_LT);
}

static PyObject *
raise_bad_delay(PyObject *delay)
{
    PyObject *msg = PyUnicode_FromFormat(
        "bad delay %R: must be finite and >= 0", delay);
    if (msg != NULL) {
        PyErr_SetObject(g_sim_error, msg);
        Py_DECREF(msg);
    }
    return NULL;
}

/* Consume one sequence number and bump the live-event count, exactly
 * like `seq = self._seq; self._seq = seq + 1; self._live += 1`.
 * Returns a new reference to the claimed seq, or NULL. */
static PyObject *
claim_seq(PyObject *self)
{
    PyObject *seq = slot_get(self, o_seq, "_seq");

    if (seq == NULL)
        return NULL;
    Py_INCREF(seq);
    if (slot_add(self, o_seq, 1, "_seq") != 0 ||
        slot_add(self, o_live, 1, "_live") != 0) {
        Py_DECREF(seq);
        return NULL;
    }
    return seq;
}

/* `self.now + delay` — fast float path, object path otherwise */
static PyObject *
time_after(PyObject *self, PyObject *delay)
{
    PyObject *now = slot_get(self, o_now, "now");

    if (now == NULL)
        return NULL;
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(delay))
        return PyFloat_FromDouble(PyFloat_AS_DOUBLE(now) +
                                  PyFloat_AS_DOUBLE(delay));
    return PyNumber_Add(now, delay);
}

/* ------------------------------------------------------------------ */
/* scheduling primitives */

static PyObject *
c_schedule_fire1(PyObject *Py_UNUSED(mod), PyObject *const *args,
                 Py_ssize_t nargs)
{
    PyObject *self, *delay, *fn, *arg;
    PyObject *tm, *seq, *entry, *heap;
    int ok, r;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "schedule_fire1() takes 3 arguments (%zd given)",
                     nargs - 1);
        return NULL;
    }
    self = args[0];
    delay = args[1];
    fn = args[2];
    arg = args[3];
    if (check_self(self) != 0)
        return NULL;

    ok = finite_nonneg(delay);
    if (ok < 0)
        return NULL;
    if (!ok)
        return raise_bad_delay(delay);

    seq = claim_seq(self);
    if (seq == NULL)
        return NULL;
    tm = time_after(self, delay);
    if (tm == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    entry = PyTuple_Pack(4, tm, seq, fn, arg);
    Py_DECREF(tm);
    Py_DECREF(seq);
    if (entry == NULL)
        return NULL;
    heap = slot_get(self, o_heap, "_heap");
    if (heap == NULL || !PyList_Check(heap)) {
        Py_DECREF(entry);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_heap must be a list");
        return NULL;
    }
    Py_INCREF(heap);
    r = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    if (r != 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
c_schedule_fire(PyObject *Py_UNUSED(mod), PyObject *const *args,
                Py_ssize_t nargs)
{
    PyObject *self, *delay, *fn;
    PyObject *tm, *seq, *entry, *heap, *rest;
    int ok, r;

    if (nargs < 3) {
        PyErr_Format(PyExc_TypeError,
                     "schedule_fire() requires delay and fn (%zd args given)",
                     nargs - 1);
        return NULL;
    }
    self = args[0];
    delay = args[1];
    fn = args[2];
    if (check_self(self) != 0)
        return NULL;

    ok = finite_nonneg(delay);
    if (ok < 0)
        return NULL;
    if (!ok)
        return raise_bad_delay(delay);

    seq = claim_seq(self);
    if (seq == NULL)
        return NULL;
    tm = time_after(self, delay);
    if (tm == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    if (nargs == 4) {
        /* single-argument shape → flat 4-tuple entry */
        entry = PyTuple_Pack(4, tm, seq, fn, args[3]);
    }
    else {
        rest = PyTuple_New(nargs - 3);
        if (rest == NULL) {
            Py_DECREF(tm);
            Py_DECREF(seq);
            return NULL;
        }
        for (Py_ssize_t i = 3; i < nargs; i++) {
            Py_INCREF(args[i]);
            PyTuple_SET_ITEM(rest, i - 3, args[i]);
        }
        entry = PyTuple_Pack(5, tm, seq, fn, rest, Py_None);
        Py_DECREF(rest);
    }
    Py_DECREF(tm);
    Py_DECREF(seq);
    if (entry == NULL)
        return NULL;
    heap = slot_get(self, o_heap, "_heap");
    if (heap == NULL || !PyList_Check(heap)) {
        Py_DECREF(entry);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_heap must be a list");
        return NULL;
    }
    Py_INCREF(heap);
    r = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    if (r != 0)
        return NULL;
    Py_RETURN_NONE;
}

/* shared tail of schedule()/schedule_at(): build the Event, push the
 * 5-tuple entry, return the Event */
static PyObject *
schedule_event_common(PyObject *self, PyObject *tm, PyObject *fn,
                      PyObject *const *extra, Py_ssize_t nextra)
{
    PyObject *seq, *cargs, *ev, *entry, *heap;
    int r;

    seq = claim_seq(self);
    if (seq == NULL)
        return NULL;
    cargs = PyTuple_New(nextra);
    if (cargs == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nextra; i++) {
        Py_INCREF(extra[i]);
        PyTuple_SET_ITEM(cargs, i, extra[i]);
    }
    ev = PyObject_CallFunctionObjArgs(g_event_cls, tm, seq, fn, cargs,
                                      self, NULL);
    if (ev == NULL) {
        Py_DECREF(cargs);
        Py_DECREF(seq);
        return NULL;
    }
    entry = PyTuple_Pack(5, tm, seq, fn, cargs, ev);
    Py_DECREF(cargs);
    Py_DECREF(seq);
    if (entry == NULL) {
        Py_DECREF(ev);
        return NULL;
    }
    heap = slot_get(self, o_heap, "_heap");
    if (heap == NULL || !PyList_Check(heap)) {
        Py_DECREF(entry);
        Py_DECREF(ev);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_heap must be a list");
        return NULL;
    }
    Py_INCREF(heap);
    r = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    if (r != 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return ev;
}

static PyObject *
c_schedule(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *delay, *fn, *tm, *ev;
    int ok;

    if (nargs < 3) {
        PyErr_Format(PyExc_TypeError,
                     "schedule() requires delay and fn (%zd args given)",
                     nargs - 1);
        return NULL;
    }
    self = args[0];
    delay = args[1];
    fn = args[2];
    if (check_self(self) != 0)
        return NULL;

    ok = finite_nonneg(delay);
    if (ok < 0)
        return NULL;
    if (!ok)
        return raise_bad_delay(delay);

    tm = time_after(self, delay);
    if (tm == NULL)
        return NULL;
    ev = schedule_event_common(self, tm, fn, args + 3, nargs - 3);
    Py_DECREF(tm);
    return ev;
}

static PyObject *
c_schedule_at(PyObject *Py_UNUSED(mod), PyObject *const *args,
              Py_ssize_t nargs)
{
    PyObject *self, *tm, *fn, *now;
    int ok;

    if (nargs < 3) {
        PyErr_Format(PyExc_TypeError,
                     "schedule_at() requires time and fn (%zd args given)",
                     nargs - 1);
        return NULL;
    }
    self = args[0];
    tm = args[1];
    fn = args[2];
    if (check_self(self) != 0)
        return NULL;

    now = slot_get(self, o_now, "now");
    if (now == NULL)
        return NULL;
    Py_INCREF(now);
    /* replicate `self.now <= time < inf` */
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(tm)) {
        double vn = PyFloat_AS_DOUBLE(now), vt = PyFloat_AS_DOUBLE(tm);
        ok = vn <= vt && vt < Py_HUGE_VAL;
    }
    else {
        ok = PyObject_RichCompareBool(now, tm, Py_LE);
        if (ok > 0)
            ok = PyObject_RichCompareBool(tm, g_inf, Py_LT);
        if (ok < 0) {
            Py_DECREF(now);
            return NULL;
        }
    }
    if (!ok) {
        PyObject *msg = PyUnicode_FromFormat(
            "bad time %R: must be finite and >= now %R", tm, now);
        Py_DECREF(now);
        if (msg != NULL) {
            PyErr_SetObject(g_sim_error, msg);
            Py_DECREF(msg);
        }
        return NULL;
    }
    Py_DECREF(now);
    return schedule_event_common(self, tm, fn, args + 3, nargs - 3);
}

/* ------------------------------------------------------------------ */
/* inline-dispatch claim */

static PyObject *
c_advance_if_clear(PyObject *Py_UNUSED(mod), PyObject *const *args,
                   Py_ssize_t nargs)
{
    PyObject *self, *tm, *hor, *heap;
    int cmp;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "advance_if_clear() takes 1 argument (%zd given)",
                     nargs - 1);
        return NULL;
    }
    self = args[0];
    tm = args[1];
    if (check_self(self) != 0)
        return NULL;

    hor = slot_get(self, o_horizon, "_horizon");
    if (hor == NULL)
        return NULL;
    if (PyFloat_CheckExact(tm) && PyFloat_CheckExact(hor)) {
        cmp = PyFloat_AS_DOUBLE(tm) > PyFloat_AS_DOUBLE(hor);
    }
    else {
        cmp = PyObject_RichCompareBool(tm, hor, Py_GT);
        if (cmp < 0)
            return NULL;
    }
    if (cmp)
        Py_RETURN_FALSE;

    heap = slot_get(self, o_heap, "_heap");
    if (heap == NULL || !PyList_Check(heap)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_heap must be a list");
        return NULL;
    }
    if (PyList_GET_SIZE(heap) > 0) {
        PyObject *head = PyList_GET_ITEM(heap, 0);
        PyObject *h0;
        if (!PyTuple_Check(head) || PyTuple_GET_SIZE(head) < 1) {
            PyErr_SetString(PyExc_TypeError, "heap entries must be tuples");
            return NULL;
        }
        h0 = PyTuple_GET_ITEM(head, 0);
        if (PyFloat_CheckExact(h0) && PyFloat_CheckExact(tm)) {
            cmp = PyFloat_AS_DOUBLE(h0) <= PyFloat_AS_DOUBLE(tm);
        }
        else {
            cmp = PyObject_RichCompareBool(h0, tm, Py_LE);
            if (cmp < 0)
                return NULL;
        }
        if (cmp)
            Py_RETURN_FALSE;
    }
    slot_set(self, o_now, tm);
    if (slot_add(self, o_seq, 1, "_seq") != 0 ||
        slot_add(self, o_ninline, 1, "_ninline") != 0)
        return NULL;
    Py_RETURN_TRUE;
}

/* ------------------------------------------------------------------ */
/* the run loop */

/* `ev.<name>` as a new reference: direct slot read for real Events, the
 * attribute protocol for anything else riding in a hand-built entry */
static PyObject *
ev_get(PyObject *ev, Py_ssize_t off, const char *name)
{
    PyObject *v;

    if (!PyObject_TypeCheck(ev, (PyTypeObject *)g_event_cls))
        return PyObject_GetAttrString(ev, name);
    v = slot_get(ev, off, name);
    Py_XINCREF(v);
    return v;
}

/* `ev.<name> = v` */
static int
ev_set(PyObject *ev, Py_ssize_t off, const char *name, PyObject *v)
{
    if (!PyObject_TypeCheck(ev, (PyTypeObject *)g_event_cls))
        return PyObject_SetAttrString(ev, name, v);
    slot_set(ev, off, v);
    return 0;
}

enum { EV_FIRE, EV_DROP, EV_REKEY };

/* What to do with a popped entry that carries the handle `ev`, exactly
 * as the pure loop decides it: a cancelled handle owns no entry any more
 * (`_qtime = inf`) and the entry is dropped; an entry whose seq is not
 * the handle's is a reschedule() wake-up and is pushed back under the
 * handle's current key (`_qtime = ev.time`); otherwise it fires.
 * Returns one of the codes above, or -1 with an exception set. */
static int
classify_handle_entry(PyObject *heap, PyObject *entry, PyObject *ev)
{
    PyObject *v, *seq, *tm = NULL, *fn = NULL, *cargs = NULL, *fresh = NULL;
    int r;

    v = ev_get(ev, o_ev_cancelled, "cancelled");
    if (v == NULL)
        return -1;
    r = PyObject_IsTrue(v);
    Py_DECREF(v);
    if (r < 0)
        return -1;
    if (r)
        return ev_set(ev, o_ev_qtime, "_qtime", g_inf) != 0 ? -1 : EV_DROP;

    seq = ev_get(ev, o_ev_seq, "seq");
    if (seq == NULL)
        return -1;
    /* identical objects (the never-rescheduled case) short-circuit */
    r = PyObject_RichCompareBool(PyTuple_GET_ITEM(entry, 1), seq, Py_NE);
    if (r <= 0) {
        Py_DECREF(seq);
        return r < 0 ? -1 : EV_FIRE;
    }

    r = -1;
    if ((tm = ev_get(ev, o_ev_time, "time")) != NULL &&
        (fn = ev_get(ev, o_ev_fn, "fn")) != NULL &&
        (cargs = ev_get(ev, o_ev_args, "args")) != NULL &&
        (fresh = PyTuple_Pack(5, tm, seq, fn, cargs, ev)) != NULL &&
        ev_set(ev, o_ev_qtime, "_qtime", tm) == 0 &&
        heap_push(heap, fresh) == 0)
        r = EV_REKEY;
    Py_DECREF(seq);
    Py_XDECREF(tm);
    Py_XDECREF(fn);
    Py_XDECREF(cargs);
    Py_XDECREF(fresh);
    return r;
}

static PyObject *
c_run(PyObject *Py_UNUSED(mod), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"self", "until", "max_events", NULL};
    PyObject *self, *until = Py_None, *max_events = Py_None;
    PyObject *running, *profiler, *heap = NULL, *horizon = NULL;
    Py_ssize_t budget = -1, processed = 0;
    int is_running, failed = 0, float_horizon;
    double horizon_d = 0.0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|OO:run", kwlist,
                                     &self, &until, &max_events))
        return NULL;
    if (check_self(self) != 0)
        return NULL;

    if (max_events != Py_None) {
        budget = PyLong_AsSsize_t(max_events);
        if (budget == -1 && PyErr_Occurred()) {
            /* exotic budget type (e.g. a float) — the pure loop handles
             * it with Python `==` semantics; delegate rather than guess */
            PyErr_Clear();
            return PyObject_CallFunctionObjArgs(g_fallback_run, self, until,
                                                max_events, NULL);
        }
    }

    running = slot_get(self, o_running, "_running");
    if (running == NULL)
        return NULL;
    is_running = PyObject_IsTrue(running);
    if (is_running < 0)
        return NULL;
    if (is_running) {
        PyErr_SetString(g_sim_error, "run() is not reentrant");
        return NULL;
    }
    slot_set(self, o_running, Py_True);

    /* Everything below must flow through the `finally` tail. */
    profiler = slot_get(self, o_profiler, "profiler");
    if (profiler == NULL) {
        failed = 1;
        goto finally;
    }
    Py_INCREF(profiler);
    heap = slot_get(self, o_heap, "_heap");
    if (heap == NULL || !PyList_Check(heap)) {
        heap = NULL;
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_heap must be a list");
        failed = 1;
        goto finally;
    }
    Py_INCREF(heap);
    horizon = (until == Py_None) ? g_inf : until;
    Py_INCREF(horizon);
    float_horizon = PyFloat_CheckExact(horizon);
    if (float_horizon)
        horizon_d = PyFloat_AS_DOUBLE(horizon);

    if (budget < 0 && profiler == Py_None) {
        /* Open the inline-dispatch window for advance_if_clear(). */
        slot_set(self, o_horizon, horizon);
    }

    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *entry, *tm, *fn, *res = NULL, *ev = NULL;
        Py_ssize_t width;
        int cmp;

        entry = heap_pop(heap);
        if (entry == NULL) {
            failed = 1;
            break;
        }
        if (!PyTuple_Check(entry)) {
            Py_DECREF(entry);
            PyErr_SetString(PyExc_TypeError, "heap entries must be tuples");
            failed = 1;
            break;
        }
        width = PyTuple_GET_SIZE(entry);
        if (width != 4) {
            ev = PyTuple_GET_ITEM(entry, 4);  /* borrowed */
            if (ev != Py_None) {
                cmp = classify_handle_entry(heap, entry, ev);
                if (cmp < 0) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                if (cmp != EV_FIRE) {
                    Py_DECREF(entry);
                    continue;
                }
            }
        }
        tm = PyTuple_GET_ITEM(entry, 0);  /* borrowed */
        if (float_horizon && PyFloat_CheckExact(tm)) {
            cmp = PyFloat_AS_DOUBLE(tm) > horizon_d;
        }
        else {
            cmp = PyObject_RichCompareBool(tm, horizon, Py_GT);
            if (cmp < 0) {
                Py_DECREF(entry);
                failed = 1;
                break;
            }
        }
        if (cmp) {
            int r = heap_push(heap, entry);
            Py_DECREF(entry);
            if (r != 0)
                failed = 1;
            break;
        }
        slot_set(self, o_now, tm);
        if (slot_add(self, o_live, -1, "_live") != 0) {
            Py_DECREF(entry);
            failed = 1;
            break;
        }
        fn = PyTuple_GET_ITEM(entry, 2);  /* borrowed */
        if (width == 4) {
            PyObject *arg = PyTuple_GET_ITEM(entry, 3);
            if (profiler == Py_None) {
                res = PyObject_CallOneArg(fn, arg);
            }
            else {
                PyObject *tup = PyTuple_Pack(1, arg);
                if (tup != NULL) {
                    res = PyObject_CallMethodObjArgs(profiler, s_dispatch,
                                                     fn, tup, NULL);
                    Py_DECREF(tup);
                }
            }
        }
        else {
            PyObject *cargs = PyTuple_GET_ITEM(entry, 3);
            if (ev != Py_None &&
                ev_set(ev, o_ev_fired, "fired", Py_True) != 0) {
                Py_DECREF(entry);
                failed = 1;
                break;
            }
            if (profiler == Py_None) {
                res = PyObject_Call(fn, cargs, NULL);
            }
            else {
                res = PyObject_CallMethodObjArgs(profiler, s_dispatch,
                                                 fn, cargs, NULL);
            }
        }
        Py_DECREF(entry);
        if (res == NULL) {
            failed = 1;
            break;
        }
        Py_DECREF(res);
        processed++;
        if (processed == budget)
            break;
    }

    /* if until is not None and self.now < until: self.now = until */
    if (!failed && until != Py_None) {
        PyObject *nw = slot_get(self, o_now, "now");
        if (nw == NULL) {
            failed = 1;
        }
        else {
            int lt;
            if (PyFloat_CheckExact(nw) && PyFloat_CheckExact(until)) {
                lt = PyFloat_AS_DOUBLE(nw) < PyFloat_AS_DOUBLE(until);
            }
            else {
                lt = PyObject_RichCompareBool(nw, until, Py_LT);
                if (lt < 0)
                    failed = 1;
            }
            if (lt > 0)
                slot_set(self, o_now, until);
        }
    }

finally:
    {
        /* The `finally` tail: runs with any in-flight exception parked,
         * exactly like the pure engine's try/finally. */
        PyObject *et = NULL, *ev_ = NULL, *tb = NULL;

        PyErr_Fetch(&et, &ev_, &tb);

        slot_set(self, o_running, Py_False);
        slot_set(self, o_horizon, g_neg_inf);
        /* events_processed += processed + _ninline; _ninline = 0 */
        {
            PyObject *nin = SLOT(self, o_ninline);
            Py_ssize_t nin_v = (nin && PyLong_CheckExact(nin))
                                   ? PyLong_AsSsize_t(nin)
                                   : -1;
            if (nin_v >= 0 || !PyErr_Occurred()) {
                if (nin_v < 0)
                    nin_v = 0;  /* unset slot: nothing inline-dispatched */
                if (slot_add(self, o_events_processed,
                             processed + nin_v, "events_processed") != 0) {
                    if (et == NULL)
                        PyErr_Fetch(&et, &ev_, &tb);
                    else
                        PyErr_Clear();
                    failed = 1;
                }
                else {
                    slot_set(self, o_ninline, g_zero_i);
                }
            }
            else {
                PyErr_Clear();
            }
        }

        PyErr_Restore(et, ev_, tb);
    }
    Py_XDECREF(profiler);
    Py_XDECREF(heap);
    Py_XDECREF(horizon);
    if (failed || PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* registration */

static Py_ssize_t
slot_offset(PyObject *cls, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    Py_ssize_t off;

    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a __slots__ member (found %.100s)",
                     ((PyTypeObject *)cls)->tp_name, name,
                     Py_TYPE(descr)->tp_name);
        Py_DECREF(descr);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return off;
}

static PyObject *
c_setup(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *sim_cls, *event_cls, *sim_error, *fallback_run;

    if (!PyArg_ParseTuple(args, "OOOO:setup", &sim_cls, &event_cls,
                          &sim_error, &fallback_run))
        return NULL;
    if (!PyType_Check(sim_cls) || !PyType_Check(event_cls)) {
        PyErr_SetString(PyExc_TypeError,
                        "setup() expects (SimClass, Event, SimulationError, "
                        "fallback_run)");
        return NULL;
    }

    if ((o_now = slot_offset(sim_cls, "now")) < 0 ||
        (o_seq = slot_offset(sim_cls, "_seq")) < 0 ||
        (o_live = slot_offset(sim_cls, "_live")) < 0 ||
        (o_running = slot_offset(sim_cls, "_running")) < 0 ||
        (o_profiler = slot_offset(sim_cls, "profiler")) < 0 ||
        (o_events_processed = slot_offset(sim_cls, "events_processed")) < 0 ||
        (o_heap = slot_offset(sim_cls, "_heap")) < 0 ||
        (o_horizon = slot_offset(sim_cls, "_horizon")) < 0 ||
        (o_ninline = slot_offset(sim_cls, "_ninline")) < 0 ||
        (o_ev_time = slot_offset(event_cls, "time")) < 0 ||
        (o_ev_seq = slot_offset(event_cls, "seq")) < 0 ||
        (o_ev_fn = slot_offset(event_cls, "fn")) < 0 ||
        (o_ev_args = slot_offset(event_cls, "args")) < 0 ||
        (o_ev_cancelled = slot_offset(event_cls, "cancelled")) < 0 ||
        (o_ev_fired = slot_offset(event_cls, "fired")) < 0 ||
        (o_ev_qtime = slot_offset(event_cls, "_qtime")) < 0)
        return NULL;

    Py_INCREF(sim_cls);
    Py_XSETREF(g_sim_cls, sim_cls);
    Py_INCREF(event_cls);
    Py_XSETREF(g_event_cls, event_cls);
    Py_INCREF(sim_error);
    Py_XSETREF(g_sim_error, sim_error);
    Py_INCREF(fallback_run);
    Py_XSETREF(g_fallback_run, fallback_run);
    Py_RETURN_NONE;
}

static PyMethodDef core_methods[] = {
    {"setup", (PyCFunction)c_setup, METH_VARARGS,
     "setup(SimClass, Event, SimulationError, fallback_run) -- register "
     "the engine classes this extension dispatches through and extract "
     "their __slots__ offsets.  Called once by repro.compiled.engine at "
     "import."},
    {NULL, NULL, 0, NULL},
};

/* methods exported wrapped in PyInstanceMethod so class-body assignment
 * binds them like Python functions */
static PyMethodDef m_run = {
    "run", (PyCFunction)(void (*)(void))c_run,
    METH_VARARGS | METH_KEYWORDS,
    "run(until=None, max_events=None) -- C run loop, bit-identical to "
    "ArraySimulator.run."};
static PyMethodDef m_schedule = {
    "schedule", (PyCFunction)(void (*)(void))c_schedule, METH_FASTCALL,
    "schedule(delay, fn, *args) -> Event -- C fast path, bit-identical "
    "to ArraySimulator.schedule."};
static PyMethodDef m_schedule_at = {
    "schedule_at", (PyCFunction)(void (*)(void))c_schedule_at, METH_FASTCALL,
    "schedule_at(time, fn, *args) -> Event -- C fast path, bit-identical "
    "to ArraySimulator.schedule_at."};
static PyMethodDef m_schedule_fire = {
    "schedule_fire", (PyCFunction)(void (*)(void))c_schedule_fire,
    METH_FASTCALL,
    "schedule_fire(delay, fn, *args) -- C fast path, bit-identical to "
    "ArraySimulator.schedule_fire."};
static PyMethodDef m_schedule_fire1 = {
    "schedule_fire1", (PyCFunction)(void (*)(void))c_schedule_fire1,
    METH_FASTCALL,
    "schedule_fire1(delay, fn, arg) -- C fast path, bit-identical to "
    "ArraySimulator.schedule_fire1."};
static PyMethodDef m_advance_if_clear = {
    "advance_if_clear", (PyCFunction)(void (*)(void))c_advance_if_clear,
    METH_FASTCALL,
    "advance_if_clear(time) -> bool -- C inline-dispatch claim, "
    "bit-identical to ArraySimulator.advance_if_clear."};

PyDoc_STRVAR(core_doc,
"C implementations of the ArraySimulator hot methods (the \"cext\" tier\n"
"of repro.compiled).  Exports run/schedule/schedule_at/schedule_fire/\n"
"schedule_fire1/advance_if_clear as instancemethod-wrapped callables\n"
"that repro.compiled.engine.CompiledSimulator assigns in its class\n"
"body, plus setup() to register the engine classes and extract their\n"
"__slots__ offsets.  Never import this module directly; go through\n"
"repro.compiled, which degrades silently when it is absent.");

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "repro.compiled._core", core_doc, -1,
    core_methods, NULL, NULL, NULL, NULL,
};

static int
add_instancemethod(PyObject *mod, PyMethodDef *def)
{
    PyObject *func = PyCFunction_NewEx(def, NULL, NULL);
    PyObject *meth;

    if (func == NULL)
        return -1;
    meth = PyInstanceMethod_New(func);
    Py_DECREF(func);
    if (meth == NULL)
        return -1;
    if (PyModule_AddObject(mod, def->ml_name, meth) != 0) {
        Py_DECREF(meth);
        return -1;
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *mod = PyModule_Create(&core_module);
    if (mod == NULL)
        return NULL;

    s_dispatch = PyUnicode_InternFromString("dispatch");
    g_inf = PyFloat_FromDouble(Py_HUGE_VAL);
    g_neg_inf = PyFloat_FromDouble(-Py_HUGE_VAL);
    g_zero_f = PyFloat_FromDouble(0.0);
    g_zero_i = PyLong_FromLong(0);
    if (s_dispatch == NULL || g_inf == NULL || g_neg_inf == NULL ||
        g_zero_f == NULL || g_zero_i == NULL)
        goto error;

    if (add_instancemethod(mod, &m_run) != 0 ||
        add_instancemethod(mod, &m_schedule) != 0 ||
        add_instancemethod(mod, &m_schedule_at) != 0 ||
        add_instancemethod(mod, &m_schedule_fire) != 0 ||
        add_instancemethod(mod, &m_schedule_fire1) != 0 ||
        add_instancemethod(mod, &m_advance_if_clear) != 0)
        goto error;

    if (PyModule_AddStringConstant(mod, "TIER", "cext") != 0)
        goto error;

    return mod;

error:
    Py_DECREF(mod);
    return NULL;
}
