/* Compiled inner loop for the discrete-event engine.
 *
 * This is the Simulator.run() fast path (no max_events, no stop_when)
 * translated to C.  It operates on the *same* heap list, the same
 * event tuples and the same Simulator attributes as the Python loop in
 * engine.py, and performs no floating-point arithmetic of its own —
 * only comparisons — so event order, simulated clock values and every
 * callback observation are bit-identical to the interpreted loop.  The
 * engine falls back to the Python loop whenever this module is
 * unavailable; both paths must stay exactly equivalent.
 *
 * Heap entries (min-heap on the unique (time, seq) prefix):
 *   (time: float, seq: int, handle: EventHandle)        -- general form
 *   (time: float, seq: int, fn, arg)                    -- lightweight
 * Lightweight entries use the _NO_ARG sentinel for zero-argument
 * callbacks.  Sequence numbers are unique, so comparisons never reach
 * the third element and the (time, seq) order is total.
 *
 * Build: see _evloop_build.py (gcc -O2 -shared -fPIC against the
 * running interpreter's headers; no third-party dependencies).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifndef T_OBJECT_EX
#define T_OBJECT_EX Py_T_OBJECT_EX
#endif
#ifndef READONLY
#define READONLY Py_READONLY
#endif

/* Set once via configure(): identity-compared exactly like the Python
 * loop's `fn.__class__ is EventHandle` / `arg is not _NO_ARG`. */
static PyObject *g_handle_type = NULL; /* EventHandle class */
static PyObject *g_no_arg = NULL;      /* _NO_ARG sentinel */
static PyObject *g_noop = NULL;        /* _noop function */

static PyObject *s_now = NULL;            /* interned "now" */
static PyObject *s_stop_requested = NULL; /* interned "_stop_requested" */
static PyObject *s_fn = NULL;             /* interned "fn" */
static PyObject *s_args = NULL;           /* interned "args" */
static PyObject *s_cancelled = NULL;      /* interned "cancelled" */

/* Event times are floats everywhere in the engine (clock arithmetic
 * promotes to float), but a caller passing a literal int to
 * schedule_at must still order correctly, as it does under the Python
 * loop's generic tuple comparison. */
static inline double
as_time(PyObject *o)
{
    if (PyFloat_CheckExact(o))
        return PyFloat_AS_DOUBLE(o);
    return PyFloat_AsDouble(o); /* ints; error case cleared by caller */
}

/* (time, seq) lexicographic less-than — the exact order the Python
 * loop gets from tuple comparison, because seq values are unique. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    double ta = as_time(PyTuple_GET_ITEM(a, 0));
    double tb = as_time(PyTuple_GET_ITEM(b, 0));
    if (ta < tb)
        return 1;
    if (ta > tb)
        return 0;
    {
        int oa = 0, ob = 0;
        long long sa =
            PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(a, 1), &oa);
        long long sb =
            PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(b, 1), &ob);
        if (!oa && !ob)
            return sa < sb;
    }
    /* Sequence numbers beyond 2**63 are unreachable in practice; stay
     * exact anyway via the generic comparison. */
    {
        int r = PyObject_RichCompareBool(PyTuple_GET_ITEM(a, 1),
                                         PyTuple_GET_ITEM(b, 1), Py_LT);
        if (r < 0) {
            PyErr_Clear();
            return 0;
        }
        return r;
    }
}

/* heapq.heappop translated verbatim (pop last, move into the root,
 * _siftup then _siftdown).  All slot updates are pure reference
 * transfers: each object's single list reference moves between slots,
 * so no incref/decref traffic occurs beyond the popped endpoints.
 * Returns a new reference to the minimum entry. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt); /* SetSlice below drops the list's reference */
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    n -= 1;
    if (n == 0)
        return lastelt;

    /* We take over the list's reference to the old root (returned),
     * and will donate our lastelt reference to its final slot. */
    PyObject *returnitem = PyList_GET_ITEM(heap, 0);
    Py_ssize_t pos = 0;
    Py_ssize_t childpos = 1;
    /* _siftup: bubble the hole down to a leaf along smaller children. */
    while (childpos < n) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < n && !entry_lt(PyList_GET_ITEM(heap, childpos),
                                      PyList_GET_ITEM(heap, rightpos)))
            childpos = rightpos;
        PyList_SET_ITEM(heap, pos, PyList_GET_ITEM(heap, childpos));
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    /* _siftdown: move lastelt up from the leaf hole to its place. */
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        if (!entry_lt(lastelt, parent))
            break;
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SET_ITEM(heap, pos, lastelt);
    return returnitem;
}

/* ------------------------------------------------------------------ */
/* configure(EventHandle, _NO_ARG, _noop)                              */
/* ------------------------------------------------------------------ */
static PyObject *
evloop_configure(PyObject *self, PyObject *args)
{
    PyObject *handle_type, *no_arg, *noop;
    if (!PyArg_ParseTuple(args, "OOO", &handle_type, &no_arg, &noop))
        return NULL;
    Py_XDECREF(g_handle_type);
    Py_XDECREF(g_no_arg);
    Py_XDECREF(g_noop);
    Py_INCREF(handle_type);
    Py_INCREF(no_arg);
    Py_INCREF(noop);
    g_handle_type = handle_type;
    g_no_arg = no_arg;
    g_noop = noop;
    Py_RETURN_NONE;
}

/* Resolve a __slots__ member's storage offset on the instance, or -1
 * when the attribute is not a plain writable object slot (then the
 * generic SetAttr/GetAttr path is used — semantically identical, the
 * offset is purely a fast path for the two attributes touched on
 * every event). */
static Py_ssize_t
slot_offset(PyObject *obj, PyObject *name)
{
    Py_ssize_t off = -1;
    PyObject *descr = PyObject_GetAttr((PyObject *)Py_TYPE(obj), name);
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
        if (m != NULL && m->type == T_OBJECT_EX && !(m->flags & READONLY))
            off = m->offset;
    }
    Py_DECREF(descr);
    return off;
}

/* Accumulate the events run so far into sim._processed.  Called on
 * both exits so an exception mid-run leaves the same count the Python
 * loop's finally-block would. */
static int
flush_processed(PyObject *sim, long long processed)
{
    PyObject *cur = PyObject_GetAttrString(sim, "_processed");
    if (cur == NULL)
        return -1;
    PyObject *add = PyLong_FromLongLong(processed);
    if (add == NULL) {
        Py_DECREF(cur);
        return -1;
    }
    PyObject *total = PyNumber_Add(cur, add);
    Py_DECREF(cur);
    Py_DECREF(add);
    if (total == NULL)
        return -1;
    int rc = PyObject_SetAttrString(sim, "_processed", total);
    Py_DECREF(total);
    return rc;
}

/* ------------------------------------------------------------------ */
/* run(sim, heap, limit, has_limit, stop_on_request) -> bool           */
/*                                                                     */
/* The interpreted loop in Simulator.run without its per-event         */
/* max_events / stop_when checks (a run that has either stays there):  */
/*   - pops events while the heap is non-empty and time <= limit       */
/*   - skips cancelled EventHandles (not counted as processed)         */
/*   - sets sim.now before each callback                               */
/*   - honours / clears sim._stop_requested after each event           */
/* Updates sim._processed itself (also when a callback raises) and     */
/* returns True if it stopped at the time limit (event left queued),   */
/* False if the heap drained or a stop was honoured.                   */
/* ------------------------------------------------------------------ */
static PyObject *
evloop_run(PyObject *self, PyObject *args)
{
    PyObject *sim, *heap;
    double limit;
    int has_limit, stop_on_request;
    if (!PyArg_ParseTuple(args, "OOdpp", &sim, &heap, &limit, &has_limit,
                          &stop_on_request))
        return NULL;
    if (g_handle_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_evloop not configured");
        return NULL;
    }
    if (!PyList_CheckExact(heap)) {
        PyErr_SetString(PyExc_TypeError, "heap must be a list");
        return NULL;
    }

    /* Simulator uses __slots__; writing `now` and reading
     * `_stop_requested` through the member offsets skips the attribute
     * machinery on every event.  Falls back to Set/GetAttr if the
     * slots are not where we expect them. */
    Py_ssize_t off_now = slot_offset(sim, s_now);
    Py_ssize_t off_stop = slot_offset(sim, s_stop_requested);

    long long processed = 0;
    int hit_limit = 0;
    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *head = PyList_GET_ITEM(heap, 0); /* borrowed */
        if (has_limit && as_time(PyTuple_GET_ITEM(head, 0)) > limit) {
            /* Leave the event queued; the wrapper advances sim.now to
             * the limit, exactly like the Python loop's push-back. */
            hit_limit = 1;
            break;
        }

        PyObject *event = heap_pop(heap);
        if (event == NULL)
            goto error;
        PyObject *fn = PyTuple_GET_ITEM(event, 2); /* borrowed */
        PyObject *result = NULL;

        if ((PyObject *)Py_TYPE(fn) == g_handle_type) {
            PyObject *cancelled = PyObject_GetAttr(fn, s_cancelled);
            if (cancelled == NULL) {
                Py_DECREF(event);
                goto error;
            }
            int is_cancelled = PyObject_IsTrue(cancelled);
            Py_DECREF(cancelled);
            if (is_cancelled < 0) {
                Py_DECREF(event);
                goto error;
            }
            if (is_cancelled) {
                Py_DECREF(event);
                continue; /* lazy deletion: not counted as processed */
            }
            if (off_now >= 0) {
                PyObject **slot = (PyObject **)((char *)sim + off_now);
                PyObject *t = PyTuple_GET_ITEM(event, 0);
                PyObject *old = *slot;
                Py_INCREF(t);
                *slot = t;
                Py_XDECREF(old);
            }
            else if (PyObject_SetAttr(sim, s_now,
                                      PyTuple_GET_ITEM(event, 0)) < 0) {
                Py_DECREF(event);
                goto error;
            }
            PyObject *real_fn = PyObject_GetAttr(fn, s_fn);
            PyObject *real_args =
                real_fn ? PyObject_GetAttr(fn, s_args) : NULL;
            if (real_args == NULL) {
                Py_XDECREF(real_fn);
                Py_DECREF(event);
                goto error;
            }
            /* Release handle references once fired (Python loop does
             * the same so cancelled timers never pin protocol state). */
            PyObject *empty = PyTuple_New(0);
            if (empty == NULL ||
                PyObject_SetAttr(fn, s_fn, g_noop) < 0 ||
                PyObject_SetAttr(fn, s_args, empty) < 0) {
                Py_XDECREF(empty);
                Py_DECREF(real_fn);
                Py_DECREF(real_args);
                Py_DECREF(event);
                goto error;
            }
            Py_DECREF(empty);
            result = PyObject_CallObject(real_fn, real_args);
            Py_DECREF(real_fn);
            Py_DECREF(real_args);
        }
        else {
            if (off_now >= 0) {
                PyObject **slot = (PyObject **)((char *)sim + off_now);
                PyObject *t = PyTuple_GET_ITEM(event, 0);
                PyObject *old = *slot;
                Py_INCREF(t);
                *slot = t;
                Py_XDECREF(old);
            }
            else if (PyObject_SetAttr(sim, s_now,
                                      PyTuple_GET_ITEM(event, 0)) < 0) {
                Py_DECREF(event);
                goto error;
            }
            PyObject *arg = PyTuple_GET_ITEM(event, 3);
            if (arg == g_no_arg)
                result = PyObject_CallNoArgs(fn);
            else
                result = PyObject_CallOneArg(fn, arg);
        }
        Py_DECREF(event);
        if (result == NULL)
            goto error; /* propagate callback exception */
        Py_DECREF(result);
        processed += 1;

        {
            int stop_set;
            if (off_stop >= 0) {
                PyObject *v = *(PyObject **)((char *)sim + off_stop);
                if (v == Py_False || v == NULL)
                    stop_set = 0;
                else if (v == Py_True)
                    stop_set = 1;
                else
                    stop_set = PyObject_IsTrue(v);
            }
            else {
                PyObject *stop = PyObject_GetAttr(sim, s_stop_requested);
                if (stop == NULL)
                    goto error;
                stop_set = PyObject_IsTrue(stop);
                Py_DECREF(stop);
            }
            if (stop_set < 0)
                goto error;
            if (stop_set) {
                if (stop_on_request)
                    break;
                if (off_stop >= 0) {
                    PyObject **slot =
                        (PyObject **)((char *)sim + off_stop);
                    PyObject *old = *slot;
                    Py_INCREF(Py_False);
                    *slot = Py_False;
                    Py_XDECREF(old);
                }
                else if (PyObject_SetAttr(sim, s_stop_requested,
                                          Py_False) < 0)
                    goto error;
            }
        }
    }
    if (flush_processed(sim, processed) < 0)
        return NULL;
    return PyBool_FromLong(hit_limit);

error:
    {
        /* Preserve the callback's exception across the bookkeeping. */
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        flush_processed(sim, processed);
        PyErr_Restore(etype, evalue, etb);
    }
    return NULL;
}

static PyMethodDef evloop_methods[] = {
    {"configure", evloop_configure, METH_VARARGS,
     "configure(EventHandle, _NO_ARG, _noop): bind engine sentinels."},
    {"run", evloop_run, METH_VARARGS,
     "run(sim, heap, limit, has_limit, stop_on_request) -> hit_limit"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef evloop_module = {
    PyModuleDef_HEAD_INIT, "_evloop",
    "Compiled fast path for Simulator.run (see engine.py).", -1,
    evloop_methods,
};

PyMODINIT_FUNC
PyInit__evloop(void)
{
    s_now = PyUnicode_InternFromString("now");
    s_stop_requested = PyUnicode_InternFromString("_stop_requested");
    s_fn = PyUnicode_InternFromString("fn");
    s_args = PyUnicode_InternFromString("args");
    s_cancelled = PyUnicode_InternFromString("cancelled");
    if (!s_now || !s_stop_requested || !s_fn || !s_args || !s_cancelled)
        return NULL;
    return PyModule_Create(&evloop_module);
}
