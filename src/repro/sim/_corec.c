/* Compiled engine core: Event / SeriesEvent / Simulator in C.
 *
 * A hand-written CPython extension mirroring repro/sim/engine.py
 * statement for statement where it matters: both queue backends (binary
 * heap and calendar queue), series events, the pooled fire-and-forget
 * path (schedule_anon), and lazy postpone.  The contract is *bit-exact
 * equivalence* with the pure-Python engine — same (time, priority, seq)
 * total order, same seq draws on every path (including error paths:
 * validation happens before the seq draw, exactly like the pure code),
 * same counters in queue_stats(), same exception types and messages.
 *
 * The golden-master suite and the scheduler fuzz test pin this: any
 * divergence from engine.py is a bug here, not a tolerance.
 *
 * The module also holds stable_hash64, the twin of the pure function in
 * repro/util/hashing.py (see the hashing section near the end).
 *
 * Built optionally (setup.py marks the extension optional); the selector
 * in repro/sim/_core.py falls back to the pure engine when this module
 * is absent or REPRO_NO_COMPILED is set.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ---------------------------------------------------------------- tuning */

#define COMPACT_MIN_DEAD 64   /* never compact below this many dead */
#define EV_POOL_MAX 4096      /* free-list cap per simulator */

#define CAL_MIN_BUCKETS 64
#define CAL_MAX_BUCKETS (1 << 15)
#define CAL_MIN_WIDTH 1e-9
#define CAL_MAX_WIDTH 1e6
#define CAL_INIT_BUCKETS 256
#define CAL_INIT_WIDTH (1.0 / 1024.0)

enum { EV_PLAIN = 0, EV_POOLED = 1, EV_SERIES = 2 };
enum { BACKEND_HEAP = 0, BACKEND_CALENDAR = 1 };

/* ------------------------------------------------------------- entries */

/* One queued entry: the (time, priority, seq) tuple of the pure engine,
 * flattened into a struct.  `ev` is a strong reference. */
typedef struct {
    double time;
    long prio;
    long long seq;
    PyObject *ev;
} Entry;

/* A growable Entry array, used both as a binary heap (heap backend,
 * calendar buckets, overflow) and as a plain vector (resize staging). */
typedef struct {
    Entry *a;
    Py_ssize_t len;
    Py_ssize_t cap;
} EVec;

static void
evec_init(EVec *v)
{
    v->a = NULL;
    v->len = 0;
    v->cap = 0;
}

static void
evec_free(EVec *v)
{
    PyMem_Free(v->a);
    v->a = NULL;
    v->len = 0;
    v->cap = 0;
}

static int
evec_reserve(EVec *v, Py_ssize_t need)
{
    if (need <= v->cap)
        return 0;
    Py_ssize_t cap = v->cap ? v->cap : 8;
    while (cap < need)
        cap += cap;
    Entry *a = (Entry *)PyMem_Realloc(v->a, (size_t)cap * sizeof(Entry));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    v->a = a;
    v->cap = cap;
    return 0;
}

static inline int
entry_lt(const Entry *x, const Entry *y)
{
    if (x->time != y->time)
        return x->time < y->time;
    if (x->prio != y->prio)
        return x->prio < y->prio;
    return x->seq < y->seq;
}

/* Binary-heap ops over an EVec; same sift algorithm as heapq. */
static int
eheap_push(EVec *v, Entry e)
{
    if (evec_reserve(v, v->len + 1) < 0)
        return -1;
    Py_ssize_t pos = v->len++;
    Entry *a = v->a;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&e, &a[parent]))
            break;
        a[pos] = a[parent];
        pos = parent;
    }
    a[pos] = e;
    return 0;
}

/* Pop the min entry; caller owns the returned reference. */
static Entry
eheap_pop(EVec *v)
{
    Entry *a = v->a;
    Entry top = a[0];
    Py_ssize_t n = --v->len;
    if (n > 0) {
        Entry last = a[n];
        Py_ssize_t pos = 0, child;
        while ((child = 2 * pos + 1) < n) {
            if (child + 1 < n && entry_lt(&a[child + 1], &a[child]))
                child += 1;
            if (!entry_lt(&a[child], &last))
                break;
            a[pos] = a[child];
            pos = child;
        }
        a[pos] = last;
    }
    return top;
}

/* Append without sifting (valid only when e sorts >= every element, as
 * in ascending migration from the overflow heap). */
static int
evec_append(EVec *v, Entry e)
{
    if (evec_reserve(v, v->len + 1) < 0)
        return -1;
    v->a[v->len++] = e;
    return 0;
}

static void
eheap_heapify(EVec *v)
{
    Py_ssize_t n = v->len;
    Entry *a = v->a;
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--) {
        Entry item = a[i];
        Py_ssize_t pos = i, child;
        while ((child = 2 * pos + 1) < n) {
            if (child + 1 < n && entry_lt(&a[child + 1], &a[child]))
                child += 1;
            if (!entry_lt(&a[child], &item))
                break;
            a[pos] = a[child];
            pos = child;
        }
        a[pos] = item;
    }
}

/* --------------------------------------------------------------- types */

typedef struct {
    PyObject_HEAD
    double time;
    long priority;
    long long seq;
    PyObject *fn;      /* NULL = cancelled or fired */
    PyObject *args;    /* tuple; NULL means () */
    PyObject *sim;     /* owning Simulator (strong ref; cycle via queue) */
    PyObject *times;   /* list of floats, series only */
    Py_ssize_t index;  /* series: position currently queued / just fired */
    int kind;          /* EV_PLAIN / EV_POOLED / EV_SERIES */
    char stop_flag;    /* series: end after the current firing */
    char queued;       /* series: an entry for this handle is in the queue */
} CoreEvent;

typedef struct {
    PyObject_HEAD
    double now;
    long long next_seq;
    long long live;          /* non-cancelled entries still queued */
    int running;
    int stopped;
    int backend;
    long long events_executed;
    /* shared queue counters (queue_stats) */
    long long dead;
    long long size;
    long long peak;
    long long pushes;
    long long resizes;
    /* heap backend */
    EVec heap;
    /* calendar backend */
    EVec *buckets;
    Py_ssize_t nbuckets;
    double width, inv_width;
    int anchored;
    double start, end;
    Py_ssize_t hint;
    long long wheel_count;   /* entries (live + dead) in the wheel */
    EVec over;               /* far-future overflow heap */
    long long grow_at, shrink_at;
    /* pooled fire-and-forget handles */
    PyObject **ev_pool;      /* lazily allocated, EV_POOL_MAX slots */
    Py_ssize_t ev_pool_len;
    long long ev_created, ev_reused;
} CoreSim;

static PyTypeObject Event_Type;
static PyTypeObject SeriesEvent_Type;
static PyTypeObject Simulator_Type;

static PyObject *empty_tuple;   /* shared (); also the pooled `times` marker */

static int cal_push_core(CoreSim *sim, Entry e);
static int cal_resize(CoreSim *sim, Py_ssize_t n);
static void sim_note_cancel(CoreSim *sim);

/* ---------------------------------------------------------------- Event */

/* Cancel bookkeeping shared by every kind: null the callback in place,
 * tell the simulator (live--, dead++, maybe compact).  Mirrors
 * Event.cancel + Simulator._on_cancel in the pure engine. */
static void
event_cancel_impl(CoreEvent *ev)
{
    if (ev->fn == NULL)
        return;
    Py_CLEAR(ev->fn);
    Py_CLEAR(ev->args);
    if (ev->sim != NULL) {
        CoreSim *sim = (CoreSim *)ev->sim;
        sim->live--;
        sim_note_cancel(sim);
    }
}

static PyObject *
event_cancel(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->kind == EV_SERIES) {
        /* SeriesEvent.cancel: drop the queued entry, or stop mid-fire. */
        if (ev->fn != NULL) {
            if (ev->queued)
                event_cancel_impl(ev);
            else
                ev->stop_flag = 1;
        }
    }
    else {
        event_cancel_impl(ev);
    }
    Py_RETURN_NONE;
}

static PyObject *
series_stop(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->queued) {
        if (ev->fn != NULL)
            event_cancel_impl(ev);
    }
    else {
        ev->stop_flag = 1;
    }
    Py_RETURN_NONE;
}

static PyObject *
series_extend(PyObject *self, PyObject *more_times)
{
    CoreEvent *ev = (CoreEvent *)self;
    PyObject *times = ev->times;
    if (times == NULL || !PyList_CheckExact(times)) {
        PyErr_SetString(PyExc_ValueError, "not a series event");
        return NULL;
    }
    /* [float(t) for t in more_times] */
    PyObject *fresh = PySequence_List(more_times);
    if (fresh == NULL)
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(fresh);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *f = PyNumber_Float(PyList_GET_ITEM(fresh, i));
        if (f == NULL) {
            Py_DECREF(fresh);
            return NULL;
        }
        PyList_SET_ITEM(fresh, i, f);   /* steals f, drops the old item */
    }
    /* Validate everything before mutating: nothing is appended unless
     * every time passes (same contract as the pure engine). */
    double prev = PyFloat_AsDouble(
        PyList_GET_ITEM(times, PyList_GET_SIZE(times) - 1));
    if (prev == -1.0 && PyErr_Occurred()) {
        Py_DECREF(fresh);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = PyFloat_AS_DOUBLE(PyList_GET_ITEM(fresh, i));
        if (!(prev <= t && t < INFINITY)) {
            PyObject *to = PyFloat_FromDouble(t);
            PyObject *po = PyFloat_FromDouble(prev);
            PyErr_Format(PyExc_ValueError,
                         "series times must be finite and ascending "
                         "(got %S after %S)", to, po);
            Py_XDECREF(to);
            Py_XDECREF(po);
            Py_DECREF(fresh);
            return NULL;
        }
        prev = t;
    }
    /* Prune the consumed prefix (current time stays at position 0). */
    if (ev->index) {
        if (PyList_SetSlice(times, 0, ev->index, NULL) < 0) {
            Py_DECREF(fresh);
            return NULL;
        }
        ev->index = 0;
    }
    Py_ssize_t base = PyList_GET_SIZE(times);
    if (PyList_SetSlice(times, base, base, fresh) < 0) {
        Py_DECREF(fresh);
        return NULL;
    }
    Py_DECREF(fresh);
    Py_RETURN_NONE;
}

static PyObject *
event_get_fn(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->fn == NULL)
        Py_RETURN_NONE;
    return Py_NewRef(ev->fn);
}

static PyObject *
event_get_args(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->args == NULL)
        return Py_NewRef(empty_tuple);
    return Py_NewRef(ev->args);
}

static PyObject *
event_get_cancelled(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    return PyBool_FromLong(ev->fn == NULL);
}

static PyObject *
event_get_times(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    switch (ev->kind) {
    case EV_PLAIN:
        Py_RETURN_NONE;
    case EV_POOLED:
        /* Non-None marker, like the pure _PooledEvent.times sentinel. */
        return Py_NewRef(empty_tuple);
    default:
        if (ev->times == NULL)
            Py_RETURN_NONE;
        return Py_NewRef(ev->times);
    }
}

static PyObject *
event_repr(PyObject *self)
{
    CoreEvent *ev = (CoreEvent *)self;
    PyObject *t = PyFloat_FromDouble(ev->time);
    if (t == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "Event(t=%S, prio=%ld, %s)", t, ev->priority,
        ev->fn == NULL ? "cancelled" : "pending");
    Py_DECREF(t);
    return r;
}

static int
event_traverse(PyObject *self, visitproc visit, void *arg)
{
    CoreEvent *ev = (CoreEvent *)self;
    Py_VISIT(ev->fn);
    Py_VISIT(ev->args);
    Py_VISIT(ev->sim);
    Py_VISIT(ev->times);
    return 0;
}

static int
event_clear(PyObject *self)
{
    CoreEvent *ev = (CoreEvent *)self;
    Py_CLEAR(ev->fn);
    Py_CLEAR(ev->args);
    Py_CLEAR(ev->sim);
    Py_CLEAR(ev->times);
    return 0;
}

static void
event_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static PyMemberDef event_members[] = {
    {"time", T_DOUBLE, offsetof(CoreEvent, time), READONLY,
     "Absolute fire time (seconds)."},
    {"priority", T_LONG, offsetof(CoreEvent, priority), READONLY,
     "Tie-break priority (lower fires first)."},
    {"seq", T_LONGLONG, offsetof(CoreEvent, seq), READONLY,
     "Monotone scheduling-order tie-breaker."},
    {NULL}
};

static PyGetSetDef event_getset[] = {
    {"fn", event_get_fn, NULL, "The callback, or None once cancelled/fired.", NULL},
    {"args", event_get_args, NULL, "Callback arguments.", NULL},
    {"cancelled", event_get_cancelled, NULL,
     "True once cancel() has been called (or the event ran).", NULL},
    {"times", event_get_times, NULL,
     "Series schedule (list), or None for a plain event.", NULL},
    {NULL}
};

static PyMethodDef event_methods[] = {
    {"cancel", event_cancel, METH_NOARGS,
     "Mark the event as cancelled; it is skipped when popped."},
    {NULL}
};

static PyMemberDef series_members[] = {
    {"index", T_PYSSIZET, offsetof(CoreEvent, index), READONLY,
     "Position currently queued (or just fired) in times."},
    {NULL}
};

static PyMethodDef series_methods[] = {
    {"extend", series_extend, METH_O,
     "Append further ascending fire times to the schedule."},
    {"stop", series_stop, METH_NOARGS,
     "End the series: no further firings."},
    {NULL}
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._corec.Event",
    .tp_basicsize = sizeof(CoreEvent),
    .tp_dealloc = event_dealloc,
    .tp_repr = event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Handle to one scheduled callback (compiled core).",
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_new = PyType_GenericNew,
};

static PyTypeObject SeriesEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._corec.SeriesEvent",
    .tp_basicsize = sizeof(CoreEvent),
    .tp_dealloc = event_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "One handle that fires at every time of a precomputed schedule.",
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_methods = series_methods,
    .tp_members = series_members,
    .tp_base = &Event_Type,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------ queue plumbing */

/* Heap-backend compaction: drop every cancelled entry, re-file stale
 * (postponed) ones at their true deadlines, re-heapify. */
static void
heap_compact(CoreSim *sim)
{
    EVec *heap = &sim->heap;
    Entry *a = heap->a;
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < heap->len; i++) {
        CoreEvent *ev = (CoreEvent *)a[i].ev;
        if (ev->fn == NULL) {
            Py_DECREF((PyObject *)ev);
            continue;
        }
        if (a[i].seq != ev->seq) {
            a[i].time = ev->time;
            a[i].prio = ev->priority;
            a[i].seq = ev->seq;
        }
        a[out++] = a[i];
    }
    heap->len = out;
    eheap_heapify(heap);
    sim->dead = 0;
    sim->size = out;
}

static void
sim_note_cancel(CoreSim *sim)
{
    sim->dead++;
    if (sim->dead > COMPACT_MIN_DEAD && sim->dead > sim->live) {
        if (sim->backend == BACKEND_HEAP)
            heap_compact(sim);
        else if (cal_resize(sim, sim->nbuckets) < 0)
            PyErr_Clear();   /* compaction is advisory; OOM only */
    }
}

/* ------------------------------------------------------ calendar queue */

static void
cal_anchor(CoreSim *sim, double t)
{
    double width = sim->width;
    sim->start = floor(t / width) * width;
    sim->end = sim->start + (double)sim->nbuckets * width;
    sim->hint = 0;
    sim->anchored = 1;
}

/* Pull overflow entries that now fall inside the wheel window. */
static int
cal_migrate(CoreSim *sim)
{
    EVec *over = &sim->over;
    double end = sim->end;
    double start = sim->start;
    double inv_width = sim->inv_width;
    Py_ssize_t n = sim->nbuckets;
    while (over->len && over->a[0].time < end) {
        Entry e = eheap_pop(over);
        CoreEvent *ev = (CoreEvent *)e.ev;
        if (ev->fn == NULL) {
            sim->dead--;
            sim->size--;
            Py_DECREF(e.ev);
            continue;
        }
        Py_ssize_t i = (Py_ssize_t)((e.time - start) * inv_width);
        if (i < 0)
            i = 0;
        else if (i >= n)
            i = n - 1;
        /* Ascending heap-pops appended to a bucket keep the bucket-heap
         * invariant (a sorted suffix is a valid heap tail). */
        if (evec_append(&sim->buckets[i], e) < 0) {
            Py_DECREF(e.ev);
            return -1;
        }
        sim->wheel_count++;
    }
    return 0;
}

/* Bucket width ~ 2x the median inter-event gap near the head (same
 * robust tuning rule as the pure engine: sort all times, look at the
 * soonest 128, drop zero gaps, take the median, clamp). */
static int
cmp_double(const void *pa, const void *pb)
{
    double a = *(const double *)pa, b = *(const double *)pb;
    return (a > b) - (a < b);
}

static double
cal_tune_width(CoreSim *sim, EVec *entries)
{
    Py_ssize_t n = entries->len;
    if (n < 2)
        return sim->width;
    double *times = (double *)PyMem_Malloc((size_t)n * sizeof(double));
    if (times == NULL)
        return sim->width;   /* tuning is best-effort; keep the old width */
    for (Py_ssize_t i = 0; i < n; i++)
        times[i] = entries->a[i].time;
    qsort(times, (size_t)n, sizeof(double), cmp_double);
    Py_ssize_t head = n < 128 ? n : 128;
    Py_ssize_t ngaps = 0;
    double *gaps = times;   /* reuse in place: gaps fit before their sources */
    for (Py_ssize_t i = 1; i < head; i++) {
        double g = times[i] - times[i - 1];
        if (g > 0.0)
            gaps[ngaps++] = g;
    }
    if (ngaps == 0) {
        PyMem_Free(times);
        return sim->width;
    }
    qsort(gaps, (size_t)ngaps, sizeof(double), cmp_double);
    double width = 2.0 * gaps[ngaps / 2];
    PyMem_Free(times);
    if (width < CAL_MIN_WIDTH)
        width = CAL_MIN_WIDTH;
    else if (width > CAL_MAX_WIDTH)
        width = CAL_MAX_WIDTH;
    return width;
}

/* Rebuild with n buckets and a re-tuned width (purges dead entries).
 * Mirrors _CalendarQueue._resize, including the counter save/restore:
 * re-filing existing entries is not churn. */
static int
cal_resize(CoreSim *sim, Py_ssize_t n)
{
    /* Collect live entries (re-filing stale ones); transfer the refs. */
    EVec entries;
    evec_init(&entries);
    Py_ssize_t total = sim->wheel_count + sim->over.len;
    if (total > 0 && evec_reserve(&entries, total) < 0)
        return -1;
    for (Py_ssize_t b = 0; b < sim->nbuckets; b++) {
        EVec *bucket = &sim->buckets[b];
        for (Py_ssize_t i = 0; i < bucket->len; i++) {
            Entry e = bucket->a[i];
            CoreEvent *ev = (CoreEvent *)e.ev;
            if (ev->fn == NULL) {
                Py_DECREF(e.ev);
                continue;
            }
            if (e.seq != ev->seq) {
                e.time = ev->time;
                e.prio = ev->priority;
                e.seq = ev->seq;
            }
            entries.a[entries.len++] = e;
        }
        bucket->len = 0;
    }
    for (Py_ssize_t i = 0; i < sim->over.len; i++) {
        Entry e = sim->over.a[i];
        CoreEvent *ev = (CoreEvent *)e.ev;
        if (ev->fn == NULL) {
            Py_DECREF(e.ev);
            continue;
        }
        if (e.seq != ev->seq) {
            e.time = ev->time;
            e.prio = ev->priority;
            e.seq = ev->seq;
        }
        entries.a[entries.len++] = e;
    }
    sim->over.len = 0;
    sim->resizes++;

    /* Reallocate the bucket array if the count changes. */
    if (n != sim->nbuckets) {
        for (Py_ssize_t b = 0; b < sim->nbuckets; b++)
            evec_free(&sim->buckets[b]);
        EVec *fresh = (EVec *)PyMem_Calloc((size_t)n, sizeof(EVec));
        if (fresh == NULL) {
            /* Roll back: keep the old geometry, re-push into it. */
            n = sim->nbuckets;
            fresh = sim->buckets;
            memset(fresh, 0, (size_t)n * sizeof(EVec));
        }
        else {
            PyMem_Free(sim->buckets);
            sim->buckets = fresh;
        }
        sim->nbuckets = n;
    }
    sim->grow_at = 2 * n;
    sim->shrink_at = n / 8;
    sim->width = cal_tune_width(sim, &entries);
    sim->inv_width = 1.0 / sim->width;
    sim->wheel_count = 0;
    sim->dead = 0;
    sim->size = 0;
    long long peak = sim->peak;
    long long pushes = sim->pushes;
    if (entries.len) {
        double tmin = entries.a[0].time;
        for (Py_ssize_t i = 1; i < entries.len; i++)
            if (entries.a[i].time < tmin)
                tmin = entries.a[i].time;
        cal_anchor(sim, tmin);
    }
    else {
        sim->anchored = 0;
    }
    int rc = 0;
    for (Py_ssize_t i = 0; i < entries.len; i++) {
        if (rc == 0 && cal_push_core(sim, entries.a[i]) < 0)
            rc = -1;   /* OOM: drop remaining refs, report below */
        else if (rc < 0)
            Py_DECREF(entries.a[i].ev);
    }
    sim->peak = peak;
    sim->pushes = pushes;
    evec_free(&entries);
    return rc;
}

/* Insert one entry (ref transferred) with full counter bookkeeping —
 * the _CalendarQueue.push of the pure engine. */
static int
cal_push_core(CoreSim *sim, Entry e)
{
    sim->pushes++;
    double t = e.time;
    if (!sim->anchored)
        cal_anchor(sim, t);
    if (t < sim->end) {
        Py_ssize_t i = (Py_ssize_t)((t - sim->start) * sim->inv_width);
        if (i < 0)
            i = 0;
        else if (i >= sim->nbuckets)
            i = sim->nbuckets - 1;
        if (eheap_push(&sim->buckets[i], e) < 0)
            return -1;
        sim->wheel_count++;
        if (i < sim->hint)
            sim->hint = i;
    }
    else {
        if (eheap_push(&sim->over, e) < 0)
            return -1;
    }
    sim->size++;
    if (sim->size > sim->peak)
        sim->peak = sim->size;
    if (sim->size - sim->dead > sim->grow_at && sim->nbuckets < CAL_MAX_BUCKETS)
        return cal_resize(sim, sim->nbuckets * 2);
    return 0;
}

/* Backend-dispatching insert (ref transferred), counters included. */
static int
sim_push_entry(CoreSim *sim, Entry e)
{
    if (sim->backend == BACKEND_HEAP) {
        if (eheap_push(&sim->heap, e) < 0)
            return -1;
        sim->pushes++;
        sim->size++;
        if (sim->size > sim->peak)
            sim->peak = sim->size;
        return 0;
    }
    return cal_push_core(sim, e);
}

/* ------------------------------------------------------------ execution */

/* Execute one popped entry (ref transferred).  Kept in lockstep with
 * the execute sections of both pure run loops: plain events null their
 * callback *before* it runs, pooled handles recycle into the free list,
 * series handles re-insert with a seq drawn *after* the callback. */
static int
exec_entry(CoreSim *sim, Entry *e)
{
    CoreEvent *ev = (CoreEvent *)e->ev;
    sim->live--;
    sim->now = e->time;
    if (ev->kind == EV_SERIES) {
        ev->queued = 0;
        PyObject *res = PyObject_Call(
            ev->fn, ev->args ? ev->args : empty_tuple, NULL);
        if (res == NULL) {
            Py_DECREF(e->ev);
            return -1;
        }
        Py_DECREF(res);
        if (!ev->stop_flag) {
            Py_ssize_t index = ev->index + 1;
            if (index < PyList_GET_SIZE(ev->times)) {
                ev->index = index;
                /* Items are exact floats (validated on entry); guard
                 * anyway in case user code mutated the exposed list. */
                PyObject *item = PyList_GET_ITEM(ev->times, index);
                double t2 = PyFloat_CheckExact(item)
                                ? PyFloat_AS_DOUBLE(item)
                                : PyFloat_AsDouble(item);
                if (t2 == -1.0 && PyErr_Occurred()) {
                    Py_DECREF(e->ev);
                    return -1;
                }
                long long seq = sim->next_seq++;
                ev->time = t2;
                ev->seq = seq;
                ev->queued = 1;
                Entry ne = {t2, e->prio, seq, e->ev};  /* ref transferred */
                if (sim_push_entry(sim, ne) < 0)
                    return -1;
                sim->live++;
            }
            else {
                Py_CLEAR(ev->fn);
                Py_DECREF(e->ev);
            }
        }
        else {
            Py_CLEAR(ev->fn);
            Py_DECREF(e->ev);
        }
    }
    else {
        PyObject *fn = ev->fn;   /* consumed; a late cancel() is a no-op */
        ev->fn = NULL;
        PyObject *res = PyObject_Call(
            fn, ev->args ? ev->args : empty_tuple, NULL);
        Py_DECREF(fn);
        if (res == NULL) {
            Py_DECREF(e->ev);
            return -1;
        }
        Py_DECREF(res);
        if (ev->kind == EV_POOLED) {
            Py_CLEAR(ev->args);
            if (sim->ev_pool != NULL && sim->ev_pool_len < EV_POOL_MAX)
                sim->ev_pool[sim->ev_pool_len++] = e->ev;  /* keep the ref */
            else
                Py_DECREF(e->ev);
        }
        else {
            Py_DECREF(e->ev);
        }
    }
    sim->events_executed++;
    return 0;
}

/* ------------------------------------------------------------ run loops */

static int
heap_run(CoreSim *sim, double limit, long long cap)
{
    long long executed = 0;
    EVec *heap = &sim->heap;
    while (!sim->stopped) {
        if (heap->len == 0)
            break;
        Entry *top = &heap->a[0];
        CoreEvent *ev = (CoreEvent *)top->ev;
        if (ev->fn == NULL) {
            Entry e = eheap_pop(heap);
            Py_DECREF(e.ev);
            sim->dead--;
            sim->size--;
            continue;
        }
        if (top->seq != ev->seq) {
            /* Stale (postponed) tuple: re-file at the true deadline
             * without executing — live/size bookkeeping nets zero. */
            Entry e = eheap_pop(heap);
            e.time = ev->time;
            e.prio = ev->priority;
            e.seq = ev->seq;
            if (eheap_push(heap, e) < 0) {
                Py_DECREF(e.ev);
                return -1;
            }
            sim->pushes++;
            continue;
        }
        if (top->time > limit)
            break;
        Entry e = eheap_pop(heap);
        sim->size--;
        if (exec_entry(sim, &e) < 0)
            return -1;
        executed++;
        if (executed >= cap)
            break;
    }
    return 0;
}

static int
cal_run(CoreSim *sim, double limit, long long cap)
{
    long long executed = 0;
    while (!sim->stopped) {
        /* -- dequeue: earliest live entry, or advance/stop ---------- */
        if (sim->wheel_count == 0) {
            EVec *over = &sim->over;
            while (over->len &&
                   ((CoreEvent *)over->a[0].ev)->fn == NULL) {
                Entry e = eheap_pop(over);
                Py_DECREF(e.ev);
                sim->dead--;
                sim->size--;
            }
            if (over->len == 0)
                break;
            cal_anchor(sim, over->a[0].time);
            if (cal_migrate(sim) < 0)
                return -1;
            continue;
        }
        Py_ssize_t n = sim->nbuckets;
        Py_ssize_t b = sim->hint;
        int have = 0, stale = 0;
        Entry e;
        while (b < n) {
            EVec *bucket = &sim->buckets[b];
            if (bucket->len == 0) {
                b++;
                continue;
            }
            Entry *best = &bucket->a[0];
            CoreEvent *ev = (CoreEvent *)best->ev;
            if (ev->fn == NULL) {   /* purge dead heads lazily */
                Entry d = eheap_pop(bucket);
                Py_DECREF(d.ev);
                sim->wheel_count--;
                sim->size--;
                sim->dead--;
                continue;
            }
            if (best->seq != ev->seq) {
                /* Stale (postponed) tuple: re-file at the true deadline;
                 * the push may resize, so restart the scan. */
                sim->hint = b;
                Entry d = eheap_pop(bucket);
                sim->wheel_count--;
                sim->size--;
                d.time = ev->time;
                d.prio = ev->priority;
                d.seq = ev->seq;
                if (cal_push_core(sim, d) < 0)
                    return -1;
                stale = 1;
                break;
            }
            sim->hint = b;
            if (best->time > limit)
                return 0;
            e = eheap_pop(bucket);
            sim->wheel_count--;
            sim->size--;
            if (sim->size - sim->dead < sim->shrink_at &&
                n > CAL_MIN_BUCKETS) {
                if (cal_resize(sim, n / 2) < 0) {
                    Py_DECREF(e.ev);
                    return -1;
                }
            }
            have = 1;
            break;
        }
        if (stale)
            continue;
        if (!have) {
            /* Scanned the whole window: wheel is (effectively) empty. */
            sim->hint = n;
            if (sim->wheel_count) {   /* defensive recount */
                long long wc = 0;
                for (Py_ssize_t i = 0; i < sim->nbuckets; i++)
                    wc += sim->buckets[i].len;
                sim->wheel_count = wc;
                if (wc)
                    sim->hint = 0;
            }
            continue;
        }
        if (exec_entry(sim, &e) < 0)
            return -1;
        executed++;
        if (executed >= cap)
            break;
    }
    return 0;
}

/* ------------------------------------------------------------ peeking */

static double
heap_first_time(CoreSim *sim)
{
    EVec *heap = &sim->heap;
    while (heap->len) {
        Entry *top = &heap->a[0];
        CoreEvent *ev = (CoreEvent *)top->ev;
        if (ev->fn == NULL) {
            Entry e = eheap_pop(heap);
            Py_DECREF(e.ev);
            sim->dead--;
            sim->size--;
        }
        else if (top->seq != ev->seq) {
            Entry e = eheap_pop(heap);
            e.time = ev->time;
            e.prio = ev->priority;
            e.seq = ev->seq;
            if (eheap_push(heap, e) < 0) {
                Py_DECREF(e.ev);
                return -2.0;   /* OOM sentinel; caller raises */
            }
            sim->pushes++;
        }
        else {
            return top->time;
        }
    }
    return INFINITY;
}

static double
cal_first_time(CoreSim *sim)
{
    for (;;) {
        if (sim->wheel_count == 0) {
            EVec *over = &sim->over;
            while (over->len &&
                   ((CoreEvent *)over->a[0].ev)->fn == NULL) {
                Entry e = eheap_pop(over);
                Py_DECREF(e.ev);
                sim->dead--;
                sim->size--;
            }
            if (over->len == 0)
                return INFINITY;
            cal_anchor(sim, over->a[0].time);
            if (cal_migrate(sim) < 0)
                return -2.0;
            continue;
        }
        Py_ssize_t n = sim->nbuckets;
        Py_ssize_t b = sim->hint;
        int stale = 0;
        while (b < n) {
            EVec *bucket = &sim->buckets[b];
            if (bucket->len == 0) {
                b++;
                continue;
            }
            Entry *best = &bucket->a[0];
            CoreEvent *ev = (CoreEvent *)best->ev;
            if (ev->fn == NULL) {
                Entry d = eheap_pop(bucket);
                Py_DECREF(d.ev);
                sim->wheel_count--;
                sim->size--;
                sim->dead--;
                continue;
            }
            if (best->seq != ev->seq) {
                sim->hint = b;
                Entry d = eheap_pop(bucket);
                sim->wheel_count--;
                sim->size--;
                d.time = ev->time;
                d.prio = ev->priority;
                d.seq = ev->seq;
                if (cal_push_core(sim, d) < 0)
                    return -2.0;
                stale = 1;
                break;
            }
            sim->hint = b;
            return best->time;
        }
        if (stale)
            continue;
        sim->hint = n;
        if (sim->wheel_count) {
            long long wc = 0;
            for (Py_ssize_t i = 0; i < sim->nbuckets; i++)
                wc += sim->buckets[i].len;
            sim->wheel_count = wc;
            if (wc)
                sim->hint = 0;
        }
    }
}

/* ----------------------------------------------------------- Simulator */

/* float(obj) — accepts exactly what the pure engine's float() does. */
static int
as_double(PyObject *o, double *out)
{
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    PyObject *f = PyNumber_Float(o);
    if (f == NULL)
        return -1;
    *out = PyFloat_AS_DOUBLE(f);
    Py_DECREF(f);
    return 0;
}

/* Lazily imported repro.perf.FLAGS (the singleton is mutated in place,
 * never rebound, so caching the object is safe). */
static PyObject *perf_flags;

static PyObject *
get_perf_flags(void)
{
    if (perf_flags == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.perf");
        if (mod == NULL)
            return NULL;
        perf_flags = PyObject_GetAttrString(mod, "FLAGS");
        Py_DECREF(mod);
    }
    return perf_flags;
}

/* Shared time/fn validation; mirrors schedule_at exactly, including the
 * messages and the one-interval check that catches NaN and +inf. */
static int
check_time_fn(CoreSim *sim, double t, PyObject *fn)
{
    if (!(sim->now <= t && t < INFINITY)) {
        if (isfinite(t)) {
            PyObject *to = PyFloat_FromDouble(t);
            PyObject *no = PyFloat_FromDouble(sim->now);
            PyErr_Format(PyExc_ValueError,
                         "cannot schedule into the past (time=%S, now=%S)",
                         to, no);
            Py_XDECREF(to);
            Py_XDECREF(no);
        }
        else {
            PyObject *to = PyFloat_FromDouble(t);
            PyErr_Format(PyExc_ValueError,
                         "event time must be finite, got %S", to);
            Py_XDECREF(to);
        }
        return -1;
    }
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError, "fn must be callable");
        return -1;
    }
    return 0;
}

/* Split (first, fn, *args, priority=0) out of a VARARGS call. */
static int
parse_sched(PyObject *args, PyObject *kwds, const char *name,
            PyObject **first, PyObject **fn, PyObject **cbargs, long *priority)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    if (n < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() requires a time and a callback", name);
        return -1;
    }
    *priority = 0;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyObject *p = PyDict_GetItemString(kwds, "priority");
        if (p == NULL || PyDict_GET_SIZE(kwds) != 1) {
            PyErr_Format(PyExc_TypeError,
                         "%s() accepts only the 'priority' keyword", name);
            return -1;
        }
        *priority = PyLong_AsLong(p);
        if (*priority == -1 && PyErr_Occurred())
            return -1;
    }
    *first = PyTuple_GET_ITEM(args, 0);
    *fn = PyTuple_GET_ITEM(args, 1);
    *cbargs = PyTuple_GetSlice(args, 2, n);   /* new ref */
    return *cbargs == NULL ? -1 : 0;
}

/* The shared tail of schedule_at / schedule_anon: validate, draw ONE
 * seq, build (or recycle) the handle, insert.  `cbargs` is stolen. */
static PyObject *
sim_schedule_common(CoreSim *self, double t, PyObject *fn, PyObject *cbargs,
                    long priority, int kind)
{
    if (check_time_fn(self, t, fn) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    long long seq = self->next_seq++;
    CoreEvent *ev;
    if (kind == EV_POOLED && self->ev_pool_len > 0) {
        ev = (CoreEvent *)self->ev_pool[--self->ev_pool_len];
        self->ev_reused++;
    }
    else {
        PyTypeObject *tp = &Event_Type;
        ev = (CoreEvent *)tp->tp_alloc(tp, 0);
        if (ev == NULL) {
            Py_DECREF(cbargs);
            return NULL;
        }
        ev->sim = Py_NewRef((PyObject *)self);
        ev->kind = kind;
        if (kind == EV_POOLED)
            self->ev_created++;
    }
    ev->time = t;
    ev->priority = priority;
    ev->seq = seq;
    Py_XSETREF(ev->fn, Py_NewRef(fn));
    Py_XSETREF(ev->args, cbargs);   /* stolen */
    Entry e = {t, priority, seq, Py_NewRef((PyObject *)ev)};
    if (sim_push_entry(self, e) < 0) {
        Py_DECREF((PyObject *)ev);   /* the entry's ref */
        Py_DECREF((PyObject *)ev);   /* the caller's ref */
        return NULL;
    }
    self->live++;
    return (PyObject *)ev;
}

static PyObject *
sim_schedule_at(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *time_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule_at", &time_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    double t;
    if (as_double(time_o, &t) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    return sim_schedule_common(self, t, fn, cbargs, priority, EV_PLAIN);
}

static PyObject *
sim_schedule(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *delay_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule", &delay_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    double delay;
    if (as_double(delay_o, &delay) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    if (delay < 0) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule into the past (delay=%S)", delay_o);
        Py_DECREF(cbargs);
        return NULL;
    }
    return sim_schedule_common(self, self->now + delay, fn, cbargs,
                               priority, EV_PLAIN);
}

static PyObject *
sim_schedule_anon(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *time_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule_anon", &time_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    double t;
    if (as_double(time_o, &t) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    /* Honour the runtime flag, like the pure engine (legacy_mode turns
     * the pool off and schedule_anon degrades to schedule_at). */
    int pooled = 1;
    PyObject *flags = get_perf_flags();
    if (flags == NULL) {
        Py_DECREF(cbargs);
        return NULL;
    }
    PyObject *on = PyObject_GetAttrString(flags, "event_pool");
    if (on == NULL) {
        Py_DECREF(cbargs);
        return NULL;
    }
    pooled = PyObject_IsTrue(on);
    Py_DECREF(on);
    if (pooled < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    if (pooled && self->ev_pool == NULL) {
        self->ev_pool = (PyObject **)PyMem_Malloc(
            EV_POOL_MAX * sizeof(PyObject *));
        if (self->ev_pool == NULL) {
            Py_DECREF(cbargs);
            return PyErr_NoMemory();
        }
        self->ev_pool_len = 0;
    }
    return sim_schedule_common(self, t, fn, cbargs, priority,
                               pooled ? EV_POOLED : EV_PLAIN);
}

static PyObject *
sim_postpone(PyObject *self_o, PyObject *args)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *ev_o, *time_o;
    if (!PyArg_ParseTuple(args, "OO:postpone", &ev_o, &time_o))
        return NULL;
    if (!PyObject_TypeCheck(ev_o, &Event_Type)) {
        PyErr_SetString(PyExc_ValueError,
                        "event belongs to a different simulator");
        return NULL;
    }
    CoreEvent *ev = (CoreEvent *)ev_o;
    if (ev->fn == NULL) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot postpone a cancelled or fired event");
        return NULL;
    }
    if (ev->kind != EV_PLAIN) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot postpone a series or pooled event");
        return NULL;
    }
    if (ev->sim != (PyObject *)self) {
        PyErr_SetString(PyExc_ValueError,
                        "event belongs to a different simulator");
        return NULL;
    }
    double t;
    if (as_double(time_o, &t) < 0)
        return NULL;
    if (ev->time <= t && t < INFINITY) {
        /* Lazy path: update the handle in place; the queued entry goes
         * stale and is silently re-filed when it surfaces. */
        ev->time = t;
        ev->seq = self->next_seq++;
        return Py_NewRef(ev_o);
    }
    /* Deadline moved earlier (or non-finite): eager cancel+reschedule —
     * still exactly one seq draw, in schedule_at. */
    PyObject *fn = Py_NewRef(ev->fn);
    PyObject *cbargs = ev->args ? Py_NewRef(ev->args) : Py_NewRef(empty_tuple);
    long priority = ev->priority;
    event_cancel_impl(ev);
    PyObject *res = sim_schedule_common(self, t, fn, cbargs, priority,
                                        EV_PLAIN);
    Py_DECREF(fn);
    return res;
}

static PyObject *
sim_schedule_series(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *times_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule_series", &times_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    PyObject *times = PySequence_List(times_o);
    if (times == NULL) {
        Py_DECREF(cbargs);
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(times);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *f = PyNumber_Float(PyList_GET_ITEM(times, i));
        if (f == NULL)
            goto fail;
        PyList_SET_ITEM(times, i, f);
    }
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "schedule_series needs at least one time");
        goto fail;
    }
    double prev = self->now;
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = PyFloat_AS_DOUBLE(PyList_GET_ITEM(times, i));
        if (!(prev <= t && t < INFINITY)) {
            PyObject *to = PyFloat_FromDouble(t);
            PyObject *po = PyFloat_FromDouble(prev);
            PyErr_Format(PyExc_ValueError,
                         "series times must be finite, ascending, and not "
                         "in the past (got %S after %S)", to, po);
            Py_XDECREF(to);
            Py_XDECREF(po);
            goto fail;
        }
        prev = t;
    }
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError, "fn must be callable");
        goto fail;
    }
    {
        long long seq = self->next_seq++;
        double t0 = PyFloat_AS_DOUBLE(PyList_GET_ITEM(times, 0));
        PyTypeObject *tp = &SeriesEvent_Type;
        CoreEvent *ev = (CoreEvent *)tp->tp_alloc(tp, 0);
        if (ev == NULL)
            goto fail;
        ev->time = t0;
        ev->priority = priority;
        ev->seq = seq;
        ev->fn = Py_NewRef(fn);
        ev->args = cbargs;          /* stolen */
        ev->sim = Py_NewRef((PyObject *)self);
        ev->times = times;          /* stolen */
        ev->index = 0;
        ev->kind = EV_SERIES;
        ev->stop_flag = 0;
        ev->queued = 1;
        Entry e = {t0, priority, seq, Py_NewRef((PyObject *)ev)};
        if (sim_push_entry(self, e) < 0) {
            Py_DECREF((PyObject *)ev);
            Py_DECREF((PyObject *)ev);
            return NULL;
        }
        self->live++;
        return (PyObject *)ev;
    }
fail:
    Py_DECREF(cbargs);
    Py_DECREF(times);
    return NULL;
}

static PyObject *
sim_run(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_o = Py_None, *max_o = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO:run", kwlist,
                                     &until_o, &max_o))
        return NULL;
    if (self->running) {
        PyErr_SetString(PyExc_RuntimeError, "simulator is already running");
        return NULL;
    }
    double limit = INFINITY, until_v = 0.0;
    int has_until = 0;
    if (until_o != Py_None) {
        if (as_double(until_o, &until_v) < 0)
            return NULL;
        limit = until_v;
        has_until = 1;
    }
    long long cap = LLONG_MAX;
    if (max_o != Py_None) {
        double c;
        if (as_double(max_o, &c) < 0)
            return NULL;
        if (c < (double)LLONG_MAX)
            cap = (long long)c;
    }
    self->running = 1;
    self->stopped = 0;
    int rc = (self->backend == BACKEND_HEAP)
                 ? heap_run(self, limit, cap)
                 : cal_run(self, limit, cap);
    self->running = 0;
    if (rc < 0)
        return NULL;
    if (has_until && self->now < until_v && !self->stopped)
        self->now = until_v;
    return PyFloat_FromDouble(self->now);
}

static PyObject *
sim_stop(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    ((CoreSim *)self_o)->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
sim_pending(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(((CoreSim *)self_o)->live);
}

static PyObject *
sim_peek_time(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    CoreSim *self = (CoreSim *)self_o;
    double t = (self->backend == BACKEND_HEAP)
                   ? heap_first_time(self)
                   : cal_first_time(self);
    if (t == -2.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(t);
}

static PyObject *
sim_queue_stats(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
    int rc = 0;
    PyObject *v;
#define PUT_LL(key, val) \
    do { \
        v = PyLong_FromLongLong(val); \
        if (v == NULL || PyDict_SetItemString(d, key, v) < 0) rc = -1; \
        Py_XDECREF(v); \
    } while (0)
    v = PyUnicode_FromString(
        self->backend == BACKEND_HEAP ? "heap" : "calendar");
    if (v == NULL || PyDict_SetItemString(d, "backend", v) < 0)
        rc = -1;
    Py_XDECREF(v);
    PUT_LL("queued", self->size);
    PUT_LL("live", self->live);
    PUT_LL("peak_occupancy", self->peak);
    PUT_LL("dead", self->dead);
    PUT_LL("pushes", self->pushes);
    PUT_LL("resizes", self->resizes);
    PUT_LL("event_pool_created", self->ev_created);
    PUT_LL("event_pool_reused", self->ev_reused);
#undef PUT_LL
    if (rc < 0) {
        Py_DECREF(d);
        return NULL;
    }
    return d;
}

static PyObject *
sim_get_now(PyObject *self_o, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(((CoreSim *)self_o)->now);
}

static PyObject *
sim_get_queue_kind(PyObject *self_o, void *Py_UNUSED(closure))
{
    CoreSim *self = (CoreSim *)self_o;
    return PyUnicode_FromString(
        self->backend == BACKEND_HEAP ? "heap" : "calendar");
}

static PyObject *
sim_repr(PyObject *self_o)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *now = PyFloat_FromDouble(self->now);
    PyObject *r = PyUnicode_FromFormat(
        "Simulator(now=%S, pending=%lld, queue=%s)",
        now, self->live,
        self->backend == BACKEND_HEAP ? "heap" : "calendar");
    Py_XDECREF(now);
    return r;
}

/* Drop every reference the queues and the pool hold. */
static void
sim_drop_refs(CoreSim *self)
{
    for (Py_ssize_t i = 0; i < self->heap.len; i++)
        Py_DECREF(self->heap.a[i].ev);
    self->heap.len = 0;
    if (self->buckets != NULL) {
        for (Py_ssize_t b = 0; b < self->nbuckets; b++) {
            EVec *bucket = &self->buckets[b];
            for (Py_ssize_t i = 0; i < bucket->len; i++)
                Py_DECREF(bucket->a[i].ev);
            bucket->len = 0;
        }
    }
    for (Py_ssize_t i = 0; i < self->over.len; i++)
        Py_DECREF(self->over.a[i].ev);
    self->over.len = 0;
    if (self->ev_pool != NULL) {
        for (Py_ssize_t i = 0; i < self->ev_pool_len; i++)
            Py_DECREF(self->ev_pool[i]);
        self->ev_pool_len = 0;
    }
    self->wheel_count = 0;
    self->size = 0;
    self->dead = 0;
    self->live = 0;
}

static void
sim_free_buffers(CoreSim *self)
{
    evec_free(&self->heap);
    if (self->buckets != NULL) {
        for (Py_ssize_t b = 0; b < self->nbuckets; b++)
            evec_free(&self->buckets[b]);
        PyMem_Free(self->buckets);
        self->buckets = NULL;
    }
    self->nbuckets = 0;
    evec_free(&self->over);
    PyMem_Free(self->ev_pool);
    self->ev_pool = NULL;
}

static int
sim_traverse(PyObject *self_o, visitproc visit, void *arg)
{
    CoreSim *self = (CoreSim *)self_o;
    for (Py_ssize_t i = 0; i < self->heap.len; i++)
        Py_VISIT(self->heap.a[i].ev);
    if (self->buckets != NULL) {
        for (Py_ssize_t b = 0; b < self->nbuckets; b++) {
            EVec *bucket = &self->buckets[b];
            for (Py_ssize_t i = 0; i < bucket->len; i++)
                Py_VISIT(bucket->a[i].ev);
        }
    }
    for (Py_ssize_t i = 0; i < self->over.len; i++)
        Py_VISIT(self->over.a[i].ev);
    if (self->ev_pool != NULL) {
        for (Py_ssize_t i = 0; i < self->ev_pool_len; i++)
            Py_VISIT(self->ev_pool[i]);
    }
    return 0;
}

static int
sim_clear(PyObject *self_o)
{
    sim_drop_refs((CoreSim *)self_o);
    return 0;
}

static void
sim_dealloc(PyObject *self_o)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject_GC_UnTrack(self_o);
    sim_drop_refs(self);
    sim_free_buffers(self);
    Py_TYPE(self_o)->tp_free(self_o);
}

static int
sim_init(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    static char *kwlist[] = {"queue", NULL};
    PyObject *queue_o = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:Simulator", kwlist,
                                     &queue_o))
        return -1;
    PyObject *queue = queue_o;
    if (queue == Py_None) {
        PyObject *flags = get_perf_flags();
        if (flags == NULL)
            return -1;
        queue = PyObject_GetAttrString(flags, "queue");
        if (queue == NULL)
            return -1;
    }
    else {
        Py_INCREF(queue);
    }
    int backend;
    if (PyUnicode_Check(queue) &&
        PyUnicode_CompareWithASCIIString(queue, "heap") == 0) {
        backend = BACKEND_HEAP;
    }
    else if (PyUnicode_Check(queue) &&
             PyUnicode_CompareWithASCIIString(queue, "calendar") == 0) {
        backend = BACKEND_CALENDAR;
    }
    else {
        PyErr_Format(PyExc_ValueError,
                     "unknown queue backend %R; expected one of "
                     "['calendar', 'heap']", queue);
        Py_DECREF(queue);
        return -1;
    }
    Py_DECREF(queue);

    /* Re-init safety (Simulator.__init__ called twice). */
    sim_drop_refs(self);
    sim_free_buffers(self);

    self->now = 0.0;
    self->next_seq = 0;
    self->live = 0;
    self->running = 0;
    self->stopped = 0;
    self->backend = backend;
    self->events_executed = 0;
    self->dead = self->size = self->peak = self->pushes = self->resizes = 0;
    evec_init(&self->heap);
    evec_init(&self->over);
    self->ev_pool = NULL;
    self->ev_pool_len = 0;
    self->ev_created = self->ev_reused = 0;
    self->buckets = NULL;
    self->nbuckets = 0;
    if (backend == BACKEND_CALENDAR) {
        self->nbuckets = CAL_INIT_BUCKETS;
        self->width = CAL_INIT_WIDTH;
        self->inv_width = 1.0 / CAL_INIT_WIDTH;
        self->buckets = (EVec *)PyMem_Calloc(CAL_INIT_BUCKETS, sizeof(EVec));
        if (self->buckets == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->anchored = 0;
        self->start = self->end = 0.0;
        self->hint = 0;
        self->wheel_count = 0;
        self->grow_at = 2 * CAL_INIT_BUCKETS;
        self->shrink_at = CAL_INIT_BUCKETS / 8;
    }
    return 0;
}

static PyMemberDef sim_members[] = {
    {"events_executed", T_LONGLONG, offsetof(CoreSim, events_executed), 0,
     "Total events executed across all run() calls."},
    {NULL}
};

static PyGetSetDef sim_getset[] = {
    {"now", sim_get_now, NULL, "Current simulation time in seconds.", NULL},
    {"queue_kind", sim_get_queue_kind, NULL,
     "Which queue backend this simulator runs on.", NULL},
    {NULL}
};

static PyMethodDef sim_methods[] = {
    {"schedule", (PyCFunction)sim_schedule, METH_VARARGS | METH_KEYWORDS,
     "Schedule fn(*args) to run `delay` seconds from now."},
    {"schedule_at", (PyCFunction)sim_schedule_at, METH_VARARGS | METH_KEYWORDS,
     "Schedule fn(*args) at absolute simulation time `time`."},
    {"schedule_anon", (PyCFunction)sim_schedule_anon,
     METH_VARARGS | METH_KEYWORDS,
     "schedule_at for fire-and-forget callbacks (recycled handles)."},
    {"schedule_series", (PyCFunction)sim_schedule_series,
     METH_VARARGS | METH_KEYWORDS,
     "Schedule fn(*args) at every time of an ascending schedule."},
    {"postpone", (PyCFunction)sim_postpone, METH_VARARGS,
     "Move a pending event's deadline, cheaply when it moves later."},
    {"run", (PyCFunction)sim_run, METH_VARARGS | METH_KEYWORDS,
     "Execute events until the queue drains, `until` passes, or "
     "`max_events` have run."},
    {"stop", sim_stop, METH_NOARGS,
     "Stop the run loop after the current event returns."},
    {"pending", sim_pending, METH_NOARGS,
     "Number of non-cancelled events currently queued (O(1))."},
    {"peek_time", sim_peek_time, METH_NOARGS,
     "Time of the next pending event, or inf when the queue is empty."},
    {"queue_stats", sim_queue_stats, METH_NOARGS,
     "Occupancy counters of the queue backend (for benchmarks)."},
    {NULL}
};

static PyTypeObject Simulator_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._corec.Simulator",
    .tp_basicsize = sizeof(CoreSim),
    .tp_dealloc = sim_dealloc,
    .tp_repr = sim_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The discrete-event clock and event queue (compiled core).",
    .tp_traverse = sim_traverse,
    .tp_clear = sim_clear,
    .tp_methods = sim_methods,
    .tp_members = sim_members,
    .tp_getset = sim_getset,
    .tp_init = sim_init,
    .tp_new = PyType_GenericNew,
};

/* --------------------------------------------------------------- hashing */

/* stable_hash64(*parts): bit-exact twin of repro.util.hashing.stable_hash64,
 * the spec.  FNV-1a is streamed over the same tagged encoding the pure
 * function builds in a bytearray (tag byte, payload, 0x1F separator per
 * part), then finished with fmix64.  Type dispatch follows the pure
 * isinstance order (bool before int); ints are masked to 64 bits exactly
 * like `part & _MASK_64`, and errors carry the same types and messages. */

#define FNV_OFFSET_BASIS_64 0xCBF29CE484222325ULL
#define FNV_PRIME_64 0x100000001B3ULL

static inline uint64_t
fnv1a_byte(uint64_t h, unsigned char byte)
{
    return (h ^ byte) * FNV_PRIME_64;
}

static inline uint64_t
fnv1a_feed(uint64_t h, const char *p, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        h = fnv1a_byte(h, (unsigned char)p[i]);
    return h;
}

static PyObject *
corec_stable_hash64(PyObject *Py_UNUSED(module), PyObject *const *args,
                    Py_ssize_t nargs)
{
    uint64_t h = FNV_OFFSET_BASIS_64;
    for (Py_ssize_t i = 0; i < nargs; i++) {
        PyObject *part = args[i];
        if (PyBool_Check(part)) {
            h = fnv1a_byte(fnv1a_byte(h, 0x03), part == Py_True);
        }
        else if (PyLong_Check(part)) {
            /* Never fails for an int: the mask is taken modulo 2**64. */
            uint64_t v = PyLong_AsUnsignedLongLongMask(part);
            h = fnv1a_byte(h, 0x01);
            for (int shift = 56; shift >= 0; shift -= 8)  /* big-endian */
                h = fnv1a_byte(h, (unsigned char)(v >> shift));
        }
        else if (PyUnicode_Check(part)) {
            Py_ssize_t n;
            const char *s = PyUnicode_AsUTF8AndSize(part, &n);
            if (s == NULL)
                return NULL;
            h = fnv1a_feed(fnv1a_byte(h, 0x02), s, n);
        }
        else if (PyBytes_Check(part)) {
            h = fnv1a_feed(fnv1a_byte(h, 0x04), PyBytes_AS_STRING(part),
                           PyBytes_GET_SIZE(part));
        }
        else {
            /* type(part).__name__, as the pure message has it (tp_name
             * would be module-qualified for extension types). */
            PyObject *name = PyObject_GetAttrString((PyObject *)Py_TYPE(part),
                                                    "__name__");
            if (name == NULL)
                return NULL;
            PyErr_Format(PyExc_TypeError, "unhashable part type: %U", name);
            Py_DECREF(name);
            return NULL;
        }
        h = fnv1a_byte(h, 0x1F);  /* unit separator */
    }
    /* fmix64 */
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return PyLong_FromUnsignedLongLong(h);
}

/* ---------------------------------------------------------------- module */

static PyMethodDef corec_methods[] = {
    {"stable_hash64", (PyCFunction)corec_stable_hash64,
     METH_FASTCALL, "Stable 64-bit hash of int/str/bytes parts (compiled)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._corec",
    .m_doc = "Compiled simulation core (bit-exact twin of repro.sim.engine "
             "and of repro.util.hashing.stable_hash64).",
    .m_size = -1,
    .m_methods = corec_methods,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL)
        return NULL;
    if (PyType_Ready(&Event_Type) < 0 ||
        PyType_Ready(&SeriesEvent_Type) < 0 ||
        PyType_Ready(&Simulator_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&corec_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddObjectRef(mod, "Event", (PyObject *)&Event_Type) < 0 ||
        PyModule_AddObjectRef(mod, "SeriesEvent",
                              (PyObject *)&SeriesEvent_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Simulator",
                              (PyObject *)&Simulator_Type) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
