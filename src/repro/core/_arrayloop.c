/* C delivery loop for the array-backed protocol core (repro.core.arraystate).
 *
 * Compiled on demand by repro/core/arrayloop.py (plain `cc -O2 -shared`);
 * the build is best-effort and every failure falls back to the pure-Python
 * loop, so this file must never be required for correctness.
 *
 * Contract (see arraystate.ArrayCore.run_loop): run() executes steps of the
 * exact same state machine over the same columnar state, and hands any step
 * it cannot reproduce bit-for-bit back to Python *before* mutating it:
 *
 *   run(core, pool, pool_append, mode, getrandbits, stop, cell) -> (code, aux)
 *
 *   code 0: pool drained (quiescence candidate; caller's `while pool`
 *           re-checks).
 *   code 1: step limit boundary: a counted step just finished with
 *           steps >= stop; Python evaluates `quiescent()` and raises
 *           StepLimitExceeded exactly like its own loop.
 *   code 2: step deopt; aux is the already-popped pool token (>= 0, a
 *           deliver).  The channel head was only *peeked* and the step was
 *           not counted; the only possible prior mutation is the
 *           wake-explore of the destination, which Python's own
 *           `if not awake[dst]` guard makes idempotent.  Python re-executes
 *           the full step body (and its error paths) on the object closures.
 *   code 3: pump resume; aux is the node whose inbox pump hit a message the
 *           C side cannot handle.  The step was counted and the message is
 *           still at the inbox head; Python's pump() continues from the
 *           current inbox/deferred state (pump is resumable by design).
 *
 * cell is a one-element list holding the absolute step count; it is read at
 * entry and written back on *every* exit -- including exceptions -- so the
 * caller's steps_out accounting survives a handler raise mid-run.
 *
 * Channel slots: core.chanq[cid] is None (empty), the wire tuple itself
 * (one message in flight; the slot owns that reference) or a deque (two or
 * more queued).  emit() spills a tuple slot to a deque on the second
 * message; chan_pop() collapses a deque back to its last message and a
 * tuple slot back to None, exactly like the Python loop.
 *
 * Parity rules encoded here:
 *  - Only prechecked steps are executed; every ProtocolError path in the
 *    Python handlers is unreachable because can_handle() routes it to
 *    Python first (code 2/3).  The one exception is the self-send guard in
 *    emit(), which raises the same SimulationError with the same message.
 *  - Pool, channel, counts and `order` mutations happen in the exact order
 *    the Python handlers produce them.
 *  - Heap *layout* may differ from heapq's (sift details), but pop order is
 *    value-determined (ranks are unique) and the heaps are rebuilt from the
 *    live sets at materialization, so layout is unobservable.
 *  - Random mode inlines the same getrandbits rejection loop the Python
 *    loop inlines; a popped token is never "un-popped" (the draw is spent),
 *    it is handed over via code 2.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Wire tags (repro.core.messages; order asserted by the loader). */
#define T_QUERY 0
#define T_QUERY_REPLY 1
#define T_SEARCH 2
#define T_RELEASE 3
#define T_MERGE_ACCEPT 4
#define T_MERGE_FAIL 5
#define T_INFO 6
#define T_CONQUER 7
#define T_MORE_DONE 8
#define T_PROBE 9
#define T_PROBE_REPLY 10
#define N_TAGS 11

/* Status codes (repro.core.node STATUS_NAMES order; loader-asserted). */
#define ST_ASLEEP 0
#define ST_EXPLORE 1
#define ST_WAIT 2
#define ST_CONQUERED 3
#define ST_CONQUEROR 4
#define ST_PASSIVE 5
#define ST_INACTIVE 6
#define ST_TERMINATED 7

#define V_GENERIC 0
#define V_BOUNDED 1
#define V_ADHOC 2

#define MODE_FIFO 0
#define MODE_LIFO 1
#define MODE_RANDOM 2

/* run() result codes. */
#define RC_DRAINED 0
#define RC_LIMIT 1
#define RC_DEOPT 2
#define RC_PUMP 3

/* ------------------------------------------------------------------ */
/* configure()-provided globals                                        */
/* ------------------------------------------------------------------ */
static PyObject *g_deque_type;    /* collections.deque */
static PyObject *g_sim_error;     /* repro.sim.network.SimulationError */
static PyObject *g_msg_types;     /* tuple of msg_type strings, tag order */
static PyObject *g_wire_ma;       /* WIRE_MERGE_ACCEPT singleton */
static PyObject *g_wire_mf;       /* WIRE_MERGE_FAIL singleton */
static PyObject *g_wire_md_t;     /* WIRE_MORE_DONE_TRUE singleton */
static PyObject *g_wire_md_f;     /* WIRE_MORE_DONE_FALSE singleton */
static PyObject *g_greedy_k;      /* 1 << 62 as a PyLong */
static PyObject *g_tag_objs[N_TAGS];
static PyObject *g_k_objs[65];    /* small ints for getrandbits(k) */
static PyObject *g_zero;
static PyObject *g_neg_one;
static PyObject *s_append, *s_popleft, *s_appendleft;
static int g_configured = 0;

#define GREEDY_K_VAL (1LL << 62)

/* ------------------------------------------------------------------ */
/* Per-call state: every column of the ArrayCore as a direct pointer.  */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject *core;
    Py_ssize_t n;
    /* bytearray-backed columns (object ref + raw pointer) */
    PyObject *status_o, *awake_o, *aw_rel_o, *aw_info_o, *stale_o,
        *variant_o, *greedy_o;
    char *status, *awake, *aw_rel, *aw_info, *stale, *variant, *greedy;
    /* list-backed columns */
    PyObject *ids, *nxt, *phase, *aw_query, *csize;
    PyObject *local, *done, *more, *unaware, *unexp, *mheap, *uheap;
    PyObject *previous, *inbox, *deferred;
    PyObject *rrank, *by_rrank, *nrank;
    PyObject *chanq, *chan_src, *chan_dst, *out, *iobj;
    PyObject *counts_l, *xtra_l, *order;
    long counts[N_TAGS], xtra[N_TAGS];
    /* run parameters */
    PyObject *pool, *pool_append, *pool_popleft, *getrandbits;
    int mode;
    long stop;
    long steps;
    /* scratch for rank sorts */
    struct rpair *scratch;
    Py_ssize_t scratch_cap;
} S;

struct rpair {
    long rank;
    long id;
};

static int
cmp_rpair(const void *a, const void *b)
{
    long ra = ((const struct rpair *)a)->rank;
    long rb = ((const struct rpair *)b)->rank;
    return (ra > rb) - (ra < rb);
}

static struct rpair *
get_scratch(S *s, Py_ssize_t need)
{
    if (need > s->scratch_cap) {
        Py_ssize_t cap = need < 64 ? 64 : need;
        struct rpair *p = PyMem_Realloc(s->scratch, cap * sizeof(struct rpair));
        if (p == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        s->scratch = p;
        s->scratch_cap = cap;
    }
    return s->scratch;
}

/* Canonical int object for a node/channel index in [0, n). */
#define IOBJ(s, i) PyList_GET_ITEM((s)->iobj, (i))
/* long value of a PyList slot holding an int. */
#define GETL(list, i) PyLong_AsLong(PyList_GET_ITEM((list), (i)))

/* Store an int object (borrowed) into a list slot. */
static int
set_item_obj(PyObject *list, Py_ssize_t i, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(list, i, v);
}

/* ------------------------------------------------------------------ */
/* Heaps: PyLists of unique rank ints, min-heap order.                 */
/* ------------------------------------------------------------------ */
static int
heap_push(PyObject *heap, long val)
{
    PyObject *v = PyLong_FromLong(val);
    if (v == NULL)
        return -1;
    if (PyList_Append(heap, v) < 0) {
        Py_DECREF(v);
        return -1;
    }
    Py_DECREF(v);
    Py_ssize_t pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        PyObject *po = PyList_GET_ITEM(heap, parent);
        PyObject *co = PyList_GET_ITEM(heap, pos);
        if (PyLong_AsLong(co) < PyLong_AsLong(po)) {
            PyList_SET_ITEM(heap, parent, co);
            PyList_SET_ITEM(heap, pos, po);
            pos = parent;
        }
        else
            break;
    }
    return 0;
}

/* Pop the min; caller guarantees the heap is non-empty. */
static long
heap_pop(PyObject *heap)
{
    Py_ssize_t size = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, size - 1);
    Py_INCREF(last);
    PyList_SetSlice(heap, size - 1, size, NULL);
    size -= 1;
    if (size == 0) {
        long v = PyLong_AsLong(last);
        Py_DECREF(last);
        return v;
    }
    PyObject *root = PyList_GET_ITEM(heap, 0);
    long rv = PyLong_AsLong(root);
    PyList_SET_ITEM(heap, 0, last); /* steals our ref */
    Py_DECREF(root);
    /* sift the displaced value down */
    Py_ssize_t pos = 0;
    long lv = PyLong_AsLong(last);
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            PyLong_AsLong(PyList_GET_ITEM(heap, child + 1)) <
                PyLong_AsLong(PyList_GET_ITEM(heap, child)))
            child += 1;
        PyObject *co = PyList_GET_ITEM(heap, child);
        if (PyLong_AsLong(co) < lv) {
            PyObject *po = PyList_GET_ITEM(heap, pos);
            PyList_SET_ITEM(heap, pos, co);
            PyList_SET_ITEM(heap, child, po);
            pos = child;
        }
        else
            break;
    }
    return rv;
}

/* ------------------------------------------------------------------ */
/* Transport                                                           */
/* ------------------------------------------------------------------ */
/* emit(src, dst, tag, msg): msg is borrowed.  Mirrors the Python closure
 * exactly, including the self-send SimulationError. */
static int
emit(S *s, long src, long dst, int tag, PyObject *msg)
{
    if (dst == src) {
        PyErr_Format(g_sim_error,
                     "node %R tried to message itself with %R; "
                     "self-interactions must be simulated internally "
                     "(Section 4.1)",
                     PyList_GET_ITEM(s->ids, src),
                     PyTuple_GET_ITEM(g_msg_types, tag));
        return -1;
    }
    PyObject *d = PyList_GET_ITEM(s->out, src);
    if (d == Py_None) {
        d = PyDict_New();
        if (d == NULL)
            return -1;
        PyList_SetItem(s->out, src, d); /* steals; list keeps d alive */
    }
    PyObject *key = IOBJ(s, dst);
    PyObject *cid_obj = PyDict_GetItemWithError(d, key);
    long cid;
    if (cid_obj == NULL) {
        if (PyErr_Occurred())
            return -1;
        /* a new channel's slot starts out holding msg inline */
        cid = (long)PyList_GET_SIZE(s->chanq);
        if (PyList_Append(s->chanq, msg) < 0 ||
            PyList_Append(s->chan_src, IOBJ(s, src)) < 0 ||
            PyList_Append(s->chan_dst, key) < 0)
            return -1;
        PyObject *cid_new = PyLong_FromLong(cid);
        if (cid_new == NULL)
            return -1;
        int r = PyDict_SetItem(d, key, cid_new);
        Py_DECREF(cid_new);
        if (r < 0)
            return -1;
    }
    else {
        cid = PyLong_AsLong(cid_obj);
        PyObject *slot = PyList_GET_ITEM(s->chanq, cid);
        if (slot == Py_None) {
            Py_INCREF(msg);
            if (PyList_SetItem(s->chanq, cid, msg) < 0)
                return -1;
        }
        else if (PyTuple_CheckExact(slot)) {
            /* second queued message: spill to a deque */
            PyObject *pair = PyTuple_Pack(2, slot, msg);
            if (pair == NULL)
                return -1;
            PyObject *q = PyObject_CallOneArg(g_deque_type, pair);
            Py_DECREF(pair);
            if (q == NULL)
                return -1;
            if (PyList_SetItem(s->chanq, cid, q) < 0) /* steals q */
                return -1;
        }
        else {
            PyObject *r = PyObject_CallMethodOneArg(slot, s_append, msg);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
    }
    if (s->counts[tag]++ == 0) {
        if (PyList_Append(s->order, g_tag_objs[tag]) < 0)
            return -1;
    }
    PyObject *tok = PyLong_FromLong(cid);
    if (tok == NULL)
        return -1;
    PyObject *r = PyObject_CallOneArg(s->pool_append, tok);
    Py_DECREF(tok);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
emitx(S *s, long src, long dst, int tag, PyObject *msg, long extra_ids)
{
    s->xtra[tag] += extra_ids;
    return emit(s, src, dst, tag, msg);
}

/* Head message of a non-empty channel: new ref, slot untouched. */
static PyObject *
chan_peek(S *s, long cid)
{
    PyObject *slot = PyList_GET_ITEM(s->chanq, cid);
    if (PyTuple_CheckExact(slot)) {
        Py_INCREF(slot);
        return slot;
    }
    return PySequence_GetItem(slot, 0);
}

/* Pop the head message of a non-empty channel: new ref.  A deque left
 * holding one message collapses back to it; a tuple slot empties. */
static PyObject *
chan_pop(S *s, long cid)
{
    PyObject *slot = PyList_GET_ITEM(s->chanq, cid);
    if (PyTuple_CheckExact(slot)) {
        /* the slot's reference passes to the caller */
        Py_INCREF(Py_None);
        PyList_SET_ITEM(s->chanq, cid, Py_None);
        return slot;
    }
    PyObject *msg = PyObject_CallMethodNoArgs(slot, s_popleft);
    if (msg == NULL)
        return NULL;
    Py_ssize_t left = PyObject_Size(slot);
    if (left < 0) {
        Py_DECREF(msg);
        return NULL;
    }
    if (left == 1) {
        PyObject *last = PySequence_GetItem(slot, 0);
        /* PyList_SetItem steals `last` and frees the deque */
        if (last == NULL || PyList_SetItem(s->chanq, cid, last) < 0) {
            Py_DECREF(msg);
            return NULL;
        }
    }
    return msg;
}

/* ------------------------------------------------------------------ */
/* Deterministic-choice helpers                                        */
/* ------------------------------------------------------------------ */
#define C_ERR (-2) /* error sentinel for long-returning helpers */

static int
add_more(S *s, long i, long w)
{
    PyObject *mo = PyList_GET_ITEM(s->more, i);
    PyObject *wo = IOBJ(s, w);
    int c = PySet_Contains(mo, wo);
    if (c < 0)
        return -1;
    if (!c) {
        if (PySet_Add(mo, wo) < 0)
            return -1;
        if (heap_push(PyList_GET_ITEM(s->mheap, i), GETL(s->rrank, w)) < 0)
            return -1;
    }
    return 0;
}

static int
add_unexplored(S *s, long i, long u)
{
    PyObject *ux = PyList_GET_ITEM(s->unexp, i);
    PyObject *uo = IOBJ(s, u);
    int c = PySet_Contains(ux, uo);
    if (c < 0)
        return -1;
    if (!c) {
        if (PySet_Add(ux, uo) < 0)
            return -1;
        if (heap_push(PyList_GET_ITEM(s->uheap, i), GETL(s->rrank, u)) < 0)
            return -1;
    }
    return 0;
}

static long
peek_more(S *s, long i)
{
    PyObject *heap = PyList_GET_ITEM(s->mheap, i);
    PyObject *mo = PyList_GET_ITEM(s->more, i);
    while (PyList_GET_SIZE(heap) > 0) {
        long w = GETL(s->by_rrank, PyLong_AsLong(PyList_GET_ITEM(heap, 0)));
        int c = PySet_Contains(mo, IOBJ(s, w));
        if (c < 0)
            return C_ERR;
        if (c)
            return w;
        heap_pop(heap);
    }
    return -1;
}

static long
pop_unexplored(S *s, long i)
{
    PyObject *heap = PyList_GET_ITEM(s->uheap, i);
    PyObject *ux = PyList_GET_ITEM(s->unexp, i);
    while (PyList_GET_SIZE(heap) > 0) {
        long u = GETL(s->by_rrank, heap_pop(heap));
        PyObject *uo = IOBJ(s, u);
        int c = PySet_Contains(ux, uo);
        if (c < 0)
            return C_ERR;
        if (!c)
            continue;
        if (PySet_Discard(ux, uo) < 0)
            return C_ERR;
        if (u == i)
            continue;
        c = PySet_Contains(PyList_GET_ITEM(s->more, i), uo);
        if (c < 0)
            return C_ERR;
        if (c)
            continue;
        c = PySet_Contains(PyList_GET_ITEM(s->done, i), uo);
        if (c < 0)
            return C_ERR;
        if (c)
            continue;
        c = PySet_Contains(PyList_GET_ITEM(s->unaware, i), uo);
        if (c < 0)
            return C_ERR;
        if (c)
            continue;
        return u;
    }
    return -1;
}

/* Collect a set of node ints into the rank-sorted scratch; returns the
 * member count or -1.  Equivalent to arraystate.rank_sorted (ranks are
 * unique, so qsort and the density-rule variants agree exactly). */
static Py_ssize_t
collect_rank_sorted(S *s, PyObject *set_obj)
{
    Py_ssize_t m = PySet_GET_SIZE(set_obj);
    struct rpair *buf = get_scratch(s, m);
    if (buf == NULL)
        return -1;
    PyObject *it = PyObject_GetIter(set_obj);
    if (it == NULL)
        return -1;
    Py_ssize_t k = 0;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        long v = PyLong_AsLong(item);
        Py_DECREF(item);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(it);
            return -1;
        }
        buf[k].id = v;
        buf[k].rank = GETL(s->rrank, v);
        k++;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    qsort(buf, k, sizeof(struct rpair), cmp_rpair);
    return k;
}

/* ------------------------------------------------------------------ */
/* EXPLORE (Figure 3)                                                  */
/* ------------------------------------------------------------------ */
/* take_local: returns a new frozenset ref; *done_flag set to 1 when the
 * whole local set was taken. */
static PyObject *
take_local(S *s, long i, long long k, int *done_flag)
{
    PyObject *loc = PyList_GET_ITEM(s->local, i);
    Py_ssize_t m = PySet_GET_SIZE(loc);
    if ((long long)m <= k) {
        PyObject *taken = PyFrozenSet_New(loc);
        if (taken == NULL)
            return NULL;
        if (PySet_Clear(loc) < 0) {
            Py_DECREF(taken);
            return NULL;
        }
        *done_flag = 1;
        return taken;
    }
    /* k < m: the k rank-smallest members (k_smallest equivalence). */
    Py_ssize_t cnt = collect_rank_sorted(s, loc);
    if (cnt < 0)
        return NULL;
    PyObject *taken = PyFrozenSet_New(NULL);
    if (taken == NULL)
        return NULL;
    for (Py_ssize_t j = 0; j < (Py_ssize_t)k; j++) {
        PyObject *vo = IOBJ(s, s->scratch[j].id);
        if (PySet_Add(taken, vo) < 0 || PySet_Discard(loc, vo) < 0) {
            Py_DECREF(taken);
            return NULL;
        }
    }
    *done_flag = 0;
    return taken;
}

static int
ingest_reply(S *s, long i, long source, PyObject *id_set, int done_flag)
{
    PyObject *mo = PyList_GET_ITEM(s->more, i);
    PyObject *dn = PyList_GET_ITEM(s->done, i);
    if (done_flag) {
        PyObject *so = IOBJ(s, source);
        int c = PySet_Contains(mo, so);
        if (c < 0)
            return -1;
        if (c) {
            if (PySet_Discard(mo, so) < 0 || PySet_Add(dn, so) < 0)
                return -1;
        }
    }
    PyObject *it = PyObject_GetIter(id_set);
    if (it == NULL)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        long fresh = PyLong_AsLong(item);
        int c1 = PySet_Contains(mo, item);
        int c2 = c1 == 0 ? PySet_Contains(dn, item) : 1;
        Py_DECREF(item);
        if (c1 < 0 || c2 < 0)
            goto fail;
        if (c1 == 0 && c2 == 0 && fresh != i) {
            if (add_unexplored(s, i, fresh) < 0)
                goto fail;
        }
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
fail:
    Py_DECREF(it);
    return -1;
}

static int explore(S *s, long i);

static int
terminate_bounded(S *s, long i)
{
    s->status[i] = ST_TERMINATED;
    PyObject *cq = PyTuple_New(3);
    if (cq == NULL)
        return -1;
    Py_INCREF(g_tag_objs[T_CONQUER]);
    PyTuple_SET_ITEM(cq, 0, g_tag_objs[T_CONQUER]);
    PyObject *io = IOBJ(s, i);
    Py_INCREF(io);
    PyTuple_SET_ITEM(cq, 1, io);
    PyObject *ph = PyList_GET_ITEM(s->phase, i);
    Py_INCREF(ph);
    PyTuple_SET_ITEM(cq, 2, ph);
    Py_ssize_t cnt = collect_rank_sorted(s, PyList_GET_ITEM(s->done, i));
    if (cnt < 0) {
        Py_DECREF(cq);
        return -1;
    }
    for (Py_ssize_t j = 0; j < cnt; j++) {
        long w = s->scratch[j].id;
        if (w != i) {
            if (emit(s, i, w, T_CONQUER, cq) < 0) {
                Py_DECREF(cq);
                return -1;
            }
        }
    }
    Py_DECREF(cq);
    return 0;
}

static int
explore(S *s, long i)
{
    s->status[i] = ST_EXPLORE;
    for (;;) {
        if (s->variant[i] == V_BOUNDED &&
            PySet_GET_SIZE(PyList_GET_ITEM(s->done, i)) ==
                GETL(s->csize, i))
            return terminate_bounded(s, i);
        long target = pop_unexplored(s, i);
        if (target == C_ERR)
            return -1;
        if (target >= 0) {
            s->status[i] = ST_WAIT;
            s->aw_rel[i] = 1;
            PyObject *msg = PyTuple_New(5);
            if (msg == NULL)
                return -1;
            Py_INCREF(g_tag_objs[T_SEARCH]);
            PyTuple_SET_ITEM(msg, 0, g_tag_objs[T_SEARCH]);
            PyObject *io = IOBJ(s, i);
            Py_INCREF(io);
            PyTuple_SET_ITEM(msg, 1, io);
            PyObject *ph = PyList_GET_ITEM(s->phase, i);
            Py_INCREF(ph);
            PyTuple_SET_ITEM(msg, 2, ph);
            PyObject *to = IOBJ(s, target);
            Py_INCREF(to);
            PyTuple_SET_ITEM(msg, 3, to);
            Py_INCREF(Py_False);
            PyTuple_SET_ITEM(msg, 4, Py_False);
            int r = emit(s, i, target, T_SEARCH, msg);
            Py_DECREF(msg);
            return r;
        }
        long cand = peek_more(s, i);
        if (cand == C_ERR)
            return -1;
        if (cand < 0) {
            s->status[i] = ST_WAIT;
            s->aw_rel[i] = 0;
            return 0;
        }
        long long k;
        if (s->greedy[i])
            k = GREEDY_K_VAL;
        else
            k = (long long)PySet_GET_SIZE(PyList_GET_ITEM(s->more, i)) +
                PySet_GET_SIZE(PyList_GET_ITEM(s->done, i)) + 1;
        if (cand == i) {
            int done_flag;
            PyObject *taken = take_local(s, i, k, &done_flag);
            if (taken == NULL)
                return -1;
            int r = ingest_reply(s, i, i, taken, done_flag);
            Py_DECREF(taken);
            if (r < 0)
                return -1;
            continue;
        }
        if (set_item_obj(s->aw_query, i, IOBJ(s, cand)) < 0)
            return -1;
        PyObject *ko;
        if (s->greedy[i]) {
            ko = g_greedy_k;
            Py_INCREF(ko);
        }
        else {
            ko = PyLong_FromLongLong(k);
            if (ko == NULL)
                return -1;
        }
        PyObject *msg = PyTuple_New(2);
        if (msg == NULL) {
            Py_DECREF(ko);
            return -1;
        }
        Py_INCREF(g_tag_objs[T_QUERY]);
        PyTuple_SET_ITEM(msg, 0, g_tag_objs[T_QUERY]);
        PyTuple_SET_ITEM(msg, 1, ko); /* steals */
        int r = emit(s, i, cand, T_QUERY, msg);
        Py_DECREF(msg);
        return r;
    }
}

/* ------------------------------------------------------------------ */
/* Section 6 late-learned ids                                          */
/* ------------------------------------------------------------------ */
static int
absorb_learned_id(S *s, long i, long other)
{
    if (other == i)
        return 0;
    PyObject *loc = PyList_GET_ITEM(s->local, i);
    PyObject *oo = IOBJ(s, other);
    int c = PySet_Contains(loc, oo);
    if (c < 0)
        return -1;
    if (c)
        return 0;
    if (s->status[i] == ST_INACTIVE) {
        int had_reported_all = PySet_GET_SIZE(loc) == 0;
        if (PySet_Add(loc, oo) < 0)
            return -1;
        if (had_reported_all) {
            PyObject *msg = PyTuple_New(5);
            if (msg == NULL)
                return -1;
            Py_INCREF(g_tag_objs[T_SEARCH]);
            PyTuple_SET_ITEM(msg, 0, g_tag_objs[T_SEARCH]);
            PyObject *io = IOBJ(s, i);
            Py_INCREF(io);
            PyTuple_SET_ITEM(msg, 1, io);
            Py_INCREF(g_zero);
            PyTuple_SET_ITEM(msg, 2, g_zero);
            Py_INCREF(io);
            PyTuple_SET_ITEM(msg, 3, io);
            Py_INCREF(Py_True);
            PyTuple_SET_ITEM(msg, 4, Py_True);
            int r = emit(s, i, GETL(s->nxt, i), T_SEARCH, msg);
            Py_DECREF(msg);
            return r;
        }
        return 0;
    }
    if (PySet_Add(loc, oo) < 0)
        return -1;
    PyObject *dn = PyList_GET_ITEM(s->done, i);
    PyObject *io = IOBJ(s, i);
    c = PySet_Contains(dn, io);
    if (c < 0)
        return -1;
    if (c) {
        if (PySet_Discard(dn, io) < 0)
            return -1;
        if (add_more(s, i, i) < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Handlers                                                            */
/* ------------------------------------------------------------------ */
/* Section 4.2 target absorption; returns a NEW ref (msg or a rewrite). */
static PyObject *
absorb_target(S *s, long i, PyObject *msg)
{
    if (PyLong_AsLong(PyTuple_GET_ITEM(msg, 3)) == i) {
        PyObject *init = PyTuple_GET_ITEM(msg, 1);
        PyObject *loc = PyList_GET_ITEM(s->local, i);
        int c = PySet_Contains(loc, init);
        if (c < 0)
            return NULL;
        if (!c) {
            if (PySet_Add(loc, init) < 0)
                return NULL;
            PyObject *m = PyTuple_New(5);
            if (m == NULL)
                return NULL;
            Py_INCREF(g_tag_objs[T_SEARCH]);
            PyTuple_SET_ITEM(m, 0, g_tag_objs[T_SEARCH]);
            Py_INCREF(init);
            PyTuple_SET_ITEM(m, 1, init);
            PyObject *t2 = PyTuple_GET_ITEM(msg, 2);
            Py_INCREF(t2);
            PyTuple_SET_ITEM(m, 2, t2);
            PyObject *t3 = PyTuple_GET_ITEM(msg, 3);
            Py_INCREF(t3);
            PyTuple_SET_ITEM(m, 3, t3);
            Py_INCREF(Py_True);
            PyTuple_SET_ITEM(m, 4, Py_True);
            return m;
        }
    }
    Py_INCREF(msg);
    return msg;
}

/* Build (T_RELEASE, i, merge_flag, initiator_obj, phase_obj): new ref. */
static PyObject *
make_release(S *s, long i, int is_merge, PyObject *initiator)
{
    PyObject *rel = PyTuple_New(5);
    if (rel == NULL)
        return NULL;
    Py_INCREF(g_tag_objs[T_RELEASE]);
    PyTuple_SET_ITEM(rel, 0, g_tag_objs[T_RELEASE]);
    PyObject *io = IOBJ(s, i);
    Py_INCREF(io);
    PyTuple_SET_ITEM(rel, 1, io);
    PyObject *fo = is_merge ? Py_True : Py_False;
    Py_INCREF(fo);
    PyTuple_SET_ITEM(rel, 2, fo);
    Py_INCREF(initiator);
    PyTuple_SET_ITEM(rel, 3, initiator);
    PyObject *ph = PyList_GET_ITEM(s->phase, i);
    Py_INCREF(ph);
    PyTuple_SET_ITEM(rel, 4, ph);
    return rel;
}

static int
leader_on_search(S *s, long i, long sender, PyObject *msg)
{
    PyObject *m = absorb_target(s, i, msg);
    if (m == NULL)
        return -1;
    long initiator = PyLong_AsLong(PyTuple_GET_ITEM(m, 1));
    long mphase = PyLong_AsLong(PyTuple_GET_ITEM(m, 2));
    int is_new = PyObject_IsTrue(PyTuple_GET_ITEM(m, 4));
    if (is_new < 0)
        goto fail;
    if (is_new) {
        long tgt = PyLong_AsLong(PyTuple_GET_ITEM(m, 3));
        PyObject *dn = PyList_GET_ITEM(s->done, i);
        PyObject *to = IOBJ(s, tgt);
        int c = PySet_Contains(dn, to);
        if (c < 0)
            goto fail;
        if (c) {
            if (PySet_Discard(dn, to) < 0 || add_more(s, i, tgt) < 0)
                goto fail;
        }
    }
    long ph = GETL(s->phase, i);
    int outranks =
        mphase > ph ||
        (mphase == ph && GETL(s->nrank, initiator) > GETL(s->nrank, i));
    PyObject *rel = make_release(s, i, outranks, PyTuple_GET_ITEM(m, 1));
    if (rel == NULL)
        goto fail;
    int r = emit(s, i, sender, T_RELEASE, rel);
    Py_DECREF(rel);
    if (r < 0)
        goto fail;
    if (outranks) {
        if (s->status[i] == ST_WAIT && s->aw_rel[i])
            s->stale[i] = 1;
        s->status[i] = ST_CONQUERED;
    }
    else if (s->status[i] == ST_WAIT && !s->aw_rel[i]) {
        /* Python: `unexp[i] or peek_more(i) >= 0`, short-circuited. */
        int go = PySet_GET_SIZE(PyList_GET_ITEM(s->unexp, i)) > 0;
        if (!go) {
            long pm = peek_more(s, i);
            if (pm == C_ERR)
                goto fail;
            go = pm >= 0;
        }
        if (go && explore(s, i) < 0)
            goto fail;
    }
    Py_DECREF(m);
    return 0;
fail:
    Py_DECREF(m);
    return -1;
}

static int
consume_own_release(S *s, long i, PyObject *msg)
{
    long leader = PyLong_AsLong(PyTuple_GET_ITEM(msg, 1));
    int is_merge = PyObject_IsTrue(PyTuple_GET_ITEM(msg, 2));
    if (is_merge < 0)
        return -1;
    if (s->status[i] == ST_WAIT && s->aw_rel[i]) {
        s->aw_rel[i] = 0;
        if (!is_merge) {
            if (leader == i)
                return explore(s, i);
            if (absorb_learned_id(s, i, leader) < 0)
                return -1;
            s->status[i] = ST_PASSIVE;
            return 0;
        }
        s->status[i] = ST_CONQUEROR;
        s->aw_info[i] = 1;
        return emit(s, i, leader, T_MERGE_ACCEPT, g_wire_ma);
    }
    /* precheck guarantees PASSIVE/CONQUERED/INACTIVE here */
    if (is_merge) {
        if (emit(s, i, leader, T_MERGE_FAIL, g_wire_mf) < 0)
            return -1;
    }
    if (s->stale[i]) {
        s->stale[i] = 0;
        if (absorb_learned_id(s, i, leader) < 0)
            return -1;
    }
    return 0;
}

static int
exec_search(S *s, long i, long sender, PyObject *msg)
{
    int st = s->status[i];
    if (st == ST_EXPLORE || st == ST_CONQUERED || st == ST_CONQUEROR)
        return 0; /* defer */
    if (st == ST_INACTIVE) {
        PyObject *m = absorb_target(s, i, msg);
        if (m == NULL)
            return -1;
        PyObject *prev = PyList_GET_ITEM(s->previous, i);
        if (prev == Py_None) {
            prev = PyObject_CallNoArgs(g_deque_type);
            if (prev == NULL) {
                Py_DECREF(m);
                return -1;
            }
            PyList_SetItem(s->previous, i, prev); /* steals */
        }
        PyObject *pair = PyTuple_Pack(2, m, IOBJ(s, sender));
        if (pair == NULL) {
            Py_DECREF(m);
            return -1;
        }
        PyObject *r = PyObject_CallMethodOneArg(prev, s_append, pair);
        Py_DECREF(pair);
        if (r == NULL) {
            Py_DECREF(m);
            return -1;
        }
        Py_DECREF(r);
        if (PyObject_Size(prev) == 1) {
            if (emit(s, i, GETL(s->nxt, i), T_SEARCH, m) < 0) {
                Py_DECREF(m);
                return -1;
            }
        }
        Py_DECREF(m);
        return 1;
    }
    if (st == ST_WAIT || st == ST_PASSIVE)
        return leader_on_search(s, i, sender, msg) < 0 ? -1 : 1;
    /* ST_TERMINATED, not outranked (prechecked) */
    PyObject *m = absorb_target(s, i, msg);
    if (m == NULL)
        return -1;
    PyObject *rel = make_release(s, i, 0, PyTuple_GET_ITEM(m, 1));
    Py_DECREF(m);
    if (rel == NULL)
        return -1;
    int r = emit(s, i, sender, T_RELEASE, rel);
    Py_DECREF(rel);
    return r < 0 ? -1 : 1;
}

static int
exec_release(S *s, long i, long sender, PyObject *msg)
{
    if (PyLong_AsLong(PyTuple_GET_ITEM(msg, 3)) == i)
        return consume_own_release(s, i, msg) < 0 ? -1 : 1;
    /* routing arm: INACTIVE with non-empty previous (prechecked) */
    PyObject *prev = PyList_GET_ITEM(s->previous, i);
    PyObject *item = PyObject_CallMethodNoArgs(prev, s_popleft);
    if (item == NULL)
        return -1;
    long came_from = PyLong_AsLong(PyTuple_GET_ITEM(item, 1));
    Py_DECREF(item); /* prev holds no other refs we need */
    long mphase = PyLong_AsLong(PyTuple_GET_ITEM(msg, 4));
    if (mphase >= GETL(s->phase, i)) {
        long leader = PyLong_AsLong(PyTuple_GET_ITEM(msg, 1));
        if (set_item_obj(s->nxt, i, IOBJ(s, leader)) < 0)
            return -1;
        if (set_item_obj(s->phase, i, PyTuple_GET_ITEM(msg, 4)) < 0)
            return -1;
    }
    if (emit(s, i, came_from, T_RELEASE, msg) < 0)
        return -1;
    Py_ssize_t left = PyObject_Size(prev);
    if (left < 0)
        return -1;
    if (left == 0) {
        /* drained: back to the lazy empty slot (frees the deque) */
        Py_INCREF(Py_None);
        return PyList_SetItem(s->previous, i, Py_None) < 0 ? -1 : 1;
    }
    PyObject *head = PySequence_GetItem(prev, 0);
    if (head == NULL)
        return -1;
    int r = emit(s, i, GETL(s->nxt, i), T_SEARCH, PyTuple_GET_ITEM(head, 0));
    Py_DECREF(head);
    return r < 0 ? -1 : 1;
}

static int
exec_merge_accept(S *s, long i, long sender, PyObject *msg)
{
    if (set_item_obj(s->nxt, i, IOBJ(s, sender)) < 0)
        return -1;
    PyObject *mo = PyList_GET_ITEM(s->more, i);
    PyObject *dn = PyList_GET_ITEM(s->done, i);
    PyObject *ua = PyList_GET_ITEM(s->unaware, i);
    PyObject *ux = PyList_GET_ITEM(s->unexp, i);
    long extra = (long)(PySet_GET_SIZE(mo) + PySet_GET_SIZE(dn) +
                        PySet_GET_SIZE(ua) + PySet_GET_SIZE(ux));
    PyObject *info = PyTuple_New(6);
    if (info == NULL)
        return -1;
    Py_INCREF(g_tag_objs[T_INFO]);
    PyTuple_SET_ITEM(info, 0, g_tag_objs[T_INFO]);
    PyObject *ph = PyList_GET_ITEM(s->phase, i);
    Py_INCREF(ph);
    PyTuple_SET_ITEM(info, 1, ph);
    PyObject *f;
    if ((f = PyFrozenSet_New(mo)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(info, 2, f);
    if ((f = PyFrozenSet_New(dn)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(info, 3, f);
    if ((f = PyFrozenSet_New(ua)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(info, 4, f);
    if ((f = PyFrozenSet_New(ux)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(info, 5, f);
    if (emitx(s, i, sender, T_INFO, info, extra) < 0)
        goto fail;
    Py_DECREF(info);
    s->status[i] = ST_INACTIVE;
    return 1;
fail:
    Py_DECREF(info);
    return -1;
}

/* Union every member of `src_set` into set `dst_set`. */
static int
set_union_into(PyObject *dst_set, PyObject *src_set)
{
    PyObject *it = PyObject_GetIter(src_set);
    if (it == NULL)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        int r = PySet_Add(dst_set, item);
        Py_DECREF(item);
        if (r < 0) {
            Py_DECREF(it);
            return -1;
        }
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

static int
merge_with_unaware(S *s, long i, PyObject *msg)
{
    PyObject *ua = PyList_GET_ITEM(s->unaware, i);
    if (set_union_into(ua, PyTuple_GET_ITEM(msg, 2)) < 0 ||
        set_union_into(ua, PyTuple_GET_ITEM(msg, 3)) < 0 ||
        set_union_into(ua, PyTuple_GET_ITEM(msg, 4)) < 0)
        return -1;
    PyObject *mo = PyList_GET_ITEM(s->more, i);
    PyObject *dn = PyList_GET_ITEM(s->done, i);
    PyObject *it = PyObject_GetIter(PyTuple_GET_ITEM(msg, 5));
    if (it == NULL)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        long u = PyLong_AsLong(item);
        int c1 = PySet_Contains(ua, item);
        int c2 = c1 == 0 ? PySet_Contains(mo, item) : 1;
        int c3 = c2 == 0 ? PySet_Contains(dn, item) : 1;
        Py_DECREF(item);
        if (c1 < 0 || c2 < 0 || c3 < 0)
            goto fail;
        if (c1 == 0 && c2 == 0 && c3 == 0 && u != i) {
            if (add_unexplored(s, i, u) < 0)
                goto fail;
        }
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    long cluster = (long)(PySet_GET_SIZE(mo) + PySet_GET_SIZE(dn) +
                          PySet_GET_SIZE(ua));
    long ph = GETL(s->phase, i);
    long mph = PyLong_AsLong(PyTuple_GET_ITEM(msg, 1));
    if (ph == mph || cluster >= (1L << (ph + 1))) {
        PyObject *np = PyLong_FromLong(ph + 1);
        if (np == NULL)
            return -1;
        if (PyList_SetItem(s->phase, i, np) < 0)
            return -1;
    }
    PyObject *cq = PyTuple_New(3);
    if (cq == NULL)
        return -1;
    Py_INCREF(g_tag_objs[T_CONQUER]);
    PyTuple_SET_ITEM(cq, 0, g_tag_objs[T_CONQUER]);
    PyObject *io = IOBJ(s, i);
    Py_INCREF(io);
    PyTuple_SET_ITEM(cq, 1, io);
    PyObject *phn = PyList_GET_ITEM(s->phase, i);
    Py_INCREF(phn);
    PyTuple_SET_ITEM(cq, 2, phn);
    Py_ssize_t cnt = collect_rank_sorted(s, ua);
    if (cnt < 0) {
        Py_DECREF(cq);
        return -1;
    }
    for (Py_ssize_t j = 0; j < cnt; j++) {
        if (emit(s, i, s->scratch[j].id, T_CONQUER, cq) < 0) {
            Py_DECREF(cq);
            return -1;
        }
    }
    Py_DECREF(cq);
    if (PySet_GET_SIZE(ua) == 0)
        return explore(s, i);
    return 0;
fail:
    Py_DECREF(it);
    return -1;
}

static int
merge_direct(S *s, long i, PyObject *msg)
{
    PyObject *mo = PyList_GET_ITEM(s->more, i);
    PyObject *dn = PyList_GET_ITEM(s->done, i);
    PyObject *it = PyObject_GetIter(PyTuple_GET_ITEM(msg, 2));
    if (it == NULL)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        long w = PyLong_AsLong(item);
        int r = PySet_Discard(dn, item);
        Py_DECREF(item);
        if (r < 0 || add_more(s, i, w) < 0) {
            Py_DECREF(it);
            return -1;
        }
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    it = PyObject_GetIter(PyTuple_GET_ITEM(msg, 3));
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        int c1 = PySet_Contains(mo, item);
        int c2 = c1 == 0 ? PySet_Contains(dn, item) : 1;
        int r = 0;
        if (c1 == 0 && c2 == 0)
            r = PySet_Add(dn, item);
        Py_DECREF(item);
        if (c1 < 0 || c2 < 0 || r < 0) {
            Py_DECREF(it);
            return -1;
        }
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    it = PyObject_GetIter(PyTuple_GET_ITEM(msg, 5));
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        long u = PyLong_AsLong(item);
        int c1 = PySet_Contains(mo, item);
        int c2 = c1 == 0 ? PySet_Contains(dn, item) : 1;
        Py_DECREF(item);
        if (c1 < 0 || c2 < 0) {
            Py_DECREF(it);
            return -1;
        }
        if (c1 == 0 && c2 == 0 && u != i) {
            if (add_unexplored(s, i, u) < 0) {
                Py_DECREF(it);
                return -1;
            }
        }
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    long cluster = (long)(PySet_GET_SIZE(mo) + PySet_GET_SIZE(dn));
    long ph = GETL(s->phase, i);
    long mph = PyLong_AsLong(PyTuple_GET_ITEM(msg, 1));
    if (ph == mph || cluster >= (1L << (ph + 1))) {
        PyObject *np = PyLong_FromLong(ph + 1);
        if (np == NULL)
            return -1;
        if (PyList_SetItem(s->phase, i, np) < 0)
            return -1;
    }
    return explore(s, i);
}

static int
exec_info(S *s, long i, long sender, PyObject *msg)
{
    s->aw_info[i] = 0;
    if (s->variant[i] == V_GENERIC)
        return merge_with_unaware(s, i, msg) < 0 ? -1 : 1;
    return merge_direct(s, i, msg) < 0 ? -1 : 1;
}

static int
exec_conquer(S *s, long i, long sender, PyObject *msg)
{
    if (PyLong_AsLong(PyTuple_GET_ITEM(msg, 2)) >= GETL(s->phase, i)) {
        long leader = PyLong_AsLong(PyTuple_GET_ITEM(msg, 1));
        if (set_item_obj(s->nxt, i, IOBJ(s, leader)) < 0)
            return -1;
        if (set_item_obj(s->phase, i, PyTuple_GET_ITEM(msg, 2)) < 0)
            return -1;
    }
    PyObject *reply =
        PySet_GET_SIZE(PyList_GET_ITEM(s->local, i)) > 0 ? g_wire_md_t
                                                         : g_wire_md_f;
    return emit(s, i, sender, T_MORE_DONE, reply) < 0 ? -1 : 1;
}

static int
exec_more_done(S *s, long i, long sender, PyObject *msg)
{
    if (s->status[i] == ST_TERMINATED)
        return 1;
    /* CONQUEROR, not awaiting info, sender in unaware (prechecked) */
    PyObject *ua = PyList_GET_ITEM(s->unaware, i);
    if (PySet_Discard(ua, IOBJ(s, sender)) < 0)
        return -1;
    int has_more = PyObject_IsTrue(PyTuple_GET_ITEM(msg, 1));
    if (has_more < 0)
        return -1;
    if (has_more) {
        if (add_more(s, i, sender) < 0)
            return -1;
    }
    else if (PySet_Add(PyList_GET_ITEM(s->done, i), IOBJ(s, sender)) < 0)
        return -1;
    if (PySet_GET_SIZE(ua) == 0)
        return explore(s, i) < 0 ? -1 : 1;
    return 1;
}

static int
exec_query(S *s, long i, long sender, PyObject *msg)
{
    long long k = PyLong_AsLongLong(PyTuple_GET_ITEM(msg, 1));
    if (k == -1 && PyErr_Occurred())
        return -1;
    int done_flag;
    PyObject *taken = take_local(s, i, k, &done_flag);
    if (taken == NULL)
        return -1;
    long extra = (long)PySet_GET_SIZE(taken);
    PyObject *reply = PyTuple_New(3);
    if (reply == NULL) {
        Py_DECREF(taken);
        return -1;
    }
    Py_INCREF(g_tag_objs[T_QUERY_REPLY]);
    PyTuple_SET_ITEM(reply, 0, g_tag_objs[T_QUERY_REPLY]);
    PyTuple_SET_ITEM(reply, 1, taken); /* steals */
    PyObject *fo = done_flag ? Py_True : Py_False;
    Py_INCREF(fo);
    PyTuple_SET_ITEM(reply, 2, fo);
    int r = emitx(s, i, sender, T_QUERY_REPLY, reply, extra);
    Py_DECREF(reply);
    return r < 0 ? -1 : 1;
}

static int
exec_query_reply(S *s, long i, long sender, PyObject *msg)
{
    if (set_item_obj(s->aw_query, i, g_neg_one) < 0)
        return -1;
    int done_flag = PyObject_IsTrue(PyTuple_GET_ITEM(msg, 2));
    if (done_flag < 0)
        return -1;
    if (ingest_reply(s, i, sender, PyTuple_GET_ITEM(msg, 1), done_flag) < 0)
        return -1;
    return explore(s, i) < 0 ? -1 : 1;
}

/* Dispatch an executable message; 1 consumed, 0 defer, -1 error. */
static int
exec_msg(S *s, long i, long sender, long tag, PyObject *msg)
{
    switch (tag) {
    case T_SEARCH:
        return exec_search(s, i, sender, msg);
    case T_RELEASE:
        return exec_release(s, i, sender, msg);
    case T_CONQUER:
        return exec_conquer(s, i, sender, msg);
    case T_MORE_DONE:
        return exec_more_done(s, i, sender, msg);
    case T_QUERY:
        return exec_query(s, i, sender, msg);
    case T_QUERY_REPLY:
        return exec_query_reply(s, i, sender, msg);
    case T_MERGE_ACCEPT:
        return exec_merge_accept(s, i, sender, msg);
    case T_MERGE_FAIL:
        s->status[i] = ST_PASSIVE;
        return 1;
    case T_INFO:
        return exec_info(s, i, sender, msg);
    default:
        PyErr_SetString(PyExc_RuntimeError,
                        "arrayloop: exec_msg on unhandleable tag");
        return -1;
    }
}

/* Pure-read precheck: 1 if exec_msg reproduces the Python handler for this
 * message bit-for-bit, 0 if the step must go back to Python (raise paths,
 * probes, unknown tags).  -1 on internal error. */
static int
can_handle(S *s, long dst, long src, PyObject *msg)
{
    long tag = PyLong_AsLong(PyTuple_GET_ITEM(msg, 0));
    int st = s->status[dst];
    switch (tag) {
    case T_QUERY:
        return st == ST_INACTIVE;
    case T_QUERY_REPLY:
        return st == ST_EXPLORE && GETL(s->aw_query, dst) == src;
    case T_SEARCH: {
        if (st != ST_TERMINATED)
            return 1;
        /* terminated leader: handle only the not-outranked reply arm */
        long mphase = PyLong_AsLong(PyTuple_GET_ITEM(msg, 2));
        long ph = GETL(s->phase, dst);
        if (mphase > ph)
            return 0;
        if (mphase == ph) {
            long initiator = PyLong_AsLong(PyTuple_GET_ITEM(msg, 1));
            if (GETL(s->nrank, initiator) > GETL(s->nrank, dst))
                return 0;
        }
        return 1;
    }
    case T_RELEASE: {
        if (PyLong_AsLong(PyTuple_GET_ITEM(msg, 3)) == dst) {
            if (st == ST_WAIT)
                return s->aw_rel[dst] != 0;
            return st == ST_PASSIVE || st == ST_CONQUERED ||
                   st == ST_INACTIVE;
        }
        if (st != ST_INACTIVE)
            return 0;
        PyObject *prev = PyList_GET_ITEM(s->previous, dst);
        if (prev == Py_None)
            return 0;
        Py_ssize_t sz = PyObject_Size(prev);
        if (sz < 0)
            return -1;
        return sz > 0;
    }
    case T_MERGE_ACCEPT:
    case T_MERGE_FAIL:
        return st == ST_CONQUERED;
    case T_INFO:
        return st == ST_CONQUEROR && s->aw_info[dst];
    case T_CONQUER:
        return st == ST_INACTIVE;
    case T_MORE_DONE: {
        if (st == ST_TERMINATED)
            return 1;
        if (st != ST_CONQUEROR || s->aw_info[dst])
            return 0;
        return PySet_Contains(PyList_GET_ITEM(s->unaware, dst),
                              IOBJ(s, src));
    }
    default:
        return 0; /* probes, unknown tags */
    }
}

/* ------------------------------------------------------------------ */
/* Inbox pump (deferral replay); 0 done, 1 resume-in-Python, -1 error. */
/* ------------------------------------------------------------------ */
static int
c_pump(S *s, long i)
{
    PyObject *ib = PyList_GET_ITEM(s->inbox, i);
    if (ib == Py_None)
        return 0;
    for (;;) {
        Py_ssize_t ilen = PyObject_Size(ib);
        if (ilen < 0)
            return -1;
        if (ilen == 0) {
            /* drained: back to the lazy empty slot (frees the deque) */
            Py_INCREF(Py_None);
            return PyList_SetItem(s->inbox, i, Py_None);
        }
        PyObject *item = PySequence_GetItem(ib, 0); /* (sender, msg) */
        if (item == NULL)
            return -1;
        long sender = PyLong_AsLong(PyTuple_GET_ITEM(item, 0));
        PyObject *msg = PyTuple_GET_ITEM(item, 1);
        long tag = PyLong_AsLong(PyTuple_GET_ITEM(msg, 0));
        int ch = can_handle(s, i, sender, msg);
        if (ch < 0) {
            Py_DECREF(item);
            return -1;
        }
        if (!ch) {
            Py_DECREF(item);
            return 1;
        }
        PyObject *popped = PyObject_CallMethodNoArgs(ib, s_popleft);
        if (popped == NULL) {
            Py_DECREF(item);
            return -1;
        }
        Py_DECREF(popped);
        PyObject *df = PyList_GET_ITEM(s->deferred, i);
        int df_active = df != Py_None && PyList_GET_SIZE(df) > 0;
        if (!df_active) {
            int consumed = exec_msg(s, i, sender, tag, msg);
            if (consumed < 0) {
                Py_DECREF(item);
                return -1;
            }
            if (!consumed) {
                if (df == Py_None) {
                    df = PyList_New(0);
                    if (df == NULL) {
                        Py_DECREF(item);
                        return -1;
                    }
                    PyList_SetItem(s->deferred, i, df); /* steals */
                }
                if (PyList_Append(df, item) < 0) {
                    Py_DECREF(item);
                    return -1;
                }
            }
            Py_DECREF(item);
            continue;
        }
        int b_st = s->status[i], b_rel = s->aw_rel[i],
            b_info = s->aw_info[i];
        long b_q = GETL(s->aw_query, i);
        int consumed = exec_msg(s, i, sender, tag, msg);
        if (consumed < 0) {
            Py_DECREF(item);
            return -1;
        }
        if (!consumed) {
            int r = PyList_Append(df, item);
            Py_DECREF(item);
            if (r < 0)
                return -1;
            continue;
        }
        Py_DECREF(item);
        if (PyList_GET_SIZE(df) > 0 &&
            (s->status[i] != b_st || s->aw_rel[i] != b_rel ||
             s->aw_info[i] != b_info || GETL(s->aw_query, i) != b_q)) {
            /* ib.extendleft(reversed(df)) */
            for (Py_ssize_t j = PyList_GET_SIZE(df) - 1; j >= 0; j--) {
                PyObject *r = PyObject_CallMethodOneArg(
                    ib, s_appendleft, PyList_GET_ITEM(df, j));
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            }
            if (PyList_SetSlice(df, 0, PyList_GET_SIZE(df), NULL) < 0)
                return -1;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Per-call setup / teardown                                           */
/* ------------------------------------------------------------------ */
static void
free_s(S *s)
{
    Py_XDECREF(s->status_o);
    Py_XDECREF(s->awake_o);
    Py_XDECREF(s->aw_rel_o);
    Py_XDECREF(s->aw_info_o);
    Py_XDECREF(s->stale_o);
    Py_XDECREF(s->variant_o);
    Py_XDECREF(s->greedy_o);
    Py_XDECREF(s->ids);
    Py_XDECREF(s->nxt);
    Py_XDECREF(s->phase);
    Py_XDECREF(s->aw_query);
    Py_XDECREF(s->csize);
    Py_XDECREF(s->local);
    Py_XDECREF(s->done);
    Py_XDECREF(s->more);
    Py_XDECREF(s->unaware);
    Py_XDECREF(s->unexp);
    Py_XDECREF(s->mheap);
    Py_XDECREF(s->uheap);
    Py_XDECREF(s->previous);
    Py_XDECREF(s->inbox);
    Py_XDECREF(s->deferred);
    Py_XDECREF(s->rrank);
    Py_XDECREF(s->by_rrank);
    Py_XDECREF(s->nrank);
    Py_XDECREF(s->chanq);
    Py_XDECREF(s->chan_src);
    Py_XDECREF(s->chan_dst);
    Py_XDECREF(s->out);
    Py_XDECREF(s->iobj);
    Py_XDECREF(s->counts_l);
    Py_XDECREF(s->xtra_l);
    Py_XDECREF(s->order);
    Py_XDECREF(s->pool_popleft);
    if (s->scratch != NULL)
        PyMem_Free(s->scratch);
}

static int
fill_s(S *s, PyObject *core)
{
#define FETCH_LIST(field, name)                                           \
    do {                                                                  \
        s->field = PyObject_GetAttrString(core, name);                    \
        if (s->field == NULL)                                             \
            return -1;                                                    \
        if (!PyList_Check(s->field)) {                                    \
            PyErr_SetString(PyExc_TypeError,                              \
                            "arrayloop: core." name " is not a list");    \
            return -1;                                                    \
        }                                                                 \
    } while (0)
#define FETCH_BYTES(field, name)                                          \
    do {                                                                  \
        s->field##_o = PyObject_GetAttrString(core, name);                \
        if (s->field##_o == NULL)                                         \
            return -1;                                                    \
        if (!PyByteArray_Check(s->field##_o)) {                           \
            PyErr_SetString(PyExc_TypeError,                              \
                            "arrayloop: core." name " is not a bytearray"); \
            return -1;                                                    \
        }                                                                 \
        s->field = PyByteArray_AS_STRING(s->field##_o);                   \
    } while (0)

    FETCH_BYTES(status, "status");
    FETCH_BYTES(awake, "awake");
    FETCH_BYTES(aw_rel, "aw_rel");
    FETCH_BYTES(aw_info, "aw_info");
    FETCH_BYTES(stale, "expect_stale");
    FETCH_BYTES(variant, "variant");
    FETCH_BYTES(greedy, "greedy");
    FETCH_LIST(ids, "ids");
    FETCH_LIST(nxt, "nxt");
    FETCH_LIST(phase, "phase");
    FETCH_LIST(aw_query, "aw_query");
    FETCH_LIST(csize, "csize");
    FETCH_LIST(local, "local");
    FETCH_LIST(done, "done");
    FETCH_LIST(more, "more");
    FETCH_LIST(unaware, "unaware");
    FETCH_LIST(unexp, "unexp");
    FETCH_LIST(mheap, "mheap");
    FETCH_LIST(uheap, "uheap");
    FETCH_LIST(previous, "previous");
    FETCH_LIST(inbox, "inbox");
    FETCH_LIST(deferred, "deferred");
    FETCH_LIST(rrank, "rrank");
    FETCH_LIST(by_rrank, "by_rrank");
    FETCH_LIST(nrank, "nrank");
    FETCH_LIST(chanq, "chanq");
    FETCH_LIST(chan_src, "chan_src");
    FETCH_LIST(chan_dst, "chan_dst");
    FETCH_LIST(out, "out");
    FETCH_LIST(iobj, "iobj");
    FETCH_LIST(counts_l, "counts");
    FETCH_LIST(xtra_l, "xtra");
    FETCH_LIST(order, "order");
#undef FETCH_LIST
#undef FETCH_BYTES
    s->n = PyList_GET_SIZE(s->iobj);
    if (PyList_GET_SIZE(s->counts_l) != N_TAGS ||
        PyList_GET_SIZE(s->xtra_l) != N_TAGS) {
        PyErr_SetString(PyExc_ValueError, "arrayloop: counts/xtra arity");
        return -1;
    }
    for (int t = 0; t < N_TAGS; t++) {
        s->counts[t] = GETL(s->counts_l, t);
        s->xtra[t] = GETL(s->xtra_l, t);
    }
    return PyErr_Occurred() ? -1 : 0;
}

/* Write steps/counts/xtra back out; preserves any pending exception. */
static void
sync_out(S *s, PyObject *cell)
{
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    PyObject *so = PyLong_FromLong(s->steps);
    if (so != NULL)
        PyList_SetItem(cell, 0, so);
    for (int t = 0; t < N_TAGS; t++) {
        PyObject *c = PyLong_FromLong(s->counts[t]);
        if (c != NULL)
            PyList_SetItem(s->counts_l, t, c);
        PyObject *x = PyLong_FromLong(s->xtra[t]);
        if (x != NULL)
            PyList_SetItem(s->xtra_l, t, x);
    }
    PyErr_Restore(et, ev, tb);
}

/* ------------------------------------------------------------------ */
/* run(core, pool, pool_append, mode, getrandbits, stop, cell)         */
/* ------------------------------------------------------------------ */
static PyObject *
loop_run(PyObject *self, PyObject *args)
{
    PyObject *core, *pool, *pool_append, *getrandbits, *cell;
    int mode;
    long stop;
    if (!PyArg_ParseTuple(args, "OOOiOlO!", &core, &pool, &pool_append,
                          &mode, &getrandbits, &stop, &PyList_Type, &cell))
        return NULL;
    if (!g_configured) {
        PyErr_SetString(PyExc_RuntimeError, "arrayloop: not configured");
        return NULL;
    }
    S s;
    memset(&s, 0, sizeof(S));
    s.core = core;
    s.pool = pool;
    s.pool_append = pool_append;
    s.getrandbits = getrandbits;
    s.mode = mode;
    s.stop = stop;
    if (fill_s(&s, core) < 0) {
        free_s(&s);
        return NULL;
    }
    if (mode == MODE_FIFO) {
        s.pool_popleft = PyObject_GetAttr(pool, s_popleft);
        if (s.pool_popleft == NULL) {
            free_s(&s);
            return NULL;
        }
    }
    else if (!PyList_Check(pool)) {
        PyErr_SetString(PyExc_TypeError, "arrayloop: non-FIFO pool not a list");
        free_s(&s);
        return NULL;
    }
    long steps = GETL(cell, 0);
    if (steps == -1 && PyErr_Occurred()) {
        free_s(&s);
        return NULL;
    }
    int code = RC_DRAINED;
    long aux = -1;

    for (;;) {
        Py_ssize_t psz;
        if (s.mode == MODE_FIFO) {
            psz = PyObject_Size(s.pool);
            if (psz < 0)
                goto error;
        }
        else
            psz = PyList_GET_SIZE(s.pool);
        if (psz == 0) {
            code = RC_DRAINED;
            break;
        }
        long token;
        if (s.mode == MODE_FIFO) {
            PyObject *t = PyObject_CallNoArgs(s.pool_popleft);
            if (t == NULL)
                goto error;
            token = PyLong_AsLong(t);
            Py_DECREF(t);
            if (token == -1 && PyErr_Occurred())
                goto error;
        }
        else if (s.mode == MODE_LIFO) {
            token = GETL(s.pool, psz - 1);
            if (token == -1 && PyErr_Occurred())
                goto error;
            if (PyList_SetSlice(s.pool, psz - 1, psz, NULL) < 0)
                goto error;
        }
        else {
            /* the getrandbits rejection loop the Python loop inlines */
            int k = 64 - __builtin_clzll((unsigned long long)psz);
            long index;
            for (;;) {
                PyObject *r = PyObject_CallOneArg(s.getrandbits, g_k_objs[k]);
                if (r == NULL)
                    goto error;
                index = PyLong_AsLong(r);
                Py_DECREF(r);
                if (index == -1 && PyErr_Occurred())
                    goto error;
                if (index < psz)
                    break;
            }
            token = GETL(s.pool, index);
            if (token == -1 && PyErr_Occurred())
                goto error;
            if (index != psz - 1) {
                PyObject *last = PyList_GET_ITEM(s.pool, psz - 1);
                Py_INCREF(last);
                if (PyList_SetItem(s.pool, index, last) < 0)
                    goto error;
            }
            if (PyList_SetSlice(s.pool, psz - 1, psz, NULL) < 0)
                goto error;
        }

        if (token < 0) {
            /* wake token */
            long node = -1 - token;
            steps += 1;
            s.steps = steps;
            if (!s.awake[node]) {
                s.awake[node] = 1;
                if (explore(&s, node) < 0)
                    goto error;
                PyObject *ib = PyList_GET_ITEM(s.inbox, node);
                if (ib != Py_None) {
                    Py_ssize_t isz = PyObject_Size(ib);
                    if (isz < 0)
                        goto error;
                    if (isz > 0) {
                        int pr = c_pump(&s, node);
                        if (pr < 0)
                            goto error;
                        if (pr == 1) {
                            code = RC_PUMP;
                            aux = node;
                            goto done;
                        }
                    }
                }
            }
        }
        else {
            /* deliver token: peek, wake, precheck, then commit */
            PyObject *msg = chan_peek(&s, token);
            if (msg == NULL)
                goto error;
            long dst = GETL(s.chan_dst, token);
            long src = GETL(s.chan_src, token);
            steps += 1;
            s.steps = steps;
            if (!s.awake[dst]) {
                s.awake[dst] = 1;
                if (explore(&s, dst) < 0) {
                    Py_DECREF(msg);
                    goto error;
                }
            }
            PyObject *dfv = PyList_GET_ITEM(s.deferred, dst);
            PyObject *ibv = PyList_GET_ITEM(s.inbox, dst);
            int busy = dfv != Py_None && PyList_GET_SIZE(dfv) > 0;
            if (!busy && ibv != Py_None) {
                Py_ssize_t isz = PyObject_Size(ibv);
                if (isz < 0) {
                    Py_DECREF(msg);
                    goto error;
                }
                busy = isz > 0;
            }
            if (busy) {
                PyObject *popped = chan_pop(&s, token);
                if (popped == NULL) {
                    Py_DECREF(msg);
                    goto error;
                }
                Py_DECREF(msg);
                PyObject *ib = ibv;
                if (ib == Py_None) {
                    ib = PyObject_CallNoArgs(g_deque_type);
                    if (ib == NULL) {
                        Py_DECREF(popped);
                        goto error;
                    }
                    PyList_SetItem(s.inbox, dst, ib); /* steals */
                }
                PyObject *pair = PyTuple_Pack(2, IOBJ(&s, src), popped);
                Py_DECREF(popped);
                if (pair == NULL)
                    goto error;
                PyObject *r = PyObject_CallMethodOneArg(ib, s_append, pair);
                Py_DECREF(pair);
                if (r == NULL)
                    goto error;
                Py_DECREF(r);
                int pr = c_pump(&s, dst);
                if (pr < 0)
                    goto error;
                if (pr == 1) {
                    code = RC_PUMP;
                    aux = dst;
                    goto done;
                }
            }
            else {
                int ch = can_handle(&s, dst, src, msg);
                if (ch < 0) {
                    Py_DECREF(msg);
                    goto error;
                }
                if (!ch) {
                    Py_DECREF(msg);
                    steps -= 1;
                    s.steps = steps;
                    code = RC_DEOPT;
                    aux = token;
                    goto done;
                }
                PyObject *popped = chan_pop(&s, token);
                if (popped == NULL) {
                    Py_DECREF(msg);
                    goto error;
                }
                Py_DECREF(msg);
                long tag = PyLong_AsLong(PyTuple_GET_ITEM(popped, 0));
                int consumed = exec_msg(&s, dst, src, tag, popped);
                if (consumed < 0) {
                    Py_DECREF(popped);
                    goto error;
                }
                if (!consumed) {
                    PyObject *df = PyList_GET_ITEM(s.deferred, dst);
                    if (df == Py_None) {
                        df = PyList_New(0);
                        if (df == NULL) {
                            Py_DECREF(popped);
                            goto error;
                        }
                        PyList_SetItem(s.deferred, dst, df); /* steals */
                    }
                    PyObject *pair = PyTuple_Pack(2, IOBJ(&s, src), popped);
                    if (pair == NULL) {
                        Py_DECREF(popped);
                        goto error;
                    }
                    int r = PyList_Append(df, pair);
                    Py_DECREF(pair);
                    if (r < 0) {
                        Py_DECREF(popped);
                        goto error;
                    }
                }
                Py_DECREF(popped);
            }
        }
        if (steps >= s.stop) {
            code = RC_LIMIT;
            break;
        }
    }

done:
    s.steps = steps;
    sync_out(&s, cell);
    free_s(&s);
    if (PyErr_Occurred())
        return NULL;
    return Py_BuildValue("il", code, aux);

error:
    s.steps = steps;
    sync_out(&s, cell);
    free_s(&s);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* configure + module                                                  */
/* ------------------------------------------------------------------ */
static PyObject *
loop_configure(PyObject *self, PyObject *args)
{
    PyObject *cfg;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &cfg))
        return NULL;
#define CFG(var, key)                                                     \
    do {                                                                  \
        PyObject *v = PyDict_GetItemString(cfg, key);                     \
        if (v == NULL) {                                                  \
            PyErr_Format(PyExc_KeyError,                                  \
                         "arrayloop configure: missing %s", key);         \
            return NULL;                                                  \
        }                                                                 \
        Py_INCREF(v);                                                     \
        Py_XSETREF(var, v);                                               \
    } while (0)
    CFG(g_deque_type, "deque");
    CFG(g_sim_error, "simulation_error");
    CFG(g_msg_types, "msg_types");
    CFG(g_wire_ma, "wire_merge_accept");
    CFG(g_wire_mf, "wire_merge_fail");
    CFG(g_wire_md_t, "wire_md_true");
    CFG(g_wire_md_f, "wire_md_false");
    CFG(g_greedy_k, "greedy_k");
#undef CFG
    if (!PyTuple_Check(g_msg_types) ||
        PyTuple_GET_SIZE(g_msg_types) != N_TAGS) {
        PyErr_SetString(PyExc_ValueError,
                        "arrayloop configure: msg_types arity mismatch");
        return NULL;
    }
    g_configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef loop_methods[] = {
    {"configure", loop_configure, METH_VARARGS,
     "Install the interpreter-side singletons the loop emits."},
    {"run", loop_run, METH_VARARGS,
     "Run steps of the array core; see the file header for the protocol."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef loop_module = {
    PyModuleDef_HEAD_INIT, "_arrayloop",
    "C delivery loop for repro.core.arraystate", -1, loop_methods,
};

PyMODINIT_FUNC
PyInit__arrayloop(void)
{
    for (int t = 0; t < N_TAGS; t++) {
        g_tag_objs[t] = PyLong_FromLong(t);
        if (g_tag_objs[t] == NULL)
            return NULL;
    }
    for (int k = 0; k < 65; k++) {
        g_k_objs[k] = PyLong_FromLong(k);
        if (g_k_objs[k] == NULL)
            return NULL;
    }
    g_zero = PyLong_FromLong(0);
    g_neg_one = PyLong_FromLong(-1);
    s_append = PyUnicode_InternFromString("append");
    s_popleft = PyUnicode_InternFromString("popleft");
    s_appendleft = PyUnicode_InternFromString("appendleft");
    if (g_zero == NULL || g_neg_one == NULL || s_append == NULL ||
        s_popleft == NULL || s_appendleft == NULL)
        return NULL;
    return PyModule_Create(&loop_module);
}
