/* Compiled kernel for repro.core.scc.DynamicSCC's maintenance hot path.
 *
 * The kernel owns the mutable graph over dense integer vertex ids —
 * adjacency, the Pearce-Kelly pseudo-topological order, the
 * union-by-size component labels with their cyclic/dirty flags and
 * mutation epochs, and the scoped Tarjan recompute.  Everything
 * *semantic* matches src/repro/core/scc.py operation for operation:
 * the same mutations bump the same counters, the same edges defer
 * inside a batch window (same per-component charge, same budget), and
 * the same labels resolve at the same queries,
 * so verdicts, component partitions and epochs are identical to the
 * pure-Python structure for any op/query sequence.  Witness-cycle
 * extraction deliberately stays in shared Python code (repro.core.scc
 * / repro.core._native): the kernel only answers "which labels are
 * cyclic, who are their members, what are their edges", which keeps
 * reports byte-identical across implementations by construction.
 *
 * Build is optional (setup.py builds it when a C toolchain exists and
 * shrugs when one does not); repro.core._native falls back to the
 * pure-Python structure when this module is absent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* small dynamic int vector                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} IntVec;

static int
vec_reserve(IntVec *v, Py_ssize_t need)
{
    if (need <= v->cap)
        return 0;
    Py_ssize_t cap = v->cap ? v->cap : 4;
    while (cap < need)
        cap *= 2;
    int32_t *data = (int32_t *)PyMem_Realloc(v->data, cap * sizeof(int32_t));
    if (data == NULL)
        return -1;
    v->data = data;
    v->cap = cap;
    return 0;
}

static int
vec_push(IntVec *v, int32_t x)
{
    if (vec_reserve(v, v->len + 1) < 0)
        return -1;
    v->data[v->len++] = x;
    return 0;
}

static void
vec_clear(IntVec *v)
{
    v->len = 0;
}

static void
vec_free(IntVec *v)
{
    PyMem_Free(v->data);
    v->data = NULL;
    v->len = v->cap = 0;
}

/* remove one occurrence of x (linear scan); returns 1 if found */
static int
vec_remove(IntVec *v, int32_t x)
{
    for (Py_ssize_t i = 0; i < v->len; i++) {
        if (v->data[i] == x) {
            memmove(v->data + i, v->data + i + 1,
                    (v->len - i - 1) * sizeof(int32_t));
            v->len--;
            return 1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* open-addressed hash set of (u, v) edge keys                         */
/* ------------------------------------------------------------------ */

#define EDGE_EMPTY UINT64_MAX
#define EDGE_TOMB (UINT64_MAX - 1)

typedef struct {
    uint64_t *slots;
    Py_ssize_t cap;  /* power of two */
    Py_ssize_t used; /* live keys */
    Py_ssize_t fill; /* live + tombstones */
} EdgeSet;

static uint64_t
edge_key(int32_t u, int32_t v)
{
    return ((uint64_t)(uint32_t)u << 32) | (uint32_t)v;
}

static uint64_t
edge_hash(uint64_t k)
{
    /* splitmix64 finalizer: cheap, well-mixed */
    k ^= k >> 30;
    k *= UINT64_C(0xbf58476d1ce4e5b9);
    k ^= k >> 27;
    k *= UINT64_C(0x94d049bb133111eb);
    k ^= k >> 31;
    return k;
}

static int
edgeset_init(EdgeSet *s, Py_ssize_t cap)
{
    s->slots = (uint64_t *)PyMem_Malloc(cap * sizeof(uint64_t));
    if (s->slots == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < cap; i++)
        s->slots[i] = EDGE_EMPTY;
    s->cap = cap;
    s->used = 0;
    s->fill = 0;
    return 0;
}

static int edgeset_add(EdgeSet *s, uint64_t key);

static int
edgeset_grow(EdgeSet *s)
{
    EdgeSet bigger;
    Py_ssize_t cap = s->cap;
    if (s->used * 4 >= s->cap)
        cap = s->cap * 2;
    if (edgeset_init(&bigger, cap) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < s->cap; i++) {
        uint64_t k = s->slots[i];
        if (k != EDGE_EMPTY && k != EDGE_TOMB)
            edgeset_add(&bigger, k); /* cannot fail: no growth needed */
    }
    PyMem_Free(s->slots);
    *s = bigger;
    return 0;
}

static int
edgeset_contains(const EdgeSet *s, uint64_t key)
{
    Py_ssize_t mask = s->cap - 1;
    Py_ssize_t i = (Py_ssize_t)(edge_hash(key) & (uint64_t)mask);
    while (1) {
        uint64_t k = s->slots[i];
        if (k == key)
            return 1;
        if (k == EDGE_EMPTY)
            return 0;
        i = (i + 1) & mask;
    }
}

static int
edgeset_add(EdgeSet *s, uint64_t key)
{
    if ((s->fill + 1) * 3 >= s->cap * 2) {
        if (edgeset_grow(s) < 0)
            return -1;
    }
    Py_ssize_t mask = s->cap - 1;
    Py_ssize_t i = (Py_ssize_t)(edge_hash(key) & (uint64_t)mask);
    Py_ssize_t tomb = -1;
    while (1) {
        uint64_t k = s->slots[i];
        if (k == key)
            return 0; /* already present */
        if (k == EDGE_TOMB) {
            if (tomb < 0)
                tomb = i;
        }
        else if (k == EDGE_EMPTY) {
            if (tomb >= 0) {
                s->slots[tomb] = key;
            }
            else {
                s->slots[i] = key;
                s->fill++;
            }
            s->used++;
            return 1;
        }
        i = (i + 1) & mask;
    }
}

static int
edgeset_discard(EdgeSet *s, uint64_t key)
{
    Py_ssize_t mask = s->cap - 1;
    Py_ssize_t i = (Py_ssize_t)(edge_hash(key) & (uint64_t)mask);
    while (1) {
        uint64_t k = s->slots[i];
        if (k == key) {
            s->slots[i] = EDGE_TOMB;
            s->used--;
            return 1;
        }
        if (k == EDGE_EMPTY)
            return 0;
        i = (i + 1) & mask;
    }
}

/* ------------------------------------------------------------------ */
/* the kernel object                                                   */
/* ------------------------------------------------------------------ */

#define LF_CYCLIC 1
#define LF_DIRTY 2

typedef struct {
    PyObject_HEAD

    /* per-vertex state, indexed by vertex id (0..vnext) */
    Py_ssize_t vcap;
    Py_ssize_t vnext;  /* one past the highest id ever seen */
    char *alive;
    int64_t *ord;
    int32_t *vlabel;
    int32_t *mpos; /* index of the vertex inside its label's member vec */
    IntVec *out;
    IntVec *in;

    /* per-label state, indexed by label id (0..lnext) */
    Py_ssize_t lcap;
    Py_ssize_t lnext;
    IntVec *members; /* members[l].data == NULL  <=>  label dead */
    int64_t *lepoch;
    unsigned char *lflags;
    /* Pearce-Kelly visits charged to the label in window `lwindow[l]`;
     * a charge from an earlier window reads as zero (see charge_of) */
    int64_t *lcharge;
    int64_t *lwindow;

    IntVec cyclic_list; /* labels that gained LF_CYCLIC (lazily compacted) */
    IntVec dirty_list;  /* labels that gained LF_DIRTY (flag is the truth) */
    Py_ssize_t ncyclic;

    EdgeSet edges;
    Py_ssize_t nalive;
    Py_ssize_t edge_count;
    int64_t mutations;
    int64_t next_ord;
    int64_t pk_visits;
    int64_t resolves;
    int batch_depth;
    int64_t window; /* bumped when the outermost batch window opens */

    /* reusable scratch (sized vcap): DFS/Tarjan/marking */
    int64_t *stamp;
    int64_t stamp_gen;
    int32_t *tindex;
    int32_t *tlow;
    char *onstack;
    IntVec scratch_a;
    IntVec scratch_b;
    IntVec scratch_c;
} SCCKernel;

static int
kernel_grow_vertices(SCCKernel *k, Py_ssize_t need)
{
    if (need <= k->vcap)
        return 0;
    Py_ssize_t cap = k->vcap ? k->vcap : 16;
    while (cap < need)
        cap *= 2;
#define GROW(field, type)                                                    \
    do {                                                                     \
        type *p = (type *)PyMem_Realloc(k->field, cap * sizeof(type));       \
        if (p == NULL)                                                       \
            return -1;                                                       \
        k->field = p;                                                        \
    } while (0)
    GROW(alive, char);
    GROW(ord, int64_t);
    GROW(vlabel, int32_t);
    GROW(mpos, int32_t);
    GROW(out, IntVec);
    GROW(in, IntVec);
    GROW(stamp, int64_t);
    GROW(tindex, int32_t);
    GROW(tlow, int32_t);
    GROW(onstack, char);
#undef GROW
    memset(k->alive + k->vcap, 0, (cap - k->vcap) * sizeof(char));
    memset(k->out + k->vcap, 0, (cap - k->vcap) * sizeof(IntVec));
    memset(k->in + k->vcap, 0, (cap - k->vcap) * sizeof(IntVec));
    memset(k->stamp + k->vcap, 0, (cap - k->vcap) * sizeof(int64_t));
    k->vcap = cap;
    return 0;
}

static int
kernel_grow_labels(SCCKernel *k, Py_ssize_t need)
{
    if (need <= k->lcap)
        return 0;
    Py_ssize_t cap = k->lcap ? k->lcap : 16;
    while (cap < need)
        cap *= 2;
    IntVec *m = (IntVec *)PyMem_Realloc(k->members, cap * sizeof(IntVec));
    if (m == NULL)
        return -1;
    k->members = m;
    int64_t *e = (int64_t *)PyMem_Realloc(k->lepoch, cap * sizeof(int64_t));
    if (e == NULL)
        return -1;
    k->lepoch = e;
    unsigned char *f =
        (unsigned char *)PyMem_Realloc(k->lflags, cap * sizeof(unsigned char));
    if (f == NULL)
        return -1;
    k->lflags = f;
    int64_t *c = (int64_t *)PyMem_Realloc(k->lcharge, cap * sizeof(int64_t));
    if (c == NULL)
        return -1;
    k->lcharge = c;
    int64_t *w = (int64_t *)PyMem_Realloc(k->lwindow, cap * sizeof(int64_t));
    if (w == NULL)
        return -1;
    k->lwindow = w;
    memset(k->members + k->lcap, 0, (cap - k->lcap) * sizeof(IntVec));
    memset(k->lflags + k->lcap, 0, (cap - k->lcap) * sizeof(unsigned char));
    k->lcap = cap;
    return 0;
}

static int
label_alive(SCCKernel *k, Py_ssize_t l)
{
    return l >= 0 && l < k->lnext && k->members[l].data != NULL;
}

static int
mark_cyclic(SCCKernel *k, int32_t l)
{
    if (!(k->lflags[l] & LF_CYCLIC)) {
        k->lflags[l] |= LF_CYCLIC;
        k->ncyclic++;
        if (vec_push(&k->cyclic_list, l) < 0)
            return -1;
    }
    return 0;
}

static void
unmark_cyclic(SCCKernel *k, int32_t l)
{
    if (k->lflags[l] & LF_CYCLIC) {
        k->lflags[l] &= (unsigned char)~LF_CYCLIC;
        k->ncyclic--;
    }
}

static int
mark_dirty(SCCKernel *k, int32_t l)
{
    if (!(k->lflags[l] & LF_DIRTY)) {
        k->lflags[l] |= LF_DIRTY;
        if (vec_push(&k->dirty_list, l) < 0)
            return -1;
    }
    return 0;
}

/* what the current window has charged to label l so far */
static int64_t
charge_of(SCCKernel *k, int32_t l)
{
    return k->lwindow[l] == k->window ? k->lcharge[l] : 0;
}

static void
set_charge(SCCKernel *k, int32_t l, int64_t charge)
{
    k->lcharge[l] = charge;
    k->lwindow[l] = k->window;
}

/* fresh label for vertex v, epoch = current mutation counter */
static int32_t
fresh_label(SCCKernel *k, int32_t v)
{
    if (kernel_grow_labels(k, k->lnext + 1) < 0)
        return -1;
    int32_t l = (int32_t)k->lnext++;
    IntVec *mv = &k->members[l];
    mv->len = mv->cap = 0;
    mv->data = NULL;
    if (vec_push(mv, v) < 0)
        return -1;
    k->lepoch[l] = k->mutations;
    k->lflags[l] = 0;
    set_charge(k, l, 0);
    k->vlabel[v] = l;
    k->mpos[v] = 0;
    return l;
}

static void
kill_label(SCCKernel *k, int32_t l)
{
    vec_free(&k->members[l]);
    unmark_cyclic(k, l);
    k->lflags[l] = 0; /* also drops DIRTY; stale dirty_list entry skipped */
}

/* merge lb into la or vice versa; larger member set keeps its label.
 * Mirrors DynamicSCC._union: flags and the max epoch carry over. */
static int32_t
do_union(SCCKernel *k, int32_t la, int32_t lb)
{
    if (la == lb)
        return la;
    if (k->members[la].len < k->members[lb].len) {
        int32_t t = la;
        la = lb;
        lb = t;
    }
    IntVec *big = &k->members[la];
    IntVec *small = &k->members[lb];
    for (Py_ssize_t i = 0; i < small->len; i++) {
        int32_t w = small->data[i];
        k->vlabel[w] = la;
        k->mpos[w] = (int32_t)big->len;
        if (vec_push(big, w) < 0)
            return -1;
    }
    if (k->lflags[lb] & LF_CYCLIC) {
        unmark_cyclic(k, lb);
        if (mark_cyclic(k, la) < 0)
            return -1;
    }
    if (k->lflags[lb] & LF_DIRTY) {
        if (mark_dirty(k, la) < 0)
            return -1;
    }
    if (k->lepoch[lb] > k->lepoch[la])
        k->lepoch[la] = k->lepoch[lb];
    set_charge(k, la, charge_of(k, la) + charge_of(k, lb));
    vec_free(small);
    k->lflags[lb] = 0;
    return la;
}

/* ------------------------------------------------------------------ */
/* Pearce-Kelly insert (order-violating edge)                          */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t ord;
    int32_t v;
} OrdPair;

static int
cmp_ordpair(const void *a, const void *b)
{
    int64_t x = ((const OrdPair *)a)->ord;
    int64_t y = ((const OrdPair *)b)->ord;
    return (x > y) - (x < y);
}

static int
cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a;
    int64_t y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static int
pk_insert(SCCKernel *k, int32_t u, int32_t v, int64_t lb, int64_t ub,
          int32_t label)
{
    IntVec *fwd = &k->scratch_a;
    IntVec *bwd = &k->scratch_b;
    IntVec *stack = &k->scratch_c;
    vec_clear(fwd);
    vec_clear(bwd);
    vec_clear(stack);

    /* forward from v, bounded to ord < ord(u); reaching u is a cycle */
    int64_t gen = ++k->stamp_gen;
    if (vec_push(stack, v) < 0)
        return -1;
    k->stamp[v] = gen;
    while (stack->len) {
        int32_t w = stack->data[--stack->len];
        if (vec_push(fwd, w) < 0)
            return -1;
        IntVec *nbrs = &k->out[w];
        for (Py_ssize_t i = 0; i < nbrs->len; i++) {
            int32_t x = nbrs->data[i];
            if (x == u) {
                if (mark_cyclic(k, label) < 0)
                    return -1;
                k->pk_visits += fwd->len;
                return 0;
            }
            if (k->stamp[x] != gen && k->ord[x] < ub) {
                k->stamp[x] = gen;
                if (vec_push(stack, x) < 0)
                    return -1;
            }
        }
    }

    /* backward from u, bounded to ord > ord(v) */
    gen = ++k->stamp_gen;
    if (vec_push(stack, u) < 0)
        return -1;
    k->stamp[u] = gen;
    while (stack->len) {
        int32_t w = stack->data[--stack->len];
        if (vec_push(bwd, w) < 0)
            return -1;
        IntVec *nbrs = &k->in[w];
        for (Py_ssize_t i = 0; i < nbrs->len; i++) {
            int32_t x = nbrs->data[i];
            if (k->stamp[x] != gen && k->ord[x] > lb) {
                k->stamp[x] = gen;
                if (vec_push(stack, x) < 0)
                    return -1;
            }
        }
    }

    /* reorder the affected region: bwd (by ord), then fwd (by ord),
     * reusing the same order slots in ascending order */
    Py_ssize_t n = fwd->len + bwd->len;
    OrdPair *region = (OrdPair *)PyMem_Malloc(n * sizeof(OrdPair));
    int64_t *slots = (int64_t *)PyMem_Malloc(n * sizeof(int64_t));
    if (region == NULL || slots == NULL) {
        PyMem_Free(region);
        PyMem_Free(slots);
        return -1;
    }
    for (Py_ssize_t i = 0; i < bwd->len; i++) {
        region[i].v = bwd->data[i];
        region[i].ord = k->ord[bwd->data[i]];
    }
    for (Py_ssize_t i = 0; i < fwd->len; i++) {
        region[bwd->len + i].v = fwd->data[i];
        region[bwd->len + i].ord = k->ord[fwd->data[i]];
    }
    qsort(region, bwd->len, sizeof(OrdPair), cmp_ordpair);
    qsort(region + bwd->len, fwd->len, sizeof(OrdPair), cmp_ordpair);
    for (Py_ssize_t i = 0; i < n; i++)
        slots[i] = region[i].ord;
    qsort(slots, n, sizeof(int64_t), cmp_int64);
    for (Py_ssize_t i = 0; i < n; i++)
        k->ord[region[i].v] = slots[i];
    PyMem_Free(region);
    PyMem_Free(slots);
    k->pk_visits += n;
    return 0;
}

/* ------------------------------------------------------------------ */
/* scoped recompute (dirty label -> fresh partition + verdicts)        */
/* ------------------------------------------------------------------ */

static int
resolve_label(SCCKernel *k, int32_t label)
{
    /* detach the member list; the label dies here */
    IntVec members = k->members[label];
    k->members[label].data = NULL;
    k->members[label].len = k->members[label].cap = 0;
    unmark_cyclic(k, label);
    k->lflags[label] = 0;
    if (members.len == 0) {
        vec_free(&members);
        return 0;
    }
    k->resolves++;

    /* fresh singleton labels, then re-union along out-edges */
    for (Py_ssize_t i = 0; i < members.len; i++) {
        if (fresh_label(k, members.data[i]) < 0)
            goto fail;
    }
    for (Py_ssize_t i = 0; i < members.len; i++) {
        int32_t w = members.data[i];
        IntVec *nbrs = &k->out[w];
        for (Py_ssize_t j = 0; j < nbrs->len; j++) {
            if (do_union(k, k->vlabel[w], k->vlabel[nbrs->data[j]]) < 0)
                goto fail;
        }
    }

    /* iterative Tarjan over the members' induced subgraph (every edge
     * endpoint shares a label, so neighbours are always members) */
    {
        int64_t gen = ++k->stamp_gen;
        IntVec *vstack = &k->scratch_a;  /* Tarjan vertex stack */
        IntVec *frames = &k->scratch_b;  /* DFS frames: (vertex, nbr idx) */
        IntVec *sccs = &k->scratch_c;    /* emitted vertices + offsets */
        vec_clear(vstack);
        vec_clear(frames);
        vec_clear(sccs);
        IntVec offsets = {NULL, 0, 0};
        int32_t counter = 0;

        for (Py_ssize_t s = 0; s < members.len; s++) {
            int32_t root = members.data[s];
            if (k->stamp[root] == gen)
                continue;
            /* push frame(root) */
            k->stamp[root] = gen;
            k->tindex[root] = counter;
            k->tlow[root] = counter;
            counter++;
            k->onstack[root] = 1;
            if (vec_push(vstack, root) < 0 || vec_push(frames, root) < 0 ||
                vec_push(frames, 0) < 0)
                goto tarjan_fail;
            while (frames->len) {
                int32_t w = frames->data[frames->len - 2];
                int32_t ni = frames->data[frames->len - 1];
                IntVec *nbrs = &k->out[w];
                if (ni < nbrs->len) {
                    frames->data[frames->len - 1] = ni + 1;
                    int32_t x = nbrs->data[ni];
                    if (k->stamp[x] != gen) {
                        k->stamp[x] = gen;
                        k->tindex[x] = counter;
                        k->tlow[x] = counter;
                        counter++;
                        k->onstack[x] = 1;
                        if (vec_push(vstack, x) < 0 ||
                            vec_push(frames, x) < 0 || vec_push(frames, 0) < 0)
                            goto tarjan_fail;
                    }
                    else if (k->onstack[x]) {
                        if (k->tindex[x] < k->tlow[w])
                            k->tlow[w] = k->tindex[x];
                    }
                }
                else {
                    frames->len -= 2;
                    if (frames->len) {
                        int32_t parent = frames->data[frames->len - 2];
                        if (k->tlow[w] < k->tlow[parent])
                            k->tlow[parent] = k->tlow[w];
                    }
                    if (k->tlow[w] == k->tindex[w]) {
                        /* pop one SCC off the vertex stack */
                        Py_ssize_t start = sccs->len;
                        while (1) {
                            int32_t x = vstack->data[--vstack->len];
                            k->onstack[x] = 0;
                            if (vec_push(sccs, x) < 0)
                                goto tarjan_fail;
                            if (x == w)
                                break;
                        }
                        if (vec_push(&offsets, (int32_t)start) < 0)
                            goto tarjan_fail;
                    }
                }
            }
        }
        if (vec_push(&offsets, (int32_t)sccs->len) < 0)
            goto tarjan_fail;

        /* Tarjan emits SCCs in reverse topological order; walk the
         * list backwards assigning fresh ords (a valid topo order) and
         * flag cyclic SCCs on their (post-union) label */
        for (Py_ssize_t c = offsets.len - 2; c >= 0; c--) {
            Py_ssize_t start = offsets.data[c];
            Py_ssize_t stop = offsets.data[c + 1];
            int32_t head = sccs->data[start];
            int cyc = (stop - start) > 1;
            if (!cyc) {
                /* self-loop check */
                cyc = edgeset_contains(&k->edges, edge_key(head, head));
            }
            if (cyc) {
                if (mark_cyclic(k, k->vlabel[head]) < 0)
                    goto tarjan_fail;
            }
            for (Py_ssize_t i = start; i < stop; i++)
                k->ord[sccs->data[i]] = k->next_ord++;
        }
        vec_free(&offsets);
        vec_free(&members);
        return 0;

    tarjan_fail:
        vec_free(&offsets);
        goto fail;
    }

fail:
    vec_free(&members);
    return -1;
}

static int
ensure_resolved(SCCKernel *k)
{
    while (k->dirty_list.len) {
        int32_t l = k->dirty_list.data[--k->dirty_list.len];
        if (label_alive(k, l) && (k->lflags[l] & LF_DIRTY)) {
            if (resolve_label(k, l) < 0)
                return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* mutations                                                           */
/* ------------------------------------------------------------------ */

static int
add_vertex_impl(SCCKernel *k, int32_t v)
{
    if (kernel_grow_vertices(k, (Py_ssize_t)v + 1) < 0)
        return -1;
    if ((Py_ssize_t)v >= k->vnext)
        k->vnext = (Py_ssize_t)v + 1;
    if (k->alive[v])
        return 0;
    k->mutations++;
    k->alive[v] = 1;
    k->nalive++;
    vec_clear(&k->out[v]);
    vec_clear(&k->in[v]);
    k->ord[v] = k->next_ord++;
    if (fresh_label(k, v) < 0)
        return -1;
    return 0;
}

static int
add_edge_impl(SCCKernel *k, int32_t u, int32_t v)
{
    if (add_vertex_impl(k, u) < 0 || add_vertex_impl(k, v) < 0)
        return -1;
    uint64_t key = edge_key(u, v);
    if (edgeset_contains(&k->edges, key))
        return 0;
    k->mutations++;
    if (edgeset_add(&k->edges, key) < 0)
        return -1;
    if (vec_push(&k->out[u], v) < 0 || vec_push(&k->in[v], u) < 0)
        return -1;
    k->edge_count++;
    int32_t label = do_union(k, k->vlabel[u], k->vlabel[v]);
    if (label < 0)
        return -1;
    k->lepoch[label] = k->mutations;
    if (k->lflags[label] & (LF_CYCLIC | LF_DIRTY))
        return 0; /* known cyclic stays cyclic; unknown stays unknown */
    if (u == v)
        return mark_cyclic(k, label);
    int64_t lb = k->ord[v], ub = k->ord[u];
    if (ub < lb)
        return 0; /* order-respecting edge: provably no new cycle */
    if (!k->batch_depth)
        return pk_insert(k, u, v, lb, ub, label);
    /* rent, then buy: inside a window Pearce-Kelly runs per edge until
     * the visits charged to this component exceed its member count,
     * and only then is it marked unknown (see DynamicSCC.add_edge) */
    int64_t spent = charge_of(k, label);
    if (spent > (int64_t)k->members[label].len)
        return mark_dirty(k, label);
    int64_t before = k->pk_visits;
    if (pk_insert(k, u, v, lb, ub, label) < 0)
        return -1;
    set_charge(k, label, spent + k->pk_visits - before);
    return 0;
}

static int
remove_edge_impl(SCCKernel *k, int32_t u, int32_t v)
{
    if (u < 0 || v < 0 || (Py_ssize_t)u >= k->vnext || !k->alive[u])
        return 0;
    uint64_t key = edge_key(u, v);
    if (!edgeset_discard(&k->edges, key))
        return 0;
    k->mutations++;
    vec_remove(&k->out[u], v);
    vec_remove(&k->in[v], u);
    k->edge_count--;
    int32_t label = k->vlabel[u];
    k->lepoch[label] = k->mutations;
    if (k->lflags[label] & (LF_CYCLIC | LF_DIRTY)) {
        /* the deleted edge may have carried the cycle: verdict becomes
         * unknown; the next query recomputes, scoped */
        unmark_cyclic(k, label);
        if (mark_dirty(k, label) < 0)
            return -1;
    }
    return 0;
}

static int
remove_vertex_impl(SCCKernel *k, int32_t v)
{
    if (v < 0 || (Py_ssize_t)v >= k->vnext || !k->alive[v])
        return 0;
    /* snapshot-and-remove both adjacency lists, mirroring the Python
     * structure's per-edge removals (each bumps mutations/epochs) */
    IntVec snap = {NULL, 0, 0};
    for (Py_ssize_t i = 0; i < k->out[v].len; i++)
        if (vec_push(&snap, k->out[v].data[i]) < 0)
            goto fail;
    for (Py_ssize_t i = 0; i < snap.len; i++)
        if (remove_edge_impl(k, v, snap.data[i]) < 0)
            goto fail;
    vec_clear(&snap);
    for (Py_ssize_t i = 0; i < k->in[v].len; i++)
        if (vec_push(&snap, k->in[v].data[i]) < 0)
            goto fail;
    for (Py_ssize_t i = 0; i < snap.len; i++)
        if (remove_edge_impl(k, snap.data[i], v) < 0)
            goto fail;
    vec_free(&snap);

    k->mutations++;
    {
        int32_t label = k->vlabel[v];
        IntVec *mv = &k->members[label];
        /* swap-remove v from the member list, fixing the moved slot */
        int32_t pos = k->mpos[v];
        int32_t last = mv->data[mv->len - 1];
        mv->data[pos] = last;
        k->mpos[last] = pos;
        mv->len--;
        k->lepoch[label] = k->mutations;
        k->alive[v] = 0;
        k->nalive--;
        vec_free(&k->out[v]);
        vec_free(&k->in[v]);
        if (mv->len == 0)
            kill_label(k, label);
    }
    return 0;

fail:
    vec_free(&snap);
    return -1;
}

/* ------------------------------------------------------------------ */
/* Python method surface                                               */
/* ------------------------------------------------------------------ */

static int
parse_vertex(PyObject *arg, int32_t *out)
{
    long v = PyLong_AsLong(arg);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || v > INT32_MAX - 1) {
        PyErr_SetString(PyExc_ValueError, "vertex id out of range");
        return -1;
    }
    *out = (int32_t)v;
    return 0;
}

static PyObject *
SCCKernel_add_vertex(SCCKernel *k, PyObject *arg)
{
    int32_t v;
    if (parse_vertex(arg, &v) < 0)
        return NULL;
    if (add_vertex_impl(k, v) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *
SCCKernel_add_edge(SCCKernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int32_t u, v;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "add_edge expects (u, v)");
        return NULL;
    }
    if (parse_vertex(args[0], &u) < 0 || parse_vertex(args[1], &v) < 0)
        return NULL;
    if (add_edge_impl(k, u, v) < 0) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
SCCKernel_remove_edge(SCCKernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int32_t u, v;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "remove_edge expects (u, v)");
        return NULL;
    }
    if (parse_vertex(args[0], &u) < 0 || parse_vertex(args[1], &v) < 0)
        return NULL;
    if (remove_edge_impl(k, u, v) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *
SCCKernel_remove_vertex(SCCKernel *k, PyObject *arg)
{
    int32_t v;
    if (parse_vertex(arg, &v) < 0)
        return NULL;
    if (remove_vertex_impl(k, v) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *
SCCKernel_has_edge(SCCKernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int32_t u, v;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "has_edge expects (u, v)");
        return NULL;
    }
    if (parse_vertex(args[0], &u) < 0 || parse_vertex(args[1], &v) < 0)
        return NULL;
    if ((Py_ssize_t)u >= k->vnext || !k->alive[u])
        Py_RETURN_FALSE;
    return PyBool_FromLong(edgeset_contains(&k->edges, edge_key(u, v)));
}

static PyObject *
SCCKernel_contains(SCCKernel *k, PyObject *arg)
{
    int32_t v;
    if (parse_vertex(arg, &v) < 0)
        return NULL;
    return PyBool_FromLong((Py_ssize_t)v < k->vnext && k->alive[v]);
}

static PyObject *
SCCKernel_has_cycle(SCCKernel *k, PyObject *Py_UNUSED(ignored))
{
    if (ensure_resolved(k) < 0)
        return PyErr_NoMemory();
    return PyBool_FromLong(k->ncyclic > 0);
}

static PyObject *
SCCKernel_begin_batch(SCCKernel *k, PyObject *Py_UNUSED(ignored))
{
    if (k->batch_depth++ == 0)
        k->window++;
    Py_RETURN_NONE;
}

static PyObject *
SCCKernel_end_batch(SCCKernel *k, PyObject *Py_UNUSED(ignored))
{
    if (k->batch_depth <= 0) {
        PyErr_SetString(PyExc_RuntimeError, "end_batch without begin_batch");
        return NULL;
    }
    k->batch_depth--;
    Py_RETURN_NONE;
}

static PyObject *
SCCKernel_cyclic_labels(SCCKernel *k, PyObject *Py_UNUSED(ignored))
{
    if (ensure_resolved(k) < 0)
        return PyErr_NoMemory();
    /* compact the lazy list: keep labels still alive and cyclic */
    Py_ssize_t w = 0;
    for (Py_ssize_t i = 0; i < k->cyclic_list.len; i++) {
        int32_t l = k->cyclic_list.data[i];
        if (label_alive(k, l) && (k->lflags[l] & LF_CYCLIC))
            k->cyclic_list.data[w++] = l;
    }
    k->cyclic_list.len = w;
    PyObject *res = PyList_New(w);
    if (res == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < w; i++) {
        PyObject *num = PyLong_FromLong(k->cyclic_list.data[i]);
        if (num == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, i, num);
    }
    return res;
}

static PyObject *
SCCKernel_label_of(SCCKernel *k, PyObject *arg)
{
    int32_t v;
    if (parse_vertex(arg, &v) < 0)
        return NULL;
    if ((Py_ssize_t)v >= k->vnext || !k->alive[v]) {
        PyErr_SetString(PyExc_KeyError, "vertex not in graph");
        return NULL;
    }
    return PyLong_FromLong(k->vlabel[v]);
}

static PyObject *
SCCKernel_members_of(SCCKernel *k, PyObject *arg)
{
    long l = PyLong_AsLong(arg);
    if (l == -1 && PyErr_Occurred())
        return NULL;
    if (!label_alive(k, (Py_ssize_t)l)) {
        PyErr_SetString(PyExc_KeyError, "label not alive");
        return NULL;
    }
    IntVec *mv = &k->members[l];
    PyObject *res = PyList_New(mv->len);
    if (res == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < mv->len; i++) {
        PyObject *num = PyLong_FromLong(mv->data[i]);
        if (num == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, i, num);
    }
    return res;
}

static PyObject *
SCCKernel_epoch_of_label(SCCKernel *k, PyObject *arg)
{
    long l = PyLong_AsLong(arg);
    if (l == -1 && PyErr_Occurred())
        return NULL;
    if (!label_alive(k, (Py_ssize_t)l)) {
        PyErr_SetString(PyExc_KeyError, "label not alive");
        return NULL;
    }
    return PyLong_FromLongLong(k->lepoch[l]);
}

static PyObject *
SCCKernel_out_neighbors(SCCKernel *k, PyObject *arg)
{
    int32_t v;
    if (parse_vertex(arg, &v) < 0)
        return NULL;
    if ((Py_ssize_t)v >= k->vnext || !k->alive[v])
        return PyList_New(0);
    IntVec *nbrs = &k->out[v];
    PyObject *res = PyList_New(nbrs->len);
    if (res == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < nbrs->len; i++) {
        PyObject *num = PyLong_FromLong(nbrs->data[i]);
        if (num == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, i, num);
    }
    return res;
}

static PyObject *
SCCKernel_vertices(SCCKernel *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *res = PyList_New(k->nalive);
    if (res == NULL)
        return NULL;
    Py_ssize_t j = 0;
    for (Py_ssize_t v = 0; v < k->vnext; v++) {
        if (!k->alive[v])
            continue;
        PyObject *num = PyLong_FromSsize_t(v);
        if (num == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, j++, num);
    }
    return res;
}

static PyObject *
SCCKernel_edges_within(SCCKernel *k, PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "edges_within expects a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    int64_t gen = ++k->stamp_gen;
    for (Py_ssize_t i = 0; i < n; i++) {
        int32_t v;
        if (parse_vertex(items[i], &v) < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        if ((Py_ssize_t)v < k->vnext)
            k->stamp[v] = gen;
    }
    Py_ssize_t count = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int32_t v = (int32_t)PyLong_AsLong(items[i]);
        if ((Py_ssize_t)v >= k->vnext || !k->alive[v])
            continue;
        IntVec *nbrs = &k->out[v];
        for (Py_ssize_t j = 0; j < nbrs->len; j++)
            if (k->stamp[nbrs->data[j]] == gen)
                count++;
    }
    Py_DECREF(seq);
    return PyLong_FromSsize_t(count);
}

/* -- getters ------------------------------------------------------- */

static PyObject *
SCCKernel_get_edge_count(SCCKernel *k, void *Py_UNUSED(c))
{
    return PyLong_FromSsize_t(k->edge_count);
}

static PyObject *
SCCKernel_get_vertex_count(SCCKernel *k, void *Py_UNUSED(c))
{
    return PyLong_FromSsize_t(k->nalive);
}

static PyObject *
SCCKernel_get_mutations(SCCKernel *k, void *Py_UNUSED(c))
{
    return PyLong_FromLongLong(k->mutations);
}

static PyObject *
SCCKernel_get_pk_visits(SCCKernel *k, void *Py_UNUSED(c))
{
    return PyLong_FromLongLong(k->pk_visits);
}

static PyObject *
SCCKernel_get_resolves(SCCKernel *k, void *Py_UNUSED(c))
{
    return PyLong_FromLongLong(k->resolves);
}

static PyObject *
SCCKernel_get_batch_depth(SCCKernel *k, void *Py_UNUSED(c))
{
    return PyLong_FromLong(k->batch_depth);
}

/* ------------------------------------------------------------------ */
/* type plumbing                                                       */
/* ------------------------------------------------------------------ */

static PyObject *
SCCKernel_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
              PyObject *Py_UNUSED(kwds))
{
    SCCKernel *k = (SCCKernel *)type->tp_alloc(type, 0);
    if (k == NULL)
        return NULL;
    if (edgeset_init(&k->edges, 64) < 0) {
        Py_DECREF(k);
        return PyErr_NoMemory();
    }
    return (PyObject *)k;
}

static void
SCCKernel_dealloc(SCCKernel *k)
{
    for (Py_ssize_t v = 0; v < k->vcap; v++) {
        vec_free(&k->out[v]);
        vec_free(&k->in[v]);
    }
    for (Py_ssize_t l = 0; l < k->lcap; l++)
        vec_free(&k->members[l]);
    PyMem_Free(k->alive);
    PyMem_Free(k->ord);
    PyMem_Free(k->vlabel);
    PyMem_Free(k->mpos);
    PyMem_Free(k->out);
    PyMem_Free(k->in);
    PyMem_Free(k->members);
    PyMem_Free(k->lepoch);
    PyMem_Free(k->lflags);
    PyMem_Free(k->lcharge);
    PyMem_Free(k->lwindow);
    PyMem_Free(k->stamp);
    PyMem_Free(k->tindex);
    PyMem_Free(k->tlow);
    PyMem_Free(k->onstack);
    PyMem_Free(k->edges.slots);
    vec_free(&k->cyclic_list);
    vec_free(&k->dirty_list);
    vec_free(&k->scratch_a);
    vec_free(&k->scratch_b);
    vec_free(&k->scratch_c);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyMethodDef SCCKernel_methods[] = {
    {"add_vertex", (PyCFunction)SCCKernel_add_vertex, METH_O, NULL},
    {"add_edge", (PyCFunction)(void (*)(void))SCCKernel_add_edge,
     METH_FASTCALL, NULL},
    {"remove_edge", (PyCFunction)(void (*)(void))SCCKernel_remove_edge,
     METH_FASTCALL, NULL},
    {"remove_vertex", (PyCFunction)SCCKernel_remove_vertex, METH_O, NULL},
    {"has_edge", (PyCFunction)(void (*)(void))SCCKernel_has_edge,
     METH_FASTCALL, NULL},
    {"contains", (PyCFunction)SCCKernel_contains, METH_O, NULL},
    {"has_cycle", (PyCFunction)SCCKernel_has_cycle, METH_NOARGS, NULL},
    {"begin_batch", (PyCFunction)SCCKernel_begin_batch, METH_NOARGS, NULL},
    {"end_batch", (PyCFunction)SCCKernel_end_batch, METH_NOARGS, NULL},
    {"cyclic_labels", (PyCFunction)SCCKernel_cyclic_labels, METH_NOARGS, NULL},
    {"label_of", (PyCFunction)SCCKernel_label_of, METH_O, NULL},
    {"members_of", (PyCFunction)SCCKernel_members_of, METH_O, NULL},
    {"epoch_of_label", (PyCFunction)SCCKernel_epoch_of_label, METH_O, NULL},
    {"out_neighbors", (PyCFunction)SCCKernel_out_neighbors, METH_O, NULL},
    {"vertices", (PyCFunction)SCCKernel_vertices, METH_NOARGS, NULL},
    {"edges_within", (PyCFunction)SCCKernel_edges_within, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef SCCKernel_getset[] = {
    {"edge_count", (getter)SCCKernel_get_edge_count, NULL, NULL, NULL},
    {"vertex_count", (getter)SCCKernel_get_vertex_count, NULL, NULL, NULL},
    {"mutation_epoch", (getter)SCCKernel_get_mutations, NULL, NULL, NULL},
    {"pk_visits", (getter)SCCKernel_get_pk_visits, NULL, NULL, NULL},
    {"resolves", (getter)SCCKernel_get_resolves, NULL, NULL, NULL},
    {"batch_depth", (getter)SCCKernel_get_batch_depth, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject SCCKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._nativescc.SCCKernel",
    .tp_basicsize = sizeof(SCCKernel),
    .tp_dealloc = (destructor)SCCKernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Dense-int DynamicSCC maintenance kernel (see module doc).",
    .tp_methods = SCCKernel_methods,
    .tp_getset = SCCKernel_getset,
    .tp_new = SCCKernel_new,
};

static struct PyModuleDef nativescc_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.core._nativescc",
    .m_doc = "Compiled DynamicSCC maintenance kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__nativescc(void)
{
    if (PyType_Ready(&SCCKernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&nativescc_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&SCCKernelType);
    if (PyModule_AddObject(m, "SCCKernel", (PyObject *)&SCCKernelType) < 0) {
        Py_DECREF(&SCCKernelType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "KERNEL_VERSION", 1) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
