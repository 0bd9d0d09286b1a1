"""Native backend: the scheduler's segment loop and the channel sampler.

The backend has two entry points, each one compiled translation unit
loaded through ``cffi``:

* :func:`load` — the batch-advance kernel's hot loop
  (:mod:`repro.dram.kernel`), the compiled *segment loop*.  It runs the
  admit / refresh / eval / commit / arbitrate / pop cycle over the flat
  int64 state tables, taking the request stream one batch at a time:
  admission copies each request into its bank's ring, whose capacity is
  the power of two at or above the most requests a bank can hold
  (``per_bank_depth``, or ``queue_depth`` if smaller), so ring slots
  are found with a mask.  The CAS arbiter walks the ready bank heads
  oldest-first, as the general engine does, from an array kept in head
  sequence order.  The loop returns to Python only when admission reaches
  the end of a batch with room left in the window, when the phase is
  done (after a last, empty batch flagged as the end of the stream),
  when the command-record buffer needs growing, or on deadlock.  Refresh
  events are a port of the general engine's refresh block: the loop
  takes the :class:`~repro.dram.refresh.RefreshScheduler`'s next
  deadline and round-robin bank in, hands them back advanced, and counts
  the events it applied.  Besides the optional command records the loop
  can write one CAS issue time per request (the ``cas_time`` column the
  end-to-end latency fold reads).
* :func:`load_sampler` — the Gilbert–Elliott frame loop behind
  :meth:`~repro.channel.gilbert_elliott.GilbertElliottChannel.sample_decode`,
  which samples and decodes a whole
  :meth:`~repro.system.downlink.OpticalDownlink.run_batched` batch in
  one call.  It draws each frame's dwells with NumPy's own
  ``random_geometric``, linked statically from
  ``numpy/random/lib/libnpyrandom.a`` and driven through NumPy's public
  ``bitgen_t`` by a C port of ``PCG64``, jumps the stream over good
  symbols and draws one uniform per fade symbol, so hits and generator
  state match the dense path bit for bit.  Each hit goes straight into
  both arms' per-code-word counts and the frame's error bursts; the
  call returns per-frame burst columns and six decode tallies, all
  sized by its inputs, so there is no hit buffer to outgrow.

Each entry point is compiled with the system C compiler at first use
and cached under the user's temp directory (override with
``REPRO_KERNELC_CACHE``).  The segment loop's cache key is its source;
the sampler's also covers ``numpy.__version__`` and a digest of the
archive, so a NumPy upgrade rebuilds it.  A cache entry that exists but
does not load is rebuilt once.  :func:`available` builds and loads
both, so a process that calls it first never compiles later.

When an entry point cannot be built — no compiler or ``cffi``, no
archive for the sampler — or ``REPRO_KERNEL_NATIVE=0`` is set, its
loader returns ``None``, and the caller takes its bit-identical
fallback: :meth:`~repro.dram.kernel.KernelEngine.run` delegates every
phase to the general engine with ``PhaseStats.kernel_fallback`` set,
and the channel samples on its dense path.  The two fail
independently: a failed sampler build leaves the segment loop native.

All segment-loop arithmetic is exact int64: timestamps in this project
stay below ``10**15`` picoseconds and the far-future sentinel is
``10**18``, so no intermediate sum can overflow.  The one C-vs-Python
arithmetic difference, truncating vs flooring ``%``, is handled by the
``QUANTIZE`` helper which reproduces Python's floor-mod for negative
operands (the issue-slot bound is legitimately negative before the
first CAS of a phase).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from shutil import which
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy

#: Scalar-slot indices shared with the C side (keep in sync with the
#: ``S_*`` enum in :data:`SOURCE`).  ``S_DEADLINE`` and ``S_REF_BANK``
#: carry the refresh state in and out; ``S_REFRESHES`` counts the
#: events the loop applied.  ``S_POS`` is the next request of the
#: current batch to admit.
(S_LAST_CAS, S_LAST_ACT, S_LAST_ACT_BG, S_FAW_IDX, S_BUS_FREE,
 S_LAST_DATA_END, S_POS, S_QUEUED, S_N_REQUESTS, S_HITS, S_MISSES,
 S_EMPTIES, S_ACTS, S_PRES, S_RESCAN_ALL, S_HAVE_DEADLINE, S_DEADLINE,
 S_READY_COUNT, S_HEAP_SIZE, S_FRESH_COUNT, S_REC_COUNT, S_REFRESHES,
 S_REF_BANK) = range(23)
N_SCALARS = 23

#: Config-slot indices shared with the C side (``C_*`` enum).
#: ``C_BATCH`` is the current batch's request count and ``C_LAST`` flags
#: the end of the stream; ``C_RING`` is the per-bank ring capacity.
(C_N_BANKS, C_BANK_GROUPS, C_TCK, C_QUANT, C_TRP, C_TRCD, C_TRAS,
 C_TRRD_S, C_TRRD_L, C_TFAW, C_TCCD_S, C_TCCD_L, C_TWR, C_TRTP,
 C_IS_READ, C_LATENCY, C_BURST, C_QUEUE_DEPTH, C_PER_BANK_DEPTH,
 C_RECORD, C_BATCH, C_LAST, C_REC_CAP, C_CAS_TIMES, C_REF_INTERVAL,
 C_REF_DURATION, C_REF_ALL_BANK, C_RING) = range(28)
N_CFG = 28

#: Segment-exit reasons returned by ``run_segment`` (``EXIT_*`` enum).
EXIT_DONE = 0
EXIT_RECORD_FULL = 1
EXIT_DEADLOCK = 2
EXIT_NEED_INPUT = 3

#: Command kinds in the record columns (decoded by the kernel wrapper).
REC_ACT = 0
REC_PRE = 1
REC_CAS = 2
REC_REF = 3

CDEF = """
int64_t run_segment(const int64_t *cfg, int64_t *sc,
    const int64_t *banks, const int64_t *rows, const int64_t *cols,
    int64_t *ring, int64_t *head, int64_t *adm, int64_t *bstate,
    int64_t *open_row, int64_t *act_time, int64_t *cas_allowed,
    int64_t *pre_allowed, int64_t *act_allowed,
    const int64_t *bg_of, int64_t *last_cas_bg, int64_t *faw_ring,
    int64_t *fresh, int64_t *heap, int64_t *ready, int64_t *rec,
    int64_t *cas_time);
"""

SOURCE = r"""
#include <stdint.h>

#define FAR_PAST   (-1000000000000000LL)
#define FAR_FUTURE (1000000000000000000LL)

enum { S_LAST_CAS, S_LAST_ACT, S_LAST_ACT_BG, S_FAW_IDX, S_BUS_FREE,
  S_LAST_DATA_END, S_POS, S_QUEUED, S_N_REQUESTS, S_HITS, S_MISSES,
  S_EMPTIES, S_ACTS, S_PRES, S_RESCAN_ALL, S_HAVE_DEADLINE, S_DEADLINE,
  S_READY_COUNT, S_HEAP_SIZE, S_FRESH_COUNT, S_REC_COUNT, S_REFRESHES,
  S_REF_BANK };

enum { C_N_BANKS, C_BANK_GROUPS, C_TCK, C_QUANT, C_TRP, C_TRCD, C_TRAS,
  C_TRRD_S, C_TRRD_L, C_TFAW, C_TCCD_S, C_TCCD_L, C_TWR, C_TRTP,
  C_IS_READ, C_LATENCY, C_BURST, C_QUEUE_DEPTH, C_PER_BANK_DEPTH,
  C_RECORD, C_BATCH, C_LAST, C_REC_CAP, C_CAS_TIMES, C_REF_INTERVAL,
  C_REF_DURATION, C_REF_ALL_BANK, C_RING };

enum { EXIT_DONE, EXIT_RECORD_FULL, EXIT_DEADLOCK, EXIT_NEED_INPUT };

enum { REC_ACT = 0, REC_PRE = 1, REC_CAS = 2, REC_REF = 3 };

/* Python floor-mod quantization: round v up to the command-clock grid.
 * C's % truncates toward zero; Python's floors, and the issue-slot
 * bound is negative before the first CAS of a phase, so the remainder
 * must be normalized into [0, tck). */
static inline int64_t quantize(int64_t v, int64_t tck) {
    int64_t r = v % tck;
    if (r < 0) r += tck;
    if (r) v += tck - r;
    return v;
}

/* Per-bank request rings, 3 int64 columns per slot: stream sequence
 * number, row, column.  head[b] and adm[b] count bank b's served and
 * admitted requests; its k-th request sits in slot k & (ring_cap - 1)
 * of its ring.  At most min(queue_depth, per_bank_depth) <= ring_cap
 * requests of a bank are admitted and unserved, so no live slot is
 * ever overwritten. */
#define Q_AT(b, k) (ring + ((b) * ring_cap + ((k) & ring_mask)) * 3)

/* Deferred-activation entries, 5 int64 columns per slot (same fields
 * as the general engine's heap tuples).  The store is an unsorted
 * array: entries carry distinct banks, so (act_ready, bank) is a total
 * order and min-extraction visits entries in exactly the order the
 * general engine's binary heap pops them. */
#define H_T(i)   heap[(i) * 5 + 0]
#define H_B(i)   heap[(i) * 5 + 1]
#define H_P(i)   heap[(i) * 5 + 2]
#define H_E(i)   heap[(i) * 5 + 3]
#define H_R(i)   heap[(i) * 5 + 4]

/* Ready heads, 2 int64 columns per entry: bank, sequence number of its
 * queue head.  A bank is ready while its head is a row hit on its open
 * row.  Entries stay in sequence order, as the general engine's
 * ready_order does, so the CAS walk visits the heads oldest-first. */
#define R_B(k)   ready[(k) * 2 + 0]
#define R_S(k)   ready[(k) * 2 + 1]

/* Insert bank b, whose head has sequence number seq, into the first
 * count entries. */
static inline void ready_insert(int64_t *ready, int64_t count, int64_t b,
                                int64_t seq) {
    int64_t k = count;
    for (; k > 0 && R_S(k - 1) > seq; k--) {
        R_B(k) = R_B(k - 1); R_S(k) = R_S(k - 1);
    }
    R_B(k) = b; R_S(k) = seq;
}

/* Drop entry k of the first count entries. */
static inline void ready_remove(int64_t *ready, int64_t count, int64_t k) {
    for (; k + 1 < count; k++) {
        R_B(k) = R_B(k + 1); R_S(k) = R_S(k + 1);
    }
}

/* Entry k's head advanced to the later sequence number seq: move it
 * back past every entry that is now older. */
static inline void ready_advance(int64_t *ready, int64_t count, int64_t k,
                                 int64_t seq) {
    int64_t b = R_B(k);
    for (; k + 1 < count && R_S(k + 1) < seq; k++) {
        R_B(k) = R_B(k + 1); R_S(k) = R_S(k + 1);
    }
    R_B(k) = b; R_S(k) = seq;
}

/* Append one command record: time, kind, bank, row, column, request. */
#define RECORD(t, kind, bank, row, col, req) do {                    \
        int64_t *r_ = rec + rec_count++ * 6;                         \
        r_[0] = (t); r_[1] = (kind); r_[2] = (bank);                 \
        r_[3] = (row); r_[4] = (col); r_[5] = (req);                 \
    } while (0)

/* Evaluate a newly pending bank's queue head once: a row hit goes
 * ready, otherwise its row cycle (empty bank, or a precharge first) is
 * parked in the deferred-activation store with its fixed
 * activation-ready time. */
#define EVAL_HEAD(bank) do {                                         \
        int64_t e_ = (bank);                                         \
        const int64_t *q_ = Q_AT(e_, head[e_]);                      \
        int64_t row_ = q_[1];                                        \
        int64_t open_ = open_row[e_];                                \
        if (open_ == row_) {                                         \
            bstate[e_] = 2; hits++;                                  \
            ready_insert(ready, ready_count++, e_, q_[0]);           \
        } else {                                                     \
            int64_t t_pre_ = -1, ready_ = act_allowed[e_];           \
            if (open_ >= 0) {                                        \
                t_pre_ = pre_allowed[e_];                            \
                if (quant) t_pre_ = quantize(t_pre_, tck);           \
                ready_ = t_pre_ + trp;                               \
            }                                                        \
            H_T(heap_size) = ready_; H_B(heap_size) = e_;            \
            H_P(heap_size) = t_pre_; H_E(heap_size) = open_ < 0;     \
            H_R(heap_size) = row_; heap_size++;                      \
        }                                                            \
    } while (0)

int64_t run_segment(const int64_t *cfg, int64_t *sc,
    const int64_t *banks, const int64_t *rows, const int64_t *cols,
    int64_t *ring, int64_t *head, int64_t *adm, int64_t *bstate,
    int64_t *open_row, int64_t *act_time, int64_t *cas_allowed,
    int64_t *pre_allowed, int64_t *act_allowed,
    const int64_t *bg_of, int64_t *last_cas_bg, int64_t *faw_ring,
    int64_t *fresh, int64_t *heap, int64_t *ready, int64_t *rec,
    int64_t *cas_time)
{
    const int64_t n_banks = cfg[C_N_BANKS];
    const int64_t tck = cfg[C_TCK];
    const int64_t quant = cfg[C_QUANT];
    const int64_t trp = cfg[C_TRP];
    const int64_t trcd = cfg[C_TRCD];
    const int64_t tras = cfg[C_TRAS];
    const int64_t trrd_s = cfg[C_TRRD_S];
    const int64_t trrd_l = cfg[C_TRRD_L];
    const int64_t tfaw = cfg[C_TFAW];
    const int64_t tccd_s = cfg[C_TCCD_S];
    const int64_t tccd_l = cfg[C_TCCD_L];
    const int64_t twr = cfg[C_TWR];
    const int64_t trtp = cfg[C_TRTP];
    const int64_t is_read = cfg[C_IS_READ];
    const int64_t latency = cfg[C_LATENCY];
    const int64_t burst = cfg[C_BURST];
    const int64_t queue_depth = cfg[C_QUEUE_DEPTH];
    const int64_t per_bank_depth = cfg[C_PER_BANK_DEPTH];
    const int64_t do_record = cfg[C_RECORD];
    const int64_t batch = cfg[C_BATCH];
    const int64_t last = cfg[C_LAST];
    const int64_t rec_cap = cfg[C_REC_CAP];
    const int64_t want_cas_time = cfg[C_CAS_TIMES];
    const int64_t ref_interval = cfg[C_REF_INTERVAL];
    const int64_t ref_duration = cfg[C_REF_DURATION];
    const int64_t ref_all_bank = cfg[C_REF_ALL_BANK];
    const int64_t ring_cap = cfg[C_RING];
    const int64_t ring_mask = ring_cap - 1;

    int64_t last_cas = sc[S_LAST_CAS];
    int64_t last_act = sc[S_LAST_ACT];
    int64_t last_act_bg = sc[S_LAST_ACT_BG];
    int64_t faw_idx = sc[S_FAW_IDX];
    int64_t bus_free = sc[S_BUS_FREE];
    int64_t last_data_end = sc[S_LAST_DATA_END];
    int64_t pos = sc[S_POS];
    int64_t queued = sc[S_QUEUED];
    int64_t n_requests = sc[S_N_REQUESTS];
    int64_t hits = sc[S_HITS];
    int64_t misses = sc[S_MISSES];
    int64_t empties = sc[S_EMPTIES];
    int64_t acts = sc[S_ACTS];
    int64_t pres = sc[S_PRES];
    int64_t rescan_all = sc[S_RESCAN_ALL];
    const int64_t have_deadline = sc[S_HAVE_DEADLINE];
    int64_t deadline = sc[S_DEADLINE];
    int64_t ready_count = sc[S_READY_COUNT];
    int64_t heap_size = sc[S_HEAP_SIZE];
    int64_t fresh_count = sc[S_FRESH_COUNT];
    int64_t rec_count = sc[S_REC_COUNT];
    int64_t refreshes = sc[S_REFRESHES];
    int64_t ref_bank = sc[S_REF_BANK];

    int64_t commit_idx[64];
    int64_t exit_reason = EXIT_DONE;

    for (;;) {
        /* ---- admission: the stream head enters its bank's ring until
         * the window is full or a bank at per_bank_depth blocks it.
         * Every request admitted so far is served or queued, so
         * n_requests + queued is the next stream sequence number. --- */
        while (queued < queue_depth && pos < batch) {
            int64_t b = banks[pos];
            if (adm[b] - head[b] >= per_bank_depth) break;
            if (adm[b] == head[b]) {
                bstate[b] = 1;
                fresh[fresh_count++] = b;
            }
            int64_t *q = Q_AT(b, adm[b]);
            q[0] = n_requests + queued; q[1] = rows[pos]; q[2] = cols[pos];
            adm[b]++; pos++; queued++;
        }
        /* Room left at the end of a batch: the next one may hold the
         * requests that fill it. */
        if (queued < queue_depth && pos == batch && !last) {
            exit_reason = EXIT_NEED_INPUT; break;
        }
        if (!queued) break;
        /* Room for one step (2 * n_banks + 1 records) or one refresh
         * event (n_banks + 1). */
        if (do_record && rec_cap - rec_count < 2 * n_banks + 2) {
            exit_reason = EXIT_RECORD_FULL; break;
        }

        /* ---- refresh: one event per pass while a deadline is due --- */
        if (have_deadline && last_cas >= deadline) {
            int64_t first = ref_all_bank ? 0 : ref_bank;
            int64_t end = ref_all_bank ? n_banks : ref_bank + 1;
            int64_t ref_time = deadline;
            for (int64_t b = first; b < end; b++) {
                int64_t free_at = act_allowed[b];
                if (open_row[b] >= 0) {
                    int64_t t_pre = pre_allowed[b];
                    if (quant) t_pre = quantize(t_pre, tck);
                    if (do_record) RECORD(t_pre, REC_PRE, b, -1, -1, -1);
                    pres++;
                    open_row[b] = -1;
                    free_at = t_pre + trp;
                }
                if (free_at > ref_time) ref_time = free_at;
            }
            if (quant) ref_time = quantize(ref_time, tck);
            for (int64_t b = first; b < end; b++) {
                if (bstate[b] == 2) bstate[b] = 1;
                act_allowed[b] = ref_time + ref_duration;
            }
            {   /* The refreshed banks are closed: drop their heads. */
                int64_t w = 0;
                for (int64_t k = 0; k < ready_count; k++) {
                    if (bstate[R_B(k)] != 2) continue;
                    R_B(w) = R_B(k); R_S(w) = R_S(k); w++;
                }
                ready_count = w;
            }
            rescan_all = 1;
            refreshes++;
            if (do_record)
                RECORD(ref_time, REC_REF, ref_all_bank ? -1 : ref_bank,
                       -1, -1, -1);
            deadline += ref_interval;
            if (!ref_all_bank) ref_bank = (ref_bank + 1) % n_banks;
            continue;
        }

        /* ---- eager per-bank row management ------------------------- */
        if (rescan_all) {
            rescan_all = 0;
            fresh_count = 0;
            heap_size = 0;
            for (int64_t b = 0; b < n_banks; b++)
                if (bstate[b] == 1) EVAL_HEAD(b);
        } else if (fresh_count) {
            /* The general engine visits fresh banks in sorted order,
             * but eval touches no shared timeline state, so per-bank
             * outcomes are order-independent; heap extraction is by
             * (act_ready, bank), not insertion order. */
            for (int64_t i = 0; i < fresh_count; i++) EVAL_HEAD(fresh[i]);
            fresh_count = 0;
        }

        /* ---- deferred-activation commits --------------------------- */
        if (heap_size) {
            int64_t n_commit = 0;
            for (int64_t i = 0; i < heap_size; i++)
                if (H_T(i) <= bus_free) commit_idx[n_commit++] = i;
            if (!n_commit && !ready_count) {
                /* Forced single commit: the earliest (act_ready, bank)
                 * entry, exactly the heap's root. */
                int64_t mi = 0;
                for (int64_t i = 1; i < heap_size; i++)
                    if (H_T(i) < H_T(mi) ||
                        (H_T(i) == H_T(mi) && H_B(i) < H_B(mi))) mi = i;
                commit_idx[n_commit++] = mi;
            }
            if (n_commit) {
                /* Group commits happen in bank order (the engine sorts
                 * its batch by bank). */
                for (int64_t i = 1; i < n_commit; i++) {
                    int64_t ci = commit_idx[i];
                    int64_t j = i - 1;
                    while (j >= 0 && H_B(commit_idx[j]) > H_B(ci)) {
                        commit_idx[j + 1] = commit_idx[j]; j--;
                    }
                    commit_idx[j + 1] = ci;
                }
                for (int64_t i = 0; i < n_commit; i++) {
                    int64_t ci = commit_idx[i];
                    int64_t act_ready = H_T(ci);
                    int64_t b = H_B(ci);
                    int64_t t_pre = H_P(ci);
                    int64_t is_empty = H_E(ci);
                    int64_t row = H_R(ci);
                    if (is_empty) {
                        empties++;
                    } else {
                        misses++; pres++;
                        if (do_record) RECORD(t_pre, REC_PRE, b, -1, -1, -1);
                    }
                    int64_t bg = bg_of[b];
                    int64_t t_act = act_ready;
                    if (last_act != FAR_PAST) {
                        int64_t spacing = (bg == last_act_bg) ? trrd_l
                                                              : trrd_s;
                        int64_t t = last_act + spacing;
                        if (t > t_act) t_act = t;
                    }
                    {
                        int64_t t = faw_ring[faw_idx] + tfaw;
                        if (t > t_act) t_act = t;
                    }
                    if (quant) t_act = quantize(t_act, tck);
                    faw_ring[faw_idx] = t_act;
                    faw_idx = (faw_idx + 1) & 3;
                    last_act = t_act;
                    last_act_bg = bg;
                    acts++;
                    if (do_record) RECORD(t_act, REC_ACT, b, row, -1, -1);
                    open_row[b] = row;
                    act_time[b] = t_act;
                    cas_allowed[b] = t_act + trcd;
                    pre_allowed[b] = t_act + tras;
                    bstate[b] = 2;
                    ready_insert(ready, ready_count++, b,
                                 Q_AT(b, head[b])[0]);
                }
                /* Compact the committed entries out of the store. */
                int64_t w = 0;
                for (int64_t i = 0; i < heap_size; i++) {
                    int64_t committed = 0;
                    for (int64_t j = 0; j < n_commit; j++)
                        if (commit_idx[j] == i) { committed = 1; break; }
                    if (committed) continue;
                    if (w != i) {
                        H_T(w) = H_T(i); H_B(w) = H_B(i); H_P(w) = H_P(i);
                        H_E(w) = H_E(i); H_R(w) = H_R(i);
                    }
                    w++;
                }
                heap_size = w;
            }
        }

        /* ---- CAS arbitration: the general engine's walk over the
         * ready heads, oldest first.  `bound` is the earliest slot any
         * head could get; the first head that reaches it issues there.
         * If none does, the strictly earliest slot wins, so ties go to
         * the older head. --------------------------------------------- */
        int64_t bound = last_cas + tccd_s;
        {
            int64_t t = bus_free - latency;
            if (t > bound) bound = t;
        }
        if (quant) bound = quantize(bound, tck);
        int64_t k = 0;
        int64_t chosen_i = -1;
        int64_t best_pb = FAR_FUTURE;
        for (; k < ready_count; k++) {
            int64_t b = R_B(k);
            int64_t pb = cas_allowed[b];
            int64_t t = last_cas_bg[bg_of[b]] + tccd_l;
            if (t > pb) pb = t;
            if (pb <= bound) break;
            if (pb < best_pb) { best_pb = pb; chosen_i = k; }
        }
        int64_t t_cas;
        if (k < ready_count) {
            chosen_i = k;
            t_cas = bound;
        } else if (chosen_i >= 0) {
            t_cas = best_pb;
            if (quant) t_cas = quantize(t_cas, tck);
        } else {
            exit_reason = EXIT_DEADLOCK; break;
        }
        const int64_t chosen = R_B(chosen_i);

        /* ---- pop and timeline update ------------------------------- */
        int64_t *p = Q_AT(chosen, head[chosen]);
        int64_t p_row = p[1], p_col = p[2];
        head[chosen]++;
        queued--;
        if (adm[chosen] == head[chosen]) {
            bstate[chosen] = 0;
            ready_remove(ready, ready_count--, chosen_i);
        } else if (Q_AT(chosen, head[chosen])[1] == open_row[chosen]) {
            hits++;
            ready_advance(ready, ready_count, chosen_i,
                          Q_AT(chosen, head[chosen])[0]);
        } else {
            bstate[chosen] = 1;
            ready_remove(ready, ready_count--, chosen_i);
            fresh[fresh_count++] = chosen;
        }
        last_cas = t_cas;
        last_cas_bg[bg_of[chosen]] = t_cas;
        {
            int64_t data_end = t_cas + latency + burst;
            bus_free = data_end;
            last_data_end = data_end;
            int64_t t = is_read ? t_cas + trtp : data_end + twr;
            if (t > pre_allowed[chosen]) pre_allowed[chosen] = t;
        }
        if (do_record)
            RECORD(t_cas, REC_CAS, chosen, p_row, p_col, n_requests);
        if (want_cas_time) cas_time[n_requests] = t_cas;
        n_requests++;
    }

    sc[S_LAST_CAS] = last_cas;
    sc[S_LAST_ACT] = last_act;
    sc[S_LAST_ACT_BG] = last_act_bg;
    sc[S_FAW_IDX] = faw_idx;
    sc[S_BUS_FREE] = bus_free;
    sc[S_LAST_DATA_END] = last_data_end;
    sc[S_POS] = pos;
    sc[S_QUEUED] = queued;
    sc[S_N_REQUESTS] = n_requests;
    sc[S_HITS] = hits;
    sc[S_MISSES] = misses;
    sc[S_EMPTIES] = empties;
    sc[S_ACTS] = acts;
    sc[S_PRES] = pres;
    sc[S_RESCAN_ALL] = rescan_all;
    sc[S_READY_COUNT] = ready_count;
    sc[S_HEAP_SIZE] = heap_size;
    sc[S_FRESH_COUNT] = fresh_count;
    sc[S_REC_COUNT] = rec_count;
    sc[S_DEADLINE] = deadline;
    sc[S_REFRESHES] = refreshes;
    sc[S_REF_BANK] = ref_bank;
    return exit_reason;
}
"""

SAMPLER_CDEF = """
int64_t sample_fade_decode(uint64_t *words, int64_t *chain, int64_t count,
    int64_t frames, double p_g2b, double p_b2g, double p_bad,
    const int64_t *word_of, int64_t codeword_symbols, int64_t t,
    int64_t *scratch, int64_t *columns, int64_t *tallies);
"""

SAMPLER_SOURCE = r"""
#include <stdint.h>
#include "numpy/random/bitgen.h"

/* NumPy's own geometric sampler, linked from libnpyrandom.a.  Declared
 * here because numpy/random/distributions.h includes Python.h. */
int64_t random_geometric(bitgen_t *bitgen_state, double p);

typedef unsigned __int128 u128;

#define PCG_MULT ((((u128)0x2360ED051FC65DA4ULL) << 64) | 0x4385DF649FCCF645ULL)

/* numpy.random.PCG64: a 128-bit LCG with XSL-RR output, plus the
 * buffered upper half of a 64-bit draw that next_uint32 hands out. */
typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

static uint64_t next64(void *st) {
    pcg64_t *rng = (pcg64_t *)st;
    rng->state = rng->state * PCG_MULT + rng->inc;
    uint64_t xored = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63));
}

static uint32_t next32(void *st) {
    pcg64_t *rng = (pcg64_t *)st;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t next = next64(st);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double next_double(void *st) {
    return (double)(next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* The standard LCG jump: `delta` steps are one affine map
 * state -> mult * state + plus, composed in O(log delta). */
typedef struct { u128 mult, plus; } jump_t;

static jump_t jump_of(uint64_t delta, u128 inc) {
    jump_t acc = {1, 0};
    u128 cur_mult = PCG_MULT, cur_plus = inc;
    while (delta) {
        if (delta & 1) {
            acc.mult *= cur_mult;
            acc.plus = acc.plus * cur_mult + cur_plus;
        }
        cur_plus = (cur_mult + 1) * cur_plus;
        cur_mult *= cur_mult;
        delta >>= 1;
    }
    return acc;
}

static void skip(pcg64_t *rng, int64_t delta) {
    if (delta > 0) {
        jump_t jump = jump_of((uint64_t)delta, rng->inc);
        rng->state = jump.mult * rng->state + jump.plus;
    }
}

/* Fold one frame's per-word error counts into an arm's tallies
 * {failed words (count > t), their residual errors, largest count}
 * and clear them for the next frame. */
static void fold_words(int64_t *counts, int64_t n_words, int64_t t,
                       int64_t *tally) {
    for (int64_t w = 0; w < n_words; w++) {
        int64_t c = counts[w];
        if (!c) continue;
        if (c > t) { tally[0]++; tally[1] += c; }
        if (c > tally[2]) tally[2] = c;
        counts[w] = 0;
    }
}

/* `frames` frames of `count` symbols from the chain in *chain (1 = in a
 * fade), drawing exactly what the dense path draws: per frame the
 * geometric dwells, then one uniform per symbol -- drawn for fade
 * symbols, jumped over for the rest.  A hit at symbol s counts one
 * error in interleaved code word word_of[s] and in baseline code word
 * s / codeword_symbols, and starts or extends an error burst.  columns
 * holds three rows of `frames`: errors, bursts and longest burst per
 * frame (a frame's burst lengths sum to its errors).  After each frame
 * with hits both arms' word counts fold into tallies = {failed,
 * residual, largest} of the interleaved arm, then of the baseline arm.
 * words = {state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger}
 * and *chain are written back.  scratch holds count + 1 slots for one
 * frame's [start, end) fades, then two zeroed runs of
 * count / codeword_symbols word counts.  Returns 0, or -1 before any
 * draw when the frame is not whole code words or word_of leaves them. */
int64_t sample_fade_decode(uint64_t *words, int64_t *chain, int64_t count,
    int64_t frames, double p_g2b, double p_b2g, double p_bad,
    const int64_t *word_of, int64_t codeword_symbols, int64_t t,
    int64_t *scratch, int64_t *columns, int64_t *tallies) {
    pcg64_t rng;
    rng.state = ((u128)words[0] << 64) | words[1];
    rng.inc = ((u128)words[2] << 64) | words[3];
    rng.has_uint32 = (int)words[4];
    rng.uinteger = (uint32_t)words[5];
    bitgen_t bitgen = {&rng, next64, next32, next_double, next64};
    const int64_t n_words = count / codeword_symbols;
    if (n_words * codeword_symbols != count) return -1;
    for (int64_t s = 0; s < count; s++)
        if (word_of[s] < 0 || word_of[s] >= n_words) return -1;
    jump_t whole_frame = jump_of((uint64_t)count, rng.inc);
    int64_t *runs = scratch;
    int64_t *counts_int = scratch + count + 1;
    int64_t *counts_base = counts_int + n_words;
    int64_t *errors = columns, *bursts = columns + frames;
    int64_t *longest = columns + 2 * frames;
    int64_t state = *chain;
    for (int64_t frame = 0; frame < frames; frame++) {
        int64_t n_runs = 0;
        int64_t position = 0;
        while (position < count) {
            int64_t dwell = random_geometric(&bitgen, state ? p_b2g : p_g2b);
            int64_t left = count - position;
            if (state) {
                runs[2 * n_runs] = position;
                runs[2 * n_runs + 1] = dwell < left ? position + dwell : count;
                n_runs++;
            }
            if (dwell > left) break;  /* the dwell continues next frame */
            position += dwell;
            state = !state;
        }
        if (n_runs == 0) {
            rng.state = whole_frame.mult * rng.state + whole_frame.plus;
            errors[frame] = bursts[frame] = longest[frame] = 0;
            continue;
        }
        int64_t hits = 0, n_bursts = 0, max_length = 0;
        int64_t last = -2, length = 0;  /* last hit, its burst so far */
        int64_t drawn = 0;  /* frame symbols whose uniform is spent */
        for (int64_t r = 0; r < n_runs; r++) {
            int64_t end = runs[2 * r + 1];
            skip(&rng, runs[2 * r] - drawn);
            for (int64_t s = runs[2 * r]; s < end; s++) {
                if (next_double(&rng) < p_bad) {
                    hits++;
                    counts_int[word_of[s]]++;
                    counts_base[s / codeword_symbols]++;
                    if (s != last + 1) { n_bursts++; length = 0; }
                    if (++length > max_length) max_length = length;
                    last = s;
                }
            }
            drawn = end;
        }
        skip(&rng, count - drawn);
        if (hits) {
            fold_words(counts_int, n_words, t, tallies);
            fold_words(counts_base, n_words, t, tallies + 3);
        }
        errors[frame] = hits;
        bursts[frame] = n_bursts;
        longest[frame] = max_length;
    }
    words[0] = (uint64_t)(rng.state >> 64);
    words[1] = (uint64_t)rng.state;
    words[4] = (uint64_t)rng.has_uint32;
    words[5] = rng.uinteger;
    *chain = state;
    return 0;
}
"""

#: ``(ffi, lib)`` per entry point once loaded; ``None`` records a failed
#: attempt, which is not retried in this process.
_libraries: Dict[str, Optional[Tuple[Any, Any]]] = {}

#: What one entry point is built from: C source, cache key, and the
#: extra compiler arguments (include flags, linker inputs).
_Recipe = Tuple[str, bytes, Sequence[str]]


def _cache_path(stem: str, key: bytes) -> str:
    """Shared-object path for one entry point (per-user, per-key)."""
    digest = hashlib.sha256(key).hexdigest()[:20]
    uid = os.getuid() if hasattr(os, "getuid") else 0
    root = os.environ.get("REPRO_KERNELC_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-kernelc-{uid}")
    return os.path.join(root, f"{stem}-{digest}.so")


def _compile(so_path: str, source: str, extra: Sequence[str] = ()) -> bool:
    """Compile ``source`` to ``so_path``; ``False`` on any failure.

    ``extra`` follows the source file on the command line, so it can
    carry include flags as well as archives and libraries to link.
    """
    compiler = which("cc") or which("gcc")
    if compiler is None:
        return False
    directory = os.path.dirname(so_path)
    c_path = so_path + f".{os.getpid()}.c"
    tmp_so = so_path + f".{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(source)
        proc = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path,
             *extra],
            capture_output=True)
        if proc.returncode != 0:
            return False
        os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        return True
    except OSError:
        return False
    finally:
        for leftover in (c_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def _load(stem: str, cdef: str,
          recipe: Callable[[], Optional[_Recipe]]) -> Optional[Tuple[Any, Any]]:
    """Return ``(ffi, lib)`` for one entry point, or ``None``.

    Builds the shared object into the cache at first use.  A cache
    entry that exists but does not load (truncated, or otherwise
    corrupt) is rebuilt once and loaded again.  The result, failure
    included, is kept for the process.
    """
    if stem in _libraries:
        return _libraries[stem]
    _libraries[stem] = None
    if os.environ.get("REPRO_KERNEL_NATIVE", "1") == "0":
        return None
    try:
        import cffi
    except ImportError:  # pragma: no cover - cffi is in the toolchain
        return None
    built = recipe()
    if built is None:
        return None
    source, key, extra = built
    so_path = _cache_path(stem, key)

    def dlopen() -> Optional[Tuple[Any, Any]]:
        try:
            ffi = cffi.FFI()
            ffi.cdef(cdef)
            return ffi, ffi.dlopen(so_path)
        except (OSError, cffi.error.FFIError, cffi.error.CDefError):
            return None

    cached = os.path.exists(so_path)
    if not cached and not _compile(so_path, source, extra):
        return None
    loaded = dlopen()
    if loaded is None and cached and _compile(so_path, source, extra):
        loaded = dlopen()
    _libraries[stem] = loaded
    return loaded


def load() -> Optional[Tuple[Any, Any]]:
    """Return ``(ffi, lib)`` for the compiled segment loop, or ``None``.

    The result is cached for the process; a failed attempt is not
    retried.  Set ``REPRO_KERNEL_NATIVE=0`` to route every kernel
    phase to the general engine regardless of toolchain availability.
    """
    return _load("kernel", CDEF,
                 lambda: (SOURCE, SOURCE.encode("utf-8"), ()))


def _npyrandom_archive() -> str:
    """Path of NumPy's static random library, ``libnpyrandom.a``."""
    return os.path.join(os.path.dirname(numpy.__file__), "random", "lib",
                        "libnpyrandom.a")


def _sampler_recipe() -> Optional[_Recipe]:
    """Source, cache key and link inputs of the sampler; ``None`` without the archive.

    The key covers the NumPy version and the archive's bytes, so a NumPy
    upgrade rebuilds the sampler rather than keeping a stale
    ``random_geometric``.
    """
    archive = _npyrandom_archive()
    try:
        with open(archive, "rb") as fh:
            archive_digest = hashlib.sha256(fh.read()).digest()
    except OSError:
        return None
    key = b"\0".join((SAMPLER_SOURCE.encode("utf-8"),
                      numpy.__version__.encode("utf-8"), archive_digest))
    return SAMPLER_SOURCE, key, ("-I", numpy.get_include(), archive, "-lm")


def load_sampler() -> Optional[Tuple[Any, Any]]:
    """Return ``(ffi, lib)`` for the compiled channel sampler, or ``None``.

    ``None`` without a compiler, without NumPy's ``libnpyrandom.a``, or
    under ``REPRO_KERNEL_NATIVE=0``; the channel then samples on its
    dense path.  Independent of :func:`load`: a failed sampler build
    leaves the segment loop native.
    """
    return _load("sampler", SAMPLER_CDEF, _sampler_recipe)


def available() -> bool:
    """Whether the compiled segment loop can be used in this process.

    Also builds and loads the channel sampler, so a process that calls
    this first never compiles later; the sampler's availability does
    not enter the answer (see :func:`load_sampler`).
    """
    native = load() is not None
    load_sampler()
    return native
