//===- workloads/Workloads.cpp --------------------------------------------===//

#include "workloads/Workloads.h"

#include "isa/Assembler.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace svd;
using namespace svd::workloads;
using isa::Program;
using support::formatString;

bool Workload::isTrueReport(const detect::Violation &V) const {
  auto OnBugLine = [&](isa::ThreadId Tid, uint32_t Pc) {
    return Tid < BugPcs.size() && BugPcs[Tid].count(Pc) != 0;
  };
  return OnBugLine(V.Tid, V.Pc) || OnBugLine(V.OtherTid, V.OtherPc);
}

bool Workload::isTrueLogEntry(const detect::CuLogEntry &E) const {
  auto OnBugLine = [&](isa::ThreadId Tid, uint32_t Pc) {
    return Tid < BugPcs.size() && Pc != UINT32_MAX &&
           BugPcs[Tid].count(Pc) != 0;
  };
  return OnBugLine(E.Tid, E.Pc) || OnBugLine(E.RemoteTid, E.RemotePc) ||
         OnBugLine(E.Tid, E.LocalPc);
}

void workloads::classifyReports(const Workload &W,
                                const std::vector<detect::Violation> &Reports,
                                ReportTally &Out) {
  Out.DynamicReports = Reports.size();
  // A static key's classification is stable (same code locations), so
  // one map from key to truth suffices.
  std::unordered_map<uint64_t, bool> StaticSeen;
  for (const detect::Violation &V : Reports) {
    bool True_ = W.isTrueReport(V);
    if (True_) {
      ++Out.DynamicTrue;
      Out.DetectedBug = true;
    } else {
      ++Out.DynamicFalse;
    }
    StaticSeen.emplace(V.staticKey(), True_);
  }
  Out.StaticReports = StaticSeen.size();
  for (const auto &[Key, True_] : StaticSeen) {
    if (True_) {
      ++Out.StaticTrue;
      Out.StaticTrueKeys.push_back(Key);
    } else {
      ++Out.StaticFalse;
      Out.StaticFalseKeys.push_back(Key);
    }
  }
  // Key order would otherwise leak hash-map iteration order.
  std::sort(Out.StaticTrueKeys.begin(), Out.StaticTrueKeys.end());
  std::sort(Out.StaticFalseKeys.begin(), Out.StaticFalseKeys.end());
}

namespace {

/// Collects the 1-based source lines tagged with a ";BUG" comment.
std::set<uint32_t> taggedLines(const std::string &Source) {
  std::set<uint32_t> Lines;
  uint32_t Line = 1;
  size_t Start = 0;
  while (Start <= Source.size()) {
    size_t End = Source.find('\n', Start);
    if (End == std::string::npos)
      End = Source.size();
    if (Source.substr(Start, End - Start).find(";BUG") != std::string::npos)
      Lines.insert(Line);
    Start = End + 1;
    ++Line;
  }
  return Lines;
}

/// Builds a Workload from tagged assembly source.
Workload fromSource(const std::string &Name, const std::string &Description,
                    const std::string &ErrorBehaviour,
                    const std::string &Source) {
  Workload W;
  W.Name = Name;
  W.Description = Description;
  W.ErrorBehaviour = ErrorBehaviour;
  W.Program = isa::assembleOrDie(Source);
  std::set<uint32_t> Lines = taggedLines(Source);
  W.HasKnownBug = !Lines.empty();
  W.BugPcs.resize(W.Program.numThreads());
  for (isa::ThreadId Tid = 0; Tid < W.Program.numThreads(); ++Tid)
    for (uint32_t Pc = 0; Pc < W.Program.Threads[Tid].Code.size(); ++Pc)
      if (Lines.count(W.Program.Threads[Tid].Code[Pc].Line))
        W.BugPcs[Tid].insert(Pc);
  W.Manifested = [](const vm::Machine &) { return false; };
  return W;
}

} // namespace

Workload workloads::apacheLog(const WorkloadParams &P) {
  uint32_t BufWords = P.Threads * P.Iterations * 4 + 8;
  std::string Lock1 = P.WithLock ? "  lock @loglock\n" : "";
  std::string Unlock1 = P.WithLock ? "  unlock @loglock\n" : "";
  std::string LockDecl = P.WithLock ? ".lock loglock\n" : "";
  std::string Src = formatString(R"(
.global outcnt
.global bufout %u
.global nreq
.local len
.local lensum
.local msum
.lock ctr_lock
%s.thread writer x%u
  li r10, %u
req_loop:
  rnd r14, %u             ; --- request processing (busy work) ---
  addi r14, r14, %u
parse:
  addi r14, r14, -1
  bnez r14, parse
  lock @ctr_lock          ; --- served-request counter (correct) ---
  ld r15, [@nreq]
  addi r15, r15, 1
  st r15, [@nreq]
  unlock @ctr_lock
  rnd r11, %u             ; only some requests produce a log message
  bnez r11, skip_log
  rnd r1, 4
  addi r1, r1, 1          ; message length 1..4
  st r1, [@len]
  ld r13, [@lensum]
  add r13, r13, r1
  st r13, [@lensum]       ; per-thread oracle: total bytes produced
%s  ld r1, [@len]
  ld r2, [@outcnt]        ;BUG racy read of the shared log index
  tid r3
  muli r4, r3, 1000
  li r5, 0
copy:
  slt r6, r5, r1
  beqz r6, copy_done
  add r7, r2, r5
  add r8, r4, r5
  st r8, [r7+@bufout]     ;BUG unsynchronized memcpy into the log buffer
  addi r5, r5, 1
  jmp copy
copy_done:
  add r9, r2, r1
  st r9, [@outcnt]        ;BUG racy index write-back
%sskip_log:
  addi r10, r10, -1
  bnez r10, req_loop
  halt
.thread monitor
  li r10, %u
mloop:
  rnd r14, %u
  addi r14, r14, %u
mpad:
  addi r14, r14, -1
  bnez r14, mpad
  ld r15, [@nreq]         ; unlocked scoreboard read: benign data race
  st r15, [@msum]
  addi r10, r10, -1
  bnez r10, mloop
  halt
)",
                                 BufWords, LockDecl.c_str(), P.Threads,
                                 P.Iterations, P.WorkPadding + 1,
                                 P.WorkPadding + 1, P.TouchOneIn,
                                 Lock1.c_str(), Unlock1.c_str(),
                                 P.Iterations / 8 + 2,
                                 (P.WorkPadding + 1) * 16,
                                 (P.WorkPadding + 1) * 16);
  Workload W = fromSource(
      "Apache",
      "Multithreaded web server; workers append request-log messages to "
      "a shared in-memory buffer (log_config module)",
      "Silently corrupts its access log: concurrent appends lose index "
      "updates and overlap copies",
      Src);
  if (P.WithLock) {
    // The fixed version has no bug; drop the tags' effect.
    W.HasKnownBug = false;
    for (auto &S : W.BugPcs)
      S.clear();
  }
  const Program &Prog = W.Program;
  isa::Addr OutAddr = Prog.addressOf("outcnt");
  std::vector<isa::Addr> LenSums;
  for (isa::ThreadId Tid = 0; Tid < Prog.numThreads(); ++Tid)
    LenSums.push_back(Prog.addressOf("lensum", Tid));
  W.Manifested = [OutAddr, LenSums](const vm::Machine &M) {
    isa::Word Expected = 0;
    for (isa::Addr A : LenSums)
      Expected += M.readMem(A);
    return M.readMem(OutAddr) != Expected;
  };
  return W;
}

Workload workloads::mysqlPrepared(const WorkloadParams &P) {
  std::string Src = formatString(R"(
.global query_id
.global used_fields
.global field_qid 8
.global tot_lock
.global next_qid
.global gauge_conn
.global gauge_queries
.global gauge_bytes
.local msum
.lock internal_lock
.lock meta_lock
.lock gauge_lock
.thread conn x%u
  li r10, %u
qloop:
  rnd r13, %u             ; --- query parsing / planning (busy work) ---
  addi r13, r13, %u
plan:
  addi r13, r13, -1
  bnez r13, plan
  lock @internal_lock     ; --- table locking (Figure 1 shape) ---
  ld r1, [@tot_lock]
  addi r1, r1, 1
  st r1, [@tot_lock]
  unlock @internal_lock
  lock @meta_lock         ; --- allocate a query id (correct) ---
  ld r3, [@next_qid]
  addi r3, r3, 1
  st r3, [@next_qid]
  unlock @meta_lock
  lock @gauge_lock        ; --- locked status-gauge updates (correct) ---
  ld r4, [@gauge_conn]
  addi r4, r4, 1
  st r4, [@gauge_conn]
  ld r5, [@gauge_queries]
  addi r5, r5, 2
  st r5, [@gauge_queries]
  ld r6, [@gauge_bytes]
  addi r6, r6, 7
  st r6, [@gauge_bytes]
  unlock @gauge_lock
  rnd r14, %u             ; only some queries use the prepared interface
  bnez r14, skip_prep
  st r3, [@query_id]      ;BUG query_id is mistakenly shared (Figure 3)
  st r0, [@used_fields]   ;BUG used_fields is mistakenly shared
  li r5, 0
fscan:
  slti r6, r5, 8
  beqz r6, fdone
  rnd r7, 2
  beqz r7, fskip
  ld r8, [@query_id]      ;BUG re-reads the clobberable query id
  st r8, [r5+@field_qid]
  ld r9, [@used_fields]   ;BUG
  addi r9, r9, 1
  st r9, [@used_fields]   ;BUG inflated by concurrent queries
fskip:
  addi r5, r5, 1
  jmp fscan
fdone:
  ld r11, [@used_fields]  ;BUG inconsistent loop bound (out-of-bounds)
  slti r12, r11, 9
  assert r12, "used_fields out of bounds: server crash"
skip_prep:
  lock @internal_lock     ; --- release the table lock ---
  ld r1, [@tot_lock]
  addi r1, r1, -1
  st r1, [@tot_lock]
  unlock @internal_lock
  addi r10, r10, -1
  bnez r10, qloop
  halt
.thread monitor
  li r10, %u
mloop:
  rnd r13, %u
  addi r13, r13, %u
mpad:
  addi r13, r13, -1
  bnez r13, mpad
  ld r1, [@tot_lock]      ; the Figure 1 reader: benign data race
  beqz r1, mnext          ; "is the table locked?" cannot misfire
mnext:
  ld r2, [@gauge_conn]    ; SHOW STATUS: three more benign races
  ld r3, [@gauge_queries]
  ld r4, [@gauge_bytes]
  add r5, r2, r3
  add r5, r5, r4
  st r5, [@msum]
  addi r10, r10, -1
  bnez r10, mloop
  halt
)",
                                 P.Threads, P.Iterations, P.WorkPadding + 1,
                                 P.WorkPadding + 1, P.TouchOneIn,
                                 P.Iterations / 8 + 2,
                                 (P.WorkPadding + 1) * 16,
                                 (P.WorkPadding + 1) * 16);
  Workload W = fromSource(
      "MySQL",
      "Multithreaded DBMS; connections issue prepared SELECT queries "
      "that mark the table fields each query uses",
      "Crashes non-deterministically: mistakenly shared query_id / "
      "used_fields make a field loop run out of bounds",
      Src);
  W.Manifested = [](const vm::Machine &M) { return !M.errors().empty(); };
  return W;
}

Workload workloads::pgsqlOltp(const WorkloadParams &P) {
  constexpr uint32_t Warehouses = 4;
  std::string Src;
  Src += formatString(".global stock %u\n.global price %u\n.global stats\n",
                      Warehouses, Warehouses);
  Src += ".local last_total\n.local myorders\n";
  for (uint32_t Wh = 0; Wh < Warehouses; ++Wh)
    Src += formatString(".lock wl%u\n", Wh);
  Src += ".lock stats_lock\n";
  Src += formatString(".thread conn x%u\n  li r10, %u\ntxn:\n", P.Threads,
                      P.Iterations);
  // Transaction parsing / planning busy work.
  Src += formatString("  li r13, %u\nplanx:\n  addi r13, r13, -1\n"
                      "  bnez r13, planx\n",
                      P.WorkPadding + 1);
  Src += formatString("  rnd r1, %u\n  rnd r2, 64\n", Warehouses);
  // Dispatch tree over warehouses.
  for (uint32_t Wh = 0; Wh + 1 < Warehouses; ++Wh)
    Src += formatString("  li r4, %u\n  seq r3, r1, r4\n  bnez r3, wh%u\n",
                        Wh, Wh);
  Src += formatString("  jmp wh%u\n", Warehouses - 1);
  for (uint32_t Wh = 0; Wh < Warehouses; ++Wh) {
    // New-order: decrement stock, read the price under the lock, then
    // post-process outside the critical section.
    Src += formatString(R"(wh%u:
  beqz r2, upd%u
  lock @wl%u
  ld r5, [@stock+%u]
  addi r5, r5, -1
  st r5, [@stock+%u]
  ld r6, [@price+%u]
  unlock @wl%u
  jmp post
upd%u:
  lock @wl%u
  ld r6, [@price+%u]
  addi r6, r6, 1
  st r6, [@price+%u]
  unlock @wl%u
  jmp bump
)",
                        Wh, Wh, Wh, Wh, Wh, Wh, Wh, Wh, Wh, Wh, Wh, Wh);
  }
  Src += R"(post:
  muli r7, r6, 3          ; order total, computed outside the lock
  st r7, [@last_total]    ; CU input still contains the price word
bump:
  lock @stats_lock
  ld r9, [@stats]
  addi r9, r9, 1
  st r9, [@stats]
  unlock @stats_lock
  ld r11, [@myorders]
  addi r11, r11, 1
  st r11, [@myorders]
  addi r10, r10, -1
  bnez r10, txn
  halt
)";
  Workload W = fromSource(
      "PgSQL",
      "Multiprocess DBMS under a DBT-2-style OLTP mix: per-warehouse "
      "locked stock updates plus price reads post-processed outside the "
      "critical sections",
      "No known errors with this setup (used to measure detector false "
      "positives on correct executions)",
      Src);
  // Correct workload: a conservation oracle (stats == all orders) guards
  // against substrate bugs rather than workload bugs.
  const Program &Prog = W.Program;
  isa::Addr Stats = Prog.addressOf("stats");
  std::vector<isa::Addr> MyOrders;
  for (isa::ThreadId Tid = 0; Tid < Prog.numThreads(); ++Tid)
    MyOrders.push_back(Prog.addressOf("myorders", Tid));
  W.Manifested = [Stats, MyOrders](const vm::Machine &M) {
    isa::Word Sum = 0;
    for (isa::Addr A : MyOrders)
      Sum += M.readMem(A);
    return M.readMem(Stats) != Sum;
  };
  return W;
}

Workload workloads::mysqlTableLock(const WorkloadParams &P) {
  std::string Src = formatString(R"(
.global tot_lock
.lock internal_lock
.thread locker
  li r5, %u
lloop:
  lock @internal_lock
  ld r1, [@tot_lock]
  addi r1, r1, 1
  st r1, [@tot_lock]
  unlock @internal_lock
  addi r5, r5, -1
  bnez r5, lloop
  halt
.thread reader x%u
  li r6, %u
rloop:
  ld r2, [@tot_lock]      ; the benign data race of Figure 1
  beqz r2, iszero
  li r3, 1
  jmp next
iszero:
  li r3, 0
next:
  addi r6, r6, -1
  bnez r6, rloop
  halt
)",
                                 P.Iterations, P.Threads > 1 ? P.Threads - 1 : 1,
                                 P.Iterations);
  return fromSource("MySQL-tablelock",
                    "The isolated Figure 1 fragment: a counter updated "
                    "inside a critical section, racily read outside it",
                    "None — the race is benign (the zero check cannot "
                    "misfire for locked tables)",
                    Src);
}

Workload workloads::sharedQueue(const WorkloadParams &P) {
  std::string Src = formatString(R"(
.global qhead
.global qtail
.global qdataa 16
.global qdatab 16
.global consumed
.lock qlock
.thread producer
  li r10, %u
ploop:
  rnd r1, 100             ; field_a comes from program input
  rnd r2, 100             ; field_b comes from program input
  lock @qlock
  ld r3, [@qtail]
  st r1, [r3+@qdataa]
  st r2, [r3+@qdatab]
  addi r4, r3, 1
  li r5, 16
  rem r4, r4, r5
  st r4, [@qtail]
  unlock @qlock
  addi r10, r10, -1
  bnez r10, ploop
  halt
.thread consumer
  li r10, %u
cloop:
  lock @qlock
  ld r3, [@qhead]
  ld r4, [@qtail]
  seq r5, r3, r4
  bnez r5, skipc
  ld r6, [r3+@qdataa]
  ld r7, [r3+@qdatab]
  add r8, r6, r7
  ld r9, [@consumed]
  add r9, r9, r8
  st r9, [@consumed]
  addi r3, r3, 1
  li r5, 16
  rem r3, r3, r5
  st r3, [@qhead]
skipc:
  unlock @qlock
  addi r10, r10, -1
  bnez r10, cloop
  halt
)",
                                 P.Iterations, P.Iterations * 2);
  return fromSource("SharedQueue",
                    "Figure 9's queue: an atomic region filling and "
                    "draining entries whose two fields come from "
                    "independent program inputs",
                    "None — correctly locked; exercises the "
                    "address-dependence mitigation for non-weakly-"
                    "connected atomic regions",
                    Src);
}

Workload workloads::lockedCounters(const WorkloadParams &P) {
  std::string Src = formatString(R"(
.global counter
.lock ctr_lock
.thread worker x%u
  li r10, %u
loop:
  rnd r14, %u             ; --- request processing (busy work) ---
  addi r14, r14, %u
work:
  addi r14, r14, -1
  bnez r14, work
  lock @ctr_lock          ; --- consistently locked shared counter ---
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @ctr_lock
  addi r10, r10, -1
  bnez r10, loop
  halt
)",
                                 P.Threads, P.Iterations, P.WorkPadding,
                                 P.WorkPadding);
  Workload W = fromSource(
      "LockedCounters",
      "Consistently locked shared counter under request-processing "
      "padding: every counter access sits in a statically provable "
      "two-phase-locked atomic region",
      "None — correct; the prove-and-prune pass lets detectors skip "
      "every counter access", Src);
  const Program &Prog = W.Program;
  isa::Addr Ctr = Prog.addressOf("counter");
  uint64_t Expected = uint64_t(P.Threads) * P.Iterations;
  W.Manifested = [Ctr, Expected](const vm::Machine &M) {
    return M.readMem(Ctr) != static_cast<isa::Word>(Expected);
  };
  return W;
}

Workload workloads::procCache(const WorkloadParams &P) {
  std::string Src = formatString(R"(
.global cache_val
.lock cache_lock
.thread worker x%u
  li r5, %u
wloop:
  rnd r14, %u             ; --- request processing (busy work) ---
  addi r14, r14, %u
work:
  addi r14, r14, -1
  bnez r14, work
  lock @cache_lock
  call get                ; read through the accessor proc
  addi r1, r1, 1
  call put                ; write back through its twin
  unlock @cache_lock
  addi r5, r5, -1
  bnez r5, wloop
  halt
.proc get
  ld r1, [@cache_val]
  ret
.proc put
  st r1, [@cache_val]
  ret
)",
                                 P.Threads, P.Iterations, P.WorkPadding,
                                 P.WorkPadding);
  Workload W = fromSource(
      "ProcCache",
      "Function-structured cache update: the shared value is read via a "
      "`get` proc, bumped in the caller, and written back via `put`, "
      "all inside one critical section",
      "None — correct; the cross-function read-modify-write is "
      "two-phase under cache_lock", Src);
  const Program &Prog = W.Program;
  isa::Addr Val = Prog.addressOf("cache_val");
  uint64_t Expected = uint64_t(P.Threads) * P.Iterations;
  W.Manifested = [Val, Expected](const vm::Machine &M) {
    return M.readMem(Val) != static_cast<isa::Word>(Expected);
  };
  return W;
}

Workload workloads::procGap(const WorkloadParams &P) {
  std::string Src = formatString(R"(
.global cache_val
.lock cache_lock
.thread worker x%u
  li r5, %u
wloop:
  rnd r14, %u             ; --- request processing (busy work) ---
  addi r14, r14, %u
work:
  addi r14, r14, -1
  bnez r14, work
  lock @cache_lock
  call get                ; read under the lock...
  addi r1, r1, 1
  unlock @cache_lock      ; ...but the lock is dropped here,
  call put                ; and the write-back races
  addi r5, r5, -1
  bnez r5, wloop
  halt
.proc get
  ld r1, [@cache_val]     ;BUG read half of the torn cross-function RMW
  ret
.proc put
  st r1, [@cache_val]     ;BUG write-back outside the critical section
  ret
)",
                                 P.Threads, P.Iterations, P.WorkPadding,
                                 P.WorkPadding);
  Workload W = fromSource(
      "ProcGap",
      "Buggy twin of ProcCache: the unlock happens between the `get` "
      "and `put` helper calls, so the cross-function read-modify-write "
      "is not atomic",
      "Lost update: a remote write-back lands between this thread's "
      "unlock and its `put` call, and the final count comes up short",
      Src);
  const Program &Prog = W.Program;
  isa::Addr Val = Prog.addressOf("cache_val");
  uint64_t Expected = uint64_t(P.Threads) * P.Iterations;
  W.Manifested = [Val, Expected](const vm::Machine &M) {
    return M.readMem(Val) != static_cast<isa::Word>(Expected);
  };
  return W;
}

Workload workloads::tidSlab(const WorkloadParams &P) {
  // Each thread owns the 8-word slab slab[8*tid .. 8*tid+7] of one
  // shared array — provable only by the value-flow pass's affine
  // address terms — and additionally bumps a locked checksum the
  // atomicity proof discharges.
  std::string Src = formatString(R"(
.global slab %u
.global checksum
.lock sum_lock
.thread shard x%u
  li r10, %u
  tid r1
  muli r1, r1, 8          ; slab base = 8 * tid
loop:
  rnd r14, %u             ; --- request processing (busy work) ---
  addi r14, r14, %u
work:
  addi r14, r14, -1
  bnez r14, work
  rnd r2, 8               ; offset within this thread's slab
  add r2, r2, r1
  ld r3, [r2+@slab]
  addi r3, r3, 1
  st r3, [r2+@slab]
  lock @sum_lock          ; --- locked aggregate (provably atomic) ---
  ld r4, [@checksum]
  addi r4, r4, 1
  st r4, [@checksum]
  unlock @sum_lock
  addi r10, r10, -1
  bnez r10, loop
  halt
)",
                                 P.Threads * 8, P.Threads, P.Iterations,
                                 P.WorkPadding, P.WorkPadding);
  Workload W = fromSource(
      "TidSlab",
      "Tid-strided per-thread slabs of one shared array (value-flow "
      "locality proof) plus a locked checksum (atomicity proof)",
      "None — correct; exercises both static pruning proofs at once",
      Src);
  const Program &Prog = W.Program;
  isa::Addr Slab = Prog.addressOf("slab");
  isa::Addr Sum = Prog.addressOf("checksum");
  uint32_t SlabWords = P.Threads * 8;
  uint64_t Expected = uint64_t(P.Threads) * P.Iterations;
  W.Manifested = [Slab, Sum, SlabWords, Expected](const vm::Machine &M) {
    if (M.readMem(Sum) != static_cast<isa::Word>(Expected))
      return true;
    uint64_t Total = 0;
    for (uint32_t K = 0; K < SlabWords; ++K)
      Total += M.readMem(Slab + K);
    return Total != Expected;
  };
  return W;
}

Workload workloads::sparseSlabSweep(uint32_t Threads, uint32_t SlabWords) {
  // Each thread sweeps its private slab once; the loop counter doubles
  // as the stored value so stores carry no load-derived tags (each
  // iteration forms and retires its own CU, keeping budgeted detectors
  // at O(1) live state while the address footprint grows unbounded).
  std::string Src = formatString(R"(
.global heap %u
.thread sweep x%u
  tid r1
  muli r2, r1, %u         ; slab base = SlabWords * tid
  li r3, %u               ; words left in this thread's slab
loop:
  st r3, [r2+@heap]
  ld r4, [r2+@heap]
  addi r2, r2, 1
  addi r3, r3, -1
  bnez r3, loop
  halt
)",
                                 Threads * SlabWords, Threads, SlabWords,
                                 SlabWords);
  Workload W = fromSource(
      "SparseSlabSweep",
      formatString("%u threads x %u-word private slabs (%u distinct "
                   "addresses, touched once each)",
                   Threads, SlabWords, Threads * SlabWords),
      "None — correct; stresses shadow-table footprint, not detection",
      Src);
  const Program &Prog = W.Program;
  isa::Addr Heap = Prog.addressOf("heap");
  W.Manifested = [Heap, Threads, SlabWords](const vm::Machine &M) {
    // Spot-check each slab's first and last word: word K of a slab
    // holds SlabWords - K (the counter at store time).
    for (uint32_t T = 0; T < Threads; ++T) {
      isa::Addr Base = Heap + T * SlabWords;
      if (M.readMem(Base) != static_cast<isa::Word>(SlabWords))
        return true;
      if (M.readMem(Base + SlabWords - 1) != 1)
        return true;
    }
    return false;
  };
  return W;
}

Workload workloads::stridedScatter(uint32_t Threads, uint32_t Touches,
                                   uint32_t Stride) {
  // Same private-region shape as sparseSlabSweep but spaced Stride
  // words apart: few touches per shadow page, so pages materialize
  // nearly one-per-touch (the bytes-per-address worst case).
  uint32_t RegionWords = Touches * Stride;
  std::string Src = formatString(R"(
.global heap %u
.thread scatter x%u
  tid r1
  muli r2, r1, %u         ; region base = Touches * Stride * tid
  li r3, %u               ; touches left
loop:
  st r3, [r2+@heap]
  ld r4, [r2+@heap]
  addi r2, r2, %u         ; stride to the next touched word
  addi r3, r3, -1
  bnez r3, loop
  halt
)",
                                 Threads * RegionWords, Threads, RegionWords,
                                 Touches, Stride);
  Workload W = fromSource(
      "StridedScatter",
      formatString("%u threads x %u touches at stride %u (%u distinct "
                   "addresses across %u words)",
                   Threads, Touches, Stride, Threads * Touches,
                   Threads * RegionWords),
      "None — correct; worst-case shadow-page dilution",
      Src);
  const Program &Prog = W.Program;
  isa::Addr Heap = Prog.addressOf("heap");
  W.Manifested = [Heap, Threads, Touches, Stride,
                  RegionWords](const vm::Machine &M) {
    for (uint32_t T = 0; T < Threads; ++T) {
      isa::Addr Base = Heap + T * RegionWords;
      if (M.readMem(Base) != static_cast<isa::Word>(Touches))
        return true;
      if (M.readMem(Base + static_cast<isa::Addr>(Touches - 1) * Stride) != 1)
        return true;
    }
    return false;
  };
  return W;
}

Workload workloads::randomWorkload(const RandomParams &P) {
  support::Xoshiro256 Rng(P.Seed);
  std::string Src;
  for (uint32_t V = 0; V < P.SharedVars; ++V)
    Src += formatString(".global g%u\n.lock m%u\n", V, V);

  // Expected final counter values (for the lost-update oracle).
  std::vector<uint64_t> Expected(P.SharedVars, 0);

  for (uint32_t T = 0; T < P.Threads; ++T) {
    Src += formatString(".thread worker%u\n", T);
    for (uint32_t I = 0; I < P.Iterations; ++I) {
      uint32_t V = static_cast<uint32_t>(Rng.nextBelow(P.SharedVars));
      if (Rng.nextBool(P.BenignReadProbability)) {
        Src += formatString("  ld r3, [@g%u]\n", V); // unlocked read
        continue;
      }
      bool Omit = Rng.nextBool(P.OmitLockProbability);
      ++Expected[V];
      if (!Omit)
        Src += formatString("  lock @m%u\n", V);
      Src += formatString("  ld r1, [@g%u]%s\n", V,
                          Omit ? "      ;BUG unlocked RMW" : "");
      Src += "  addi r1, r1, 1\n";
      Src += formatString("  st r1, [@g%u]%s\n", V,
                          Omit ? "      ;BUG unlocked RMW" : "");
      if (!Omit)
        Src += formatString("  unlock @m%u\n", V);
    }
    Src += "  halt\n";
  }

  Workload W = fromSource(
      formatString("Random-%llu",
                   static_cast<unsigned long long>(P.Seed)),
      "Generated lock-based counter workload",
      P.OmitLockProbability > 0 ? "Lost counter updates when unlocked "
                                  "read-modify-writes interleave"
                                : "None",
      Src);
  const Program &Prog = W.Program;
  std::vector<std::pair<isa::Addr, uint64_t>> Checks;
  for (uint32_t V = 0; V < P.SharedVars; ++V)
    Checks.emplace_back(Prog.addressOf(formatString("g%u", V)),
                        Expected[V]);
  W.Manifested = [Checks](const vm::Machine &M) {
    for (const auto &[A, E] : Checks)
      if (M.readMem(A) != static_cast<isa::Word>(E))
        return true;
    return false;
  };
  return W;
}

std::vector<Workload>
workloads::table1Workloads(const WorkloadParams &P) {
  return {apacheLog(P), mysqlPrepared(P), pgsqlOltp(P)};
}
