//===- perfbench/bench/Ledger.cpp - Shared runs and the per-layer ledger -===//
//
// The per-layer ledger runs a fixed set of samples through every layer
// one at a time: the bare VM, a no-op observer (fan-out), OnlineSvd,
// the trace recorder, the frame codec and ring, the d-PDG, the Fig. 5
// CU partition, the Fig. 6 scan, and whole runServe calls. Every timing
// is the best of Reps alternated runs: a layer cost is a difference of
// two such timings, and the minimum is the estimate least disturbed by
// other work on the host, while alternation keeps the order in which
// runs happen from showing up as a layer cost.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cu/CuPartition.h"
#include "harness/Harness.h"
#include "pdg/Pdg.h"
#include "serve/Frame.h"
#include "serve/Ring.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"
#include "support/StringUtils.h"
#include "trace/Trace.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

using namespace perfbench;
using support::formatString;

namespace {

/// Repetitions of every timed ledger measurement (best reported).
constexpr int Reps = 5;

/// Counts the distinct words a run touches (the shadow bytes/addr
/// denominator).
class AddressCounter : public vm::ExecutionObserver {
public:
  explicit AddressCounter(uint32_t Words) : Seen(Words, 0) {}
  void onLoad(const vm::EventCtx &, isa::Addr A, isa::Word) override {
    touch(A);
  }
  void onStore(const vm::EventCtx &, isa::Addr A, isa::Word) override {
    touch(A);
  }
  uint64_t distinct() const { return Distinct; }

private:
  void touch(isa::Addr A) {
    if (A < Seen.size() && !Seen[A]) {
      Seen[A] = 1;
      ++Distinct;
    }
  }
  std::vector<uint8_t> Seen;
  uint64_t Distinct = 0;
};

enum class Mode { Bare, Noop, Svd, Record };

const char *modeSpan(Mode M, bool Translated) {
  switch (M) {
  case Mode::Bare:
    return Translated ? "vm.bare.translated" : "vm.bare";
  case Mode::Noop:
    return Translated ? "vm.noop.translated" : "vm.noop";
  case Mode::Svd:
    return Translated ? "svd.online.translated" : "svd.online";
  case Mode::Record:
    return "trace.record";
  }
  return "";
}

const char *modeLayer(Mode M) {
  switch (M) {
  case Mode::Bare:
  case Mode::Noop:
    return "vm";
  case Mode::Svd:
    return "svd";
  case Mode::Record:
    return "trace";
  }
  return "";
}

/// Outputs of one sample's ledger runs.
struct SampleLedger {
  CheckedRun Checked;
  std::optional<trace::ProgramTrace> Trace;
  /// First interpreter/translated divergence seen (empty = none).
  std::string Mismatch;
};

/// Runs \p S once under mode \p M; Svd runs fill \p Checked, Record runs
/// keep the trace in \p L.
double runMode(const Sample &S, Mode M, bool Translated, SampleLedger &L) {
  if (M == Mode::Svd) {
    CheckedRun R = runChecked(S, Translated);
    if (!Translated)
      L.Checked = R;
    else if (L.Mismatch.empty())
      L.Mismatch = compareRuns(S, L.Checked, R);
    return R.Seconds;
  }
  const isa::Program &Prog = S.P->W->Program;
  vm::Machine Mach(Prog, machineFor(S, Translated ? S.P->Hinted.get()
                                                  : nullptr));
  vm::ExecutionObserver Noop;
  std::optional<trace::TraceRecorder> Rec;
  if (M == Mode::Noop)
    Mach.addObserver(&Noop);
  if (M == Mode::Record) {
    Rec.emplace(Prog);
    Mach.addObserver(&*Rec);
  }
  double Sec = timed([&] { Mach.run(); });
  if (Rec)
    L.Trace.emplace(Rec->takeTrace());
  return Sec;
}

double best(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

/// Best wall time of \p F over Reps runs, each inside a span.
template <typename Fn>
double bestOf(Spans &S, const char *Name, const char *Layer,
              const std::string &Id, Fn &&F) {
  std::vector<double> T;
  for (int K = 0; K < Reps; ++K) {
    Spans::Scope Sc(S, Name, Layer, Id);
    T.push_back(timed(F));
  }
  return best(T);
}

/// Offline-pipeline layer totals over the ledger's samples.
struct OfflineTotals {
  uint64_t Events = 0, WireBytes = 0, Frames = 0, Arcs = 0, Units = 0,
           Violations = 0;
  double Record = 0, Encode = 0, Ring = 0, Decode = 0, Pdg = 0, Cu = 0,
         Scan = 0;
};

/// Encode, ring, decode, d-PDG, CU partition and scan over one trace.
void offlineLayers(const Sample &Smp, const trace::ProgramTrace &T,
                   uint32_t SessionId, Spans &S, Result &Out,
                   OfflineTotals &Tot) {
  const serve::FrameCodec Codec(T.program(), SessionId);
  const size_t Per = serve::ServeConfig().EventsPerFrame;
  std::vector<std::vector<uint8_t>> Frames;
  Tot.Encode += bestOf(S, "serve.encode", "serve", Smp.Id, [&] {
    Frames.clear();
    Frames.push_back(Codec.encodeHello());
    uint32_t Seq = 1;
    for (size_t I = 0; I < T.size(); I += Per, ++Seq)
      Frames.push_back(Codec.encodeEvents(&T.events()[I],
                                          std::min(Per, T.size() - I), Seq));
    Frames.push_back(Codec.encodeEnd(Seq, T.size()));
  });
  for (const std::vector<uint8_t> &F : Frames)
    Tot.WireBytes += F.size();
  Tot.Frames += Frames.size();

  serve::SpscRing<std::vector<uint8_t>> Ring(serve::ServeConfig().RingCapacity);
  Tot.Ring += bestOf(S, "serve.ring", "serve", Smp.Id, [&] {
    for (std::vector<uint8_t> &F : Frames) {
      std::vector<uint8_t> Out;
      Ring.tryPush(std::move(F));
      Ring.tryPop(Out);
      F = std::move(Out);
    }
  });

  uint64_t Decoded = 0;
  Tot.Decode += bestOf(S, "serve.decode", "serve", Smp.Id, [&] {
    Decoded = 0;
    uint64_t MinSeq = 0;
    serve::DecodedFrame D;
    for (const std::vector<uint8_t> &F : Frames) {
      if (!Codec.decode(F, MinSeq, D).Ok)
        break;
      Decoded += D.Events.size();
      if (!D.Events.empty())
        MinSeq = D.Events.back().Seq;
    }
  });
  Out.check(Decoded == T.size()
                ? ""
                : formatString("%s: decoded %llu of %zu events",
                               Smp.Id.c_str(),
                               static_cast<unsigned long long>(Decoded),
                               T.size()));

  std::optional<pdg::DynamicPdg> G;
  Tot.Pdg += bestOf(S, "pdg.build", "pdg", Smp.Id,
                      [&] { G.emplace(pdg::DynamicPdg::build(T)); });
  std::optional<cu::CuPartition> CUs;
  Tot.Cu += bestOf(S, "cu.partition", "cu", Smp.Id,
                     [&] { CUs.emplace(cu::CuPartition::compute(T, *G)); });
  size_t Violations = 0;
  Tot.Scan += bestOf(S, "svd.offline_scan", "svd", Smp.Id, [&] {
    Violations = detect::detectOffline(T, *CUs).size();
  });
  Tot.Events += T.size();
  Tot.Arcs += G->arcs().size();
  Tot.Units += CUs->units().size();
  Tot.Violations += Violations;
}

double perEvent(double Seconds, uint64_t Events) {
  return Events == 0 ? 0.0 : Seconds * 1e9 / static_cast<double>(Events);
}

} // namespace

PrepareTimes perfbench::prepare(Program &P, bool WithPlain, Spans &S) {
  PrepareTimes T;
  const isa::Program &Prog = P.W->Program;
  const std::string &Id = P.W->Name;
  {
    Spans::Scope Sc(S, "analysis.access_table", "analysis", Id);
    T.AccessTable = timed([&] { P.Table = analysis::buildAccessTable(Prog); });
  }
  {
    Spans::Scope Sc(S, "analysis.proofs", "analysis", Id);
    T.Proofs = timed([&] { P.Proofs = analysis::proveAtomicCus(Prog); });
  }
  {
    Spans::Scope Sc(S, "vm.transcache_build", "vm", Id);
    T.TransCache = timed([&] {
      // The static classifications folded into the micro-op hint bytes,
      // exactly as the `svd-bench --perf --translate` path builds them.
      P.Hinted = std::make_unique<vm::TransCache>(
          Prog, [&P](isa::ThreadId Tid, uint32_t Pc) {
            uint8_t H = vm::HintClassified;
            if (P.Table.classify(Tid, Pc) ==
                analysis::AccessClass::ThreadLocal)
              H |= vm::HintFilteredLocal;
            if (P.Proofs.provenAt(Tid, Pc))
              H |= vm::HintProvenCu;
            return H;
          });
    });
  }
  if (WithPlain) {
    Spans::Scope Sc(S, "vm.transcache_build.plain", "vm", Id);
    P.Plain = std::make_unique<vm::TransCache>(Prog);
  }
  return T;
}

vm::MachineConfig perfbench::machineFor(const Sample &S,
                                        const vm::TransCache *Cache) {
  harness::SampleConfig C;
  C.Seed = S.Seed;
  C.MaxTimeslice = S.P->MaxTimeslice;
  vm::MachineConfig MC = harness::machineConfigFor(C);
  MC.Translate = Cache != nullptr;
  MC.Cache = Cache;
  return MC;
}

CheckedRun perfbench::runChecked(const Sample &S, bool Translated) {
  const Program &P = *S.P;
  detect::OnlineSvdConfig C;
  C.Access = &P.Table;
  C.Proofs = &P.Proofs;
  C.TrustStaticHints = Translated;
  vm::Machine M(P.W->Program, machineFor(S, Translated ? P.Hinted.get()
                                                       : nullptr));
  detect::OnlineSvd Svd(P.W->Program, C);
  M.addObserver(&Svd);
  CheckedRun R;
  R.Seconds = timed([&] { M.run(); });
  R.Steps = M.steps();
  R.Events = Svd.eventsObserved();
  R.Filtered = Svd.filteredAccesses();
  R.Pruned = Svd.prunedAccesses();
  R.CusFormed = Svd.numCusFormed();
  R.Violations = Svd.violations().size();
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const detect::Violation &V : Svd.violations())
    for (uint64_t X : {V.Seq, V.staticKey()})
      H = (H ^ X) * 0x100000001b3ULL;
  R.ViolationDigest = H;
  R.CuLog = Svd.cuLog().size();
  R.ShadowPages = Svd.shadowPages();
  R.ShadowBytes = Svd.shadowBytes();
  return R;
}

std::string perfbench::compareRuns(const Sample &S, const CheckedRun &I,
                                      const CheckedRun &X) {
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  struct Field {
    const char *Name;
    uint64_t A, B;
  } Fields[] = {{"steps", I.Steps, X.Steps},
                {"events", I.Events, X.Events},
                {"violations", I.Violations, X.Violations},
                {"violation digest", I.ViolationDigest, X.ViolationDigest},
                {"cus formed", I.CusFormed, X.CusFormed},
                {"filtered events", I.Filtered, X.Filtered},
                {"pruned events", I.Pruned, X.Pruned}};
  for (const Field &F : Fields)
    if (F.A != F.B)
      return formatString("%s: runs diverged on %s (%llu vs %llu)",
                          S.Id.c_str(), F.Name, U(F.A), U(F.B));
  return "";
}

std::vector<serve::SessionInput>
perfbench::sessionsFor(const std::vector<Sample> &Samples, bool Translated) {
  std::vector<serve::SessionInput> Sessions;
  for (size_t I = 0; I < Samples.size(); ++I) {
    serve::SessionInput In;
    In.SessionId = static_cast<uint32_t>(I);
    In.Work = Samples[I].P->W;
    In.Seed = Samples[I].Seed;
    In.Machine = machineFor(Samples[I],
                            Translated ? Samples[I].P->Plain.get() : nullptr);
    Sessions.push_back(In);
  }
  return Sessions;
}

serve::ServeConfig perfbench::serveConfig(uint32_t Shards) {
  serve::ServeConfig C;
  C.Shards = Shards;
  C.Jobs = Shards;
  return C;
}

void perfbench::checkSessions(const serve::ServeReport &R,
                              const std::vector<std::string> &Twins,
                              Result &Out) {
  for (size_t I = 0; I < R.Sessions.size(); ++I) {
    const serve::SessionReport &S = R.Sessions[I];
    std::string Why;
    if (S.Outcome != serve::SessionOutcome::Ok)
      Why = formatString("session %u (%s seed %llu) ended %s: %s", S.SessionId,
                         S.Workload.c_str(),
                         static_cast<unsigned long long>(S.Seed),
                         serve::sessionOutcomeName(S.Outcome),
                         S.Diagnostic.c_str());
    else if (I >= Twins.size() || S.detectionSignature() != Twins[I])
      Why = formatString("session %u (%s seed %llu): detection signature "
                         "differs from batchSessionReport",
                         S.SessionId, S.Workload.c_str(),
                         static_cast<unsigned long long>(S.Seed));
    Out.check(Why);
  }
}

std::vector<std::string>
perfbench::batchTwins(const std::vector<serve::SessionInput> &Sessions,
                      unsigned Jobs) {
  std::vector<std::string> Twins(Sessions.size());
  const serve::ServeConfig Cfg = serveConfig(1);
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Sessions.size();) {
      serve::SessionInput In = Sessions[I];
      In.Machine.Translate = false;
      In.Machine.Cache = nullptr;
      Twins[I] = serve::batchSessionReport(In, Cfg).detectionSignature();
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned J = 1; J < Jobs; ++J)
    Threads.emplace_back(Worker);
  Worker();
  for (std::thread &T : Threads)
    T.join();
  return Twins;
}

void perfbench::runLedger(const std::vector<Program> &Programs,
                          const std::vector<Sample> &Samples,
                          double ColdCallMs, Spans &S, Result &Out) {
  // Static layers: fresh analysis and cache builds.
  std::vector<double> AccessT, ProofT, CacheT;
  for (int K = 0; K < Reps; ++K) {
    PrepareTimes Sum;
    for (const Program &P : Programs) {
      Program Scratch;
      Scratch.W = P.W;
      PrepareTimes T = prepare(Scratch, /*WithPlain=*/false, S);
      Sum.AccessTable += T.AccessTable;
      Sum.Proofs += T.Proofs;
      Sum.TransCache += T.TransCache;
    }
    AccessT.push_back(Sum.AccessTable);
    ProofT.push_back(Sum.Proofs);
    CacheT.push_back(Sum.TransCache);
  }
  uint64_t ProvenCus = 0;
  for (const Program &P : Programs)
    ProvenCus += P.Proofs.proven().size();

  // VM, fan-out, detector and recorder runs, alternated per sample: one
  // warm-up pass, then Reps passes each rotating the mode order so no
  // mode always runs first. The recorder runs on the interpreter only,
  // as the serve producer does.
  const Mode Modes[] = {Mode::Bare, Mode::Noop, Mode::Svd, Mode::Record};
  double Bare[2] = {}, Noop[2] = {}, Svd[2] = {};
  uint64_t Steps = 0, Events = 0, Distinct = 0;
  CheckedRun Sum;
  OfflineTotals Off;
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &Smp = Samples[I];
    Spans::Scope SampleSpan(S, "ledger.sample", "bench", Smp.Id);
    SampleLedger L;
    std::vector<double> T[2][4];
    for (int K = -1; K < Reps; ++K)
      for (size_t J = 0; J < 4; ++J) {
        Mode M = Modes[(J + std::max(K, 0)) % 4];
        for (bool X : {false, true}) {
          if (X && M == Mode::Record)
            continue;
          Spans::Scope Sc(S, modeSpan(M, X), modeLayer(M), Smp.Id);
          double Sec = runMode(Smp, M, X, L);
          if (K >= 0)
            T[X][static_cast<int>(M)].push_back(Sec);
        }
      }
    for (int X = 0; X < 2; ++X) {
      Bare[X] += best(T[X][static_cast<int>(Mode::Bare)]);
      Noop[X] += best(T[X][static_cast<int>(Mode::Noop)]);
      Svd[X] += best(T[X][static_cast<int>(Mode::Svd)]);
    }
    Off.Record += best(T[0][static_cast<int>(Mode::Record)]);
    Out.check(L.Mismatch);
    Steps += L.Checked.Steps;
    Events += L.Checked.Events;
    Sum.Filtered += L.Checked.Filtered;
    Sum.Pruned += L.Checked.Pruned;
    Sum.CusFormed += L.Checked.CusFormed;
    Sum.Violations += L.Checked.Violations;
    Sum.CuLog += L.Checked.CuLog;
    Sum.ShadowPages += L.Checked.ShadowPages;
    Sum.ShadowBytes += L.Checked.ShadowBytes;
    {
      vm::Machine M(Smp.P->W->Program, machineFor(Smp, nullptr));
      AddressCounter C(Smp.P->W->Program.MemoryWords);
      M.addObserver(&C);
      M.run();
      Distinct += C.distinct();
    }
    offlineLayers(Smp, *L.Trace, static_cast<uint32_t>(I), S, Out, Off);
  }

  // Whole daemon calls over the same samples, one shard against two,
  // alternated.
  std::vector<serve::SessionInput> Sessions = sessionsFor(Samples, false);
  std::vector<std::string> Twins = batchTwins(Sessions, 1);
  std::vector<double> Shard1, Shard2;
  uint64_t Frames = 0;
  for (int K = 0; K < Reps; ++K)
    for (uint32_t Shards : K % 2 ? std::vector<uint32_t>{2, 1}
                                 : std::vector<uint32_t>{1, 2}) {
      Spans::Scope Sc(S, Shards == 1 ? "serve.run_1shard" : "serve.run_2shard",
                      "serve", formatString("%zu sessions", Sessions.size()));
      serve::ServeReport R;
      double Sec =
          timed([&] { R = serve::runServe(Sessions, serveConfig(Shards)); });
      (Shards == 1 ? Shard1 : Shard2).push_back(Sec);
      checkSessions(R, Twins, Out);
      Frames = 0;
      for (const serve::SessionReport &SR : R.Sessions)
        Frames += SR.FramesDelivered;
    }
  double Stages = Off.Record + Off.Encode + Off.Ring + Off.Decode + Off.Pdg +
                  Off.Cu + Off.Scan;

  Out.metric("vm.bare_insts_per_sec", Steps / Bare[0], "insts/s");
  Out.metric("vm.bare_insts_per_sec_translated", Steps / Bare[1], "insts/s");
  Out.metric("vm.fanout_ns_per_event", perEvent(Noop[0] - Bare[0], Events),
             "ns");
  Out.metric("vm.transcache_build_ms", best(CacheT) * 1e3, "ms");
  Out.metric("svd.online_ns_per_event", perEvent(Svd[0] - Noop[0], Events),
             "ns");
  Out.metric("svd.online_ns_per_event_translated",
             perEvent(Svd[1] - Noop[1], Events), "ns");
  Out.metric("svd.events", static_cast<double>(Events), "count");
  Out.metric("svd.filtered_events", static_cast<double>(Sum.Filtered), "count");
  Out.metric("svd.pruned_events", static_cast<double>(Sum.Pruned), "count");
  Out.metric("svd.cus_formed", static_cast<double>(Sum.CusFormed), "count");
  Out.metric("svd.violations", static_cast<double>(Sum.Violations), "count");
  Out.metric("svd.culog_entries", static_cast<double>(Sum.CuLog), "count");
  Out.metric("shadow.pages", static_cast<double>(Sum.ShadowPages), "count");
  Out.metric("shadow.bytes", static_cast<double>(Sum.ShadowBytes), "bytes");
  Out.metric("shadow.bytes_per_addr",
             Distinct == 0 ? 0.0
                           : static_cast<double>(Sum.ShadowBytes) /
                                 static_cast<double>(Distinct),
             "bytes");
  Out.metric("analysis.access_table_ms", best(AccessT) * 1e3, "ms");
  Out.metric("analysis.proofs_ms", best(ProofT) * 1e3, "ms");
  Out.metric("analysis.proven_cus", static_cast<double>(ProvenCus), "count");
  Out.metric("trace.record_ns_per_event",
             perEvent(Off.Record - Bare[0], Off.Events), "ns");
  Out.metric("serve.encode_ns_per_event", perEvent(Off.Encode, Off.Events),
             "ns");
  Out.metric("serve.decode_ns_per_event", perEvent(Off.Decode, Off.Events),
             "ns");
  Out.metric("serve.ring_ns_per_frame", perEvent(Off.Ring, Off.Frames), "ns");
  Out.metric("serve.wire_bytes_per_event",
             Off.Events == 0 ? 0.0
                             : static_cast<double>(Off.WireBytes) /
                                   static_cast<double>(Off.Events),
             "bytes");
  Out.metric("serve.frames", static_cast<double>(Frames), "count");
  Out.metric("serve.other_ms", (best(Shard1) - Stages) * 1e3, "ms");
  Out.metric("serve.shard_speedup", best(Shard1) / best(Shard2), "x");
  Out.metric("serve.cold_call_ms", ColdCallMs, "ms");
  Out.metric("pdg.build_ns_per_event", perEvent(Off.Pdg, Off.Events), "ns");
  Out.metric("pdg.arcs", static_cast<double>(Off.Arcs), "count");
  Out.metric("cu.partition_ns_per_event", perEvent(Off.Cu, Off.Events), "ns");
  Out.metric("cu.units", static_cast<double>(Off.Units), "count");
  Out.metric("svd.offline_scan_ns_per_event", perEvent(Off.Scan, Off.Events),
             "ns");
  Out.metric("svd.offline_violations", static_cast<double>(Off.Violations),
             "count");
}
