//===- trace/Trace.cpp ----------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace svd;
using namespace svd::trace;

void ProgramTrace::reset(const isa::Program &P) {
  Prog = &P;
  Events.clear();
  SharedBuilt = false;
}

void ProgramTrace::append(const TraceEvent &E) {
  assert((Events.empty() || Events.back().Seq <= E.Seq) &&
         "events must arrive in execution order");
  assert(E.Tid < numThreads() && "thread id out of range");
  appendUnchecked(E);
}

void ProgramTrace::append(std::span<const TraceEvent> Es) {
#ifndef NDEBUG
  uint64_t Prev = Events.empty() ? 0 : Events.back().Seq;
  for (const TraceEvent &E : Es) {
    assert(Prev <= E.Seq && "events must arrive in execution order");
    assert(E.Tid < numThreads() && "thread id out of range");
    Prev = E.Seq;
  }
#endif
  SharedBuilt = false;
  Events.insert(Events.end(), Es.begin(), Es.end());
}

void ProgramTrace::appendUnchecked(const TraceEvent &E) {
  SharedBuilt = false;
  Events.push_back(E);
}

void ProgramTrace::buildSharedInfo() const {
  SharedCount.assign(Prog->MemoryWords, 0);
  LastThread.assign(Prog->MemoryWords, -1);
  for (const TraceEvent &E : Events) {
    if (!E.isMemory())
      continue;
    int32_t T = static_cast<int32_t>(E.Tid);
    if (LastThread[E.Address] == T)
      continue;
    if (LastThread[E.Address] == -1) {
      LastThread[E.Address] = T;
      SharedCount[E.Address] = 1;
    } else if (SharedCount[E.Address] == 1) {
      SharedCount[E.Address] = 2;
    }
  }
  SharedBuilt = true;
}

unsigned ProgramTrace::threadsAccessing(isa::Addr A) const {
  if (!SharedBuilt)
    buildSharedInfo();
  if (A >= SharedCount.size())
    return 0;
  return SharedCount[A];
}

bool trace::validate(const ProgramTrace &T, std::string &Error) {
  const isa::Program &P = T.program();
  uint64_t PrevSeq = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    const TraceEvent &E = T[I];
    if (E.Tid >= T.numThreads()) {
      Error = support::formatString(
          "event %zu: thread id %u out of range (%u threads)", I, E.Tid,
          T.numThreads());
      return false;
    }
    if (I != 0 && E.Seq < PrevSeq) {
      Error = support::formatString(
          "event %zu: sequence %llu breaks execution order (previous "
          "%llu)",
          I, static_cast<unsigned long long>(E.Seq),
          static_cast<unsigned long long>(PrevSeq));
      return false;
    }
    PrevSeq = E.Seq;
    if (!E.Instr) {
      Error = support::formatString("event %zu: null instruction", I);
      return false;
    }
    if (E.isMemory() && E.Address >= P.MemoryWords) {
      Error = support::formatString(
          "event %zu: address %u out of range (%u memory words)", I,
          E.Address, P.MemoryWords);
      return false;
    }
    if ((E.Kind == EventKind::Lock || E.Kind == EventKind::Unlock) &&
        E.MutexId >= P.Mutexes.size()) {
      Error = support::formatString(
          "event %zu: mutex id %u out of range (%zu mutexes)", I,
          E.MutexId, P.Mutexes.size());
      return false;
    }
  }
  Error.clear();
  return true;
}

void TraceRecorder::record(const TraceEvent &E) {
  if (MaxEvents != 0 && Trace.size() >= MaxEvents) {
    ++Dropped;
    return;
  }
  Trace.append(E);
}

template class svd::trace::TraceEventBuilder<svd::trace::TraceRecorder>;
