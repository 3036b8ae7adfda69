//===- serve/Frame.cpp ----------------------------------------------------===//

#include "serve/Frame.h"

#include "support/Crc32c.h"
#include "support/StringUtils.h"

#include <bit>
#include <cassert>
#include <cstring>

using namespace svd;
using namespace svd::serve;

const char *serve::rejectName(Reject R) {
  switch (R) {
  case Reject::TruncatedHeader:
    return "truncated-header";
  case Reject::BadMagic:
    return "bad-magic";
  case Reject::BadVersion:
    return "bad-version";
  case Reject::BadOpcode:
    return "bad-opcode";
  case Reject::BadSession:
    return "bad-session";
  case Reject::LengthOverflow:
    return "length-overflow";
  case Reject::TruncatedPayload:
    return "truncated-payload";
  case Reject::TrailingBytes:
    return "trailing-bytes";
  case Reject::BadChecksum:
    return "bad-checksum";
  case Reject::BadPayloadShape:
    return "bad-payload-shape";
  case Reject::ProgramMismatch:
    return "program-mismatch";
  case Reject::BadEventKind:
    return "bad-event-kind";
  case Reject::BadThread:
    return "bad-thread";
  case Reject::BadPc:
    return "bad-pc";
  case Reject::BadAddress:
    return "bad-address";
  case Reject::BadMutex:
    return "bad-mutex";
  case Reject::NonMonotonicSeq:
    return "non-monotonic-seq";
  }
  return "unknown";
}

namespace {

static_assert(std::endian::native == std::endian::little,
              "frame fields are stored and loaded as native words");

uint32_t get32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof V);
  return V;
}

uint64_t get64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof V);
  return V;
}

/// CRC-32C over the first 16 header bytes and the payload. The
/// checksum field itself (header bytes 16..19) is excluded.
uint32_t frameChecksum(const uint8_t *Frame, size_t Size) {
  assert(Size >= FrameCodec::HeaderBytes);
  uint32_t Header = support::crc32c(Frame, 16);
  return support::crc32c(Frame + FrameCodec::HeaderBytes,
                         Size - FrameCodec::HeaderBytes, Header);
}

/// Writes one frame front to back through a raw cursor into a buffer
/// sized once from the payload length, one little-endian word store per
/// field, then seals it with one frameChecksum pass.
class FrameWriter {
public:
  FrameWriter(Opcode Op, uint32_t Session, uint32_t FrameSeq,
              size_t PayloadLen)
      : Bytes(FrameCodec::HeaderBytes + PayloadLen), P(Bytes.data()) {
    put8(FrameCodec::Magic0);
    put8(FrameCodec::Magic1);
    put8(FrameCodec::Version);
    put8(static_cast<uint8_t>(Op));
    put32(Session);
    put32(FrameSeq);
    put32(static_cast<uint32_t>(PayloadLen));
    P += 4; // the checksum field, filled in by seal()
  }

  void put8(uint8_t V) { *P++ = V; }
  void put32(uint32_t V) {
    std::memcpy(P, &V, sizeof V);
    P += sizeof V;
  }
  void put64(uint64_t V) {
    std::memcpy(P, &V, sizeof V);
    P += sizeof V;
  }

  /// Stores the checksum and returns the finished frame.
  std::vector<uint8_t> seal() {
    assert(P == Bytes.data() + Bytes.size() && "payload length mismatch");
    uint32_t C = frameChecksum(Bytes.data(), Bytes.size());
    std::memcpy(Bytes.data() + 16, &C, sizeof C);
    return std::move(Bytes);
  }

private:
  std::vector<uint8_t> Bytes;
  uint8_t *P;
};

constexpr size_t HelloPayloadBytes = 20;
constexpr size_t ShedPayloadBytes = 16;
constexpr size_t EndPayloadBytes = 8;

} // namespace

std::vector<uint8_t> FrameCodec::encodeHello() const {
  FrameWriter W(Opcode::Hello, Session, /*FrameSeq=*/0, HelloPayloadBytes);
  W.put32(Prog->numThreads());
  W.put32(Prog->MemoryWords);
  W.put32(static_cast<uint32_t>(Prog->Mutexes.size()));
  W.put64(Prog->numInstructions());
  return W.seal();
}

std::vector<uint8_t> FrameCodec::encodeEvents(const trace::TraceEvent *Events,
                                              size_t Count,
                                              uint32_t FrameSeq) const {
  FrameWriter W(Opcode::Events, Session, FrameSeq, Count * EventBytes);
  for (size_t I = 0; I < Count; ++I) {
    const trace::TraceEvent &E = Events[I];
    W.put64(E.Seq);
    W.put32(E.Tid);
    W.put32(E.Pc);
    W.put8(static_cast<uint8_t>(E.Kind));
    W.put32(E.Address);
    W.put32(E.MutexId);
  }
  return W.seal();
}

std::vector<uint8_t> FrameCodec::encodeShed(uint32_t FrameSeq,
                                            uint32_t SpanFrames,
                                            uint32_t Epoch,
                                            uint64_t DroppedEvents) const {
  FrameWriter W(Opcode::Shed, Session, FrameSeq, ShedPayloadBytes);
  W.put32(SpanFrames);
  W.put32(Epoch);
  W.put64(DroppedEvents);
  return W.seal();
}

std::vector<uint8_t> FrameCodec::encodeEnd(uint32_t FrameSeq,
                                           uint64_t TotalEvents) const {
  FrameWriter W(Opcode::End, Session, FrameSeq, EndPayloadBytes);
  W.put64(TotalEvents);
  return W.seal();
}

DecodeResult FrameCodec::decode(const uint8_t *Data, size_t Size,
                                uint64_t MinSeq, DecodedFrame &Out) const {
  // Header checks, cheapest first. Every field is validated before
  // anything derived from it is used.
  if (Size < HeaderBytes)
    return DecodeResult::fail(
        Reject::TruncatedHeader,
        support::formatString("%zu bytes, header needs %zu", Size,
                              HeaderBytes));
  if (Data[0] != Magic0 || Data[1] != Magic1)
    return DecodeResult::fail(
        Reject::BadMagic,
        support::formatString("magic %02x%02x", Data[0], Data[1]));
  if (Data[2] != Version)
    return DecodeResult::fail(Reject::BadVersion,
                              support::formatString("version %u", Data[2]));
  uint8_t OpByte = Data[3];
  if (OpByte < static_cast<uint8_t>(Opcode::Hello) ||
      OpByte > static_cast<uint8_t>(Opcode::End))
    return DecodeResult::fail(Reject::BadOpcode,
                              support::formatString("opcode %u", OpByte));
  Opcode Op = static_cast<Opcode>(OpByte);
  uint32_t FrameSession = get32(Data + 4);
  if (FrameSession != Session)
    return DecodeResult::fail(
        Reject::BadSession,
        support::formatString("session %u, expected %u", FrameSession,
                              Session));
  uint32_t FrameSeq = get32(Data + 8);
  uint32_t PayloadLen = get32(Data + 12);
  // The length prefix is the classic untrusted field: bound it before
  // comparing against the buffer, so an overflowing value can never
  // size an allocation or an index.
  if (PayloadLen > MaxPayloadBytes)
    return DecodeResult::fail(
        Reject::LengthOverflow,
        support::formatString("payload length %u exceeds limit %zu",
                              PayloadLen, MaxPayloadBytes));
  if (Size < HeaderBytes + PayloadLen)
    return DecodeResult::fail(
        Reject::TruncatedPayload,
        support::formatString("payload length %u, only %zu bytes follow",
                              PayloadLen, Size - HeaderBytes));
  if (Size > HeaderBytes + PayloadLen)
    return DecodeResult::fail(
        Reject::TrailingBytes,
        support::formatString("%zu bytes past declared payload",
                              Size - HeaderBytes - PayloadLen));
  uint32_t Declared = get32(Data + 16);
  uint32_t Actual = frameChecksum(Data, Size);
  if (Declared != Actual)
    return DecodeResult::fail(
        Reject::BadChecksum,
        support::formatString("checksum %08x, computed %08x", Declared,
                              Actual));
  // Every frame occupies at least its own sequence number, and the
  // resequencer computes FrameSeq + 1 (or + span): a frame at the top of
  // the 32-bit range would wrap it and replay as a duplicate or rewind
  // the stream.
  if (FrameSeq == UINT32_MAX)
    return DecodeResult::fail(
        Reject::NonMonotonicSeq,
        support::formatString("frame seq %u wraps the sequence", FrameSeq));
  const uint8_t *P = Data + HeaderBytes;

  // Refill Out in place: a consumer that decodes every frame into one
  // DecodedFrame keeps its event buffer's capacity across frames.
  Out.Op = Op;
  Out.Session = FrameSession;
  Out.FrameSeq = FrameSeq;
  Out.Events.clear();
  Out.ShedSpanFrames = 0;
  Out.ShedEpoch = 0;
  Out.ShedDroppedEvents = 0;
  Out.EndTotalEvents = 0;

  switch (Op) {
  case Opcode::Hello: {
    if (PayloadLen != HelloPayloadBytes)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("hello payload %u, expected %zu", PayloadLen,
                                HelloPayloadBytes));
    uint32_t Threads = get32(P);
    uint32_t Words = get32(P + 4);
    uint32_t Mutexes = get32(P + 8);
    uint64_t Insts = get64(P + 12);
    if (Threads != Prog->numThreads() || Words != Prog->MemoryWords ||
        Mutexes != Prog->Mutexes.size() || Insts != Prog->numInstructions())
      return DecodeResult::fail(
          Reject::ProgramMismatch,
          support::formatString(
              "fingerprint %u/%u/%u/%llu, program is %u/%u/%zu/%zu", Threads,
              Words, Mutexes, static_cast<unsigned long long>(Insts),
              Prog->numThreads(), Prog->MemoryWords, Prog->Mutexes.size(),
              Prog->numInstructions()));
    return DecodeResult::ok();
  }
  case Opcode::Events: {
    if (PayloadLen % EventBytes != 0)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("events payload %u not a multiple of %zu",
                                PayloadLen, EventBytes));
    size_t Count = PayloadLen / EventBytes;
    Out.Events.reserve(Count);
    uint64_t PrevSeq = MinSeq;
    for (size_t I = 0; I < Count; ++I, P += EventBytes) {
      trace::TraceEvent E;
      E.Seq = get64(P);
      E.Tid = get32(P + 8);
      E.Pc = get32(P + 12);
      uint8_t KindByte = P[16];
      E.Address = get32(P + 17);
      E.MutexId = get32(P + 21);

      // The frame-level mirror of trace::validate: every field an
      // analysis pass will index with, checked before Instr resolution.
      if (KindByte > static_cast<uint8_t>(trace::EventKind::ThreadEnd))
        return DecodeResult::fail(
            Reject::BadEventKind,
            support::formatString("event %zu kind %u", I, KindByte));
      E.Kind = static_cast<trace::EventKind>(KindByte);
      if (E.Seq < PrevSeq)
        return DecodeResult::fail(
            Reject::NonMonotonicSeq,
            support::formatString(
                "event %zu seq %llu after %llu", I,
                static_cast<unsigned long long>(E.Seq),
                static_cast<unsigned long long>(PrevSeq)));
      PrevSeq = E.Seq;
      if (E.Tid >= Prog->numThreads())
        return DecodeResult::fail(
            Reject::BadThread,
            support::formatString("event %zu tid %u, program has %u threads",
                                  I, E.Tid, Prog->numThreads()));
      const std::vector<isa::Instruction> &Code = Prog->Threads[E.Tid].Code;
      if (E.Pc >= Code.size())
        return DecodeResult::fail(
            Reject::BadPc,
            support::formatString("event %zu pc %u, thread %u has %zu "
                                  "instructions",
                                  I, E.Pc, E.Tid, Code.size()));
      E.Instr = &Code[E.Pc];
      if (E.isMemory() && E.Address >= Prog->MemoryWords)
        return DecodeResult::fail(
            Reject::BadAddress,
            support::formatString("event %zu address %u beyond %u words", I,
                                  E.Address, Prog->MemoryWords));
      if ((E.Kind == trace::EventKind::Lock ||
           E.Kind == trace::EventKind::Unlock) &&
          E.MutexId >= Prog->Mutexes.size())
        return DecodeResult::fail(
            Reject::BadMutex,
            support::formatString("event %zu mutex %u, program has %zu", I,
                                  E.MutexId, Prog->Mutexes.size()));
      Out.Events.push_back(E);
    }
    return DecodeResult::ok();
  }
  case Opcode::Shed: {
    if (PayloadLen != ShedPayloadBytes)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("shed payload %u, expected %zu", PayloadLen,
                                ShedPayloadBytes));
    Out.ShedSpanFrames = get32(P);
    Out.ShedEpoch = get32(P + 4);
    Out.ShedDroppedEvents = get64(P + 8);
    if (Out.ShedSpanFrames == 0)
      return DecodeResult::fail(Reject::BadPayloadShape,
                                "shed marker spans zero frames");
    if (Out.ShedSpanFrames > UINT32_MAX - FrameSeq)
      return DecodeResult::fail(
          Reject::NonMonotonicSeq,
          support::formatString("shed marker at frame %u spanning %u frames "
                                "wraps the sequence",
                                FrameSeq, Out.ShedSpanFrames));
    return DecodeResult::ok();
  }
  case Opcode::End: {
    if (PayloadLen != EndPayloadBytes)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("end payload %u, expected %zu", PayloadLen,
                                EndPayloadBytes));
    Out.EndTotalEvents = get64(P);
    return DecodeResult::ok();
  }
  }
  return DecodeResult::fail(Reject::BadOpcode, "unreachable");
}

FrameStreamer::FrameStreamer(const FrameCodec &Codec) : Codec(Codec) {
  Wire.push_back({Codec.encodeHello(), Opcode::Hello, 0, 0});
}

void FrameStreamer::record(const trace::TraceEvent &E) {
  Buf[Fill++] = E;
  if (Fill == EventsPerFrame)
    seal();
}

void FrameStreamer::seal() {
  // Hello holds wire position 0, so the next Events frame's sequence
  // number is the wire length.
  uint32_t Seq = static_cast<uint32_t>(Wire.size());
  Wire.push_back({Codec.encodeEvents(Buf.data(), Fill, Seq), Opcode::Events,
                  Seq, Fill});
  Sealed += Fill;
  Fill = 0;
}

std::vector<WireFrame> FrameStreamer::finish() {
  if (Fill != 0)
    seal();
  uint32_t Seq = static_cast<uint32_t>(Wire.size());
  Wire.push_back({Codec.encodeEnd(Seq, Sealed), Opcode::End, Seq, 0});
  return std::move(Wire);
}

template class svd::trace::TraceEventBuilder<svd::serve::FrameStreamer>;
