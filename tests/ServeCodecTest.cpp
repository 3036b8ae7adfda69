//===- tests/ServeCodecTest.cpp - Negative-path tests for FrameCodec ------===//
//
// The serve ingestion gate (serve/Frame.h) treats every frame as
// untrusted input: a malformed frame must produce exactly one
// classified Reject — never an exception, never out-of-bounds
// indexing, never a partial decode. This suite pins the encoders'
// exact bytes against a byte-wise reference, walks every Reject
// reason with a hand-built or mangled frame, then fuzzes the decoder
// with the fault layer's wire mutators to pin the never-throws
// contract. The last section pins the producer: FrameStreamer's wire
// equals the codec's encoding of a recorded trace of the same run.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fault/Fault.h"
#include "harness/Suites.h"
#include "serve/Frame.h"
#include "serve/Serve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>

using namespace svd;
using namespace svd::serve;
using isa::assembleOrDie;
using testutil::recordRun;

namespace {

/// The shared-counter workload every frame in this suite carries: one
/// global, one mutex, two threads — enough to exercise every event
/// kind and every field validation.
isa::Program testProgram() {
  return assembleOrDie(R"(
.global g
.lock m
.thread t x2
  li r1, 1
  lock @m
  ld r2, [@g]
  add r2, r2, r1
  st r2, [@g]
  unlock @m
  beqz r0, end
end:
  halt
)");
}

/// A structurally different program (thread count, code size, memory
/// extent all differ) for fingerprint-mismatch tests.
isa::Program otherProgram() {
  return assembleOrDie(R"(
.global a
.global b
.thread t x3
  ld r1, [@a]
  st r1, [@b]
  halt
)");
}

/// Test-side twin of the wire checksum: CRC-32C over header bytes
/// 0..15 then the payload, computed bit by bit from the polynomial
/// (no table, no library call) so it stays independent of the codec's
/// implementation. Header-mutation tests use it to re-seal a frame and
/// reach the post-checksum validation stages.
uint32_t wireChecksum(const std::vector<uint8_t> &B) {
  uint32_t C = 0xFFFFFFFFu;
  auto Fold = [&C](uint8_t Byte) {
    C ^= Byte;
    for (int I = 0; I < 8; ++I)
      C = (C & 1) ? (C >> 1) ^ 0x82F63B78u : C >> 1;
  };
  for (size_t I = 0; I < 16 && I < B.size(); ++I)
    Fold(B[I]);
  for (size_t I = FrameCodec::HeaderBytes; I < B.size(); ++I)
    Fold(B[I]);
  return ~C;
}

void reseal(std::vector<uint8_t> &B) {
  ASSERT_GE(B.size(), FrameCodec::HeaderBytes);
  uint32_t C = wireChecksum(B);
  B[16] = static_cast<uint8_t>(C);
  B[17] = static_cast<uint8_t>(C >> 8);
  B[18] = static_cast<uint8_t>(C >> 16);
  B[19] = static_cast<uint8_t>(C >> 24);
}

void put32At(std::vector<uint8_t> &B, size_t Off, uint32_t V) {
  B[Off] = static_cast<uint8_t>(V);
  B[Off + 1] = static_cast<uint8_t>(V >> 8);
  B[Off + 2] = static_cast<uint8_t>(V >> 16);
  B[Off + 3] = static_cast<uint8_t>(V >> 24);
}

/// Appends \p V little-endian in \p Bytes bytes, one byte at a time.
void putLE(std::vector<uint8_t> &B, uint64_t V, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Test-side byte-wise twin of the frame encoder, written from the
/// layout in serve/Frame.h: header, \p Payload, then the checksum.
std::vector<uint8_t> referenceFrame(Opcode Op, uint32_t Session,
                                    uint32_t FrameSeq,
                                    const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> B;
  putLE(B, 'S', 1);
  putLE(B, 'V', 1);
  putLE(B, FrameCodec::Version, 1);
  putLE(B, static_cast<uint8_t>(Op), 1);
  putLE(B, Session, 4);
  putLE(B, FrameSeq, 4);
  putLE(B, Payload.size(), 4);
  putLE(B, 0, 4);
  B.insert(B.end(), Payload.begin(), Payload.end());
  reseal(B);
  return B;
}

/// The 25-byte wire records of \p Events, field by field.
std::vector<uint8_t>
referenceEventPayload(const std::vector<trace::TraceEvent> &Events) {
  std::vector<uint8_t> B;
  for (const trace::TraceEvent &E : Events) {
    putLE(B, E.Seq, 8);
    putLE(B, E.Tid, 4);
    putLE(B, E.Pc, 4);
    putLE(B, static_cast<uint8_t>(E.Kind), 1);
    putLE(B, E.Address, 4);
    putLE(B, E.MutexId, 4);
  }
  return B;
}

/// Expects \p Got == \p Want, naming the first differing byte.
void expectSameBytes(const std::vector<uint8_t> &Got,
                     const std::vector<uint8_t> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  auto [G, W] = std::mismatch(Got.begin(), Got.end(), Want.begin());
  EXPECT_TRUE(G == Got.end())
      << "first difference at byte " << (G - Got.begin()) << ": got "
      << static_cast<unsigned>(*G) << ", want " << static_cast<unsigned>(*W);
}

/// Decodes and asserts the classified reject \p Want with a non-empty
/// diagnostic. The decode itself must not throw (EXPECT_NO_THROW would
/// swallow the result, so the call is made directly — an escape would
/// fail the whole test binary, which is the point).
void expectReject(const FrameCodec &C, const std::vector<uint8_t> &Bytes,
                  Reject Want, uint64_t MinSeq = 0) {
  DecodedFrame Out;
  DecodeResult R = C.decode(Bytes, MinSeq, Out);
  EXPECT_FALSE(R.Ok) << "expected " << rejectName(Want);
  EXPECT_EQ(R.Why, Want) << "got " << rejectName(R.Why) << ": " << R.Detail;
  EXPECT_FALSE(R.Detail.empty()) << rejectName(Want);
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips: well-formed frames of every opcode decode back exactly.
//===----------------------------------------------------------------------===//

TEST(ServeCodec, HelloRoundTrip) {
  isa::Program P = testProgram();
  FrameCodec C(P, 42);
  DecodedFrame Out;
  DecodeResult R = C.decode(C.encodeHello(), 0, Out);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_EQ(Out.Op, Opcode::Hello);
  EXPECT_EQ(Out.Session, 42u);
  EXPECT_EQ(Out.FrameSeq, 0u);
  EXPECT_TRUE(Out.Events.empty());
}

TEST(ServeCodec, EventsRoundTripPreservesEveryField) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P, 5);
  ASSERT_GT(T.size(), 8u);
  FrameCodec C(P, 7);

  std::vector<trace::TraceEvent> In;
  for (size_t I = 0; I < T.size(); ++I)
    In.push_back(T[I]);
  std::vector<uint8_t> Bytes = C.encodeEvents(In.data(), In.size(), 3);
  EXPECT_EQ(Bytes.size(),
            FrameCodec::HeaderBytes + In.size() * FrameCodec::EventBytes);

  DecodedFrame Out;
  DecodeResult R = C.decode(Bytes, In.front().Seq, Out);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_EQ(Out.Op, Opcode::Events);
  EXPECT_EQ(Out.FrameSeq, 3u);
  ASSERT_EQ(Out.Events.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    const trace::TraceEvent &A = In[I];
    const trace::TraceEvent &B = Out.Events[I];
    EXPECT_EQ(A.Seq, B.Seq) << I;
    EXPECT_EQ(A.Tid, B.Tid) << I;
    EXPECT_EQ(A.Pc, B.Pc) << I;
    EXPECT_EQ(A.Kind, B.Kind) << I;
    EXPECT_EQ(A.Address, B.Address) << I;
    EXPECT_EQ(A.MutexId, B.MutexId) << I;
    // The decoder re-resolves the Instr pointer against its own
    // program — decoded events are safe to hand to any analysis pass.
    EXPECT_EQ(B.Instr, &P.Threads[A.Tid].Code[A.Pc]) << I;
  }
}

TEST(ServeCodec, ShedAndEndRoundTrip) {
  isa::Program P = testProgram();
  FrameCodec C(P, 9);
  DecodedFrame Out;

  DecodeResult R = C.decode(C.encodeShed(11, 4, 2, 1000), 0, Out);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_EQ(Out.Op, Opcode::Shed);
  EXPECT_EQ(Out.FrameSeq, 11u);
  EXPECT_EQ(Out.ShedSpanFrames, 4u);
  EXPECT_EQ(Out.ShedEpoch, 2u);
  EXPECT_EQ(Out.ShedDroppedEvents, 1000u);

  R = C.decode(C.encodeEnd(12, 123456789ull), 0, Out);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_EQ(Out.Op, Opcode::End);
  EXPECT_EQ(Out.EndTotalEvents, 123456789ull);
}

TEST(ServeCodec, EncodeEventsMatchesByteReference) {
  // The encoder does not validate, so every field can take its extreme
  // value: Seq up to UINT64_MAX and all-ones Tid/Pc/Address/MutexId.
  isa::Program P = testProgram();
  FrameCodec C(P, UINT32_MAX);
  for (size_t Count : {size_t(0), size_t(1), FrameCodec::MaxEventsPerFrame}) {
    std::vector<trace::TraceEvent> In(Count);
    for (size_t I = 0; I < Count; ++I) {
      trace::TraceEvent &E = In[I];
      uint32_t Lo = static_cast<uint32_t>(I);
      E.Seq = UINT64_MAX - (Count - 1 - I);
      E.Tid = UINT32_MAX - Lo % 3;
      E.Pc = UINT32_MAX - Lo;
      E.Kind = static_cast<trace::EventKind>(
          I % (static_cast<size_t>(trace::EventKind::ThreadEnd) + 1));
      E.Address = UINT32_MAX ^ Lo;
      E.MutexId = UINT32_MAX >> (I % 32);
    }
    SCOPED_TRACE(Count);
    expectSameBytes(C.encodeEvents(In.data(), Count, UINT32_MAX - 1),
                    referenceFrame(Opcode::Events, UINT32_MAX,
                                   UINT32_MAX - 1,
                                   referenceEventPayload(In)));
  }
}

TEST(ServeCodec, EncodeControlFramesMatchByteReference) {
  isa::Program P = testProgram();
  FrameCodec C(P, 0x01020304);
  std::vector<uint8_t> Hello;
  putLE(Hello, P.numThreads(), 4);
  putLE(Hello, P.MemoryWords, 4);
  putLE(Hello, P.Mutexes.size(), 4);
  putLE(Hello, P.numInstructions(), 8);
  expectSameBytes(C.encodeHello(),
                  referenceFrame(Opcode::Hello, 0x01020304, 0, Hello));

  std::vector<uint8_t> Shed;
  putLE(Shed, UINT32_MAX, 4);
  putLE(Shed, 7, 4);
  putLE(Shed, UINT64_MAX - 5, 8);
  expectSameBytes(C.encodeShed(9, UINT32_MAX, 7, UINT64_MAX - 5),
                  referenceFrame(Opcode::Shed, 0x01020304, 9, Shed));

  std::vector<uint8_t> End;
  putLE(End, UINT64_MAX, 8);
  expectSameBytes(C.encodeEnd(UINT32_MAX, UINT64_MAX),
                  referenceFrame(Opcode::End, 0x01020304, UINT32_MAX, End));
}

TEST(ServeCodec, DecodeIsDeterministic) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P, 5);
  FrameCodec C(P, 7);
  std::vector<trace::TraceEvent> In;
  for (size_t I = 0; I < 4; ++I)
    In.push_back(T[I]);
  std::vector<uint8_t> Bytes = C.encodeEvents(In.data(), In.size(), 1);
  Bytes[25] ^= 0x40; // any flip: both decodes must classify identically

  DecodedFrame O1, O2;
  DecodeResult R1 = C.decode(Bytes, 0, O1);
  DecodeResult R2 = C.decode(Bytes, 0, O2);
  EXPECT_EQ(R1.Ok, R2.Ok);
  EXPECT_EQ(R1.Why, R2.Why);
  EXPECT_EQ(R1.Detail, R2.Detail);
}

//===----------------------------------------------------------------------===//
// One classified reject per reason. Header-level rejects fire before
// the checksum, so plain byte mutation reaches them; post-checksum
// rejects are reached by encoding crafted-invalid inputs (the encoder
// does not validate) or by re-sealing a mutated frame.
//===----------------------------------------------------------------------===//

TEST(ServeCodec, RejectNamesAreStableKebabCase) {
  for (size_t I = 0; I < RejectCount; ++I) {
    const char *N = rejectName(static_cast<Reject>(I));
    ASSERT_NE(N, nullptr);
    EXPECT_GT(std::strlen(N), 0u);
    EXPECT_STRNE(N, "unknown") << I;
    for (const char *P = N; *P; ++P)
      EXPECT_TRUE((std::islower(static_cast<unsigned char>(*P)) != 0) ||
                  *P == '-')
          << N;
  }
  EXPECT_STREQ(rejectName(Reject::TruncatedHeader), "truncated-header");
  EXPECT_STREQ(rejectName(Reject::BadChecksum), "bad-checksum");
  EXPECT_STREQ(rejectName(Reject::NonMonotonicSeq), "non-monotonic-seq");
}

TEST(ServeCodec, RejectsTruncatedHeader) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);
  std::vector<uint8_t> Full = C.encodeEnd(0, 0);
  // Every proper prefix of the header — including the empty buffer —
  // is a mid-header EOF.
  for (size_t Keep = 0; Keep < FrameCodec::HeaderBytes; ++Keep) {
    std::vector<uint8_t> Cut(Full.begin(), Full.begin() + Keep);
    expectReject(C, Cut, Reject::TruncatedHeader);
  }
}

TEST(ServeCodec, RejectsBadMagic) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);
  std::vector<uint8_t> B = C.encodeEnd(0, 0);
  B[0] = 'X';
  expectReject(C, B, Reject::BadMagic);
  B[0] = FrameCodec::Magic0;
  B[1] = '?';
  expectReject(C, B, Reject::BadMagic);
}

TEST(ServeCodec, RejectsBadVersion) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);
  std::vector<uint8_t> B = C.encodeEnd(0, 0);
  B[2] = FrameCodec::Version + 1;
  expectReject(C, B, Reject::BadVersion);
  // A version 1 frame is turned away on its version byte even when its
  // checksum verifies: the version check precedes the checksum.
  B[2] = 1;
  reseal(B);
  expectReject(C, B, Reject::BadVersion);
  // So is a version 2 frame, whose 38-byte event records carried load
  // and store values and branch outcomes: one wire version is decoded.
  B[2] = 2;
  reseal(B);
  expectReject(C, B, Reject::BadVersion);
}

TEST(ServeCodec, RejectsBadOpcode) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);
  std::vector<uint8_t> B = C.encodeEnd(0, 0);
  B[3] = 0; // below Hello
  expectReject(C, B, Reject::BadOpcode);
  B[3] = 5; // past End
  expectReject(C, B, Reject::BadOpcode);
  B[3] = 0xff;
  expectReject(C, B, Reject::BadOpcode);
}

TEST(ServeCodec, RejectsUnknownSession) {
  isa::Program P = testProgram();
  FrameCodec Mine(P, 3);
  FrameCodec Theirs(P, 7);
  // A frame from session 7 arriving at session 3's gate: classified,
  // not cross-wired into the wrong detector state.
  expectReject(Mine, Theirs.encodeEnd(0, 0), Reject::BadSession);
}

TEST(ServeCodec, RejectsOverflowingLengthPrefix) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);
  std::vector<uint8_t> B = C.encodeEnd(0, 0);
  // The classic hostile length prefix: far larger than any buffer the
  // gate would ever allocate. Rejected on the prefix alone — before
  // the buffer comparison, before the checksum, before any allocation.
  put32At(B, 12, 0xffffffffu);
  expectReject(C, B, Reject::LengthOverflow);
  put32At(B, 12, static_cast<uint32_t>(FrameCodec::MaxPayloadBytes) + 1);
  expectReject(C, B, Reject::LengthOverflow);
}

TEST(ServeCodec, RejectsMidFramePayloadEof) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P);
  FrameCodec C(P, 1);
  std::vector<trace::TraceEvent> In;
  for (size_t I = 0; I < 3; ++I)
    In.push_back(T[I]);
  std::vector<uint8_t> Full = C.encodeEvents(In.data(), In.size(), 0);
  // Cut anywhere inside the payload: header parses, payload_len says
  // more bytes than follow.
  for (size_t Keep : {FrameCodec::HeaderBytes, FrameCodec::HeaderBytes + 1,
                      Full.size() - FrameCodec::EventBytes, Full.size() - 1}) {
    std::vector<uint8_t> Cut(Full.begin(), Full.begin() + Keep);
    expectReject(C, Cut, Reject::TruncatedPayload);
  }
}

TEST(ServeCodec, RejectsTrailingBytes) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);
  std::vector<uint8_t> B = C.encodeShed(0, 1, 0, 10);
  B.push_back(0xee);
  expectReject(C, B, Reject::TrailingBytes);
}

TEST(ServeCodec, RejectsAnySingleBitFlip) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P);
  FrameCodec C(P, 1);
  std::vector<trace::TraceEvent> In;
  for (size_t I = 0; I < 2; ++I)
    In.push_back(T[I]);
  const std::vector<uint8_t> Orig = C.encodeEvents(In.data(), In.size(), 0);

  // Flip one bit at every byte position past the already-tested
  // magic/version/opcode prefix. Fields no validation pass would
  // otherwise look at (FrameSeq, a memory event's mutex field) still
  // downgrade to a classified reject — that is what the checksum buys.
  for (size_t Pos = 4; Pos < Orig.size(); ++Pos) {
    std::vector<uint8_t> B = Orig;
    B[Pos] ^= 0x10;
    DecodedFrame Out;
    DecodeResult R = C.decode(B, 0, Out);
    EXPECT_FALSE(R.Ok) << "flip at byte " << Pos << " went undetected";
    EXPECT_FALSE(R.Detail.empty());
  }

  // And a flip in a load's mutex field, which no validator reads,
  // specifically classifies as BadChecksum.
  auto Load = std::find_if(T.events().begin(), T.events().end(),
                           [](const trace::TraceEvent &E) {
                             return E.Kind == trace::EventKind::Load;
                           });
  ASSERT_NE(Load, T.events().end());
  std::vector<uint8_t> B = C.encodeEvents(&*Load, 1, 0);
  B[FrameCodec::HeaderBytes + 21] ^= 0x01; // the load's mutex field
  expectReject(C, B, Reject::BadChecksum);
  // Resealed, the same flip decodes: only the checksum catches it.
  reseal(B);
  DecodedFrame Out;
  EXPECT_TRUE(C.decode(B, 0, Out).Ok);
}

TEST(ServeCodec, EveryOneAndTwoBitErrorIsRejected) {
  // CRC-32C has Hamming distance of at least 3 for every message up to
  // 2^31 bits, so every single-bit and every two-bit error in a frame —
  // checksum field included — is detected. Sweep them all over a Hello
  // frame and a two-event Events frame: each mutant must classify as
  // some reject, never decode Ok.
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P);
  FrameCodec C(P, 1);
  trace::TraceEvent Two[2] = {T[0], T[1]};
  const std::vector<std::vector<uint8_t>> Frames = {
      C.encodeHello(), C.encodeEvents(Two, 2, 0)};

  for (const std::vector<uint8_t> &Orig : Frames) {
    const size_t Bits = Orig.size() * 8;
    std::vector<uint8_t> B = Orig;
    size_t Accepted = 0;
    std::string FirstAccepted;
    auto Flip = [&B](size_t Bit) { B[Bit / 8] ^= uint8_t(1u << (Bit % 8)); };
    auto Check = [&](size_t I, size_t J) {
      DecodedFrame Out;
      DecodeResult R = C.decode(B, 0, Out);
      if (R.Ok || R.Detail.empty() ||
          static_cast<size_t>(R.Why) >= RejectCount) {
        if (Accepted++ == 0)
          FirstAccepted = "bits " + std::to_string(I) + "," + std::to_string(J);
      }
    };
    for (size_t I = 0; I < Bits; ++I) {
      Flip(I);
      Check(I, I);
      for (size_t J = I + 1; J < Bits; ++J) {
        Flip(J);
        Check(I, J);
        Flip(J);
      }
      Flip(I);
    }
    ASSERT_EQ(B, Orig);
    EXPECT_EQ(Accepted, 0u) << "first unclassified mutant: " << FirstAccepted
                            << " of a " << Orig.size() << "-byte frame";
  }
}

TEST(ServeCodec, RejectsBadPayloadShape) {
  isa::Program P = testProgram();
  FrameCodec C(P, 1);

  // A shed marker spanning zero frames is shape-invalid even though
  // the bytes are well-formed.
  expectReject(C, C.encodeShed(0, /*SpanFrames=*/0, 0, 5),
               Reject::BadPayloadShape);

  // An events payload that is not a whole number of records: extend a
  // sealed empty events frame by one declared byte and re-seal so the
  // shape check (post-checksum) is the stage that fires.
  std::vector<uint8_t> B = C.encodeEvents(nullptr, 0, 0);
  B.push_back(0);
  put32At(B, 12, 1);
  reseal(B);
  expectReject(C, B, Reject::BadPayloadShape);

  // A hello payload of the wrong size, same technique.
  std::vector<uint8_t> H = C.encodeHello();
  H.pop_back();
  put32At(H, 12, static_cast<uint32_t>(H.size() - FrameCodec::HeaderBytes));
  reseal(H);
  expectReject(C, H, Reject::BadPayloadShape);
}

TEST(ServeCodec, RejectsProgramFingerprintMismatch) {
  isa::Program Mine = testProgram();
  isa::Program Theirs = otherProgram();
  FrameCodec Gate(Mine, 1);
  FrameCodec Client(Theirs, 1);
  // A client streaming a different build of the program: the Hello
  // fingerprint (threads/words/mutexes/instructions) gives it away
  // before a single event frame is accepted.
  expectReject(Gate, Client.encodeHello(), Reject::ProgramMismatch);
}

TEST(ServeCodec, RejectsInvalidEventFields) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P);
  FrameCodec C(P, 1);
  trace::TraceEvent Good = T[0];

  // Each crafted event goes through the real encoder, so the checksum
  // is valid and the per-field validation stage is what rejects it.
  auto Encoded = [&C](trace::TraceEvent E) {
    return C.encodeEvents(&E, 1, 0);
  };

  trace::TraceEvent E = Good;
  E.Kind = static_cast<trace::EventKind>(200);
  expectReject(C, Encoded(E), Reject::BadEventKind);

  E = Good;
  E.Tid = P.numThreads() + 5;
  expectReject(C, Encoded(E), Reject::BadThread);

  E = Good;
  E.Pc = static_cast<uint32_t>(P.Threads[Good.Tid].Code.size()) + 100;
  expectReject(C, Encoded(E), Reject::BadPc);

  E = Good;
  E.Kind = trace::EventKind::Store;
  E.Address = P.MemoryWords + 17;
  expectReject(C, Encoded(E), Reject::BadAddress);

  // A non-memory event's Address field is not indexed, so it is not
  // range-checked — only Load/Store reach shadow memory.
  E.Kind = trace::EventKind::Alu;
  {
    DecodedFrame Out;
    EXPECT_TRUE(C.decode(Encoded(E), 0, Out).Ok);
  }

  E = Good;
  E.Kind = trace::EventKind::Lock;
  E.MutexId = static_cast<uint32_t>(P.Mutexes.size()) + 2;
  expectReject(C, Encoded(E), Reject::BadMutex);
}

TEST(ServeCodec, RejectsNonMonotonicSeq) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P);
  FrameCodec C(P, 1);

  // Within one frame: a later record with an earlier Seq.
  trace::TraceEvent Two[2] = {T[0], T[1]};
  Two[0].Seq = 10;
  Two[1].Seq = 5;
  expectReject(C, C.encodeEvents(Two, 2, 0), Reject::NonMonotonicSeq);

  // Across frames: the first record precedes the session's MinSeq
  // watermark (a replayed or rewound stream).
  trace::TraceEvent One = T[0];
  One.Seq = 4;
  expectReject(C, C.encodeEvents(&One, 1, 0), Reject::NonMonotonicSeq,
               /*MinSeq=*/5);
  DecodedFrame Out;
  EXPECT_TRUE(C.decode(C.encodeEvents(&One, 1, 0), /*MinSeq=*/4, Out).Ok);
}

TEST(ServeCodec, RejectsFrameSequenceOverflow) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P);
  FrameCodec C(P, 1);

  // Sealed frames whose sequence range would wrap 32 bits: the
  // resequencer would book them as duplicates or rewind the stream.
  expectReject(C, C.encodeShed(0xFFFFFFF0u, 0x20, 0, 5),
               Reject::NonMonotonicSeq);
  expectReject(C, C.encodeShed(0xFFFFFFF0u, 0x10, 0, 5),
               Reject::NonMonotonicSeq);
  expectReject(C, C.encodeEvents(&T[0], 1, 0xFFFFFFFFu),
               Reject::NonMonotonicSeq);
  expectReject(C, C.encodeEnd(0xFFFFFFFFu, 1), Reject::NonMonotonicSeq);

  // The last frames that still fit below the top of the range decode.
  DecodedFrame Out;
  EXPECT_TRUE(C.decode(C.encodeShed(0xFFFFFFF0u, 0x0F, 0, 5), 0, Out).Ok);
  EXPECT_TRUE(C.decode(C.encodeEvents(&T[0], 1, 0xFFFFFFFEu), 0, Out).Ok);
  EXPECT_TRUE(C.decode(C.encodeEnd(0xFFFFFFFEu, 1), 0, Out).Ok);
}

//===----------------------------------------------------------------------===//
// Fuzz: the fault layer's wire mutators against every opcode. Whatever
// they produce, decode classifies — it never throws and a detected
// mutation never decodes Ok.
//===----------------------------------------------------------------------===//

TEST(ServeCodec, MangledFramesAlwaysClassifyNeverThrow) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P, 3);
  FrameCodec C(P, 6);
  std::vector<trace::TraceEvent> In;
  for (size_t I = 0; I < 5 && I < T.size(); ++I)
    In.push_back(T[I]);

  const std::vector<std::vector<uint8_t>> Frames = {
      C.encodeHello(),
      C.encodeEvents(In.data(), In.size(), 1),
      C.encodeShed(2, 3, 0, 99),
      C.encodeEnd(3, T.size()),
  };

  fault::FaultPlanConfig Cfg;
  Cfg.PlanSeed = 0x5e41;
  Cfg.FrameCorruptRatePerMyriad = 10000;
  fault::FaultPlan Plan(Cfg, /*SampleSeed=*/17);

  for (const std::vector<uint8_t> &Orig : Frames) {
    for (uint64_t Pos = 0; Pos < 64; ++Pos) {
      std::vector<uint8_t> B = Orig;
      Plan.mangleFrameBytes(B, Pos);
      ASSERT_EQ(B.size(), Orig.size());
      ASSERT_NE(B, Orig) << "mangle must change at least one byte";
      DecodedFrame Out;
      DecodeResult R = C.decode(B, 0, Out);
      // Any flip lands in the checksum's coverage or in the checksum
      // field itself, so a mangled frame can never decode Ok.
      EXPECT_FALSE(R.Ok) << "pos " << Pos;
      EXPECT_LT(static_cast<size_t>(R.Why), RejectCount);
      EXPECT_FALSE(R.Detail.empty());
    }
  }
}

TEST(ServeCodec, TruncatedDeliveriesAlwaysClassifyNeverThrow) {
  isa::Program P = testProgram();
  trace::ProgramTrace T = recordRun(P, 3);
  FrameCodec C(P, 6);
  std::vector<trace::TraceEvent> In;
  for (size_t I = 0; I < 5 && I < T.size(); ++I)
    In.push_back(T[I]);
  const std::vector<uint8_t> Orig = C.encodeEvents(In.data(), In.size(), 1);

  fault::FaultPlanConfig Cfg;
  Cfg.PlanSeed = 0x5e42;
  Cfg.FrameTruncateRatePerMyriad = 10000;
  fault::FaultPlan Plan(Cfg, /*SampleSeed=*/17);

  for (uint64_t Pos = 0; Pos < 64; ++Pos) {
    size_t Keep = Plan.truncatedFrameSize(Orig.size(), Pos);
    ASSERT_LT(Keep, Orig.size());
    std::vector<uint8_t> Cut(Orig.begin(), Orig.begin() + Keep);
    DecodedFrame Out;
    DecodeResult R = C.decode(Cut, 0, Out);
    EXPECT_FALSE(R.Ok) << "kept " << Keep;
    // A cut is a mid-header or mid-payload EOF, nothing else.
    EXPECT_TRUE(R.Why == Reject::TruncatedHeader ||
                R.Why == Reject::TruncatedPayload)
        << rejectName(R.Why);
    EXPECT_FALSE(R.Detail.empty());
  }
}

//===----------------------------------------------------------------------===//
// The producer: frames encoded while the VM runs equal the encoding of
// the recorded trace.
//===----------------------------------------------------------------------===//

namespace {

/// The wire the serve path built before it streamed: Hello, the recorded
/// trace in EventsPerFrame slices, then End carrying the total.
std::vector<WireFrame> recordedWire(const FrameCodec &C,
                                    const trace::ProgramTrace &T) {
  std::vector<WireFrame> Wire;
  Wire.push_back({C.encodeHello(), Opcode::Hello, 0, 0});
  const size_t Per = FrameStreamer::EventsPerFrame;
  uint32_t Seq = 1;
  for (size_t I = 0; I < T.size(); I += Per, ++Seq) {
    size_t N = std::min(Per, T.size() - I);
    Wire.push_back(
        {C.encodeEvents(&T.events()[I], N, Seq), Opcode::Events, Seq, N});
  }
  Wire.push_back({C.encodeEnd(Seq, T.size()), Opcode::End, Seq, 0});
  return Wire;
}

/// Runs \p P once with a TraceRecorder and a FrameStreamer attached to
/// the same machine and expects the streamed wire to equal the recorded
/// encoding frame for frame and byte for byte. Returns the event count.
size_t expectStreamedEqualsRecorded(const isa::Program &P,
                                    const vm::MachineConfig &MC,
                                    uint32_t SessionId) {
  const FrameCodec C(P, SessionId);
  trace::TraceRecorder Rec(P);
  FrameStreamer Streamer(C);
  vm::Machine M(P, MC);
  M.addObserver(&Rec);
  M.addObserver(&Streamer);
  M.run();
  const trace::ProgramTrace &T = Rec.trace();
  EXPECT_EQ(Streamer.events(), T.size());
  std::vector<WireFrame> Got = Streamer.finish();
  std::vector<WireFrame> Want = recordedWire(C, T);
  const size_t Per = FrameStreamer::EventsPerFrame;
  EXPECT_EQ(Got.size(), 2 + (T.size() + Per - 1) / Per);
  EXPECT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < std::min(Got.size(), Want.size()); ++I) {
    SCOPED_TRACE("wire position " + std::to_string(I));
    EXPECT_EQ(Got[I].Op, Want[I].Op);
    EXPECT_EQ(Got[I].FrameSeq, Want[I].FrameSeq);
    EXPECT_EQ(Got[I].EventCount, Want[I].EventCount);
    expectSameBytes(Got[I].Bytes, Want[I].Bytes);
  }
  return T.size();
}

/// One thread of \p Alu register-only instructions then halt: Alu + 1
/// events (the halt is a ThreadEnd event).
isa::Program straightLine(size_t Alu) {
  std::string Src = ".thread t\n";
  for (size_t I = 0; I < Alu; ++I)
    Src += "  li r1, " + std::to_string(I) + "\n";
  Src += "  halt\n";
  return assembleOrDie(Src);
}

} // namespace

TEST(ServeCodec, StreamedWireEqualsRecordedEncoding) {
  std::vector<workloads::Workload> Ws = harness::suiteWorkloads("serve");
  ASSERT_FALSE(Ws.empty());
  std::vector<SessionInput> Sessions = harness::serveSessions(Ws, 3);
  ASSERT_EQ(Sessions.size(), Ws.size() * 3);
  for (const SessionInput &S : Sessions) {
    SCOPED_TRACE(S.Work->Name + " seed " + std::to_string(S.Seed));
    EXPECT_GT(expectStreamedEqualsRecorded(S.Work->Program, S.Machine,
                                           S.SessionId),
              size_t{FrameStreamer::EventsPerFrame});
  }
}

TEST(ServeCodec, StreamedWireSealsPartialAndExactFrames) {
  // Fewer events than one frame: one partial Events frame.
  EXPECT_EQ(expectStreamedEqualsRecorded(straightLine(9), {}, 3), 10u);
  // An exact multiple of the frame size: two full frames and no empty
  // trailing Events frame before End.
  const size_t Two = 2 * FrameStreamer::EventsPerFrame;
  EXPECT_EQ(expectStreamedEqualsRecorded(straightLine(Two - 1), {}, 4), Two);
  // A streamer that observed no events closes with Hello and End only.
  isa::Program P = straightLine(0);
  FrameStreamer Streamer{FrameCodec(P, 5)};
  std::vector<WireFrame> Empty = Streamer.finish();
  ASSERT_EQ(Empty.size(), 2u);
  EXPECT_EQ(Empty[1].Op, Opcode::End);
  EXPECT_EQ(Empty[1].FrameSeq, 1u);
}

TEST(ServeCodec, ProducerCrashMidStreamFailsSessionWithNoFrames) {
  std::vector<workloads::Workload> Ws = harness::suiteWorkloads("serve");
  std::vector<SessionInput> Sessions = harness::serveSessions(Ws, 1);
  // A VM crash well past the first sealed frame: the streamer holds
  // Hello plus at least one Events frame when the producer dies.
  fault::FaultPlanConfig Crash;
  Crash.Name = "producer-crash";
  Crash.PlanSeed = 0xc4a5;
  Crash.CrashAtStep = 3 * FrameStreamer::EventsPerFrame;
  ServeConfig Cfg;
  ServeReport Free = runServe(Sessions, Cfg);
  Cfg.FaultCfg = &Crash;
  ServeReport R = runServe(Sessions, Cfg);
  ASSERT_EQ(R.Sessions.size(), Sessions.size());
  for (size_t I = 0; I < R.Sessions.size(); ++I) {
    const SessionReport &S = R.Sessions[I];
    SCOPED_TRACE(S.Workload);
    ASSERT_GT(Free.Sessions[I].Steps, Crash.CrashAtStep);
    EXPECT_EQ(S.Outcome, SessionOutcome::Failed);
    EXPECT_EQ(S.Diagnostic.rfind("producer crashed: ", 0), 0u)
        << S.Diagnostic;
    EXPECT_EQ(S.FramesSent, 0u);
    EXPECT_EQ(S.FramesDelivered, 0u);
    EXPECT_EQ(S.EventsStreamed, 0u);
  }
}
