//===- serve/Frame.h - Length-prefixed binary trace frames ------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format of the streaming detection daemon (serve/Serve.h): a
/// client session ships its execution trace as a sequence of
/// length-prefixed binary frames, and FrameCodec is the ingestion gate
/// that treats every one of them as untrusted input. Decoding validates
/// the length prefix, magic/version/opcode, the session id, the frame
/// sequence range, the payload shape, and every event field an analysis pass will index with (the
/// frame-level analog of trace::validate) before a single event reaches
/// detector state. A malformed frame produces exactly one classified
/// reject — never an exception and never out-of-bounds indexing.
/// FrameStreamer is the producer side: it encodes a running execution
/// into frames without recording the whole trace first.
///
/// Frame layout (version 3; all integers little-endian):
///
///   header (20 bytes): 'S' 'V' version opcode session[4] frameseq[4]
///                      payload_len[4] checksum[4]
///   checksum: CRC-32C (support/Crc32c.h) over the first 16 header
///             bytes then the payload, so any in-flight bit flip —
///             including in fields no range check would otherwise
///             catch, like a memory event's mutex field or an in-range
///             FrameSeq — downgrades to one classified reject instead of
///             silently changing detection results. Every one- and
///             two-bit error in a frame is caught. Version 1 frames
///             carried an FNV-1a checksum and version 2 frames 38-byte
///             event records with load/store values and branch outcomes;
///             both are rejected as bad-version.
///   payload:
///     Hello  — threads[4] memory_words[4] mutexes[4] instructions[8]
///              (a program fingerprint; mismatch poisons the session)
///     Events — N x 25-byte event records:
///              seq[8] tid[4] pc[4] kind[1] addr[4] mutex[4]
///     Shed   — span_frames[4] epoch[4] dropped_events[8]
///              (an overloaded producer's never-silent loss marker)
///     End    — total_events[8]
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SERVE_FRAME_H
#define SVD_SERVE_FRAME_H

#include "isa/Program.h"
#include "trace/Trace.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace serve {

/// Frame kinds of the serve wire protocol.
enum class Opcode : uint8_t {
  Hello = 1,  ///< session start, program fingerprint
  Events = 2, ///< a batch of trace events
  Shed = 3,   ///< explicit loss marker for a shed epoch
  End = 4,    ///< end of stream, total event count
};

/// Classified decode-rejection reasons. Every malformed frame maps to
/// exactly one of these; the daemon counts them and poisons the
/// session instead of aborting the process.
enum class Reject : uint8_t {
  TruncatedHeader,  ///< fewer bytes than one header
  BadMagic,         ///< magic bytes are not 'S' 'V'
  BadVersion,       ///< unsupported protocol version
  BadOpcode,        ///< opcode outside Hello..End
  BadSession,       ///< session id is not the codec's session
  LengthOverflow,   ///< length prefix exceeds the frame size limit
  TruncatedPayload, ///< buffer ends before payload_len (mid-frame EOF)
  TrailingBytes,    ///< buffer extends past payload_len
  BadChecksum,      ///< header/payload checksum mismatch (bit flips)
  BadPayloadShape,  ///< payload length illegal for the opcode
  ProgramMismatch,  ///< Hello fingerprint differs from the program
  BadEventKind,     ///< event kind byte outside the EventKind range
  BadThread,        ///< event thread id out of program range
  BadPc,            ///< event pc outside its thread's code
  BadAddress,       ///< memory event address beyond MemoryWords
  BadMutex,         ///< lock/unlock mutex id out of range
  NonMonotonicSeq,  ///< event or frame sequence breaks execution order
};

/// Number of distinct Reject values (for per-reason counters).
inline constexpr size_t RejectCount =
    static_cast<size_t>(Reject::NonMonotonicSeq) + 1;

/// Stable lowercase name of \p R ("bad-magic", "truncated-payload", ...).
const char *rejectName(Reject R);

/// A successfully decoded frame.
struct DecodedFrame {
  Opcode Op = Opcode::Hello;
  uint32_t Session = 0;
  uint32_t FrameSeq = 0;
  /// Events opcode: the decoded batch, every field validated and the
  /// Instr pointer resolved against the program.
  std::vector<trace::TraceEvent> Events;
  /// Shed opcode: wire frames this marker stands in for, the epoch
  /// shed, and the events dropped with it.
  uint32_t ShedSpanFrames = 0;
  uint32_t ShedEpoch = 0;
  uint64_t ShedDroppedEvents = 0;
  /// End opcode: total events the producer streamed (including shed).
  uint64_t EndTotalEvents = 0;
};

/// Outcome of one decode: Ok, or a classified reject with a one-line
/// diagnostic naming the offending field.
struct DecodeResult {
  bool Ok = true;
  Reject Why = Reject::TruncatedHeader;
  std::string Detail;

  static DecodeResult ok() { return DecodeResult(); }
  static DecodeResult fail(Reject Why, std::string Detail) {
    DecodeResult R;
    R.Ok = false;
    R.Why = Why;
    R.Detail = std::move(Detail);
    return R;
  }
};

/// Encoder/decoder for one session's frame stream, bound to the
/// session's program (field validation needs the thread code sizes,
/// memory extent, and mutex table) and session id.
class FrameCodec {
public:
  static constexpr uint8_t Magic0 = 'S';
  static constexpr uint8_t Magic1 = 'V';
  static constexpr uint8_t Version = 3;
  static constexpr size_t HeaderBytes = 20;
  static constexpr size_t EventBytes = 25;
  /// Hard frame-size limit: a length prefix admitting more than this
  /// many events is rejected before any allocation sized from it.
  static constexpr size_t MaxEventsPerFrame = 65536;
  static constexpr size_t MaxPayloadBytes = MaxEventsPerFrame * EventBytes;

  FrameCodec(const isa::Program &P, uint32_t SessionId)
      : Prog(&P), Session(SessionId) {}

  const isa::Program &program() const { return *Prog; }
  uint32_t sessionId() const { return Session; }

  std::vector<uint8_t> encodeHello() const;
  std::vector<uint8_t> encodeEvents(const trace::TraceEvent *Events,
                                    size_t Count, uint32_t FrameSeq) const;
  std::vector<uint8_t> encodeShed(uint32_t FrameSeq, uint32_t SpanFrames,
                                  uint32_t Epoch,
                                  uint64_t DroppedEvents) const;
  std::vector<uint8_t> encodeEnd(uint32_t FrameSeq,
                                 uint64_t TotalEvents) const;

  /// Decodes one frame. \p MinSeq is the session's last ingested event
  /// sequence; the first event of the frame must not precede it (the
  /// cross-frame half of the nondecreasing-Seq invariant). Never
  /// throws; every failure is a classified DecodeResult. Once the
  /// header checks pass, \p Out is refilled in place: its Events are
  /// cleared, not reallocated, so a consumer decoding into one frame
  /// keeps the buffer's capacity.
  DecodeResult decode(const uint8_t *Data, size_t Size, uint64_t MinSeq,
                      DecodedFrame &Out) const;
  DecodeResult decode(const std::vector<uint8_t> &Bytes, uint64_t MinSeq,
                      DecodedFrame &Out) const {
    return decode(Bytes.data(), Bytes.size(), MinSeq, Out);
  }

private:
  const isa::Program *Prog;
  uint32_t Session;
};

/// One wire frame plus the producer-side metadata the shedding policy
/// needs (it describes the frame as generated, before any in-flight
/// mangling).
struct WireFrame {
  std::vector<uint8_t> Bytes;
  Opcode Op = Opcode::Hello;
  uint32_t FrameSeq = 0;
  uint64_t EventCount = 0;
};

/// The producer side of a session: an ExecutionObserver that encodes
/// the running execution straight into wire frames, so no whole-run
/// trace is ever recorded. It opens the wire with Hello, fills one fixed
/// buffer of EventsPerFrame events and seals each full buffer with
/// FrameCodec::encodeEvents, and finish() seals the partial last buffer
/// and closes the wire with End. The frames are byte-identical to
/// encoding a TraceRecorder trace of the same run in EventsPerFrame
/// slices (ServeCodec.StreamedWireEqualsRecordedEncoding).
class FrameStreamer : public trace::TraceEventBuilder<FrameStreamer> {
public:
  /// Events per Events frame (serve::ServeConfig::EventsPerFrame).
  static constexpr uint32_t EventsPerFrame = 256;
  static_assert(EventsPerFrame >= 1 &&
                EventsPerFrame <= FrameCodec::MaxEventsPerFrame);

  explicit FrameStreamer(const FrameCodec &Codec);
  // A machine holds the streamer's address for the whole run.
  FrameStreamer(const FrameStreamer &) = delete;
  FrameStreamer &operator=(const FrameStreamer &) = delete;

  /// Events observed so far.
  uint64_t events() const { return Sealed + Fill; }

  /// Seals the partial last Events frame (if any), appends End carrying
  /// the event total, and hands over the wire: Hello, ceil(n / 256)
  /// Events frames with sequence numbers 1.., then End.
  std::vector<WireFrame> finish();

private:
  friend class trace::TraceEventBuilder<FrameStreamer>;
  void record(const trace::TraceEvent &E);
  /// Encodes the buffered events as the next Events frame.
  void seal();

  FrameCodec Codec;
  std::vector<WireFrame> Wire;
  std::array<trace::TraceEvent, EventsPerFrame> Buf;
  uint32_t Fill = 0;
  uint64_t Sealed = 0;
};

} // namespace serve

extern template class trace::TraceEventBuilder<serve::FrameStreamer>;

} // namespace svd

#endif // SVD_SERVE_FRAME_H
