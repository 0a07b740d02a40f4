#ifndef GAUSS_NET_WIRE_H_
#define GAUSS_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "net/net_error.h"
#include "net/shard_backend.h"
#include "service/query.h"
#include "service/service_stats.h"
#include "storage/io_stats.h"

namespace gauss {

// ================================ Wire format ===============================
//
// The binary protocol between an RpcBackend (coordinator side) and a shard
// server (net/shard_server.h / examples/gauss_shardd). See src/net/README.md
// for the full description; the invariants:
//
//   frame   := u32 payload_len | payload            (payload_len in bytes)
//   payload := u8 msg_type | u64 request_id | body
//
// All integers are little-endian; doubles travel as their raw IEEE-754 bit
// pattern in a u64 — bit-exact round-trips are what makes the loopback
// differential (RpcBackend vs InProcessBackend, byte-identical answers)
// possible. payload_len is capped at kMaxFramePayload; a larger prefix is a
// protocol error, not an allocation.
//
// Versioning: the connection opens with kHello/kHelloAck carrying a magic
// number and kWireVersion. There is no in-version extensibility — any format
// change bumps kWireVersion, and a version mismatch fails the handshake with
// NetErrorCode::kProtocolMismatch (typed, never a misparse). request_id
// correlates replies to requests; replies may arrive out of order.
//
// Every decoder is bounds-checked and returns a typed NetError on malformed
// input (truncated body, trailing bytes, unknown enum value) — decoding
// never aborts, whatever the bytes.
// ============================================================================

inline constexpr uint64_t kWireMagic = 0x4754424a47415553ull;  // "GAUSSJBTG"
// v2: Query bodies carry denominator_target_gap; kFetchSketch/kSketchReply
// added (kError renumbered 10 -> 12 to keep it the last tag).
// v3: Query bodies lose the read-ahead depth; IoStats bodies lose the three
// read-ahead counters.
inline constexpr uint32_t kWireVersion = 3;
inline constexpr size_t kMaxFramePayload = 1u << 24;  // 16 MiB
// Payload of a kHello frame: msg_type, request_id, then the body's magic and
// version. The longest frame a server reads before the handshake.
inline constexpr size_t kHelloFramePayload = 1 + 8 + 8 + 4;

enum class MsgType : uint8_t {
  kHello = 1,         // client -> server: magic + version
  kHelloAck = 2,      // server -> client: magic + version + dim + tree size
  kStart = 3,         // client -> server: traversal handle + Query descriptor
  kStartReply = 4,    // server -> client: ShardPartial
  kRefine = 5,        // client -> server: batched RefineSpecs
  kRefineReply = 6,   // server -> client: RefineUpdates (positional)
  kRelease = 7,       // client -> server: traversal handles (no reply)
  kStats = 8,         // client -> server: empty body
  kStatsReply = 9,    // server -> client: IoStats + ServiceStats
  kFetchSketch = 10,  // client -> server: empty body
  kSketchReply = 11,  // server -> client: ShardSketch
  kError = 12,        // server -> client: NetError replacing a reply
};

// --------------------------- primitive accessors ----------------------------

// Appends little-endian primitives to a byte vector.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

 private:
  std::vector<uint8_t>* out_;
};

// Bounds-checked little-endian reads; every accessor returns false (and the
// reader goes sticky-failed) once the input is exhausted.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : p_(data), remaining_(size) {}

  bool U8(uint8_t* v) {
    if (!Take(1)) return false;
    *v = p_[-1];
    return true;
  }
  bool U32(uint32_t* v) {
    if (!Take(4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[i - 4]) << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    if (!Take(8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[i - 8]) << (8 * i);
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return remaining_; }

 private:
  bool Take(size_t n) {
    if (!ok_ || remaining_ < n) {
      ok_ = false;
      return false;
    }
    p_ += n;
    remaining_ -= n;
    return true;
  }

  const uint8_t* p_;
  size_t remaining_;
  bool ok_ = true;
};

// --------------------------------- framing ----------------------------------

struct Frame {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  std::vector<uint8_t> body;
};

// Appends one complete frame (length prefix + payload) to `wire`.
void AppendFrame(MsgType type, uint64_t request_id,
                 const std::vector<uint8_t>& body, std::vector<uint8_t>* wire);

enum class FrameParse : uint8_t {
  kFrame,     // *out holds a frame, *consumed bytes were eaten
  kNeedMore,  // the buffer holds a frame prefix; read more and retry
  kError,     // malformed stream (oversized prefix, unknown tag); *error set
};

// Parses one frame from the front of [data, data+size). Never consumes bytes
// on kNeedMore/kError.
FrameParse ParseFrame(const uint8_t* data, size_t size, Frame* out,
                      size_t* consumed, NetError* error);

// Typed handshake verdict for a received magic + version pair.
NetError CheckHandshake(uint64_t magic, uint32_t version);

// -------------------------------- messages ----------------------------------
//
// Encode* appends the message *body* (framing is separate); Decode* parses a
// complete body and fails with NetErrorCode::kProtocolError on truncation,
// trailing bytes, or invalid enum values.

struct WireHello {
  uint64_t magic = kWireMagic;
  uint32_t version = kWireVersion;
};

struct WireHelloAck {
  uint64_t magic = kWireMagic;
  uint32_t version = kWireVersion;
  uint32_t dim = 0;
  uint64_t tree_size = 0;
};

struct WireStart {
  uint64_t traversal = 0;
  std::optional<Query> query;  // engaged after a successful decode
};

void EncodeHello(const WireHello& msg, std::vector<uint8_t>* body);
NetError DecodeHello(const uint8_t* data, size_t size, WireHello* out);

void EncodeHelloAck(const WireHelloAck& msg, std::vector<uint8_t>* body);
NetError DecodeHelloAck(const uint8_t* data, size_t size, WireHelloAck* out);

// The Query descriptor serializer: kind, probe pfv, kind-specific options
// (k / threshold, accuracy, refinement and membership flags, denominator
// target gap and floor), and the deadline as a *relative* budget in
// nanoseconds (-1 = no deadline) — absolute steady_clock instants don't
// transfer across hosts.
// Decoding re-anchors the budget on the receiver's clock.
void EncodeQuery(const Query& query, std::vector<uint8_t>* body);
NetError DecodeQuery(WireReader& reader, std::optional<Query>* out);

void EncodeStart(uint64_t traversal, const Query& query,
                 std::vector<uint8_t>* body);
NetError DecodeStart(const uint8_t* data, size_t size, WireStart* out);

void EncodeStartReply(const ShardPartial& partial, std::vector<uint8_t>* body);
NetError DecodeStartReply(const uint8_t* data, size_t size, ShardPartial* out);

void EncodeRefine(const std::vector<RefineSpec>& specs,
                  std::vector<uint8_t>* body);
NetError DecodeRefine(const uint8_t* data, size_t size,
                      std::vector<RefineSpec>* out);

void EncodeRefineReply(const std::vector<RefineUpdate>& updates,
                       std::vector<uint8_t>* body);
NetError DecodeRefineReply(const uint8_t* data, size_t size,
                           std::vector<RefineUpdate>* out);

void EncodeRelease(const std::vector<uint64_t>& traversals,
                   std::vector<uint8_t>* body);
NetError DecodeRelease(const uint8_t* data, size_t size,
                       std::vector<uint64_t>* out);

void EncodeIoStats(const IoStats& io, WireWriter& writer);
NetError DecodeIoStats(WireReader& reader, IoStats* out);

void EncodeServiceStats(const ServiceStats& stats, WireWriter& writer);
NetError DecodeServiceStats(WireReader& reader, ServiceStats* out);

void EncodeStatsReply(const IoStats& io, const ServiceStats& service,
                      std::vector<uint8_t>* body);
NetError DecodeStatsReply(const uint8_t* data, size_t size, IoStats* io,
                          ServiceStats* service);

// kFetchSketch travels with an empty body; the reply is the shard's coarse
// denominator sketch. `dim` rides explicitly so the decoder can validate
// every entry's bounds count against it.
void EncodeSketchReply(const ShardSketch& sketch, size_t dim,
                       std::vector<uint8_t>* body);
NetError DecodeSketchReply(const uint8_t* data, size_t size, ShardSketch* out);

void EncodeError(const NetError& error, std::vector<uint8_t>* body);
NetError DecodeError(const uint8_t* data, size_t size, NetError* out);

}  // namespace gauss

#endif  // GAUSS_NET_WIRE_H_
