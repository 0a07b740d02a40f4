#ifndef GAUSS_NET_NET_ERROR_H_
#define GAUSS_NET_NET_ERROR_H_

#include <cstdint>
#include <string>

namespace gauss {

// Failure taxonomy of the shard transport (mirrors OpenErrorCode for
// storage): every socket / wire-protocol operation reports one of these
// instead of aborting, so a coordinator can turn a dead or misbehaving shard
// into typed per-query errors rather than a hang or a crash.
enum class NetErrorCode : uint8_t {
  kOk = 0,
  // TCP connect (or address resolution) failed — wrong endpoint, shard
  // server not running, network unreachable.
  kConnectFailed = 1,
  // The per-request deadline elapsed before the reply arrived. Late replies
  // are discarded when they eventually show up.
  kTimeout = 2,
  // The peer speaks a different wire protocol version (or is not a
  // gauss_shardd at all — bad magic).
  kProtocolMismatch = 3,
  // A frame violated the wire format: unknown message tag, oversized length
  // prefix, truncated or trailing payload bytes, unknown traversal handle.
  kProtocolError = 4,
  // The connection closed mid-conversation (shard server died or shut
  // down). Every request in flight on that connection fails with this.
  kPeerClosed = 5,
  // A socket syscall failed for any other reason (errno in the message).
  kIoError = 6,
  // The query's own deadline had already passed before the request could be
  // written — failed fast on the client, no frame ever hit the wire.
  kDeadlineExceeded = 7,
  // The shard's traversal reached a node page that failed validation
  // (GtNodeStore::LoadSoa): a damaged shard image, not a transport fault.
  // Peers that predate this code decode it as a kProtocolError frame.
  kCorrupt = 8,
};

inline const char* NetErrorCodeName(NetErrorCode code) {
  switch (code) {
    case NetErrorCode::kOk:
      return "ok";
    case NetErrorCode::kConnectFailed:
      return "connect failed";
    case NetErrorCode::kTimeout:
      return "timeout";
    case NetErrorCode::kProtocolMismatch:
      return "protocol mismatch";
    case NetErrorCode::kProtocolError:
      return "protocol error";
    case NetErrorCode::kPeerClosed:
      return "peer closed";
    case NetErrorCode::kIoError:
      return "io error";
    case NetErrorCode::kDeadlineExceeded:
      return "deadline exceeded";
    case NetErrorCode::kCorrupt:
      return "corrupt page";
  }
  return "unknown";
}

// Typed outcome of a transport operation, in the OpenError style: a code for
// programmatic dispatch plus a human-readable message naming the endpoint /
// syscall / frame that failed.
struct NetError {
  NetErrorCode code = NetErrorCode::kOk;
  std::string message;

  bool ok() const { return code == NetErrorCode::kOk; }

  std::string ToString() const {
    std::string s = NetErrorCodeName(code);
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }
};

}  // namespace gauss

#endif  // GAUSS_NET_NET_ERROR_H_
