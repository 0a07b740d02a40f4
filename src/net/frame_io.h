#ifndef GAUSS_NET_FRAME_IO_H_
#define GAUSS_NET_FRAME_IO_H_

#include <algorithm>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace gauss {

// Synchronous framed I/O over a TcpSocket: one whole frame per call, bounded
// by a deadline. Used where a connection is driven frame-at-a-time (the
// client handshake and the server's per-connection loop); the RpcBackend
// reader instead keeps a streaming parse buffer, because a deadline hit
// mid-frame must not lose buffered bytes there.

inline NetError WriteFrame(TcpSocket& sock, MsgType type, uint64_t request_id,
                           const std::vector<uint8_t>& body,
                           SocketDeadline deadline) {
  std::vector<uint8_t> wire;
  wire.reserve(4 + 1 + 8 + body.size());
  AppendFrame(type, request_id, body, &wire);
  return sock.SendAll(wire.data(), wire.size(), deadline);
}

// A prefix above `max_payload` is a kProtocolError, before the body is read.
inline NetError ReadFrame(TcpSocket& sock, Frame* frame,
                          SocketDeadline deadline,
                          size_t max_payload = kMaxFramePayload) {
  uint8_t prefix[4];
  if (NetError error = sock.RecvAll(prefix, sizeof(prefix), deadline);
      !error.ok()) {
    return error;
  }
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(prefix[i]) << (8 * i);
  }
  if (payload_len > max_payload || payload_len < 1 + 8) {
    return {NetErrorCode::kProtocolError, "bad frame length prefix"};
  }
  std::vector<uint8_t> buf(4 + payload_len);
  std::copy(prefix, prefix + 4, buf.begin());
  if (NetError error = sock.RecvAll(buf.data() + 4, payload_len, deadline);
      !error.ok()) {
    return error;
  }
  size_t consumed = 0;
  NetError parse_error;
  const FrameParse verdict =
      ParseFrame(buf.data(), buf.size(), frame, &consumed, &parse_error);
  if (verdict != FrameParse::kFrame) return parse_error;
  return {};
}

}  // namespace gauss

#endif  // GAUSS_NET_FRAME_IO_H_
