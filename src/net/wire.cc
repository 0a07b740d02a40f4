#include "net/wire.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

namespace gauss {

namespace {

NetError ProtocolError(const char* what) {
  return {NetErrorCode::kProtocolError, what};
}

// A complete-body decode must consume exactly the advertised bytes: both a
// short body and trailing garbage mean the peer and we disagree about the
// format — typed error, never a misparse.
NetError Finish(const WireReader& reader, const char* what) {
  if (!reader.ok()) {
    return {NetErrorCode::kProtocolError,
            std::string("truncated ") + what + " body"};
  }
  if (reader.remaining() != 0) {
    return {NetErrorCode::kProtocolError,
            std::string("trailing bytes after ") + what + " body"};
  }
  return {};
}

// Guard for untrusted element counts: the count is a lie unless at least
// `count * min_stride` bytes remain, so a hostile count can never drive a
// large allocation.
bool PlausibleCount(const WireReader& reader, uint64_t count,
                    size_t min_stride) {
  return count <= reader.remaining() / min_stride;
}

}  // namespace

// --------------------------------- framing ----------------------------------

void AppendFrame(MsgType type, uint64_t request_id,
                 const std::vector<uint8_t>& body, std::vector<uint8_t>* wire) {
  WireWriter writer(wire);
  writer.U32(static_cast<uint32_t>(1 + 8 + body.size()));
  writer.U8(static_cast<uint8_t>(type));
  writer.U64(request_id);
  wire->insert(wire->end(), body.begin(), body.end());
}

FrameParse ParseFrame(const uint8_t* data, size_t size, Frame* out,
                      size_t* consumed, NetError* error) {
  *consumed = 0;
  if (size < 4) return FrameParse::kNeedMore;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  if (payload_len > kMaxFramePayload) {
    *error = {NetErrorCode::kProtocolError, "oversized frame length prefix"};
    return FrameParse::kError;
  }
  if (payload_len < 1 + 8) {
    *error = {NetErrorCode::kProtocolError, "undersized frame payload"};
    return FrameParse::kError;
  }
  if (size < 4 + static_cast<size_t>(payload_len)) return FrameParse::kNeedMore;

  const uint8_t tag = data[4];
  if (tag < static_cast<uint8_t>(MsgType::kHello) ||
      tag > static_cast<uint8_t>(MsgType::kError)) {
    *error = {NetErrorCode::kProtocolError, "unknown message tag"};
    return FrameParse::kError;
  }
  out->type = static_cast<MsgType>(tag);
  out->request_id = 0;
  for (int i = 0; i < 8; ++i) {
    out->request_id |= static_cast<uint64_t>(data[5 + i]) << (8 * i);
  }
  out->body.assign(data + 4 + 1 + 8, data + 4 + payload_len);
  *consumed = 4 + static_cast<size_t>(payload_len);
  return FrameParse::kFrame;
}

NetError CheckHandshake(uint64_t magic, uint32_t version) {
  if (magic != kWireMagic) {
    return {NetErrorCode::kProtocolMismatch, "bad magic (not a gauss shard)"};
  }
  if (version != kWireVersion) {
    return {NetErrorCode::kProtocolMismatch,
            "wire version " + std::to_string(version) + " != " +
                std::to_string(kWireVersion)};
  }
  return {};
}

// -------------------------------- handshake ---------------------------------

void EncodeHello(const WireHello& msg, std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U64(msg.magic);
  writer.U32(msg.version);
}

NetError DecodeHello(const uint8_t* data, size_t size, WireHello* out) {
  WireReader reader(data, size);
  reader.U64(&out->magic);
  reader.U32(&out->version);
  return Finish(reader, "hello");
}

void EncodeHelloAck(const WireHelloAck& msg, std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U64(msg.magic);
  writer.U32(msg.version);
  writer.U32(msg.dim);
  writer.U64(msg.tree_size);
}

NetError DecodeHelloAck(const uint8_t* data, size_t size, WireHelloAck* out) {
  WireReader reader(data, size);
  reader.U64(&out->magic);
  reader.U32(&out->version);
  reader.U32(&out->dim);
  reader.U64(&out->tree_size);
  return Finish(reader, "hello-ack");
}

// ----------------------------- query descriptor -----------------------------

void EncodeQuery(const Query& query, std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U8(static_cast<uint8_t>(query.kind()));
  const Pfv& pfv = query.pfv();
  writer.U64(pfv.id);
  writer.U32(static_cast<uint32_t>(pfv.mu.size()));
  for (const double v : pfv.mu) writer.F64(v);
  for (const double v : pfv.sigma) writer.F64(v);
  if (query.kind() == QueryKind::kMliq) {
    const MliqOptions& options = query.mliq_options();
    writer.U64(query.k());
    writer.U8(options.refine_probabilities ? 1 : 0);
    writer.F64(options.probability_accuracy);
    writer.F64(options.denominator_target_gap);
    writer.F64(options.density_floor_log);
  } else {
    const TiqOptions& options = query.tiq_options();
    writer.F64(query.threshold());
    writer.U8(options.exact_membership ? 1 : 0);
    writer.U8(options.refine_probabilities ? 1 : 0);
    writer.F64(options.probability_accuracy);
    writer.F64(options.denominator_target_gap);
    writer.F64(options.denominator_floor);
  }
  // Deadlines travel as the remaining budget at encode time; the receiver
  // re-anchors on its own steady clock.
  int64_t budget_ns = -1;
  if (query.has_deadline()) {
    const auto remaining =
        query.deadline() - std::chrono::steady_clock::now();
    budget_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(remaining)
               .count());
  }
  writer.I64(budget_ns);
}

NetError DecodeQuery(WireReader& reader, std::optional<Query>* out) {
  uint8_t kind = 0;
  Pfv pfv;
  uint32_t dim = 0;
  reader.U8(&kind);
  reader.U64(&pfv.id);
  reader.U32(&dim);
  if (!reader.ok()) return ProtocolError("truncated query header");
  if (kind > static_cast<uint8_t>(QueryKind::kTiq)) {
    return ProtocolError("unknown query kind");
  }
  if (!PlausibleCount(reader, dim, 2 * sizeof(double))) {
    return ProtocolError("query dimensionality exceeds body");
  }
  pfv.mu.resize(dim);
  pfv.sigma.resize(dim);
  for (double& v : pfv.mu) reader.F64(&v);
  for (double& v : pfv.sigma) reader.F64(&v);

  // Every query body ends with its deadline budget. The Query is built in
  // its kind's branch and handed over whole.
  const auto finish = [&reader, out](Query query) -> NetError {
    int64_t budget_ns = -1;
    if (!reader.I64(&budget_ns)) {
      return ProtocolError("truncated query deadline");
    }
    if (budget_ns >= 0) {
      query.DeadlineAfter(std::chrono::nanoseconds(budget_ns));
    }
    *out = std::move(query);
    return {};
  };
  if (static_cast<QueryKind>(kind) == QueryKind::kMliq) {
    uint64_t k = 0;
    uint8_t refine = 0;
    MliqOptions options;
    reader.U64(&k);
    reader.U8(&refine);
    reader.F64(&options.probability_accuracy);
    reader.F64(&options.denominator_target_gap);
    reader.F64(&options.density_floor_log);
    if (!reader.ok()) return ProtocolError("truncated mliq parameters");
    options.refine_probabilities = refine != 0;
    return finish(
        Query::Mliq(std::move(pfv), static_cast<size_t>(k), options));
  } else {
    double threshold = 0.0;
    uint8_t exact = 0, refine = 0;
    TiqOptions options;
    reader.F64(&threshold);
    reader.U8(&exact);
    reader.U8(&refine);
    reader.F64(&options.probability_accuracy);
    reader.F64(&options.denominator_target_gap);
    reader.F64(&options.denominator_floor);
    if (!reader.ok()) return ProtocolError("truncated tiq parameters");
    options.exact_membership = exact != 0;
    options.refine_probabilities = refine != 0;
    return finish(Query::Tiq(std::move(pfv), threshold, options));
  }
}

void EncodeStart(uint64_t traversal, const Query& query,
                 std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U64(traversal);
  EncodeQuery(query, body);
}

NetError DecodeStart(const uint8_t* data, size_t size, WireStart* out) {
  WireReader reader(data, size);
  if (!reader.U64(&out->traversal)) {
    return ProtocolError("truncated start body");
  }
  if (NetError error = DecodeQuery(reader, &out->query); !error.ok()) {
    return error;
  }
  return Finish(reader, "start");
}

// ------------------------------- start reply --------------------------------

void EncodeStartReply(const ShardPartial& partial,
                      std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.F64(partial.log_ref);
  writer.U64(partial.tree_size);
  writer.F64(partial.denominator_lo);
  writer.F64(partial.denominator_hi);
  writer.U8(partial.exhausted ? 1 : 0);
  writer.U64(partial.nodes_visited);
  writer.U64(partial.leaf_nodes_visited);
  writer.U64(partial.objects_evaluated);
  writer.U32(static_cast<uint32_t>(partial.items.size()));
  for (const ScoredObject& item : partial.items) {
    writer.U64(item.id);
    writer.F64(item.scaled_density);
    writer.F64(item.log_density);
  }
}

NetError DecodeStartReply(const uint8_t* data, size_t size,
                          ShardPartial* out) {
  WireReader reader(data, size);
  uint8_t exhausted = 0;
  uint32_t item_count = 0;
  reader.F64(&out->log_ref);
  reader.U64(&out->tree_size);
  reader.F64(&out->denominator_lo);
  reader.F64(&out->denominator_hi);
  reader.U8(&exhausted);
  reader.U64(&out->nodes_visited);
  reader.U64(&out->leaf_nodes_visited);
  reader.U64(&out->objects_evaluated);
  reader.U32(&item_count);
  if (!reader.ok()) return ProtocolError("truncated start-reply header");
  out->exhausted = exhausted != 0;
  if (!PlausibleCount(reader, item_count, 8 + 8 + 8)) {
    return ProtocolError("start-reply item count exceeds body");
  }
  out->items.resize(item_count);
  for (ScoredObject& item : out->items) {
    reader.U64(&item.id);
    reader.F64(&item.scaled_density);
    reader.F64(&item.log_density);
  }
  return Finish(reader, "start-reply");
}

// ------------------------------ refine round --------------------------------

void EncodeRefine(const std::vector<RefineSpec>& specs,
                  std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U32(static_cast<uint32_t>(specs.size()));
  for (const RefineSpec& spec : specs) {
    writer.U64(spec.traversal);
    writer.F64(spec.max_gap);
  }
}

NetError DecodeRefine(const uint8_t* data, size_t size,
                      std::vector<RefineSpec>* out) {
  WireReader reader(data, size);
  uint32_t count = 0;
  if (!reader.U32(&count)) return ProtocolError("truncated refine body");
  if (!PlausibleCount(reader, count, 8 + 8)) {
    return ProtocolError("refine spec count exceeds body");
  }
  out->resize(count);
  for (RefineSpec& spec : *out) {
    reader.U64(&spec.traversal);
    reader.F64(&spec.max_gap);
  }
  return Finish(reader, "refine");
}

void EncodeRefineReply(const std::vector<RefineUpdate>& updates,
                       std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U32(static_cast<uint32_t>(updates.size()));
  for (const RefineUpdate& update : updates) {
    writer.F64(update.denominator_lo);
    writer.F64(update.denominator_hi);
    writer.U8(update.exhausted ? 1 : 0);
    writer.U64(update.nodes_visited);
    writer.U64(update.leaf_nodes_visited);
    writer.U64(update.objects_evaluated);
  }
}

NetError DecodeRefineReply(const uint8_t* data, size_t size,
                           std::vector<RefineUpdate>* out) {
  WireReader reader(data, size);
  uint32_t count = 0;
  if (!reader.U32(&count)) return ProtocolError("truncated refine-reply body");
  if (!PlausibleCount(reader, count, 8 + 8 + 1 + 8 + 8 + 8)) {
    return ProtocolError("refine-reply update count exceeds body");
  }
  out->resize(count);
  for (RefineUpdate& update : *out) {
    uint8_t exhausted = 0;
    reader.F64(&update.denominator_lo);
    reader.F64(&update.denominator_hi);
    reader.U8(&exhausted);
    reader.U64(&update.nodes_visited);
    reader.U64(&update.leaf_nodes_visited);
    reader.U64(&update.objects_evaluated);
    update.exhausted = exhausted != 0;
  }
  return Finish(reader, "refine-reply");
}

// --------------------------------- release ----------------------------------

void EncodeRelease(const std::vector<uint64_t>& traversals,
                   std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U32(static_cast<uint32_t>(traversals.size()));
  for (const uint64_t id : traversals) writer.U64(id);
}

NetError DecodeRelease(const uint8_t* data, size_t size,
                       std::vector<uint64_t>* out) {
  WireReader reader(data, size);
  uint32_t count = 0;
  if (!reader.U32(&count)) return ProtocolError("truncated release body");
  if (!PlausibleCount(reader, count, 8)) {
    return ProtocolError("release handle count exceeds body");
  }
  out->resize(count);
  for (uint64_t& id : *out) reader.U64(&id);
  return Finish(reader, "release");
}

// ---------------------------------- stats -----------------------------------

void EncodeIoStats(const IoStats& io, WireWriter& writer) {
  writer.U64(io.logical_reads);
  writer.U64(io.physical_reads);
  writer.U64(io.physical_writes);
  writer.U64(io.evictions);
}

NetError DecodeIoStats(WireReader& reader, IoStats* out) {
  reader.U64(&out->logical_reads);
  reader.U64(&out->physical_reads);
  reader.U64(&out->physical_writes);
  reader.U64(&out->evictions);
  if (!reader.ok()) return ProtocolError("truncated io-stats");
  return {};
}

void EncodeServiceStats(const ServiceStats& stats, WireWriter& writer) {
  writer.U64(stats.mliq_queries);
  writer.U64(stats.tiq_queries);
  writer.U64(stats.shed_queries);
  writer.U64(stats.deadline_exceeded_queries);
  writer.U64(stats.shard_error_queries);
  writer.U64(stats.refine_rounds);
  writer.U64(stats.refine_batched_queries);
  writer.F64(stats.wall_seconds);
  writer.F64(stats.qps);
  writer.U64(stats.latency.count);
  writer.F64(stats.latency.mean_us);
  writer.F64(stats.latency.p50_us);
  writer.F64(stats.latency.p90_us);
  writer.F64(stats.latency.p99_us);
  writer.F64(stats.latency.max_us);
  EncodeIoStats(stats.io, writer);
  writer.U64(stats.nodes_visited);
  writer.U64(stats.leaf_nodes_visited);
  writer.U64(stats.objects_evaluated);
}

NetError DecodeServiceStats(WireReader& reader, ServiceStats* out) {
  reader.U64(&out->mliq_queries);
  reader.U64(&out->tiq_queries);
  reader.U64(&out->shed_queries);
  reader.U64(&out->deadline_exceeded_queries);
  reader.U64(&out->shard_error_queries);
  reader.U64(&out->refine_rounds);
  reader.U64(&out->refine_batched_queries);
  reader.F64(&out->wall_seconds);
  reader.F64(&out->qps);
  reader.U64(&out->latency.count);
  reader.F64(&out->latency.mean_us);
  reader.F64(&out->latency.p50_us);
  reader.F64(&out->latency.p90_us);
  reader.F64(&out->latency.p99_us);
  reader.F64(&out->latency.max_us);
  if (NetError error = DecodeIoStats(reader, &out->io); !error.ok()) {
    return error;
  }
  reader.U64(&out->nodes_visited);
  reader.U64(&out->leaf_nodes_visited);
  reader.U64(&out->objects_evaluated);
  if (!reader.ok()) return ProtocolError("truncated service-stats");
  return {};
}

void EncodeStatsReply(const IoStats& io, const ServiceStats& service,
                      std::vector<uint8_t>* body) {
  WireWriter writer(body);
  EncodeIoStats(io, writer);
  EncodeServiceStats(service, writer);
}

NetError DecodeStatsReply(const uint8_t* data, size_t size, IoStats* io,
                          ServiceStats* service) {
  WireReader reader(data, size);
  if (NetError error = DecodeIoStats(reader, io); !error.ok()) return error;
  if (NetError error = DecodeServiceStats(reader, service); !error.ok()) {
    return error;
  }
  return Finish(reader, "stats-reply");
}

// ---------------------------------- sketch ----------------------------------

namespace {

void EncodeDimBounds(const DimBounds& b, WireWriter& writer) {
  writer.F64(b.mu_lo);
  writer.F64(b.mu_hi);
  writer.F64(b.sigma_lo);
  writer.F64(b.sigma_hi);
}

void DecodeDimBounds(WireReader& reader, DimBounds* b) {
  reader.F64(&b->mu_lo);
  reader.F64(&b->mu_hi);
  reader.F64(&b->sigma_lo);
  reader.F64(&b->sigma_hi);
}

}  // namespace

void EncodeSketchReply(const ShardSketch& sketch, size_t dim,
                       std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U64(sketch.tree_size);
  writer.U8(static_cast<uint8_t>(sketch.sigma_policy));
  writer.U32(sketch.tree_size > 0 ? static_cast<uint32_t>(dim) : 0);
  if (sketch.tree_size > 0) {
    for (const DimBounds& b : sketch.root_bounds) EncodeDimBounds(b, writer);
    writer.U32(static_cast<uint32_t>(sketch.entries.size()));
    for (const ShardSketchEntry& entry : sketch.entries) {
      writer.U32(entry.count);
      for (const DimBounds& b : entry.bounds) EncodeDimBounds(b, writer);
    }
  }
}

NetError DecodeSketchReply(const uint8_t* data, size_t size,
                           ShardSketch* out) {
  WireReader reader(data, size);
  uint8_t policy = 0;
  uint32_t dim = 0;
  reader.U64(&out->tree_size);
  reader.U8(&policy);
  reader.U32(&dim);
  if (!reader.ok()) return ProtocolError("truncated sketch header");
  if (policy > static_cast<uint8_t>(SigmaPolicy::kAdditive)) {
    return ProtocolError("unknown sigma policy");
  }
  out->sigma_policy = static_cast<SigmaPolicy>(policy);
  out->root_bounds.clear();
  out->entries.clear();
  if (out->tree_size == 0) return Finish(reader, "sketch-reply");
  if (dim == 0) return ProtocolError("sketch dimensionality is zero");
  const size_t bounds_bytes = static_cast<size_t>(dim) * 4 * sizeof(double);
  if (!PlausibleCount(reader, dim, 4 * sizeof(double))) {
    return ProtocolError("sketch dimensionality exceeds body");
  }
  out->root_bounds.resize(dim);
  for (DimBounds& b : out->root_bounds) DecodeDimBounds(reader, &b);
  uint32_t entry_count = 0;
  if (!reader.U32(&entry_count)) {
    return ProtocolError("truncated sketch entry count");
  }
  if (!PlausibleCount(reader, entry_count, 4 + bounds_bytes)) {
    return ProtocolError("sketch entry count exceeds body");
  }
  out->entries.resize(entry_count);
  for (ShardSketchEntry& entry : out->entries) {
    reader.U32(&entry.count);
    entry.bounds.resize(dim);
    for (DimBounds& b : entry.bounds) DecodeDimBounds(reader, &b);
  }
  return Finish(reader, "sketch-reply");
}

// ---------------------------------- error -----------------------------------

void EncodeError(const NetError& error, std::vector<uint8_t>* body) {
  WireWriter writer(body);
  writer.U8(static_cast<uint8_t>(error.code));
  writer.U32(static_cast<uint32_t>(error.message.size()));
  body->insert(body->end(), error.message.begin(), error.message.end());
}

NetError DecodeError(const uint8_t* data, size_t size, NetError* out) {
  WireReader reader(data, size);
  uint8_t code = 0;
  uint32_t length = 0;
  reader.U8(&code);
  reader.U32(&length);
  if (!reader.ok()) return ProtocolError("truncated error body");
  if (code > static_cast<uint8_t>(NetErrorCode::kCorrupt)) {
    return ProtocolError("unknown error code");
  }
  if (length != reader.remaining()) {
    return ProtocolError("error message length mismatch");
  }
  out->code = static_cast<NetErrorCode>(code);
  out->message.assign(data + (size - reader.remaining()),
                      data + size);
  return {};
}

}  // namespace gauss
