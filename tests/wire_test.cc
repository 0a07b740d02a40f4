// Unit tests of the shard wire protocol (net/wire.h): exhaustive encode →
// decode round-trips for every message (including non-finite doubles, which
// must survive bit-exactly — the loopback differential depends on it), and
// the malformed-input contract: truncated frames, oversized length prefixes,
// unknown message tags and mangled bodies all come back as typed NetErrors,
// never a crash, never a misparse.

#include "net/wire.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "net/net_error.h"
#include "service/query.h"

namespace gauss {
namespace {

// Doubles whose bit patterns catch lossy transports: negative zero, denormal,
// infinities, and a NaN (compared by bit pattern, not by value).
const double kNastyDoubles[] = {
    0.0,
    -0.0,
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    1.7976931348623157e308,
    -2.2250738585072014e-308,
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitsEqual(double got, double want) {
  EXPECT_EQ(Bits(got), Bits(want));
}

// ------------------------------- framing ------------------------------------

TEST(WireFraming, RoundTripsFramesBackToBack) {
  std::vector<uint8_t> wire;
  for (uint8_t tag = static_cast<uint8_t>(MsgType::kHello);
       tag <= static_cast<uint8_t>(MsgType::kError); ++tag) {
    std::vector<uint8_t> body = {tag, 0xff, 0x00, tag};
    AppendFrame(static_cast<MsgType>(tag), /*request_id=*/100 + tag, body,
                &wire);
  }

  size_t offset = 0;
  for (uint8_t tag = static_cast<uint8_t>(MsgType::kHello);
       tag <= static_cast<uint8_t>(MsgType::kError); ++tag) {
    Frame frame;
    size_t consumed = 0;
    NetError error;
    ASSERT_EQ(ParseFrame(wire.data() + offset, wire.size() - offset, &frame,
                         &consumed, &error),
              FrameParse::kFrame);
    EXPECT_EQ(frame.type, static_cast<MsgType>(tag));
    EXPECT_EQ(frame.request_id, 100u + tag);
    EXPECT_EQ(frame.body, (std::vector<uint8_t>{tag, 0xff, 0x00, tag}));
    offset += consumed;
  }
  EXPECT_EQ(offset, wire.size());
}

TEST(WireFraming, EveryTruncationAsksForMoreWithoutConsuming) {
  std::vector<uint8_t> wire;
  AppendFrame(MsgType::kStart, 7, {1, 2, 3, 4, 5}, &wire);

  // Every strict prefix of a valid frame is an incomplete read in progress:
  // kNeedMore, nothing consumed, no error. (This is what the streaming
  // reader loop in rpc_backend.cc leans on.)
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 1;
    NetError error;
    EXPECT_EQ(ParseFrame(wire.data(), len, &frame, &consumed, &error),
              FrameParse::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireFraming, OversizedLengthPrefixIsATypedError) {
  std::vector<uint8_t> wire;
  WireWriter writer(&wire);
  writer.U32(static_cast<uint32_t>(kMaxFramePayload) + 1);
  // No matter how much garbage follows, the prefix alone condemns the
  // stream — and no allocation of prefix size ever happens.
  wire.resize(wire.size() + 64, 0xab);

  Frame frame;
  size_t consumed = 0;
  NetError error;
  EXPECT_EQ(ParseFrame(wire.data(), wire.size(), &frame, &consumed, &error),
            FrameParse::kError);
  EXPECT_EQ(error.code, NetErrorCode::kProtocolError);
  EXPECT_EQ(consumed, 0u);
}

TEST(WireFraming, UndersizedPayloadIsATypedError) {
  // A frame must at least hold the tag and request id (9 bytes).
  std::vector<uint8_t> wire;
  WireWriter writer(&wire);
  writer.U32(8);
  wire.resize(wire.size() + 8, 0);

  Frame frame;
  size_t consumed = 0;
  NetError error;
  EXPECT_EQ(ParseFrame(wire.data(), wire.size(), &frame, &consumed, &error),
            FrameParse::kError);
  EXPECT_EQ(error.code, NetErrorCode::kProtocolError);
}

TEST(WireFraming, UnknownMessageTagIsATypedError) {
  for (const uint8_t bad_tag :
       {static_cast<uint8_t>(0),
        static_cast<uint8_t>(static_cast<uint8_t>(MsgType::kError) + 1),
        static_cast<uint8_t>(0xff)}) {
    std::vector<uint8_t> wire;
    AppendFrame(MsgType::kHello, 1, {}, &wire);
    wire[4] = bad_tag;  // overwrite the tag byte behind the length prefix

    Frame frame;
    size_t consumed = 0;
    NetError error;
    EXPECT_EQ(ParseFrame(wire.data(), wire.size(), &frame, &consumed, &error),
              FrameParse::kError)
        << "tag " << int(bad_tag);
    EXPECT_EQ(error.code, NetErrorCode::kProtocolError);
  }
}

// ------------------------------ handshake -----------------------------------

TEST(WireHandshake, AcceptsCurrentRejectsForeignAndFuture) {
  EXPECT_TRUE(CheckHandshake(kWireMagic, kWireVersion).ok());
  // Not a gauss shard at all.
  EXPECT_EQ(CheckHandshake(0x0123456789abcdefull, kWireVersion).code,
            NetErrorCode::kProtocolMismatch);
  // A future protocol version must be refused up front (versioning rule:
  // any format change bumps kWireVersion; there is no in-version
  // extensibility to fall back on).
  EXPECT_EQ(CheckHandshake(kWireMagic, kWireVersion + 1).code,
            NetErrorCode::kProtocolMismatch);
  EXPECT_EQ(CheckHandshake(kWireMagic, 0).code,
            NetErrorCode::kProtocolMismatch);
  // Version 2 query and io-stats bodies carried read-ahead fields that
  // version 3 dropped: a v2 peer must be refused, not misparsed.
  EXPECT_EQ(kWireVersion, 3u);
  EXPECT_EQ(CheckHandshake(kWireMagic, 2).code,
            NetErrorCode::kProtocolMismatch);
}

TEST(WireHandshake, HelloAndAckRoundTrip) {
  WireHello hello;
  std::vector<uint8_t> body;
  EncodeHello(hello, &body);
  WireHello hello2;
  hello2.magic = 0;
  hello2.version = 0;
  ASSERT_TRUE(DecodeHello(body.data(), body.size(), &hello2).ok());
  EXPECT_EQ(hello2.magic, kWireMagic);
  EXPECT_EQ(hello2.version, kWireVersion);

  WireHelloAck ack;
  ack.dim = 12;
  ack.tree_size = 123456789;
  body.clear();
  EncodeHelloAck(ack, &body);
  WireHelloAck ack2;
  ASSERT_TRUE(DecodeHelloAck(body.data(), body.size(), &ack2).ok());
  EXPECT_EQ(ack2.dim, 12u);
  EXPECT_EQ(ack2.tree_size, 123456789u);
}

// ----------------------- body truncation/trailing sweep ---------------------

// Every strict prefix of a valid body must decode to a typed protocol error
// (never a crash, never a false success), and one trailing byte must too —
// trailing garbage means the peers disagree about the format.
template <typename DecodeFn>
void SweepMalformedBodies(const std::vector<uint8_t>& valid, DecodeFn decode) {
  for (size_t len = 0; len < valid.size(); ++len) {
    const NetError error = decode(valid.data(), len);
    EXPECT_EQ(error.code, NetErrorCode::kProtocolError)
        << "prefix length " << len << " of " << valid.size();
  }
  std::vector<uint8_t> trailing = valid;
  trailing.push_back(0x5a);
  EXPECT_EQ(decode(trailing.data(), trailing.size()).code,
            NetErrorCode::kProtocolError);
}

// ------------------------------ start/query ---------------------------------

TEST(WireMessages, StartRoundTripsMliqBitExactly) {
  // Pfv validates mu finite and sigma positive-finite, so the probe sticks to
  // the legal-but-bit-tricky corners: negative zero, the largest finite
  // double, the smallest normal, and the smallest denormal. The full nasty
  // set (NaN, infinities) rides in StartReplyRoundTripsBitExactly, whose
  // ScoredObject payloads are unvalidated.
  Pfv probe(42, {kNastyDoubles[1], kNastyDoubles[6], kNastyDoubles[7]},
            {kNastyDoubles[2], kNastyDoubles[6], -kNastyDoubles[7]});
  MliqOptions options;
  options.probability_accuracy = 3.25e-4;
  options.refine_probabilities = false;
  options.denominator_target_gap = kNastyDoubles[7];  // smallest normal
  options.density_floor_log = -kNastyDoubles[6];      // largest-magnitude log
  const Query query = Query::Mliq(probe, /*k=*/5, options);

  std::vector<uint8_t> body;
  EncodeStart(/*traversal=*/0xdeadbeefcafef00dull, query, &body);

  WireStart start;
  ASSERT_TRUE(DecodeStart(body.data(), body.size(), &start).ok());
  EXPECT_EQ(start.traversal, 0xdeadbeefcafef00dull);
  ASSERT_TRUE(start.query.has_value());
  EXPECT_EQ(start.query->kind(), QueryKind::kMliq);
  EXPECT_EQ(start.query->k(), 5u);
  EXPECT_EQ(start.query->pfv().id, 42u);
  ASSERT_EQ(start.query->pfv().dim(), 3u);
  for (size_t d = 0; d < 3; ++d) {
    ExpectBitsEqual(start.query->pfv().mu[d], probe.mu[d]);
    ExpectBitsEqual(start.query->pfv().sigma[d], probe.sigma[d]);
  }
  ExpectBitsEqual(start.query->mliq_options().probability_accuracy, 3.25e-4);
  EXPECT_FALSE(start.query->mliq_options().refine_probabilities);
  // The coordinator's mass-proportional budget must survive bit-exactly —
  // byte-identical RPC/in-process answers hinge on identical targets.
  ExpectBitsEqual(start.query->mliq_options().denominator_target_gap,
                  kNastyDoubles[7]);
  ExpectBitsEqual(start.query->mliq_options().density_floor_log,
                  -kNastyDoubles[6]);
  EXPECT_FALSE(start.query->has_deadline());

  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    WireStart out;
    return DecodeStart(data, size, &out);
  });
}

TEST(WireMessages, StartRoundTripsTiqAndDeadlineBudget) {
  Pfv probe(7, {0.25, -0.5}, {0.125, 2.0});
  TiqOptions options;
  options.exact_membership = false;
  options.refine_probabilities = true;
  options.probability_accuracy = 1e-2;
  options.denominator_target_gap = 6.5e-7;
  options.denominator_floor = 1.0 + 0x1p-52;  // off-by-one-ulp detector
  const Query query = Query::Tiq(probe, /*threshold=*/0.2, options)
                          .DeadlineAfter(std::chrono::milliseconds(500));

  std::vector<uint8_t> body;
  EncodeStart(/*traversal=*/3, query, &body);

  WireStart start;
  ASSERT_TRUE(DecodeStart(body.data(), body.size(), &start).ok());
  ASSERT_TRUE(start.query.has_value());
  EXPECT_EQ(start.query->kind(), QueryKind::kTiq);
  ExpectBitsEqual(start.query->threshold(), 0.2);
  EXPECT_FALSE(start.query->tiq_options().exact_membership);
  EXPECT_TRUE(start.query->tiq_options().refine_probabilities);
  ExpectBitsEqual(start.query->tiq_options().denominator_target_gap, 6.5e-7);
  ExpectBitsEqual(start.query->tiq_options().denominator_floor,
                  1.0 + 0x1p-52);
  // The deadline travels as a relative budget and re-anchors on the
  // receiver's clock: still present, due within the original 500 ms.
  ASSERT_TRUE(start.query->has_deadline());
  const auto remaining =
      start.query->deadline() - std::chrono::steady_clock::now();
  EXPECT_LE(remaining, std::chrono::milliseconds(500));
  EXPECT_GT(remaining, std::chrono::milliseconds(0));
}

TEST(WireMessages, StartRejectsUnknownQueryKind) {
  std::vector<uint8_t> body;
  EncodeStart(1, Query::Mliq(Pfv(1, {0.5}, {0.1}), 1), &body);
  body[8] = 0x7f;  // query kind byte sits right after the traversal handle
  WireStart out;
  EXPECT_EQ(DecodeStart(body.data(), body.size(), &out).code,
            NetErrorCode::kProtocolError);
}

TEST(WireMessages, StartRejectsHostileDimensionality) {
  // A 4 GiB-implying dimension count with an empty remainder must be
  // rejected by the plausibility check, not resized into an allocation.
  std::vector<uint8_t> body;
  WireWriter writer(&body);
  writer.U64(1);                // traversal
  writer.U8(0);                 // kMliq
  writer.U64(99);               // pfv id
  writer.U32(0x3fffffffu);      // dim: a lie
  WireStart out;
  EXPECT_EQ(DecodeStart(body.data(), body.size(), &out).code,
            NetErrorCode::kProtocolError);
}

// ------------------------------ start reply ---------------------------------

TEST(WireMessages, StartReplyRoundTripsBitExactly) {
  ShardPartial partial;
  partial.log_ref = kNastyDoubles[4];
  partial.tree_size = 1234;
  partial.denominator_lo = kNastyDoubles[2];
  partial.denominator_hi = kNastyDoubles[6];
  partial.exhausted = false;
  partial.nodes_visited = 11;
  partial.leaf_nodes_visited = 7;
  partial.objects_evaluated = 999;
  for (size_t i = 0; i < 8; ++i) {
    partial.items.push_back(
        {/*id=*/1000 + i, kNastyDoubles[i], kNastyDoubles[7 - i]});
  }

  std::vector<uint8_t> body;
  EncodeStartReply(partial, &body);
  ShardPartial decoded;
  ASSERT_TRUE(DecodeStartReply(body.data(), body.size(), &decoded).ok());
  ExpectBitsEqual(decoded.log_ref, partial.log_ref);
  EXPECT_EQ(decoded.tree_size, partial.tree_size);
  ExpectBitsEqual(decoded.denominator_lo, partial.denominator_lo);
  ExpectBitsEqual(decoded.denominator_hi, partial.denominator_hi);
  EXPECT_EQ(decoded.exhausted, partial.exhausted);
  EXPECT_EQ(decoded.nodes_visited, partial.nodes_visited);
  EXPECT_EQ(decoded.leaf_nodes_visited, partial.leaf_nodes_visited);
  EXPECT_EQ(decoded.objects_evaluated, partial.objects_evaluated);
  ASSERT_EQ(decoded.items.size(), partial.items.size());
  for (size_t i = 0; i < partial.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].id, partial.items[i].id);
    ExpectBitsEqual(decoded.items[i].scaled_density,
                    partial.items[i].scaled_density);
    ExpectBitsEqual(decoded.items[i].log_density,
                    partial.items[i].log_density);
  }

  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    ShardPartial out;
    return DecodeStartReply(data, size, &out);
  });
}

TEST(WireMessages, StartReplyRejectsHostileItemCount) {
  ShardPartial partial;
  std::vector<uint8_t> body;
  EncodeStartReply(partial, &body);
  // Rewrite the trailing item count (last 4 bytes of an item-less reply).
  body[body.size() - 4] = 0xff;
  body[body.size() - 3] = 0xff;
  body[body.size() - 2] = 0xff;
  body[body.size() - 1] = 0x7f;
  ShardPartial out;
  EXPECT_EQ(DecodeStartReply(body.data(), body.size(), &out).code,
            NetErrorCode::kProtocolError);
}

// ----------------------------- refine round ---------------------------------

TEST(WireMessages, RefineAndReplyRoundTrip) {
  std::vector<RefineSpec> specs = {{1, 0.5}, {2, kNastyDoubles[2]},
                                   {0xffffffffffffffffull, 0.0}};
  std::vector<uint8_t> body;
  EncodeRefine(specs, &body);
  std::vector<RefineSpec> specs2;
  ASSERT_TRUE(DecodeRefine(body.data(), body.size(), &specs2).ok());
  ASSERT_EQ(specs2.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs2[i].traversal, specs[i].traversal);
    ExpectBitsEqual(specs2[i].max_gap, specs[i].max_gap);
  }
  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    std::vector<RefineSpec> out;
    return DecodeRefine(data, size, &out);
  });

  std::vector<RefineUpdate> updates(2);
  updates[0] = {kNastyDoubles[1], kNastyDoubles[6], true, 4, 2, 100};
  updates[1] = {0.25, 0.75, false, 40, 20, 1000};
  body.clear();
  EncodeRefineReply(updates, &body);
  std::vector<RefineUpdate> updates2;
  ASSERT_TRUE(DecodeRefineReply(body.data(), body.size(), &updates2).ok());
  ASSERT_EQ(updates2.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ExpectBitsEqual(updates2[i].denominator_lo, updates[i].denominator_lo);
    ExpectBitsEqual(updates2[i].denominator_hi, updates[i].denominator_hi);
    EXPECT_EQ(updates2[i].exhausted, updates[i].exhausted);
    EXPECT_EQ(updates2[i].nodes_visited, updates[i].nodes_visited);
    EXPECT_EQ(updates2[i].leaf_nodes_visited, updates[i].leaf_nodes_visited);
    EXPECT_EQ(updates2[i].objects_evaluated, updates[i].objects_evaluated);
  }
  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    std::vector<RefineUpdate> out;
    return DecodeRefineReply(data, size, &out);
  });
}

// ------------------------------- release ------------------------------------

TEST(WireMessages, ReleaseRoundTrips) {
  const std::vector<uint64_t> handles = {3, 1, 0xffffffffffffffffull};
  std::vector<uint8_t> body;
  EncodeRelease(handles, &body);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeRelease(body.data(), body.size(), &decoded).ok());
  EXPECT_EQ(decoded, handles);
  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    std::vector<uint64_t> out;
    return DecodeRelease(data, size, &out);
  });
}

// -------------------------------- stats -------------------------------------

TEST(WireMessages, StatsReplyRoundTripsEveryCounter) {
  IoStats io;
  io.logical_reads = 1;
  io.physical_reads = 2;
  io.physical_writes = 3;
  io.evictions = 4;
  ServiceStats service;
  service.mliq_queries = 10;
  service.tiq_queries = 11;
  service.shed_queries = 12;
  service.deadline_exceeded_queries = 13;
  service.shard_error_queries = 14;
  service.refine_rounds = 15;
  service.refine_batched_queries = 16;
  service.wall_seconds = 1.5;
  service.qps = 14.0;
  service.latency = {21, 1.0, 2.0, 3.0, 4.0, kNastyDoubles[6]};
  service.io = io;
  service.nodes_visited = 31;
  service.leaf_nodes_visited = 32;
  service.objects_evaluated = 33;

  std::vector<uint8_t> body;
  EncodeStatsReply(io, service, &body);
  IoStats io2;
  ServiceStats service2;
  ASSERT_TRUE(DecodeStatsReply(body.data(), body.size(), &io2, &service2).ok());
  EXPECT_EQ(io2.logical_reads, 1u);
  EXPECT_EQ(io2.physical_reads, 2u);
  EXPECT_EQ(io2.physical_writes, 3u);
  EXPECT_EQ(io2.evictions, 4u);
  EXPECT_EQ(service2.mliq_queries, 10u);
  EXPECT_EQ(service2.tiq_queries, 11u);
  EXPECT_EQ(service2.shed_queries, 12u);
  EXPECT_EQ(service2.deadline_exceeded_queries, 13u);
  EXPECT_EQ(service2.shard_error_queries, 14u);
  EXPECT_EQ(service2.refine_rounds, 15u);
  EXPECT_EQ(service2.refine_batched_queries, 16u);
  ExpectBitsEqual(service2.wall_seconds, 1.5);
  EXPECT_EQ(service2.latency.count, 21u);
  ExpectBitsEqual(service2.latency.max_us, kNastyDoubles[6]);
  EXPECT_EQ(service2.io.evictions, 4u);
  EXPECT_EQ(service2.objects_evaluated, 33u);

  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    IoStats io_out;
    ServiceStats service_out;
    return DecodeStatsReply(data, size, &io_out, &service_out);
  });
}

// ----------------------------- sketch reply ---------------------------------

TEST(WireMessages, SketchReplyRoundTripsBitExactly) {
  ShardSketch sketch;
  sketch.tree_size = 1234;
  sketch.sigma_policy = SigmaPolicy::kAdditive;
  sketch.root_bounds = {{kNastyDoubles[1], kNastyDoubles[6], 0.25, 2.0},
                        {-1.5, 1.5, kNastyDoubles[2], kNastyDoubles[6]}};
  sketch.entries.push_back(
      {400, {{0.0, 0.5, 0.1, 0.2}, {kNastyDoubles[7], 0.0, 0.1, 0.1}}});
  sketch.entries.push_back(
      {834, {{-2.0, -1.0, 0.5, 0.5}, {3.0, 4.0, 0.25, 1.0}}});

  std::vector<uint8_t> body;
  EncodeSketchReply(sketch, /*dim=*/2, &body);

  ShardSketch out;
  ASSERT_TRUE(DecodeSketchReply(body.data(), body.size(), &out).ok());
  EXPECT_EQ(out.tree_size, 1234u);
  EXPECT_EQ(out.sigma_policy, SigmaPolicy::kAdditive);
  ASSERT_EQ(out.root_bounds.size(), 2u);
  ASSERT_EQ(out.entries.size(), 2u);
  for (size_t d = 0; d < 2; ++d) {
    ExpectBitsEqual(out.root_bounds[d].mu_lo, sketch.root_bounds[d].mu_lo);
    ExpectBitsEqual(out.root_bounds[d].mu_hi, sketch.root_bounds[d].mu_hi);
    ExpectBitsEqual(out.root_bounds[d].sigma_lo,
                    sketch.root_bounds[d].sigma_lo);
    ExpectBitsEqual(out.root_bounds[d].sigma_hi,
                    sketch.root_bounds[d].sigma_hi);
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.entries[i].count, sketch.entries[i].count);
    ASSERT_EQ(out.entries[i].bounds.size(), 2u);
    for (size_t d = 0; d < 2; ++d) {
      ExpectBitsEqual(out.entries[i].bounds[d].mu_lo,
                      sketch.entries[i].bounds[d].mu_lo);
      ExpectBitsEqual(out.entries[i].bounds[d].sigma_hi,
                      sketch.entries[i].bounds[d].sigma_hi);
    }
  }

  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    ShardSketch s;
    return DecodeSketchReply(data, size, &s);
  });
}

TEST(WireMessages, SketchReplyRoundTripsEmptyShard) {
  ShardSketch empty;  // tree_size 0: no bounds, no entries travel
  std::vector<uint8_t> body;
  EncodeSketchReply(empty, /*dim=*/5, &body);
  ShardSketch out;
  out.entries.push_back({1, {}});  // must be cleared by the decoder
  ASSERT_TRUE(DecodeSketchReply(body.data(), body.size(), &out).ok());
  EXPECT_EQ(out.tree_size, 0u);
  EXPECT_TRUE(out.root_bounds.empty());
  EXPECT_TRUE(out.entries.empty());
}

TEST(WireMessages, SketchReplyRejectsHostileCountsAndPolicy) {
  // Hostile dimensionality: a 4 GiB-implying dim with an empty remainder.
  {
    std::vector<uint8_t> body;
    WireWriter writer(&body);
    writer.U64(10);          // tree_size
    writer.U8(0);            // policy
    writer.U32(0x3fffffffu); // dim: a lie
    ShardSketch out;
    EXPECT_EQ(DecodeSketchReply(body.data(), body.size(), &out).code,
              NetErrorCode::kProtocolError);
  }
  // Hostile entry count.
  {
    std::vector<uint8_t> body;
    WireWriter writer(&body);
    writer.U64(10);
    writer.U8(0);
    writer.U32(1);  // dim 1
    for (int i = 0; i < 4; ++i) writer.F64(0.5);  // root bounds
    writer.U32(0x7fffffffu);  // entry count: a lie
    ShardSketch out;
    EXPECT_EQ(DecodeSketchReply(body.data(), body.size(), &out).code,
              NetErrorCode::kProtocolError);
  }
  // Unknown sigma policy.
  {
    ShardSketch sketch;
    sketch.tree_size = 1;
    sketch.root_bounds = {{0.0, 1.0, 0.1, 0.2}};
    sketch.entries.push_back({1, {{0.0, 1.0, 0.1, 0.2}}});
    std::vector<uint8_t> body;
    EncodeSketchReply(sketch, /*dim=*/1, &body);
    body[8] = 0x7f;  // the policy byte sits right after tree_size
    ShardSketch out;
    EXPECT_EQ(DecodeSketchReply(body.data(), body.size(), &out).code,
              NetErrorCode::kProtocolError);
  }
  // A non-empty tree claiming zero dimensions is malformed, not "no bounds".
  {
    std::vector<uint8_t> body;
    WireWriter writer(&body);
    writer.U64(10);
    writer.U8(0);
    writer.U32(0);  // dim 0 with tree_size > 0
    ShardSketch out;
    EXPECT_EQ(DecodeSketchReply(body.data(), body.size(), &out).code,
              NetErrorCode::kProtocolError);
  }
}

// -------------------------------- error -------------------------------------

TEST(WireMessages, ErrorRoundTripsCodeAndMessage) {
  NetError error{NetErrorCode::kPeerClosed, "shard went away"};
  std::vector<uint8_t> body;
  EncodeError(error, &body);
  NetError decoded;
  ASSERT_TRUE(DecodeError(body.data(), body.size(), &decoded).ok());
  EXPECT_EQ(decoded.code, NetErrorCode::kPeerClosed);
  EXPECT_EQ(decoded.message, "shard went away");

  SweepMalformedBodies(body, [](const uint8_t* data, size_t size) {
    NetError out;
    return DecodeError(data, size, &out);
  });

  // kCorrupt (a damaged shard page) is the newest code; one past it is not.
  body.clear();
  EncodeError({NetErrorCode::kCorrupt, "bad page"}, &body);
  ASSERT_TRUE(DecodeError(body.data(), body.size(), &decoded).ok());
  EXPECT_EQ(decoded.code, NetErrorCode::kCorrupt);
  body[0] = static_cast<uint8_t>(NetErrorCode::kCorrupt) + 1;
  EXPECT_EQ(DecodeError(body.data(), body.size(), &decoded).code,
            NetErrorCode::kProtocolError);
}

}  // namespace
}  // namespace gauss
