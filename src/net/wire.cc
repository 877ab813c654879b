#include "net/wire.h"

#include <cstring>
#include <limits>
#include <string>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "net/wire_internal.h"

namespace d2pr {
namespace {

using wire_internal::Cursor;
using wire_internal::Truncated;

void AppendU16(std::vector<uint8_t>& out, uint16_t value) {
  out.push_back(static_cast<uint8_t>(value & 0xff));
  out.push_back(static_cast<uint8_t>(value >> 8));
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

Result<std::vector<uint8_t>> EncodeFrame(FrameType type, uint64_t request_id,
                                         std::span<const uint8_t> payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::OutOfRange(StrCat("frame payload of ", payload.size(),
                                     " bytes exceeds the ", kMaxPayloadBytes,
                                     "-byte limit"));
  }
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  AppendU32(out, kWireMagic);
  AppendU16(out, kWireVersion);
  AppendU16(out, static_cast<uint16_t>(type));
  AppendU64(out, request_id);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument(
        StrCat("frame header needs ", kFrameHeaderBytes, " bytes, got ",
               bytes.size()));
  }
  const uint8_t* p = bytes.data();
  FrameHeader header;
  header.payload_len = ReadU32(p);
  const uint32_t magic = ReadU32(p + 4);
  const uint16_t version = ReadU16(p + 8);
  const uint16_t type = ReadU16(p + 10);
  header.request_id = ReadU64(p + 12);
  if (magic != kWireMagic) {
    return Status::InvalidArgument(
        StrCat("bad frame magic ", magic, " (expected ", kWireMagic, ")"));
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported wire version ", version, " (expected ",
               kWireVersion, ")"));
  }
  if (type < static_cast<uint16_t>(FrameType::kRankRequest) ||
      type > static_cast<uint16_t>(FrameType::kSolveEnd)) {
    return Status::InvalidArgument(StrCat("unknown frame type ", type));
  }
  if (header.payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrCat("frame payload length ", header.payload_len,
               " exceeds limit ", kMaxPayloadBytes));
  }
  header.type = static_cast<FrameType>(type);
  return header;
}

std::vector<uint8_t> EncodeRankRequest(const WireRankRequest& wire) {
  const RankRequest& r = wire.request;
  std::vector<uint8_t> out;
  out.reserve(8 * 6 + 4 * 4 + 4 * r.seeds.size() + r.warm_start_tag.size() +
              16);
  AppendU64(out, wire.deadline_ms);
  AppendF64(out, r.p);
  AppendF64(out, r.beta);
  AppendU32(out, static_cast<uint32_t>(r.metric));
  AppendF64(out, r.alpha);
  AppendF64(out, r.tolerance);
  AppendU32(out, static_cast<uint32_t>(r.max_iterations));
  AppendU32(out, static_cast<uint32_t>(r.dangling));
  AppendU32(out, static_cast<uint32_t>(r.method));
  AppendF64(out, r.push_epsilon);
  AppendU64(out, r.seeds.size());
  for (NodeId seed : r.seeds) {
    AppendU32(out, static_cast<uint32_t>(seed));
  }
  AppendU64(out, r.warm_start_tag.size());
  out.insert(out.end(), r.warm_start_tag.begin(), r.warm_start_tag.end());
  // top_k rides as a trailing optional field: appended only when nonzero,
  // so an exact-serving request is byte-identical to the pre-top-k format
  // and an old server keeps accepting it. (A truncated request to an old
  // server fails its trailing-bytes check — the right failure mode, since
  // that server cannot honor the truncation.)
  if (r.top_k != 0) AppendU32(out, static_cast<uint32_t>(r.top_k));
  return out;
}

Result<WireRankRequest> DecodeRankRequest(std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  WireRankRequest wire;
  RankRequest& r = wire.request;
  uint32_t metric = 0;
  uint32_t max_iterations = 0;
  uint32_t dangling = 0;
  uint32_t method = 0;
  uint64_t num_seeds = 0;
  if (!cursor.ReadU64(&wire.deadline_ms) || !cursor.ReadF64(&r.p) ||
      !cursor.ReadF64(&r.beta) || !cursor.ReadU32(&metric) ||
      !cursor.ReadF64(&r.alpha) || !cursor.ReadF64(&r.tolerance) ||
      !cursor.ReadU32(&max_iterations) || !cursor.ReadU32(&dangling) ||
      !cursor.ReadU32(&method) || !cursor.ReadF64(&r.push_epsilon) ||
      !cursor.ReadU64(&num_seeds)) {
    return Truncated("RankRequest");
  }
  if (metric > static_cast<uint32_t>(DegreeMetric::kInDegree)) {
    return Status::InvalidArgument(StrCat("bad DegreeMetric ", metric));
  }
  if (dangling > static_cast<uint32_t>(DanglingPolicy::kRenormalize)) {
    return Status::InvalidArgument(StrCat("bad DanglingPolicy ", dangling));
  }
  if (method > static_cast<uint32_t>(SolverMethod::kForwardPush)) {
    return Status::InvalidArgument(StrCat("bad SolverMethod ", method));
  }
  // Each seed costs 4 bytes; a count the remaining bytes cannot hold is a
  // lie, caught before the reserve below can allocate against it.
  if (num_seeds > cursor.remaining() / 4) return Truncated("RankRequest");
  r.metric = static_cast<DegreeMetric>(metric);
  r.max_iterations = static_cast<int>(max_iterations);
  r.dangling = static_cast<DanglingPolicy>(dangling);
  r.method = static_cast<SolverMethod>(method);
  r.seeds.reserve(static_cast<size_t>(num_seeds));
  for (uint64_t i = 0; i < num_seeds; ++i) {
    uint32_t seed = 0;
    if (!cursor.ReadU32(&seed)) return Truncated("RankRequest");
    r.seeds.push_back(static_cast<NodeId>(seed));
  }
  uint64_t tag_len = 0;
  if (!cursor.ReadU64(&tag_len) ||
      !cursor.ReadString(tag_len, &r.warm_start_tag)) {
    return Truncated("RankRequest");
  }
  // Optional trailing top_k (see the encoder note): absent means 0, the
  // exact-serving default every pre-top-k frame implies.
  if (cursor.remaining() != 0) {
    uint32_t top_k = 0;
    if (!cursor.ReadU32(&top_k)) return Truncated("RankRequest");
    if (top_k > static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
      return Status::InvalidArgument(StrCat("bad top_k ", top_k));
    }
    r.top_k = static_cast<int>(top_k);
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(
        StrCat("RankRequest payload has ", cursor.remaining(),
               " trailing bytes"));
  }
  return wire;
}

std::vector<uint8_t> EncodeRankResponse(const RankResponse& response) {
  std::vector<uint8_t> out;
  out.reserve(8 * response.scores.size() + 64);
  AppendU64(out, response.scores.size());
  for (double score : response.scores) AppendF64(out, score);
  AppendU32(out, static_cast<uint32_t>(response.method));
  AppendU32(out, static_cast<uint32_t>(response.iterations));
  AppendI64(out, response.pushes);
  AppendF64(out, response.residual);
  // Diagnostic booleans packed into one word; bit order matches the
  // declaration order in RankResponse. Bit 5 gates the truncated top-k
  // section appended below — a response without it is byte-identical to
  // the pre-top-k format.
  uint32_t flags = 0;
  if (response.converged) flags |= 1u << 0;
  if (response.transition_cache_hit) flags |= 1u << 1;
  if (response.transition_store_hit) flags |= 1u << 2;
  if (response.warm_start_hit) flags |= 1u << 3;
  if (response.served_partitioned) flags |= 1u << 4;
  if (response.truncated) flags |= 1u << 5;
  AppendU32(out, flags);
  if (response.truncated) {
    AppendU64(out, response.top.size());
    for (const RankedEntry& entry : response.top) {
      AppendU32(out, static_cast<uint32_t>(entry.node));
      AppendF64(out, entry.score);
      out.push_back(entry.certified ? 1 : 0);
    }
    AppendF64(out, response.uncertainty_gap);
  }
  return out;
}

Result<RankResponse> DecodeRankResponse(std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  RankResponse response;
  uint64_t num_scores = 0;
  if (!cursor.ReadU64(&num_scores)) return Truncated("RankResponse");
  if (num_scores > cursor.remaining() / 8) return Truncated("RankResponse");
  response.scores.reserve(static_cast<size_t>(num_scores));
  for (uint64_t i = 0; i < num_scores; ++i) {
    double score = 0.0;
    if (!cursor.ReadF64(&score)) return Truncated("RankResponse");
    response.scores.push_back(score);
  }
  uint32_t method = 0;
  uint32_t iterations = 0;
  uint32_t flags = 0;
  if (!cursor.ReadU32(&method) || !cursor.ReadU32(&iterations) ||
      !cursor.ReadI64(&response.pushes) ||
      !cursor.ReadF64(&response.residual) || !cursor.ReadU32(&flags)) {
    return Truncated("RankResponse");
  }
  if (method > static_cast<uint32_t>(SolverMethod::kForwardPush)) {
    return Status::InvalidArgument(StrCat("bad SolverMethod ", method));
  }
  if (flags > 0x3f) {
    return Status::InvalidArgument(
        StrCat("unknown RankResponse flag bits ", flags));
  }
  response.truncated = (flags & (1u << 5)) != 0;
  if (response.truncated) {
    uint64_t num_entries = 0;
    if (!cursor.ReadU64(&num_entries)) return Truncated("RankResponse");
    // 13 bytes per entry (u32 node + f64 score + u8 certified); a count
    // the remaining bytes cannot hold is a lie, caught before reserve.
    if (num_entries > cursor.remaining() / 13) return Truncated("RankResponse");
    response.top.reserve(static_cast<size_t>(num_entries));
    for (uint64_t i = 0; i < num_entries; ++i) {
      uint32_t node = 0;
      double score = 0.0;
      uint8_t certified = 0;
      if (!cursor.ReadU32(&node) || !cursor.ReadF64(&score) ||
          !cursor.ReadU8(&certified)) {
        return Truncated("RankResponse");
      }
      if (certified > 1) {
        return Status::InvalidArgument(
            StrCat("bad certified byte ", certified));
      }
      response.top.push_back(
          {static_cast<NodeId>(node), score, certified != 0});
    }
    if (!cursor.ReadF64(&response.uncertainty_gap)) {
      return Truncated("RankResponse");
    }
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(
        StrCat("RankResponse payload has ", cursor.remaining(),
               " trailing bytes"));
  }
  response.method = static_cast<SolverMethod>(method);
  response.iterations = static_cast<int>(iterations);
  response.converged = (flags & (1u << 0)) != 0;
  response.transition_cache_hit = (flags & (1u << 1)) != 0;
  response.transition_store_hit = (flags & (1u << 2)) != 0;
  response.warm_start_hit = (flags & (1u << 3)) != 0;
  response.served_partitioned = (flags & (1u << 4)) != 0;
  return response;
}

std::vector<uint8_t> EncodeStatusPayload(const Status& status) {
  std::vector<uint8_t> out;
  const std::string& message = status.message();
  out.reserve(12 + message.size());
  AppendU32(out, static_cast<uint32_t>(status.code()));
  AppendU64(out, message.size());
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

Status DecodeStatusPayload(std::span<const uint8_t> payload, Status* decoded) {
  Cursor cursor(payload);
  uint32_t code = 0;
  uint64_t message_len = 0;
  std::string message;
  if (!cursor.ReadU32(&code) || !cursor.ReadU64(&message_len) ||
      !cursor.ReadString(message_len, &message)) {
    return Truncated("Status");
  }
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument(StrCat("bad StatusCode ", code));
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(
        StrCat("Status payload has ", cursor.remaining(), " trailing bytes"));
  }
  *decoded = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

std::vector<uint8_t> EncodeServerInfo(const ServerInfo& info) {
  std::vector<uint8_t> out;
  out.reserve(32);
  AppendU64(out, info.num_nodes);
  AppendU64(out, info.num_arcs);
  AppendU64(out, info.num_shards);
  AppendU64(out, info.num_threads);
  return out;
}

Result<ServerInfo> DecodeServerInfo(std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  ServerInfo info;
  if (!cursor.ReadU64(&info.num_nodes) || !cursor.ReadU64(&info.num_arcs) ||
      !cursor.ReadU64(&info.num_shards) ||
      !cursor.ReadU64(&info.num_threads)) {
    return Truncated("ServerInfo");
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(
        StrCat("ServerInfo payload has ", cursor.remaining(),
               " trailing bytes"));
  }
  return info;
}

}  // namespace d2pr
