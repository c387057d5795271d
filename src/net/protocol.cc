#include "net/protocol.h"

#include <algorithm>
#include <bit>

#include "util/little_endian.h"

namespace hetsched::net {

namespace {

bool known_request_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kAdmit) &&
         t <= static_cast<std::uint8_t>(MsgType::kGetTracez);
}

bool info_request_type(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(MsgType::kGetStats) ||
         t == static_cast<std::uint8_t>(MsgType::kGetTracez);
}

bool known_status(std::uint8_t s) {
  return s <= static_cast<std::uint8_t>(Status::kInfo);
}

}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kAdmit:
      return "admit";
    case MsgType::kDepart:
      return "depart";
    case MsgType::kRebalance:
      return "rebalance";
    case MsgType::kSplitShard:
      return "split-shard";
    case MsgType::kMergeShards:
      return "merge-shards";
    case MsgType::kGetStats:
      return "get-stats";
    case MsgType::kGetTracez:
      return "get-tracez";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kAdmitted:
      return "admitted";
    case Status::kRejected:
      return "rejected";
    case Status::kRetryLater:
      return "retry-later";
    case Status::kDeparted:
      return "departed";
    case Status::kStaleId:
      return "stale-id";
    case Status::kRebalanced:
      return "rebalanced";
    case Status::kRebalanceSkipped:
      return "rebalance-skipped";
    case Status::kBadRequest:
      return "bad-request";
    case Status::kBadShard:
      return "bad-shard";
    case Status::kResized:
      return "resized";
    case Status::kResizeFailed:
      return "resize-failed";
    case Status::kInfo:
      return "info";
  }
  return "?";
}

Request Request::admit(std::uint16_t shard, std::uint64_t request_id,
                       std::int64_t exec, std::int64_t period) {
  Request r;
  r.type = MsgType::kAdmit;
  r.shard = shard;
  r.request_id = request_id;
  r.a = static_cast<std::uint64_t>(exec);
  r.b = static_cast<std::uint64_t>(period);
  return r;
}

Request Request::admit(std::uint16_t shard, std::uint64_t request_id,
                       std::int64_t exec, std::int64_t period,
                       std::int64_t deadline) {
  Request r = admit(shard, request_id, exec, period);
  r.deadline = static_cast<std::uint64_t>(deadline);
  return r;
}

Request Request::depart(std::uint16_t shard, std::uint64_t request_id,
                        std::uint64_t task_id) {
  Request r;
  r.type = MsgType::kDepart;
  r.shard = shard;
  r.request_id = request_id;
  r.a = task_id;
  return r;
}

Request Request::rebalance(std::uint16_t shard, std::uint64_t request_id) {
  Request r;
  r.type = MsgType::kRebalance;
  r.shard = shard;
  r.request_id = request_id;
  return r;
}

Request Request::split(std::uint16_t shard, std::uint64_t request_id) {
  Request r;
  r.type = MsgType::kSplitShard;
  r.shard = shard;
  r.request_id = request_id;
  return r;
}

Request Request::merge(std::uint16_t source_shard, std::uint16_t target_shard,
                       std::uint64_t request_id) {
  Request r;
  r.type = MsgType::kMergeShards;
  r.shard = source_shard;
  r.request_id = request_id;
  r.a = target_shard;
  return r;
}

Request Request::get_stats(std::uint64_t request_id) {
  Request r;
  r.type = MsgType::kGetStats;
  r.request_id = request_id;
  return r;
}

Request Request::get_tracez(std::uint64_t request_id, std::uint64_t slowest) {
  Request r;
  r.type = MsgType::kGetTracez;
  r.request_id = request_id;
  r.a = slowest;
  return r;
}

double Response::utilization() const { return std::bit_cast<double>(value); }

// HETSCHED_NOALLOC (per-frame encode on the shard hot path)
std::size_t encode_request(const Request& r, unsigned char* buf) {
  // One wire image per request: a nonzero deadline selects the 48-byte
  // minor-3 form (trace id included even if zero), otherwise a nonzero
  // trace id selects the 40-byte form, otherwise the compact frame.
  const bool with_deadline = r.deadline != 0;
  const bool traced = r.trace_id != 0;
  const std::size_t payload = with_deadline ? kDeadlinePayloadSize
                              : traced      ? kTracedPayloadSize
                                            : kPayloadSize;
  put_u32(buf, static_cast<std::uint32_t>(payload));
  unsigned char* p = buf + kHeaderSize;
  p[0] = kProtocolVersion;
  p[1] = static_cast<unsigned char>(r.type);
  put_u16(p + 2, r.shard);
  put_u32(p + 4, 0);
  put_u64(p + 8, r.request_id);
  put_u64(p + 16, r.a);
  put_u64(p + 24, r.b);
  if (payload > kPayloadSize) put_u64(p + 32, r.trace_id);
  if (with_deadline) put_u64(p + 40, r.deadline);
  return kHeaderSize + payload;
}

// HETSCHED_NOALLOC (per-frame encode on the shard hot path)
std::size_t encode_response(const Response& r, unsigned char* buf) {
  put_u32(buf, static_cast<std::uint32_t>(kPayloadSize));
  unsigned char* p = buf + kHeaderSize;
  p[0] = kProtocolVersion;
  p[1] = static_cast<unsigned char>(static_cast<std::uint8_t>(r.type) |
                                    kResponseBit);
  p[2] = static_cast<unsigned char>(r.status);
  p[3] = 0;
  put_u32(p + 4, r.machine);
  put_u64(p + 8, r.request_id);
  put_u64(p + 16, r.task_id);
  put_u64(p + 24, r.value);
  return kFrameSize;
}

// HETSCHED_NOALLOC (per-frame decode on the server read path)
DecodeResult decode_request(const unsigned char* buf, std::size_t len,
                            Request* out, std::size_t* consumed) {
  if (len < kHeaderSize) return DecodeResult::kNeedMore;
  const std::uint32_t payload = get_u32(buf);
  if (payload != kPayloadSize && payload != kTracedPayloadSize &&
      payload != kDeadlinePayloadSize) {
    return DecodeResult::kBad;
  }
  const std::size_t frame = kHeaderSize + payload;
  if (len < frame) return DecodeResult::kNeedMore;
  const unsigned char* p = buf + kHeaderSize;
  if (p[0] != kProtocolVersion) return DecodeResult::kBad;
  if (!known_request_type(p[1])) return DecodeResult::kBad;
  if (get_u32(p + 4) != 0) return DecodeResult::kBad;
  out->type = static_cast<MsgType>(p[1]);
  out->shard = get_u16(p + 2);
  out->request_id = get_u64(p + 8);
  out->a = get_u64(p + 16);
  out->b = get_u64(p + 24);
  out->trace_id = 0;
  out->deadline = 0;
  if (payload == kTracedPayloadSize) {
    out->trace_id = get_u64(p + 32);
    // A zero trace id in the extended payload is non-canonical (the
    // compact frame is the untraced image), so reject it — this keeps
    // encode(decode(x)) byte-exact for every accepted frame.
    if (out->trace_id == 0) return DecodeResult::kBad;
  } else if (payload == kDeadlinePayloadSize) {
    // Minor-3 form: kAdmit only, deadline must be nonzero (the shorter
    // frames are the implicit-deadline images), trace id may be zero.
    if (out->type != MsgType::kAdmit) return DecodeResult::kBad;
    out->trace_id = get_u64(p + 32);
    out->deadline = get_u64(p + 40);
    if (out->deadline == 0) return DecodeResult::kBad;
  }
  *consumed = frame;
  return DecodeResult::kOk;
}

// HETSCHED_NOALLOC (per-frame decode on the client read path)
DecodeResult decode_response(const unsigned char* buf, std::size_t len,
                             Response* out, std::size_t* consumed) {
  if (len < kHeaderSize) return DecodeResult::kNeedMore;
  const std::uint32_t payload = get_u32(buf);
  if (payload != kPayloadSize) return DecodeResult::kBad;
  if (len < kFrameSize) return DecodeResult::kNeedMore;
  const unsigned char* p = buf + kHeaderSize;
  if (p[0] != kProtocolVersion) return DecodeResult::kBad;
  const std::uint8_t raw = p[1];
  if ((raw & kResponseBit) == 0 ||
      !known_request_type(raw & static_cast<std::uint8_t>(~kResponseBit))) {
    return DecodeResult::kBad;
  }
  if (!known_status(p[2]) || p[3] != 0) return DecodeResult::kBad;
  out->type = static_cast<MsgType>(raw & static_cast<std::uint8_t>(~kResponseBit));
  out->status = static_cast<Status>(p[2]);
  out->machine = get_u32(p + 4);
  out->request_id = get_u64(p + 8);
  out->task_id = get_u64(p + 16);
  out->value = get_u64(p + 24);
  *consumed = kFrameSize;
  return DecodeResult::kOk;
}

// Cold path (introspection only): allocation is fine here.
void encode_info_response(const InfoResponse& r,
                          std::vector<unsigned char>* out) {
  const std::size_t text_len = std::min(r.text.size(), kMaxInfoText);
  const std::size_t payload = kInfoPrefixSize + text_len;
  const std::size_t base = out->size();
  out->resize(base + kHeaderSize + payload);
  unsigned char* buf = out->data() + base;
  put_u32(buf, static_cast<std::uint32_t>(payload));
  unsigned char* p = buf + kHeaderSize;
  p[0] = kProtocolVersion;
  p[1] = static_cast<unsigned char>(static_cast<std::uint8_t>(r.type) |
                                    kResponseBit);
  p[2] = static_cast<unsigned char>(Status::kInfo);
  p[3] = 0;
  put_u32(p + 4, static_cast<std::uint32_t>(text_len));
  put_u64(p + 8, r.request_id);
  put_u64(p + 16, r.value);
  put_u64(p + 24, 0);
  if (text_len != 0) {
    std::copy_n(reinterpret_cast<const unsigned char*>(r.text.data()),
                text_len, p + kInfoPrefixSize);
  }
}

DecodeResult decode_info_response(const unsigned char* buf, std::size_t len,
                                  InfoResponse* out, std::size_t* consumed) {
  if (len < kHeaderSize) return DecodeResult::kNeedMore;
  const std::uint32_t payload = get_u32(buf);
  if (payload < kInfoPrefixSize ||
      payload > kInfoPrefixSize + kMaxInfoText) {
    return DecodeResult::kBad;
  }
  const std::size_t frame = kHeaderSize + payload;
  if (len < frame) return DecodeResult::kNeedMore;
  const unsigned char* p = buf + kHeaderSize;
  if (p[0] != kProtocolVersion) return DecodeResult::kBad;
  const std::uint8_t raw = p[1];
  if ((raw & kResponseBit) == 0 ||
      !info_request_type(raw & static_cast<std::uint8_t>(~kResponseBit))) {
    return DecodeResult::kBad;
  }
  if (p[2] != static_cast<std::uint8_t>(Status::kInfo) || p[3] != 0) {
    return DecodeResult::kBad;
  }
  if (get_u32(p + 4) != payload - kInfoPrefixSize) return DecodeResult::kBad;
  if (get_u64(p + 24) != 0) return DecodeResult::kBad;
  out->type = static_cast<MsgType>(raw & static_cast<std::uint8_t>(~kResponseBit));
  out->request_id = get_u64(p + 8);
  out->value = get_u64(p + 16);
  out->text.assign(reinterpret_cast<const char*>(p + kInfoPrefixSize),
                   payload - kInfoPrefixSize);
  *consumed = frame;
  return DecodeResult::kOk;
}

}  // namespace hetsched::net
