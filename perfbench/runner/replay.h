// In-process traced replay of one shard's request stream: every request
// goes encode_request -> decode_request -> OnlinePartitioner admit/depart
// -> WalWriter append (and commit at the served records-per-commit) ->
// encode_response, with a span around each call under the request's span.
// No sockets, so each layer's cost shows without the network around it.
#pragma once

#include <cstdint>
#include <string>

#include "admit/admission_test.h"
#include "common.h"
#include "core/platform.h"
#include "gen/churn_gen.h"
#include "partition/admission.h"

namespace perfbench {

struct ReplayConfig {
  hetsched::Platform platform;
  hetsched::AdmissionKind kind = hetsched::AdmissionKind::kEdf;
  double alpha = 1.0;
  hetsched::admit::AdmitConfig admit;
  std::string wal_path;           // empty: the served shard had no WAL
  double records_per_commit = 1;  // group-commit size seen by the server
};

struct ReplayResult {
  std::uint64_t checksum = 0;  // client-side FNV-1a fold (net/trace_replay.h)
  std::uint64_t residents_max = 0;
  bool wal_ok = true;
};

// Replays one full pass of `trace` on shard `shard` from a fresh
// controller, recording spans into `spans`.
ReplayResult traced_replay(const ReplayConfig& cfg,
                           const hetsched::ChurnTrace& trace,
                           std::uint16_t shard, SpanLog* spans);

}  // namespace perfbench
