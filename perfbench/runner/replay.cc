#include "replay.h"

#include <bit>
#include <vector>

#include "io/wal.h"
#include "net/protocol.h"
#include "net/trace_replay.h"
#include "online/online_partitioner.h"

namespace perfbench {

namespace net = hetsched::net;

ReplayResult traced_replay(const ReplayConfig& cfg,
                           const hetsched::ChurnTrace& trace,
                           std::uint16_t shard, SpanLog* spans) {
  ReplayResult out;
  out.checksum = net::kFnv1aSeed;
  hetsched::OnlinePartitioner ctl(cfg.platform, cfg.kind, cfg.alpha,
                                  hetsched::PartitionEngine::kAuto, cfg.admit);
  ctl.reserve(trace.arrivals);
  hetsched::io::WalWriter wal;
  if (!cfg.wal_path.empty()) {
    out.wal_ok = wal.open(cfg.wal_path, 1, hetsched::io::WalSync::kOff);
  }
  const auto per_commit = static_cast<std::uint64_t>(
      cfg.records_per_commit < 1 ? 1 : cfg.records_per_commit + 0.5);
  std::uint64_t since_commit = 0;

  struct Slot {
    bool admitted = false;
    std::uint64_t server_id = 0;
  };
  std::vector<Slot> tasks(trace.arrivals);
  unsigned char req_buf[net::kDeadlineFrameSize];
  unsigned char resp_buf[net::kFrameSize];
  std::uint64_t rid = 0;

  for (const hetsched::ChurnEvent& ev : trace.events) {
    Slot& st = tasks[ev.task];
    const bool arrival = ev.kind == hetsched::ChurnEvent::Kind::kArrival;
    if (!arrival && !st.admitted) continue;  // rejected: nothing to depart
    const net::Request req =
        arrival ? net::Request::admit(shard, rid, ev.params.exec,
                                      ev.params.period, ev.params.deadline)
                : net::Request::depart(shard, rid, st.server_id);
    ++rid;
    // One clock read per layer boundary; each span ends where the next
    // begins.
    std::uint64_t t = now_ns();
    const std::uint64_t top = spans->open(SpanName::kReplayRequest, 0, t);
    auto lap = [&](SpanName name, std::uint8_t attr = 0) {
      const std::uint64_t t1 = now_ns();
      spans->record(name, top, t, t1, attr);
      t = t1;
    };

    const std::size_t len = net::encode_request(req, req_buf);
    lap(SpanName::kEncodeRequest);
    net::Request got;
    std::size_t consumed = 0;
    const net::DecodeResult dr =
        net::decode_request(req_buf, len, &got, &consumed);
    lap(SpanName::kDecodeRequest);
    if (dr != net::DecodeResult::kOk) out.wal_ok = false;

    net::Response resp;
    resp.type = got.type;
    resp.request_id = got.request_id;
    if (arrival) {
      const hetsched::Task task{got.exec(), got.period(), got.deadline_val()};
      const hetsched::AdmitDecision d = ctl.admit(task);
      lap(SpanName::kAdmit, d.tier);
      resp.value = std::bit_cast<std::uint64_t>(d.utilization);
      if (d.admitted) {
        resp.status = net::Status::kAdmitted;
        resp.machine = static_cast<std::uint32_t>(d.machine);
        resp.task_id = d.id;
      } else {
        resp.status = net::Status::kRejected;
      }
      if (wal.is_open()) {
        wal.append_admit(got.exec(), got.period(), ctl.decision_seq(),
                         ctl.decision_checksum(), got.deadline_val(), d.tier);
        lap(SpanName::kWalAppend);
      }
    } else {
      resp.status = ctl.depart(got.task_id()) ? net::Status::kDeparted
                                              : net::Status::kStaleId;
      lap(SpanName::kDepart);
      if (wal.is_open()) {
        wal.append_depart(got.task_id(), ctl.decision_seq(),
                          ctl.decision_checksum());
        lap(SpanName::kWalAppend);
      }
    }
    if (wal.is_open() && ++since_commit >= per_commit) {
      if (!wal.commit()) out.wal_ok = false;
      lap(SpanName::kWalCommit);
      since_commit = 0;
    }
    (void)net::encode_response(resp, resp_buf);
    lap(SpanName::kEncodeResponse);
    spans->close(top, t);

    // The client-side fold of net/trace_replay.h.
    std::uint64_t& h = out.checksum;
    if (arrival) {
      const bool ok = resp.status == net::Status::kAdmitted;
      h = net::fnv1a(h, ok ? 1 : 0);
      h = net::fnv1a(h, ok ? resp.machine : 0);
      h = net::fnv1a(h, resp.value);
      st.admitted = ok;
      st.server_id = resp.task_id;
    } else {
      h = net::fnv1a(h, resp.status == net::Status::kDeparted ? 1 : 0);
      st.admitted = false;
    }
    if (ctl.resident_count() > out.residents_max) {
      out.residents_max = ctl.resident_count();
    }
  }
  if (wal.is_open()) {
    if (wal.dirty() && !wal.commit()) out.wal_ok = false;
    wal.close();
  }
  return out;
}

}  // namespace perfbench
