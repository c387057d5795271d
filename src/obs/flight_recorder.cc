#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hetsched::obs {

namespace {

// Global dump table: fixed atomic pointers so a signal handler can walk
// it without locks or allocation.  Slots are claimed with CAS and freed
// by storing nullptr; a freed slot is reusable.
std::atomic<FlightRecorder*> g_recorders[kMaxFlightRecorders] = {};

// --- async-signal-safe formatting ------------------------------------

// Writes `v` in decimal into `p` (must hold 20+ chars); returns the
// count.  No snprintf: it is not async-signal-safe.
std::size_t format_u64(std::uint64_t v, char* p) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v > 0);
  for (std::size_t i = 0; i < n; ++i) p[i] = tmp[n - 1 - i];
  return n;
}

struct LineBuf {
  char data[256];
  std::size_t len = 0;

  void text(const char* s) {
    const std::size_t n = std::strlen(s);
    if (len + n <= sizeof data) {
      std::memcpy(data + len, s, n);
      len += n;
    }
  }
  void num(std::uint64_t v) {
    if (len + 20 <= sizeof data) len += format_u64(v, data + len);
  }
};

// write(2) loop; EINTR-safe, gives up on other errors (a dump must
// never hang a crashing process).
void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ::ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

void write_entry(int fd, const FlightEntry& e) {
  LineBuf b;
  b.text("{\"seq\":");
  b.num(e.seq);
  b.text(",\"t_ns\":");
  b.num(e.t_ns);
  b.text(",\"shard\":");
  b.num(e.shard);
  b.text(",\"kind\":");
  b.num(e.kind);
  b.text(",\"status\":");
  b.num(e.status);
  b.text(",\"machine\":");
  b.num(e.machine);
  b.text(",\"request_id\":");
  b.num(e.request_id);
  b.text(",\"value\":");
  b.num(e.value);
  b.text(",\"trace_id\":");
  b.num(e.trace_id);
  b.text("}\n");
  write_all(fd, b.data, b.len);
}

FlightEntry unpack(std::uint64_t seq,
                   const std::atomic<std::uint64_t> (&slot)[6]) {
  FlightEntry e;
  e.seq = seq;
  e.t_ns = slot[0].load(std::memory_order_relaxed);
  const std::uint64_t packed = slot[1].load(std::memory_order_relaxed);
  e.shard = static_cast<std::uint16_t>(packed >> 32);
  e.kind = static_cast<std::uint8_t>((packed >> 8) & 0xff);
  e.status = static_cast<std::uint8_t>(packed & 0xff);
  e.machine =
      static_cast<std::uint32_t>(slot[2].load(std::memory_order_relaxed));
  e.request_id = slot[3].load(std::memory_order_relaxed);
  e.value = slot[4].load(std::memory_order_relaxed);
  e.trace_id = slot[5].load(std::memory_order_relaxed);
  return e;
}

// --- crash handler ----------------------------------------------------

char g_crash_path[512] = {};
struct sigaction g_prev_actions[3] = {};
const int kFatalSignals[3] = {SIGSEGV, SIGBUS, SIGABRT};

void crash_handler(int sig) {
  if (g_crash_path[0] != '\0') flight_dump_path(g_crash_path);
  // Restore the default action and re-raise so the process still dies
  // with the original signal (core dump, wait status) after the dump.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder::FlightRecorder() {
  for (std::size_t i = 0; i < kMaxFlightRecorders; ++i) {
    FlightRecorder* expected = nullptr;
    if (g_recorders[i].compare_exchange_strong(expected, this,
                                               std::memory_order_acq_rel)) {
      table_slot_ = static_cast<int>(i);
      return;
    }
  }
}

FlightRecorder::~FlightRecorder() {
  if (table_slot_ >= 0) {
    g_recorders[table_slot_].store(nullptr, std::memory_order_release);
  }
}

void FlightRecorder::record(std::uint8_t kind, std::uint8_t status,
                            std::uint32_t machine, std::uint64_t request_id,
                            std::uint64_t value, std::uint64_t trace_id) {
  const std::uint64_t packed = (std::uint64_t{shard_} << 32) |
                               (std::uint64_t{kind} << 8) |
                               std::uint64_t{status};
  ring_.push({now_ns(), packed, machine, request_id, value, trace_id});
}

std::size_t FlightRecorder::collect(FlightEntry* out, std::size_t max) const {
  std::size_t n = 0;
  ring_.for_each([&](std::uint64_t seq, const auto& slot) {
    if (n < max) out[n++] = unpack(seq, slot);
  });
  return n;
}

std::size_t flight_dump_fd(int fd) {
  std::size_t lines = 0;
  for (std::size_t r = 0; r < kMaxFlightRecorders; ++r) {
    const FlightRecorder* rec = g_recorders[r].load(std::memory_order_acquire);
    if (rec == nullptr) continue;
    rec->ring_.for_each([&](std::uint64_t seq, const auto& slot) {
      write_entry(fd, unpack(seq, slot));
      ++lines;
    });
  }
  return lines;
}

bool flight_dump_path(const char* path) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  flight_dump_fd(fd);
  ::close(fd);
  return true;
}

void flight_install_crash_handler(const char* path) {
  std::size_t n = std::strlen(path);
  if (n >= sizeof g_crash_path) n = sizeof g_crash_path - 1;
  std::memcpy(g_crash_path, path, n);
  g_crash_path[n] = '\0';

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = static_cast<int>(SA_RESETHAND);
  for (std::size_t i = 0; i < 3; ++i) {
    ::sigaction(kFatalSignals[i], &sa, &g_prev_actions[i]);
  }
}

}  // namespace hetsched::obs
