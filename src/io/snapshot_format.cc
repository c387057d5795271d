#include "io/snapshot_format.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/eintr.h"
#include "util/little_endian.h"

namespace hetsched::io {

namespace {

std::string shard_prefix(std::uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%03u", shard);
  return buf;
}

bool write_file_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void fsync_dir(const std::string& dir) {
  const int dfd = util::retry_eintr([&] {
    return ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  });
  if (dfd >= 0) {
    util::retry_eintr([&] { return ::fsync(dfd); });
    ::close(dfd);
  }
}

}  // namespace

std::string wal_path(const std::string& dir, std::uint32_t shard) {
  return dir + "/" + shard_prefix(shard) + ".wal";
}

std::string snapshot_path(const std::string& dir, std::uint32_t shard,
                          std::uint64_t decision_seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "shard-%03u-%020llu.snap", shard,
                static_cast<unsigned long long>(decision_seq));
  return dir + "/" + buf;
}

bool ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    struct stat st{};
    return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
  }
  return false;
}

std::string write_snapshot_file(const std::string& dir,
                                const SnapshotFileMeta& meta,
                                std::span<const std::uint8_t> payload,
                                std::size_t keep, bool durable,
                                std::string* error) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(64 + meta.forwards.size() * 20 + payload.size());
  put_le<std::uint32_t>(bytes, kSnapshotMagic);
  put_le<std::uint32_t>(bytes, kSnapshotVersion);
  put_le<std::uint32_t>(bytes, meta.shard);
  put_le<std::uint32_t>(bytes, meta.epoch);
  put_le<std::uint64_t>(bytes, meta.decision_seq);
  put_le<std::uint64_t>(bytes, meta.decision_checksum);
  bytes.push_back(meta.active ? 1 : 0);
  put_le(bytes, static_cast<std::uint32_t>(meta.forwards.size()));
  for (const SnapshotForward& f : meta.forwards) {
    put_le<std::uint64_t>(bytes, f.old_id);
    put_le<std::uint32_t>(bytes, f.peer_shard);
    put_le<std::uint64_t>(bytes, f.new_id);
  }
  put_le(bytes, static_cast<std::uint32_t>(payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  put_le<std::uint32_t>(bytes, crc32(bytes.data(), bytes.size()));

  const std::string final_path =
      snapshot_path(dir, meta.shard, meta.decision_seq);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = util::retry_eintr([&] {
    return ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                  0644);
  });
  if (fd < 0) {
    if (error != nullptr) *error = tmp_path + ": " + std::strerror(errno);
    return "";
  }
  // A signal between the temp write and the publish rename must not turn
  // into a lost snapshot: retry the durability syscalls through EINTR and
  // only then judge the publish.
  const bool ok =
      write_file_all(fd, bytes.data(), bytes.size()) &&
      (!durable || util::retry_eintr([&] { return ::fsync(fd); }) == 0);
  ::close(fd);
  if (!ok || util::retry_eintr([&] {
        return ::rename(tmp_path.c_str(), final_path.c_str());
      }) != 0) {
    if (error != nullptr) *error = final_path + ": " + std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return "";
  }
  if (durable) fsync_dir(dir);

  if (keep > 0) {
    std::vector<std::string> snaps = list_snapshots(dir, meta.shard);
    for (std::size_t i = keep; i < snaps.size(); ++i) {
      ::unlink(snaps[i].c_str());
    }
  }
  return final_path;
}

bool read_snapshot_file(const std::string& path, SnapshotFileMeta* meta,
                        std::vector<std::uint8_t>* payload,
                        std::string* error) {
  const int fd = util::retry_eintr(
      [&] { return ::open(path.c_str(), O_RDONLY | O_CLOEXEC); });
  if (fd < 0) {
    if (error != nullptr) *error = path + ": " + std::strerror(errno);
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = path + ": " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  ::close(fd);

  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = path + ": " + why;
    return false;
  };
  if (bytes.size() < 41 + 4) return fail("truncated header");
  const std::uint32_t crc_stored = get_u32(bytes.data() + bytes.size() - 4);
  if (crc32(bytes.data(), bytes.size() - 4) != crc_stored) {
    return fail("CRC mismatch");
  }
  const std::uint8_t* head = bytes.data();
  if (get_u32(head) != kSnapshotMagic) return fail("bad magic");
  if (get_u32(head + 4) != kSnapshotVersion) return fail("bad version");
  meta->shard = get_u32(head + 8);
  meta->epoch = get_u32(head + 12);
  meta->decision_seq = get_u64(head + 16);
  meta->decision_checksum = get_u64(head + 24);
  meta->active = head[32] != 0;
  const std::uint32_t fwd_count = get_u32(head + 33);
  std::size_t off = 37;
  if (bytes.size() < off + static_cast<std::size_t>(fwd_count) * 20 + 8) {
    return fail("truncated forwarding table");
  }
  meta->forwards.clear();
  meta->forwards.reserve(fwd_count);
  for (std::uint32_t i = 0; i < fwd_count; ++i) {
    SnapshotForward f;
    f.old_id = get_u64(head + off);
    f.peer_shard = get_u32(head + off + 8);
    f.new_id = get_u64(head + off + 12);
    meta->forwards.push_back(f);
    off += 20;
  }
  const std::uint32_t payload_len = get_u32(head + off);
  off += 4;
  if (bytes.size() != off + payload_len + 4) return fail("bad payload length");
  payload->assign(head + off, head + off + payload_len);
  return true;
}

std::vector<std::string> list_snapshots(const std::string& dir,
                                        std::uint32_t shard) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  const std::string prefix = shard_prefix(shard) + "-";
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() == prefix.size() + 20 + 5 &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - 5, 5, ".snap") == 0) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  // Zero-padded decision_seq in the name: lexicographic desc == newest
  // first.
  std::sort(names.begin(), names.end(), std::greater<>());
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const std::string& n : names) paths.push_back(dir + "/" + n);
  return paths;
}

void prune_snapshots_except(const std::string& dir, std::uint32_t shard,
                            const std::string& keep_path) {
  for (const std::string& path : list_snapshots(dir, shard)) {
    if (path != keep_path) ::unlink(path.c_str());
  }
}

std::size_t discover_shard_count(const std::string& dir) {
  std::size_t count = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    unsigned shard = 0;
    if (name.size() >= 9 && std::sscanf(name.c_str(), "shard-%3u", &shard) == 1 &&
        (name.find(".wal") != std::string::npos ||
         name.find(".snap") != std::string::npos)) {
      count = std::max(count, static_cast<std::size_t>(shard) + 1);
    }
  }
  ::closedir(d);
  return count;
}

}  // namespace hetsched::io
