#include "svc/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "obs/json.h"
#include "obs/trace.h"

namespace cool::svc {

namespace {

void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("wal: cannot create directory '" + dir +
                           "': " + std::strerror(errno));
}

void fsync_file(std::FILE* file) {
  if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0)
    throw std::runtime_error(std::string("wal: fsync failed: ") +
                             std::strerror(errno));
}

// Best effort: persist the directory entry after a create/rename. Failure
// here is not fatal (some filesystems refuse O_RDONLY fsync on dirs).
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string wal_path(const std::string& dir) { return dir + "/wal.jsonl"; }

std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.json";
}

std::string WalEntry::to_line() const {
  std::string out = "{\"lsn\":" + std::to_string(lsn);
  out += ",\"degrade\":" + std::to_string(degrade);
  if (trace != 0)
    out += ",\"trace\":\"" + obs::format_trace_id(trace) + '"';
  out += ",\"req\":" + request.to_json();
  out += '}';
  return out;
}

WalWriter::WalWriter(const std::string& dir, bool fsync_enabled)
    : path_(wal_path(dir)), fsync_enabled_(fsync_enabled) {
  ensure_dir(dir);
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_)
    throw std::runtime_error("wal: cannot open '" + path_ +
                             "': " + std::strerror(errno));
}

WalWriter::~WalWriter() {
  if (file_) std::fclose(file_);
}

void WalWriter::append(const WalEntry& entry) {
  const std::string line = entry.to_line() + '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
    throw std::runtime_error("wal: short write to '" + path_ + "'");
  ++appended_;
  bytes_ += line.size();
}

void WalWriter::sync() {
  if (fsync_enabled_) {
    fsync_file(file_);
  } else if (std::fflush(file_) != 0) {
    throw std::runtime_error("wal: flush failed on '" + path_ + "'");
  }
  ++syncs_;
}

void WalWriter::reset_to_empty() {
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");  // truncate
  if (!file_)
    throw std::runtime_error("wal: cannot truncate '" + path_ +
                             "': " + std::strerror(errno));
  if (fsync_enabled_) fsync_file(file_);
}

WalRecovery read_wal_dir(const std::string& dir, const ParseLimits& limits) {
  WalRecovery recovery;

  // Snapshot first: it sets the replay floor. The write path is atomic
  // (tmp + rename), so a malformed snapshot means external damage — treat
  // it as absent rather than refusing to start.
  {
    std::ifstream in(snapshot_path(dir), std::ios::binary);
    if (in) {
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      try {
        const obs::JsonValue value = obs::parse_json(text);
        std::optional<std::uint64_t> lsn;
        if (value.is_object() && value.contains("lsn"))
          lsn = integer_in_range(value.at("lsn").as_number(), 0,
                                 kMaxJsonInteger);
        if (lsn) {
          recovery.snapshot_present = true;
          recovery.snapshot_json = std::move(text);
          recovery.snapshot_lsn = *lsn;
          recovery.max_lsn = recovery.snapshot_lsn;
        } else {
          recovery.torn_bytes += text.size();
        }
      } catch (const std::exception&) {
        recovery.torn_bytes += text.size();
      }
    }
  }

  std::ifstream in(wal_path(dir), std::ios::binary | std::ios::ate);
  if (!in) return recovery;  // no WAL yet — fresh directory
  recovery.wal_bytes = static_cast<std::size_t>(in.tellg());
  in.seekg(0);

  std::string line;
  std::uint64_t prev_lsn = 0;
  bool torn = false;
  while (std::getline(in, line)) {
    if (torn) {
      // Everything after the first bad line is unreachable by replay; a
      // valid-looking record after garbage cannot be trusted.
      recovery.torn_bytes += line.size() + 1;
      continue;
    }
    if (line.empty()) continue;
    WalEntry entry;
    bool entry_ok = false;
    try {
      const obs::JsonValue value = obs::parse_json(line);
      if (value.is_object() && value.contains("lsn") &&
          value.at("lsn").is_number() && value.contains("req")) {
        // A non-integral or out-of-range lsn/degrade makes the line bad,
        // exactly like a torn one (degrade 1 is the retired exact rung).
        const auto lsn =
            integer_in_range(value.at("lsn").as_number(), 1, kMaxJsonInteger);
        const auto degrade =
            value.contains("degrade")
                ? integer_in_range(value.at("degrade").as_number(), 0, 2)
                : std::optional<std::uint64_t>(0);
        if (value.contains("trace") && value.at("trace").is_string())
          entry.trace = obs::parse_trace_id(value.at("trace").as_string());
        ParseResult parsed = request_from_json(value.at("req"), limits);
        if (lsn && degrade && parsed.ok && *lsn > prev_lsn) {
          entry.lsn = *lsn;
          entry.degrade = static_cast<int>(*degrade);
          entry.request = std::move(parsed.request);
          entry_ok = true;
        }
      }
    } catch (const std::exception&) {
      entry_ok = false;
    }
    if (!entry_ok) {
      torn = true;
      recovery.torn_bytes += line.size() + 1;
      continue;
    }
    prev_lsn = entry.lsn;
    if (entry.lsn > recovery.max_lsn) recovery.max_lsn = entry.lsn;
    if (entry.lsn > recovery.snapshot_lsn)
      recovery.entries.push_back(std::move(entry));
  }
  // A SIGKILL mid-append leaves a final line without '\n'; getline still
  // returns it and the JSON parse above rejects the truncation.
  return recovery;
}

void write_snapshot_atomic(const std::string& dir, const std::string& json) {
  ensure_dir(dir);
  const std::string tmp = snapshot_path(dir) + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file)
    throw std::runtime_error("wal: cannot open '" + tmp +
                             "': " + std::strerror(errno));
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), file) == json.size();
  bool synced = false;
  if (wrote) {
    try {
      fsync_file(file);
      synced = true;
    } catch (...) {
      std::fclose(file);
      std::remove(tmp.c_str());
      throw;
    }
  }
  std::fclose(file);
  if (!wrote || !synced) {
    std::remove(tmp.c_str());
    throw std::runtime_error("wal: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), snapshot_path(dir).c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("wal: rename to '" + snapshot_path(dir) +
                             "' failed: " + std::strerror(errno));
  }
  fsync_dir(dir);
}

}  // namespace cool::svc
